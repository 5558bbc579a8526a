//! In-process probe of the perfbench harness (`perfbench/run.py`).
//!
//! ```text
//! perfbench-probe setup --scale eval|test
//! perfbench-probe trace --scale eval|test --seed N --spans PATH
//! ```
//!
//! `setup` builds the workload catalog (kernel construction, compilation
//! and input initialisation) again and again for [`SETUP_BUDGET`] and
//! prints every sample, so the harness can report their median.
//!
//! `trace` is the per-layer run. It does the work of the benchmark's
//! commands in one process, calling each layer's public function directly
//! and recording a span around every call: wall time plus the allocation
//! traffic counted by the [`CountingAlloc`] global allocator. Spans stay in
//! memory until the end, when they are written to `PATH` together with the
//! simulated-result fingerprint of every (kernel, technique) job. Stdout
//! gets one JSON line: aggregated per-layer metrics, the number of checked
//! operations, the failures among them and the fingerprint digest.
//!
//! The seed only permutes the order in which kernels are visited: catalog
//! inputs are fixed-seeded inside `workloads`, so no simulated result
//! depends on it.

use darsie_bench::manifest::{alloc_counters, CountingAlloc};
use darsie_bench::{eval_gpu, fig12_techniques, fig8_techniques};
use gpu_sim::digest::{fold, splitmix64, DigestConfig, FNV_OFFSET};
use gpu_sim::{trace_redundancy, GpuConfig, SimResult, Technique};
use simt_verify::family::FamilyVerdict;
use simt_verify::{blocks, cost, family, oracle, races, symex};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{catalog, Scale, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How long `setup` keeps building the catalog (at least 3 builds).
const SETUP_BUDGET: Duration = Duration::from_millis(400);
/// Test-scale sweeps per configuration in the launch-overhead section.
const SWEEPS: usize = 5;
/// Differential samples per kernel, as `certify --family` uses by default.
const FAMILY_SAMPLES: usize = 25;

/// One timed call into a layer.
struct Span {
    /// Layer function, e.g. `gpu-sim.launch`.
    layer: &'static str,
    /// What the call worked on, e.g. `MM/DARSIE`.
    key: String,
    /// Index of the enclosing section span.
    parent: Option<usize>,
    start_s: f64,
    wall_s: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// In-memory span store.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Open sections: span index plus the allocation counters at entry.
    open: Vec<(usize, u64, u64)>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn push(&mut self, layer: &'static str, key: String) -> usize {
        self.spans.push(Span {
            layer,
            key,
            parent: self.open.last().map(|o| o.0),
            start_s: self.t0.elapsed().as_secs_f64(),
            wall_s: 0.0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one call of `layer`.
    fn span<T>(&mut self, layer: &'static str, key: &str, f: impl FnOnce() -> T) -> T {
        let i = self.push(layer, key.to_string());
        let (b0, c0) = alloc_counters();
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let (b1, c1) = alloc_counters();
        let s = &mut self.spans[i];
        s.wall_s = wall_s;
        s.allocs = c1 - c0;
        s.alloc_bytes = b1 - b0;
        out
    }

    /// Opens a section; spans recorded until [`Recorder::end`] are its
    /// children.
    fn begin(&mut self, layer: &'static str, key: &str) {
        let i = self.push(layer, key.to_string());
        let (b, c) = alloc_counters();
        self.open.push((i, b, c));
    }

    /// Closes the innermost section and returns its wall time and
    /// allocation count.
    fn end(&mut self) -> (f64, u64) {
        let (i, b0, c0) = self.open.pop().expect("end() matches a begin()");
        let (b1, c1) = alloc_counters();
        let now = self.t0.elapsed().as_secs_f64();
        let s = &mut self.spans[i];
        s.wall_s = now - s.start_s;
        s.allocs = c1 - c0;
        s.alloc_bytes = b1 - b0;
        (s.wall_s, s.allocs)
    }

    fn last(&self) -> &Span {
        self.spans.last().expect("a span was recorded")
    }

    /// Total wall time and allocations of every call of `layer`.
    fn total(&self, layer: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0.0, 0), |(w, a), s| (w + s.wall_s, a + s.allocs))
    }
}

/// Simulated result and host cost of one (kernel, technique) job.
struct Job {
    cycles: u64,
    warp_instrs: u64,
    digest_root: u64,
    probes: u64,
    skips: u64,
    launch_s: f64,
    allocs: u64,
}

/// Checked operations and the failures among them.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Warp instructions the simulator accounted for: executed, skipped at
/// fetch and reused at issue.
fn warp_instrs(r: &SimResult) -> u64 {
    let s = &r.stats;
    s.instrs_executed + s.instrs_skipped.total() + s.instrs_reused.total()
}

/// Catalog indices in a seed-determined order.
fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = splitmix64(s.wrapping_add(i as u64));
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times one catalog build and one recompilation of every catalog kernel.
fn setup_section(rec: &mut Recorder, m: &mut BTreeMap<String, f64>) {
    let mut sample = |scale: Scale, key: &str, reps: usize| {
        let mut cat = Vec::new();
        let mut comp = Vec::new();
        for _ in 0..reps {
            let ws = rec.span("workloads.catalog", key, || catalog(scale));
            cat.push(rec.last().wall_s);
            rec.begin("simt-compiler.compile-catalog", key);
            for w in &ws {
                rec.span("simt-compiler.compile", w.abbr, || {
                    black_box(simt_compiler::compile(w.ck.kernel.clone()))
                });
            }
            comp.push(rec.end().0);
        }
        (median(cat), median(comp))
    };
    let (eval_s, compile_s) = sample(Scale::Eval, "eval", 3);
    let (test_s, _) = sample(Scale::Test, "test", 5);
    m.insert("workloads.catalog_s.eval".into(), eval_s);
    m.insert("workloads.catalog_s.test".into(), test_s);
    m.insert("simt-compiler.compile_s".into(), compile_s);
}

/// The work of `figures all` on the evaluation machine: four catalog
/// builds, the limit-study traces and the Figure-8 and Figure-12 technique
/// sweeps, whose BASE and DARSIE jobs the command simulates twice.
fn figures_section(
    rec: &mut Recorder,
    scale: Scale,
    seed: u64,
    out: &mut Outcome,
    jobs: &mut BTreeMap<(&'static str, &'static str), Job>,
    m: &mut BTreeMap<String, f64>,
) {
    let cfg = eval_gpu(4);
    rec.begin("darsie-bench.figures", "");
    let mut distinct_s = 0.0;
    rec.span("workloads.catalog", "table1", || black_box(catalog(scale)));
    let ws = rec.span("workloads.catalog", "limit-study", || catalog(scale));
    for i in order(ws.len(), seed) {
        let w = &ws[i];
        let (_, mem) = rec
            .span("gpu-sim.trace", w.abbr, || trace_redundancy(&w.ck, &w.launch, w.memory.clone()));
        distinct_s += rec.last().wall_s;
        let res = rec.span("workloads.check", w.abbr, || (w.check)(&mem));
        distinct_s += rec.last().wall_s;
        out.check(res.is_ok(), || format!("{} functional trace: {:?}", w.abbr, res.err()));
    }
    for (sweep, techniques) in [("fig8", fig8_techniques()), ("fig12", fig12_techniques())] {
        let ws = rec.span("workloads.catalog", sweep, || catalog(scale));
        for i in order(ws.len(), seed ^ 0x5eed) {
            let w = &ws[i];
            for t in &techniques {
                let key = format!("{}/{}", w.abbr, t.label());
                let r = rec.span("gpu-sim.launch", &key, || w.run_unchecked(&cfg, t.clone()));
                let (launch_s, allocs) = (rec.last().wall_s, rec.last().allocs);
                let res = rec.span("workloads.check", &key, || (w.check)(&r.memory));
                let check_s = rec.last().wall_s;
                out.check(res.is_ok(), || format!("{key} validation: {:?}", res.err()));
                let job = Job {
                    cycles: r.stats.cycles,
                    warp_instrs: warp_instrs(&r),
                    digest_root: r.stats.digest_root,
                    probes: r.stats.darsie.skip_table_probes,
                    skips: r.stats.darsie.instructions_skipped,
                    launch_s,
                    allocs,
                };
                match jobs.get(&(w.abbr, t.label())) {
                    Some(first) => out.check(
                        (first.cycles, first.warp_instrs, first.digest_root)
                            == (job.cycles, job.warp_instrs, job.digest_root),
                        || format!("{key} simulated twice with different results"),
                    ),
                    None => {
                        distinct_s += launch_s + check_s;
                        jobs.insert((w.abbr, t.label()), job);
                    }
                }
            }
        }
    }
    let replica_s = rec.end().0;
    m.insert("probe.figures_replica_s".into(), replica_s);
    // What the replica spends beyond the distinct jobs and traces: the
    // catalog builds and the Figure-12 re-simulation of BASE and DARSIE.
    m.insert("darsie-bench.excess_s".into(), replica_s - distinct_s);

    m.insert("workloads.check_s".into(), rec.total("workloads.check").0);
    let (trace_s, trace_allocs) = rec.total("gpu-sim.trace");
    m.insert("gpu-sim.trace_s".into(), trace_s);
    m.insert("gpu-sim.trace_allocs".into(), trace_allocs as f64);
    let mut launch_s = BTreeMap::new();
    let mut cycles = BTreeMap::new();
    for t in fig8_techniques().iter().chain(&fig12_techniques()) {
        let label = t.label();
        let name = label.to_lowercase();
        let of_t: Vec<&Job> =
            jobs.iter().filter(|((_, l), _)| *l == label).map(|(_, j)| j).collect();
        let secs: f64 = of_t.iter().map(|j| j.launch_s).sum();
        let instrs: u64 = of_t.iter().map(|j| j.warp_instrs).sum();
        let cyc: u64 = of_t.iter().map(|j| j.cycles).sum();
        let allocs: u64 = of_t.iter().map(|j| j.allocs).sum();
        m.insert(format!("gpu-sim.launch_s.{name}"), secs);
        m.insert(format!("gpu-sim.ns_per_warp_instr.{name}"), secs * 1e9 / instrs.max(1) as f64);
        m.insert(format!("gpu-sim.allocs_per_cycle.{name}"), allocs as f64 / cyc.max(1) as f64);
        m.insert(format!("sim.cycles.{name}"), cyc as f64);
        m.insert(format!("sim.warp_instrs.{name}"), instrs as f64);
        launch_s.insert(label, secs);
        cycles.insert(label, cyc);
    }
    for ((abbr, label), j) in jobs.iter() {
        if *label == "BASE" || *label == "DARSIE" {
            m.insert(
                format!("gpu-sim.ns_per_warp_instr.{}.{abbr}", label.to_lowercase()),
                j.launch_s * 1e9 / j.warp_instrs.max(1) as f64,
            );
        }
    }
    m.insert("darsie.host_ratio".into(), launch_s["DARSIE"] / launch_s["BASE"].max(1e-12));
    m.insert("darsie.sim_speedup".into(), cycles["BASE"] as f64 / cycles["DARSIE"].max(1) as f64);
    let darsie = jobs.iter().filter(|((_, l), _)| *l == "DARSIE").map(|(_, j)| j);
    let (probes, skips) = darsie.fold((0, 0), |(p, s), j| (p + j.probes, s + j.skips));
    m.insert("darsie.probes".into(), probes as f64);
    m.insert("darsie.skips_per_probe".into(), skips as f64 / probes.max(1) as f64);
}

/// The work of `verify`, `certify`, `certify --family` and `prove`, plus
/// the static cycle estimator, one pass function at a time.
fn analysis_section(
    rec: &mut Recorder,
    scale: Scale,
    seed: u64,
    out: &mut Outcome,
    m: &mut BTreeMap<String, f64>,
) {
    let gc = GpuConfig::test_small();
    rec.begin("simt-verify.analysis", "");
    let ws = rec.span("workloads.catalog", "analysis", || catalog(scale));
    let visit = order(ws.len(), seed ^ 0xa11);
    for &i in &visit {
        let w = &ws[i];
        let (ck, l) = (&w.ck, &w.launch);
        let mut errors = rec.span("simt-verify.verify_launch", w.abbr, || {
            simt_verify::verify_launch(ck, l).error_count()
        });
        errors += rec.span("simt-verify.races", w.abbr, || races::check(ck, l).error_count());
        errors += rec
            .span("simt-verify.blocks_analyze", w.abbr, || blocks::analyze(ck, l).1.error_count());
        errors += rec.span("simt-verify.cost_check", w.abbr, || cost::check(ck, l).error_count());
        errors += rec.span("simt-verify.symex_check", w.abbr, || {
            symex::check(ck, l, &w.memory).error_count()
        });
        errors += rec.span("simt-verify.oracle", w.abbr, || {
            oracle::check(ck, l, w.memory.clone()).error_count()
        });
        out.check(errors == 0, || format!("{}: verify found {errors} error(s)", w.abbr));
    }
    for &i in &visit {
        let w = &ws[i];
        let (cert, report) = rec.span("simt-verify.certify", w.abbr, || {
            blocks::certify(&w.ck, &w.launch, w.memory.clone())
        });
        out.check(report.error_count() == 0, || {
            format!("{}: certify is {}: {}", w.abbr, cert.classification.label(), report.render())
        });
    }
    for &i in &visit {
        let w = &ws[i];
        let (ck, fam, l, mem) = (&w.ck, &w.family, &w.launch, &w.memory);
        let cert = rec.span("simt-verify.certify_family", w.abbr, || {
            family::certify_family(ck, fam, l, mem, &gc)
        });
        rec.span("simt-verify.estimate_family", w.abbr, || {
            cost::estimate_family(ck, fam, l, &gc, &[Technique::Base, Technique::darsie()])
        });
        let Ok(cert) = cert else {
            out.check(false, || format!("{}: malformed family region", w.abbr));
            continue;
        };
        let disputes = rec.span("simt-verify.differential_check", w.abbr, || {
            family::differential_check(ck, fam, l, mem, &cert, FAMILY_SAMPLES, 1)
        });
        out.check(cert.verdict != FamilyVerdict::PerLaunchOnly && disputes.is_empty(), || {
            format!("{}: family {} {disputes:?}", w.abbr, cert.verdict.label())
        });
    }
    for &i in &visit {
        let w = &ws[i];
        let p = rec.span("simt-verify.prove", w.abbr, || {
            symex::prove_with_threads(&w.ck, Some((&w.launch, &w.memory)), 1)
        });
        let s = &p.stats;
        out.check(s.disproved == 0 && s.unknown == 0 && p.report.error_count() == 0, || {
            format!("{}: prove {} disproved, {} unknown", w.abbr, s.disproved, s.unknown)
        });
    }
    for &i in &visit {
        let w = &ws[i];
        for t in [Technique::Base, Technique::darsie()] {
            let key = format!("{}/{}", w.abbr, t.label());
            rec.span("simt-verify.estimate", &key, || cost::estimate(&w.ck, &w.launch, &gc, &t));
        }
    }
    rec.end();
    for pass in [
        "verify_launch",
        "races",
        "blocks_analyze",
        "cost_check",
        "symex_check",
        "oracle",
        "prove",
        "certify",
        "certify_family",
        "differential_check",
        "estimate",
        "estimate_family",
    ] {
        let (secs, allocs) = rec.total(&format!("simt-verify.{pass}"));
        m.insert(format!("simt-verify.{pass}_s"), secs);
        if matches!(pass, "oracle" | "certify" | "certify_family" | "differential_check") {
            m.insert(format!("simt-verify.{pass}_allocs"), allocs as f64);
        }
    }
}

/// The gates' use of the simulator: many small launches of the test
/// catalog on `test_small` (shadow checking on), swept under BASE and
/// DARSIE with the default digest, with digests off and with profiling on.
fn test_launch_section(rec: &mut Recorder, out: &mut Outcome, m: &mut BTreeMap<String, f64>) {
    let ws = rec.span("workloads.catalog", "test-launches", || catalog(Scale::Test));
    let configs = [
        ("default", GpuConfig::test_small()),
        ("digest-off", GpuConfig { digest: DigestConfig::off(), ..GpuConfig::test_small() }),
        ("profile", GpuConfig { profile: true, ..GpuConfig::test_small() }),
    ];
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut roots: BTreeMap<String, u64> = BTreeMap::new();
    let (mut instrs, mut cycles, mut allocs) = (0u64, 0u64, Vec::new());
    for _ in 0..SWEEPS {
        // Interleaved, so slow drift on a busy machine hits every
        // configuration alike.
        for (name, cfg) in &configs {
            rec.begin("gpu-sim.test-sweep", name);
            let (mut sweep_instrs, mut sweep_cycles) = (0, 0);
            for w in &ws {
                for t in [Technique::Base, Technique::darsie()] {
                    let key = format!("{name}:{}/{}", w.abbr, t.label());
                    let r = rec.span("gpu-sim.test-launch", &key, || w.run_unchecked(cfg, t));
                    sweep_instrs += warp_instrs(&r);
                    sweep_cycles += r.stats.cycles;
                    let first = *roots.entry(key.clone()).or_insert(r.stats.digest_root);
                    out.check(first == r.stats.digest_root, || {
                        format!("{key}: digest root differs between sweeps")
                    });
                }
            }
            let (wall, sweep_allocs) = rec.end();
            walls.entry(name).or_default().push(wall);
            if *name == "default" {
                instrs = sweep_instrs;
                cycles = sweep_cycles;
                allocs.push(sweep_allocs as f64);
            }
        }
    }
    let launches = (ws.len() * 2) as f64;
    let default = median(walls["default"].clone());
    m.insert("gpu-sim.test.launch_ms".into(), default * 1e3 / launches);
    m.insert("gpu-sim.test.ns_per_warp_instr".into(), default * 1e9 / instrs.max(1) as f64);
    m.insert("gpu-sim.test.allocs_per_cycle".into(), median(allocs) / cycles.max(1) as f64);
    // Time with the feature as a percentage of time without it, so 100
    // means no overhead and the figure stays far from 0.
    let ratio_pct = |a: &str, b: &str| 100.0 * median(walls[a].clone()) / median(walls[b].clone());
    m.insert("gpu-sim.digest_overhead_pct".into(), ratio_pct("default", "digest-off"));
    m.insert("gpu-sim.profile_overhead_pct".into(), ratio_pct("profile", "default"));
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn write_spans(
    path: &str,
    rec: &Recorder,
    jobs: &BTreeMap<(&'static str, &'static str), Job>,
) -> std::io::Result<()> {
    let spans: Vec<String> = rec
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"layer\":{},\"key\":{},\"parent\":{},\"start_s\":{:.9},\"wall_s\":{:.9},\
                 \"allocs\":{},\"alloc_bytes\":{}}}",
                json_str(s.layer),
                json_str(&s.key),
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.start_s,
                s.wall_s,
                s.allocs,
                s.alloc_bytes
            )
        })
        .collect();
    let jobs: Vec<String> = jobs
        .iter()
        .map(|((abbr, t), j)| {
            format!(
                "{{\"abbr\":{},\"technique\":{},\"cycles\":{},\"warp_instrs\":{},\
                 \"digest_root\":\"{:#018x}\"}}",
                json_str(abbr),
                json_str(t),
                j.cycles,
                j.warp_instrs,
                j.digest_root
            )
        })
        .collect();
    std::fs::write(
        path,
        format!("{{\"spans\":[\n{}\n],\"jobs\":[\n{}\n]}}\n", spans.join(",\n"), jobs.join(",\n")),
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-probe setup --scale eval|test\n       \
         perfbench-probe trace --scale eval|test --seed N --spans PATH"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| usage());
    let (mut scale, mut seed, mut spans) = (None, 0u64, None);
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => {
                scale = Some(match value.as_str() {
                    "eval" => Scale::Eval,
                    "test" => Scale::Test,
                    _ => usage(),
                });
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--spans" => spans = Some(value.clone()),
            _ => usage(),
        }
    }
    let scale = scale.unwrap_or_else(|| usage());
    match mode.as_str() {
        "setup" => {
            let start = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < 3 || (start.elapsed() < SETUP_BUDGET && samples.len() < 1000) {
                let t = Instant::now();
                let ws: Vec<Workload> = catalog(scale);
                samples.push(t.elapsed().as_secs_f64());
                drop(black_box(ws));
            }
            let s: Vec<String> = samples.iter().map(|x| format!("{x:.9}")).collect();
            println!("{{\"catalog_s\":[{}]}}", s.join(","));
        }
        "trace" => {
            let path = spans.unwrap_or_else(|| usage());
            let mut rec = Recorder::new();
            let mut out = Outcome::default();
            let mut jobs = BTreeMap::new();
            let mut m = BTreeMap::new();
            setup_section(&mut rec, &mut m);
            figures_section(&mut rec, scale, seed, &mut out, &mut jobs, &mut m);
            analysis_section(&mut rec, scale, seed, &mut out, &mut m);
            test_launch_section(&mut rec, &mut out, &mut m);
            let mut fp = FNV_OFFSET;
            for j in jobs.values() {
                for v in [j.cycles, j.warp_instrs, j.digest_root] {
                    fold(&mut fp, v);
                }
            }
            if let Err(e) = write_spans(&path, &rec, &jobs) {
                eprintln!("cannot write spans to {path}: {e}");
                std::process::exit(1);
            }
            let metrics: Vec<String> =
                m.iter().map(|(k, v)| format!("{}:{v:e}", json_str(k))).collect();
            let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
            println!(
                "{{\"metrics\":{{{}}},\"attempted\":{},\"failures\":[{}],\"jobs\":{},\
                 \"fingerprint\":\"{:#018x}\"}}",
                metrics.join(","),
                out.attempted,
                failures.join(","),
                jobs.len(),
                splitmix64(fp)
            );
        }
        _ => usage(),
    }
}
