//! Command-line simulator driver: run one benchmark under one technique
//! and print the full statistics and energy breakdown.
//!
//! ```text
//! darsie-sim MM --technique darsie --sms 4 --scale eval
//! darsie-sim LIB --technique base --scheduler lrr
//! darsie-sim --list
//! darsie-sim verify [ABBR ...] [--workload NAME] [--scale test|eval] [--json] [--threads N]
//! darsie-sim certify [ABBR ...] [--workload NAME] [--scale test|eval] [--json] [--threads N]
//! darsie-sim certify --family [ABBR ...] [--scale test|eval] [--json] [--threads N] [--samples N]
//! darsie-sim analyze [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim prove [ABBR ...] [--workload NAME] [--scale test|eval] [--json] [--threads N]
//! darsie-sim profile [ABBR ...] [--workload NAME] [--scale test|eval] [--json] [--perfetto PATH]
//! darsie-sim estimate [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim bench [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim replay-diff [ABBR ...] [--scale test|eval] [--json] [--technique T] [--sms N]
//!            [--scheduler gto|lrr] [--against KEY=VALUE ...] [--perturb CYCLE]
//! darsie-sim lints [--json]
//! ```
//!
//! Every subcommand (and the bare benchmark mode) additionally accepts
//! `--manifest PATH`: a structured run manifest — tool version, config
//! fingerprint, per-phase wall/allocation spans, result counters and
//! digest roots — is written there on exit, success or failure.
//!
//! The `verify` subcommand runs the `simt-verify` static checks (including
//! the shared-memory race detector) and the differential marking-soundness
//! oracle over the selected workloads (all of them by default) and exits
//! non-zero on any error-severity finding. `--json` swaps the report for a
//! machine-readable document for CI consumption, including per-lint-code
//! totals. `--threads N` shards the workloads across a scoped thread pool
//! with byte-identical output.
//!
//! The `certify` subcommand is the inter-thread-block independence
//! certifier gating the sharded engine: for each workload it runs the
//! static block-affine global-footprint analysis and then replays the
//! whole launch under the dynamic global-memory shadow sanitizer, and
//! reports the classification (`block-independent`,
//! `commutative-atomics-only` or `potentially-racy`) with any
//! `V310`–`V313` findings and the first concrete block-pair witness. It
//! exits non-zero on any error-severity finding (`V310`/`V312`).
//! `--threads N` shards the workloads with byte-identical output.
//!
//! `certify --family` switches to launch-family-parametric mode: one
//! certificate per kernel covering the workload's whole declared
//! grid/block region, tiered `FamilyProved` / `FamilySampled` /
//! `PerLaunchOnly`, each cross-checked by a differential gate that
//! certifies `--samples N` (default 25) deterministic member launches
//! concretely. Exits non-zero on any refutation or disagreement.
//!
//! The `analyze` subcommand is the static performance analyzer: for each
//! workload it reports baseline vs refined marking counts and skip
//! coverage, the refinement upgrades by pass, blame-seed histograms for
//! the remaining vector markings, the measured dynamic-redundancy headroom
//! of the refined plan, and predicted-vs-measured shared-memory
//! bank-conflict and global-coalescing statistics (cross-validated against
//! a cycle-simulator run of the baseline technique). It exits non-zero if
//! the refined markings fail the soundness oracle or any memory prediction
//! bound excludes the measured counters.
//!
//! The `prove` subcommand runs the symbolic translation validator: for
//! each workload it discharges every redundancy-marking and branch-sync
//! claim over the whole launch family the marking quantifies over, and
//! reports per-workload proved/disproved/unknown counts plus a per-claim
//! ledger (`--json`) with verdicts, unknown reasons and evaluation costs.
//! `--threads N` shards the discharge across a thread pool with
//! byte-identical output; wall time is printed to stderr. It exits
//! non-zero on any disproof (`S401`) or branch-sync violation (`S403`).
//!
//! The `profile` subcommand runs each selected workload under the
//! baseline and DARSIE with cycle-accounted profiling: every issue slot
//! of every cycle is attributed to exactly one stall cause, and the
//! accounting identity (`Σ causes == cycles × schedulers × issue_width`)
//! is checked on every run — a violation exits non-zero. The report
//! breaks slots down by cause, lists the hottest PCs, and summarizes
//! leader-election latency and DARSIE structure occupancy. With
//! `--perfetto PATH` the DARSIE run's pipeline events are written as
//! Chrome trace-event JSON loadable in <https://ui.perfetto.dev>.
//!
//! The `estimate` subcommand is the differential gate for the static
//! cycle-bound cost model: for each selected workload it runs the
//! WCET-style estimator and the cycle simulator side by side, under both
//! the baseline and DARSIE, and exits non-zero if any measured cycle
//! count falls outside its static `[min, max]` bracket (`E202`).
//! Unboundable loop trip counts (`E201`) leave the upper bound open and
//! are reported as warnings, not failures.
//!
//! The `bench` subcommand takes one benchmark-trajectory snapshot:
//! per workload and technique it records simulated cycles, wall time,
//! simulated cycles per second, skip counts and the static cycle bracket,
//! plus the DARSIE-over-Base speedup. With `--json` the snapshot is also
//! written to `BENCH_<date>.json` for CI to archive as an artifact. Each
//! technique record carries its digest root — so silent behavioral drift
//! (same speedup, different state) is visible between snapshots. The
//! digest layer's own host-time overhead is measured by `perfbench/`
//! (`gpu-sim.digest_overhead_pct`), not here.
//!
//! The `replay-diff` subcommand is the first-divergence bisector of the
//! determinism observatory: it runs each selected workload twice and
//! compares the epoch-chained state digests. Plain `replay-diff` is the
//! determinism gate (same spec twice; any divergence is a bug, exit 1);
//! `--against KEY=VALUE` varies the second run's technique/scheduler/SM
//! count and `--perturb CYCLE` injects a one-word global-memory flip —
//! both hunts localize the first divergent epoch by binary search, re-run
//! at per-cycle cadence inside the bracketing window, and name the chain,
//! cycle, component and warp that first disagreed.
//!
//! The `lints` subcommand prints the registry of every lint the verifier
//! can emit — code, severity, producing pass and a one-line description —
//! generated from the `LintCode` enum itself so it can never go stale.

use darsie::DarsieConfig;
use darsie_bench::manifest::{json_escape, json_header, RunManifest};
use darsie_bench::replay::{replay_diff, RunSpec};
use gpu_energy::EnergyModel;
use gpu_sim::{GpuConfig, Perturb, SchedulerPolicy, Technique, TracePhase};
use simt_compiler::LaunchPlan;
use simt_verify::parallel_map;
use simt_verify::perf::{MemPredKind, MemPrediction};
use std::collections::BTreeMap;
use workloads::{by_abbr, catalog, Scale, Workload};

/// Count allocation traffic so manifest phase spans carry
/// `alloc_bytes`/`allocs` alongside wall time.
#[global_allocator]
static ALLOC: darsie_bench::manifest::CountingAlloc = darsie_bench::manifest::CountingAlloc;

/// Writes the run manifest (when `--manifest PATH` was given) carrying
/// the exit code the process is about to return, then exits when that
/// code is non-zero. Every subcommand funnels its exit through here so a
/// failing run still leaves its telemetry behind.
fn finish_run(mf: &mut RunManifest, path: Option<&str>, code: i32) {
    mf.exit_code = code;
    if let Some(p) = path {
        if let Err(e) = mf.write(p) {
            eprintln!("cannot write manifest {p}: {e}");
            std::process::exit(2);
        }
    }
    if code != 0 {
        std::process::exit(code);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: darsie-sim <ABBR> [options]   |   darsie-sim --list   |   \
         darsie-sim verify [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--threads N]   |   \
         darsie-sim certify [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--threads N] [--family [--samples N]]   |   \
         darsie-sim analyze [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim prove [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--threads N]   |   \
         darsie-sim profile [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--perfetto PATH]   |   \
         darsie-sim estimate [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim bench [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim replay-diff [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--technique T] [--sms N] [--scheduler gto|lrr] [--against KEY=VALUE ...] \
         [--perturb CYCLE]   |   \
         darsie-sim lints [--json]\n\
         every subcommand also accepts --manifest PATH (structured run telemetry)\n\
         options:\n\
           --technique base|uv|dac|darsie|darsie-ignore-store|darsie-no-cf-sync|silicon-sync\n\
           --scale test|eval        (default eval)\n\
           --sms N                  (default 4)\n\
           --scheduler gto|lrr      (default gto)\n\
           --skip-entries N         (default 8)\n\
           --rename-regs N          (default 32)\n\
           --skip-ports N           (default 2)\n\
           --max-leader-stall N     (default 64)\n\
           --trace N                print the first N pipeline events\n\
           --no-validate            skip the CPU-reference check"
    );
    std::process::exit(2);
}

/// An SM count: a positive integer, or a usage exit (zero SMs cannot hold
/// a thread block).
fn parse_sms(v: &str) -> usize {
    v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
}

/// Comma-separated catalog abbreviations for "unknown workload" errors.
fn known_abbrs() -> String {
    catalog(Scale::Test).iter().map(|w| w.abbr).collect::<Vec<_>>().join(", ")
}

/// Rejects an unknown benchmark/workload name, listing the valid ones.
fn unknown_workload(kind: &str, name: &str) -> ! {
    eprintln!("unknown {kind} `{name}`; valid abbreviations: {}", known_abbrs());
    std::process::exit(2);
}

/// Shared subcommand options: scale, output mode and workload selection
/// (positional abbreviations and/or `--workload NAME` filters matching
/// the abbreviation or full name, case-insensitively). Every subcommand
/// goes through this one parser so unknown-abbreviation rejection (exit
/// 2, listing the valid names) and `--workload` semantics cannot drift
/// between them. `--threads` is parsed here too — `verify`, `certify`
/// and `prove` consume it; everything else warns and ignores it.
struct SubcommandArgs {
    json: bool,
    selected: Vec<Workload>,
    threads: Option<usize>,
    scale: Scale,
    manifest: Option<String>,
}

/// Rejects a repeated single-valued flag: taking the last occurrence
/// silently hides a typo in scripts, so it is a usage error instead.
fn duplicate_flag(flag: &str) -> ! {
    eprintln!("duplicate {flag}: each flag may be given at most once");
    std::process::exit(2);
}

/// The subcommands that consume `--threads`; everywhere else the parser
/// itself warns and drops the flag, so the acceptance/warn-ignore
/// behavior cannot drift between subcommands.
const THREADED_SUBCOMMANDS: &[&str] = &["verify", "certify", "prove"];

fn parse_subcommand_args(subcommand: &str, args: &[String]) -> SubcommandArgs {
    parse_subcommand_args_with(subcommand, args, |_, _| false)
}

/// The shared parser, with a hook for subcommand-specific flags: `extra`
/// sees every otherwise-unknown `--flag` (plus the argument iterator, so
/// it can consume a value) and returns whether it recognized it. Flags
/// the hook rejects are a usage error, same as everywhere else.
fn parse_subcommand_args_with(
    subcommand: &str,
    args: &[String],
    mut extra: impl FnMut(&str, &mut std::slice::Iter<String>) -> bool,
) -> SubcommandArgs {
    let mut scale: Option<Scale> = None;
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut manifest: Option<String> = None;
    let mut abbrs: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--manifest" => {
                if manifest.is_some() {
                    duplicate_flag("--manifest");
                }
                manifest = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--scale" => {
                if scale.is_some() {
                    duplicate_flag("--scale");
                }
                scale = match it.next().map(String::as_str) {
                    Some("test") => Some(Scale::Test),
                    Some("eval") => Some(Scale::Eval),
                    _ => usage(),
                }
            }
            "--json" => {
                if json {
                    duplicate_flag("--json");
                }
                json = true;
            }
            "--threads" => {
                if threads.is_some() {
                    duplicate_flag("--threads");
                }
                match it.next().and_then(|n| n.parse::<usize>().ok()).filter(|&n| n >= 1) {
                    Some(n) => threads = Some(n),
                    None => {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--workload" => names.push(it.next().cloned().unwrap_or_else(|| usage())),
            s if !s.starts_with("--") => abbrs.push(s.to_string()),
            s => {
                if !extra(s, &mut it) {
                    usage()
                }
            }
        }
    }
    let scale = scale.unwrap_or(Scale::Test);
    let mut selected: Vec<Workload> = abbrs
        .iter()
        .map(|a| by_abbr(a, scale).unwrap_or_else(|| unknown_workload("benchmark", a)))
        .collect();
    for n in &names {
        let nl = n.to_lowercase();
        let matched: Vec<Workload> = catalog(scale)
            .into_iter()
            .filter(|w| w.abbr.to_lowercase() == nl || w.name.to_lowercase() == nl)
            .collect();
        if matched.is_empty() {
            unknown_workload("workload", n);
        }
        selected.extend(matched);
    }
    if selected.is_empty() {
        selected = catalog(scale);
    }
    if threads.is_some() && !THREADED_SUBCOMMANDS.contains(&subcommand) {
        eprintln!(
            "warning: --threads is only used by `verify`, `certify` and `prove`; \
             `{subcommand}` ignores it"
        );
        threads = None;
    }
    SubcommandArgs { json, selected, threads, scale, manifest }
}

/// `darsie-sim verify`: run every `simt-verify` pass over the selected
/// workloads at their native launches and exit 1 on any error-severity
/// finding. With `--json`, print one machine-readable document instead of
/// the human report. `--threads N` shards the workloads across scoped
/// worker threads; rendering stays sequential, so output is
/// byte-identical whatever the thread count.
fn verify_command(args: &[String]) {
    let SubcommandArgs { json, selected, threads, manifest, .. } =
        parse_subcommand_args("verify", args);
    let mut mf = RunManifest::new("verify", args);
    let reports = mf.phase("verify", || {
        parallel_map(&selected, threads.unwrap_or(1), |w| {
            simt_verify::verify_full(&w.ck, &w.launch, w.memory.clone())
        })
    });

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut records: Vec<String> = Vec::new();
    for (w, report) in selected.iter().zip(&reports) {
        errors += report.error_count();
        warnings += report.warning_count();
        for d in &report.items {
            *by_code.entry(d.code.code()).or_insert(0) += 1;
        }
        if json {
            let diags: Vec<String> = report.items.iter().map(diag_json).collect();
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"block\":[{},{},{}],\
                 \"diagnostics\":[{}],\"errors\":{},\"warnings\":{}}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                w.block.x,
                w.block.y,
                w.block.z,
                diags.join(","),
                report.error_count(),
                report.warning_count()
            ));
        } else if report.items.is_empty() {
            println!(
                "verify {:8} ({}, TB=({},{},{})): clean",
                w.abbr, w.name, w.block.x, w.block.y, w.block.z
            );
        } else {
            print!("{}", report.render());
        }
    }
    let code_totals: Vec<String> = by_code.iter().map(|(c, n)| format!("\"{c}\":{n}")).collect();
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"by_code\":{{{}}},\"total_errors\":{errors},\
             \"total_warnings\":{warnings}}}",
            json_header("verify", None),
            records.join(","),
            code_totals.join(",")
        );
    } else {
        println!(
            "verified {} workload(s): {errors} error(s), {warnings} warning(s)",
            selected.len()
        );
        if !by_code.is_empty() {
            let human: Vec<String> = by_code.iter().map(|(c, n)| format!("{c}\u{d7}{n}")).collect();
            println!("by code: {}", human.join(", "));
        }
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("total_errors", errors as u64);
    mf.count("total_warnings", warnings as u64);
    finish_run(&mut mf, manifest.as_deref(), i32::from(errors > 0));
}

/// `darsie-sim certify`: the inter-thread-block independence certifier
/// gating the sharded engine. For each selected workload it runs the
/// static block-affine footprint analysis plus a dynamic replay under
/// the global-memory shadow sanitizer, prints the classification and
/// any `V310`–`V313` findings, and exits 1 on any error-severity
/// finding. `--threads N` shards the workloads with byte-identical
/// output.
fn certify_command(args: &[String]) {
    let mut family = false;
    let mut samples: Option<usize> = None;
    let SubcommandArgs { json, selected, threads, manifest, .. } =
        parse_subcommand_args_with("certify", args, |flag, it| match flag {
            "--family" => {
                if family {
                    duplicate_flag("--family");
                }
                family = true;
                true
            }
            "--samples" => {
                if samples.is_some() {
                    duplicate_flag("--samples");
                }
                match it.next().and_then(|n| n.parse::<usize>().ok()).filter(|&n| n >= 1) {
                    Some(n) => samples = Some(n),
                    None => {
                        eprintln!("--samples expects a positive integer");
                        std::process::exit(2);
                    }
                }
                true
            }
            _ => false,
        });
    if let Some(n) = samples {
        if !family {
            eprintln!("--samples {n} only applies to `certify --family`");
            std::process::exit(2);
        }
    }
    let mut mf = RunManifest::new(if family { "certify-family" } else { "certify" }, args);
    if family {
        let code = certify_family_command(
            &selected,
            json,
            threads.unwrap_or(1),
            samples.unwrap_or(25),
            &mut mf,
        );
        finish_run(&mut mf, manifest.as_deref(), code);
        return;
    }
    let results = mf.phase("certify", || {
        parallel_map(&selected, threads.unwrap_or(1), |w| {
            simt_verify::blocks::certify(&w.ck, &w.launch, w.memory.clone())
        })
    });

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut records: Vec<String> = Vec::new();
    for (w, (cert, report)) in selected.iter().zip(&results) {
        errors += report.error_count();
        warnings += report.warning_count();
        for d in &report.items {
            *by_code.entry(d.code.code()).or_insert(0) += 1;
        }
        if json {
            let diags: Vec<String> = report.items.iter().map(diag_json).collect();
            let witness = cert.witness.map_or_else(
                || "null".to_string(),
                |wit| {
                    format!(
                        "{{\"pc_a\":{},\"pc_b\":{},\"block_a\":[{},{},{}],\
                         \"block_b\":[{},{},{}],\"word\":{}}}",
                        wit.pc_a,
                        wit.pc_b,
                        wit.block_a.x,
                        wit.block_a.y,
                        wit.block_a.z,
                        wit.block_b.x,
                        wit.block_b.y,
                        wit.block_b.z,
                        wit.word
                    )
                },
            );
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"grid\":[{},{},{}],\
                 \"classification\":\"{}\",\"global_accesses\":{},\"unanalyzable\":{},\
                 \"checked_pairs\":{},\"dynamically_discharged\":{},\"witness\":{witness},\
                 \"diagnostics\":[{}],\"errors\":{},\"warnings\":{}}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                w.launch.grid.x,
                w.launch.grid.y,
                w.launch.grid.z,
                cert.classification.label(),
                cert.global_accesses,
                cert.unanalyzable,
                cert.checked_pairs,
                cert.dynamically_discharged,
                diags.join(","),
                report.error_count(),
                report.warning_count()
            ));
        } else {
            println!(
                "certify {:8} ({}, grid=({},{},{})): {} ({} global access(es), \
                 {} pair(s) checked)",
                w.abbr,
                w.name,
                w.launch.grid.x,
                w.launch.grid.y,
                w.launch.grid.z,
                cert.classification.label(),
                cert.global_accesses,
                cert.checked_pairs,
            );
            if cert.dynamically_discharged {
                println!("  (static overlaps discharged by exhaustive replay)");
            }
            if !report.items.is_empty() {
                print!("{}", report.render());
            }
        }
    }
    let code_totals: Vec<String> = by_code.iter().map(|(c, n)| format!("\"{c}\":{n}")).collect();
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"by_code\":{{{}}},\"total_errors\":{errors},\
             \"total_warnings\":{warnings}}}",
            json_header("certify", None),
            records.join(","),
            code_totals.join(",")
        );
    } else {
        println!(
            "certified {} workload(s): {errors} error(s), {warnings} warning(s)",
            selected.len()
        );
        if !by_code.is_empty() {
            let human: Vec<String> = by_code.iter().map(|(c, n)| format!("{c}\u{d7}{n}")).collect();
            println!("by code: {}", human.join(", "));
        }
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("total_errors", errors as u64);
    mf.count("total_warnings", warnings as u64);
    finish_run(&mut mf, manifest.as_deref(), i32::from(errors > 0));
}

/// One axis of a launch-family region as a JSON object.
fn axis_json(a: &simt_isa::AxisRange) -> String {
    format!("{{\"lo\":{},\"hi\":{},\"step\":{}}}", a.lo, a.hi, a.step)
}

/// `darsie-sim certify --family`: launch-family-parametric certification.
/// For each selected workload it certifies inter-thread-block
/// independence over the workload's declared [`simt_isa::LaunchFamily`]
/// region — one certificate per kernel covering the whole grid sweep —
/// and then runs the sampled differential gate (`--samples N` member
/// launches, default 25, each certified concretely) against the family
/// verdict. Exits 1 on any `PerLaunchOnly` refutation or any
/// family-vs-concrete disagreement.
fn certify_family_command(
    selected: &[Workload],
    json: bool,
    threads: usize,
    samples: usize,
    mf: &mut RunManifest,
) -> i32 {
    let cfg = GpuConfig::test_small();
    mf.set_config(&cfg);
    let results = mf.phase("certify-family", || {
        parallel_map(selected, threads, |w| {
            simt_verify::family::certify_family(&w.ck, &w.family, &w.launch, &w.memory, &cfg).map(
                |cert| {
                    let disagreements = simt_verify::family::differential_check(
                        &w.ck, &w.family, &w.launch, &w.memory, &cert, samples, 1,
                    );
                    (cert, disagreements)
                },
            )
        })
    });

    let mut proved = 0usize;
    let mut sampled = 0usize;
    let mut refuted = 0usize;
    let mut total_disagreements = 0usize;
    let mut records: Vec<String> = Vec::new();
    for (w, result) in selected.iter().zip(&results) {
        let (cert, disagreements) = match result {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{}: malformed family region: {e}", w.abbr);
                std::process::exit(2);
            }
        };
        match cert.verdict {
            simt_verify::family::FamilyVerdict::FamilyProved => proved += 1,
            simt_verify::family::FamilyVerdict::FamilySampled => sampled += 1,
            simt_verify::family::FamilyVerdict::PerLaunchOnly => refuted += 1,
        }
        total_disagreements += disagreements.len();
        if json {
            let region = format!(
                "{{\"grid_x\":{},\"grid_y\":{},\"block_x\":{},\"block_y\":{},\"block_z\":{}}}",
                axis_json(&cert.region.grid_x),
                axis_json(&cert.region.grid_y),
                axis_json(&cert.region.block_x),
                axis_json(&cert.region.block_y),
                axis_json(&cert.region.block_z),
            );
            let unresolved: Vec<String> = cert
                .unresolved
                .iter()
                .map(|p| {
                    format!(
                        "{{\"pc_a\":{},\"pc_b\":{},\"reason\":\"{}\"}}",
                        p.pc_a,
                        p.pc_b,
                        json_escape(p.reason)
                    )
                })
                .collect();
            let witness_launch = cert.witness_launch.as_ref().map_or_else(
                || "null".to_string(),
                |wl| {
                    format!(
                        "{{\"grid\":[{},{},{}],\"block\":[{},{},{}]}}",
                        wl.grid.x, wl.grid.y, wl.grid.z, wl.block.x, wl.block.y, wl.block.z
                    )
                },
            );
            let witness = cert.witness.map_or_else(
                || "null".to_string(),
                |wit| {
                    format!(
                        "{{\"pc_a\":{},\"pc_b\":{},\"block_a\":[{},{},{}],\
                         \"block_b\":[{},{},{}],\"word\":{}}}",
                        wit.pc_a,
                        wit.pc_b,
                        wit.block_a.x,
                        wit.block_a.y,
                        wit.block_a.z,
                        wit.block_b.x,
                        wit.block_b.y,
                        wit.block_b.z,
                        wit.word
                    )
                },
            );
            let cost: Vec<String> = cert
                .cost
                .iter()
                .map(|b| {
                    format!(
                        "{{\"technique\":\"{}\",\"min_cycles\":{},\"max_cycles\":{}}}",
                        json_escape(&b.technique),
                        b.min_cycles,
                        b.max_cycles.map_or_else(|| "null".to_string(), |m| m.to_string())
                    )
                })
                .collect();
            let notes: Vec<String> =
                cert.notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
            let disputes: Vec<String> =
                disagreements.iter().map(|d| format!("\"{}\"", json_escape(d))).collect();
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"region\":{region},\
                 \"member_count\":{},\"verdict\":\"{}\",\"classification\":\"{}\",\
                 \"global_accesses\":{},\"checked_pairs\":{},\"proved_pairs\":{},\
                 \"unanalyzable\":{},\"unresolved\":[{}],\"sampled_corners\":{},\
                 \"witness_launch\":{witness_launch},\"witness\":{witness},\"cost\":[{}],\
                 \"notes\":[{}],\"disagreements\":[{}]}}",
                json_escape(w.abbr),
                json_escape(&cert.kernel),
                cert.member_count,
                cert.verdict.label(),
                cert.classification.label(),
                cert.global_accesses,
                cert.checked_pairs,
                cert.proved_pairs,
                cert.unanalyzable,
                unresolved.join(","),
                cert.sampled_corners,
                cost.join(","),
                notes.join(","),
                disputes.join(",")
            ));
        } else {
            println!(
                "family {:8} ({}): {} over {} [{} member(s)] — {}/{} pair(s) proved, \
                 classification {}",
                w.abbr,
                w.name,
                cert.verdict.label(),
                cert.region,
                cert.member_count,
                cert.proved_pairs,
                cert.checked_pairs,
                cert.classification.label(),
            );
            for n in &cert.notes {
                println!("  note: {n}");
            }
            for d in disagreements {
                println!("  DISAGREEMENT: {d}");
            }
        }
    }
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"samples\":{samples},\"proved\":{proved},\
             \"sampled\":{sampled},\"refuted\":{refuted},\
             \"disagreements\":{total_disagreements}}}",
            json_header("certify-family", Some(&cfg)),
            records.join(",")
        );
    } else {
        println!(
            "certified {} family region(s): {proved} proved, {sampled} sampled, \
             {refuted} refuted, {total_disagreements} differential disagreement(s) \
             over {samples} sample(s) each",
            selected.len()
        );
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("proved", proved as u64);
    mf.count("sampled", sampled as u64);
    mf.count("refuted", refuted as u64);
    mf.count("disagreements", total_disagreements as u64);
    i32::from(refuted > 0 || total_disagreements > 0)
}

/// `darsie-sim prove`: the symbolic translation validator. Discharges
/// every redundancy-marking and branch-sync claim of the selected
/// workloads over their full quantified launch families and exits 1 on
/// any `S401` disproof or `S403` branch-sync violation.
fn prove_command(args: &[String]) {
    let SubcommandArgs { json, selected, threads, manifest, .. } =
        parse_subcommand_args("prove", args);
    let threads = threads.unwrap_or(1);
    let mut mf = RunManifest::new("prove", args);

    let mut errors = 0usize;
    let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut unknown_reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut totals = (0usize, 0usize, 0usize);
    let mut records: Vec<String> = Vec::new();
    let wall = std::time::Instant::now();
    for w in &selected {
        let p = mf.phase(&format!("prove:{}", w.abbr), || {
            simt_verify::symex::prove_with_threads(&w.ck, Some((&w.launch, &w.memory)), threads)
        });
        let s = &p.stats;
        for c in &p.claims {
            if let Some(r) = c.unknown_reason {
                *unknown_reasons.entry(r.label()).or_insert(0) += 1;
            }
        }
        errors += p.report.error_count();
        totals.0 += s.proved;
        totals.1 += s.disproved;
        totals.2 += s.unknown;
        for d in &p.report.items {
            *by_code.entry(d.code.code()).or_insert(0) += 1;
        }
        if json {
            let diags: Vec<String> = p.report.items.iter().map(diag_json).collect();
            let claims: Vec<String> = p
                .claims
                .iter()
                .map(|c| {
                    let verdict = match c.verdict {
                        simt_verify::symex::Verdict::Proved => "proved",
                        simt_verify::symex::Verdict::Disproved => "disproved",
                        simt_verify::symex::Verdict::Unknown => "unknown",
                    };
                    let reason = c
                        .unknown_reason
                        .map_or_else(|| "null".to_string(), |r| format!("\"{}\"", r.label()));
                    let covered =
                        c.covers.covered_region(&w.family, w.launch.warp_size).map_or_else(
                            || "null".to_string(),
                            |r| format!("\"{}\"", json_escape(&r.to_string())),
                        );
                    format!(
                        "{{\"pc\":{},\"kind\":\"{}\",\"family\":\"{}\",\"verdict\":\"{}\",\
                         \"unknown_reason\":{},\"evals\":{},\"covered_region\":{covered}}}",
                        c.pc, c.kind, c.family, verdict, reason, c.evals
                    )
                })
                .collect();
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"block\":[{},{},{}],\
                 \"value_claims\":{},\"branch_claims\":{},\"proved\":{},\"disproved\":{},\
                 \"unknown\":{},\"complete\":{},\"fuel_used\":{},\"terms\":{},\
                 \"claims\":[{}],\"diagnostics\":[{}]}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                w.block.x,
                w.block.y,
                w.block.z,
                s.value_claims,
                s.branch_claims,
                s.proved,
                s.disproved,
                s.unknown,
                s.complete,
                s.fuel_used,
                s.terms,
                claims.join(","),
                diags.join(",")
            ));
        } else {
            println!(
                "prove {:8} ({}, TB=({},{},{})): {} claim(s): {} proved, {} disproved, \
                 {} unknown{}",
                w.abbr,
                w.name,
                w.block.x,
                w.block.y,
                w.block.z,
                s.value_claims + s.branch_claims,
                s.proved,
                s.disproved,
                s.unknown,
                if s.complete { "" } else { " (budget exhausted)" }
            );
            if !p.report.items.is_empty() {
                print!("{}", p.report.render());
            }
        }
    }
    let elapsed = wall.elapsed();
    let code_totals: Vec<String> = by_code.iter().map(|(c, n)| format!("\"{c}\":{n}")).collect();
    let reason_totals: Vec<String> =
        unknown_reasons.iter().map(|(r, n)| format!("\"{r}\":{n}")).collect();
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"by_code\":{{{}}},\"unknown_reasons\":{{{}}},\
             \"total_proved\":{},\"total_disproved\":{},\"total_unknown\":{}}}",
            json_header("prove", None),
            records.join(","),
            code_totals.join(","),
            reason_totals.join(","),
            totals.0,
            totals.1,
            totals.2
        );
    } else {
        println!(
            "proved {} workload(s): {} proved, {} disproved, {} unknown",
            selected.len(),
            totals.0,
            totals.1,
            totals.2
        );
        if !unknown_reasons.is_empty() {
            let mut ranked: Vec<(&str, usize)> =
                unknown_reasons.iter().map(|(r, n)| (*r, *n)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let human: Vec<String> = ranked.iter().map(|(r, n)| format!("{r}\u{d7}{n}")).collect();
            println!("top unknown reasons: {}", human.join(", "));
        }
    }
    // Wall time goes to stderr so `--json` stdout stays byte-identical
    // across `--threads N`.
    eprintln!("prover wall time: {:.3}s ({} thread(s))", elapsed.as_secs_f64(), threads);
    mf.count("workloads", selected.len() as u64);
    mf.count("total_proved", totals.0 as u64);
    mf.count("total_disproved", totals.1 as u64);
    mf.count("total_unknown", totals.2 as u64);
    finish_run(&mut mf, manifest.as_deref(), i32::from(errors > 0));
}

/// `darsie-sim lints`: the lint registry, generated from [`LintCode`]
/// itself — code, severity, producing pass and one-line description.
fn lints_command(args: &[String]) {
    use simt_verify::LintCode;
    let mut json = false;
    let mut manifest: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                if json {
                    duplicate_flag("--json");
                }
                json = true;
            }
            "--manifest" => {
                if manifest.is_some() {
                    duplicate_flag("--manifest");
                }
                manifest = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    let mut mf = RunManifest::new("lints", args);
    mf.phase("render", || {
        if json {
            let rows: Vec<String> = LintCode::ALL
                .iter()
                .map(|l| {
                    format!(
                        "{{\"code\":\"{}\",\"severity\":\"{}\",\"pass\":\"{}\",\"doc\":\"{}\"}}",
                        l.code(),
                        l.severity(),
                        l.pass(),
                        json_escape(l.doc())
                    )
                })
                .collect();
            println!("{{{},\"lints\":[{}]}}", json_header("lints", None), rows.join(","));
        } else {
            for l in LintCode::ALL {
                println!(
                    "{:5} {:7} {:10} {}",
                    l.code(),
                    l.severity().to_string(),
                    l.pass(),
                    l.doc()
                );
            }
        }
    });
    mf.count("lints", LintCode::ALL.len() as u64);
    finish_run(&mut mf, manifest.as_deref(), 0);
}

/// Serializes one memory prediction plus its validation outcome.
fn mem_check_json(p: &MemPrediction, v: Option<&simt_verify::perf::Validation>) -> String {
    let kind = match &p.kind {
        MemPredKind::SharedConflict { min_degree, max_degree } => format!(
            "\"kind\":\"shared-conflict\",\"min_degree\":{min_degree},\"max_degree\":{max_degree}"
        ),
        MemPredKind::GlobalCoalesce { min_lines, max_lines, ideal_lines } => format!(
            "\"kind\":\"global-coalesce\",\"min_lines\":{min_lines},\"max_lines\":{max_lines},\
             \"ideal_lines\":{ideal_lines}"
        ),
        MemPredKind::Unpredictable { reason } => {
            format!("\"kind\":\"unpredictable\",\"reason\":\"{}\"", json_escape(reason))
        }
    };
    let check = v.map_or_else(String::new, |v| {
        format!(",\"ok\":{},\"measured\":\"{}\"", v.ok, json_escape(&v.detail))
    });
    format!("{{\"pc\":{},\"store\":{},{kind}{check}}}", p.pc, p.is_store)
}

/// `darsie-sim analyze`: the static skip-coverage and memory-performance
/// report. Exits 1 when refined markings fail the soundness oracle or a
/// measured memory counter falls outside its predicted bounds.
fn analyze_command(args: &[String]) {
    let SubcommandArgs { json, selected, manifest, .. } = parse_subcommand_args("analyze", args);
    let cfg = GpuConfig::test_small();
    let mut mf = RunManifest::new("analyze", args);
    mf.set_config(&cfg);

    let mut total_oracle_errors = 0usize;
    let mut total_mem_violations = 0usize;
    let mut coverage_wins = 0usize;
    let mut marking_wins = 0usize;
    let mut records: Vec<String> = Vec::new();

    for w in &selected {
        let bz = w.launch.block.z.max(1);
        let refined = simt_compiler::refine(&w.ck, bz);
        let base_plan = LaunchPlan::new(&w.ck, &w.launch);
        let ref_plan = LaunchPlan::new(&refined.ck, &w.launch);
        let [bv, bc, bd] = w.ck.marking_counts();
        let [rv, rc, rd] = refined.ck.marking_counts();
        let (base_skip, ref_skip) = (base_plan.num_skippable(), ref_plan.num_skippable());
        if ref_skip > base_skip {
            coverage_wins += 1;
        }
        if rv < bv {
            marking_wins += 1;
        }

        let mut upgrades: BTreeMap<String, usize> = BTreeMap::new();
        for u in &refined.upgrades {
            *upgrades.entry(u.reason.to_string()).or_insert(0) += 1;
        }

        // Soundness gate: the refined markings must survive the
        // differential oracle on a real execution.
        let oracle = simt_verify::oracle::check(&refined.ck, &w.launch, w.memory.clone());
        let oracle_errors = oracle.error_count();
        total_oracle_errors += oracle_errors;

        // Blame the vector markings refinement could not recover.
        let blame = simt_compiler::blame(&refined.ck, &refined.ck.classes);
        let seeds = blame.seed_histogram();

        // Dynamic headroom left by the refined plan.
        let headroom = simt_verify::oracle::dynamic_headroom(
            &refined.ck,
            &w.launch,
            &ref_plan.skippable,
            w.memory.clone(),
        );

        // Memory performance: predict statically, measure on the cycle
        // simulator under the baseline technique, check the bounds.
        let predictions = simt_verify::perf::predict(&w.ck, &w.launch, cfg.warp_size);
        let result =
            mf.phase(&format!("simulate:{}", w.abbr), || w.run_unchecked(&cfg, Technique::Base));
        mf.digest_root(&format!("{}/BASE", w.abbr), result.stats.digest_root);
        let checks = simt_verify::perf::validate(&predictions, &result.stats);
        let violations = checks.iter().filter(|c| !c.ok).count();
        total_mem_violations += violations;
        let unpredictable = predictions
            .iter()
            .filter(|p| matches!(p.kind, MemPredKind::Unpredictable { .. }))
            .count();
        let lints = simt_verify::perf::lint(&w.ck, &predictions);

        if json {
            let upgrade_fields: Vec<String> =
                upgrades.iter().map(|(r, n)| format!("\"{r}\":{n}")).collect();
            let seed_fields: Vec<String> =
                seeds.iter().map(|(s, n)| format!("\"{s}\":{n}")).collect();
            let mem_fields: Vec<String> = predictions
                .iter()
                .map(|p| mem_check_json(p, checks.iter().find(|c| c.pc == p.pc)))
                .collect();
            let lint_fields: Vec<String> = lints
                .items
                .iter()
                .map(|d| {
                    format!(
                        "{{\"code\":\"{}\",\"pc\":{},\"message\":\"{}\"}}",
                        d.code,
                        d.pc.map_or_else(|| "null".to_string(), |pc| pc.to_string()),
                        json_escape(&d.message)
                    )
                })
                .collect();
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\
                 \"baseline\":{{\"vector\":{bv},\"cond\":{bc},\"def\":{bd},\
                 \"skippable\":{base_skip}}},\
                 \"refined\":{{\"vector\":{rv},\"cond\":{rc},\"def\":{rd},\
                 \"skippable\":{ref_skip},\"upgrades\":{{{}}}}},\
                 \"oracle_errors\":{oracle_errors},\
                 \"headroom\":{{\"dynamically_redundant\":{},\"never_aligned\":{}}},\
                 \"blame\":{{{}}},\
                 \"mem\":{{\"accesses\":{},\"unpredictable\":{unpredictable},\
                 \"violations\":{violations},\"checks\":[{}],\"lints\":[{}]}}}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                upgrade_fields.join(","),
                headroom.dynamically_redundant.len(),
                headroom.never_aligned.len(),
                seed_fields.join(","),
                predictions.len(),
                mem_fields.join(","),
                lint_fields.join(",")
            ));
        } else {
            println!(
                "analyze {:8} ({}, TB=({},{},{}))",
                w.abbr, w.name, w.block.x, w.block.y, w.block.z
            );
            println!(
                "  markings V/CR/DR     {bv}/{bc}/{bd} -> {rv}/{rc}/{rd}   \
                 skippable {base_skip} -> {ref_skip}"
            );
            if !upgrades.is_empty() {
                let ups: Vec<String> =
                    upgrades.iter().map(|(r, n)| format!("{r}\u{d7}{n}")).collect();
                println!("  upgrades             {}", ups.join(", "));
            }
            println!("  oracle               {} error(s) on refined markings", oracle_errors);
            println!(
                "  dynamic headroom     {} redundant-unskipped, {} never-aligned",
                headroom.dynamically_redundant.len(),
                headroom.never_aligned.len()
            );
            if !seeds.is_empty() {
                let bl: Vec<String> = seeds.iter().map(|(s, n)| format!("{s}\u{d7}{n}")).collect();
                println!("  vector blame         {}", bl.join(", "));
            }
            println!(
                "  memory               {} access(es), {unpredictable} unpredictable, \
                 {violations} bound violation(s)",
                predictions.len()
            );
            for c in checks.iter().filter(|c| !c.ok) {
                println!("    VIOLATION {}", c.detail);
            }
            for d in &lints.items {
                println!("    {d}");
            }
        }
    }

    if json {
        println!(
            "{{{},\"workloads\":[{}],\"totals\":{{\"oracle_errors\":{total_oracle_errors},\
             \"mem_violations\":{total_mem_violations},\"coverage_wins\":{coverage_wins},\
             \"marking_wins\":{marking_wins}}}}}",
            json_header("analyze", Some(&cfg)),
            records.join(",")
        );
    } else {
        println!(
            "analyzed {} workload(s): {total_oracle_errors} oracle error(s), \
             {total_mem_violations} memory-bound violation(s), {coverage_wins} skip-coverage \
             win(s), {marking_wins} marking-precision win(s)",
            selected.len()
        );
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("oracle_errors", total_oracle_errors as u64);
    mf.count("mem_violations", total_mem_violations as u64);
    finish_run(
        &mut mf,
        manifest.as_deref(),
        i32::from(total_oracle_errors > 0 || total_mem_violations > 0),
    );
}

/// Serializes one technique's profile (plus the run's headline stats) as
/// a JSON object; returns the record and whether the accounting identity
/// held.
fn profile_record_json(
    technique: &Technique,
    r: &gpu_sim::SimResult,
    prof: &gpu_sim::SimProfile,
) -> (String, bool) {
    let slots = prof.slots();
    let reused = r.stats.instrs_reused.total();
    let skipped = r.stats.instrs_skipped.total();
    // Two checks gate `identity_ok`: per-SM slot balance, and the
    // cross-check that `issued` slots equal the instructions the
    // simulator says it executed or reused.
    let balanced = prof.check_identity().is_ok();
    let crosscheck = slots.get(gpu_sim::StallCause::Issued) == r.stats.instrs_executed + reused;
    let ok = balanced && crosscheck;

    let slot_fields: Vec<String> =
        slots.iter().map(|(c, n)| format!("\"{}\":{n}", c.label())).collect();

    // Hot PCs: top 5 by total slot involvement (issued + skipped + blamed
    // stalls).
    let per_pc = prof.per_pc();
    let mut hot: Vec<(usize, &gpu_sim::PcProfile)> =
        per_pc.iter().map(|(&pc, p)| (pc, p)).collect();
    hot.sort_by_key(|(pc, p)| (std::cmp::Reverse(p.issued + p.skipped + p.stalls.total()), *pc));
    let hot_fields: Vec<String> = hot
        .iter()
        .take(5)
        .map(|(pc, p)| {
            let (top_cause, _) = p
                .stalls
                .iter()
                .filter(|&(c, _)| c != gpu_sim::StallCause::Issued)
                .max_by_key(|&(_, n)| n)
                .unwrap_or((gpu_sim::StallCause::IdleNoWarp, 0));
            format!(
                "{{\"pc\":{pc},\"issued\":{},\"skipped\":{},\"stall_slots\":{},\
                 \"top_stall\":\"{}\"}}",
                p.issued,
                p.skipped,
                p.stalls.total(),
                top_cause.label()
            )
        })
        .collect();

    let hist = prof.leader_latency();
    let buckets: Vec<String> = hist.buckets().iter().map(u64::to_string).collect();

    let (mut samples, mut dropped) = (0u64, 0u64);
    let (mut peak_skip, mut peak_vers, mut peak_wait) = (0u32, 0u32, 0u32);
    for sm in &prof.sms {
        samples += sm.samples.len() as u64;
        dropped += sm.samples_dropped;
        for s in &sm.samples {
            peak_skip = peak_skip.max(s.skip_entries);
            peak_vers = peak_vers.max(s.live_versions);
            peak_wait = peak_wait.max(s.waiting_warps);
        }
    }

    let d = &r.stats.darsie;
    let record = format!(
        "{{\"technique\":\"{}\",\"cycles\":{},\"issue_slots\":{},\"identity_ok\":{ok},\
         \"slots\":{{{}}},\"executed\":{},\"reused\":{reused},\"skipped\":{skipped},\
         \"hot_pcs\":[{}],\
         \"leader_latency\":{{\"count\":{},\"buckets\":[{}]}},\
         \"occupancy\":{{\"samples\":{samples},\"dropped\":{dropped},\
         \"peak_skip_entries\":{peak_skip},\"peak_live_versions\":{peak_vers},\
         \"peak_waiting_warps\":{peak_wait}}},\
         \"darsie\":{{\"leaders_elected\":{},\"instructions_skipped\":{},\
         \"leader_giveups\":{},\"wait_for_leader_cycles\":{},\"branch_sync_cycles\":{}}},\
         \"trace_dropped\":{},\"trace_capacity\":{},\"digest_root\":\"{:#018x}\"}}",
        technique.label(),
        r.cycles,
        prof.issue_slots(),
        slot_fields.join(","),
        r.stats.instrs_executed,
        hot_fields.join(","),
        hist.count(),
        buckets.join(","),
        d.leaders_elected,
        d.instructions_skipped,
        d.leader_giveups,
        d.wait_for_leader_cycles,
        d.branch_sync_cycles,
        r.events.dropped,
        r.events.capacity(),
        r.stats.digest_root,
    );
    (record, ok)
}

/// The Perfetto output path for one workload: the user's path verbatim
/// for a single-workload run, `stem-ABBR.ext` otherwise.
fn perfetto_path(base: &str, abbr: &str, single: bool) -> String {
    if single {
        return base.to_string();
    }
    match base.rfind('.') {
        Some(dot) if dot > base.rfind('/').map_or(0, |s| s + 1) => {
            format!("{}-{}{}", &base[..dot], abbr, &base[dot..])
        }
        _ => format!("{base}-{abbr}"),
    }
}

/// `darsie-sim profile`: run each selected workload under Base and DARSIE
/// with cycle-accounted profiling on, and report where every issue slot
/// went. Exits 1 when any run violates the accounting identity
/// (`Σ slot causes == cycles × schedulers × issue_width`, and
/// `issued == executed + reused`). With `--perfetto PATH`, also writes a
/// Chrome trace-event JSON of the DARSIE run's pipeline events.
fn profile_command(args: &[String]) {
    let mut perfetto: Option<String> = None;
    let SubcommandArgs { json, selected, manifest, .. } =
        parse_subcommand_args_with("profile", args, |flag, it| {
            if flag != "--perfetto" {
                return false;
            }
            if perfetto.is_some() {
                duplicate_flag("--perfetto");
            }
            perfetto = Some(it.next().cloned().unwrap_or_else(|| usage()));
            true
        });
    let single = selected.len() == 1;
    let mut mf = RunManifest::new("profile", args);

    let mut violations = 0usize;
    // Host-side issue work over every run: attempts to issue a warp's
    // I-buffer head, and the attempts among them that stalled.
    let (mut attempts, mut stalled) = (0u64, 0u64);
    let mut records: Vec<String> = Vec::new();
    for w in &selected {
        let mut tech_records: Vec<String> = Vec::new();
        for technique in [Technique::Base, Technique::darsie()] {
            let is_darsie = matches!(technique, Technique::Darsie(_));
            let trace = perfetto.is_some() && is_darsie;
            let cfg = GpuConfig {
                profile: true,
                shadow_check: false,
                trace_events: trace,
                ..GpuConfig::test_small()
            };
            mf.set_config(&cfg);
            let r = mf.phase(&format!("profile:{}/{}", w.abbr, technique.label()), || {
                w.run_unchecked(&cfg, technique.clone())
            });
            mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
            let prof = r.profile.as_ref().expect("profiling was enabled");
            let (a, s) = prof.attempts();
            attempts += a;
            stalled += s;
            let (record, ok) = profile_record_json(&technique, &r, prof);
            if !ok {
                violations += 1;
            }
            if json {
                tech_records.push(record);
            } else {
                let slots = prof.slots();
                let total = slots.total().max(1);
                println!(
                    "profile {:8} {:12} {:>9} cycles, {:>11} issue slots{}",
                    w.abbr,
                    technique.label(),
                    r.cycles,
                    prof.issue_slots(),
                    if ok { "" } else { "  IDENTITY VIOLATION" }
                );
                for (cause, n) in slots.iter().filter(|&(_, n)| n > 0) {
                    println!(
                        "    {:18} {:>11}  ({:5.1}%)",
                        cause.label(),
                        n,
                        100.0 * n as f64 / total as f64
                    );
                }
                let hist = prof.leader_latency();
                if hist.count() > 0 {
                    println!("    leader latency     {:>11} samples", hist.count());
                }
            }
            if trace {
                let path =
                    perfetto_path(perfetto.as_deref().expect("perfetto path set"), w.abbr, single);
                // Host phase spans completed so far ride along in the
                // trace on their own process track.
                let phases: Vec<TracePhase> = mf
                    .phases
                    .iter()
                    .map(|p| TracePhase {
                        name: p.name.clone(),
                        start_us: (p.start_seconds * 1e6) as u64,
                        dur_us: (p.wall_seconds * 1e6) as u64,
                    })
                    .collect();
                let json_trace =
                    gpu_sim::chrome_trace_json_with_phases(&r.events, Some(prof), &phases);
                if let Err(e) = std::fs::write(&path, json_trace) {
                    eprintln!("cannot write perfetto trace {path}: {e}");
                    finish_run(&mut mf, manifest.as_deref(), 1);
                }
                if !json {
                    println!("    perfetto trace     {path}");
                }
            }
        }
        if json {
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"techniques\":[{}]}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                tech_records.join(",")
            ));
        }
    }
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"totals\":{{\"workloads\":{},\
             \"identity_violations\":{violations}}}}}",
            json_header("profile", None),
            records.join(","),
            selected.len()
        );
    } else {
        println!("profiled {} workload(s): {violations} identity violation(s)", selected.len());
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("identity_violations", violations as u64);
    mf.count("issue_attempts", attempts);
    mf.count("stalled_attempts", stalled);
    finish_run(&mut mf, manifest.as_deref(), i32::from(violations > 0));
}

/// Serializes one lint diagnostic for the `--json` reports.
fn diag_json(d: &simt_verify::Diagnostic) -> String {
    format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"pc\":{},\"message\":\"{}\"}}",
        d.code,
        d.severity,
        d.pc.map_or_else(|| "null".to_string(), |pc| pc.to_string()),
        json_escape(&d.message)
    )
}

/// `darsie-sim estimate`: the differential gate for the static
/// cycle-bound cost model. Runs the estimator and the cycle simulator
/// side by side for each selected workload under Base and DARSIE, and
/// exits 1 if any measured cycle count escapes its static `[min, max]`
/// bracket (`E202`). Unboundable trip counts (`E201`) leave the bracket
/// one-sided and are reported but do not fail the gate.
fn estimate_command(args: &[String]) {
    let SubcommandArgs { json, selected, manifest, .. } = parse_subcommand_args("estimate", args);
    let cfg = GpuConfig::test_small();
    let mut mf = RunManifest::new("estimate", args);
    mf.set_config(&cfg);

    let mut violations = 0usize;
    let mut unbounded = 0usize;
    let mut width_sum = 0f64;
    let mut width_n = 0usize;
    let mut records: Vec<String> = Vec::new();
    for w in &selected {
        let mut tech_records: Vec<String> = Vec::new();
        for technique in [Technique::Base, Technique::darsie()] {
            let est = mf.phase(&format!("estimate:{}/{}", w.abbr, technique.label()), || {
                simt_verify::cost::estimate(&w.ck, &w.launch, &cfg, &technique)
            });
            let measured = mf
                .phase(&format!("simulate:{}/{}", w.abbr, technique.label()), || {
                    w.run_unchecked(&cfg, technique.clone())
                })
                .stats
                .cycles;
            let violation = simt_verify::cost::validate(&est, measured);
            if violation.is_some() {
                violations += 1;
            }
            unbounded += est.loops.iter().filter(|l| l.trips.is_err()).count();
            if let Some(hi) = est.max_cycles {
                width_sum += (hi - est.min_cycles) as f64 / measured.max(1) as f64;
                width_n += 1;
            }
            if json {
                let loops: Vec<String> = est
                    .loops
                    .iter()
                    .map(|l| match &l.trips {
                        Ok((lo, hi)) => format!(
                            "{{\"back_edge_pc\":{},\"min_trips\":{lo},\"max_trips\":{hi}}}",
                            l.back_edge_pc
                        ),
                        Err(e) => format!(
                            "{{\"back_edge_pc\":{},\"unbounded\":\"{}\"}}",
                            l.back_edge_pc,
                            json_escape(e)
                        ),
                    })
                    .collect();
                let diags: Vec<String> =
                    est.report.items.iter().chain(violation.iter()).map(diag_json).collect();
                let b = est.breakdown;
                tech_records.push(format!(
                    "{{\"technique\":\"{}\",\"min_cycles\":{},\"max_cycles\":{},\
                     \"measured_cycles\":{measured},\"in_bracket\":{},\
                     \"predicted_skip_fraction\":{:.4},\"loops\":[{}],\
                     \"breakdown\":{{\"fetch_bound\":{},\"issue_bound\":{},\"lsu_bound\":{},\
                     \"chain_bound\":{},\"fetch_serial\":{},\"issue_serial\":{},\
                     \"lsu_serial\":{},\"sfu_serial\":{},\"dram_serial\":{},\"exposed\":{},\
                     \"darsie_slack\":{},\"tbs_per_sm\":{},\"waves\":{}}},\
                     \"diagnostics\":[{}]}}",
                    technique.label(),
                    est.min_cycles,
                    est.max_cycles.map_or_else(|| "null".to_string(), |h| h.to_string()),
                    est.contains(measured),
                    est.predicted_skip_fraction,
                    loops.join(","),
                    b.fetch_bound,
                    b.issue_bound,
                    b.lsu_bound,
                    b.chain_bound,
                    b.fetch_serial,
                    b.issue_serial,
                    b.lsu_serial,
                    b.sfu_serial,
                    b.dram_serial,
                    b.exposed,
                    b.darsie_slack,
                    b.tbs_per_sm,
                    b.waves,
                    diags.join(",")
                ));
            } else {
                let bracket = est.max_cycles.map_or_else(
                    || format!("[{}, unbounded)", est.min_cycles),
                    |hi| format!("[{}, {}]", est.min_cycles, hi),
                );
                let width = est.max_cycles.map_or_else(String::new, |hi| {
                    format!("  width {:.1}x", (hi - est.min_cycles) as f64 / measured.max(1) as f64)
                });
                println!(
                    "estimate {:8} {:12} {:>8} cycles in {:20}{}  skip {:4.1}%{}",
                    w.abbr,
                    technique.label(),
                    measured,
                    bracket,
                    width,
                    100.0 * est.predicted_skip_fraction,
                    if est.contains(measured) { "" } else { "  BOUND VIOLATION" }
                );
                if !est.report.items.is_empty() {
                    print!("{}", est.report.render());
                }
                if let Some(v) = &violation {
                    println!("  {v}");
                }
            }
        }
        if json {
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"techniques\":[{}]}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                tech_records.join(",")
            ));
        }
    }
    let mean_width = if width_n > 0 { width_sum / width_n as f64 } else { 0.0 };
    if json {
        println!(
            "{{{},\"workloads\":[{}],\"totals\":{{\"bound_violations\":{violations},\
             \"unbounded_loops\":{unbounded},\"mean_bracket_width\":{mean_width:.3}}}}}",
            json_header("estimate", Some(&cfg)),
            records.join(",")
        );
    } else {
        println!(
            "estimated {} workload(s) x 2 technique(s): {violations} bound violation(s), \
             {unbounded} unbounded loop(s), mean bracket width {mean_width:.1}x measured",
            selected.len()
        );
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("bound_violations", violations as u64);
    mf.count("unbounded_loops", unbounded as u64);
    mf.metric("mean_bracket_width", mean_width);
    finish_run(&mut mf, manifest.as_deref(), i32::from(violations > 0));
}

/// The current UTC date as `YYYY-MM-DD`, from the system clock via the
/// standard civil-from-days conversion (no date-crate dependency).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `darsie-sim bench`: one point on the benchmark trajectory. Runs each
/// selected workload under Base and DARSIE, recording simulated cycles,
/// wall time, simulated cycles per second, skip counts and the static
/// cycle bracket, plus the DARSIE speedup. With `--json` the snapshot is
/// printed to stdout *and* written to `BENCH_<date>.json` so CI can
/// archive it as an artifact.
fn bench_command(args: &[String]) {
    let SubcommandArgs { json, selected, scale, manifest, .. } =
        parse_subcommand_args("bench", args);
    let cfg = GpuConfig::test_small();
    let mut mf = RunManifest::new("bench", args);
    mf.set_config(&cfg);

    let mut records: Vec<String> = Vec::new();
    for w in &selected {
        let mut cycles_by_tech = [0u64; 2];
        let mut tech_records: Vec<String> = Vec::new();
        for (i, technique) in [Technique::Base, Technique::darsie()].into_iter().enumerate() {
            let est = simt_verify::cost::estimate(&w.ck, &w.launch, &cfg, &technique);
            let start = std::time::Instant::now();
            let r = mf.phase(&format!("bench:{}/{}", w.abbr, technique.label()), || {
                w.run_unchecked(&cfg, technique.clone())
            });
            let wall = start.elapsed().as_secs_f64();
            mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
            let cycles = r.stats.cycles;
            cycles_by_tech[i] = cycles;
            let rate = cycles as f64 / wall.max(1e-9);
            if json {
                tech_records.push(format!(
                    "{{\"technique\":\"{}\",\"cycles\":{cycles},\"wall_seconds\":{wall:.6},\
                     \"sim_cycles_per_sec\":{rate:.0},\"instructions_skipped\":{},\
                     \"instructions_executed\":{},\"static_min_cycles\":{},\
                     \"static_max_cycles\":{},\"digest_root\":\"{:#018x}\"}}",
                    technique.label(),
                    r.stats.instrs_skipped.total(),
                    r.stats.instrs_executed,
                    est.min_cycles,
                    est.max_cycles.map_or_else(|| "null".to_string(), |h| h.to_string()),
                    r.stats.digest_root,
                ));
            } else {
                println!(
                    "bench {:8} {:12} {:>8} cycles  {:>8.3}s wall  {:>10.0} cyc/s  \
                     bracket [{}, {}]  digest {:#018x}",
                    w.abbr,
                    technique.label(),
                    cycles,
                    wall,
                    rate,
                    est.min_cycles,
                    est.max_cycles.map_or_else(|| "?".to_string(), |h| h.to_string()),
                    r.stats.digest_root,
                );
            }
        }
        let speedup = cycles_by_tech[0] as f64 / cycles_by_tech[1].max(1) as f64;
        if json {
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"techniques\":[{}],\
                 \"darsie_speedup\":{speedup:.4}}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                tech_records.join(",")
            ));
        } else {
            println!("bench {:8} {:12} speedup {speedup:.2}x", w.abbr, "darsie/base");
        }
    }
    mf.count("workloads", selected.len() as u64);
    if json {
        let date = utc_date();
        let doc = format!(
            "{{{},\"date\":\"{date}\",\"scale\":\"{}\",\"workloads\":[{}]}}",
            json_header("bench", Some(&cfg)),
            if matches!(scale, Scale::Test) { "test" } else { "eval" },
            records.join(",")
        );
        let path = format!("BENCH_{date}.json");
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("cannot write benchmark snapshot {path}: {e}");
            finish_run(&mut mf, manifest.as_deref(), 1);
        }
        println!("{doc}");
        eprintln!("benchmark snapshot written to {path}");
    } else {
        println!("benchmarked {} workload(s)", selected.len());
    }
    finish_run(&mut mf, manifest.as_deref(), 0);
}

/// Parses the technique names `replay-diff` accepts (the simple subset —
/// DARSIE knob flags belong to the bare benchmark mode).
fn parse_technique_name(name: &str) -> Option<Technique> {
    Some(match name {
        "base" => Technique::Base,
        "uv" => Technique::Uv,
        "dac" | "dac-ideal" => Technique::DacIdeal,
        "darsie" => Technique::darsie(),
        "silicon-sync" => Technique::SiliconSync,
        _ => return None,
    })
}

fn parse_scheduler_name(name: &str) -> Option<SchedulerPolicy> {
    Some(match name {
        "gto" => SchedulerPolicy::Gto,
        "lrr" => SchedulerPolicy::Lrr,
        _ => return None,
    })
}

/// Serializes a [`gpu_sim::Divergence`] for `replay-diff --json`.
fn divergence_json(d: &gpu_sim::Divergence) -> String {
    let subs: Vec<String> = d
        .subs
        .iter()
        .map(|(label, a, b)| {
            format!(
                "{{\"component\":\"{}\",\"a\":\"{a:#018x}\",\"b\":\"{b:#018x}\"}}",
                json_escape(label)
            )
        })
        .collect();
    format!(
        "{{\"chain\":\"{}\",\"sm\":{},\"epoch\":{},\"cycle\":{},\"component\":\"{}\",\
         \"warp\":{},\"subs\":[{}]}}",
        json_escape(&d.chain),
        d.sm.map_or_else(|| "null".to_string(), |s| s.to_string()),
        d.epoch,
        d.cycle,
        json_escape(&d.component),
        d.warp.map_or_else(|| "null".to_string(), |w| w.to_string()),
        subs.join(",")
    )
}

/// `darsie-sim replay-diff`: the first-divergence bisector. Runs each
/// selected workload twice and compares the epoch-chained state digests.
/// Plain `replay-diff` is the determinism gate: both runs use the same
/// spec, any divergence is a bug and exits 1. `--against KEY=VALUE`
/// (repeatable; keys `technique`, `scheduler`, `sms`) varies the second
/// run's spec, and `--perturb CYCLE` injects a one-word global-memory
/// flip at that cycle into run B — both are divergence *hunts*, so a
/// found divergence is the expected result and exits 0.
fn replay_diff_command(args: &[String]) {
    let mut spec_a = RunSpec::default();
    let mut against: Vec<(String, String)> = Vec::new();
    let mut perturb_cycle: Option<u64> = None;
    let SubcommandArgs { json, selected, manifest, .. } =
        parse_subcommand_args_with("replay-diff", args, |flag, it| {
            let mut next = |flag: &str| {
                it.next().cloned().unwrap_or_else(|| {
                    eprintln!("{flag} expects a value");
                    std::process::exit(2);
                })
            };
            match flag {
                "--technique" => {
                    spec_a.technique =
                        parse_technique_name(&next("--technique")).unwrap_or_else(|| usage());
                }
                "--scheduler" => {
                    spec_a.scheduler =
                        parse_scheduler_name(&next("--scheduler")).unwrap_or_else(|| usage());
                }
                "--sms" => {
                    spec_a.sms = parse_sms(&next("--sms"));
                }
                "--against" => {
                    let kv = next("--against");
                    let Some((k, v)) = kv.split_once('=') else {
                        eprintln!("--against expects KEY=VALUE (technique|scheduler|sms)");
                        std::process::exit(2);
                    };
                    against.push((k.to_string(), v.to_string()));
                }
                "--perturb" => {
                    if perturb_cycle.is_some() {
                        duplicate_flag("--perturb");
                    }
                    perturb_cycle = Some(next("--perturb").parse().unwrap_or_else(|_| usage()));
                }
                _ => return false,
            }
            true
        });
    let mut spec_b = spec_a.clone();
    for (k, v) in &against {
        match k.as_str() {
            "technique" => {
                spec_b.technique = parse_technique_name(v).unwrap_or_else(|| usage());
            }
            "scheduler" => {
                spec_b.scheduler = parse_scheduler_name(v).unwrap_or_else(|| usage());
            }
            "sms" => spec_b.sms = parse_sms(v),
            _ => {
                eprintln!("--against key must be technique, scheduler or sms (got {k})");
                std::process::exit(2);
            }
        }
    }
    // A deliberately perturbed or cross-config pair is a divergence hunt;
    // only the plain self-comparison is a determinism gate.
    let self_compare = against.is_empty() && perturb_cycle.is_none();
    let perturb =
        perturb_cycle.map(|cycle| Perturb::GlobalWord { cycle, addr: 0x1000, xor: 0x5555_5555 });

    let mut mf = RunManifest::new("replay-diff", args);
    mf.set_config(&spec_a.gpu_config(gpu_sim::DigestConfig::default(), None));
    let mut divergent = 0usize;
    let mut records: Vec<String> = Vec::new();
    for w in &selected {
        let r =
            mf.phase(&format!("replay:{}", w.abbr), || replay_diff(w, &spec_a, &spec_b, perturb));
        mf.digest_root(&format!("{}/A", w.abbr), r.root_a);
        mf.digest_root(&format!("{}/B", w.abbr), r.root_b);
        if !r.identical {
            divergent += 1;
        }
        if json {
            records.push(format!(
                "{{\"abbr\":\"{}\",\"kernel\":\"{}\",\"identical\":{},\
                 \"root_a\":\"{:#018x}\",\"root_b\":\"{:#018x}\",\"cycles_a\":{},\
                 \"cycles_b\":{},\"epochs\":{},\"divergence\":{}}}",
                json_escape(w.abbr),
                json_escape(&w.ck.kernel.name),
                r.identical,
                r.root_a,
                r.root_b,
                r.cycles_a,
                r.cycles_b,
                r.epochs,
                r.divergence.as_ref().map_or_else(|| "null".to_string(), divergence_json)
            ));
        } else if r.identical {
            println!(
                "replay {:8} identical  root {:#018x}  {} cycles, {} epochs",
                w.abbr, r.root_a, r.cycles_a, r.epochs
            );
        } else {
            let d = r.divergence.as_ref();
            println!(
                "replay {:8} DIVERGED   roots {:#018x} vs {:#018x}  cycles {} vs {}",
                w.abbr, r.root_a, r.root_b, r.cycles_a, r.cycles_b
            );
            if let Some(d) = d {
                println!(
                    "    first divergence: chain {} epoch {} cycle {}  component {}{}",
                    d.chain,
                    d.epoch,
                    d.cycle,
                    d.component,
                    d.warp.map_or_else(String::new, |w| format!("  warp {w}")),
                );
                for (label, a, b) in &d.subs {
                    println!("      {label:12} {a:#018x} vs {b:#018x}");
                }
            }
        }
    }
    if json {
        println!(
            "{{{},\"self_compare\":{self_compare},\"workloads\":[{}],\
             \"totals\":{{\"workloads\":{},\"divergent\":{divergent}}}}}",
            json_header("replay-diff", None),
            records.join(","),
            selected.len()
        );
    } else {
        println!(
            "replayed {} workload(s): {divergent} divergent{}",
            selected.len(),
            if self_compare {
                " (self-comparison: any divergence is a determinism bug)"
            } else {
                ""
            }
        );
    }
    mf.count("workloads", selected.len() as u64);
    mf.count("divergent", divergent as u64);
    finish_run(&mut mf, manifest.as_deref(), i32::from(self_compare && divergent > 0));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in catalog(Scale::Test) {
            println!(
                "{:8} {:24} TB=({},{}) [{}]",
                w.abbr,
                w.name,
                w.block.x,
                w.block.y,
                if w.is_2d { "2D" } else { "1D" }
            );
        }
        return;
    }
    if args.first().map(String::as_str) == Some("verify") {
        verify_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("certify") {
        certify_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("analyze") {
        analyze_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("prove") {
        prove_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("profile") {
        profile_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("estimate") {
        estimate_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        bench_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("lints") {
        lints_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("replay-diff") {
        replay_diff_command(&args[1..]);
        return;
    }
    let Some(abbr) = args.first().filter(|a| !a.starts_with("--")) else { usage() };

    let mut scale = Scale::Eval;
    let mut sms = 4usize;
    let mut scheduler = SchedulerPolicy::Gto;
    let mut tech_name = "darsie".to_string();
    let mut dcfg = DarsieConfig::default();
    let mut validate = true;
    let mut trace = 0usize;
    let mut manifest: Option<String> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--manifest" => {
                if manifest.is_some() {
                    duplicate_flag("--manifest");
                }
                manifest = Some(next());
            }
            "--technique" => tech_name = next(),
            "--scale" => {
                scale = match next().as_str() {
                    "test" => Scale::Test,
                    "eval" => Scale::Eval,
                    _ => usage(),
                }
            }
            "--sms" => sms = parse_sms(&next()),
            "--scheduler" => {
                scheduler = match next().as_str() {
                    "gto" => SchedulerPolicy::Gto,
                    "lrr" => SchedulerPolicy::Lrr,
                    _ => usage(),
                }
            }
            "--skip-entries" => {
                dcfg.skip_entries_per_tb = next().parse().unwrap_or_else(|_| usage());
            }
            "--rename-regs" => {
                dcfg.rename_regs_per_tb = next().parse().unwrap_or_else(|_| usage());
            }
            "--skip-ports" => dcfg.skip_table_ports = next().parse().unwrap_or_else(|_| usage()),
            "--max-leader-stall" => {
                dcfg.max_leader_stall = next().parse().unwrap_or_else(|_| usage());
            }
            "--no-validate" => validate = false,
            "--trace" => trace = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let technique = match tech_name.as_str() {
        "base" => Technique::Base,
        "uv" => Technique::Uv,
        "dac" | "dac-ideal" => Technique::DacIdeal,
        "darsie" => Technique::Darsie(dcfg),
        "darsie-ignore-store" => Technique::Darsie(DarsieConfig { ignore_store: true, ..dcfg }),
        "darsie-no-cf-sync" => Technique::Darsie(DarsieConfig { no_cf_sync: true, ..dcfg }),
        "silicon-sync" => Technique::SiliconSync,
        _ => usage(),
    };

    let Some(w) = by_abbr(abbr, scale) else { unknown_workload("benchmark", abbr) };
    let cfg = GpuConfig {
        num_sms: sms,
        scheduler,
        shadow_check: false,
        trace_events: trace > 0,
        ..GpuConfig::pascal_gtx1080ti()
    };

    let mut mf = RunManifest::new("run", &args[1..]);
    mf.set_config(&cfg);
    let start = std::time::Instant::now();
    let mut r = mf.phase(&format!("run:{}", w.abbr), || {
        if validate {
            w.run(&cfg, technique.clone())
        } else {
            w.run_unchecked(&cfg, technique.clone())
        }
    });
    let wall = start.elapsed();
    mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
    let s = &r.stats;

    println!("{} under {} ({} SMs, {:?}):", w.name, technique.label(), sms, scheduler);
    println!("  cycles               {:>12}", r.cycles);
    println!("  instructions fetched {:>12}", s.instrs_fetched);
    println!("  instructions executed{:>12}", s.instrs_executed);
    println!(
        "  eliminated           {:>12}  (U {} / A {} / X {})",
        s.instrs_skipped.total() + s.instrs_reused.total(),
        s.instrs_skipped.uniform + s.instrs_reused.uniform,
        s.instrs_skipped.affine + s.instrs_reused.affine,
        s.instrs_skipped.unstructured + s.instrs_reused.unstructured,
    );
    println!("  i-cache accesses     {:>12}  ({} misses)", s.icache_accesses, s.icache_misses);
    println!("  RF reads / writes    {:>12} / {}", s.rf_reads, s.rf_writes);
    println!("  ALU / SFU ops        {:>12} / {}", s.alu_ops, s.sfu_ops);
    println!(
        "  global transactions  {:>12}  (L1 {}/{}, L2 {}/{})",
        s.global_transactions,
        s.l1_hits,
        s.l1_hits + s.l1_misses,
        s.l2_hits,
        s.l2_hits + s.l2_misses
    );
    println!(
        "  shared ops           {:>12}  ({} bank conflicts)",
        s.smem_ops, s.smem_bank_conflicts
    );
    println!("  barrier waits        {:>12}", s.barrier_waits);
    if s.darsie.skip_table_probes > 0 {
        println!("  -- DARSIE --");
        println!("  skip-table probes    {:>12}", s.darsie.skip_table_probes);
        println!(
            "  leaders / skips      {:>12} / {}",
            s.darsie.leaders_elected, s.darsie.instructions_skipped
        );
        println!("  load invalidations   {:>12}", s.darsie.load_invalidations);
        println!("  wait-for-leader cyc  {:>12}", s.darsie.wait_for_leader_cycles);
        println!("  branch-sync cyc      {:>12}", s.darsie.branch_sync_cycles);
        println!("  freelist stalls      {:>12}", s.darsie.freelist_stalls);
        println!("  leader give-ups      {:>12}", s.darsie.leader_giveups);
    }
    let e = EnergyModel::with_sms(sms).evaluate(s);
    println!(
        "  energy (pJ)          {:>12.0}  (dynamic {:.0}, darsie overhead {:.0})",
        e.total(),
        e.dynamic(),
        e.darsie_overhead
    );
    println!("  state digest root    {:>#18x}", s.digest_root);
    println!("  wall time            {wall:>12.2?}");
    if trace > 0 {
        println!("  -- first {} pipeline events --", trace.min(r.events.len()));
        for e in r.events.events().iter().take(trace) {
            println!("  {e}");
        }
        if r.events.dropped > 0 {
            println!("  ... ({} further events dropped)", r.events.dropped);
        }
    }
    if validate {
        println!("  validation           OK (matches CPU reference)");
    }
    finish_run(&mut mf, manifest.as_deref(), 0);
}
