//! Command-line driver of the DARSIE reproduction: argument parsing and
//! dispatch to the reports of [`darsie_bench::report`], which documents
//! what each subcommand does.
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
//! All commands parse their flags with one parser: an unknown flag, a
//! flag without its value and a repeated single-valued flag are usage
//! errors (exit 2).

use darsie::DarsieConfig;
use darsie_bench::manifest::RunManifest;
use darsie_bench::replay::RunSpec;
use darsie_bench::report::{self, Output};
use gpu_sim::{GpuConfig, SchedulerPolicy, Technique};
use std::collections::BTreeMap;
use std::str::FromStr;
use workloads::{by_abbr, catalog, Scale, Workload};

/// Count allocation traffic so manifest phase spans carry
/// `alloc_bytes`/`allocs` alongside wall time.
#[global_allocator]
static ALLOC: darsie_bench::manifest::CountingAlloc = darsie_bench::manifest::CountingAlloc;

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

/// Reports a usage error that has its own message, exit 2.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Rejects an unknown benchmark/workload name, listing the valid ones.
fn unknown_workload(kind: &str, name: &str) -> ! {
    let known: Vec<&str> = catalog(Scale::Test).iter().map(|w| w.abbr).collect();
    fail(&format!("unknown {kind} `{name}`; valid abbreviations: {}", known.join(", ")));
}

/// The flags of one command line: positional arguments in order, and the
/// values each given flag took (an empty string for a switch).
struct Flags<'a> {
    positional: Vec<&'a str>,
    values: BTreeMap<&'static str, Vec<&'a str>>,
}

impl<'a> Flags<'a> {
    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values.get(flag).map(|v| v[0])
    }

    /// The value of `flag` parsed as a `T`; an unparsable value is a
    /// usage error.
    fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    /// The value of `flag` as a positive integer.
    fn positive(&self, flag: &str) -> Option<usize> {
        self.value(flag).map(|v| {
            v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                fail(&format!("{flag} expects a positive integer"));
            })
        })
    }
}

/// The one flag parser. `spec` lists the flags a command accepts: `--f`
/// is a switch, `--f=` takes a value and `--f*=` takes a value and may be
/// repeated. Any other flag, a flag without its value and a repeat of any
/// other flag are usage errors: taking the last of two values would
/// silently hide a typo in a script.
fn parse_flags<'a>(args: &'a [String], spec: &[&'static str]) -> Flags<'a> {
    let mut flags = Flags { positional: Vec::new(), values: BTreeMap::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            flags.positional.push(arg);
            continue;
        }
        let named = |entry: &&'static str| (entry.trim_end_matches(['*', '=']), *entry);
        let Some((name, entry)) = spec.iter().map(named).find(|(name, _)| name == arg) else {
            usage()
        };
        let values = flags.values.entry(name).or_default();
        if !values.is_empty() && !entry.contains('*') {
            fail(&format!("duplicate {arg}: each flag may be given at most once"));
        }
        let value = if entry.ends_with('=') { it.next().unwrap_or_else(|| usage()) } else { "" };
        values.push(value);
    }
    flags
}

/// The flags of every workload-selecting subcommand.
const SELECT: &[&str] = &["--manifest=", "--scale=", "--json", "--threads=", "--workload*="];

/// The subcommands that consume `--threads`; the others warn and drop it.
const THREADED_SUBCOMMANDS: &[&str] = &["verify", "certify", "prove"];

fn parse_scale(name: &str) -> Scale {
    match name {
        "test" => Scale::Test,
        "eval" => Scale::Eval,
        _ => usage(),
    }
}

/// An SM count: a positive integer (zero SMs cannot hold a thread block).
fn parse_sms(v: &str) -> usize {
    v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
}

fn parse_scheduler(name: &str) -> SchedulerPolicy {
    match name {
        "gto" => SchedulerPolicy::Gto,
        "lrr" => SchedulerPolicy::Lrr,
        _ => usage(),
    }
}

/// A technique by its command-line name; the DARSIE variants take their
/// knobs from `dcfg`.
fn parse_technique(name: &str, dcfg: DarsieConfig) -> Technique {
    match name {
        "base" => Technique::Base,
        "uv" => Technique::Uv,
        "dac" | "dac-ideal" => Technique::DacIdeal,
        "darsie" => Technique::Darsie(dcfg),
        "darsie-ignore-store" => Technique::Darsie(DarsieConfig { ignore_store: true, ..dcfg }),
        "darsie-no-cf-sync" => Technique::Darsie(DarsieConfig { no_cf_sync: true, ..dcfg }),
        "silicon-sync" => Technique::SiliconSync,
        _ => usage(),
    }
}

/// What a workload-selecting subcommand runs on: positional abbreviations
/// and `--workload NAME` filters (the abbreviation or full name,
/// case-insensitively), or the whole catalog when neither is given.
struct Selection {
    json: bool,
    workloads: Vec<Workload>,
    threads: usize,
    scale: Scale,
}

fn select(command: &str, flags: &Flags) -> Selection {
    let scale = flags.value("--scale").map_or(Scale::Test, parse_scale);
    let mut threads = flags.positive("--threads");
    if threads.is_some() && !THREADED_SUBCOMMANDS.contains(&command) {
        eprintln!(
            "warning: --threads is only used by `verify`, `certify` and `prove`; \
             `{command}` ignores it"
        );
        threads = None;
    }
    let mut workloads: Vec<Workload> = flags
        .positional
        .iter()
        .map(|a| by_abbr(a, scale).unwrap_or_else(|| unknown_workload("benchmark", a)))
        .collect();
    for name in flags.values.get("--workload").into_iter().flatten() {
        let nl = name.to_lowercase();
        let matched: Vec<Workload> = catalog(scale)
            .into_iter()
            .filter(|w| w.abbr.to_lowercase() == nl || w.name.to_lowercase() == nl)
            .collect();
        if matched.is_empty() {
            unknown_workload("workload", name);
        }
        workloads.extend(matched);
    }
    if workloads.is_empty() {
        workloads = catalog(scale);
    }
    Selection { json: flags.has("--json"), workloads, threads: threads.unwrap_or(1), scale }
}

/// A finished command: its manifest, the `--manifest` path and its output.
type Run<'a> = (RunManifest, Option<&'a str>, Output);

/// Parses a workload-selecting subcommand's flags against `spec` and runs
/// `report` on its selection.
fn selecting<'a>(
    command: &str,
    args: &'a [String],
    spec: &[&'static str],
    report: impl FnOnce(&Selection, &Flags<'a>, &mut RunManifest) -> Output,
) -> Run<'a> {
    let flags = parse_flags(args, spec);
    let selection = select(command, &flags);
    let mut mf = RunManifest::new(command, args);
    let output = report(&selection, &flags, &mut mf);
    (mf, flags.value("--manifest"), output)
}

fn certify(args: &[String]) -> Run<'_> {
    let flags = parse_flags(args, &[SELECT, &["--family", "--samples="]].concat());
    let s = select("certify", &flags);
    let family = flags.has("--family");
    let samples = flags.positive("--samples");
    if let (Some(n), false) = (samples, family) {
        fail(&format!("--samples {n} only applies to `certify --family`"));
    }
    let mut mf = RunManifest::new(if family { "certify-family" } else { "certify" }, args);
    let output = if family {
        report::certify_family(&s.workloads, s.json, s.threads, samples.unwrap_or(25), &mut mf)
    } else {
        report::certify(&s.workloads, s.json, s.threads, &mut mf)
    };
    (mf, flags.value("--manifest"), output)
}

/// Sets one knob of a replay spec; `key` is `technique`, `scheduler` or
/// `sms`.
fn set_knob(spec: &mut RunSpec, key: &str, value: &str) {
    match key {
        "technique" => spec.technique = parse_technique(value, DarsieConfig::default()),
        "scheduler" => spec.scheduler = parse_scheduler(value),
        "sms" => spec.sms = parse_sms(value),
        _ => fail(&format!("--against key must be technique, scheduler or sms (got {key})")),
    }
}

fn replay_diff(args: &[String]) -> Run<'_> {
    let knobs = ["--technique=", "--scheduler=", "--sms=", "--against*=", "--perturb="];
    selecting("replay-diff", args, &[SELECT, &knobs].concat(), |s, flags, mf| {
        let mut a = RunSpec::default();
        for key in ["technique", "scheduler", "sms"] {
            if let Some(v) = flags.value(&format!("--{key}")) {
                set_knob(&mut a, key, v);
            }
        }
        let b = flags.has("--against").then(|| {
            let mut b = a.clone();
            for kv in &flags.values["--against"] {
                let Some((k, v)) = kv.split_once('=') else {
                    fail("--against expects KEY=VALUE (technique|scheduler|sms)");
                };
                set_knob(&mut b, k, v);
            }
            b
        });
        report::replay_diff(&s.workloads, s.json, &a, b.as_ref(), flags.parsed("--perturb"), mf)
    })
}

fn lints(args: &[String]) -> Run<'_> {
    let flags = parse_flags(args, &["--json", "--manifest="]);
    if !flags.positional.is_empty() {
        usage();
    }
    let mut mf = RunManifest::new("lints", args);
    let output = report::lints(flags.has("--json"), &mut mf);
    (mf, flags.value("--manifest"), output)
}

/// The bare `darsie-sim <ABBR> [options]` mode.
fn run_benchmark<'a>(abbr: &str, args: &'a [String]) -> Run<'a> {
    let flags = parse_flags(
        args,
        &[
            "--manifest=",
            "--technique=",
            "--scale=",
            "--sms=",
            "--scheduler=",
            "--skip-entries=",
            "--rename-regs=",
            "--skip-ports=",
            "--max-leader-stall=",
            "--trace=",
            "--no-validate",
        ],
    );
    if !flags.positional.is_empty() {
        usage();
    }
    let mut d = DarsieConfig::default();
    d.skip_entries_per_tb = flags.parsed("--skip-entries").unwrap_or(d.skip_entries_per_tb);
    d.rename_regs_per_tb = flags.parsed("--rename-regs").unwrap_or(d.rename_regs_per_tb);
    d.skip_table_ports = flags.parsed("--skip-ports").unwrap_or(d.skip_table_ports);
    d.max_leader_stall = flags.parsed("--max-leader-stall").unwrap_or(d.max_leader_stall);
    let technique = parse_technique(flags.value("--technique").unwrap_or("darsie"), d);
    let scale = flags.value("--scale").map_or(Scale::Eval, parse_scale);
    let Some(w) = by_abbr(abbr, scale) else { unknown_workload("benchmark", abbr) };
    let trace = flags.parsed("--trace").unwrap_or(0);
    let cfg = GpuConfig {
        num_sms: flags.value("--sms").map_or(4, parse_sms),
        scheduler: flags.value("--scheduler").map_or(SchedulerPolicy::Gto, parse_scheduler),
        shadow_check: false,
        trace_events: trace > 0,
        ..GpuConfig::pascal_gtx1080ti()
    };
    let mut mf = RunManifest::new("run", args);
    let output = report::run(&w, &cfg, &technique, !flags.has("--no-validate"), trace, &mut mf);
    (mf, flags.value("--manifest"), output)
}

/// Prints the report, writes the run manifest (when `--manifest PATH` was
/// given) carrying the exit code, then exits with that code. Every command
/// funnels through here so a failing run still leaves its telemetry
/// behind.
fn finish((mut mf, path, output): Run) {
    print!("{}", output.out);
    mf.exit_code = output.code;
    if let Some(p) = path {
        if let Err(e) = mf.write(p) {
            fail(&format!("cannot write manifest {p}: {e}"));
        }
    }
    if output.code != 0 {
        std::process::exit(output.code);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in catalog(Scale::Test) {
            let dims = if w.is_2d { "2D" } else { "1D" };
            println!("{:8} {:24} TB=({},{}) [{dims}]", w.abbr, w.name, w.block.x, w.block.y);
        }
        return;
    }
    let Some(command) = args.first().map(String::as_str) else { usage() };
    let rest = &args[1..];
    finish(match command {
        "verify" => selecting(command, rest, SELECT, |s, _, mf| {
            report::verify(&s.workloads, s.json, s.threads, mf)
        }),
        "certify" => certify(rest),
        "analyze" => {
            selecting(command, rest, SELECT, |s, _, mf| report::analyze(&s.workloads, s.json, mf))
        }
        "prove" => selecting(command, rest, SELECT, |s, _, mf| {
            report::prove(&s.workloads, s.json, s.threads, mf)
        }),
        "profile" => selecting(command, rest, &[SELECT, &["--perfetto="]].concat(), |s, f, mf| {
            report::profile(&s.workloads, s.json, f.value("--perfetto"), mf)
        }),
        "estimate" => {
            selecting(command, rest, SELECT, |s, _, mf| report::estimate(&s.workloads, s.json, mf))
        }
        "bench" => selecting(command, rest, SELECT, |s, _, mf| {
            report::bench(&s.workloads, s.json, s.scale, mf)
        }),
        "replay-diff" => replay_diff(rest),
        "lints" => lints(rest),
        abbr if !abbr.starts_with("--") => run_benchmark(abbr, rest),
        _ => usage(),
    });
}
