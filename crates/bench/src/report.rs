//! The reports behind the `darsie-sim` subcommands. Each takes the
//! selected workloads and its options, records its phases, counters and
//! digest roots in the run's [`RunManifest`], and returns the text it
//! prints (the human report, or one `--json` document written through
//! [`crate::json`]) with the process exit code. Output is byte-identical
//! whatever the thread count.
//!
//! `analyze`, `profile`, `estimate` and `bench` plan their launches on a
//! [`Plan`] and read them from the [`JobTable`], which runs them on every
//! core and validates each against the CPU reference.

use crate::json::{object, Fixed, Hex, Obj};
use crate::manifest::{config_fingerprint, RunManifest, SCHEMA_VERSION, TOOL, VERSION};
use crate::replay::{replay_diff as replay_pair, ReplayReport, RunSpec};
use crate::{all_cores, perfetto, Job, JobTable, Launched, Plan};
use gpu_energy::EnergyModel;
use gpu_sim::{DigestConfig, GpuConfig, PcProfile, Perturb, StallCause, Technique};
use simt_compiler::LaunchPlan;
use simt_isa::Dim3;
use simt_verify::cost::CostEstimate;
use simt_verify::perf::{MemPredKind, MemPrediction, Validation};
use simt_verify::{parallel_map, Diagnostic, Diagnostics};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workloads::{Scale, Workload};

/// What a report prints and the exit code it asks for.
#[derive(Debug)]
pub struct Output {
    /// The complete stdout text, ending in a newline.
    pub out: String,
    /// The process exit code (0 when every gate held).
    pub code: i32,
}

/// A `--json` document: the shared header, then `body`, then a newline.
/// Every document leads with the tool identity, version, schema version,
/// echoed subcommand and the configuration fingerprint (`null` for
/// subcommands that build no GPU configuration), so CI consumers can check
/// the shape they parse.
fn document(subcommand: &str, cfg: Option<&GpuConfig>, body: impl FnOnce(&mut Obj)) -> String {
    let mut doc = object(|o| {
        o.field("tool", TOOL).field("version", VERSION).field("schema_version", SCHEMA_VERSION);
        o.field("subcommand", subcommand);
        o.field("config_fingerprint", cfg.map(|c| Hex(config_fingerprint(c))));
        body(o);
    });
    doc.push('\n');
    doc
}

fn dim3(d: Dim3) -> [u32; 3] {
    [d.x, d.y, d.z]
}

/// `ABBR     (name, TB=(x,y,z))`, how the human reports name a workload.
fn named(w: &Workload) -> String {
    let b = w.block;
    format!("{:8} ({}, TB=({},{},{}))", w.abbr, w.name, b.x, b.y, b.z)
}

/// The `"workloads"` array of a document: one object per workload of `ws`
/// with its result, each led by the abbreviation and the kernel name.
fn per_workload<T>(
    o: &mut Obj,
    ws: &[Workload],
    results: impl IntoIterator<Item = T>,
    mut record: impl FnMut(&mut Obj, &Workload, T),
) {
    o.arr("workloads", |a| {
        for (w, r) in ws.iter().zip(results) {
            a.obj(|o| {
                o.field("abbr", w.abbr).field("kernel", &w.ck.kernel.name);
                record(o, w, r);
            });
        }
    });
}

/// The `"diagnostics"` array of the lint reports.
fn diagnostics<'a>(o: &mut Obj, items: impl IntoIterator<Item = &'a Diagnostic>) {
    o.arr("diagnostics", |a| {
        for d in items {
            a.obj(|o| {
                o.field("code", d.code.code()).field("severity", d.severity.to_string());
                o.field("pc", d.pc).field("message", &d.message);
            });
        }
    });
}

/// `code×count` pairs joined by commas, for the human reports.
fn times<K: std::fmt::Display>(counts: impl IntoIterator<Item = (K, usize)>) -> String {
    let parts: Vec<String> = counts.into_iter().map(|(k, n)| format!("{k}\u{d7}{n}")).collect();
    parts.join(", ")
}

/// Finding totals over the workloads of a lint report.
#[derive(Default)]
struct Tally {
    errors: usize,
    warnings: usize,
    by_code: BTreeMap<&'static str, usize>,
}

impl Tally {
    fn of<'a>(reports: impl IntoIterator<Item = &'a Diagnostics>) -> Tally {
        let mut t = Tally::default();
        for r in reports {
            t.errors += r.error_count();
            t.warnings += r.warning_count();
            for d in &r.items {
                *t.by_code.entry(d.code.code()).or_insert(0) += 1;
            }
        }
        t
    }

    fn json(&self, o: &mut Obj) {
        o.field("by_code", &self.by_code);
        o.field("total_errors", self.errors).field("total_warnings", self.warnings);
    }

    fn text(&self, out: &mut String, verb: &str, workloads: usize) {
        let (e, w) = (self.errors, self.warnings);
        let _ = writeln!(out, "{verb} {workloads} workload(s): {e} error(s), {w} warning(s)");
        if !self.by_code.is_empty() {
            let _ = writeln!(out, "by code: {}", times(self.by_code.iter().map(|(c, n)| (c, *n))));
        }
    }

    /// Records the totals in the manifest and returns the exit code.
    fn finish(&self, mf: &mut RunManifest, workloads: usize) -> i32 {
        mf.count("workloads", workloads as u64);
        mf.count("total_errors", self.errors as u64);
        mf.count("total_warnings", self.warnings as u64);
        i32::from(self.errors > 0)
    }
}

/// `darsie-sim verify`: the `simt-verify` static checks (including the
/// shared-memory race detector) and the differential marking-soundness
/// oracle over `ws` at their native launches, sharded over `threads`
/// workers. Fails on any error-severity finding; the `--json` document
/// carries per-lint-code totals.
pub fn verify(ws: &[Workload], json: bool, threads: usize, mf: &mut RunManifest) -> Output {
    let reports = mf.phase("verify", || {
        parallel_map(ws, threads, |w| simt_verify::verify_full(&w.ck, &w.launch, w.memory.clone()))
    });
    let tally = Tally::of(&reports);
    let out = if json {
        document("verify", None, |o| {
            per_workload(o, ws, &reports, |o, w, r| {
                o.field("block", dim3(w.block));
                diagnostics(o, &r.items);
                o.field("errors", r.error_count()).field("warnings", r.warning_count());
            });
            tally.json(o);
        })
    } else {
        let mut out = String::new();
        for (w, r) in ws.iter().zip(&reports) {
            if r.items.is_empty() {
                let _ = writeln!(out, "verify {}: clean", named(w));
            } else {
                out.push_str(&r.render());
            }
        }
        tally.text(&mut out, "verified", ws.len());
        out
    };
    Output { out, code: tally.finish(mf, ws.len()) }
}

/// The first concrete block pair that touched one global word.
fn witness(o: &mut Obj, w: &simt_verify::blocks::RaceWitness) {
    o.field("pc_a", w.pc_a).field("pc_b", w.pc_b);
    o.field("block_a", dim3(w.block_a)).field("block_b", dim3(w.block_b)).field("word", w.word);
}

/// `darsie-sim certify`: the inter-thread-block independence certifier
/// gating the sharded engine, over `ws` on `threads` workers. Each
/// workload gets the static block-affine global-footprint analysis, then a
/// replay of the whole launch under the global-memory shadow sanitizer; the
/// report gives the classification (`block-independent`,
/// `commutative-atomics-only` or `potentially-racy`), any `V310`–`V313`
/// findings and the first concrete block-pair witness. Fails on
/// `V310`/`V312`.
pub fn certify(ws: &[Workload], json: bool, threads: usize, mf: &mut RunManifest) -> Output {
    let results = mf.phase("certify", || {
        parallel_map(ws, threads, |w| {
            simt_verify::blocks::certify(&w.ck, &w.launch, w.memory.clone())
        })
    });
    let tally = Tally::of(results.iter().map(|(_, r)| r));
    let out = if json {
        document("certify", None, |o| {
            per_workload(o, ws, &results, |o, w, (cert, r)| {
                o.field("grid", dim3(w.launch.grid));
                o.field("classification", cert.classification.label());
                o.field("global_accesses", cert.global_accesses);
                o.field("unanalyzable", cert.unanalyzable);
                o.field("checked_pairs", cert.checked_pairs);
                o.field("dynamically_discharged", cert.dynamically_discharged);
                o.opt_obj("witness", cert.witness.as_ref(), witness);
                diagnostics(o, &r.items);
                o.field("errors", r.error_count()).field("warnings", r.warning_count());
            });
            tally.json(o);
        })
    } else {
        let mut out = String::new();
        for (w, (cert, r)) in ws.iter().zip(&results) {
            let g = w.launch.grid;
            let _ = writeln!(
                out,
                "certify {:8} ({}, grid=({},{},{})): {} ({} global access(es), \
                 {} pair(s) checked)",
                w.abbr,
                w.name,
                g.x,
                g.y,
                g.z,
                cert.classification.label(),
                cert.global_accesses,
                cert.checked_pairs,
            );
            if cert.dynamically_discharged {
                out.push_str("  (static overlaps discharged by exhaustive replay)\n");
            }
            if !r.items.is_empty() {
                out.push_str(&r.render());
            }
        }
        tally.text(&mut out, "certified", ws.len());
        out
    };
    Output { out, code: tally.finish(mf, ws.len()) }
}

/// `darsie-sim certify --family`: one certificate per kernel of `ws`
/// covering its whole declared [`simt_isa::LaunchFamily`] region, tiered
/// `FamilyProved` / `FamilySampled` / `PerLaunchOnly`, each cross-checked
/// by a differential gate that certifies `samples` deterministic member
/// launches concretely. Fails on any refutation or disagreement.
pub fn certify_family(
    ws: &[Workload],
    json: bool,
    threads: usize,
    samples: usize,
    mf: &mut RunManifest,
) -> Output {
    use simt_verify::family::{certify_family, differential_check, FamilyVerdict};
    let cfg = GpuConfig::test_small();
    mf.set_config(&cfg);
    let results = mf.phase("certify-family", || {
        parallel_map(ws, threads, |w| {
            certify_family(&w.ck, &w.family, &w.launch, &w.memory, &cfg).map(|cert| {
                let disagreements =
                    differential_check(&w.ck, &w.family, &w.launch, &w.memory, &cert, samples, 1);
                (cert, disagreements)
            })
        })
    });
    let certs: Vec<_> =
        match ws.iter().zip(&results).map(|(w, r)| r.as_ref().map_err(|e| (w, e))).collect() {
            Ok(certs) => certs,
            Err((w, e)) => {
                eprintln!("{}: malformed family region: {e}", w.abbr);
                return Output { out: String::new(), code: 2 };
            }
        };
    let verdicts = |v: FamilyVerdict| certs.iter().filter(|(c, _)| c.verdict == v).count();
    let proved = verdicts(FamilyVerdict::FamilyProved);
    let sampled = verdicts(FamilyVerdict::FamilySampled);
    let refuted = verdicts(FamilyVerdict::PerLaunchOnly);
    let disagreements: usize = certs.iter().map(|(_, d)| d.len()).sum();
    let out = if json {
        document("certify-family", Some(&cfg), |o| {
            per_workload(o, ws, &certs, |o, _, (cert, disputes)| family_record(o, cert, disputes));
            o.field("samples", samples).field("proved", proved).field("sampled", sampled);
            o.field("refuted", refuted).field("disagreements", disagreements);
        })
    } else {
        let mut out = String::new();
        for (w, (cert, disputes)) in ws.iter().zip(&certs) {
            let _ = writeln!(
                out,
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
                let _ = writeln!(out, "  note: {n}");
            }
            for d in disputes {
                let _ = writeln!(out, "  DISAGREEMENT: {d}");
            }
        }
        let _ = writeln!(
            out,
            "certified {} family region(s): {proved} proved, {sampled} sampled, \
             {refuted} refuted, {disagreements} differential disagreement(s) \
             over {samples} sample(s) each",
            ws.len()
        );
        out
    };
    mf.count("workloads", ws.len() as u64);
    mf.count("proved", proved as u64);
    mf.count("sampled", sampled as u64);
    mf.count("refuted", refuted as u64);
    mf.count("disagreements", disagreements as u64);
    Output { out, code: i32::from(refuted > 0 || disagreements > 0) }
}

fn family_record(o: &mut Obj, cert: &simt_verify::family::FamilyCertificate, disputes: &[String]) {
    let r = &cert.region;
    o.obj("region", |o| {
        for (axis, a) in [
            ("grid_x", r.grid_x),
            ("grid_y", r.grid_y),
            ("block_x", r.block_x),
            ("block_y", r.block_y),
            ("block_z", r.block_z),
        ] {
            o.obj(axis, |o| {
                o.field("lo", a.lo).field("hi", a.hi).field("step", a.step);
            });
        }
    });
    o.field("member_count", cert.member_count).field("verdict", cert.verdict.label());
    o.field("classification", cert.classification.label());
    o.field("global_accesses", cert.global_accesses).field("checked_pairs", cert.checked_pairs);
    o.field("proved_pairs", cert.proved_pairs).field("unanalyzable", cert.unanalyzable);
    o.arr("unresolved", |a| {
        for p in &cert.unresolved {
            a.obj(|o| {
                o.field("pc_a", p.pc_a).field("pc_b", p.pc_b).field("reason", p.reason);
            });
        }
    });
    o.field("sampled_corners", cert.sampled_corners);
    o.opt_obj("witness_launch", cert.witness_launch.as_ref(), |o, l| {
        o.field("grid", dim3(l.grid)).field("block", dim3(l.block));
    });
    o.opt_obj("witness", cert.witness.as_ref(), witness);
    o.arr("cost", |a| {
        for b in &cert.cost {
            a.obj(|o| {
                o.field("technique", &b.technique).field("min_cycles", b.min_cycles);
                o.field("max_cycles", b.max_cycles);
            });
        }
    });
    o.field("notes", &cert.notes[..]).field("disagreements", disputes);
}

/// `darsie-sim prove`: the symbolic translation validator. Every
/// redundancy-marking and branch-sync claim of `ws` is discharged on
/// `threads` workers over the whole launch family the marking quantifies
/// over; the report gives proved/disproved/unknown counts and a per-claim
/// ledger with verdicts, unknown reasons and evaluation costs. Wall time
/// goes to stderr. Fails on any disproof (`S401`) or branch-sync violation
/// (`S403`).
pub fn prove(ws: &[Workload], json: bool, threads: usize, mf: &mut RunManifest) -> Output {
    use simt_verify::symex::{prove_with_threads, Verdict};
    let wall = std::time::Instant::now();
    let proofs: Vec<_> = ws
        .iter()
        .map(|w| {
            mf.phase(&format!("prove:{}", w.abbr), || {
                prove_with_threads(&w.ck, Some((&w.launch, &w.memory)), threads)
            })
        })
        .collect();
    let elapsed = wall.elapsed();
    let tally = Tally::of(proofs.iter().map(|p| &p.report));
    let mut unknown_reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in proofs.iter().flat_map(|p| &p.claims).filter_map(|c| c.unknown_reason) {
        *unknown_reasons.entry(r.label()).or_insert(0) += 1;
    }
    let total = |f: fn(&simt_verify::symex::ProveStats) -> usize| -> usize {
        proofs.iter().map(|p| f(&p.stats)).sum()
    };
    let (proved, disproved, unknown) =
        (total(|s| s.proved), total(|s| s.disproved), total(|s| s.unknown));
    let out = if json {
        document("prove", None, |o| {
            per_workload(o, ws, &proofs, |o, w, p| {
                let s = &p.stats;
                o.field("block", dim3(w.block));
                o.field("value_claims", s.value_claims).field("branch_claims", s.branch_claims);
                o.field("proved", s.proved).field("disproved", s.disproved);
                o.field("unknown", s.unknown).field("complete", s.complete);
                o.field("fuel_used", s.fuel_used).field("terms", s.terms);
                o.arr("claims", |a| {
                    for c in &p.claims {
                        let verdict = match c.verdict {
                            Verdict::Proved => "proved",
                            Verdict::Disproved => "disproved",
                            Verdict::Unknown => "unknown",
                        };
                        let covered = c.covers.covered_region(&w.family, w.launch.warp_size);
                        a.obj(|o| {
                            o.field("pc", c.pc).field("kind", c.kind);
                            o.field("family", c.family).field("verdict", verdict);
                            o.field("unknown_reason", c.unknown_reason.map(|r| r.label()));
                            o.field("evals", c.evals);
                            o.field("covered_region", covered.map(|r| r.to_string()));
                        });
                    }
                });
                diagnostics(o, &p.report.items);
            });
            o.field("by_code", &tally.by_code).field("unknown_reasons", &unknown_reasons);
            o.field("total_proved", proved).field("total_disproved", disproved);
            o.field("total_unknown", unknown);
        })
    } else {
        let mut out = String::new();
        for (w, p) in ws.iter().zip(&proofs) {
            let s = &p.stats;
            let _ = writeln!(
                out,
                "prove {}: {} claim(s): {} proved, {} disproved, {} unknown{}",
                named(w),
                s.value_claims + s.branch_claims,
                s.proved,
                s.disproved,
                s.unknown,
                if s.complete { "" } else { " (budget exhausted)" }
            );
            if !p.report.items.is_empty() {
                out.push_str(&p.report.render());
            }
        }
        let _ = writeln!(
            out,
            "proved {} workload(s): {proved} proved, {disproved} disproved, {unknown} unknown",
            ws.len()
        );
        if !unknown_reasons.is_empty() {
            let mut ranked: Vec<(&str, usize)> =
                unknown_reasons.iter().map(|(r, n)| (*r, *n)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let _ = writeln!(out, "top unknown reasons: {}", times(ranked));
        }
        out
    };
    // Wall time goes to stderr so the document stays byte-identical
    // across thread counts.
    eprintln!("prover wall time: {:.3}s ({} thread(s))", elapsed.as_secs_f64(), threads);
    mf.count("workloads", ws.len() as u64);
    mf.count("total_proved", proved as u64);
    mf.count("total_disproved", disproved as u64);
    mf.count("total_unknown", unknown as u64);
    Output { out, code: i32::from(tally.errors > 0) }
}

/// `darsie-sim lints`: the registry of every lint the verifier can emit —
/// code, severity, producing pass and one-line description — generated
/// from [`simt_verify::LintCode`] itself so it can never go stale.
pub fn lints(json: bool, mf: &mut RunManifest) -> Output {
    use simt_verify::LintCode;
    let out = mf.phase("render", || {
        if json {
            return document("lints", None, |o| {
                o.arr("lints", |a| {
                    for l in LintCode::ALL {
                        a.obj(|o| {
                            o.field("code", l.code()).field("severity", l.severity().to_string());
                            o.field("pass", l.pass()).field("doc", l.doc());
                        });
                    }
                });
            });
        }
        let mut out = String::new();
        for l in LintCode::ALL {
            let sev = l.severity().to_string();
            let _ = writeln!(out, "{:5} {:7} {:10} {}", l.code(), sev, l.pass(), l.doc());
        }
        out
    });
    mf.count("lints", LintCode::ALL.len() as u64);
    Output { out, code: 0 }
}

/// Plans the launch of every workload of `ws` under each of `runs`, and
/// runs the plan on every core as the manifest's `simulate` phase.
fn simulate(ws: &[Workload], runs: &[(GpuConfig, Technique)], mf: &mut RunManifest) -> JobTable {
    let mut plan = Plan::default();
    for w in 0..ws.len() {
        for (cfg, t) in runs {
            plan.add(Job::Launch(w, cfg.clone(), t.clone()));
        }
    }
    mf.phase("simulate", || plan.run(ws, all_cores()))
}

/// The Base and DARSIE launches on `cfg`.
fn base_and_darsie(cfg: &GpuConfig) -> [(GpuConfig, Technique); 2] {
    [(cfg.clone(), Technique::Base), (cfg.clone(), Technique::darsie())]
}

/// What `analyze` found on one workload.
struct Analysis {
    baseline: [usize; 3],
    refined: [usize; 3],
    base_skip: usize,
    ref_skip: usize,
    upgrades: BTreeMap<String, usize>,
    oracle_errors: usize,
    seeds: BTreeMap<String, usize>,
    headroom: (usize, usize),
    predictions: Vec<MemPrediction>,
    checks: Vec<Validation>,
    violations: usize,
    lints: Diagnostics,
}

impl Analysis {
    fn of(w: &Workload, measured: &gpu_sim::SimStats, warp_size: u32) -> Analysis {
        let refined = simt_compiler::refine(&w.ck, w.launch.block.z.max(1));
        let base_plan = LaunchPlan::new(&w.ck, &w.launch);
        let ref_plan = LaunchPlan::new(&refined.ck, &w.launch);
        let mut upgrades = BTreeMap::new();
        for u in &refined.upgrades {
            *upgrades.entry(u.reason.to_string()).or_insert(0) += 1;
        }
        // Soundness gate: the refined markings must survive the
        // differential oracle on a real execution.
        let oracle = simt_verify::oracle::check(&refined.ck, &w.launch, w.memory.clone());
        // Blame the vector markings refinement could not recover.
        let blame = simt_compiler::blame(&refined.ck, &refined.ck.classes);
        let seeds = blame.seed_histogram().into_iter().map(|(s, n)| (s.to_string(), n)).collect();
        // Dynamic headroom left by the refined plan.
        let headroom = simt_verify::oracle::dynamic_headroom(
            &refined.ck,
            &w.launch,
            &ref_plan.skippable,
            w.memory.clone(),
        );
        // Memory performance: predict statically, check the bounds against
        // the cycle-level run of the baseline technique.
        let predictions = simt_verify::perf::predict(&w.ck, &w.launch, warp_size);
        let checks = simt_verify::perf::validate(&predictions, measured);
        Analysis {
            baseline: w.ck.marking_counts(),
            refined: refined.ck.marking_counts(),
            base_skip: base_plan.num_skippable(),
            ref_skip: ref_plan.num_skippable(),
            upgrades,
            oracle_errors: oracle.error_count(),
            seeds,
            headroom: (headroom.dynamically_redundant.len(), headroom.never_aligned.len()),
            violations: checks.iter().filter(|c| !c.ok).count(),
            lints: simt_verify::perf::lint(&w.ck, &predictions),
            predictions,
            checks,
        }
    }

    fn unpredictable(&self) -> usize {
        let unpredictable =
            |p: &&MemPrediction| matches!(p.kind, MemPredKind::Unpredictable { .. });
        self.predictions.iter().filter(unpredictable).count()
    }

    fn json(&self, o: &mut Obj) {
        let [bv, bc, bd] = self.baseline;
        let [rv, rc, rd] = self.refined;
        o.obj("baseline", |o| {
            o.field("vector", bv).field("cond", bc).field("def", bd);
            o.field("skippable", self.base_skip);
        });
        o.obj("refined", |o| {
            o.field("vector", rv).field("cond", rc).field("def", rd);
            o.field("skippable", self.ref_skip).field("upgrades", &self.upgrades);
        });
        o.field("oracle_errors", self.oracle_errors);
        o.obj("headroom", |o| {
            o.field("dynamically_redundant", self.headroom.0);
            o.field("never_aligned", self.headroom.1);
        });
        o.field("blame", &self.seeds);
        o.obj("mem", |o| {
            o.field("accesses", self.predictions.len())
                .field("unpredictable", self.unpredictable());
            o.field("violations", self.violations);
            o.arr("checks", |a| {
                for p in &self.predictions {
                    a.obj(|o| mem_check(o, p, self.checks.iter().find(|c| c.pc == p.pc)));
                }
            });
            o.arr("lints", |a| {
                for d in &self.lints.items {
                    a.obj(|o| {
                        o.field("code", d.code.code()).field("pc", d.pc);
                        o.field("message", &d.message);
                    });
                }
            });
        });
    }

    fn text(&self, out: &mut String) {
        let [bv, bc, bd] = self.baseline;
        let [rv, rc, rd] = self.refined;
        let (base_skip, ref_skip) = (self.base_skip, self.ref_skip);
        let _ = writeln!(
            out,
            "  markings V/CR/DR     {bv}/{bc}/{bd} -> {rv}/{rc}/{rd}   \
             skippable {base_skip} -> {ref_skip}"
        );
        if !self.upgrades.is_empty() {
            let ups = times(self.upgrades.iter().map(|(r, n)| (r, *n)));
            let _ = writeln!(out, "  upgrades             {ups}");
        }
        let _ = writeln!(
            out,
            "  oracle               {} error(s) on refined markings",
            self.oracle_errors
        );
        let _ = writeln!(
            out,
            "  dynamic headroom     {} redundant-unskipped, {} never-aligned",
            self.headroom.0, self.headroom.1
        );
        if !self.seeds.is_empty() {
            let blame = times(self.seeds.iter().map(|(s, n)| (s, *n)));
            let _ = writeln!(out, "  vector blame         {blame}");
        }
        let _ = writeln!(
            out,
            "  memory               {} access(es), {} unpredictable, \
             {} bound violation(s)",
            self.predictions.len(),
            self.unpredictable(),
            self.violations
        );
        for c in self.checks.iter().filter(|c| !c.ok) {
            let _ = writeln!(out, "    VIOLATION {}", c.detail);
        }
        for d in &self.lints.items {
            let _ = writeln!(out, "    {d}");
        }
    }
}

/// One memory prediction plus its validation outcome.
fn mem_check(o: &mut Obj, p: &MemPrediction, v: Option<&Validation>) {
    o.field("pc", p.pc).field("store", p.is_store);
    match &p.kind {
        MemPredKind::SharedConflict { min_degree, max_degree } => {
            o.field("kind", "shared-conflict");
            o.field("min_degree", *min_degree).field("max_degree", *max_degree);
        }
        MemPredKind::GlobalCoalesce { min_lines, max_lines, ideal_lines } => {
            o.field("kind", "global-coalesce").field("min_lines", *min_lines);
            o.field("max_lines", *max_lines).field("ideal_lines", *ideal_lines);
        }
        MemPredKind::Unpredictable { reason } => {
            o.field("kind", "unpredictable").field("reason", reason);
        }
    }
    if let Some(v) = v {
        o.field("ok", v.ok).field("measured", &v.detail);
    }
}

/// `darsie-sim analyze`: the static performance analyzer. For each of `ws`:
/// baseline vs refined marking counts and skip coverage, the refinement
/// upgrades by pass, blame-seed histograms of the remaining vector
/// markings, the measured dynamic-redundancy headroom of the refined plan,
/// and predicted-vs-measured shared-memory bank conflicts and global
/// coalescing, checked against a cycle-level run of the baseline. Fails if
/// the refined markings fail the soundness oracle or a measured memory
/// counter falls outside its predicted bounds.
pub fn analyze(ws: &[Workload], json: bool, mf: &mut RunManifest) -> Output {
    let cfg = GpuConfig::test_small();
    mf.set_config(&cfg);
    let table = simulate(ws, &[(cfg.clone(), Technique::Base)], mf);
    let indices: Vec<usize> = (0..ws.len()).collect();
    let found = mf.phase("analyze", || {
        parallel_map(&indices, all_cores(), |&i| {
            Analysis::of(&ws[i], table.stats(i, &cfg, &Technique::Base), cfg.warp_size)
        })
    });
    for (i, w) in ws.iter().enumerate() {
        mf.digest_root(
            &format!("{}/BASE", w.abbr),
            table.stats(i, &cfg, &Technique::Base).digest_root,
        );
    }
    let oracle_errors: usize = found.iter().map(|a| a.oracle_errors).sum();
    let mem_violations: usize = found.iter().map(|a| a.violations).sum();
    let coverage_wins = found.iter().filter(|a| a.ref_skip > a.base_skip).count();
    let marking_wins = found.iter().filter(|a| a.refined[0] < a.baseline[0]).count();
    let out = if json {
        document("analyze", Some(&cfg), |o| {
            per_workload(o, ws, &found, |o, _, found| found.json(o));
            o.obj("totals", |o| {
                o.field("oracle_errors", oracle_errors).field("mem_violations", mem_violations);
                o.field("coverage_wins", coverage_wins).field("marking_wins", marking_wins);
            });
        })
    } else {
        let mut out = String::new();
        for (w, found) in ws.iter().zip(&found) {
            let _ = writeln!(out, "analyze {}", named(w));
            found.text(&mut out);
        }
        let _ = writeln!(
            out,
            "analyzed {} workload(s): {oracle_errors} oracle error(s), \
             {mem_violations} memory-bound violation(s), {coverage_wins} skip-coverage \
             win(s), {marking_wins} marking-precision win(s)",
            ws.len()
        );
        out
    };
    mf.count("workloads", ws.len() as u64);
    mf.count("oracle_errors", oracle_errors as u64);
    mf.count("mem_violations", mem_violations as u64);
    Output { out, code: i32::from(oracle_errors > 0 || mem_violations > 0) }
}

/// Whether a profiled run keeps its two accounting identities: per-SM slot
/// balance, and `issued` slots equal to the instructions the simulator
/// says it executed or reused.
fn identity_ok(r: &Launched) -> bool {
    let prof = r.profile.as_ref().expect("profiling was enabled");
    let issued = prof.slots().get(StallCause::Issued);
    prof.check_identity().is_ok()
        && issued == r.stats.instrs_executed + r.stats.instrs_reused.total()
}

/// One technique's profile, plus the run's headline stats.
fn profile_record(o: &mut Obj, technique: &Technique, r: &Launched) {
    let prof = r.profile.as_ref().expect("profiling was enabled");
    let s = &r.stats;
    o.field("technique", technique.label()).field("cycles", s.cycles);
    o.field("issue_slots", prof.issue_slots()).field("identity_ok", identity_ok(r));
    o.obj("slots", |o| {
        for (c, n) in prof.slots().iter() {
            o.field(c.label(), n);
        }
    });
    o.field("executed", s.instrs_executed).field("reused", s.instrs_reused.total());
    o.field("skipped", s.instrs_skipped.total());
    // Hot PCs: the top 5 by total slot involvement (issued + skipped +
    // blamed stalls).
    let per_pc = prof.per_pc();
    let mut hot: Vec<(usize, &PcProfile)> = per_pc.iter().map(|(&pc, p)| (pc, p)).collect();
    hot.sort_by_key(|(pc, p)| (std::cmp::Reverse(p.issued + p.skipped + p.stalls.total()), *pc));
    o.arr("hot_pcs", |a| {
        for (pc, p) in hot.iter().take(5) {
            let (top_cause, _) = p
                .stalls
                .iter()
                .filter(|&(c, _)| c != StallCause::Issued)
                .max_by_key(|&(_, n)| n)
                .unwrap_or((StallCause::IdleNoWarp, 0));
            a.obj(|o| {
                o.field("pc", *pc).field("issued", p.issued).field("skipped", p.skipped);
                o.field("stall_slots", p.stalls.total()).field("top_stall", top_cause.label());
            });
        }
    });
    let hist = prof.leader_latency();
    o.obj("leader_latency", |o| {
        o.field("count", hist.count()).field("buckets", hist.buckets());
    });
    let samples = prof.sms.iter().flat_map(|sm| &sm.samples);
    let peak = |f: fn(&gpu_sim::OccupancySample) -> u32| samples.clone().map(f).max().unwrap_or(0);
    o.obj("occupancy", |o| {
        o.field("samples", prof.sms.iter().map(|sm| sm.samples.len() as u64).sum::<u64>());
        o.field("dropped", prof.sms.iter().map(|sm| sm.samples_dropped).sum::<u64>());
        o.field("peak_skip_entries", peak(|s| s.skip_entries));
        o.field("peak_live_versions", peak(|s| s.live_versions));
        o.field("peak_waiting_warps", peak(|s| s.waiting_warps));
    });
    let d = &s.darsie;
    o.obj("darsie", |o| {
        o.field("leaders_elected", d.leaders_elected);
        o.field("instructions_skipped", d.instructions_skipped);
        o.field("leader_giveups", d.leader_giveups);
        o.field("wait_for_leader_cycles", d.wait_for_leader_cycles);
        o.field("branch_sync_cycles", d.branch_sync_cycles);
    });
    o.field("trace_dropped", r.events.dropped).field("trace_capacity", r.events.capacity());
    o.field("digest_root", Hex(s.digest_root));
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

/// `darsie-sim profile`: each of `ws` under Base and DARSIE with
/// cycle-accounted profiling. Every issue slot of every cycle is
/// attributed to exactly one stall cause, and a run that breaks the
/// accounting identity (`Σ causes == cycles × schedulers × issue_width`,
/// and `issued == executed + reused`) fails. The report breaks slots down
/// by cause, lists the hottest PCs, and summarizes leader-election latency
/// and DARSIE structure occupancy. With `perfetto` set, each DARSIE run's
/// pipeline events are written there as a Chrome trace
/// ([`crate::perfetto`]).
pub fn profile(
    ws: &[Workload],
    json: bool,
    perfetto: Option<&str>,
    mf: &mut RunManifest,
) -> Output {
    let cfg = GpuConfig { profile: true, shadow_check: false, ..GpuConfig::test_small() };
    let traced = GpuConfig { trace_events: perfetto.is_some(), ..cfg.clone() };
    let runs = [(cfg, Technique::Base), (traced, Technique::darsie())];
    mf.set_config(&runs[1].0);
    let table = &simulate(ws, &runs, mf);
    let launches = |i: usize| runs.iter().map(move |(c, t)| (t, table.launch(i, c, t)));

    let mut violations = 0usize;
    // Host-side issue work over every run: attempts to issue a warp's
    // I-buffer head, and the attempts among them that stalled.
    let (mut attempts, mut stalled) = (0u64, 0u64);
    let mut traces = Vec::new();
    for (i, w) in ws.iter().enumerate() {
        for (t, r) in launches(i) {
            mf.digest_root(&format!("{}/{}", w.abbr, t.label()), r.stats.digest_root);
            let prof = r.profile.as_ref().expect("profiling was enabled");
            let (a, s) = prof.attempts();
            attempts += a;
            stalled += s;
            violations += usize::from(!identity_ok(r));
        }
        if let Some(base) = perfetto {
            let path = perfetto_path(base, w.abbr, ws.len() == 1);
            let r = table.launch(i, &runs[1].0, &runs[1].1);
            let trace = perfetto::chrome_trace_json(&r.events, r.profile.as_ref(), &mf.phases);
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("cannot write perfetto trace {path}: {e}");
                return Output { out: String::new(), code: 1 };
            }
            traces.push(path);
        }
    }
    let out = if json {
        document("profile", None, |o| {
            per_workload(o, ws, 0.., |o, _, i| {
                o.arr("techniques", |a| {
                    for (t, r) in launches(i) {
                        a.obj(|o| profile_record(o, t, r));
                    }
                });
            });
            o.obj("totals", |o| {
                o.field("workloads", ws.len()).field("identity_violations", violations);
            });
        })
    } else {
        let mut out = String::new();
        for (i, w) in ws.iter().enumerate() {
            for (t, r) in launches(i) {
                let prof = r.profile.as_ref().expect("profiling was enabled");
                let slots = prof.slots();
                let total = slots.total().max(1);
                let _ = writeln!(
                    out,
                    "profile {:8} {:12} {:>9} cycles, {:>11} issue slots{}",
                    w.abbr,
                    t.label(),
                    r.stats.cycles,
                    prof.issue_slots(),
                    if identity_ok(r) { "" } else { "  IDENTITY VIOLATION" }
                );
                for (cause, n) in slots.iter().filter(|&(_, n)| n > 0) {
                    let pct = 100.0 * n as f64 / total as f64;
                    let _ = writeln!(out, "    {:18} {:>11}  ({:5.1}%)", cause.label(), n, pct);
                }
                let hist = prof.leader_latency();
                if hist.count() > 0 {
                    let _ = writeln!(out, "    leader latency     {:>11} samples", hist.count());
                }
            }
            if let Some(path) = traces.get(i) {
                let _ = writeln!(out, "    perfetto trace     {path}");
            }
        }
        let _ =
            writeln!(out, "profiled {} workload(s): {violations} identity violation(s)", ws.len());
        out
    };
    mf.count("workloads", ws.len() as u64);
    mf.count("identity_violations", violations as u64);
    mf.count("issue_attempts", attempts);
    mf.count("stalled_attempts", stalled);
    Output { out, code: i32::from(violations > 0) }
}

/// One Base or DARSIE launch of a workload next to its static cycle
/// estimate.
struct Bracket<'a> {
    technique: &'a Technique,
    run: &'a Launched,
    est: CostEstimate,
}

impl Bracket<'_> {
    fn measured(&self) -> u64 {
        self.run.stats.cycles
    }

    /// The `E202` finding when the measured cycles escape the bracket.
    fn violation(&self) -> Option<Diagnostic> {
        simt_verify::cost::validate(&self.est, self.measured())
    }

    /// The bracket width relative to the measured cycles, when bounded.
    fn width(&self) -> Option<f64> {
        let e = &self.est;
        e.max_cycles.map(|hi| (hi - e.min_cycles) as f64 / self.measured().max(1) as f64)
    }
}

/// Each workload of `ws` under each of `runs`: the launch from `table`
/// and its static cycle estimate, each estimate a manifest phase.
fn brackets<'a>(
    ws: &[Workload],
    runs: &'a [(GpuConfig, Technique)],
    table: &'a JobTable,
    mf: &mut RunManifest,
) -> Vec<Vec<Bracket<'a>>> {
    let mut rows = Vec::with_capacity(ws.len());
    for (i, w) in ws.iter().enumerate() {
        let row = runs.iter().map(|(c, t)| {
            let est = mf.phase(&format!("estimate:{}/{}", w.abbr, t.label()), || {
                simt_verify::cost::estimate(&w.ck, &w.launch, c, t)
            });
            Bracket { technique: t, run: table.launch(i, c, t), est }
        });
        rows.push(row.collect());
    }
    rows
}

/// `darsie-sim estimate`: the differential gate for the static cycle-bound
/// cost model. The WCET-style estimator and the cycle simulator run side
/// by side on each of `ws` under Base and DARSIE; a measured cycle count
/// outside its static `[min, max]` bracket (`E202`) fails. Unboundable
/// loop trip counts (`E201`) leave the upper bound open and are warnings.
pub fn estimate(ws: &[Workload], json: bool, mf: &mut RunManifest) -> Output {
    let cfg = GpuConfig::test_small();
    mf.set_config(&cfg);
    let runs = base_and_darsie(&cfg);
    let table = simulate(ws, &runs, mf);
    let rows = brackets(ws, &runs, &table, mf);
    let all = || rows.iter().flatten();
    let violations = all().filter(|b| b.violation().is_some()).count();
    let unbounded: usize =
        all().map(|b| b.est.loops.iter().filter(|l| l.trips.is_err()).count()).sum();
    let widths: Vec<f64> = all().filter_map(Bracket::width).collect();
    let mean_width =
        if widths.is_empty() { 0.0 } else { widths.iter().sum::<f64>() / widths.len() as f64 };
    let out = if json {
        document("estimate", Some(&cfg), |o| {
            per_workload(o, ws, &rows, |o, _, row| {
                o.arr("techniques", |a| {
                    for b in row {
                        a.obj(|o| estimate_record(o, b));
                    }
                });
            });
            o.obj("totals", |o| {
                o.field("bound_violations", violations).field("unbounded_loops", unbounded);
                o.field("mean_bracket_width", Fixed(mean_width, 3));
            });
        })
    } else {
        let mut out = String::new();
        for (w, b) in ws.iter().zip(&rows).flat_map(|(w, row)| row.iter().map(move |b| (w, b))) {
            let (est, measured) = (&b.est, b.measured());
            let bracket = est.max_cycles.map_or_else(
                || format!("[{}, unbounded)", est.min_cycles),
                |hi| format!("[{}, {}]", est.min_cycles, hi),
            );
            let width = b.width().map_or_else(String::new, |x| format!("  width {x:.1}x"));
            let _ = writeln!(
                out,
                "estimate {:8} {:12} {:>8} cycles in {:20}{}  skip {:4.1}%{}",
                w.abbr,
                b.technique.label(),
                measured,
                bracket,
                width,
                100.0 * est.predicted_skip_fraction,
                if est.contains(measured) { "" } else { "  BOUND VIOLATION" }
            );
            if !est.report.items.is_empty() {
                out.push_str(&est.report.render());
            }
            if let Some(v) = b.violation() {
                let _ = writeln!(out, "  {v}");
            }
        }
        let _ = writeln!(
            out,
            "estimated {} workload(s) x 2 technique(s): {violations} bound violation(s), \
             {unbounded} unbounded loop(s), mean bracket width {mean_width:.1}x measured",
            ws.len()
        );
        out
    };
    mf.count("workloads", ws.len() as u64);
    mf.count("bound_violations", violations as u64);
    mf.count("unbounded_loops", unbounded as u64);
    mf.metric("mean_bracket_width", mean_width);
    Output { out, code: i32::from(violations > 0) }
}

fn estimate_record(o: &mut Obj, b: &Bracket) {
    let (est, measured) = (&b.est, b.measured());
    o.field("technique", b.technique.label()).field("min_cycles", est.min_cycles);
    o.field("max_cycles", est.max_cycles).field("measured_cycles", measured);
    o.field("in_bracket", est.contains(measured));
    o.field("predicted_skip_fraction", Fixed(est.predicted_skip_fraction, 4));
    o.arr("loops", |a| {
        for l in &est.loops {
            a.obj(|o| {
                o.field("back_edge_pc", l.back_edge_pc);
                match &l.trips {
                    Ok((lo, hi)) => o.field("min_trips", *lo).field("max_trips", *hi),
                    Err(e) => o.field("unbounded", e),
                };
            });
        }
    });
    let d = &est.breakdown;
    o.obj("breakdown", |o| {
        o.field("fetch_bound", d.fetch_bound).field("issue_bound", d.issue_bound);
        o.field("lsu_bound", d.lsu_bound).field("chain_bound", d.chain_bound);
        o.field("fetch_serial", d.fetch_serial).field("issue_serial", d.issue_serial);
        o.field("lsu_serial", d.lsu_serial).field("sfu_serial", d.sfu_serial);
        o.field("dram_serial", d.dram_serial).field("exposed", d.exposed);
        o.field("darsie_slack", d.darsie_slack).field("tbs_per_sm", d.tbs_per_sm);
        o.field("waves", d.waves);
    });
    diagnostics(o, est.report.items.iter().chain(&b.violation()));
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

/// `darsie-sim bench`: one point on the benchmark trajectory. Per workload
/// of `ws` and technique: simulated cycles, wall time, simulated cycles
/// per second, skip counts, the static cycle bracket and the digest root
/// (so behavioral drift under an unchanged speedup shows between
/// snapshots), plus the DARSIE-over-Base speedup. The `--json` snapshot is
/// also written to `BENCH_<date>.json` in the working directory, for CI
/// to archive.
pub fn bench(ws: &[Workload], json: bool, scale: Scale, mf: &mut RunManifest) -> Output {
    let cfg = GpuConfig::test_small();
    mf.set_config(&cfg);
    let runs = base_and_darsie(&cfg);
    let table = simulate(ws, &runs, mf);
    let rows = brackets(ws, &runs, &table, mf);
    for (w, b) in ws.iter().zip(&rows).flat_map(|(w, row)| row.iter().map(move |b| (w, b))) {
        let label = format!("{}/{}", w.abbr, b.technique.label());
        mf.digest_root(&label, b.run.stats.digest_root);
    }
    let speedup = |row: &[Bracket]| row[0].measured() as f64 / row[1].measured().max(1) as f64;
    let rate = |r: &Launched| r.stats.cycles as f64 / r.wall_seconds.max(1e-9);
    mf.count("workloads", ws.len() as u64);
    if !json {
        let mut out = String::new();
        for (w, row) in ws.iter().zip(&rows) {
            for Bracket { technique: t, run: r, est } in row {
                let _ = writeln!(
                    out,
                    "bench {:8} {:12} {:>8} cycles  {:>8.3}s wall  {:>10.0} cyc/s  \
                     bracket [{}, {}]  digest {:#018x}",
                    w.abbr,
                    t.label(),
                    r.stats.cycles,
                    r.wall_seconds,
                    rate(r),
                    est.min_cycles,
                    est.max_cycles.map_or_else(|| "?".to_string(), |h| h.to_string()),
                    r.stats.digest_root,
                );
            }
            let _ = writeln!(
                out,
                "bench {:8} {:12} speedup {:.2}x",
                w.abbr,
                "darsie/base",
                speedup(row)
            );
        }
        let _ = writeln!(out, "benchmarked {} workload(s)", ws.len());
        return Output { out, code: 0 };
    }
    let date = utc_date();
    let doc = document("bench", Some(&cfg), |o| {
        o.field("date", &date)
            .field("scale", if matches!(scale, Scale::Test) { "test" } else { "eval" });
        per_workload(o, ws, &rows, |o, _, row| {
            o.arr("techniques", |a| {
                for Bracket { technique: t, run: r, est } in row {
                    let s = &r.stats;
                    a.obj(|o| {
                        o.field("technique", t.label()).field("cycles", s.cycles);
                        o.field("wall_seconds", Fixed(r.wall_seconds, 6));
                        o.field("sim_cycles_per_sec", Fixed(rate(r), 0));
                        o.field("instructions_skipped", s.instrs_skipped.total());
                        o.field("instructions_executed", s.instrs_executed);
                        o.field("static_min_cycles", est.min_cycles);
                        o.field("static_max_cycles", est.max_cycles);
                        o.field("digest_root", Hex(s.digest_root));
                    });
                }
            });
            o.field("darsie_speedup", Fixed(speedup(row), 4));
        });
    });
    let path = format!("BENCH_{date}.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("cannot write benchmark snapshot {path}: {e}");
        return Output { out: String::new(), code: 1 };
    }
    eprintln!("benchmark snapshot written to {path}");
    Output { out: doc, code: 0 }
}

/// A [`gpu_sim::Divergence`]: where a replay pair first disagreed.
fn divergence(o: &mut Obj, d: &gpu_sim::Divergence) {
    o.field("chain", &d.chain).field("sm", d.sm).field("epoch", d.epoch);
    o.field("cycle", d.cycle).field("component", &d.component).field("warp", d.warp);
    o.arr("subs", |a| {
        for (label, x, y) in &d.subs {
            a.obj(|o| {
                o.field("component", label).field("a", Hex(*x)).field("b", Hex(*y));
            });
        }
    });
}

/// `darsie-sim replay-diff`: the first-divergence bisector of the
/// determinism observatory ([`crate::replay`]). Each of `ws` runs under
/// spec `a` and again under `against` (or `a`), with a one-word
/// global-memory flip at `perturb_cycle` in run B when given; the pairs run
/// on every core and their epoch-chained state digests are compared. Only
/// the plain self-comparison is a determinism gate (any divergence fails):
/// a second spec or a perturbation makes the pair a divergence hunt, which
/// names the first divergent chain, cycle, component and warp.
pub fn replay_diff(
    ws: &[Workload],
    json: bool,
    a: &RunSpec,
    against: Option<&RunSpec>,
    perturb_cycle: Option<u64>,
    mf: &mut RunManifest,
) -> Output {
    let self_compare = against.is_none() && perturb_cycle.is_none();
    let b = against.unwrap_or(a);
    let perturb =
        perturb_cycle.map(|cycle| Perturb::GlobalWord { cycle, addr: 0x1000, xor: 0x5555_5555 });
    mf.set_config(&a.gpu_config(DigestConfig::default(), None));
    let reports: Vec<ReplayReport> =
        mf.phase("replay", || parallel_map(ws, all_cores(), |w| replay_pair(w, a, b, perturb)));
    for (w, r) in ws.iter().zip(&reports) {
        mf.digest_root(&format!("{}/A", w.abbr), r.root_a);
        mf.digest_root(&format!("{}/B", w.abbr), r.root_b);
    }
    let divergent = reports.iter().filter(|r| !r.identical).count();
    let out = if json {
        document("replay-diff", None, |o| {
            o.field("self_compare", self_compare);
            per_workload(o, ws, &reports, |o, _, r| {
                o.field("identical", r.identical);
                o.field("root_a", Hex(r.root_a)).field("root_b", Hex(r.root_b));
                o.field("cycles_a", r.cycles_a).field("cycles_b", r.cycles_b);
                o.field("epochs", r.epochs);
                o.opt_obj("divergence", r.divergence.as_ref(), divergence);
            });
            o.obj("totals", |o| {
                o.field("workloads", ws.len()).field("divergent", divergent);
            });
        })
    } else {
        let mut out = String::new();
        for (w, r) in ws.iter().zip(&reports) {
            replay_text(&mut out, w.abbr, r);
        }
        let _ = writeln!(
            out,
            "replayed {} workload(s): {divergent} divergent{}",
            ws.len(),
            if self_compare {
                " (self-comparison: any divergence is a determinism bug)"
            } else {
                ""
            }
        );
        out
    };
    mf.count("workloads", ws.len() as u64);
    mf.count("divergent", divergent as u64);
    Output { out, code: i32::from(self_compare && divergent > 0) }
}

fn replay_text(out: &mut String, abbr: &str, r: &ReplayReport) {
    if r.identical {
        let _ = writeln!(
            out,
            "replay {:8} identical  root {:#018x}  {} cycles, {} epochs",
            abbr, r.root_a, r.cycles_a, r.epochs
        );
        return;
    }
    let _ = writeln!(
        out,
        "replay {:8} DIVERGED   roots {:#018x} vs {:#018x}  cycles {} vs {}",
        abbr, r.root_a, r.root_b, r.cycles_a, r.cycles_b
    );
    if let Some(d) = &r.divergence {
        let _ = writeln!(
            out,
            "    first divergence: chain {} epoch {} cycle {}  component {}{}",
            d.chain,
            d.epoch,
            d.cycle,
            d.component,
            d.warp.map_or_else(String::new, |w| format!("  warp {w}")),
        );
        for (label, a, b) in &d.subs {
            let _ = writeln!(out, "      {label:12} {a:#018x} vs {b:#018x}");
        }
    }
}

/// The bare `darsie-sim <ABBR>` mode: `w` under `technique` on `cfg`, with
/// full statistics and the energy breakdown. With `validate` the final
/// memory is checked against the CPU reference; `trace` prints the first
/// that many pipeline events.
pub fn run(
    w: &Workload,
    cfg: &GpuConfig,
    technique: &Technique,
    validate: bool,
    trace: usize,
    mf: &mut RunManifest,
) -> Output {
    mf.set_config(cfg);
    let start = std::time::Instant::now();
    let mut r = mf.phase(&format!("run:{}", w.abbr), || {
        if validate {
            w.run(cfg, technique.clone())
        } else {
            w.run_unchecked(cfg, technique.clone())
        }
    });
    let wall = start.elapsed();
    mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
    let s = &r.stats;
    let mut out = String::new();
    let o = &mut out;
    let (sms, scheduler) = (cfg.num_sms, cfg.scheduler);
    let _ = writeln!(o, "{} under {} ({} SMs, {:?}):", w.name, technique.label(), sms, scheduler);
    let _ = writeln!(o, "  cycles               {:>12}", r.cycles);
    let _ = writeln!(o, "  instructions fetched {:>12}", s.instrs_fetched);
    let _ = writeln!(o, "  instructions executed{:>12}", s.instrs_executed);
    let _ = writeln!(
        o,
        "  eliminated           {:>12}  (U {} / A {} / X {})",
        s.instrs_skipped.total() + s.instrs_reused.total(),
        s.instrs_skipped.uniform + s.instrs_reused.uniform,
        s.instrs_skipped.affine + s.instrs_reused.affine,
        s.instrs_skipped.unstructured + s.instrs_reused.unstructured,
    );
    let _ = writeln!(
        o,
        "  i-cache accesses     {:>12}  ({} misses)",
        s.icache_accesses, s.icache_misses
    );
    let _ = writeln!(o, "  RF reads / writes    {:>12} / {}", s.rf_reads, s.rf_writes);
    let _ = writeln!(o, "  ALU / SFU ops        {:>12} / {}", s.alu_ops, s.sfu_ops);
    let _ = writeln!(
        o,
        "  global transactions  {:>12}  (L1 {}/{}, L2 {}/{})",
        s.global_transactions,
        s.l1_hits,
        s.l1_hits + s.l1_misses,
        s.l2_hits,
        s.l2_hits + s.l2_misses
    );
    let _ = writeln!(
        o,
        "  shared ops           {:>12}  ({} bank conflicts)",
        s.smem_ops, s.smem_bank_conflicts
    );
    let _ = writeln!(o, "  barrier waits        {:>12}", s.barrier_waits);
    let d = &s.darsie;
    if d.skip_table_probes > 0 {
        let _ = writeln!(o, "  -- DARSIE --");
        let _ = writeln!(o, "  skip-table probes    {:>12}", d.skip_table_probes);
        let _ = writeln!(
            o,
            "  leaders / skips      {:>12} / {}",
            d.leaders_elected, d.instructions_skipped
        );
        let _ = writeln!(o, "  load invalidations   {:>12}", d.load_invalidations);
        let _ = writeln!(o, "  wait-for-leader cyc  {:>12}", d.wait_for_leader_cycles);
        let _ = writeln!(o, "  branch-sync cyc      {:>12}", d.branch_sync_cycles);
        let _ = writeln!(o, "  freelist stalls      {:>12}", d.freelist_stalls);
        let _ = writeln!(o, "  leader give-ups      {:>12}", d.leader_giveups);
    }
    let e = EnergyModel::with_sms(sms).evaluate(s);
    let _ = writeln!(
        o,
        "  energy (pJ)          {:>12.0}  (dynamic {:.0}, darsie overhead {:.0})",
        e.total(),
        e.dynamic(),
        e.darsie_overhead
    );
    let _ = writeln!(o, "  state digest root    {:>#18x}", s.digest_root);
    let _ = writeln!(o, "  wall time            {wall:>12.2?}");
    if trace > 0 {
        let _ = writeln!(o, "  -- first {} pipeline events --", trace.min(r.events.len()));
        for e in r.events.events().iter().take(trace) {
            let _ = writeln!(o, "  {e}");
        }
        if r.events.dropped > 0 {
            let _ = writeln!(o, "  ... ({} further events dropped)", r.events.dropped);
        }
    }
    if validate {
        let _ = writeln!(o, "  validation           OK (matches CPU reference)");
    }
    Output { out, code: 0 }
}
