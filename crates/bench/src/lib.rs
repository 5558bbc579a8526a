//! Shared experiment engine for the figure/table harness.
//!
//! Every paper artifact is regenerated from one job table. [`Plan`] lists
//! the distinct jobs the requested artifacts need (a limit-study trace, or
//! a cycle-level launch of a Table-1 workload under one `GpuConfig` and
//! `Technique`), each once however many figures read it. [`Plan::run`]
//! runs them on a dynamically claimed thread pool, validating every
//! result against the CPU reference, and the figures, tables and the
//! ablation study render from lookups into the resulting [`JobTable`].
//! The `figures` binary prints every renderer here; host-time measurement
//! lives in `perfbench/`.

pub mod manifest;
pub mod replay;

use darsie::DarsieConfig;
use gpu_energy::EnergyModel;
use gpu_sim::{trace_redundancy, GpuConfig, SchedulerPolicy, SimStats, Technique};
use simt_verify::parallel_map;
use workloads::Workload;

/// The evaluation machine: the Table-2 Pascal SM configuration with a
/// reduced SM count so the scaled-down workloads still fill the GPU (the
/// paper's absolute sizes would leave 28 SMs mostly idle and flatten every
/// technique to launch latency).
#[must_use]
pub fn eval_gpu(num_sms: usize) -> GpuConfig {
    GpuConfig { num_sms, shadow_check: false, ..GpuConfig::pascal_gtx1080ti() }
}

/// Geometric mean.
#[must_use]
pub fn gmean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        log_sum += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The Figure-8 technique set.
#[must_use]
pub fn fig8_techniques() -> Vec<Technique> {
    vec![
        Technique::Base,
        Technique::Uv,
        Technique::DacIdeal,
        Technique::darsie(),
        Technique::Darsie(DarsieConfig::ignore_store()),
    ]
}

/// The Figure-12 technique set.
#[must_use]
pub fn fig12_techniques() -> Vec<Technique> {
    vec![
        Technique::Base,
        Technique::darsie(),
        Technique::Darsie(DarsieConfig::no_cf_sync()),
        Technique::SiliconSync,
    ]
}

/// The artifacts `figures all` expands to, in print order. The ablation
/// study is not among them: it is a design-choice sweep, not a paper figure.
pub const ALL_ARTIFACTS: [&str; 13] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig6", "fig8", "fig9", "fig10", "fig11",
    "fig12", "area",
];

/// The design-choice ablations of DESIGN.md as `(label, config, technique)`
/// variants of `cfg`: register versioning vs write-synchronization,
/// skip-table entries, coalescer ports, rename registers and warp-scheduler
/// policy.
#[must_use]
pub fn ablation_variants(cfg: &GpuConfig) -> Vec<(String, GpuConfig, Technique)> {
    let mut v = vec![
        ("versioning (default)".to_string(), cfg.clone(), Technique::darsie()),
        (
            "no-versioning".to_string(),
            cfg.clone(),
            Technique::Darsie(DarsieConfig::no_versioning()),
        ),
    ];
    for entries in [1usize, 2, 4, 8, 16] {
        let d = DarsieConfig { skip_entries_per_tb: entries, ..DarsieConfig::default() };
        v.push((format!("skip_entries={entries}"), cfg.clone(), Technique::Darsie(d)));
    }
    for ports in [1usize, 2, 4] {
        let d = DarsieConfig { skip_table_ports: ports, ..DarsieConfig::default() };
        v.push((format!("skip_ports={ports}"), cfg.clone(), Technique::Darsie(d)));
    }
    for regs in [8usize, 16, 32] {
        let d = DarsieConfig { rename_regs_per_tb: regs, ..DarsieConfig::default() };
        v.push((format!("rename_regs={regs}"), cfg.clone(), Technique::Darsie(d)));
    }
    let lrr = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..cfg.clone() };
    v.push(("scheduler=GTO".to_string(), cfg.clone(), Technique::darsie()));
    v.push(("scheduler=LRR".to_string(), lrr, Technique::darsie()));
    v
}

/// One unit of work of the job table; the workload is a catalog index.
// A table holds at most a few hundred jobs, so variant size is immaterial.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// The functional limit-study trace behind Figures 1 and 2.
    Trace(usize),
    /// A cycle-level launch under one machine configuration and technique.
    Launch(usize, GpuConfig, Technique),
}

/// What a [`Job`] produced. A launch keeps only its statistics; its final
/// memory is dropped once validated.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    Trace(LimitRow),
    Launch(SimStats),
}

/// The distinct jobs a set of artifacts needs. Two jobs are the same when
/// their workload, `GpuConfig` and `Technique` compare equal, so a launch
/// that several figures read (BASE and DARSIE in Figures 8 and 12, BASE in
/// every ablation row) is planned once.
#[derive(Debug, Default)]
pub struct Plan {
    jobs: Vec<Job>,
}

impl Plan {
    /// Plans the jobs of `artifacts` (as `figures` names them, with `all`
    /// already expanded) over the catalog `workloads` on `cfg`. Artifacts
    /// that simulate nothing plan no job.
    #[must_use]
    pub fn for_artifacts(artifacts: &[&str], workloads: &[Workload], cfg: &GpuConfig) -> Plan {
        let mut plan = Plan::default();
        for &artifact in artifacts {
            match artifact {
                "fig1" | "fig2" => (0..workloads.len()).for_each(|w| plan.add(Job::Trace(w))),
                "fig8" | "fig9" | "fig10" | "fig11" => {
                    plan.sweep(workloads.len(), cfg, &fig8_techniques());
                }
                "fig12" => plan.sweep(workloads.len(), cfg, &fig12_techniques()),
                "ablations" => {
                    for w in two_d(workloads) {
                        for (_, cfg, tech) in ablation_variants(cfg) {
                            plan.add(Job::Launch(w, cfg.clone(), Technique::Base));
                            plan.add(Job::Launch(w, cfg, tech));
                        }
                    }
                }
                _ => {}
            }
        }
        plan
    }

    /// Adds `job` unless an equal job is already planned.
    pub fn add(&mut self, job: Job) {
        if !self.jobs.contains(&job) {
            self.jobs.push(job);
        }
    }

    /// Adds the launch of each of the first `workloads` catalog entries
    /// under each of `techniques` on `cfg`.
    pub fn sweep(&mut self, workloads: usize, cfg: &GpuConfig, techniques: &[Technique]) {
        for w in 0..workloads {
            for t in techniques {
                self.add(Job::Launch(w, cfg.clone(), t.clone()));
            }
        }
    }

    /// The planned jobs, each distinct.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The number of planned cycle-level launches.
    #[must_use]
    pub fn launches(&self) -> usize {
        self.jobs.iter().filter(|j| matches!(j, Job::Launch(..))).count()
    }

    /// Runs every planned job once over `workloads` on `threads` workers
    /// (see [`parallel_map`]). Each launch is validated against the CPU
    /// reference, and a failed validation panics. The table is the same
    /// whatever the thread count: the simulator is deterministic.
    #[must_use]
    pub fn run(self, workloads: &[Workload], threads: usize) -> JobTable {
        let outcomes = parallel_map(&self.jobs, threads, |job| match job {
            Job::Trace(w) => Outcome::Trace(limit_row(&workloads[*w])),
            Job::Launch(w, cfg, t) => Outcome::Launch(workloads[*w].run(cfg, t.clone()).stats),
        });
        JobTable { done: self.jobs.into_iter().zip(outcomes).collect() }
    }
}

/// The results of a [`Plan`], looked up by job.
pub struct JobTable {
    done: Vec<(Job, Outcome)>,
}

impl JobTable {
    fn find(&self, is: impl Fn(&Job) -> bool) -> Option<&Outcome> {
        self.done.iter().find(|(j, _)| is(j)).map(|(_, o)| o)
    }

    /// The statistics of the launch of catalog entry `workload` under
    /// `technique` on `cfg`. Panics when that launch was not planned.
    #[must_use]
    pub fn stats(&self, workload: usize, cfg: &GpuConfig, technique: &Technique) -> &SimStats {
        match self.find(
            |j| matches!(j, Job::Launch(w, c, t) if *w == workload && c == cfg && t == technique),
        ) {
            Some(Outcome::Launch(stats)) => stats,
            _ => panic!("workload {workload} under {} was not planned", technique.label()),
        }
    }

    /// The limit-study row of every catalog entry, in catalog order.
    /// Panics when the traces were not planned.
    #[must_use]
    pub fn limit_study(&self, workloads: &[Workload]) -> Vec<LimitRow> {
        (0..workloads.len())
            .map(|w| match self.find(|j| *j == Job::Trace(w)) {
                Some(Outcome::Trace(row)) => row.clone(),
                _ => panic!("the trace of {} was not planned", workloads[w].abbr),
            })
            .collect()
    }

    /// One figure sweep: `techniques` over the whole catalog on `cfg`.
    #[must_use]
    pub fn report(
        &self,
        workloads: &[Workload],
        cfg: &GpuConfig,
        techniques: &[Technique],
    ) -> Report {
        let rows = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| WorkloadRow {
                abbr: w.abbr,
                is_2d: w.is_2d,
                per_tech: techniques
                    .iter()
                    .map(|t| (t.label(), self.stats(i, cfg, t).clone()))
                    .collect(),
            })
            .collect();
        Report { rows, num_sms: cfg.num_sms }
    }

    /// Renders the ablation study: the gmean speedup over BASE of every
    /// [`ablation_variants`] row on the 2D workloads.
    #[must_use]
    pub fn render_ablations(&self, workloads: &[Workload], cfg: &GpuConfig) -> String {
        let mut out =
            String::from("Ablations: design-choice sweeps (gmean-2D speedup over BASE)\n");
        for (label, cfg, tech) in ablation_variants(cfg) {
            let speedup = gmean(two_d(workloads).map(|w| {
                let base = self.stats(w, &cfg, &Technique::Base).cycles as f64;
                let t = self.stats(w, &cfg, &tech).cycles as f64;
                base / t.max(1.0)
            }));
            out.push_str(&format!("ablation {label:28} gmean-2D speedup {speedup:.3}\n"));
        }
        out
    }
}

/// Catalog indices of the 2D-TB workloads.
fn two_d(workloads: &[Workload]) -> impl Iterator<Item = usize> + '_ {
    workloads.iter().enumerate().filter(|(_, w)| w.is_2d).map(|(i, _)| i)
}

/// Results of one workload under several techniques.
pub struct WorkloadRow {
    /// Figure abbreviation.
    pub abbr: &'static str,
    /// 2D-TB benchmark?
    pub is_2d: bool,
    /// `(technique label, stats)` in run order.
    pub per_tech: Vec<(&'static str, SimStats)>,
}

impl WorkloadRow {
    /// Stats for a given technique label.
    #[must_use]
    pub fn stats(&self, label: &str) -> Option<&SimStats> {
        self.per_tech.iter().find(|(l, _)| *l == label).map(|(_, s)| s)
    }

    /// Speedup of `label` over BASE (cycles ratio).
    #[must_use]
    pub fn speedup(&self, label: &str) -> f64 {
        let base = self.stats("BASE").expect("BASE was run").cycles as f64;
        let t = self.stats(label).expect("technique was run").cycles as f64;
        base / t.max(1.0)
    }

    /// Fraction (0..1) of baseline instruction work eliminated by `label`
    /// (skips before fetch plus issue-stage reuse), and its taxonomy split.
    #[must_use]
    pub fn insn_reduction(&self, label: &str) -> (f64, [f64; 3]) {
        let s = self.stats(label).expect("technique was run");
        let removed_counts = [
            s.instrs_skipped.uniform + s.instrs_reused.uniform,
            s.instrs_skipped.affine + s.instrs_reused.affine,
            s.instrs_skipped.unstructured + s.instrs_reused.unstructured,
        ];
        let removed: u64 = s.instrs_skipped.total() + s.instrs_reused.total();
        let total = s.instrs_executed + removed;
        if total == 0 {
            return (0.0, [0.0; 3]);
        }
        let f = removed as f64 / total as f64;
        let split = removed_counts.map(|c| c as f64 / total as f64);
        (f, split)
    }
}

/// All rows of one experiment sweep.
pub struct Report {
    /// One row per workload, in Table-1 order.
    pub rows: Vec<WorkloadRow>,
    /// SM count used (for the energy model).
    pub num_sms: usize,
}

impl Report {
    /// Geometric-mean speedup of `label` over the 1D or 2D subset.
    #[must_use]
    pub fn gmean_speedup(&self, label: &str, two_d: bool) -> f64 {
        gmean(self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| r.speedup(label)))
    }

    /// Renders the Figure-8 speedup table.
    #[must_use]
    pub fn render_fig8(&self) -> String {
        self.render_speedups("Figure 8: speedup over BASE")
    }

    /// Renders a speedup table under an arbitrary title (Figures 8 and 12
    /// share the format).
    #[must_use]
    pub fn render_speedups(&self, title: &str) -> String {
        let labels: Vec<&str> = self.rows[0].per_tech.iter().map(|(l, _)| *l).collect();
        let mut out = format!("{title}\n");
        out.push_str(&format!("{:10}", "bench"));
        for l in &labels {
            out.push_str(&format!(" {l:>20}"));
        }
        out.push('\n');
        let dump_subset = |out: &mut String, two_d: bool, tag: &str| {
            for r in self.rows.iter().filter(|r| r.is_2d == two_d) {
                out.push_str(&format!("{:10}", r.abbr));
                for l in &labels {
                    out.push_str(&format!(" {:>20.3}", r.speedup(l)));
                }
                out.push('\n');
            }
            out.push_str(&format!("{tag:10}"));
            for l in &labels {
                out.push_str(&format!(" {:>20.3}", self.gmean_speedup(l, two_d)));
            }
            out.push('\n');
        };
        dump_subset(&mut out, false, "GMEAN-1D");
        dump_subset(&mut out, true, "GMEAN-2D");
        out
    }

    /// Renders Figures 9/10 (instruction reduction by taxonomy class) for
    /// the 1D (`two_d = false`) or 2D subset.
    #[must_use]
    pub fn render_insn_reduction(&self, two_d: bool) -> String {
        let fig = if two_d { "Figure 10" } else { "Figure 9" };
        let labels: Vec<&str> =
            self.rows[0].per_tech.iter().map(|(l, _)| *l).filter(|l| *l != "BASE").collect();
        let mut out =
            format!("{fig}: % of warp instructions eliminated (uniform/affine/unstructured)\n");
        for r in self.rows.iter().filter(|r| r.is_2d == two_d) {
            for l in &labels {
                let (f, split) = r.insn_reduction(l);
                out.push_str(&format!(
                    "{:8} {:>20}  total {:5.1}%  = U {:4.1}% + A {:4.1}% + X {:4.1}%\n",
                    r.abbr,
                    l,
                    f * 100.0,
                    split[0] * 100.0,
                    split[1] * 100.0,
                    split[2] * 100.0
                ));
            }
        }
        for l in &labels {
            let g = gmean(
                self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| 1.0 - r.insn_reduction(l).0),
            );
            out.push_str(&format!("GMEAN    {:>20}  total {:5.1}%\n", l, (1.0 - g) * 100.0));
        }
        out
    }

    /// Renders the Figure-11 energy-reduction table.
    #[must_use]
    pub fn render_fig11(&self) -> String {
        let model = EnergyModel::with_sms(self.num_sms);
        let labels: Vec<&str> =
            self.rows[0].per_tech.iter().map(|(l, _)| *l).filter(|l| *l != "BASE").collect();
        let mut out = String::from("Figure 11: % energy reduction vs BASE\n");
        out.push_str(&format!("{:10}", "bench"));
        for l in &labels {
            out.push_str(&format!(" {l:>20}"));
        }
        out.push('\n');
        for r in &self.rows {
            let base = r.stats("BASE").expect("BASE");
            out.push_str(&format!("{:10}", r.abbr));
            for l in &labels {
                let red = model.reduction_percent(base, r.stats(l).expect("tech"));
                out.push_str(&format!(" {red:>19.1}%"));
            }
            out.push('\n');
        }
        for (tag, two_d) in [("GMEAN-1D", false), ("GMEAN-2D", true)] {
            out.push_str(&format!("{tag:10}"));
            for l in &labels {
                let g = gmean(self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| {
                    let base = r.stats("BASE").expect("BASE");
                    let frac =
                        1.0 - model.reduction_percent(base, r.stats(l).expect("tech")) / 100.0;
                    frac
                }));
                out.push_str(&format!(" {:>19.1}%", (1.0 - g) * 100.0));
            }
            out.push('\n');
        }
        out
    }
}

/// The Figure-1 / Figure-2 limit study for one workload.
#[derive(Debug, Clone)]
pub struct LimitRow {
    /// Abbreviation.
    pub abbr: &'static str,
    /// 2D?
    pub is_2d: bool,
    /// Fractions: grid-, TB-, warp-level redundancy.
    pub levels: [f64; 3],
    /// Taxonomy fractions: uniform, affine, unstructured, non-redundant.
    pub taxonomy: [f64; 4],
}

/// Runs the limit study (functional oracle) on one workload, checking the
/// traced memory against the CPU reference.
fn limit_row(w: &Workload) -> LimitRow {
    let (t, mem) = trace_redundancy(&w.ck, &w.launch, w.memory.clone());
    (w.check)(&mem).expect("functional trace must validate");
    LimitRow {
        abbr: w.abbr,
        is_2d: w.is_2d,
        levels: [t.frac(t.grid_redundant), t.frac(t.tb_redundant), t.frac(t.warp_redundant)],
        taxonomy: t.taxonomy_fractions(),
    }
}

/// Renders Figure 1 (average redundancy per thread-grouping level).
#[must_use]
pub fn render_fig1(rows: &[LimitRow]) -> String {
    let n = rows.len() as f64;
    let avg = |i: usize| rows.iter().map(|r| r.levels[i]).sum::<f64>() / n * 100.0;
    let mut out =
        String::from("Figure 1: redundant instructions per thread-grouping level (average)\n");
    out.push_str(&format!("Grid-wide redundant insn: {:5.1}%\n", avg(0)));
    out.push_str(&format!("TB-wide redundant insn:   {:5.1}%\n", avg(1)));
    out.push_str(&format!("Warp-wide redundant insn: {:5.1}%\n", avg(2)));
    out
}

/// Renders Figure 2 (per-benchmark taxonomy breakdown).
#[must_use]
pub fn render_fig2(rows: &[LimitRow]) -> String {
    let mut out = String::from(
        "Figure 2: TB-redundant instruction taxonomy (uniform/affine/unstructured/non-red)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:8} [{}]  U {:5.1}%  A {:5.1}%  X {:5.1}%  non-red {:5.1}%\n",
            r.abbr,
            if r.is_2d { "2D" } else { "1D" },
            r.taxonomy[0] * 100.0,
            r.taxonomy[1] * 100.0,
            r.taxonomy[2] * 100.0,
            r.taxonomy[3] * 100.0
        ));
    }
    out
}

/// Renders Table 1 (the application catalog).
#[must_use]
pub fn render_table1(workloads: &[Workload]) -> String {
    let mut out = String::from("Table 1: applications studied\n");
    for w in workloads {
        out.push_str(&format!(
            "{:8} {:24} TB=({},{})  grid=({},{})  [{}]\n",
            w.abbr,
            w.name,
            w.block.x,
            w.block.y,
            w.launch.grid.x,
            w.launch.grid.y,
            if w.is_2d { "2D" } else { "1D" }
        ));
    }
    out
}

/// Renders Table 2 (the baseline GPU configuration).
#[must_use]
pub fn render_table2(cfg: &GpuConfig) -> String {
    format!(
        "Table 2: baseline GPU\n\
         GPU:        Pascal-class, {} SMs, {} warps/SM, {} thread blocks/SM\n\
         SM:         {} SIMD width, {} vector registers per SM\n\
         Scheduler:  {} warp schedulers/SM, {:?} scheduling\n\
         L1/shared:  {} KB shared memory/SM\n\
         Register:   14.2 pJ/read, 25.9 pJ/write\n",
        cfg.num_sms,
        cfg.max_warps_per_sm,
        cfg.max_tbs_per_sm,
        cfg.warp_size,
        cfg.vector_regs_per_sm,
        cfg.schedulers_per_sm,
        cfg.scheduler,
        cfg.shared_mem_per_sm / 1024,
    )
}

/// Renders Table 3 (qualitative technique comparison).
#[must_use]
pub fn render_table3() -> String {
    String::from(
        "Table 3: comparison to related work\n\
         technique   uniform  affine  unstructured  min-pipeline-mods\n\
         UV          yes      no      no            yes\n\
         DAC         yes      yes     no            no\n\
         DARSIE      yes      yes     yes           yes\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{catalog, Scale};

    #[test]
    fn gmean_basics() {
        assert!((gmean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(gmean(std::iter::empty()), 1.0);
    }

    /// The BASE and DARSIE sweep of the test catalog on `test_small`,
    /// run on `threads` workers.
    fn base_darsie(ws: &[Workload], threads: usize) -> Report {
        let cfg = GpuConfig { shadow_check: false, ..GpuConfig::test_small() };
        let techniques = [Technique::Base, Technique::darsie()];
        let mut plan = Plan::default();
        plan.sweep(ws.len(), &cfg, &techniques);
        assert_eq!(plan.launches(), 26);
        plan.run(ws, threads).report(ws, &cfg, &techniques)
    }

    #[test]
    fn sweep_is_thread_count_invariant_and_renders() {
        let ws = catalog(Scale::Test);
        let serial = base_darsie(&ws, 1);
        let report = base_darsie(&ws, 3);
        assert_eq!(report.rows.len(), 13);
        for (a, b) in serial.rows.iter().zip(&report.rows) {
            assert_eq!(a.abbr, b.abbr);
            for ((la, sa), (lb, sb)) in a.per_tech.iter().zip(&b.per_tech) {
                assert_eq!(la, lb);
                assert_eq!(sa.digest_root, sb.digest_root, "{} {la}", a.abbr);
                assert_eq!(sa, sb, "{} {la}: stats differ across thread counts", a.abbr);
            }
        }
        let fig8 = report.render_fig8();
        assert!(fig8.contains("GMEAN-2D"), "{fig8}");
        assert!(fig8.contains("MM"));
        assert_eq!(fig8, serial.render_fig8());
        let fig10 = report.render_insn_reduction(true);
        assert!(fig10.contains("DARSIE"));
        let fig11 = report.render_fig11();
        assert!(fig11.contains('%'));
        // DARSIE must eliminate instructions on the 2D subset.
        let g: f64 =
            report.rows.iter().filter(|r| r.is_2d).map(|r| r.insn_reduction("DARSIE").0).sum();
        assert!(g > 0.0, "no 2D skipping at all");
    }

    #[test]
    fn plan_lists_each_distinct_job_once() {
        for scale in [Scale::Test, Scale::Eval] {
            let ws = catalog(scale);
            let all = Plan::for_artifacts(&ALL_ARTIFACTS, &ws, &eval_gpu(4));
            // 7 techniques x 13 workloads: Figure 12's BASE and DARSIE are
            // Figure 8's, and `fig9`..`fig11` add nothing to `fig8`.
            assert_eq!(all.launches(), 91, "{scale:?}");
            assert_eq!(all.jobs().len(), 91 + 13, "{scale:?}: plus one trace per workload");
        }
        let ws = catalog(Scale::Test);
        let cfg = eval_gpu(2);
        let ablations = Plan::for_artifacts(&["ablations"], &ws, &cfg);
        // Per 2D workload: BASE on the GTO and LRR configs plus the 11
        // distinct DARSIE variants (five rows are the paper default).
        assert_eq!(ws.iter().filter(|w| w.is_2d).count(), 8);
        assert_eq!(ablations.launches(), 104);
        assert!(ablations.jobs().iter().all(|j| matches!(j, Job::Launch(w, ..) if ws[*w].is_2d)));

        let fig8 = Plan::for_artifacts(&["fig8"], &ws, &cfg);
        assert_eq!(fig8.launches(), 5 * 13);
        for job in fig8.jobs() {
            let Job::Launch(_, _, t) = job else { panic!("fig8 planned {job:?}") };
            assert!(!matches!(t.label(), "SILICON-SYNC" | "DARSIE-NO-CF-SYNC"), "{job:?}");
        }
        let mut plan = Plan::default();
        plan.add(Job::Trace(1));
        plan.add(Job::Launch(0, cfg.clone(), Technique::darsie()));
        plan.add(Job::Trace(1));
        plan.add(Job::Launch(0, cfg.clone(), Technique::Darsie(DarsieConfig::default())));
        assert_eq!(plan.jobs().len(), 2, "equal jobs are planned once");
        let none =
            Plan::for_artifacts(&["table1", "table2", "table3", "fig3", "fig6", "area"], &ws, &cfg);
        assert!(none.jobs().is_empty());
    }

    #[test]
    fn limit_study_smoke() {
        let ws = catalog(Scale::Test);
        let rows =
            Plan::for_artifacts(&["fig1", "fig2"], &ws, &eval_gpu(4)).run(&ws, 2).limit_study(&ws);
        assert_eq!(rows.len(), 13);
        assert!(rows.iter().zip(&ws).all(|(r, w)| r.abbr == w.abbr), "catalog order");
        let fig1 = render_fig1(&rows);
        assert!(fig1.contains("TB-wide"));
        let fig2 = render_fig2(&rows);
        assert!(fig2.contains("MM"));
        // 2D benchmarks must show affine or unstructured redundancy.
        let mm = rows.iter().find(|r| r.abbr == "MM").expect("MM present");
        assert!(mm.taxonomy[1] + mm.taxonomy[2] > 0.05, "{:?}", mm.taxonomy);
    }

    #[test]
    fn tables_render() {
        assert!(render_table1(&catalog(Scale::Test)).contains("MatrixMul"));
        assert!(render_table2(&eval_gpu(4)).contains("Pascal"));
        assert!(render_table3().contains("DARSIE"));
        assert!(!ALL_ARTIFACTS.contains(&"ablations"), "`all` must not run the ablation sweep");
    }

    #[test]
    fn ablation_variants_pin_the_study() {
        let cfg = eval_gpu(2);
        let variants = ablation_variants(&cfg);
        let labels: Vec<&str> = variants.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "versioning (default)",
                "no-versioning",
                "skip_entries=1",
                "skip_entries=2",
                "skip_entries=4",
                "skip_entries=8",
                "skip_entries=16",
                "skip_ports=1",
                "skip_ports=2",
                "skip_ports=4",
                "rename_regs=8",
                "rename_regs=16",
                "rename_regs=32",
                "scheduler=GTO",
                "scheduler=LRR",
            ]
        );
        let row = |label: &str| {
            variants.iter().find(|(l, _, _)| l == label).expect("variant present").clone()
        };
        for label in [
            "versioning (default)",
            "skip_entries=8",
            "skip_ports=2",
            "rename_regs=32",
            "scheduler=GTO",
        ] {
            let (_, c, t) = row(label);
            assert_eq!(c, cfg, "{label} must run on the unmodified config");
            assert_eq!(t, Technique::darsie(), "{label} must be the paper default");
        }
        let (_, c, t) = row("no-versioning");
        assert_eq!(c, cfg);
        assert_eq!(t, Technique::Darsie(DarsieConfig::no_versioning()));
        let (_, c, t) = row("scheduler=LRR");
        assert_eq!(c.scheduler, SchedulerPolicy::Lrr);
        assert_eq!(t, Technique::darsie());
    }
}
