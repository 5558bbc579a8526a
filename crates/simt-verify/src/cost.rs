//! WCET-style static cycle-bound cost model: sound `[min, max]` cycle
//! brackets and a predicted DARSIE savings fraction per kernel/launch,
//! without running the simulator.
//!
//! The estimator is an abstract interpreter over the kernel CFG that
//! composes machinery other passes already provide:
//!
//! * [`simt_compiler::dom::NaturalLoops`] + [`simt_compiler::trip`] give
//!   per-loop trip brackets (`E201` when a loop is unboundable, which
//!   widens the upper bound to "unbounded");
//! * per-instruction issue/latency/occupancy figures come from
//!   [`gpu_sim::timing`] — the *same* shared table the SM model executes,
//!   pinned by `gpu-sim/tests/timing_parity.rs`, never copied constants;
//! * memory-op cost scales with the `P1xx` bank-conflict/coalescing
//!   degree brackets of [`crate::perf`];
//! * serialized divergent branch legs fall out of the visit model (every
//!   leg counted per iteration), while the affine TB-uniform bit
//!   ([`simt_compiler::affine`]) proves simple diamonds *exclusive*, so
//!   the upper bound takes the per-term maximum of the two legs instead
//!   of their sum;
//! * the DARSIE side subtracts the launch plan's skippable set from the
//!   lower bound (follower skips bypass fetch and issue) and adds a
//!   bounded leader-wait slack (`max_leader_stall`) to the upper bound.
//!
//! ## The bracket
//!
//! The lower bound is the strongest of four structural throughput limits
//! no schedule can beat: fetch bandwidth (`fetch_width x
//! instrs_per_fetch` instructions/cycle SM-wide), issue bandwidth
//! (`schedulers x issue_width`), total LSU occupancy (one shared unit),
//! and the single-warp issue chain. The upper bound is a sum of fully
//! serialized shared resources — every fetch burst, every issue slot as
//! if all warps shared one scheduler, every LSU/SFU busy cycle, DRAM
//! bandwidth service, I-cache cold misses — plus a dependence-exposure
//! term (per-wave solo critical path of one warp under worst-case
//! latencies) and a final drain. Every cycle the simulator spends either
//! serves one of those resources or burns exposed latency, so the sum
//! dominates the schedule; `DESIGN.md` states the model assumptions and
//! the `E202` differential gate (plus a random-kernel proptest) enforces
//! the bracket against measured [`gpu_sim::SimStats::cycles`] on every
//! catalog workload under Base and DARSIE.

use crate::perf::{predict_envelope, MemPredKind};
use crate::{Diagnostic, Diagnostics, LintCode};
use gpu_sim::config::{GpuConfig, Technique};
use gpu_sim::occupancy::occupancy;
use gpu_sim::timing;
use simt_compiler::affine::{fixpoint_with_divergence, GridCtx, PredVal};
use simt_compiler::dom::{Doms, NaturalLoops, PostDoms};
use simt_compiler::trip::{infer_trips, TripCounts};
use simt_compiler::{CompiledKernel, LaunchPlan};
use simt_isa::{LaunchConfig, MemSpace, Op, OpKind};
use std::collections::BTreeMap;

/// One loop's inferred trip bracket, for reports.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Back-edge branch pc (loop identity).
    pub back_edge_pc: usize,
    /// `[min, max]` body executions per entry, or the E201 reason.
    pub trips: Result<(u64, u64), String>,
}

/// Additive/limiting terms of the bracket, for `--json` and debugging.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Lower bound: fetch-bandwidth limit.
    pub fetch_bound: u64,
    /// Lower bound: issue-bandwidth limit.
    pub issue_bound: u64,
    /// Lower bound: total LSU occupancy.
    pub lsu_bound: u64,
    /// Lower bound: single-warp issue/fetch chain.
    pub chain_bound: u64,
    /// Upper bound: serialized fetch bursts (I-cache misses included).
    pub fetch_serial: u64,
    /// Upper bound: serialized issue slots (one-scheduler worst case).
    pub issue_serial: u64,
    /// Upper bound: serialized LSU occupancy.
    pub lsu_serial: u64,
    /// Upper bound: serialized SFU issue intervals.
    pub sfu_serial: u64,
    /// Upper bound: DRAM bandwidth service.
    pub dram_serial: u64,
    /// Upper bound: per-wave dependence exposure.
    pub exposed: u64,
    /// Upper bound: DARSIE leader-wait slack.
    pub darsie_slack: u64,
    /// Threadblocks modeled on the busiest SM.
    pub tbs_per_sm: u64,
    /// Residency waves on the busiest SM.
    pub waves: u64,
}

/// The static estimate for one kernel/launch/technique.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// Technique label the estimate models (`Base` or a DARSIE variant).
    pub technique: String,
    /// Sound lower cycle bound.
    pub min_cycles: u64,
    /// Sound upper cycle bound; `None` when a loop is unboundable (E201).
    pub max_cycles: Option<u64>,
    /// Predicted fraction of baseline instruction work DARSIE skips
    /// (0 for Base). Mirrors [`gpu_sim::SimStats::skip_fraction`].
    pub predicted_skip_fraction: f64,
    /// Per-loop trip brackets.
    pub loops: Vec<LoopReport>,
    /// E201 findings (one per unboundable loop).
    pub report: Diagnostics,
    /// Term-by-term breakdown.
    pub breakdown: Breakdown,
}

impl CostEstimate {
    /// True when `measured` lies inside the bracket.
    #[must_use]
    pub fn contains(&self, measured: u64) -> bool {
        measured >= self.min_cycles && self.max_cycles.is_none_or(|hi| measured <= hi)
    }
}

/// Per-visit cost vector of one block, one warp (upper-bound side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Terms {
    /// Fetch bursts to deliver the block.
    bursts: u64,
    /// Issue slots (= instructions).
    issue: u64,
    /// LSU busy cycles (worst degrees/lines).
    lsu: u64,
    /// SFU issue-interval cycles.
    sfu: u64,
    /// Global memory lines (DRAM service).
    lines: u64,
    /// Solo dependence exposure beyond pure issue.
    exposed: u64,
}

impl Terms {
    fn add(&mut self, o: Terms) {
        self.bursts += o.bursts;
        self.issue += o.issue;
        self.lsu += o.lsu;
        self.sfu += o.sfu;
        self.lines += o.lines;
        self.exposed += o.exposed;
    }

    fn scaled(self, k: u64) -> Terms {
        Terms {
            bursts: self.bursts.saturating_mul(k),
            issue: self.issue.saturating_mul(k),
            lsu: self.lsu.saturating_mul(k),
            sfu: self.sfu.saturating_mul(k),
            lines: self.lines.saturating_mul(k),
            exposed: self.exposed.saturating_mul(k),
        }
    }

    /// Component-wise minimum — the sound exclusive-diamond credit: for
    /// any leg actually taken, each term is bounded by the per-term max
    /// of the two legs, i.e. the sum minus the per-term min.
    fn component_min(a: Terms, b: Terms) -> Terms {
        Terms {
            bursts: a.bursts.min(b.bursts),
            issue: a.issue.min(b.issue),
            lsu: a.lsu.min(b.lsu),
            sfu: a.sfu.min(b.sfu),
            lines: a.lines.min(b.lines),
            exposed: a.exposed.min(b.exposed),
        }
    }

    fn saturating_sub(&mut self, o: Terms) {
        self.bursts = self.bursts.saturating_sub(o.bursts);
        self.issue = self.issue.saturating_sub(o.issue);
        self.lsu = self.lsu.saturating_sub(o.lsu);
        self.sfu = self.sfu.saturating_sub(o.sfu);
        self.lines = self.lines.saturating_sub(o.lines);
        self.exposed = self.exposed.saturating_sub(o.exposed);
    }
}

/// Per-execution LSU occupancy and completion-latency bounds of one
/// static memory instruction.
#[derive(Debug, Clone, Copy)]
struct MemCost {
    occ_min: u64,
    occ_max: u64,
    latency_max: u64,
}

/// Worst-case conflict degree / line count for one warp.
///
/// `shared_words` is the kernel's shared allocation in words: the bank
/// model counts *distinct words* per bank (broadcasts are free), so even
/// an unanalyzable address cannot conflict worse than
/// `ceil(shared_words / 32)`.
fn mem_cost(
    gc: &GpuConfig,
    op: Op,
    guarded: bool,
    pred: Option<&MemPredKind>,
    shared_words: u64,
) -> MemCost {
    let lanes = u64::from(simt_isa::WARP_SIZE);
    match op {
        Op::Ld(MemSpace::Param) => MemCost {
            occ_min: if guarded { 0 } else { timing::PARAM_OCCUPANCY },
            occ_max: timing::PARAM_OCCUPANCY,
            latency_max: timing::param_latency(gc),
        },
        Op::Ld(MemSpace::Shared) | Op::St(MemSpace::Shared) => {
            let word_cap =
                if shared_words > 0 { shared_words.div_ceil(32).min(lanes) } else { lanes };
            let (dmin, dmax) = match pred {
                Some(&MemPredKind::SharedConflict { min_degree, max_degree }) => {
                    (u64::from(min_degree), u64::from(max_degree))
                }
                _ => (0, word_cap),
            };
            MemCost {
                occ_min: if guarded { 0 } else { dmin },
                occ_max: dmax,
                latency_max: timing::smem_latency(gc, u32::try_from(dmax).unwrap_or(32).max(1)),
            }
        }
        Op::Ld(MemSpace::Global) | Op::St(MemSpace::Global) | Op::Atom(_) => {
            let (lmin, lmax) = match pred {
                Some(&MemPredKind::GlobalCoalesce { min_lines, max_lines, .. }) => {
                    (u64::from(min_lines), u64::from(max_lines))
                }
                _ => (0, lanes),
            };
            let atom_ser =
                if matches!(op, Op::Atom(_)) { timing::atomic_serialization(32) } else { 0 };
            MemCost {
                occ_min: if guarded { 0 } else { lmin },
                occ_max: lmax,
                latency_max: timing::dram_line_latency(gc) + atom_ser,
            }
        }
        _ => MemCost { occ_min: 0, occ_max: 0, latency_max: 0 },
    }
}

/// Worst-case completion latency of one instruction (for the solo model).
fn worst_latency(gc: &GpuConfig, op: Op, mc: &MemCost) -> u64 {
    match op.kind() {
        OpKind::Load | OpKind::Store | OpKind::Atomic => mc.latency_max,
        k => timing::exec_latency(gc, k),
    }
}

/// Static per-visit profile of one basic block for one warp.
#[derive(Debug, Clone, Default)]
struct BlockProfile {
    /// Instructions.
    n: u64,
    /// DARSIE-skippable instructions.
    n_skip: u64,
    /// Per-visit upper-bound terms (Base semantics).
    max: Terms,
    /// Lower-bound LSU occupancy (all instructions).
    lsu_min: u64,
    /// Lower-bound LSU occupancy excluding skippable instructions.
    lsu_min_nonskip: u64,
    /// Per-visit follower wait: worst completion latency of each
    /// skippable instruction (waiters are released at leader writeback).
    skip_wait: u64,
}

/// Solo in-order execution of one block by one warp under worst-case
/// latencies: one issue per cycle, unit occupancies respected, every
/// source dependence waited out, all writes drained at block end (sound
/// for loop-carried dependences). Returns total cycles; the exposure is
/// the excess over the instruction count.
fn solo_cycles(
    gc: &GpuConfig,
    ck: &CompiledKernel,
    pcs: std::ops::Range<usize>,
    costs: &BTreeMap<usize, MemCost>,
) -> u64 {
    let mut ready: BTreeMap<u8, u64> = BTreeMap::new();
    let mut pready: BTreeMap<u8, u64> = BTreeMap::new();
    let mut lsu_free = 0u64;
    let mut sfu_free = 0u64;
    let mut t = 0u64;
    let mut drain = 0u64;
    for pc in pcs {
        let i = &ck.kernel.instrs[pc];
        let mut at = t;
        for s in &i.srcs {
            if let simt_isa::Operand::Reg(r) = s {
                at = at.max(ready.get(&r.0).copied().unwrap_or(0));
            }
        }
        if let Some(g) = i.guard {
            at = at.max(pready.get(&g.pred.0).copied().unwrap_or(0));
        }
        if let Op::Sel(p) = i.op {
            at = at.max(pready.get(&p.0).copied().unwrap_or(0));
        }
        let kind = i.op.kind();
        match timing::exec_unit(kind) {
            timing::ExecUnit::Lsu => at = at.max(lsu_free),
            timing::ExecUnit::Sfu => at = at.max(sfu_free),
            _ => {}
        }
        let mc = costs.get(&pc);
        let lat = match mc {
            Some(c) => worst_latency(gc, i.op, c),
            None => timing::exec_latency(gc, kind),
        };
        match timing::exec_unit(kind) {
            timing::ExecUnit::Lsu => lsu_free = at + mc.map_or(1, |c| c.occ_max.max(1)),
            timing::ExecUnit::Sfu => sfu_free = at + timing::unit_issue_interval(gc, kind),
            _ => {}
        }
        let done = at + lat;
        if let Some(d) = i.dst {
            ready.insert(d.0, done);
            drain = drain.max(done);
        }
        if let Some(p) = i.pdst {
            pready.insert(p.0, done);
            drain = drain.max(done);
        }
        t = at + 1;
    }
    t.max(drain)
}

/// Statically estimates the `[min, max]` cycle bracket of `ck` under
/// `launch` on `gc`, executing with `technique` (`Base` and
/// `Darsie` variants are modeled; other techniques fall back to the Base
/// model, whose bracket is sound for them except `SiliconSync`).
#[must_use]
pub fn estimate(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    gc: &GpuConfig,
    technique: &Technique,
) -> CostEstimate {
    estimate_with(ck, launch, gc, technique, &mem_envelope(ck, launch))
}

/// The mask-free memory envelope of every access of `ck` under `launch`,
/// by pc: the same for every technique, so [`estimate_family`] computes it
/// once per corner.
fn mem_envelope(ck: &CompiledKernel, launch: &LaunchConfig) -> BTreeMap<usize, MemPredKind> {
    predict_envelope(ck, launch, launch.warp_size).into_iter().map(|p| (p.pc, p.kind)).collect()
}

/// [`estimate`] with the launch's memory envelope already computed.
fn estimate_with(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    gc: &GpuConfig,
    technique: &Technique,
    mempred: &BTreeMap<usize, MemPredKind>,
) -> CostEstimate {
    let kernel = &ck.kernel;
    let cfg = &ck.cfg;
    let plan = LaunchPlan::new(ck, launch);
    let darsie = match technique {
        Technique::Darsie(d) => Some(d),
        _ => None,
    };
    let doms = Doms::compute(cfg);
    let pdoms = PostDoms::compute(cfg);
    let nloops = NaturalLoops::compute(kernel, cfg, &doms);
    let (in_states, _divergent) =
        fixpoint_with_divergence(kernel, cfg, GridCtx::generic(launch.block.z), true);
    let trips = infer_trips(kernel, cfg, &doms, &nloops, launch, &in_states);

    let mut report = Diagnostics::new(kernel.name.clone());
    let mut loops = Vec::new();
    for lt in &trips.loops {
        loops.push(LoopReport { back_edge_pc: lt.back_edge_pc, trips: lt.bound.clone() });
        if let Err(reason) = &lt.bound {
            report.push(Diagnostic::new(
                LintCode::TripUnbounded,
                Some(lt.back_edge_pc),
                format!("loop trip count is unboundable: {reason}"),
            ));
        }
    }

    // Per-block visit brackets and per-visit cost profiles (one warp).
    let exit = cfg.exit_block();
    let nb = cfg.len();
    let mut bounded = true;
    let mut vmin = vec![0u64; nb];
    let mut vmax = vec![0u64; nb];
    let mut profiles: Vec<BlockProfile> = Vec::with_capacity(nb);
    let mut mem_costs: BTreeMap<usize, MemCost> = BTreeMap::new();
    let shared_words = u64::from(kernel.shared_mem_bytes.div_ceil(4));
    for (pc, i) in kernel.instrs.iter().enumerate() {
        if matches!(i.op.kind(), OpKind::Load | OpKind::Store | OpKind::Atomic) {
            mem_costs
                .insert(pc, mem_cost(gc, i.op, i.guard.is_some(), mempred.get(&pc), shared_words));
        }
    }
    for b in 0..nb {
        let (pmin, pmax) = match trips.enclosing_product(b) {
            Ok(p) => p,
            Err(_) => {
                bounded = false;
                (min_product_fallback(&trips, b), 0)
            }
        };
        // A block's visits hit the loop-nest minimum only when nothing can
        // route around it: it dominates the kernel exit and the latch of
        // every enclosing loop (every completed iteration passes through).
        let always = doms.dominates(b, exit)
            && trips.loops.iter().filter(|l| l.body.contains(&b)).all(|l| {
                nloops
                    .loops
                    .iter()
                    .find(|nl| nl.back_edge_pc == l.back_edge_pc)
                    .is_some_and(|nl| doms.dominates(b, nl.latch))
            });
        vmin[b] = if always { pmin } else { 0 };
        vmax[b] = pmax;

        let mut p = BlockProfile::default();
        let range = cfg.blocks[b].range();
        for pc in range.clone() {
            let i = &kernel.instrs[pc];
            p.n += 1;
            let skippable = plan.skippable[pc];
            if skippable {
                p.n_skip += 1;
                p.skip_wait += match mem_costs.get(&pc) {
                    Some(mc) => worst_latency(gc, i.op, mc),
                    None => timing::exec_latency(gc, i.op.kind()),
                };
            }
            p.max.issue += 1;
            if let Some(mc) = mem_costs.get(&pc) {
                p.max.lsu += mc.occ_max;
                p.lsu_min += mc.occ_min;
                if !skippable {
                    p.lsu_min_nonskip += mc.occ_min;
                }
                if matches!(i.op, Op::Ld(MemSpace::Global) | Op::St(MemSpace::Global) | Op::Atom(_))
                {
                    p.max.lines += mc.occ_max;
                }
            }
            if i.op.kind() == OpKind::Sfu {
                p.max.sfu += timing::unit_issue_interval(gc, OpKind::Sfu);
            }
        }
        // Fetch bursts: instrs_per_fetch per burst, plus one slack burst
        // per visit for wrong-path refetch after a flush, plus (DARSIE)
        // one burst break per skippable pc.
        let ipf = (gc.instrs_per_fetch as u64).max(1);
        p.max.bursts = p.n.div_ceil(ipf) + u64::from(p.n > 0);
        if darsie.is_some() {
            p.max.bursts += p.n_skip;
        }
        let solo = solo_cycles(gc, ck, range, &mem_costs);
        p.max.exposed = solo.saturating_sub(p.n);
        profiles.push(p);
    }

    // Exclusive-diamond credit from the TB-uniform affine bit.
    let mut credit = Terms::default();
    let mut claimed = vec![false; nb];
    #[allow(clippy::needless_range_loop)] // b is a block id indexing several parallel arrays
    for b in 0..nb {
        if let Some((la, lb)) = uniform_diamond(kernel, cfg, &pdoms, &in_states, b) {
            if la.iter().chain(&lb).any(|&x| claimed[x]) {
                continue;
            }
            // Same loop nest on every leg block: per-visit exclusivity.
            let pb = trips.enclosing_product(b);
            let same = |blocks: &[usize]| {
                blocks.iter().all(|&x| {
                    trips.enclosing_product(x).as_ref().ok() == pb.as_ref().ok()
                        && pb.is_ok()
                        && vmin[x] == 0
                })
            };
            if !same(&la) || !same(&lb) {
                continue;
            }
            let sum = |blocks: &[usize]| {
                let mut t = Terms::default();
                for &x in blocks {
                    t.add(profiles[x].max);
                }
                t
            };
            let per_visit = Terms::component_min(sum(&la), sum(&lb));
            credit.add(per_visit.scaled(vmax[b]));
            for &x in la.iter().chain(&lb) {
                claimed[x] = true;
            }
        }
    }

    // One warp, whole kernel.
    let mut n_max_w = 0u64;
    let mut n_min_w = 0u64;
    let mut skip_min_w = 0u64;
    let mut skip_max_w = 0u64;
    let mut lsu_min_w = 0u64;
    let mut lsu_min_nonskip_w = 0u64;
    let mut skip_wait_w = 0u64;
    let mut terms_w = Terms::default();
    for b in 0..nb {
        let p = &profiles[b];
        n_max_w = n_max_w.saturating_add(vmax[b].saturating_mul(p.n));
        n_min_w += vmin[b] * p.n;
        skip_min_w += vmin[b] * p.n_skip;
        skip_max_w = skip_max_w.saturating_add(vmax[b].saturating_mul(p.n_skip));
        skip_wait_w = skip_wait_w.saturating_add(vmax[b].saturating_mul(p.skip_wait));
        lsu_min_w += vmin[b] * p.lsu_min;
        lsu_min_nonskip_w += vmin[b] * p.lsu_min_nonskip;
        terms_w.add(p.max.scaled(vmax[b]));
    }
    terms_w.saturating_sub(credit);

    // SM aggregation: the busiest SM runs `tbs_sm` threadblocks of
    // `wpb` warps, `waves` residency generations deep.
    let total_tbs = u64::from(launch.grid.x) * u64::from(launch.grid.y) * u64::from(launch.grid.z);
    let tbs_sm = total_tbs.div_ceil(gc.num_sms as u64).max(1);
    let wpb = u64::from(launch.warps_per_block()).max(1);
    let wi = tbs_sm * wpb;
    let occ = occupancy(kernel, launch, gc);
    let waves = tbs_sm.div_ceil(u64::from(occ.tbs_per_sm).max(1));

    // Lower bound: structural throughput limits.
    let n_eff_min_w = if darsie.is_some() { n_min_w - skip_min_w } else { n_min_w };
    let lsu_eff_min_w = if darsie.is_some() { lsu_min_nonskip_w } else { lsu_min_w };
    let fetch_bound = (wi * n_eff_min_w).div_ceil(timing::fetch_bandwidth(gc).max(1));
    let issue_bound = (wi * n_eff_min_w).div_ceil(timing::issue_bandwidth(gc).max(1));
    let lsu_bound = wi * lsu_eff_min_w;
    let width = (gc.issue_width as u64).max(1);
    let ipf = (gc.instrs_per_fetch as u64).max(1);
    let chain_bound = (n_eff_min_w.div_ceil(width)).max(n_eff_min_w.div_ceil(ipf));
    let min_cycles = fetch_bound.max(issue_bound).max(lsu_bound).max(chain_bound).max(1);

    // Upper bound: serialized shared resources + exposure + drain.
    let mut breakdown = Breakdown {
        fetch_bound,
        issue_bound,
        lsu_bound,
        chain_bound,
        tbs_per_sm: tbs_sm,
        waves,
        ..Breakdown::default()
    };
    let max_cycles = if bounded {
        let icache = icache_miss_cost(gc, kernel.len(), wi.saturating_mul(terms_w.bursts));
        let fetch_serial = wi.saturating_mul(terms_w.bursts).saturating_add(icache);
        let issue_serial = wi.saturating_mul(terms_w.issue.div_ceil(width));
        let lsu_serial = wi.saturating_mul(terms_w.lsu);
        let sfu_serial = wi.saturating_mul(terms_w.sfu);
        let dram_serial =
            wi.saturating_mul(terms_w.lines).div_ceil((gc.dram_bandwidth as u64).max(1));
        let exposed = waves.saturating_mul(terms_w.exposed);
        // Followers parked in `WaitLeader` are all released at the
        // leader's writeback, so the waits on one skip-table entry
        // overlap: the exposed wall-clock per entry version is at most
        // the leader instruction's worst completion latency, once per TB
        // (leaders of distinct TBs publish independently). The would-be
        // leader's own resource stalls (`max_leader_stall` cap) occur
        // only under skip-table/freelist exhaustion, which requires other
        // warps to be draining entries (issuing, hence counted); one cap
        // per TB covers the final drain.
        let darsie_slack = darsie.map_or(0, |d| {
            tbs_sm
                .saturating_mul(skip_wait_w)
                .saturating_add(tbs_sm.saturating_mul(u64::from(d.max_leader_stall)))
        });
        let drain = timing::dram_line_latency(gc);
        breakdown.fetch_serial = fetch_serial;
        breakdown.issue_serial = issue_serial;
        breakdown.lsu_serial = lsu_serial;
        breakdown.sfu_serial = sfu_serial;
        breakdown.dram_serial = dram_serial;
        breakdown.exposed = exposed;
        breakdown.darsie_slack = darsie_slack;
        Some(
            fetch_serial
                .saturating_add(issue_serial)
                .saturating_add(lsu_serial)
                .saturating_add(sfu_serial)
                .saturating_add(dram_serial)
                .saturating_add(exposed)
                .saturating_add(darsie_slack)
                .saturating_add(drain)
                .max(min_cycles),
        )
    } else {
        None
    };

    // Predicted savings: followers of every TB skip the skippable work.
    let predicted_skip_fraction = if darsie.is_some() {
        let (s, n) = if bounded { (skip_max_w, n_max_w) } else { (skip_min_w, n_min_w) };
        if n == 0 || wpb == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                (wpb - 1) as f64 / wpb as f64 * s as f64 / n as f64
            }
        }
    } else {
        0.0
    };

    CostEstimate {
        technique: technique.label().to_string(),
        min_cycles,
        max_cycles,
        predicted_skip_fraction,
        loops,
        report,
        breakdown,
    }
}

/// A cycle bracket valid for *every* launch in a [`LaunchFamily`]: the
/// hull over the region's corner instantiations of [`estimate`].
///
/// Both the per-block visit products and the residency/serialization
/// terms of the cost model are monotone in each grid/block extent, so
/// the min over corner minima and max over corner maxima bracket every
/// interior member.
#[derive(Debug, Clone)]
pub struct FamilyCostBracket {
    /// Technique label the bracket models.
    pub technique: String,
    /// Lower cycle bound over the whole region.
    pub min_cycles: u64,
    /// Upper cycle bound over the whole region; `None` when any corner
    /// has an unboundable loop (E201).
    pub max_cycles: Option<u64>,
}

/// Evaluates [`estimate`] at every corner of `family` and hulls the
/// brackets into one per-technique [`FamilyCostBracket`] (the bracket
/// *functions* of the family symbols, evaluated at region corners).
#[must_use]
pub fn estimate_family(
    ck: &CompiledKernel,
    family: &simt_isa::LaunchFamily,
    reference: &LaunchConfig,
    gc: &GpuConfig,
    techniques: &[Technique],
) -> Vec<FamilyCostBracket> {
    let corners = family.corners(reference);
    let envelopes: Vec<_> = corners.iter().map(|corner| mem_envelope(ck, corner)).collect();
    techniques
        .iter()
        .map(|t| {
            let mut min_cycles = u64::MAX;
            let mut max_cycles = Some(0u64);
            for (corner, envelope) in corners.iter().zip(&envelopes) {
                let e = estimate_with(ck, corner, gc, t, envelope);
                min_cycles = min_cycles.min(e.min_cycles);
                max_cycles = match (max_cycles, e.max_cycles) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
            }
            FamilyCostBracket {
                technique: t.label().to_string(),
                min_cycles: if corners.is_empty() { 0 } else { min_cycles },
                max_cycles,
            }
        })
        .collect()
}

/// Minimum visit product when some enclosing loop is unboundable: every
/// bounded enclosing loop contributes its minimum, unbounded ones
/// contribute the do-while floor of one iteration.
fn min_product_fallback(trips: &TripCounts, block: usize) -> u64 {
    let mut p = 1u64;
    for l in &trips.loops {
        if l.body.contains(&block) {
            p = p.saturating_mul(l.bound.as_ref().map_or(1, |&(lo, _)| lo));
        }
    }
    p
}

/// Worst-case I-cache cost: cold-only when the kernel fits every set
/// (misses = code lines), otherwise every burst may miss.
fn icache_miss_cost(gc: &GpuConfig, kernel_len: usize, total_bursts: u64) -> u64 {
    let line_bytes = GpuConfig::LINE_BYTES;
    let lines = (simt_isa::Kernel::byte_pc(kernel_len).max(1)).div_ceil(line_bytes);
    let sets = ((gc.icache_lines / gc.icache_assoc) as u64).max(1);
    let per_set = lines.div_ceil(sets);
    let misses = if per_set <= gc.icache_assoc as u64 { lines } else { total_bursts };
    misses.saturating_mul(timing::fetch_miss_penalty(gc) + 1)
}

/// Detects a TB-uniform two-way diamond at block `b`: both legs are
/// single-entry regions meeting at the branch's immediate post-dominator
/// and sharing no block. Returns the two leg block sets.
fn uniform_diamond(
    kernel: &simt_isa::Kernel,
    cfg: &simt_compiler::Cfg,
    pdoms: &PostDoms,
    in_states: &[simt_compiler::affine::FlowState],
    b: usize,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let block = &cfg.blocks[b];
    if block.succs.len() != 2 || block.succs[0] == block.succs[1] {
        return None;
    }
    let term = block.range().last()?;
    let i = &kernel.instrs[term];
    let g = match i.op {
        Op::Bra { .. } => i.guard?,
        _ => return None,
    };
    // Uniformity at the branch point: replay the block body.
    let mut st = in_states[b].clone();
    if !st.reachable {
        return None;
    }
    for pc in block.range() {
        simt_compiler::affine::transfer(&mut st, &kernel.instrs[pc], GridCtx::generic(1));
    }
    let pv = st.preds[usize::from(g.pred.0)];
    let uniform = matches!(pv, PredVal::Top) || pv.is_tb_uniform();
    if !uniform {
        return None;
    }
    let join = pdoms.ipdom[b];
    let leg = |entry: usize| -> Option<Vec<usize>> {
        if entry == join {
            return Some(Vec::new());
        }
        let mut seen = vec![false; cfg.len()];
        seen[join] = true;
        let mut stack = vec![entry];
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            if seen[x] {
                continue;
            }
            seen[x] = true;
            out.push(x);
            for &s in &cfg.blocks[x].succs {
                stack.push(s);
            }
        }
        // Single entry: no edges into the leg from outside except from b.
        for &x in &out {
            for &p in &cfg.blocks[x].preds {
                if p != b && !out.contains(&p) {
                    return None;
                }
            }
        }
        Some(out)
    };
    let la = leg(block.succs[0])?;
    let lb = leg(block.succs[1])?;
    if la.iter().any(|x| lb.contains(x)) {
        return None;
    }
    if la.is_empty() && lb.is_empty() {
        return None;
    }
    Some((la, lb))
}

/// The `E201` lint pass: trip-count boundability of every natural loop,
/// independent of any GPU configuration.
#[must_use]
pub fn check(ck: &CompiledKernel, launch: &LaunchConfig) -> Diagnostics {
    let doms = Doms::compute(&ck.cfg);
    let nloops = NaturalLoops::compute(&ck.kernel, &ck.cfg, &doms);
    let (in_states, _) =
        fixpoint_with_divergence(&ck.kernel, &ck.cfg, GridCtx::generic(launch.block.z), true);
    let trips = infer_trips(&ck.kernel, &ck.cfg, &doms, &nloops, launch, &in_states);
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    for lt in &trips.loops {
        if let Err(reason) = &lt.bound {
            report.push(Diagnostic::new(
                LintCode::TripUnbounded,
                Some(lt.back_edge_pc),
                format!("loop trip count is unboundable: {reason}"),
            ));
        }
    }
    report
}

/// Differential validation: `E202` when the measured cycle count falls
/// outside the static bracket.
#[must_use]
pub fn validate(est: &CostEstimate, measured_cycles: u64) -> Option<Diagnostic> {
    if est.contains(measured_cycles) {
        return None;
    }
    let hi = est.max_cycles.map_or("unbounded".to_string(), |h| h.to_string());
    Some(Diagnostic::new(
        LintCode::CycleBoundViolation,
        None,
        format!(
            "measured {} cycles outside static bracket [{}, {}] ({})",
            measured_cycles, est.min_cycles, hi, est.technique
        ),
    ))
}
