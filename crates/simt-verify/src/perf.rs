//! Static memory-performance prediction: per-access shared-memory
//! bank-conflict degree and global-memory coalescing efficiency.
//!
//! The affine-interval domain of [`simt_compiler::affine`] describes each
//! address as `a*tid.x + b*tid.y + c` with a TB-uniform `c ∈ [lo, hi]`.
//! Because every lane shares the same `c`, the *relative* addresses of a
//! warp are fixed, and both the bank-conflict degree (32 four-byte banks)
//! and the 128-byte coalescing line count are periodic in `c` with period
//! 128. Enumerating the feasible residues of `c` therefore yields exact
//! per-execution bounds `[min, max]` for every statically affine access —
//! using the *same* [`gpu_sim::mem::smem_conflict_degree`] and
//! [`gpu_sim::mem::coalesce_lines`] functions the cycle simulator applies,
//! so [`validate`] is a genuine differential check against the measured
//! [`gpu_sim::SimStats::mem_by_pc`] counters.
//!
//! Execution masks come from the dominating-branch conditions shared with
//! the race pass ([`crate::races`]); a mask or address the domain cannot
//! pin down exactly is reported as [`MemPredKind::Unpredictable`], never
//! silently guessed. Lane-set recovery assumes the structured,
//! IPDOM-reconverging control flow produced by `KernelBuilder`;
//! unstructured flow can under-constrain the mask, which the differential
//! validation then surfaces.
//!
//! Findings surface as `P1xx` lints: `P101` guaranteed bank conflicts,
//! `P102` guaranteed uncoalesced global access, `P103` statically
//! unpredictable access.

use crate::races::block_conditions;
use crate::{Diagnostic, Diagnostics, LintCode};
use gpu_sim::mem::{coalesce_lines, smem_conflict_degree};
use gpu_sim::SimStats;
use simt_compiler::affine::{fixpoint, resolve, transfer, Affine, AffineVal, GridCtx, PredVal};
use simt_compiler::CompiledKernel;
use simt_isa::{LaunchConfig, MemSpace, Op};
use std::collections::BTreeSet;

/// Bias added before reusing the simulator's unsigned address helpers;
/// a multiple of 128 so it changes neither bank nor line structure.
const BIAS: i64 = 1 << 40;

/// What the predictor can say about one static memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemPredKind {
    /// A shared access: per-execution bank-conflict degree bounds.
    SharedConflict {
        /// Minimum serialized bank passes over feasible constants.
        min_degree: u32,
        /// Maximum serialized bank passes over feasible constants.
        max_degree: u32,
    },
    /// A global access: per-execution 128-byte line-count bounds, plus
    /// the ideal count for the widest executing lane set.
    GlobalCoalesce {
        /// Minimum distinct lines over feasible constants.
        min_lines: u32,
        /// Maximum distinct lines over feasible constants.
        max_lines: u32,
        /// Lines a perfectly coalesced access of the same width needs.
        ideal_lines: u32,
    },
    /// The address or execution mask is not exactly thread-affine.
    Unpredictable {
        /// Why no bound can be given.
        reason: String,
    },
}

/// Prediction for one static load/store/atomic.
#[derive(Debug, Clone)]
pub struct MemPrediction {
    /// Instruction index.
    pub pc: usize,
    /// True for stores and atomics.
    pub is_store: bool,
    /// The accessed space (`Shared` or `Global`).
    pub space: MemSpace,
    /// The bound, or why there is none.
    pub kind: MemPredKind,
}

/// Outcome of checking one prediction against measured counters.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Instruction index.
    pub pc: usize,
    /// True when the measured counters fall inside the predicted bounds.
    pub ok: bool,
    /// Human-readable predicted-vs-measured evidence.
    pub detail: String,
}

/// One access site collected from the CFG replay.
struct Access {
    pc: usize,
    block: usize,
    space: MemSpace,
    is_store: bool,
    addr: AffineVal,
    guard: Option<(PredVal, bool)>,
}

/// Threads that provably execute under `constraints`, or `None` when some
/// constraint is not exactly evaluable per-thread.
fn executing_threads(
    constraints: &[(PredVal, bool)],
    bx: u32,
    by: u32,
    threads: u32,
) -> Option<Vec<u32>> {
    let exact = |v: AffineVal| v.affine().is_some_and(Affine::is_exact);
    if !constraints
        .iter()
        .all(|&(pv, _)| matches!(pv, PredVal::Cmp { lhs, rhs, .. } if exact(lhs) && exact(rhs)))
    {
        return None;
    }
    let mut out = Vec::new();
    for t in 0..threads {
        let tx = i64::from(t % bx);
        let ty = i64::from((t / bx) % by);
        if constraints.iter().all(|&(pv, pol)| pv.eval(tx, ty) == Some(pol)) {
            out.push(t);
        }
    }
    Some(out)
}

/// Feasible residues of the uniform constant modulo the 128-byte period.
fn residues(f: Affine) -> Vec<i64> {
    let unbounded = f.lo == simt_compiler::affine::NEG_INF
        || f.hi == simt_compiler::affine::POS_INF
        || i128::from(f.hi) - i128::from(f.lo) >= 127;
    if unbounded {
        return (0..128).collect();
    }
    let set: BTreeSet<i64> = (f.lo..=f.hi).map(|c| c.rem_euclid(128)).collect();
    set.into_iter().collect()
}

/// Per-execution degree/line bounds for one access, over every executing
/// warp and every feasible constant residue. `lanes` is ascending, so each
/// warp's lanes form one contiguous run.
fn bound_access(
    f: Affine,
    lanes: &[u32],
    bx: u32,
    by: u32,
    warp_size: u32,
    shared: bool,
) -> Result<(u32, u32, u32), String> {
    let residues = residues(f);
    let mut min_v = u32::MAX;
    let mut max_v = 0u32;
    let mut widest = 0u32;
    for warp in lanes.chunk_by(|&s, &t| s / warp_size == t / warp_size) {
        let offs: Vec<i64> = warp
            .iter()
            .map(|&t| {
                let tx = i64::from(t % bx);
                let ty = i64::from((t / bx) % by);
                f.a.checked_mul(tx)
                    .and_then(|x| f.b.checked_mul(ty).and_then(|y| x.checked_add(y)))
                    .ok_or_else(|| "address coefficients overflow the model".to_string())
            })
            .collect::<Result<_, _>>()?;
        widest = widest.max(offs.len() as u32);
        for &r in &residues {
            let addrs: Vec<u64> = offs
                .iter()
                .map(|&o| {
                    let a = o + r + BIAS;
                    if a < 0 {
                        Err("address below the model range".to_string())
                    } else {
                        Ok(a as u64)
                    }
                })
                .collect::<Result<_, _>>()?;
            let v = if shared {
                smem_conflict_degree(addrs.into_iter())
            } else {
                coalesce_lines(addrs.into_iter()).len() as u32
            };
            min_v = min_v.min(v);
            max_v = max_v.max(v);
        }
    }
    if max_v == 0 {
        return Err("no thread provably executes this access".to_string());
    }
    Ok((min_v, max_v, widest))
}

/// Predicts bank-conflict degrees and coalescing line counts for every
/// shared/global load, store and atomic of `ck` under `launch`, with
/// per-warp lane grouping by `warp_size`.
#[must_use]
pub fn predict(ck: &CompiledKernel, launch: &LaunchConfig, warp_size: u32) -> Vec<MemPrediction> {
    predict_inner(ck, launch, warp_size, false)
}

/// Like [`predict`], but when the execution mask is not exactly
/// thread-affine (and only then) the access is bounded over the *full*
/// thread block instead of reported unpredictable: any executing subset
/// touches at most the lines (conflicts at most the degree) of the whole
/// warp, so the returned maximum is a sound mask-agnostic envelope. The
/// minimum is widened to 0 (the mask may be empty). The cost model's
/// upper bound consumes this; the `P1xx` lints keep the exact
/// [`predict`].
#[must_use]
pub fn predict_envelope(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    warp_size: u32,
) -> Vec<MemPrediction> {
    predict_inner(ck, launch, warp_size, true)
}

fn predict_inner(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    warp_size: u32,
    mask_free: bool,
) -> Vec<MemPrediction> {
    let (bx, by, bz) = (launch.block.x.max(1), launch.block.y.max(1), launch.block.z.max(1));
    let threads = launch.threads_per_block();
    let instrs = &ck.kernel.instrs;

    let ctx = GridCtx::generic(bz);
    let in_states = fixpoint(&ck.kernel, &ck.cfg, ctx, true);
    let no_divergence = vec![false; ck.cfg.blocks.len()];
    let block_conds = block_conditions(ck, &in_states, ctx, &no_divergence);

    let mut accesses: Vec<Access> = Vec::new();
    for (b, block) in ck.cfg.blocks.iter().enumerate() {
        if !in_states[b].reachable {
            continue;
        }
        let mut st = in_states[b].clone();
        for pc in block.range() {
            let instr = &instrs[pc];
            let classified = match instr.op {
                Op::Ld(s @ (MemSpace::Shared | MemSpace::Global)) => Some((s, false)),
                Op::St(s @ (MemSpace::Shared | MemSpace::Global)) => Some((s, true)),
                Op::Atom(_) => Some((MemSpace::Global, true)),
                _ => None,
            };
            if let Some((space, is_store)) = classified {
                let addr =
                    resolve(&st, instr.srcs[0]) + AffineVal::constant(i64::from(instr.offset));
                let guard = instr.guard.map(|g| (st.preds[usize::from(g.pred.0)], !g.negate));
                accesses.push(Access { pc, block: b, space, is_store, addr, guard });
            }
            transfer(&mut st, instr, ctx);
        }
    }

    accesses
        .into_iter()
        .map(|a| {
            let mut constraints = block_conds[a.block].clone();
            if let Some(g) = a.guard {
                constraints.push(g);
            }
            // Mask-free envelope: an unknown mask executes some subset of
            // the block's threads, and any subset's degree/lines are
            // bounded by the full warp's — min widens to 0 (empty mask).
            let (lanes, masked) = match executing_threads(&constraints, bx, by, threads) {
                Some(lanes) => (Some(lanes), false),
                None if mask_free => (Some((0..threads).collect()), true),
                None => (None, false),
            };
            let kind = match (lanes, a.addr) {
                (None, _) => MemPredKind::Unpredictable {
                    reason: "execution mask depends on a predicate that is not exactly \
                             thread-affine"
                        .to_string(),
                },
                (_, AffineVal::Top | AffineVal::Unknown) => MemPredKind::Unpredictable {
                    reason: "address is not thread-affine".to_string(),
                },
                (Some(lanes), AffineVal::Aff(f)) => {
                    let shared = a.space == MemSpace::Shared;
                    match bound_access(f, &lanes, bx, by, warp_size, shared) {
                        Err(reason) => MemPredKind::Unpredictable { reason },
                        Ok((min_v, max_v, widest)) if shared => {
                            let _ = widest;
                            MemPredKind::SharedConflict {
                                min_degree: if masked { 0 } else { min_v },
                                max_degree: max_v,
                            }
                        }
                        Ok((min_v, max_v, widest)) => MemPredKind::GlobalCoalesce {
                            min_lines: if masked { 0 } else { min_v },
                            max_lines: max_v,
                            ideal_lines: (widest * 4).div_ceil(128).max(1),
                        },
                    }
                }
            };
            MemPrediction { pc: a.pc, is_store: a.is_store, space: a.space, kind }
        })
        .collect()
}

/// Turns predictions into `P1xx` diagnostics.
#[must_use]
pub fn lint(ck: &CompiledKernel, predictions: &[MemPrediction]) -> Diagnostics {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    for p in predictions {
        let what = if p.is_store { "store" } else { "load" };
        match &p.kind {
            MemPredKind::SharedConflict { min_degree, max_degree } if *min_degree > 1 => {
                report.push(Diagnostic::new(
                    LintCode::SharedBankConflict,
                    Some(p.pc),
                    format!(
                        "shared {what} serializes over {min_degree}..={max_degree} bank passes \
                         in every execution"
                    ),
                ));
            }
            MemPredKind::GlobalCoalesce { min_lines, max_lines, ideal_lines }
                if *min_lines > *ideal_lines =>
            {
                report.push(Diagnostic::new(
                    LintCode::GlobalUncoalesced,
                    Some(p.pc),
                    format!(
                        "global {what} touches {min_lines}..={max_lines} 128-byte lines per \
                         execution where {ideal_lines} would suffice"
                    ),
                ));
            }
            MemPredKind::Unpredictable { reason } => {
                report.push(Diagnostic::new(
                    LintCode::MemUnpredictable,
                    Some(p.pc),
                    format!("{} {what} has no static performance bound: {reason}", p.space),
                ));
            }
            _ => {}
        }
    }
    report
}

/// Checks every bounded prediction against the simulator's measured
/// per-pc counters: with `n` measured executions of an access bounded by
/// `[min, max]`, the accumulated counter must lie in `[n*min, n*max]`.
#[must_use]
pub fn validate(predictions: &[MemPrediction], stats: &SimStats) -> Vec<Validation> {
    let zero = gpu_sim::PcMemStat::default();
    predictions
        .iter()
        .filter_map(|p| {
            let m = stats.mem_by_pc.get(&p.pc).unwrap_or(&zero);
            match p.kind {
                MemPredKind::SharedConflict { min_degree, max_degree } => {
                    let (lo, hi) = (
                        m.smem_accesses * u64::from(min_degree - 1),
                        m.smem_accesses * u64::from(max_degree - 1),
                    );
                    let ok = (lo..=hi).contains(&m.smem_conflict_extra);
                    Some(Validation {
                        pc: p.pc,
                        ok,
                        detail: format!(
                            "pc {}: predicted conflict-extra in [{lo}, {hi}] over {} accesses, \
                             measured {}",
                            p.pc, m.smem_accesses, m.smem_conflict_extra
                        ),
                    })
                }
                MemPredKind::GlobalCoalesce { min_lines, max_lines, .. } => {
                    let (lo, hi) = (
                        m.global_accesses * u64::from(min_lines),
                        m.global_accesses * u64::from(max_lines),
                    );
                    let ok = (lo..=hi).contains(&m.global_transactions);
                    Some(Validation {
                        pc: p.pc,
                        ok,
                        detail: format!(
                            "pc {}: predicted transactions in [{lo}, {hi}] over {} accesses, \
                             measured {}",
                            p.pc, m.global_accesses, m.global_transactions
                        ),
                    })
                }
                MemPredKind::Unpredictable { .. } => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_compiler::compile;
    use simt_isa::{Dim3, KernelBuilder, SpecialReg};

    fn launch_1d() -> LaunchConfig {
        LaunchConfig::new(1u32, 64u32)
    }

    /// out[tid.x] with a 4-byte stride: conflict-free, fully coalesced.
    fn unit_stride() -> CompiledKernel {
        let mut b = KernelBuilder::new("unit");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let sa = b.iadd(off, smem);
        b.store(MemSpace::Shared, sa, t, 0);
        b.store(MemSpace::Global, off, t, 0);
        compile(b.finish())
    }

    #[test]
    fn unit_stride_is_clean() {
        let ck = unit_stride();
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].kind, MemPredKind::SharedConflict { min_degree: 1, max_degree: 1 });
        // The global base is the exact constant 0 here, so one residue.
        assert_eq!(
            preds[1].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 1, ideal_lines: 1 }
        );
        assert!(lint(&ck, &preds).items.is_empty());
    }

    #[test]
    fn stride_128_shared_maximally_conflicts() {
        let mut b = KernelBuilder::new("conflict");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 128);
        let off = b.shl_imm(t, 7);
        let sa = b.iadd(off, smem);
        b.store(MemSpace::Shared, sa, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(preds[0].kind, MemPredKind::SharedConflict { min_degree: 32, max_degree: 32 });
        let report = lint(&ck, &preds);
        assert_eq!(report.items[0].code, LintCode::SharedBankConflict);
    }

    #[test]
    fn param_base_widens_to_residue_interval() {
        // base comes from a parameter: uniform but unknown, so the bound
        // must cover every 128-byte alignment.
        let mut b = KernelBuilder::new("parambase");
        let t = b.special(SpecialReg::TidX);
        let base = b.param(0);
        let off = b.shl_imm(t, 2);
        let a = b.iadd(base, off);
        b.store(MemSpace::Global, a, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(
            preds[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 2, ideal_lines: 1 }
        );
        // Not guaranteed uncoalesced: no lint.
        assert!(lint(&ck, &preds).items.is_empty());
    }

    #[test]
    fn non_affine_address_is_reported_not_guessed() {
        let mut b = KernelBuilder::new("nonaffine");
        let t = b.special(SpecialReg::TidX);
        let masked = b.and(t, 1u32);
        let off = b.shl_imm(masked, 2);
        b.store(MemSpace::Global, off, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert!(matches!(preds[0].kind, MemPredKind::Unpredictable { .. }));
        let report = lint(&ck, &preds);
        assert_eq!(report.items[0].code, LintCode::MemUnpredictable);
        assert_eq!(report.items[0].severity, crate::Severity::Note);
    }

    #[test]
    fn guarded_access_masks_lanes() {
        // Only tid.x < 8 store: one warp, 8 lanes, still one line when
        // the base is exact.
        let mut b = KernelBuilder::new("guarded");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(simt_isa::CmpOp::Lt, t, 8u32);
        let off = b.shl_imm(t, 2);
        let st = simt_isa::Instruction::new(
            Op::St(MemSpace::Global),
            None,
            None,
            vec![off.into(), t.into()],
        )
        .with_guard(simt_isa::Guard::if_true(p));
        b.emit(st);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(
            preds[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 1, ideal_lines: 1 }
        );
    }

    #[test]
    fn envelope_groups_a_partial_block_by_warp() {
        // An 8x10 block is 80 threads: warps 0 and 1 hold rows 0-3 and
        // 4-7, warp 2 is short (rows 8-9). Only tid.x < 3 executes, so
        // each warp's lanes are three of every eight: 12, 12 and 6.
        let mut b = KernelBuilder::new("partial");
        let tx = b.special(SpecialReg::TidX);
        let ty = b.special(SpecialReg::TidY);
        let smem = b.alloc_shared(10 * 128);
        let p = b.setp(simt_isa::CmpOp::Lt, tx, 3u32);
        // Shared word 32*ty + tx: bank tx, one distinct word per row.
        let row = b.shl_imm(ty, 7);
        let col = b.shl_imm(tx, 2);
        let rc = b.iadd(row, col);
        let sa = b.iadd(rc, smem);
        // Global byte 128*(tx + 8*ty): every thread its own line.
        let gx = b.shl_imm(tx, 7);
        let gy = b.shl_imm(ty, 10);
        let ga = b.iadd(gx, gy);
        for (space, addr) in [(MemSpace::Shared, sa), (MemSpace::Global, ga)] {
            b.emit(
                simt_isa::Instruction::new(Op::St(space), None, None, vec![addr.into(), tx.into()])
                    .with_guard(simt_isa::Guard::if_true(p)),
            );
        }
        let ck = compile(b.finish());
        let preds = predict_envelope(&ck, &LaunchConfig::new(1u32, Dim3::two_d(8, 10)), 32);
        // Per warp, each of banks 0-2 serves one word per row: degree 4
        // for the two full warps, 2 for the short one.
        assert_eq!(preds[0].kind, MemPredKind::SharedConflict { min_degree: 2, max_degree: 4 });
        // One line per executing lane: 12, 12 and 6; the widest warp's 12
        // words would fit one line.
        assert_eq!(
            preds[1].kind,
            MemPredKind::GlobalCoalesce { min_lines: 6, max_lines: 12, ideal_lines: 1 }
        );
    }
}
