//! Functional execution of one warp instruction (all lanes).
//!
//! The timing model calls [`execute`] when an instruction issues; the
//! architectural effects (register writes, memory traffic, branch outcome)
//! are applied immediately and the returned [`ExecEffect`] carries what the
//! pipeline needs for timing (lane addresses, branch masks, ...).

use crate::mem::GlobalMemory;
use crate::warp::{LaneMask, Warp};
use simt_isa::{AtomOp, CmpOp, Dim3, Instruction, MemSpace, Op, SpecialReg, Value};

/// Launch-wide context a warp executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// Global memory (shared by the whole GPU).
    pub global: &'a mut GlobalMemory,
    /// The owning TB's shared-memory scratchpad (word granularity).
    pub shared: &'a mut [u32],
    /// Kernel parameters.
    pub params: &'a [Value],
    /// Grid shape.
    pub grid: Dim3,
    /// Block shape.
    pub block: Dim3,
    /// This TB's coordinates in the grid.
    pub ctaid: Dim3,
}

/// Timing-relevant outcome of executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecEffect {
    /// Ordinary ALU/move work; destination(s) written.
    None,
    /// A branch resolved with the given taken mask (subset of the active
    /// mask) and target.
    Branch {
        /// Lanes that take the branch.
        taken: LaneMask,
        /// Target instruction index.
        target: usize,
    },
    /// `bar.sync` reached.
    Barrier,
    /// `exit` reached for the current path.
    Exit,
    /// A memory operation. Its `(lane, byte address)` pairs, for
    /// coalescing and bank-conflict analysis, are in the buffer the caller
    /// passed to [`execute`].
    Memory {
        /// Address space accessed.
        space: MemSpace,
        /// True for stores.
        is_store: bool,
        /// True for atomics.
        is_atomic: bool,
    },
}

fn special_value(s: SpecialReg, ctx: &ExecContext<'_>, warp: &Warp, lane: u32) -> u32 {
    let lin = u64::from(warp.warp_in_tb) * u64::from(warp.warp_size()) + u64::from(lane);
    let bx = u64::from(ctx.block.x);
    let by = u64::from(ctx.block.y);
    match s {
        SpecialReg::TidX => (lin % bx) as u32,
        SpecialReg::TidY => ((lin / bx) % by) as u32,
        SpecialReg::TidZ => (lin / (bx * by)) as u32,
        SpecialReg::CtaidX => ctx.ctaid.x,
        SpecialReg::CtaidY => ctx.ctaid.y,
        SpecialReg::CtaidZ => ctx.ctaid.z,
        SpecialReg::NtidX => ctx.block.x,
        SpecialReg::NtidY => ctx.block.y,
        SpecialReg::NtidZ => ctx.block.z,
        SpecialReg::NctaidX => ctx.grid.x,
        SpecialReg::NctaidY => ctx.grid.y,
        SpecialReg::NctaidZ => ctx.grid.z,
        SpecialReg::LaneId => lane,
        SpecialReg::WarpId => warp.warp_in_tb,
    }
}

/// Effective byte address of a memory operand: `base + offset`, checked so
/// a negative effective address (an underflowed index computation) faults
/// loudly instead of wrapping to a huge in-range `u64`.
fn effective_address(base: u32, offset: i32) -> u64 {
    u64::try_from(i64::from(base) + i64::from(offset))
        .unwrap_or_else(|_| panic!("negative effective address: {base:#x} {offset:+}"))
}

/// Shared-memory word index of a byte address, checked against the TB's
/// scratchpad size without any truncating cast.
fn shared_word(addr: u64, shared_len: usize, what: &str) -> usize {
    let w = usize::try_from(addr / 4)
        .unwrap_or_else(|_| panic!("shared {what} address overflows usize: {addr:#x}"));
    assert!(w < shared_len, "shared {what} out of bounds: {addr:#x} (size {})", shared_len * 4);
    w
}

fn operand(warp: &Warp, o: simt_isa::Operand, lane: u32) -> u32 {
    match o {
        simt_isa::Operand::Reg(r) => warp.reg(r, lane),
        simt_isa::Operand::Imm(v) => v,
    }
}

/// The per-lane ALU function. Public so the symbolic translation
/// validator's constant folder (`simt_compiler::term::fold_alu`) can be
/// parity-tested against the executor it models, and so counterexample
/// replay tooling can evaluate single operations outside a warp context.
#[must_use]
pub fn alu(op: Op, a: u32, b: u32, c: u32) -> u32 {
    let (ai, bi) = (a as i32, b as i32);
    let (af, bf, cf) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    match op {
        Op::IAdd => a.wrapping_add(b),
        Op::ISub => a.wrapping_sub(b),
        Op::IMul => a.wrapping_mul(b),
        Op::IMulHi => ((i64::from(ai) * i64::from(bi)) >> 32) as u32,
        Op::IMad => a.wrapping_mul(b).wrapping_add(c),
        Op::IMin => ai.min(bi) as u32,
        Op::IMax => ai.max(bi) as u32,
        Op::Shl => a.wrapping_shl(b & 31),
        Op::Shr => a.wrapping_shr(b & 31),
        Op::Sra => (ai >> (b & 31)) as u32,
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Not => !a,
        Op::FAdd => (af + bf).to_bits(),
        Op::FSub => (af - bf).to_bits(),
        Op::FMul => (af * bf).to_bits(),
        Op::FFma => af.mul_add(bf, cf).to_bits(),
        Op::FMin => af.min(bf).to_bits(),
        Op::FMax => af.max(bf).to_bits(),
        Op::FDiv => (af / bf).to_bits(),
        Op::FRcp => (1.0 / af).to_bits(),
        Op::FSqrt => af.sqrt().to_bits(),
        Op::FExp2 => af.exp2().to_bits(),
        Op::FLog2 => af.log2().to_bits(),
        Op::Mov => a,
        Op::I2F => (ai as f32).to_bits(),
        Op::F2I => {
            // Round toward zero with saturation, like CUDA cvt.rzi.
            let t = af.trunc();
            if t.is_nan() {
                0
            } else {
                (t.clamp(i32::MIN as f32, i32::MAX as f32) as i32) as u32
            }
        }
        _ => unreachable!("alu() called with non-ALU op {op:?}"),
    }
}

fn compare(cmp: CmpOp, float: bool, a: u32, b: u32) -> bool {
    if float {
        cmp.eval_f32(f32::from_bits(a), f32::from_bits(b))
    } else {
        cmp.eval_i32(a as i32, b as i32)
    }
}

/// Executes `instr` for every active lane of `warp` whose guard passes.
/// Returns the timing-relevant effect. Does **not** move the warp's PC;
/// the pipeline does that (branches via [`Warp::take_branch`]).
///
/// `addrs` is the caller's reusable buffer: it is cleared, and a memory
/// instruction fills it with one `(lane, byte address)` pair per
/// participating lane, in lane order.
pub fn execute(
    warp: &mut Warp,
    instr: &Instruction,
    ctx: &mut ExecContext<'_>,
    addrs: &mut Vec<(u32, u64)>,
) -> ExecEffect {
    addrs.clear();
    let active = warp.active_mask();
    let ws = warp.warp_size();
    // Lanes that exist, are on the active path, and pass the guard.
    let mut eff_mask: LaneMask = 0;
    for lane in 0..ws {
        if active & (1 << lane) == 0 {
            continue;
        }
        let g = instr.guard.is_none_or(|g| g.accepts(warp.pred(g.pred, lane)));
        if g {
            eff_mask |= 1 << lane;
        }
    }

    match instr.op {
        Op::Bra { target } => ExecEffect::Branch { taken: eff_mask, target },
        Op::Bar => ExecEffect::Barrier,
        Op::Exit => ExecEffect::Exit,
        Op::Setp(cmp) | Op::SetpF(cmp) => {
            let float = matches!(instr.op, Op::SetpF(_));
            let p = instr.pdst.expect("setp has a pdst");
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let a = operand(warp, instr.srcs[0], lane);
                let b = operand(warp, instr.srcs[1], lane);
                warp.set_pred(p, lane, compare(cmp, float, a, b));
            }
            ExecEffect::None
        }
        Op::Sel(p) => {
            let d = instr.dst.expect("sel has a dst");
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let a = operand(warp, instr.srcs[0], lane);
                let b = operand(warp, instr.srcs[1], lane);
                let v = if warp.pred(p, lane) { a } else { b };
                warp.set_reg(d, lane, v);
            }
            ExecEffect::None
        }
        Op::S2R(s) => {
            let d = instr.dst.expect("s2r has a dst");
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let v = special_value(s, ctx, warp, lane);
                warp.set_reg(d, lane, v);
            }
            ExecEffect::None
        }
        Op::Ld(space) => {
            let d = instr.dst.expect("ld has a dst");
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = operand(warp, instr.srcs[0], lane);
                let addr = effective_address(base, instr.offset);
                let v = match space {
                    MemSpace::Global => ctx.global.read_u32(addr),
                    MemSpace::Shared => ctx.shared[shared_word(addr, ctx.shared.len(), "load")],
                    MemSpace::Param => usize::try_from(addr / 4)
                        .ok()
                        .and_then(|i| ctx.params.get(i))
                        .map_or(0, |v| v.as_u32()),
                };
                warp.set_reg(d, lane, v);
                addrs.push((lane, addr));
            }
            ExecEffect::Memory { space, is_store: false, is_atomic: false }
        }
        Op::St(space) => {
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = operand(warp, instr.srcs[0], lane);
                let addr = effective_address(base, instr.offset);
                let v = operand(warp, instr.srcs[1], lane);
                match space {
                    MemSpace::Global => ctx.global.write_u32(addr, v),
                    MemSpace::Shared => {
                        ctx.shared[shared_word(addr, ctx.shared.len(), "store")] = v;
                    }
                    MemSpace::Param => panic!("stores to parameter space are not allowed"),
                }
                addrs.push((lane, addr));
            }
            ExecEffect::Memory { space, is_store: true, is_atomic: false }
        }
        Op::Atom(aop) => {
            let d = instr.dst.expect("atom has a dst");
            // Lanes apply in lane order (deterministic serialization).
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = operand(warp, instr.srcs[0], lane);
                let addr = effective_address(base, instr.offset);
                let v = operand(warp, instr.srcs[1], lane);
                let old = ctx.global.read_u32(addr);
                ctx.global.write_u32(addr, AtomOp::apply(aop, old, v));
                warp.set_reg(d, lane, old);
                addrs.push((lane, addr));
            }
            ExecEffect::Memory { space: MemSpace::Global, is_store: true, is_atomic: true }
        }
        // Everything else is a lane-wise ALU op.
        _ => {
            let d = instr.dst.expect("ALU op has a dst");
            for lane in 0..ws {
                if eff_mask & (1 << lane) == 0 {
                    continue;
                }
                let a = operand(warp, instr.srcs[0], lane);
                let b = instr.srcs.get(1).map_or(0, |&o| operand(warp, o, lane));
                let c = instr.srcs.get(2).map_or(0, |&o| operand(warp, o, lane));
                warp.set_reg(d, lane, alu(instr.op, a, b, c));
            }
            ExecEffect::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Guard, Operand, Pred, Reg};

    fn ctx_fixture<'a>(global: &'a mut GlobalMemory, shared: &'a mut [u32]) -> ExecContext<'a> {
        ExecContext {
            global,
            shared,
            params: &[],
            grid: Dim3::one_d(4),
            block: Dim3::two_d(4, 2),
            ctaid: Dim3::three_d(2, 0, 0),
        }
    }

    fn warp4() -> Warp {
        // warp size 8, full mask over 8 lanes (block 4x2 = 8 threads).
        Warp::new(0, 0, 0, 8, 8, 0xFF, 0)
    }

    #[test]
    fn s2r_computes_2d_thread_ids() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        let i = Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]);
        execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(0)), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let i = Instruction::new(Op::S2R(SpecialReg::TidY), Some(Reg(1)), None, vec![]);
        execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(1)), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let i = Instruction::new(Op::S2R(SpecialReg::CtaidX), Some(Reg(2)), None, vec![]);
        execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(2)), vec![2; 8]);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(Op::IAdd, 7, u32::MAX, 0), 6, "wrapping add");
        assert_eq!(alu(Op::ISub, 3, 5, 0) as i32, -2);
        assert_eq!(alu(Op::IMulHi, 0x8000_0000, 2, 0), u32::MAX, "signed hi mul");
        assert_eq!(alu(Op::IMad, 3, 4, 5), 17);
        assert_eq!(alu(Op::Sra, (-8i32) as u32, 1, 0) as i32, -4);
        assert_eq!(alu(Op::Shr, (-8i32) as u32, 1, 0), 0x7FFF_FFFC);
        assert_eq!(
            f32::from_bits(alu(Op::FFma, 2.0f32.to_bits(), 3.0f32.to_bits(), 1.0f32.to_bits())),
            7.0
        );
        assert_eq!(f32::from_bits(alu(Op::FSqrt, 9.0f32.to_bits(), 0, 0)), 3.0);
        assert_eq!(alu(Op::F2I, (-2.7f32).to_bits(), 0, 0) as i32, -2, "truncates toward zero");
        assert_eq!(alu(Op::F2I, f32::NAN.to_bits(), 0, 0), 0);
        assert_eq!(f32::from_bits(alu(Op::I2F, (-3i32) as u32, 0, 0)), -3.0);
    }

    #[test]
    fn guard_masks_lanes() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_pred(Pred(0), lane, lane % 2 == 0);
            w.set_reg(Reg(0), lane, 100);
        }
        let i = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(7)])
            .with_guard(Guard::if_true(Pred(0)));
        execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(0)), vec![7, 100, 7, 100, 7, 100, 7, 100]);
    }

    #[test]
    fn branch_returns_taken_mask() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_pred(Pred(1), lane, lane < 3);
        }
        let i = Instruction::new(Op::Bra { target: 9 }, None, None, vec![])
            .with_guard(Guard::if_true(Pred(1)));
        let e = execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(e, ExecEffect::Branch { taken: 0b111, target: 9 });
    }

    #[test]
    fn loads_and_stores_roundtrip_through_spaces() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        g.write_u32(0x1000, 77);
        sh[3] = 55;
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = Warp::new(0, 0, 0, 8, 8, 0x1, 0); // single lane
        w.set_reg(Reg(0), 0, 0x1000);
        let ld =
            Instruction::new(Op::Ld(MemSpace::Global), Some(Reg(1)), None, vec![Reg(0).into()]);
        let e = execute(&mut w, &ld, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg(Reg(1), 0), 77);
        assert!(matches!(e, ExecEffect::Memory { space: MemSpace::Global, is_store: false, .. }));

        let lds =
            Instruction::new(Op::Ld(MemSpace::Shared), Some(Reg(2)), None, vec![Operand::Imm(12)]);
        execute(&mut w, &lds, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg(Reg(2), 0), 55);

        let st = Instruction::new(
            Op::St(MemSpace::Shared),
            None,
            None,
            vec![Operand::Imm(0), Reg(1).into()],
        )
        .with_offset(8);
        execute(&mut w, &st, &mut ctx, &mut Vec::new());
        assert_eq!(ctx.shared[2], 77);
    }

    #[test]
    fn param_loads_read_launch_parameters() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let params = [Value(111), Value(222)];
        let mut ctx = ExecContext {
            global: &mut g,
            shared: &mut sh,
            params: &params,
            grid: Dim3::one_d(1),
            block: Dim3::one_d(8),
            ctaid: Dim3::three_d(0, 0, 0),
        };
        let mut w = Warp::new(0, 0, 0, 4, 8, 0xFF, 0);
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(0)])
                .with_offset(4);
        execute(&mut w, &ld, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(0)), vec![222; 8]);
    }

    #[test]
    fn atomics_serialize_in_lane_order() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_reg(Reg(0), lane, 0x2000);
            w.set_reg(Reg(1), lane, 1);
        }
        let at = Instruction::new(
            Op::Atom(AtomOp::Add),
            Some(Reg(2)),
            None,
            vec![Reg(0).into(), Reg(1).into()],
        );
        execute(&mut w, &at, &mut ctx, &mut Vec::new());
        assert_eq!(ctx.global.read_u32(0x2000), 8);
        assert_eq!(w.reg_vector(Reg(2)), vec![0, 1, 2, 3, 4, 5, 6, 7], "old values per lane");
    }

    #[test]
    fn inactive_lanes_untouched() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        w.stack.last_mut().unwrap().mask = 0x0F; // lanes 4..8 inactive
        for lane in 0..8 {
            w.set_reg(Reg(0), lane, 42);
        }
        let i = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)]);
        execute(&mut w, &i, &mut ctx, &mut Vec::new());
        assert_eq!(w.reg_vector(Reg(0)), vec![1, 1, 1, 1, 42, 42, 42, 42]);
    }
}
