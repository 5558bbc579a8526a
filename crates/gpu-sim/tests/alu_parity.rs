//! Differential parity between the symbolic constant folder
//! (`simt_compiler::term::fold_alu`) and the functional executor's ALU.
//! The translation validator's counterexamples are only trustworthy if
//! the two agree bit-for-bit on every opcode, including float edge cases.
//! The executor's lane-vector path is checked against `alu` applied lane
//! by lane.

use gpu_sim::exec::{execute, ExecContext};
use gpu_sim::{GlobalMemory, Warp};
use proptest::prelude::*;
use simt_compiler::fold_alu;
use simt_isa::{Dim3, Guard, Instruction, Op, Operand, Pred, Reg};

/// Every opcode `fold_alu` claims to handle.
const ALU_OPS: [Op; 28] = [
    Op::IAdd,
    Op::ISub,
    Op::IMul,
    Op::IMulHi,
    Op::IMad,
    Op::IMin,
    Op::IMax,
    Op::Shl,
    Op::Shr,
    Op::Sra,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::FAdd,
    Op::FSub,
    Op::FMul,
    Op::FFma,
    Op::FMin,
    Op::FMax,
    Op::FDiv,
    Op::FRcp,
    Op::FSqrt,
    Op::FExp2,
    Op::FLog2,
    Op::Mov,
    Op::I2F,
    Op::F2I,
];

/// Bit patterns that exercise wrapping, sign, shift-masking and float
/// specials (NaN, infinities, denormals, negative zero).
const CORNERS: [u32; 14] = [
    0,
    1,
    2,
    31,
    32,
    33,
    0x7FFF_FFFF,
    0x8000_0000,
    u32::MAX,
    0x3F80_0000, // 1.0f
    0xBF80_0000, // -1.0f
    0x7FC0_0000, // NaN
    0x7F80_0000, // +inf
    0x0000_0001, // denormal as float
];

#[test]
fn corners_agree_on_every_op() {
    for op in ALU_OPS {
        for &a in &CORNERS {
            for &b in &CORNERS {
                for c in [0u32, 1, 0x4000_0000, u32::MAX] {
                    let folded =
                        fold_alu(op, a, b, c).unwrap_or_else(|| panic!("{op:?} must fold"));
                    let executed = gpu_sim::alu(op, a, b, c);
                    assert_eq!(
                        folded, executed,
                        "{op:?}({a:#x}, {b:#x}, {c:#x}) diverges: \
                         fold {folded:#x} vs exec {executed:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn non_alu_ops_refuse_to_fold() {
    assert_eq!(fold_alu(Op::Bar, 0, 0, 0), None);
    assert_eq!(fold_alu(Op::Exit, 0, 0, 0), None);
    assert_eq!(fold_alu(Op::Bra { target: 0 }, 0, 0, 0), None);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_inputs_agree_on_every_op(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        for op in ALU_OPS {
            let folded = fold_alu(op, a, b, c).expect("ALU op folds");
            let executed = gpu_sim::alu(op, a, b, c);
            prop_assert_eq!(
                folded,
                executed,
                "{:?}({:#x}, {:#x}, {:#x}) diverges",
                op, a, b, c
            );
        }
    }
}

/// Registers in the executed warp; sources and destination are drawn from
/// these, so a destination often aliases a source.
const REGS: u8 = 3;

/// A source operand: register `pick` when it is below [`REGS`], else
/// the immediate `imm`.
fn source(pick: u8, imm: u32) -> Operand {
    if pick < REGS {
        Reg(pick).into()
    } else {
        Operand::Imm(imm)
    }
}

/// `dst = op(srcs)` in the lanes that are active and pass the guard, by
/// the definition: `alu` lane by lane over the registers as they were
/// before the instruction, every other lane untouched.
fn per_lane_reference(w: &Warp, instr: &Instruction) -> Vec<u32> {
    let d = instr.dst.expect("ALU ops write a register");
    let read = |o: Option<&Operand>, lane: u32| match o {
        Some(&Operand::Reg(r)) => w.reg(r, lane),
        Some(&Operand::Imm(v)) => v,
        None => 0,
    };
    (0..w.warp_size())
        .map(|lane| {
            let active = w.active_mask() & (1 << lane) != 0;
            let guarded = instr.guard.is_none_or(|g| g.accepts(w.pred(g.pred, lane)));
            if active && guarded {
                let [a, b, c] = [0, 1, 2].map(|i| read(instr.srcs.get(i), lane));
                gpu_sim::alu(instr.op, a, b, c)
            } else {
                w.reg(d, lane)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `execute` on every ALU op equals the per-lane definition, over
    /// warp sizes 8 and 32, random active masks (bits past the warp size
    /// included), random guard predicates and polarity, register or
    /// immediate sources, and destinations that alias a source.
    #[test]
    fn vector_execute_matches_per_lane_alu(
        wide in any::<bool>(),
        regs in prop::collection::vec(any::<u32>(), usize::from(REGS) * 32),
        corner_lanes in any::<u32>(),
        active in any::<u32>(),
        guard_bits in any::<u32>(),
        guard in 0u8..3,
        picks in (0u8..5, 0u8..5, 0u8..5, 0u8..REGS),
        imms in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let dst = picks.3;
        let ws: u32 = if wide { 32 } else { 8 };
        let full = u32::MAX >> (32 - ws);
        let mut w = Warp::new(0, 0, 0, u16::from(REGS), ws, full, 0);
        for (i, v) in w.regs.iter_mut().enumerate() {
            // Some lanes hold float and integer corner cases instead.
            let lane = (i % ws as usize) as u32;
            *v = if corner_lanes & (1 << lane) != 0 { CORNERS[i % CORNERS.len()] } else { regs[i] };
        }
        for lane in 0..ws {
            w.set_pred(Pred(1), lane, guard_bits & (1 << lane) != 0);
        }
        w.stack.last_mut().expect("fresh warp has a path").mask = active;
        let srcs = [source(picks.0, imms.0), source(picks.1, imms.1), source(picks.2, imms.2)];
        let mut global = GlobalMemory::new();
        let mut shared = [0u32; 4];
        for op in ALU_OPS {
            let mut instr =
                Instruction::new(op, Some(Reg(dst)), None, srcs[..op.num_srcs()].to_vec());
            if guard > 0 {
                instr = instr.with_guard(Guard { pred: Pred(1), negate: guard == 2 });
            }
            let want = per_lane_reference(&w, &instr);
            let mut got = w.clone();
            let mut ctx = ExecContext {
                global: &mut global,
                shared: &mut shared,
                params: &[],
                grid: Dim3::one_d(1),
                block: Dim3::one_d(ws),
                ctaid: Dim3::one_d(0),
            };
            execute(&mut got, &instr, &mut ctx, &mut Vec::new());
            prop_assert_eq!(got.reg_lanes(Reg(dst)), &want[..], "{}", instr);
            for r in (0..REGS).filter(|&r| r != dst) {
                prop_assert_eq!(got.reg_lanes(Reg(r)), w.reg_lanes(Reg(r)), "{} wrote r{}", instr, r);
            }
        }
    }
}
