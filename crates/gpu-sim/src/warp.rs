//! Per-warp architectural and microarchitectural state: vector registers,
//! the SIMT reconvergence stack, instruction buffer and scoreboard.

use simt_isa::{Instruction, Pred, Reg};
use std::collections::VecDeque;
use std::sync::Arc;

/// A 32-bit lane mask.
pub type LaneMask = u32;

/// One SIMT stack entry: a pending execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next instruction index of this path.
    pub next_pc: usize,
    /// Lanes executing this path.
    pub mask: LaneMask,
    /// Instruction index where this path reconverges with its sibling
    /// (`usize::MAX` = at thread exit).
    pub reconv: usize,
}

/// Entries of the per-warp instruction buffer. `Instr` entries occupy real
/// I-buffer slots; `SkipMarker` and `Ghost` are the zero-width bookkeeping
/// records of eliminated instructions, applied in program order at issue.
#[derive(Debug, Clone, PartialEq)]
pub enum IBufEntry {
    /// A fetched instruction awaiting issue.
    Instr {
        /// Static instruction index.
        pc: usize,
        /// When this warp was elected DARSIE leader for the instruction,
        /// the dynamic instance it leads (its result is snapshotted for
        /// followers at issue and `LeaderWB` set at writeback).
        leader: Option<u32>,
    },
    /// A DARSIE-skipped instruction: the leader's result is copied into
    /// this warp's destination register when the marker reaches its
    /// program-order position (zero cycles, no execution resources).
    SkipMarker {
        /// Static instruction index (for shadow checking / stats).
        pc: usize,
        /// Destination register.
        dst: Reg,
        /// The leader's 32-lane result, shared with the TB's snapshot and
        /// every other follower.
        values: Arc<[u32]>,
    },
    /// A DAC-IDEAL affine-stream instruction: executed functionally at its
    /// program-order position with zero timing cost.
    Ghost {
        /// Static instruction index.
        pc: usize,
    },
}

/// Scheduling state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Eligible for fetch and issue.
    Ready,
    /// Waiting at a `bar.sync` for the rest of its TB.
    AtBarrier,
    /// Stalled at a skippable PC until the leader writes back
    /// (`pc`, `instance`).
    WaitLeader(usize, u32),
    /// Stalled at DARSIE branch synchronization for instruction `pc`.
    BranchSync(usize),
    /// All lanes exited.
    Done,
}

/// A resident warp.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp slot within the SM.
    pub slot: usize,
    /// Index of the owning TB in the SM's resident list.
    pub tb: usize,
    /// Warp index within the TB (bit position in TB-level masks).
    pub warp_in_tb: u32,
    /// Flat register file: `reg * warp_size + lane`.
    pub regs: Vec<u32>,
    /// Flat predicate file: `pred * warp_size + lane`.
    pub preds: Vec<bool>,
    /// Lanes that hold live threads (last warp of a TB may be partial).
    pub full_mask: LaneMask,
    /// SIMT stack; the top entry is the executing path.
    pub stack: Vec<StackEntry>,
    /// Instruction buffer.
    pub ibuffer: VecDeque<IBufEntry>,
    /// Registers with writes in flight (bitset over 256 ids).
    pending_regs: [u64; 4],
    /// Predicates with writes in flight.
    pending_preds: u8,
    /// Scheduling state.
    pub state: WarpState,
    /// Launch order (for greedy-then-oldest).
    pub age: u64,
    /// Cycle until which the fetch stage must not re-probe the I-cache
    /// (outstanding miss).
    pub fetch_ready_at: u64,
    /// Dynamic occurrence count per skippable PC (DARSIE/DAC instance
    /// numbering: the paper's per-register write counts), indexed by PC
    /// and grown on demand; PCs past the end have count zero.
    pub pass_counts: Vec<u32>,
    /// Fetch stalls behind an unissued branch or exit (the frontier would
    /// be speculative otherwise).
    pub fetch_blocked: bool,
    /// SILICON-SYNC: this warp has registered its current basic-block
    /// crossing and is waiting for the rest of the TB.
    pub bb_pending: bool,
    /// Consecutive cycles spent stalled trying to become a DARSIE leader
    /// without resources; bounded to avoid livelock on terminal register
    /// versions that stay bound until warp exit.
    pub leader_stall: u32,
    warp_size: u32,
}

impl Warp {
    /// Creates a warp with `num_regs` registers, all zero, positioned at
    /// instruction 0.
    #[must_use]
    pub fn new(
        slot: usize,
        tb: usize,
        warp_in_tb: u32,
        num_regs: u16,
        warp_size: u32,
        full_mask: LaneMask,
        age: u64,
    ) -> Warp {
        Warp {
            slot,
            tb,
            warp_in_tb,
            regs: vec![0; usize::from(num_regs) * warp_size as usize],
            preds: vec![false; usize::from(simt_isa::reg::NUM_PREDS) * warp_size as usize],
            full_mask,
            stack: vec![StackEntry { next_pc: 0, mask: full_mask, reconv: usize::MAX }],
            ibuffer: VecDeque::new(),
            pending_regs: [0; 4],
            pending_preds: 0,
            state: WarpState::Ready,
            age,
            fetch_ready_at: 0,
            pass_counts: Vec::new(),
            fetch_blocked: false,
            bb_pending: false,
            leader_stall: 0,
            warp_size,
        }
    }

    /// The SIMT width this warp was created with.
    #[must_use]
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Raw scoreboard occupancy (pending register words and predicate
    /// bits), exposed for the digest layer.
    #[must_use]
    pub(crate) fn scoreboard_words(&self) -> ([u64; 4], u8) {
        (self.pending_regs, self.pending_preds)
    }

    /// Currently executing path, if any.
    #[must_use]
    pub fn top(&self) -> Option<&StackEntry> {
        self.stack.last()
    }

    /// Active lane mask of the executing path.
    #[must_use]
    pub fn active_mask(&self) -> LaneMask {
        self.stack.last().map_or(0, |e| e.mask)
    }

    /// Next instruction index to fetch for the executing path.
    #[must_use]
    pub fn next_pc(&self) -> Option<usize> {
        self.stack.last().map(|e| e.next_pc)
    }

    /// PC of the *next unfetched* instruction: continues after whatever is
    /// already buffered. The fetch stage and the DARSIE skipper work at
    /// this frontier, which runs ahead of the issue-stage `next_pc`. Every
    /// buffered entry, real or zero-width, stands for one sequential
    /// instruction.
    #[must_use]
    pub fn fetch_pc(&self) -> Option<usize> {
        Some(self.stack.last()?.next_pc + self.ibuffer.len())
    }

    /// Number of real (fetched-instruction) entries in the I-buffer.
    #[must_use]
    pub fn ibuffer_instrs(&self) -> usize {
        self.ibuffer.iter().filter(|e| matches!(e, IBufEntry::Instr { .. })).count()
    }

    /// Advances the executing path past one sequential instruction.
    pub fn advance(&mut self) {
        if let Some(e) = self.stack.last_mut() {
            e.next_pc += 1;
        }
    }

    /// Pops reconverged paths: while the executing path has reached its
    /// reconvergence point, merge back. Returns true if anything popped.
    pub fn reconverge(&mut self) -> bool {
        let mut popped = false;
        while let Some(&StackEntry { next_pc, reconv, .. }) = self.stack.last() {
            if reconv != usize::MAX && next_pc == reconv {
                self.stack.pop();
                popped = true;
            } else {
                break;
            }
        }
        popped
    }

    /// Applies a resolved branch: `taken` is the lane mask (within the
    /// active mask) branching to `target`; `reconv` is the branch's
    /// reconvergence PC (`usize::MAX` if it reconverges at exit). The
    /// fall-through PC is `pc + 1`. Returns true when the warp diverged.
    ///
    /// # Panics
    ///
    /// Panics if called with an empty stack.
    pub fn take_branch(
        &mut self,
        pc: usize,
        target: usize,
        taken: LaneMask,
        reconv: usize,
    ) -> bool {
        let cur = self.stack.pop().expect("take_branch on a finished warp");
        debug_assert_eq!(cur.next_pc, pc + 1, "branch must be the current instruction");
        let not_taken = cur.mask & !taken;
        if taken == 0 {
            self.stack.push(StackEntry { next_pc: pc + 1, ..cur });
            false
        } else if not_taken == 0 {
            self.stack.push(StackEntry { next_pc: target, ..cur });
            false
        } else {
            // Diverged: continuation (if it reconverges before exit), then
            // the fall-through path, then the taken path on top.
            if reconv != usize::MAX {
                self.stack.push(StackEntry { next_pc: reconv, mask: cur.mask, reconv: cur.reconv });
            }
            self.stack.push(StackEntry { next_pc: pc + 1, mask: not_taken, reconv });
            self.stack.push(StackEntry { next_pc: target, mask: taken, reconv });
            true
        }
    }

    /// Executes `exit` for the current path: pops it. Returns true when
    /// the whole warp is done.
    pub fn exit_path(&mut self) -> bool {
        self.stack.pop();
        if self.stack.is_empty() {
            self.state = WarpState::Done;
            true
        } else {
            false
        }
    }

    // ----- register access -------------------------------------------------

    /// Reads one lane of a register.
    #[must_use]
    pub fn reg(&self, r: Reg, lane: u32) -> u32 {
        self.regs[r.index() * self.warp_size as usize + lane as usize]
    }

    /// Writes one lane of a register.
    pub fn set_reg(&mut self, r: Reg, lane: u32, v: u32) {
        self.regs[r.index() * self.warp_size as usize + lane as usize] = v;
    }

    /// The whole 32-lane vector of a register, borrowed.
    #[must_use]
    pub fn reg_lanes(&self, r: Reg) -> &[u32] {
        let w = self.warp_size as usize;
        &self.regs[r.index() * w..(r.index() + 1) * w]
    }

    /// Reads the whole 32-lane vector of a register.
    #[must_use]
    pub fn reg_vector(&self, r: Reg) -> Vec<u32> {
        self.reg_lanes(r).to_vec()
    }

    /// Overwrites the whole vector of a register.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not exactly one warp wide.
    pub fn set_reg_vector(&mut self, r: Reg, values: &[u32]) {
        let w = self.warp_size as usize;
        assert_eq!(values.len(), w);
        self.regs[r.index() * w..(r.index() + 1) * w].copy_from_slice(values);
    }

    /// Reads one lane of a predicate.
    #[must_use]
    pub fn pred(&self, p: Pred, lane: u32) -> bool {
        self.preds[p.index() * self.warp_size as usize + lane as usize]
    }

    /// Writes one lane of a predicate.
    pub fn set_pred(&mut self, p: Pred, lane: u32, v: bool) {
        self.preds[p.index() * self.warp_size as usize + lane as usize] = v;
    }

    // ----- scoreboard --------------------------------------------------------

    /// Marks a register write in flight.
    pub fn mark_pending(&mut self, r: Reg) {
        self.pending_regs[r.index() / 64] |= 1 << (r.index() % 64);
    }

    /// Clears an in-flight register write (writeback).
    pub fn clear_pending(&mut self, r: Reg) {
        self.pending_regs[r.index() / 64] &= !(1 << (r.index() % 64));
    }

    /// Marks a predicate write in flight.
    pub fn mark_pending_pred(&mut self, p: Pred) {
        self.pending_preds |= 1 << p.index();
    }

    /// Clears an in-flight predicate write.
    pub fn clear_pending_pred(&mut self, p: Pred) {
        self.pending_preds &= !(1 << p.index());
    }

    /// True when `r` has a write in flight.
    #[must_use]
    pub fn is_pending(&self, r: Reg) -> bool {
        self.pending_regs[r.index() / 64] & (1 << (r.index() % 64)) != 0
    }

    /// True when the scoreboard allows `instr` to issue: no source,
    /// destination or guard register has a write in flight (in-order
    /// issue with RAW/WAW/WAR protection).
    #[must_use]
    pub fn scoreboard_ready(&self, instr: &Instruction) -> bool {
        for r in instr.src_regs() {
            if self.is_pending(r) {
                return false;
            }
        }
        if let Some(d) = instr.dst {
            if self.is_pending(d) {
                return false;
            }
        }
        let sel = match instr.op {
            simt_isa::Op::Sel(p) => Some(p),
            _ => None,
        };
        [instr.guard.map(|g| g.pred), instr.pdst, sel]
            .into_iter()
            .flatten()
            .all(|p| self.pending_preds & (1 << p.index()) == 0)
    }

    /// Dynamic occurrences of `pc` this warp has completed (issued or
    /// applied as a skip marker), in program order.
    #[must_use]
    pub fn passes(&self, pc: usize) -> u32 {
        self.pass_counts.get(pc).copied().unwrap_or(0)
    }

    /// Records one completed occurrence of `pc` (called at issue of the
    /// real instruction or at skip-marker application — *all* paths, so
    /// the count never drifts).
    pub fn record_pass(&mut self, pc: usize) -> u32 {
        if pc >= self.pass_counts.len() {
            self.pass_counts.resize(pc + 1, 0);
        }
        self.pass_counts[pc] += 1;
        self.pass_counts[pc]
    }

    /// The occurrence number the *fetch frontier* is about to produce for
    /// `pc`: completed passes plus occurrences already buffered, plus one.
    #[must_use]
    pub fn frontier_instance(&self, pc: usize) -> u32 {
        let buffered = self
            .ibuffer
            .iter()
            .filter(|e| match e {
                IBufEntry::Instr { pc: p, .. }
                | IBufEntry::SkipMarker { pc: p, .. }
                | IBufEntry::Ghost { pc: p } => *p == pc,
            })
            .count() as u32;
        self.passes(pc) + buffered + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Guard, Op, Operand};

    fn warp() -> Warp {
        Warp::new(0, 0, 0, 8, 32, u32::MAX, 0)
    }

    #[test]
    fn fresh_warp_is_converged_at_zero() {
        let w = warp();
        assert_eq!(w.next_pc(), Some(0));
        assert_eq!(w.active_mask(), u32::MAX);
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn uniform_branches_do_not_push() {
        let mut w = warp();
        w.advance(); // pretend the branch at pc 0 was consumed
        assert!(!w.take_branch(0, 5, u32::MAX, 3));
        assert_eq!(w.next_pc(), Some(5));
        assert_eq!(w.stack.len(), 1);

        let mut w2 = warp();
        w2.advance();
        assert!(!w2.take_branch(0, 5, 0, 3));
        assert_eq!(w2.next_pc(), Some(1));
    }

    #[test]
    fn divergence_pushes_both_paths_and_reconverges() {
        let mut w = warp();
        w.advance();
        let taken = 0x0000_FFFF;
        assert!(w.take_branch(0, 10, taken, 20));
        // Taken path first.
        assert_eq!(w.next_pc(), Some(10));
        assert_eq!(w.active_mask(), taken);
        // Simulate the taken path reaching the reconvergence point.
        w.stack.last_mut().unwrap().next_pc = 20;
        assert!(w.reconverge());
        // Now the fall-through path.
        assert_eq!(w.next_pc(), Some(1));
        assert_eq!(w.active_mask(), !taken);
        w.stack.last_mut().unwrap().next_pc = 20;
        assert!(w.reconverge());
        // Continuation: full mask at the join.
        assert_eq!(w.next_pc(), Some(20));
        assert_eq!(w.active_mask(), u32::MAX);
        assert_eq!(w.stack.len(), 1);
    }

    #[test]
    fn divergence_reconverging_at_exit_pops_via_exit() {
        let mut w = warp();
        w.advance();
        assert!(w.take_branch(0, 10, 0xFF, usize::MAX));
        assert_eq!(w.stack.len(), 2, "no continuation entry for exit reconvergence");
        assert!(!w.exit_path(), "taken path exits");
        assert_eq!(w.active_mask(), !0xFFu32);
        assert!(w.exit_path(), "fall-through path exits; warp done");
        assert_eq!(w.state, WarpState::Done);
    }

    #[test]
    fn nested_divergence() {
        let mut w = warp();
        w.advance();
        w.take_branch(0, 10, 0x0F, 30);
        // Inner divergence on the taken path (mask 0x0F).
        w.stack.last_mut().unwrap().next_pc = 12;
        w.take_branch(11, 15, 0x03, 20);
        assert_eq!(w.active_mask(), 0x03);
        w.stack.last_mut().unwrap().next_pc = 20;
        w.reconverge();
        assert_eq!(w.active_mask(), 0x0C, "inner else path");
        w.stack.last_mut().unwrap().next_pc = 20;
        w.reconverge();
        assert_eq!(w.active_mask(), 0x0F, "inner join");
        assert_eq!(w.next_pc(), Some(20));
    }

    #[test]
    fn scoreboard_blocks_raw_and_waw() {
        let mut w = warp();
        let add =
            Instruction::new(Op::IAdd, Some(Reg(2)), None, vec![Reg(1).into(), Operand::Imm(1)]);
        assert!(w.scoreboard_ready(&add));
        w.mark_pending(Reg(1));
        assert!(!w.scoreboard_ready(&add), "RAW");
        w.clear_pending(Reg(1));
        w.mark_pending(Reg(2));
        assert!(!w.scoreboard_ready(&add), "WAW");
        w.clear_pending(Reg(2));
        assert!(w.scoreboard_ready(&add));
    }

    #[test]
    fn scoreboard_blocks_on_guard_and_sel_predicates() {
        let mut w = warp();
        let guarded = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)])
            .with_guard(Guard::if_true(Pred(2)));
        w.mark_pending_pred(Pred(2));
        assert!(!w.scoreboard_ready(&guarded));
        w.clear_pending_pred(Pred(2));
        assert!(w.scoreboard_ready(&guarded));

        let setp = Instruction::new(
            Op::Setp(CmpOp::Lt),
            None,
            Some(Pred(1)),
            vec![Reg(0).into(), Operand::Imm(4)],
        );
        w.mark_pending_pred(Pred(1));
        assert!(!w.scoreboard_ready(&setp), "pdst WAW");

        let sel = Instruction::new(
            Op::Sel(Pred(3)),
            Some(Reg(4)),
            None,
            vec![Reg(0).into(), Reg(1).into()],
        );
        w.mark_pending_pred(Pred(3));
        assert!(!w.scoreboard_ready(&sel), "sel reads its predicate");
    }

    #[test]
    fn register_vector_roundtrip() {
        let mut w = warp();
        let vals: Vec<u32> = (0..32).collect();
        w.set_reg_vector(Reg(3), &vals);
        assert_eq!(w.reg_vector(Reg(3)), vals);
        assert_eq!(w.reg(Reg(3), 7), 7);
        w.set_reg(Reg(3), 7, 99);
        assert_eq!(w.reg(Reg(3), 7), 99);
    }

    #[test]
    fn instance_counting() {
        let mut w = warp();
        assert_eq!(w.frontier_instance(8), 1);
        assert_eq!(w.record_pass(8), 1);
        assert_eq!(w.record_pass(8), 2);
        assert_eq!(w.frontier_instance(8), 3);
        assert_eq!(w.frontier_instance(16), 1, "independent per pc");
        // Buffered occurrences advance the frontier without a pass.
        w.ibuffer.push_back(IBufEntry::Instr { pc: 8, leader: None });
        assert_eq!(w.frontier_instance(8), 4);
        assert_eq!(w.passes(8), 2);
    }

    #[test]
    fn fetch_pc_runs_ahead_of_issue_pc() {
        let mut w = warp();
        assert_eq!(w.fetch_pc(), Some(0));
        w.ibuffer.push_back(IBufEntry::Instr { pc: 0, leader: None });
        assert_eq!(w.fetch_pc(), Some(1));
        w.ibuffer.push_back(IBufEntry::SkipMarker {
            pc: 1,
            dst: Reg(0),
            values: vec![0; 32].into(),
        });
        assert_eq!(w.fetch_pc(), Some(2));
        w.ibuffer.push_back(IBufEntry::Ghost { pc: 2 });
        w.ibuffer.push_back(IBufEntry::Instr { pc: 3, leader: Some(1) });
        assert_eq!(w.fetch_pc(), Some(4), "markers and ghosts stand for one instruction each");
        assert_eq!(w.ibuffer_instrs(), 2, "markers and ghosts do not occupy real slots");
        assert_eq!(w.next_pc(), Some(0), "issue PC unchanged");
        // Issue consumes from the front; the frontier stays put.
        w.ibuffer.pop_front();
        w.advance();
        assert_eq!(w.fetch_pc(), Some(4));
        // A warp with no executing path has no frontier.
        w.stack.clear();
        assert_eq!(w.fetch_pc(), None);
    }

    #[test]
    fn fetch_pc_follows_the_executing_path() {
        let mut w = warp();
        w.advance();
        w.take_branch(0, 10, 0x0000_FFFF, 20);
        w.ibuffer.push_back(IBufEntry::Ghost { pc: 10 });
        assert_eq!(w.fetch_pc(), Some(11), "taken path on top of the stack");
    }

    #[test]
    fn scoreboard_predicate_hazards_are_independent() {
        let mut w = warp();
        // Guarded setp with a `sel`-free body: guard p1, writes p2.
        let setp = Instruction::new(
            Op::Setp(CmpOp::Lt),
            None,
            Some(Pred(2)),
            vec![Reg(0).into(), Operand::Imm(4)],
        )
        .with_guard(Guard::if_true(Pred(1)));
        let sel = Instruction::new(
            Op::Sel(Pred(3)),
            Some(Reg(4)),
            None,
            vec![Reg(0).into(), Reg(1).into()],
        );
        for p in 0..simt_isa::reg::NUM_PREDS {
            w.mark_pending_pred(Pred(p));
            let blocks_setp = p == 1 || p == 2;
            assert_eq!(!w.scoreboard_ready(&setp), blocks_setp, "setp with p{p} pending");
            assert_eq!(!w.scoreboard_ready(&sel), p == 3, "sel with p{p} pending");
            w.clear_pending_pred(Pred(p));
        }
        assert!(w.scoreboard_ready(&setp) && w.scoreboard_ready(&sel));
    }
}
