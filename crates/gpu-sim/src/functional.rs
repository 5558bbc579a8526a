//! Headless, timing-free execution of one threadblock through the
//! functional executor (`exec.rs`).
//!
//! This is the shared substrate for every value-level oracle in the
//! workspace: the redundancy tracer (`tracer.rs`) and the marking
//! soundness sanitizer in `simt-verify` both drive it with their own
//! [`FunctionalObserver`]. Warps are stepped round-robin with correct
//! barrier semantics (a `bar.sync` parks the warp until every non-exited
//! warp of the TB arrives), SIMT-stack divergence and reconvergence, but
//! no pipeline model — one instruction per warp per scheduling pass.

use crate::exec::{execute, ExecContext, ExecEffect};
use crate::mem::{GlobalMemory, MAX_GLOBAL_ADDR};
use crate::warp::{Warp, WarpState};
use simt_compiler::CompiledKernel;
use simt_isa::{AtomOp, Dim3, Instruction, LaunchConfig, MemSpace};
use std::collections::HashSet;

/// Hooks invoked around every dynamic warp instruction of a headless run.
///
/// `occurrence` is the 1-based dynamic execution count of `pc` *within
/// the observed warp* — the DARSIE instance number used to align the same
/// dynamic occurrence across warps of a TB.
pub trait FunctionalObserver {
    /// Called before `instr` executes: the warp still holds its
    /// pre-execution register state and the active mask of the issuing
    /// path (the warp has not advanced past `pc` yet).
    fn before_instruction(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _instr: &Instruction,
        _warp: &Warp,
    ) {
    }

    /// Called after `instr` executed, with destination registers /
    /// predicates updated. Branch, barrier and exit control effects are
    /// applied to the warp *after* this hook returns.
    fn after_instruction(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _instr: &Instruction,
        _warp: &Warp,
    ) {
    }

    /// Called for every shared-memory access with the per-lane `(lane,
    /// byte address)` pairs of the participating lanes. Fires between
    /// `before_instruction` and `after_instruction`.
    fn shared_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &[(u32, u64)],
        _is_store: bool,
    ) {
    }

    /// Called for every global-memory access with the per-lane `(lane,
    /// byte address)` pairs of the participating lanes. Fires between
    /// `before_instruction` and `after_instruction`. Atomics arrive with
    /// both `is_store` and `is_atomic` set.
    fn global_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &[(u32, u64)],
        _is_store: bool,
        _is_atomic: bool,
    ) {
    }

    /// Called when a TB-wide barrier releases: every live warp arrived
    /// and is about to resume. Delimits the barrier epochs of the run.
    fn barrier_release(&mut self) {}
}

/// Observer that records nothing (plain functional execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl FunctionalObserver for NullObserver {}

/// The `i`-th threadblock of a grid in row-major (x fastest) launch order.
#[must_use]
pub fn ctaid_at(grid: Dim3, i: u64) -> Dim3 {
    Dim3::three_d(
        (i % u64::from(grid.x)) as u32,
        ((i / u64::from(grid.x)) % u64::from(grid.y)) as u32,
        (i / (u64::from(grid.x) * u64::from(grid.y))) as u32,
    )
}

/// Runs one threadblock to completion, invoking `observer` around every
/// dynamic warp instruction. Global memory effects are applied to
/// `global`; shared memory is private to the TB and dropped afterwards.
pub fn run_tb_functional<O: FunctionalObserver>(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    ctaid: Dim3,
    global: &mut GlobalMemory,
    observer: &mut O,
) {
    let ws = launch.warp_size;
    let threads = launch.threads_per_block();
    let num_warps = launch.warps_per_block() as usize;
    let mut shared = vec![0u32; (ck.kernel.shared_mem_bytes as usize).div_ceil(4)];
    let mut warps: Vec<Warp> = (0..num_warps)
        .map(|w| {
            let lanes = threads.saturating_sub(w as u32 * ws).min(ws);
            let full = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
            Warp::new(w, 0, w as u32, ck.kernel.num_regs, ws, full, w as u64)
        })
        .collect();
    // Dynamic execution count per (warp, pc), flattened warp-major.
    let num_instrs = ck.kernel.instrs.len();
    let mut occurrences = vec![0u32; num_warps * num_instrs];
    let mut at_barrier = vec![false; num_warps];
    let mut addrs = Vec::with_capacity(ws as usize);

    loop {
        let mut progressed = false;
        for w in 0..num_warps {
            if warps[w].state == WarpState::Done || at_barrier[w] {
                continue;
            }
            let Some(pc) = warps[w].next_pc() else {
                warps[w].state = WarpState::Done;
                continue;
            };
            let instr = &ck.kernel.instrs[pc];
            let o = &mut occurrences[w * num_instrs + pc];
            *o += 1;
            let occurrence = *o;

            observer.before_instruction(w, pc, occurrence, instr, &warps[w]);

            warps[w].advance();
            let effect = {
                let mut ctx = ExecContext {
                    global,
                    shared: &mut shared,
                    params: &launch.params,
                    grid: launch.grid,
                    block: launch.block,
                    ctaid,
                };
                execute(&mut warps[w], instr, &mut ctx, &mut addrs)
            };
            progressed = true;

            if let ExecEffect::Memory { space, is_store, is_atomic } = effect {
                match space {
                    MemSpace::Shared => {
                        observer.shared_access(w, pc, occurrence, &addrs, is_store);
                    }
                    MemSpace::Global => {
                        observer.global_access(w, pc, occurrence, &addrs, is_store, is_atomic);
                    }
                    MemSpace::Param => {}
                }
            }

            observer.after_instruction(w, pc, occurrence, instr, &warps[w]);

            match effect {
                ExecEffect::Branch { taken, target } => {
                    let reconv = ck.recon.recon[pc].unwrap_or(usize::MAX);
                    warps[w].take_branch(pc, target, taken, reconv);
                    warps[w].reconverge();
                }
                ExecEffect::Barrier => {
                    at_barrier[w] = true;
                    warps[w].reconverge();
                }
                ExecEffect::Exit => {
                    if warps[w].exit_path() {
                        warps[w].state = WarpState::Done;
                    }
                    warps[w].reconverge();
                }
                _ => {
                    warps[w].reconverge();
                }
            }
        }
        // Barrier release: once every live warp is parked, open the gate.
        let all_blocked_or_done =
            warps.iter().enumerate().all(|(i, w)| w.state == WarpState::Done || at_barrier[i]);
        if all_blocked_or_done {
            if warps.iter().all(|w| w.state == WarpState::Done) {
                break;
            }
            observer.barrier_release();
            at_barrier.fill(false);
        }
        if !progressed && !at_barrier.iter().any(|&b| b) {
            break;
        }
    }
}

/// One shared-memory race observed during functional replay: two threads
/// touched the same shared word in the same barrier epoch, at least one
/// of them writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedRace {
    /// Static pc of the earlier access of the pair.
    pub first_pc: usize,
    /// Linear thread id of the earlier access.
    pub first_thread: u32,
    /// Static pc of the later (conflicting) access.
    pub second_pc: usize,
    /// Linear thread id of the later access.
    pub second_thread: u32,
    /// Shared word index (byte address / 4) the pair collided on.
    pub word: u64,
    /// True for write/write, false for read/write.
    pub write_write: bool,
}

/// Per-word shadow cell: the epoch's last write plus a two-point summary
/// of the epoch's readers. Tracking only the minimum and maximum reader
/// thread is enough to answer "did any thread other than the writer read
/// this word?" without storing every reader.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowCell {
    /// `(epoch, thread, pc)` of the last write.
    write: Option<(u32, u32, usize)>,
    /// Epoch the reader summary belongs to.
    read_epoch: u32,
    /// `(thread, pc)` of the lowest-numbered reader this epoch.
    min_reader: Option<(u32, usize)>,
    /// `(thread, pc)` of the highest-numbered reader this epoch.
    max_reader: Option<(u32, usize)>,
}

/// Shadow-memory race sanitizer for one threadblock's functional replay.
///
/// The dynamic half of the shared-memory race detector: where the static
/// pass (`simt-verify`'s `races` module) cannot classify an address as
/// thread-affine, this observer still reports precise races — offending
/// pcs, thread ids and the shared word — for the interleaving the
/// round-robin replay actually executes. Epochs advance on every TB-wide
/// barrier release; within an epoch, warp scheduling order is not a
/// happens-before order, so any cross-thread write/write or read/write
/// pair on one word is a race. Raced-on words stay *tainted* for the rest
/// of the run so redundancy claims depending on them can be downgraded.
#[derive(Debug, Default)]
pub struct RaceSanitizer {
    warp_size: u32,
    epoch: u32,
    /// Shadow cell per shared word, indexed by word and grown on first
    /// touch; `execute` bounds every shared address by the block's
    /// scratchpad, so this never outgrows it.
    cells: Vec<ShadowCell>,
    tainted: HashSet<u64>,
    races: Vec<SharedRace>,
    reported: HashSet<(usize, usize)>,
}

impl RaceSanitizer {
    /// Sanitizer for a TB whose warps are `warp_size` lanes wide.
    #[must_use]
    pub fn new(warp_size: u32) -> RaceSanitizer {
        RaceSanitizer { warp_size, ..RaceSanitizer::default() }
    }

    /// All races observed so far, in detection order (one per static
    /// `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[SharedRace] {
        &self.races
    }

    /// True when some race touched `word` at any point of the run.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.tainted.contains(&word)
    }

    /// Shared word indices touched by any observed race.
    #[must_use]
    pub fn tainted_words(&self) -> &HashSet<u64> {
        &self.tainted
    }

    fn report(&mut self, race: SharedRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    fn record_access(
        &mut self,
        warp_index: usize,
        pc: usize,
        addrs: &[(u32, u64)],
        is_store: bool,
    ) {
        let epoch = self.epoch;
        for &(lane, addr) in addrs {
            let thread = warp_index as u32 * self.warp_size + lane;
            let word = addr / 4;
            let slot = usize::try_from(word).expect("shared word index fits usize");
            if slot >= self.cells.len() {
                self.cells.resize(slot + 1, ShadowCell::default());
            }
            let cell = &mut self.cells[slot];
            let seen = *cell;
            if is_store {
                cell.write = Some((epoch, thread, pc));
            } else {
                if cell.read_epoch != epoch {
                    cell.read_epoch = epoch;
                    cell.min_reader = None;
                    cell.max_reader = None;
                }
                match cell.min_reader {
                    Some((t, _)) if t <= thread => {}
                    _ => cell.min_reader = Some((thread, pc)),
                }
                match cell.max_reader {
                    Some((t, _)) if t >= thread => {}
                    _ => cell.max_reader = Some((thread, pc)),
                }
            }
            if let Some((we, wt, wpc)) = seen.write {
                if we == epoch && wt != thread {
                    self.report(SharedRace {
                        first_pc: wpc,
                        first_thread: wt,
                        second_pc: pc,
                        second_thread: thread,
                        word,
                        write_write: is_store,
                    });
                }
            }
            if is_store && seen.read_epoch == epoch {
                let other = [seen.min_reader, seen.max_reader]
                    .into_iter()
                    .flatten()
                    .find(|&(t, _)| t != thread);
                if let Some((rt, rpc)) = other {
                    self.report(SharedRace {
                        first_pc: rpc,
                        first_thread: rt,
                        second_pc: pc,
                        second_thread: thread,
                        word,
                        write_write: false,
                    });
                }
            }
        }
    }
}

impl FunctionalObserver for RaceSanitizer {
    fn shared_access(
        &mut self,
        warp_index: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &[(u32, u64)],
        is_store: bool,
    ) {
        self.record_access(warp_index, pc, addrs, is_store);
    }

    fn barrier_release(&mut self) {
        self.epoch += 1;
    }
}

/// One inter-thread-block global-memory race observed during replay: two
/// distinct blocks touched the same global word within one kernel
/// launch, in a combination whose result depends on block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalRace {
    /// Static pc of the earlier access of the pair.
    pub first_pc: usize,
    /// Linear block index of the earlier access.
    pub first_block: u64,
    /// Static pc of the later (conflicting) access.
    pub second_pc: usize,
    /// Linear block index of the later access.
    pub second_block: u64,
    /// Global word index (byte address / 4) the pair collided on.
    pub word: u64,
    /// True for write/write, false for read/write.
    pub write_write: bool,
}

/// Per-word shadow cell at block granularity: the launch's last write
/// plus a two-point summary of the reading blocks. Minimum and maximum
/// reader block suffice to answer "did any block other than the writer
/// read this word?" without storing every reader.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalShadowCell {
    /// `(block, pc, atomic op)` of the last write; the op is `None` for
    /// a plain store.
    write: Option<(u64, usize, Option<AtomOp>)>,
    /// `(block, pc)` of the lowest-numbered reading block.
    min_reader: Option<(u64, usize)>,
    /// `(block, pc)` of the highest-numbered reading block.
    max_reader: Option<(u64, usize)>,
}

/// Words per page of [`GlobalRaceSanitizer`]'s shadow page table.
const SHADOW_PAGE_WORDS: usize = 1024;

/// Highest global word an instruction can address.
const MAX_GLOBAL_WORD: u64 = MAX_GLOBAL_ADDR / 4;

/// Shadow-memory sanitizer for *inter-thread-block* global races across
/// one kernel launch.
///
/// The dynamic half of the block-independence certifier (`simt-verify`'s
/// `blocks` module): the whole launch is a single epoch — blocks of one
/// launch have no synchronization between them, so any cross-block
/// write/write or read/write pair on one global word is a race. The one
/// exemption mirrors the static side exactly: two *same-op commutative*
/// atomics (`add`/`add`, `max`/`max`, `min`/`min`) leave the final
/// memory value order-independent. Mixed commutative ops (`add` vs
/// `max`) do not commute with each other, and `exch` is last-writer-wins
/// — both stay plain write hazards. The caller reports each write's
/// [`AtomOp`] (or `None` for a plain store) via
/// [`record_access`](GlobalRaceSanitizer::record_access).
///
/// Callers drive it explicitly (not as a [`FunctionalObserver`], since
/// commutativity needs the kernel's opcode): call
/// [`set_block`](GlobalRaceSanitizer::set_block) before replaying each
/// threadblock, then forward every `global_access` hook. Raced-on words
/// stay *tainted* for the rest of the launch so redundancy claims that
/// read them can be downgraded.
///
/// The shadow is a hash-free page table: page `word >> 10` is a boxed
/// run of 1024 cells, allocated the first time the launch touches one of
/// its words, so each access costs one indexed lookup. Addresses are a
/// `u32` base plus an `i32` offset, which bounds the table at about
/// 1.5 M page slots (12 MiB) even for a wild address. A launch's table
/// reaches only its highest touched page, and only touched pages hold
/// cells.
#[derive(Debug, Default)]
pub struct GlobalRaceSanitizer {
    block: u64,
    /// Page table of shadow cells: page `word >> 10` holds the
    /// [`SHADOW_PAGE_WORDS`] cells of its words, allocated on first touch.
    pages: Vec<Option<Box<[GlobalShadowCell; SHADOW_PAGE_WORDS]>>>,
    tainted: HashSet<u64>,
    races: Vec<GlobalRace>,
    reported: HashSet<(usize, usize)>,
    commutative_overlap: bool,
}

impl GlobalRaceSanitizer {
    /// Fresh sanitizer for one kernel launch.
    #[must_use]
    pub fn new() -> GlobalRaceSanitizer {
        GlobalRaceSanitizer::default()
    }

    /// Declares the linear block index about to be replayed.
    pub fn set_block(&mut self, block: u64) {
        self.block = block;
    }

    /// All inter-block races observed so far, in detection order (one
    /// per static `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[GlobalRace] {
        &self.races
    }

    /// True when some inter-block race touched `word`.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.tainted.contains(&word)
    }

    /// Global word indices touched by any observed inter-block race.
    #[must_use]
    pub fn tainted_words(&self) -> &HashSet<u64> {
        &self.tainted
    }

    /// True when two distinct blocks collided on one word through the
    /// commuting-atomic exemption (no race, but the blocks do share
    /// memory, so the launch is at best commutative-atomics-only).
    #[must_use]
    pub fn commutative_overlap(&self) -> bool {
        self.commutative_overlap
    }

    fn report(&mut self, race: GlobalRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    /// Records one global access of the current block. `atom` is the
    /// access's atomic op (`None` for a plain load or store): only two
    /// writes with the *same* commutative op (`add`/`max`/`min`, not
    /// `exch`) may collide across blocks without a race.
    pub fn record_access(
        &mut self,
        pc: usize,
        addrs: &[(u32, u64)],
        is_store: bool,
        atom: Option<AtomOp>,
    ) {
        let block = self.block;
        for &(_lane, addr) in addrs {
            let word = addr / 4;
            let cell = self.cell_mut(word);
            let seen = *cell;
            if is_store {
                cell.write = Some((block, pc, atom));
            } else {
                match cell.min_reader {
                    Some((b, _)) if b <= block => {}
                    _ => cell.min_reader = Some((block, pc)),
                }
                match cell.max_reader {
                    Some((b, _)) if b >= block => {}
                    _ => cell.max_reader = Some((block, pc)),
                }
            }
            if let Some((wb, wpc, watom)) = seen.write {
                // A plain read of a word any other block wrote — even
                // atomically — observes an order-dependent value; two
                // writes race unless both are the same commuting atomic.
                if wb != block {
                    let same_commuting = is_store
                        && matches!(
                            (atom, watom),
                            (Some(x), Some(y)) if x == y && x != AtomOp::Exch
                        );
                    if same_commuting {
                        self.commutative_overlap = true;
                    } else {
                        self.report(GlobalRace {
                            first_pc: wpc,
                            first_block: wb,
                            second_pc: pc,
                            second_block: block,
                            word,
                            write_write: is_store,
                        });
                    }
                }
            }
            if is_store {
                let other = [seen.min_reader, seen.max_reader]
                    .into_iter()
                    .flatten()
                    .find(|&(b, _)| b != block);
                if let Some((rb, rpc)) = other {
                    self.report(GlobalRace {
                        first_pc: rpc,
                        first_block: rb,
                        second_pc: pc,
                        second_block: block,
                        word,
                        write_write: false,
                    });
                }
            }
        }
    }

    /// The shadow cell of global `word`, creating its page on first touch.
    ///
    /// # Panics
    ///
    /// Panics when `word` lies beyond the reach of a `u32` base plus an
    /// `i32` offset, the widest address the ISA can form.
    fn cell_mut(&mut self, word: u64) -> &mut GlobalShadowCell {
        assert!(
            word <= MAX_GLOBAL_WORD,
            "global word {word:#x} is beyond the ISA's u32 base + i32 offset reach"
        );
        let page = (word / SHADOW_PAGE_WORDS as u64) as usize;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let cells = self.pages[page].get_or_insert_with(|| {
            vec![GlobalShadowCell::default(); SHADOW_PAGE_WORDS]
                .into_boxed_slice()
                .try_into()
                .expect("a page is SHADOW_PAGE_WORDS cells")
        });
        &mut cells[(word % SHADOW_PAGE_WORDS as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
    use std::collections::{BTreeSet, HashMap};

    /// Counting observer: every before has a matching after, occurrences
    /// are 1-based and contiguous per (warp, pc).
    #[derive(Default)]
    struct Counter {
        before: u64,
        after: u64,
        max_occurrence: u32,
        /// Last occurrence seen per (warp, pc).
        last: HashMap<(usize, usize), u32>,
    }

    impl FunctionalObserver for Counter {
        fn before_instruction(
            &mut self,
            w: usize,
            pc: usize,
            occ: u32,
            _i: &Instruction,
            _warp: &Warp,
        ) {
            let last = self.last.entry((w, pc)).or_insert(0);
            assert_eq!(occ, *last + 1, "warp {w} pc {pc}: occurrence skipped or repeated");
            *last = occ;
            self.before += 1;
            self.max_occurrence = self.max_occurrence.max(occ);
        }
        fn after_instruction(
            &mut self,
            w: usize,
            pc: usize,
            occ: u32,
            _i: &Instruction,
            _warp: &Warp,
        ) {
            assert_eq!(self.last.get(&(w, pc)), Some(&occ), "after does not match before");
            self.after += 1;
        }
    }

    #[test]
    fn observer_sees_every_instruction_once() {
        let mut b = KernelBuilder::new("obs");
        let t = b.special(SpecialReg::TidX);
        let out = b.param(0);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, t, 0);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(64 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(64)).with_params(vec![Value(buf as u32)]);
        let mut obs = Counter::default();
        run_tb_functional(&ck, &launch, Dim3::three_d(0, 0, 0), &mut mem, &mut obs);
        assert_eq!(obs.before, obs.after);
        // 2 warps x 6 instructions (incl. exit), straight-line code.
        assert_eq!(obs.before, 2 * ck.kernel.instrs.len() as u64);
        assert_eq!(obs.max_occurrence, 1);
        // The store really happened.
        assert_eq!(mem.read_u32(buf + 4 * 63), 63);
    }

    #[test]
    fn occurrences_count_per_warp_and_pc_through_a_divergent_loop() {
        // Thread t loops (t & 3) + 1 times, so every warp diverges at the
        // back edge and runs the body four times; a divergent `if` inside
        // the body splits the warp again on every trip.
        let mut b = KernelBuilder::new("divloop");
        let t = b.special(SpecialReg::TidX);
        let out = b.param(0);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(out, off);
        let low = b.and(t, 3u32);
        let trips = b.iadd(low, 1u32);
        let acc = b.mov(0u32);
        b.for_count(trips, |b, i| {
            let bit = b.and(t, 1u32);
            let odd = b.setp(simt_isa::CmpOp::Ne, bit, 0u32);
            b.if_then(simt_isa::Guard::if_true(odd), |b| b.iadd_to(acc, acc, i));
            b.iadd_to(acc, acc, 1u32);
        });
        b.store(MemSpace::Global, addr, acc, 0);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(64 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(64)).with_params(vec![Value(buf as u32)]);
        let mut obs = Counter::default();
        run_tb_functional(&ck, &launch, Dim3::three_d(0, 0, 0), &mut mem, &mut obs);
        assert_eq!(obs.before, obs.after);
        assert_eq!(obs.max_occurrence, 4, "the body runs once per trip of the longest lane");
        // In both warps every pc ran: once outside the loop, four times
        // inside it (the `if` body too, since lanes 3, 7, ... are odd).
        for w in 0..2 {
            let counts: BTreeSet<u32> =
                (0..ck.kernel.instrs.len()).map(|pc| obs.last[&(w, pc)]).collect();
            assert_eq!(counts, BTreeSet::from([1, 4]), "warp {w}");
        }
        // Lane t counted trips + the odd-lane sum of 0..trips.
        for t in 0..64u32 {
            let n = (t & 3) + 1;
            let want = n + if t & 1 == 1 { n * (n - 1) / 2 } else { 0 };
            assert_eq!(mem.read_u32(buf + 4 * u64::from(t)), want, "lane {t}");
        }
    }

    #[test]
    fn global_sanitizer_exempts_only_same_op_commutative_atomics() {
        // Same-op commutative collision (add/add) across blocks: no
        // race, but the overlap is recorded.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Add));
        assert!(s.races().is_empty());
        assert!(s.commutative_overlap());

        // Mixed commutative ops (add vs max) do not commute with each
        // other: the final value is block-order-dependent, so this is a
        // race even though each op commutes with itself.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Max));
        assert_eq!(s.races().len(), 1);
        assert!(!s.commutative_overlap());
        assert!(s.is_tainted(16));

        // exch/exch is last-writer-wins: a plain write/write hazard.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Exch));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Exch));
        assert_eq!(s.races().len(), 1);

        // Atomic against a plain store is never exempt.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, None);
        assert_eq!(s.races().len(), 1);
    }

    #[test]
    fn global_sanitizer_pages_are_independent_and_reach_past_4_gib() {
        const PAGE_BYTES: u64 = 4 * SHADOW_PAGE_WORDS as u64;
        let high = 1u64 << 32;
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(10, &[(0, 0), (1, high), (2, PAGE_BYTES + 8)], true, None);
        s.record_access(11, &[(0, 3 * PAGE_BYTES)], false, None);
        s.set_block(1);
        // Word 2 shares its page slot offset with the written word 1026
        // but lives in page 0: no collision.
        s.record_access(20, &[(0, 8)], true, None);
        assert!(s.races().is_empty());
        // Write/write on word 0, read/write on a word above 2^32 (which
        // must not alias word 0), write after another block's read.
        s.record_access(21, &[(0, 0)], true, None);
        s.record_access(22, &[(5, high)], false, None);
        s.record_access(23, &[(7, 3 * PAGE_BYTES)], true, None);
        let race = |first_pc, second_pc, word, write_write| GlobalRace {
            first_pc,
            first_block: 0,
            second_pc,
            second_block: 1,
            word,
            write_write,
        };
        assert_eq!(
            s.races(),
            &[
                race(10, 21, 0, true),
                race(10, 22, high / 4, false),
                race(11, 23, 3 * SHADOW_PAGE_WORDS as u64, false),
            ]
        );
        assert!(s.is_tainted(0) && s.is_tainted(high / 4));
        assert!(!s.is_tainted(2) && !s.is_tainted(SHADOW_PAGE_WORDS as u64 + 2));

        // A block never races with itself, in any page.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(4);
        s.record_access(0, &[(0, high), (1, PAGE_BYTES)], true, None);
        s.record_access(1, &[(0, high), (1, PAGE_BYTES)], false, None);
        s.record_access(2, &[(0, high)], true, Some(AtomOp::Exch));
        assert!(s.races().is_empty() && !s.commutative_overlap());

        // The same-op exemption and the exch hazard hold above 4 GiB and
        // at word 0 alike.
        for addr in [0, high] {
            let mut s = GlobalRaceSanitizer::new();
            s.set_block(0);
            s.record_access(0, &[(0, addr)], true, Some(AtomOp::Add));
            s.set_block(1);
            s.record_access(1, &[(0, addr)], true, Some(AtomOp::Add));
            assert!(s.races().is_empty() && s.commutative_overlap());
            s.set_block(2);
            s.record_access(2, &[(0, addr)], true, Some(AtomOp::Exch));
            assert_eq!(
                s.races(),
                &[GlobalRace {
                    first_pc: 1,
                    first_block: 1,
                    second_pc: 2,
                    second_block: 2,
                    word: addr / 4,
                    write_write: true,
                }]
            );
        }
    }

    #[test]
    #[should_panic(expected = "beyond the ISA")]
    fn global_sanitizer_rejects_an_unreachable_address() {
        let mut s = GlobalRaceSanitizer::new();
        s.record_access(0, &[(0, u64::MAX - 3)], true, None);
    }

    #[test]
    fn shared_sanitizer_tracks_epochs_per_word() {
        let mut s = RaceSanitizer::new(32);
        // Thread 1 writes word 100, then reads it back: no race.
        s.shared_access(0, 0, 1, &[(1, 400)], true);
        s.shared_access(0, 1, 1, &[(1, 400)], false);
        assert!(s.races().is_empty());
        // Thread 32 (warp 1, lane 0) reads it in the same epoch.
        s.shared_access(1, 2, 1, &[(0, 400)], false);
        // Thread 33 writes word 0 after threads 1 and 32 read word 100.
        s.shared_access(1, 3, 1, &[(1, 0), (1, 400)], true);
        assert_eq!(
            s.races(),
            &[
                SharedRace {
                    first_pc: 0,
                    first_thread: 1,
                    second_pc: 2,
                    second_thread: 32,
                    word: 100,
                    write_write: false,
                },
                SharedRace {
                    first_pc: 0,
                    first_thread: 1,
                    second_pc: 3,
                    second_thread: 33,
                    word: 100,
                    write_write: true,
                },
                SharedRace {
                    first_pc: 1,
                    first_thread: 1,
                    second_pc: 3,
                    second_thread: 33,
                    word: 100,
                    write_write: false,
                },
            ]
        );
        assert_eq!(s.tainted_words(), &HashSet::from([100]));
        // After a barrier the same accesses by other threads are ordered.
        s.barrier_release();
        s.shared_access(0, 4, 1, &[(2, 0), (2, 400)], true);
        s.shared_access(1, 5, 1, &[(3, 4)], false);
        assert_eq!(s.races().len(), 3);
    }

    #[test]
    fn ctaid_enumeration_is_row_major() {
        let grid = Dim3::three_d(2, 3, 2);
        assert_eq!(ctaid_at(grid, 0), Dim3::three_d(0, 0, 0));
        assert_eq!(ctaid_at(grid, 1), Dim3::three_d(1, 0, 0));
        assert_eq!(ctaid_at(grid, 2), Dim3::three_d(0, 1, 0));
        assert_eq!(ctaid_at(grid, 6), Dim3::three_d(0, 0, 1));
        assert_eq!(ctaid_at(grid, 11), Dim3::three_d(1, 2, 1));
    }
}
