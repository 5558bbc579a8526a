//! The streaming multiprocessor: fetch (with the DARSIE instruction
//! skipper), decode/I-buffer, issue schedulers, operand collection,
//! execution units, LSU and writeback (paper Figures 4 and 7).

use crate::config::{GpuConfig, SchedulerPolicy, Technique};
use crate::digest::{fold, splitmix64, ComponentDigests, FNV_OFFSET};
use crate::events::{EventKind, EventLog, PipeEvent};
use crate::exec::{execute, ExecContext, ExecEffect};
use crate::mem::{coalesce_lines, smem_conflict_degree, DramModel, GlobalMemory, TagCache};
use crate::profile::{OccupancySample, SmProfile, StallCause, MAX_OCCUPANCY_SAMPLES};
use crate::reuse::ReuseBuffer;
use crate::stats::SimStats;
use crate::tb::TbState;
use crate::timing;
use crate::warp::{IBufEntry, Warp, WarpState};
use darsie::{DarsieConfig, PcCoalescer, ProbeOutcome, WarpMask};
use simt_compiler::{CompiledKernel, LaunchPlan};
use simt_isa::{Dim3, LaunchConfig, MemSpace, Op, Reg};
use std::sync::Arc;

/// Everything static about the running kernel, shared by all SMs.
#[derive(Debug)]
pub struct KernelData {
    /// Compiler output (kernel, markings, reconvergence).
    pub ck: CompiledKernel,
    /// Launch-time finalization (skippable / affine / uniform sets).
    pub plan: LaunchPlan,
    /// The launch geometry and parameters.
    pub launch: LaunchConfig,
    /// `bb_start[pc]`: instruction starts a basic block (SILICON-SYNC
    /// instrumentation points).
    pub bb_start: Vec<bool>,
}

impl KernelData {
    /// Bundles a compiled kernel with its launch.
    #[must_use]
    pub fn new(ck: CompiledKernel, launch: LaunchConfig) -> KernelData {
        let plan = LaunchPlan::new(&ck, &launch);
        let mut bb_start = vec![false; ck.kernel.len()];
        for b in &ck.cfg.blocks {
            if b.start < bb_start.len() {
                bb_start[b.start] = true;
            }
        }
        KernelData { ck, plan, launch, bb_start }
    }

    fn instr(&self, pc: usize) -> &simt_isa::Instruction {
        &self.ck.kernel.instrs[pc]
    }
}

/// An instruction in flight between issue and writeback.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    done: u64,
    warp: usize,
    dst: Option<Reg>,
    pdst: Option<simt_isa::Pred>,
    /// `(pc, instance)` when this is a DARSIE leader execution.
    leader: Option<(usize, u32)>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM index (for round-robin TB placement and debugging).
    pub id: usize,
    cfg: GpuConfig,
    technique: Technique,
    kd: Arc<KernelData>,
    warps: Vec<Option<Warp>>,
    tbs: Vec<Option<TbState>>,
    icache: TagCache,
    l1d: TagCache,
    inflight: Vec<InFlight>,
    sp_busy: Vec<u64>,
    sfu_busy: u64,
    lsu_busy: u64,
    fetch_rr: usize,
    gto_last: Vec<Option<usize>>,
    lrr_next: Vec<usize>,
    pc_coalescer: PcCoalescer,
    uv_reuse: ReuseBuffer,
    used_regs: u32,
    used_smem: u32,
    next_age: u64,
    /// Statistics for this SM.
    pub stats: SimStats,
    /// Pipeline event trace (empty unless `cfg.trace_events`).
    pub events: EventLog,
    /// Cycle-accounted profile (only filled when `cfg.profile`).
    pub profile: SmProfile,
    /// Barrier releases completed on this SM (monotone; the digest layer's
    /// `Barrier` cadence snapshots when this advances).
    pub(crate) barrier_marks: u64,
    now: u64,
    /// Per-cycle scratch, reused every cycle so the steady-state loop
    /// allocates nothing: one scheduler's ordered issue candidates,
    /// operand reads per register bank, writebacks retiring this cycle,
    /// and the lane addresses of the instruction being executed.
    candidates: Vec<usize>,
    banks_used: Vec<u32>,
    retiring: Vec<InFlight>,
    addrs: Vec<(u32, u64)>,
}

impl Sm {
    /// Creates an idle SM.
    #[must_use]
    pub fn new(id: usize, cfg: &GpuConfig, technique: Technique, kd: Arc<KernelData>) -> Sm {
        let dc = match &technique {
            Technique::Darsie(d) => d.clone(),
            _ => DarsieConfig::default(),
        };
        Sm {
            id,
            cfg: cfg.clone(),
            technique,
            kd,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            tbs: (0..cfg.max_tbs_per_sm).map(|_| None).collect(),
            icache: TagCache::new(cfg.icache_lines, cfg.icache_assoc),
            l1d: TagCache::new(cfg.l1d_lines, cfg.l1d_assoc),
            inflight: Vec::new(),
            sp_busy: vec![0; cfg.schedulers_per_sm],
            sfu_busy: 0,
            lsu_busy: 0,
            fetch_rr: 0,
            gto_last: vec![None; cfg.schedulers_per_sm],
            lrr_next: vec![0; cfg.schedulers_per_sm],
            pc_coalescer: PcCoalescer::new(dc.skip_table_ports),
            uv_reuse: ReuseBuffer::new(64),
            used_regs: 0,
            used_smem: 0,
            next_age: 0,
            stats: SimStats::default(),
            events: EventLog::new(if cfg.trace_events { cfg.trace_capacity } else { 0 }),
            profile: SmProfile::new(
                id,
                (cfg.schedulers_per_sm * cfg.issue_width) as u64,
                cfg.max_warps_per_sm as usize,
            ),
            barrier_marks: 0,
            now: 0,
            candidates: Vec::with_capacity(cfg.max_warps_per_sm as usize),
            banks_used: vec![0; cfg.rf_banks],
            retiring: Vec::new(),
            addrs: Vec::with_capacity(cfg.warp_size as usize),
        }
    }

    /// Records a pipeline event when tracing is enabled.
    fn trace(&mut self, warp: usize, pc: usize, kind: EventKind) {
        if self.cfg.trace_events {
            self.events.push(PipeEvent { cycle: self.now, sm: self.id, warp, pc, kind });
        }
    }

    fn darsie(&self) -> Option<&DarsieConfig> {
        match &self.technique {
            Technique::Darsie(d) => Some(d),
            _ => None,
        }
    }

    /// Architectural registers (vector) one TB of this kernel needs. The
    /// DARSIE renaming pool is *not* charged here: per the paper, DARSIE
    /// "uses as many registers as it can before affecting occupancy", so
    /// the pool is carved from whatever is spare at launch time
    /// ([`Sm::launch_tb`]).
    fn regs_per_tb(&self) -> u32 {
        let warps = self.kd.launch.warps_per_block();
        u32::from(self.kd.ck.kernel.num_regs) * warps
    }

    /// Renaming pool for the next TB: up to the configured size, but only
    /// from registers that occupancy does not need. With no spare
    /// registers DARSIE degrades gracefully (leaders fail allocation and
    /// execute normally).
    fn rename_pool_for_next_tb(&self) -> u32 {
        let Some(d) = self.darsie() else { return 0 };
        let base = self.regs_per_tb().max(1);
        let regs_free = self.cfg.vector_regs_per_sm.saturating_sub(self.used_regs);
        if regs_free < base {
            return 0;
        }
        // How many more TBs could occupancy still place here (register-,
        // warp- and slot-limited)? The spare registers are shared among
        // them so none loses its seat to renaming space.
        let free_tb_slots = self.tbs.iter().filter(|t| t.is_none()).count() as u32;
        let free_warps = self.warps.iter().filter(|w| w.is_none()).count() as u32;
        let wpb = self.kd.launch.warps_per_block().max(1);
        let placeable = (regs_free / base).min(free_tb_slots).min(free_warps / wpb).max(1);
        let spare_after = regs_free - placeable * base;
        (spare_after / placeable).min(d.rename_regs_per_tb as u32)
    }

    /// True when another TB fits (warp slots, TB slots, registers, shared
    /// memory).
    #[must_use]
    pub fn can_accept_tb(&self) -> bool {
        let warps_needed = self.kd.launch.warps_per_block() as usize;
        let free_warps = self.warps.iter().filter(|w| w.is_none()).count();
        let free_tbs = self.tbs.iter().any(|t| t.is_none());
        free_warps >= warps_needed
            && free_tbs
            && self.used_regs + self.regs_per_tb() <= self.cfg.vector_regs_per_sm
            && self.used_smem + self.kd.ck.kernel.shared_mem_bytes <= self.cfg.shared_mem_per_sm
    }

    /// Number of resident TBs.
    #[must_use]
    pub fn resident_tbs(&self) -> usize {
        self.tbs.iter().filter(|t| t.is_some()).count()
    }

    /// True while any warp is resident.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.warps.iter().any(|w| w.is_some()) || !self.inflight.is_empty()
    }

    /// Folds one warp's architectural and scheduling state into `h` (the
    /// digest layer's `warp-state` component; scoreboard words are digested
    /// separately).
    fn fold_warp(w: &Warp, h: &mut u64) {
        for &r in &w.regs {
            fold(h, u64::from(r));
        }
        for &p in &w.preds {
            fold(h, u64::from(p));
        }
        fold(h, u64::from(w.full_mask));
        fold(h, w.stack.len() as u64);
        for e in &w.stack {
            fold(h, e.next_pc as u64);
            fold(h, u64::from(e.mask));
            fold(h, e.reconv as u64);
        }
        fold(h, w.ibuffer.len() as u64);
        for e in &w.ibuffer {
            match e {
                IBufEntry::Instr { pc, leader } => {
                    fold(h, 1);
                    fold(h, *pc as u64);
                    fold(h, leader.map_or(u64::MAX, u64::from));
                }
                IBufEntry::SkipMarker { pc, dst, values } => {
                    fold(h, 2);
                    fold(h, *pc as u64);
                    fold(h, dst.index() as u64);
                    for &v in values.iter() {
                        fold(h, u64::from(v));
                    }
                }
                IBufEntry::Ghost { pc } => {
                    fold(h, 3);
                    fold(h, *pc as u64);
                }
            }
        }
        match w.state {
            WarpState::Ready => fold(h, 0),
            WarpState::AtBarrier => fold(h, 1),
            WarpState::WaitLeader(pc, inst) => {
                fold(h, 2);
                fold(h, pc as u64);
                fold(h, u64::from(inst));
            }
            WarpState::BranchSync(pc) => {
                fold(h, 3);
                fold(h, pc as u64);
            }
            WarpState::Done => fold(h, 4),
        }
        fold(h, w.age);
        fold(h, w.fetch_ready_at);
        for (pc, &n) in w.pass_counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
            fold(h, pc as u64);
            fold(h, u64::from(n));
        }
        fold(h, u64::from(w.fetch_blocked));
        fold(h, u64::from(w.bb_pending));
        fold(h, u64::from(w.leader_stall));
    }

    /// Digests this SM's architectural state for one epoch of the
    /// determinism observatory: returns the epoch state digest and, when
    /// `components` is set (the bisector's fine mode), the per-component
    /// and per-warp sub-digests that let a divergence be named.
    ///
    /// Keyed state folds in ascending key order: the per-TB and per-warp
    /// maps are ordered by construction, and only the skip table (kept in
    /// hardware slot order) is sorted here. Per-cycle transients that never
    /// survive a cycle boundary (the PC coalescer's port grants, the
    /// scheduler scratch) and pure outputs (stats, events, profile) are
    /// deliberately excluded.
    #[must_use]
    pub(crate) fn digest_epoch(&self, components: bool) -> (u64, Option<ComponentDigests>) {
        // Scoreboard: pending register/predicate writes of every warp.
        let mut scoreboard = FNV_OFFSET;
        // Warp-visible state, plus per-warp digests for warp naming.
        let mut warp_state = FNV_OFFSET;
        let mut per_warp = Vec::new();
        for (slot, w) in self.warps.iter().enumerate() {
            let Some(w) = w else { continue };
            fold(&mut scoreboard, slot as u64);
            let (pending_regs, pending_preds) = w.scoreboard_words();
            for word in pending_regs {
                fold(&mut scoreboard, word);
            }
            fold(&mut scoreboard, u64::from(pending_preds));

            let mut wh = FNV_OFFSET;
            Self::fold_warp(w, &mut wh);
            let wd = splitmix64(wh);
            fold(&mut warp_state, slot as u64);
            fold(&mut warp_state, wd);
            if components {
                per_warp.push((slot, wd));
            }
        }
        // DARSIE structures, shared memory and TB control state, per TB.
        let mut skip_table = FNV_OFFSET;
        let mut rename = FNV_OFFSET;
        let mut shared_mem = FNV_OFFSET;
        for (slot, tb) in self.tbs.iter().enumerate() {
            let Some(tb) = tb else { continue };
            fold(&mut skip_table, slot as u64);
            fold(&mut skip_table, u64::from(tb.majority.mask()));
            let mut entries: Vec<_> = tb.skip_table.iter().collect();
            entries.sort_unstable_by_key(|e| (e.pc, e.instance));
            for e in entries {
                fold(&mut skip_table, e.pc as u64);
                fold(&mut skip_table, u64::from(e.instance));
                fold(&mut skip_table, u64::from(e.leader));
                fold(&mut skip_table, u64::from(e.is_load));
                fold(&mut skip_table, u64::from(e.leader_wb));
                fold(&mut skip_table, u64::from(e.waiting_mask));
                fold(&mut skip_table, u64::from(e.passed_mask));
                fold(&mut skip_table, e.last_use);
                fold(&mut skip_table, e.created);
            }
            for (&(pc, inst), values) in tb.snapshots.iter() {
                fold(&mut skip_table, pc as u64);
                fold(&mut skip_table, u64::from(inst));
                for &v in values.iter() {
                    fold(&mut skip_table, u64::from(v));
                }
            }
            for (&(pc, inst), &(reg, version)) in tb.entry_versions.iter() {
                fold(&mut skip_table, pc as u64);
                fold(&mut skip_table, u64::from(inst));
                fold(&mut skip_table, u64::from(reg));
                fold(&mut skip_table, u64::from(version));
            }
            for (&pc, bs) in tb.branch_syncs.iter().filter(|(_, bs)| bs.is_pending()) {
                fold(&mut skip_table, pc as u64);
                fold(&mut skip_table, u64::from(bs.arrived));
                for &(w, npc) in &bs.outcomes {
                    fold(&mut skip_table, u64::from(w));
                    fold(&mut skip_table, npc as u64);
                }
            }

            fold(&mut rename, slot as u64);
            tb.rename.digest_fold(&mut rename);

            fold(&mut shared_mem, slot as u64);
            for &w in &tb.shared {
                fold(&mut shared_mem, u64::from(w));
            }

            // TB control state rides on the warp-state component: a barrier
            // or liveness divergence always shows up in warp scheduling.
            fold(&mut warp_state, slot as u64);
            fold(&mut warp_state, u64::from(tb.ctaid.x));
            fold(&mut warp_state, u64::from(tb.ctaid.y));
            fold(&mut warp_state, u64::from(tb.ctaid.z));
            fold(&mut warp_state, u64::from(tb.live_mask));
            fold(&mut warp_state, u64::from(tb.barrier_arrived));
            fold(&mut warp_state, u64::from(tb.bb_waiting));
            for &c in &tb.bb_crossings {
                fold(&mut warp_state, c);
            }
        }
        // Queue occupancy: in-flight writebacks, unit busy timers,
        // scheduler pointers, cache tag state, the UV reuse buffer.
        let mut queues = FNV_OFFSET;
        fold(&mut queues, self.inflight.len() as u64);
        for f in &self.inflight {
            fold(&mut queues, f.done);
            fold(&mut queues, f.warp as u64);
            fold(&mut queues, f.dst.map_or(u64::MAX, |r| r.index() as u64));
            fold(&mut queues, f.pdst.map_or(u64::MAX, |p| p.index() as u64));
            match f.leader {
                Some((pc, inst)) => {
                    fold(&mut queues, pc as u64);
                    fold(&mut queues, u64::from(inst));
                }
                None => fold(&mut queues, u64::MAX),
            }
        }
        for &b in &self.sp_busy {
            fold(&mut queues, b);
        }
        fold(&mut queues, self.sfu_busy);
        fold(&mut queues, self.lsu_busy);
        fold(&mut queues, self.fetch_rr as u64);
        for g in &self.gto_last {
            fold(&mut queues, g.map_or(u64::MAX, |s| s as u64));
        }
        for &n in &self.lrr_next {
            fold(&mut queues, n as u64);
        }
        self.icache.digest_fold(&mut queues);
        self.l1d.digest_fold(&mut queues);
        self.uv_reuse.digest_fold(&mut queues);
        fold(&mut queues, u64::from(self.used_regs));
        fold(&mut queues, u64::from(self.used_smem));
        fold(&mut queues, self.next_age);
        fold(&mut queues, self.barrier_marks);

        let comps = ComponentDigests {
            scoreboard: splitmix64(scoreboard),
            skip_table: splitmix64(skip_table),
            rename: splitmix64(rename),
            warp_state: splitmix64(warp_state),
            shared_mem: splitmix64(shared_mem),
            queues: splitmix64(queues),
            per_warp,
        };
        let mut state = FNV_OFFSET;
        fold(&mut state, comps.scoreboard);
        fold(&mut state, comps.skip_table);
        fold(&mut state, comps.rename);
        fold(&mut state, comps.warp_state);
        fold(&mut state, comps.shared_mem);
        fold(&mut state, comps.queues);
        (splitmix64(state), components.then_some(comps))
    }

    /// Applies a [`Perturb::WarpReg`](crate::digest::Perturb) poke: XORs
    /// `xor` into one word of the resident warp's register file (no-op when
    /// the slot is empty).
    pub(crate) fn perturb_warp_reg(&mut self, warp_slot: usize, word: usize, xor: u32) {
        if let Some(w) = self.warps.get_mut(warp_slot).and_then(|w| w.as_mut()) {
            if !w.regs.is_empty() {
                let i = word % w.regs.len();
                w.regs[i] ^= xor;
            }
        }
    }

    /// Places a TB with coordinates `ctaid` onto this SM.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_accept_tb`] is false.
    pub fn launch_tb(&mut self, ctaid: Dim3) {
        assert!(self.can_accept_tb(), "launch_tb without capacity");
        let launch = &self.kd.launch;
        let warps_needed = launch.warps_per_block();
        let threads = launch.threads_per_block();
        let ws = launch.warp_size;
        let tb_slot = self.tbs.iter().position(|t| t.is_none()).expect("free TB slot");

        let mut slots = Vec::with_capacity(warps_needed as usize);
        for w in 0..warps_needed {
            let slot = self.warps.iter().position(|x| x.is_none()).expect("free warp slot");
            let lanes_live = threads.saturating_sub(w * ws).min(ws);
            let full_mask = if lanes_live >= 32 { u32::MAX } else { (1u32 << lanes_live) - 1 };
            let mut warp = Warp::new(
                slot,
                tb_slot,
                w,
                self.kd.ck.kernel.num_regs,
                ws,
                full_mask,
                self.next_age,
            );
            self.next_age += 1;
            if self.darsie().is_some() {
                warp.pass_counts = vec![0; self.kd.ck.kernel.len()];
            }
            self.warps[slot] = Some(warp);
            slots.push(slot);
        }
        let mut dc = self.darsie().cloned().unwrap_or_default();
        let pool = self.rename_pool_for_next_tb();
        dc.rename_regs_per_tb = pool as usize;
        self.tbs[tb_slot] =
            Some(TbState::new(ctaid, slots, self.kd.ck.kernel.shared_mem_bytes, &dc));
        self.used_regs += self.regs_per_tb() + pool;
        self.used_smem += self.kd.ck.kernel.shared_mem_bytes;
    }

    /// Advances the SM one cycle. Returns the number of TBs that completed
    /// this cycle (freeing capacity for the dispatcher).
    pub fn cycle(
        &mut self,
        now: u64,
        global: &mut GlobalMemory,
        l2: &mut TagCache,
        dram: &mut DramModel,
    ) -> u32 {
        self.now = now;
        if self.cfg.profile {
            self.profile.cycles += 1;
            if now.is_multiple_of(self.cfg.profile_sample_interval.max(1)) {
                self.sample_occupancy(now);
            }
        }
        self.count_stall_cycles();
        self.writeback(now);
        let kd = Arc::clone(&self.kd);
        let completed = self.issue(&kd, now, global, l2, dram);
        self.fetch(now);
        completed
    }

    /// Snapshots skip-table/renaming occupancy and warp population for the
    /// profiler's time-series view.
    fn sample_occupancy(&mut self, now: u64) {
        if self.profile.samples.len() >= MAX_OCCUPANCY_SAMPLES {
            self.profile.samples_dropped += 1;
            return;
        }
        let mut s = OccupancySample {
            cycle: now,
            skip_entries: 0,
            skip_capacity: 0,
            live_versions: 0,
            rename_capacity: 0,
            resident_warps: 0,
            waiting_warps: 0,
        };
        for tb in self.tbs.iter().flatten() {
            s.skip_entries += tb.skip_table.len() as u32;
            s.skip_capacity += tb.skip_table.capacity() as u32;
            s.live_versions += tb.rename.live_versions() as u32;
            s.rename_capacity += tb.rename.capacity() as u32;
        }
        for w in self.warps.iter().flatten() {
            s.resident_warps += 1;
            if matches!(w.state, WarpState::WaitLeader(..)) {
                s.waiting_warps += 1;
            }
        }
        self.profile.samples.push(s);
    }

    fn count_stall_cycles(&mut self) {
        for w in self.warps.iter().flatten() {
            match w.state {
                WarpState::WaitLeader(..) => self.stats.darsie.wait_for_leader_cycles += 1,
                WarpState::BranchSync(..) => self.stats.darsie.branch_sync_cycles += 1,
                _ => {}
            }
        }
    }

    // ----- writeback ---------------------------------------------------------

    fn writeback(&mut self, now: u64) {
        let mut retiring = std::mem::take(&mut self.retiring);
        retiring.clear();
        self.inflight.retain(|f| {
            if f.done <= now {
                retiring.push(*f);
                false
            } else {
                true
            }
        });
        for &f in &retiring {
            if self.cfg.trace_events {
                let pc = f.leader.map_or(usize::MAX, |(pc, _)| pc);
                self.trace(f.warp, pc, EventKind::Writeback);
            }
            let Some(w) = self.warps[f.warp].as_mut() else { continue };
            if let Some(d) = f.dst {
                w.clear_pending(d);
                self.stats.rf_writes += 1;
            }
            if let Some(p) = f.pdst {
                w.clear_pending_pred(p);
            }
            if let Some((pc, instance)) = f.leader {
                let tb_idx = w.tb;
                let warp_in_tb = w.warp_in_tb;
                if self.cfg.profile {
                    let latency = self.tbs[tb_idx]
                        .as_ref()
                        .and_then(|tb| tb.skip_table.find(pc, instance))
                        .filter(|e| e.leader == warp_in_tb)
                        .map(|e| now.saturating_sub(e.created));
                    if let Some(lat) = latency {
                        self.profile.leader_latency.record(lat);
                    }
                }
                if let Some(tb) = self.tbs[tb_idx].as_mut() {
                    let released = tb.skip_table.leader_writeback(pc, instance, warp_in_tb, now);
                    wake(&mut self.warps, &tb.warp_slots, released, |s| {
                        s == WarpState::WaitLeader(pc, instance)
                    });
                }
            }
        }
        self.retiring = retiring;
    }

    // ----- issue -------------------------------------------------------------

    /// Returns completed TB count.
    fn issue(
        &mut self,
        kd: &KernelData,
        now: u64,
        global: &mut GlobalMemory,
        l2: &mut TagCache,
        dram: &mut DramModel,
    ) -> u32 {
        let mut completed = 0;
        let mut issued_any = false;
        let width = self.cfg.issue_width;
        // Register banks touched this cycle (operand-collector conflicts).
        let mut banks_used = std::mem::take(&mut self.banks_used);
        banks_used.fill(0);
        let mut candidates = std::mem::take(&mut self.candidates);
        for s in 0..self.cfg.schedulers_per_sm {
            self.warp_candidates(s, &mut candidates);
            let mut issued_from = None;
            let mut sched_issued = 0usize;
            // `(cause, head pc, warp slot)` blamed for the scheduler's
            // unfilled slots this cycle (accounting identity: every slot
            // gets exactly one cause).
            let mut blame: Option<(StallCause, Option<usize>, Option<usize>)> = None;
            for &wslot in &candidates {
                let mut issued = 0;
                let mut stop: Option<(StallCause, Option<usize>)> = None;
                let mut control = false;
                while issued < width {
                    match self.try_issue_head(kd, now, wslot, s, global, l2, dram, &mut banks_used)
                    {
                        IssueOutcome::Issued => {
                            issued += 1;
                            issued_any = true;
                        }
                        IssueOutcome::IssuedControl { tb_done } => {
                            issued += 1;
                            issued_any = true;
                            completed += tb_done;
                            control = true;
                            break;
                        }
                        IssueOutcome::Stall { cause, pc } => {
                            stop = Some((cause, pc));
                            break;
                        }
                    }
                }
                if issued > 0 {
                    issued_from = Some(wslot);
                    sched_issued = issued;
                    if self.cfg.profile && issued < width {
                        blame = Some(if control {
                            (self.post_control_cause(wslot), None, Some(wslot))
                        } else {
                            let (cause, pc) = stop.expect("partial issue stops on a stall");
                            (cause, pc, Some(wslot))
                        });
                    }
                    break;
                }
                if self.cfg.profile && blame.is_none() {
                    // No candidate issued yet: blame the highest-priority
                    // warp's stall.
                    let (cause, pc) = stop.expect("zero issue implies a stall");
                    blame = Some((cause, pc, Some(wslot)));
                }
            }
            self.gto_last[s] = issued_from;
            if self.cfg.profile {
                self.account_slots(s, sched_issued, width, issued_from, blame);
            }
        }
        if issued_any {
            self.stats.active_cycles += 1;
        }
        // Account register-bank conflicts for the cycle.
        for &n in &banks_used {
            if n > 1 {
                self.stats.rf_bank_conflicts += u64::from(n - 1);
            }
        }
        self.banks_used = banks_used;
        self.candidates = candidates;
        completed
    }

    /// Attributes scheduler `s`'s issue slots for this cycle: `issued`
    /// productive slots, and `width - issued` slots to the blamed cause
    /// (falling back to an idle scan when no candidate was tried).
    fn account_slots(
        &mut self,
        s: usize,
        issued: usize,
        width: usize,
        issued_from: Option<usize>,
        blame: Option<(StallCause, Option<usize>, Option<usize>)>,
    ) {
        self.profile.slots.add(StallCause::Issued, issued as u64);
        if let Some(wslot) = issued_from {
            self.profile.per_warp[wslot].issued += issued as u64;
        }
        let missing = (width - issued) as u64;
        if missing == 0 {
            return;
        }
        let (cause, pc, wslot) = blame.unwrap_or_else(|| self.idle_cause(s));
        self.profile.slots.add(cause, missing);
        if let Some(pc) = pc {
            self.profile.per_pc.entry(pc).or_default().stalls.add(cause, missing);
        }
        if let Some(wslot) = wslot {
            self.profile.per_warp[wslot].stalls.add(cause, missing);
        }
    }

    /// Why a warp that ended its issue group on a control instruction left
    /// the rest of the group unfilled.
    fn post_control_cause(&self, wslot: usize) -> StallCause {
        match self.warps[wslot].as_ref() {
            None => StallCause::IdleNoWarp, // warp exited
            Some(w) => match w.state {
                WarpState::AtBarrier => StallCause::Barrier,
                WarpState::BranchSync(_) => StallCause::BranchSync,
                WarpState::WaitLeader(..) => StallCause::WaitLeader,
                WarpState::Done => StallCause::IdleNoWarp,
                // The branch flushed the I-buffer; fetch must refill it.
                WarpState::Ready => StallCause::IBufferEmpty,
            },
        }
    }

    /// Why scheduler `s` had no issue candidate at all this cycle: the
    /// highest-priority parked state among its warps, or idle-no-warp.
    fn idle_cause(&self, s: usize) -> (StallCause, Option<usize>, Option<usize>) {
        let mut best: Option<(u32, StallCause, Option<usize>, usize)> = None;
        for slot in (s..self.warps.len()).step_by(self.cfg.schedulers_per_sm) {
            let Some(w) = self.warps[slot].as_ref() else { continue };
            let (rank, cause, pc) = match w.state {
                WarpState::WaitLeader(pc, _) => (0, StallCause::WaitLeader, Some(pc)),
                WarpState::BranchSync(pc) => (1, StallCause::BranchSync, Some(pc)),
                WarpState::AtBarrier => (2, StallCause::Barrier, None),
                // A Ready warp with a non-empty I-buffer would have been a
                // candidate, so this one is waiting on fetch.
                WarpState::Ready => (3, StallCause::IBufferEmpty, None),
                WarpState::Done => continue,
            };
            if best.as_ref().is_none_or(|&(r, ..)| rank < r) {
                best = Some((rank, cause, pc, slot));
            }
        }
        match best {
            Some((_, cause, pc, slot)) => (cause, pc, Some(slot)),
            None => (StallCause::IdleNoWarp, None, None),
        }
    }

    /// Fills `candidates` with scheduler `s`'s issue candidates this cycle,
    /// highest priority first. Scheduler `s` owns warp slots `s`,
    /// `s + schedulers_per_sm`, ..., and only those are visited.
    fn warp_candidates(&mut self, s: usize, candidates: &mut Vec<usize>) {
        candidates.clear();
        for slot in (s..self.warps.len()).step_by(self.cfg.schedulers_per_sm) {
            if self.warps[slot].as_ref().is_some_and(|w| {
                matches!(w.state, WarpState::Ready | WarpState::WaitLeader(..))
                    && !w.ibuffer.is_empty()
            }) {
                candidates.push(slot);
            }
        }
        match self.cfg.scheduler {
            SchedulerPolicy::Gto => {
                // Oldest first (ages are unique); the greedy warp (last
                // issued) leads.
                candidates.sort_unstable_by_key(|&slot| {
                    self.warps[slot].as_ref().map_or(u64::MAX, |w| w.age)
                });
                if let Some(last) = self.gto_last[s] {
                    if let Some(pos) = candidates.iter().position(|&c| c == last) {
                        candidates[..=pos].rotate_right(1);
                    }
                }
            }
            SchedulerPolicy::Lrr => {
                // Ascending slots, rotated to start at the round-robin
                // pointer.
                let start = self.lrr_next[s];
                let split = candidates.iter().position(|&c| c >= start).unwrap_or(0);
                candidates.rotate_left(split);
                if let Some(&first) = candidates.first() {
                    self.lrr_next[s] = first + 1;
                }
            }
        }
    }

    /// Attempts to issue the head of `wslot`'s I-buffer (after absorbing
    /// zero-cost skip markers and ghosts).
    #[allow(clippy::too_many_arguments)]
    fn try_issue_head(
        &mut self,
        kd: &KernelData,
        now: u64,
        wslot: usize,
        sched: usize,
        global: &mut GlobalMemory,
        l2: &mut TagCache,
        dram: &mut DramModel,
        banks_used: &mut [u32],
    ) -> IssueOutcome {
        // Wrong-path flush: after reconvergence switched paths, buffered
        // entries no longer match the warp's next PC.
        {
            let Some(w) = self.warps[wslot].as_mut() else {
                return IssueOutcome::Stall { cause: StallCause::IdleNoWarp, pc: None };
            };
            let front_pc = w.ibuffer.front().map(|e| match e {
                IBufEntry::Instr { pc, .. }
                | IBufEntry::SkipMarker { pc, .. }
                | IBufEntry::Ghost { pc } => *pc,
            });
            if let (Some(fpc), Some(npc)) = (front_pc, w.next_pc()) {
                if fpc != npc {
                    w.ibuffer.clear();
                    w.fetch_blocked = false;
                    return IssueOutcome::Stall { cause: StallCause::IBufferEmpty, pc: None };
                }
            }
        }
        // Absorb leading zero-cost entries (skip markers / ghosts). When
        // the buffer then has nothing issuable left, the slot is charged to
        // the frontend elimination rather than an empty I-buffer.
        let mut absorbed = 0usize;
        loop {
            let Some(w) = self.warps[wslot].as_mut() else {
                return IssueOutcome::Stall { cause: StallCause::IdleNoWarp, pc: None };
            };
            match w.ibuffer.front() {
                Some(&IBufEntry::SkipMarker { pc, dst, .. }) => {
                    if w.is_pending(dst) {
                        // WAW with an older in-flight write.
                        return IssueOutcome::Stall { cause: StallCause::Scoreboard, pc: Some(pc) };
                    }
                    let Some(IBufEntry::SkipMarker { pc, dst, values }) = w.ibuffer.pop_front()
                    else {
                        unreachable!()
                    };
                    if self.cfg.shadow_check {
                        self.shadow_check_marker(kd.instr(pc), wslot, pc, dst, &values, global);
                    }
                    let w = self.warps[wslot].as_mut().expect("warp exists");
                    w.set_reg_vector(dst, &values);
                    let _ = w.record_pass(pc);
                    w.advance();
                    w.reconverge();
                    self.tbs[w.tb].as_mut().expect("TB exists").recycle(values);
                    absorbed += 1;
                    if self.cfg.profile {
                        self.profile.per_pc.entry(pc).or_default().skipped += 1;
                    }
                }
                Some(IBufEntry::Ghost { .. }) => {
                    let Some(&IBufEntry::Ghost { pc }) = w.ibuffer.front() else { unreachable!() };
                    let instr = kd.instr(pc);
                    if !w.scoreboard_ready(instr) {
                        return IssueOutcome::Stall { cause: StallCause::Scoreboard, pc: Some(pc) };
                    }
                    w.ibuffer.pop_front();
                    w.advance();
                    absorbed += 1;
                    if self.cfg.profile {
                        self.profile.per_pc.entry(pc).or_default().skipped += 1;
                    }
                    // Count the elimination here (a flushed ghost was
                    // wrong-path work the baseline would not execute
                    // either).
                    self.stats.instrs_skipped.add(self.kd.plan.taxonomy[pc], 1);
                    let tb_idx = w.tb;
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    let warp = self.warps[wslot].as_mut().expect("warp exists");
                    let mut ctx = ExecContext {
                        global,
                        shared: &mut tb.shared,
                        params: &self.kd.launch.params,
                        grid: self.kd.launch.grid,
                        block: self.kd.launch.block,
                        ctaid: tb.ctaid,
                    };
                    let _ = execute(warp, instr, &mut ctx, &mut self.addrs);
                    warp.reconverge();
                }
                _ => break,
            }
        }

        // An empty (or non-instruction) front after absorbing markers means
        // the frontend eliminated this slot's work; otherwise fetch is
        // simply behind.
        let drained =
            if absorbed > 0 { StallCause::SkippedByDarsie } else { StallCause::IBufferEmpty };
        let Some(w) = self.warps[wslot].as_ref() else {
            return IssueOutcome::Stall { cause: StallCause::IdleNoWarp, pc: None };
        };
        match w.state {
            WarpState::Ready | WarpState::WaitLeader(..) => {}
            WarpState::AtBarrier => {
                return IssueOutcome::Stall { cause: StallCause::Barrier, pc: None };
            }
            WarpState::BranchSync(pc) => {
                return IssueOutcome::Stall { cause: StallCause::BranchSync, pc: Some(pc) };
            }
            WarpState::Done => {
                return IssueOutcome::Stall { cause: StallCause::IdleNoWarp, pc: None };
            }
        }
        let Some(&IBufEntry::Instr { pc, leader }) = w.ibuffer.front() else {
            return IssueOutcome::Stall { cause: drained, pc: None };
        };
        let instr = kd.instr(pc);
        if !w.scoreboard_ready(instr) {
            return IssueOutcome::Stall { cause: StallCause::Scoreboard, pc: Some(pc) };
        }

        // SILICON-SYNC: block at basic-block boundaries.
        if matches!(self.technique, Technique::SiliconSync)
            && self.kd.bb_start[pc]
            && self.silicon_sync_gate(wslot)
        {
            return IssueOutcome::Stall { cause: StallCause::Barrier, pc: Some(pc) };
        }

        // Execution unit availability.
        match timing::exec_unit(instr.op.kind()) {
            timing::ExecUnit::Sp if self.sp_busy[sched] > now => {
                return IssueOutcome::Stall { cause: StallCause::ExecUnitBusy, pc: Some(pc) };
            }
            timing::ExecUnit::Sfu if self.sfu_busy > now => {
                return IssueOutcome::Stall { cause: StallCause::ExecUnitBusy, pc: Some(pc) };
            }
            timing::ExecUnit::Lsu if self.lsu_busy > now => {
                return IssueOutcome::Stall { cause: StallCause::LsuQueue, pc: Some(pc) };
            }
            _ => {}
        }

        // UV: value-keyed reuse of TB-uniform instructions at issue. Only
        // fully-active warps participate (a partial mask would clobber
        // inactive lanes and key with stale lane-0 values).
        let mut uv_key = None;
        let full_active = {
            let w = self.warps[wslot].as_ref().expect("warp exists");
            w.active_mask() == w.full_mask && w.full_mask.count_ones() == self.kd.launch.warp_size
        };
        if matches!(self.technique, Technique::Uv)
            && full_active
            && self.kd.plan.uv_uniform[pc]
            && instr.guard.is_none()
            && !matches!(instr.op, Op::Sel(_))
        {
            match self.try_uv_reuse(wslot, pc, instr, global, banks_used) {
                Ok(()) => return IssueOutcome::Issued,
                Err(key) => uv_key = Some(key),
            }
        }

        self.issue_instr(now, wslot, sched, pc, leader, uv_key, instr, global, l2, dram, banks_used)
    }

    /// SILICON-SYNC gate: returns true when the warp must stall.
    fn silicon_sync_gate(&mut self, wslot: usize) -> bool {
        let w = self.warps[wslot].as_mut().expect("warp exists");
        let warp_in_tb = w.warp_in_tb as usize;
        let tb = self.tbs[w.tb].as_mut().expect("TB exists");
        if !w.bb_pending {
            // Register this crossing and start waiting.
            tb.bb_crossings[warp_in_tb] += 1;
            w.bb_pending = true;
            self.stats.barrier_waits += 1;
        }
        let my = tb.bb_crossings[warp_in_tb];
        // A warp already parked at a real `bar.sync` cannot advance its
        // crossing count; treating it as satisfied avoids deadlock between
        // the instrumentation barrier and the kernel's own barriers
        // (divergent paths cross different numbers of block boundaries).
        let all_reached = tb.warp_slots.iter().enumerate().all(|(i, &slot)| {
            tb.live_mask & (1 << i) == 0
                || tb.bb_crossings[i] >= my
                || self.warps[slot].as_ref().is_none_or(|other| other.state == WarpState::AtBarrier)
        });
        if all_reached {
            self.warps[wslot].as_mut().expect("warp exists").bb_pending = false;
        }
        !all_reached
    }

    /// UV reuse attempt; `Ok(())` when the instruction was satisfied from
    /// the reuse buffer, `Err(key)` on a miss (the caller executes
    /// normally and inserts the result under that key).
    fn try_uv_reuse(
        &mut self,
        wslot: usize,
        pc: usize,
        instr: &simt_isa::Instruction,
        global: &mut GlobalMemory,
        banks_used: &mut [u32],
    ) -> Result<(), crate::reuse::ReuseKey> {
        let w = self.warps[wslot].as_ref().expect("warp exists");
        // Operand signature from lane 0 (UV only targets warp-uniform
        // operands). S2R has implicit inputs: fold in the TB identity.
        let mut sig_words = [0u32; crate::reuse::KEY_WORDS];
        let mut n = 0;
        for &o in &instr.srcs {
            sig_words[n] = match o {
                simt_isa::Operand::Reg(r) => w.reg(r, 0),
                simt_isa::Operand::Imm(v) => v,
            };
            n += 1;
        }
        if let Op::S2R(_) = instr.op {
            let tb = self.tbs[w.tb].as_ref().expect("TB exists");
            sig_words[n..n + 3].copy_from_slice(&[tb.ctaid.x, tb.ctaid.y, tb.ctaid.z]);
            n += 3;
        }
        let key = ReuseBuffer::key(pc, &sig_words[..n]);
        let mut vals = [0u32; 32];
        let vals = match self.uv_reuse.probe(&key) {
            Some(hit) => {
                vals[..hit.len()].copy_from_slice(hit);
                &vals[..hit.len()]
            }
            None => return Err(key),
        };
        // Operand reads still happen (the reuse buffer is checked with
        // real operand values).
        self.charge_operand_reads(wslot, instr, banks_used);
        if self.cfg.shadow_check {
            if let Some(d) = instr.dst {
                self.shadow_check_marker(instr, wslot, pc, d, vals, global);
            }
        }
        let w = self.warps[wslot].as_mut().expect("warp exists");
        if let Some(d) = instr.dst {
            w.set_reg_vector(d, vals);
            self.stats.rf_writes += 1;
        }
        w.ibuffer.pop_front();
        w.advance();
        w.reconverge();
        self.stats.instrs_reused.add(self.kd.plan.taxonomy[pc], 1);
        if self.cfg.profile {
            self.profile.per_pc.entry(pc).or_default().issued += 1;
        }
        self.trace(wslot, pc, EventKind::Reuse);
        Ok(())
    }

    fn charge_operand_reads(
        &mut self,
        wslot: usize,
        instr: &simt_isa::Instruction,
        banks_used: &mut [u32],
    ) {
        let w = self.warps[wslot].as_ref().expect("warp exists");
        let base = w.slot as u32 * u32::from(self.kd.ck.kernel.num_regs);
        let darsie_active = self.darsie().is_some();
        for r in instr.src_regs() {
            self.stats.rf_reads += 1;
            if darsie_active {
                // Every read probes the rename table first (Section 4.3.1).
                self.stats.darsie.rename_reads += 1;
            }
            let bank = ((base + u32::from(r.0)) as usize) % self.cfg.rf_banks;
            banks_used[bank] += 1;
        }
    }

    /// Issues one instruction for real: functional execution plus timing.
    #[allow(clippy::too_many_arguments)]
    fn issue_instr(
        &mut self,
        now: u64,
        wslot: usize,
        sched: usize,
        pc: usize,
        leader: Option<u32>,
        uv_key: Option<crate::reuse::ReuseKey>,
        instr: &simt_isa::Instruction,
        global: &mut GlobalMemory,
        l2: &mut TagCache,
        dram: &mut DramModel,
        banks_used: &mut [u32],
    ) -> IssueOutcome {
        self.charge_operand_reads(wslot, instr, banks_used);
        let (tb_idx, warp_in_tb) = {
            let w = self.warps[wslot].as_ref().expect("warp exists");
            (w.tb, w.warp_in_tb)
        };

        // Instance accounting: every completed occurrence of a skippable
        // PC counts, whether skipped, led, or executed normally.
        if self.kd.plan.skippable[pc] && self.darsie().is_some() {
            let instance = {
                let w = self.warps[wslot].as_mut().expect("warp exists");
                w.record_pass(pc)
            };
            if leader.is_none() {
                // A warp that lost its skip window executed the redundant
                // instruction itself: the skip entry no longer needs it,
                // and the warp's private write supersedes any shared
                // version it was bound to.
                let warp_in_tb = self.warps[wslot].as_ref().expect("warp exists").warp_in_tb;
                let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                if let Some(d) = instr.dst {
                    tb.rename.unbind(warp_in_tb, d.0);
                }
                let must = tb.must_pass_mask();
                if tb.skip_table.record_pass(pc, instance, warp_in_tb, must, now) {
                    tb.entry_completed(pc, instance);
                }
            }
        }

        // Functional execution.
        let effect = {
            let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
            let w = self.warps[wslot].as_mut().expect("warp exists");
            w.ibuffer.pop_front();
            w.advance();
            let mut ctx = ExecContext {
                global,
                shared: &mut tb.shared,
                params: &self.kd.launch.params,
                grid: self.kd.launch.grid,
                block: self.kd.launch.block,
                ctaid: tb.ctaid,
            };
            execute(w, instr, &mut ctx, &mut self.addrs)
        };
        self.stats.instrs_executed += 1;
        self.stats.executed_taxonomy.add(self.kd.plan.taxonomy[pc], 1);
        if self.cfg.profile {
            self.profile.per_pc.entry(pc).or_default().issued += 1;
        }
        self.trace(wslot, pc, EventKind::Issue);

        // UV: remember the result for future reuse.
        if let Some(key) = uv_key {
            if let Some(d) = instr.dst {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                self.uv_reuse.insert(key, w.reg_lanes(d));
            }
        }

        // Leader snapshot: capture the produced vector for followers.
        if let Some(instance) = leader {
            if let Some(d) = instr.dst {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                tb.snapshot(pc, instance, w.reg_lanes(d));
            }
        }

        match effect {
            ExecEffect::None => {
                let w = self.warps[wslot].as_mut().expect("warp exists");
                w.reconverge();
                let kind = instr.op.kind();
                let lat = timing::exec_latency(&self.cfg, kind);
                match timing::exec_unit(kind) {
                    timing::ExecUnit::Sfu => {
                        self.sfu_busy = now + timing::unit_issue_interval(&self.cfg, kind);
                        self.stats.sfu_ops += 1;
                    }
                    _ => {
                        self.sp_busy[sched] = now + timing::unit_issue_interval(&self.cfg, kind);
                        self.stats.alu_ops += 1;
                    }
                }
                self.finish_issue(now + lat, wslot, pc, leader, instr);
                IssueOutcome::Issued
            }
            ExecEffect::Branch { taken, target } => {
                self.resolve_branch(wslot, tb_idx, warp_in_tb, pc, instr, taken, target)
            }
            ExecEffect::Barrier => {
                self.stats.barrier_waits += 1;
                self.trace(wslot, pc, EventKind::BarrierArrive);
                let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                let released = tb.arrive_barrier(warp_in_tb);
                let w = self.warps[wslot].as_mut().expect("warp exists");
                w.reconverge();
                match released {
                    Some(mask) => {
                        self.barrier_marks += 1;
                        // Everyone (including this warp) proceeds.
                        let slots = &self.tbs[tb_idx].as_ref().expect("TB").warp_slots;
                        wake(&mut self.warps, slots, mask, |s| s == WarpState::AtBarrier);
                    }
                    None => {
                        let w = self.warps[wslot].as_mut().expect("warp exists");
                        w.state = WarpState::AtBarrier;
                    }
                }
                IssueOutcome::IssuedControl { tb_done: 0 }
            }
            ExecEffect::Exit => {
                let w = self.warps[wslot].as_mut().expect("warp exists");
                let done = w.exit_path();
                w.reconverge();
                let mut tb_done = 0;
                if done {
                    w.fetch_blocked = false;
                    self.trace(wslot, pc, EventKind::WarpDone);
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    if tb.retire_warp(warp_in_tb) {
                        self.free_tb(tb_idx);
                        tb_done = 1;
                        self.stats.tbs_completed += 1;
                    } else {
                        self.after_majority_change(tb_idx);
                    }
                    self.warps[wslot] = None;
                }
                IssueOutcome::IssuedControl { tb_done }
            }
            ExecEffect::Memory { space, is_store, is_atomic } => {
                let w = self.warps[wslot].as_mut().expect("warp exists");
                w.reconverge();
                let addrs = std::mem::take(&mut self.addrs);
                self.handle_memory(
                    now, wslot, tb_idx, pc, leader, instr, space, &addrs, is_store, is_atomic, l2,
                    dram,
                );
                self.addrs = addrs;
                IssueOutcome::Issued
            }
        }
    }

    /// Common post-issue bookkeeping for latency ops.
    fn finish_issue(
        &mut self,
        done: u64,
        wslot: usize,
        pc: usize,
        leader: Option<u32>,
        instr: &simt_isa::Instruction,
    ) {
        let w = self.warps[wslot].as_mut().expect("warp exists");
        if let Some(d) = instr.dst {
            w.mark_pending(d);
        }
        if let Some(p) = instr.pdst {
            w.mark_pending_pred(p);
        }
        self.inflight.push(InFlight {
            done,
            warp: wslot,
            dst: instr.dst,
            pdst: instr.pdst,
            leader: leader.map(|i| (pc, i)),
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_branch(
        &mut self,
        wslot: usize,
        tb_idx: usize,
        warp_in_tb: u32,
        pc: usize,
        instr: &simt_isa::Instruction,
        taken: u32,
        target: usize,
    ) -> IssueOutcome {
        let reconv = self.kd.ck.recon.recon[pc].unwrap_or(usize::MAX);
        let (diverged, next_pc) = {
            let w = self.warps[wslot].as_mut().expect("warp exists");
            let diverged = w.take_branch(pc, target, taken, reconv);
            w.reconverge();
            debug_assert!(
                w.ibuffer.iter().all(|e| !matches!(e, IBufEntry::Instr { .. })),
                "fetch must stall behind an unissued branch"
            );
            w.ibuffer.clear();
            w.fetch_blocked = false;
            (diverged, w.next_pc().unwrap_or(usize::MAX))
        };

        // DARSIE branch synchronization (Section 4.3.3).
        let wants_sync = self.darsie().is_some_and(|d| !d.no_cf_sync);
        if wants_sync && instr.guard.is_some() {
            let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
            if tb.majority.contains(warp_in_tb) {
                if diverged {
                    // Intra-warp divergence: leave the majority path, do
                    // not block, but report the arrival so others resolve.
                    tb.majority.remove(warp_in_tb);
                    tb.rename.release_warp(warp_in_tb);
                    self.stats.darsie.majority_evictions += 1;
                    let resolved = tb.arrive_branch_sync(pc, warp_in_tb, usize::MAX);
                    self.apply_branch_sync_resolution(tb_idx, resolved);
                } else {
                    let resolved = tb.arrive_branch_sync(pc, warp_in_tb, next_pc);
                    match resolved {
                        Some(_) => self.apply_branch_sync_resolution(tb_idx, resolved),
                        None => {
                            let w = self.warps[wslot].as_mut().expect("warp exists");
                            w.state = WarpState::BranchSync(pc);
                            self.trace(wslot, pc, EventKind::BranchSync);
                        }
                    }
                }
            }
        }
        IssueOutcome::IssuedControl { tb_done: 0 }
    }

    fn apply_branch_sync_resolution(
        &mut self,
        tb_idx: usize,
        resolved: Option<(WarpMask, WarpMask)>,
    ) {
        let Some((released, evicted)) = resolved else { return };
        self.stats.darsie.majority_evictions += u64::from(evicted.count_ones());
        let slots = &self.tbs[tb_idx].as_ref().expect("TB exists").warp_slots;
        wake(&mut self.warps, slots, released, |s| matches!(s, WarpState::BranchSync(_)));
    }

    /// Re-evaluates pending synchronizations after the majority mask or
    /// live mask shrank (warp exit), in branch-PC order.
    fn after_majority_change(&mut self, tb_idx: usize) {
        for i in 0.. {
            let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
            let Some((&pc, sync)) = tb.branch_syncs.entry_at(i) else { break };
            if sync.is_pending() {
                let resolved = tb.check_branch_sync(pc);
                self.apply_branch_sync_resolution(tb_idx, resolved);
            }
        }
        // Barrier may also now be complete.
        let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
        if let Some(mask) = tb.arrive_barrier_completion() {
            self.barrier_marks += 1;
            wake(&mut self.warps, &tb.warp_slots, mask, |s| s == WarpState::AtBarrier);
        }
        let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
        let must = tb.must_pass_mask();
        if tb.skip_table.sweep(must) > 0 {
            tb.gc_versions();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_memory(
        &mut self,
        now: u64,
        wslot: usize,
        tb_idx: usize,
        pc: usize,
        leader: Option<u32>,
        instr: &simt_isa::Instruction,
        space: MemSpace,
        addrs: &[(u32, u64)],
        is_store: bool,
        is_atomic: bool,
        l2: &mut TagCache,
        dram: &mut DramModel,
    ) {
        let completion = match space {
            MemSpace::Shared => {
                self.stats.smem_ops += 1;
                let degree = smem_conflict_degree(addrs.iter().map(|&(_, a)| a));
                self.stats.smem_bank_conflicts += u64::from(degree - 1);
                let by_pc = self.stats.mem_by_pc.entry(pc).or_default();
                by_pc.smem_accesses += 1;
                by_pc.smem_conflict_extra += u64::from(degree - 1);
                self.lsu_busy = now + timing::smem_occupancy(degree);
                now + timing::smem_latency(&self.cfg, degree)
            }
            MemSpace::Param => {
                self.stats.mem_ops += 1;
                self.lsu_busy = now + timing::PARAM_OCCUPANCY;
                now + timing::param_latency(&self.cfg)
            }
            MemSpace::Global => {
                self.stats.mem_ops += 1;
                let lines = coalesce_lines(addrs.iter().map(|&(_, a)| a));
                self.stats.global_transactions += lines.len() as u64;
                let by_pc = self.stats.mem_by_pc.entry(pc).or_default();
                by_pc.global_accesses += 1;
                by_pc.global_transactions += lines.len() as u64;
                self.lsu_busy = now + timing::global_occupancy(lines.len() as u64);
                let mut worst = now + timing::l1_hit_latency(&self.cfg);
                for &line in lines.iter() {
                    let t = if is_store || is_atomic {
                        // Write-through: invalidate L1, go to L2.
                        self.l1d.invalidate(line);
                        if l2.access(line) {
                            self.stats.l2_hits += 1;
                            now + timing::l2_hit_latency(&self.cfg)
                        } else {
                            self.stats.l2_misses += 1;
                            dram.schedule(now, timing::dram_line_latency(&self.cfg))
                        }
                    } else if self.l1d.access(line) {
                        self.stats.l1_hits += 1;
                        now + timing::l1_hit_latency(&self.cfg)
                    } else {
                        self.stats.l1_misses += 1;
                        if l2.access(line) {
                            self.stats.l2_hits += 1;
                            now + timing::l2_hit_latency(&self.cfg)
                        } else {
                            self.stats.l2_misses += 1;
                            dram.schedule(now, timing::dram_line_latency(&self.cfg))
                        }
                    };
                    worst = worst.max(t);
                }
                if is_atomic {
                    self.stats.atomic_ops += 1;
                    worst += timing::atomic_serialization(addrs.len());
                }
                // Stores complete immediately from the warp's perspective
                // (no register writeback); loads wait for data.
                worst
            }
        };

        if is_store || is_atomic {
            self.invalidate_load_skips(tb_idx, is_atomic);
        }
        if instr.dst.is_some() {
            self.finish_issue(completion, wslot, pc, leader, instr);
        }
    }

    /// Paper Section 4.4: stores flush this TB's load entries; global
    /// communication primitives (atomics) flush load entries SM-wide.
    /// Shared-memory stores can only affect this TB's shared loads; the
    /// TB bank is flushed conservatively either way (the table does not
    /// distinguish spaces beyond IsLoad).
    fn invalidate_load_skips(&mut self, tb_idx: usize, is_atomic: bool) {
        let Some(d) = self.darsie() else { return };
        if d.ignore_store && !is_atomic {
            return;
        }
        for t in 0..self.tbs.len() {
            if !is_atomic && t != tb_idx {
                continue;
            }
            let Some(tb) = self.tbs[t].as_mut() else { continue };
            let (n, released) = tb.skip_table.invalidate_loads(&mut self.stats.darsie);
            if n > 0 {
                tb.gc_versions();
            }
            wake(&mut self.warps, &tb.warp_slots, released, |s| {
                matches!(s, WarpState::WaitLeader(..))
            });
        }
    }

    fn free_tb(&mut self, tb_idx: usize) {
        let pool = self.tbs[tb_idx].as_ref().map_or(0, |t| t.rename.capacity() as u32);
        self.tbs[tb_idx] = None;
        self.used_regs -= self.regs_per_tb() + pool;
        self.used_smem -= self.kd.ck.kernel.shared_mem_bytes;
    }

    /// Shadow soundness oracle: recompute a skipped instruction (`instr`,
    /// at `pc`) and compare with the leader's shared value.
    fn shadow_check_marker(
        &mut self,
        instr: &simt_isa::Instruction,
        wslot: usize,
        pc: usize,
        dst: Reg,
        values: &[u32],
        global: &mut GlobalMemory,
    ) {
        let w = self.warps[wslot].as_mut().expect("warp exists");
        let tb = self.tbs[w.tb].as_mut().expect("TB exists");
        let before = w.reg_vector(dst);
        let mut ctx = ExecContext {
            global,
            shared: &mut tb.shared,
            params: &self.kd.launch.params,
            grid: self.kd.launch.grid,
            block: self.kd.launch.block,
            ctaid: tb.ctaid,
        };
        let _ = execute(w, instr, &mut ctx, &mut self.addrs);
        let recomputed = w.reg_vector(dst);
        w.set_reg_vector(dst, &before);
        assert_eq!(
            recomputed.as_slice(),
            values,
            "DARSIE shadow check failed at pc {pc} ({}): skipped value diverges from \
             recomputation",
            instr
        );
    }

    // ----- fetch ---------------------------------------------------------------

    fn fetch(&mut self, now: u64) {
        self.pc_coalescer.begin_cycle();
        let n = self.warps.len();
        let mut served = 0;
        for off in 0..n {
            if served >= self.cfg.fetch_width {
                break;
            }
            let slot = (self.fetch_rr + off) % n;
            let eligible = self.warps[slot].as_ref().is_some_and(|w| {
                w.state == WarpState::Ready
                    && !w.fetch_blocked
                    && w.fetch_ready_at <= now
                    && w.ibuffer_instrs() < self.cfg.ibuffer_entries
                    && w.top().is_some()
            });
            if !eligible {
                continue;
            }
            if self.fetch_warp(now, slot) {
                served += 1;
            }
        }
        self.fetch_rr = (self.fetch_rr + 1) % n;
    }

    /// Runs the DARSIE/DAC skipper at the fetch frontier, then a normal
    /// fetch burst (which stops in front of the next eliminable
    /// instruction), then the skipper again — so a skippable instruction
    /// that immediately follows a vector one is probed rather than
    /// swallowed by the same fetch. Returns true when a fetch slot was
    /// consumed.
    fn fetch_warp(&mut self, now: u64, wslot: usize) -> bool {
        // Flush wrong-path prefetch before working at the frontier: after
        // a reconvergence pop, buffered entries may belong to the popped
        // path, and the skipper must not extend a stale frontier.
        {
            let w = self.warps[wslot].as_mut().expect("warp exists");
            let front_pc = w.ibuffer.front().map(|e| match e {
                IBufEntry::Instr { pc, .. }
                | IBufEntry::SkipMarker { pc, .. }
                | IBufEntry::Ghost { pc } => *pc,
            });
            if let (Some(fpc), Some(npc)) = (front_pc, w.next_pc()) {
                if fpc != npc {
                    debug_assert!(
                        w.ibuffer.iter().all(|e| !matches!(e, IBufEntry::SkipMarker { .. })),
                        "skip markers must never be on a wrong path"
                    );
                    w.ibuffer.clear();
                    w.fetch_blocked = false;
                }
            }
        }
        // Technique-specific pre-fetch elimination.
        if !self.pre_fetch_eliminate(now, wslot) {
            return false; // warp went to sleep (waiting for a leader)
        }
        let fetched = self.fetch_burst(now, wslot);
        // The burst may have stopped right before a skippable PC.
        let _ = self.pre_fetch_eliminate(now, wslot);
        fetched
    }

    /// Returns false when the warp blocked (no fetch this cycle).
    fn pre_fetch_eliminate(&mut self, now: u64, wslot: usize) -> bool {
        match &self.technique {
            Technique::Darsie(d) => {
                let (budget, versioning) = (d.max_skips_per_warp_cycle, d.versioning);
                self.darsie_skip_loop(now, wslot, budget, versioning)
            }
            Technique::DacIdeal => {
                self.dac_ghost_loop(wslot);
                true
            }
            _ => true,
        }
    }

    /// True when the frontend eliminates `pc` before fetch under the
    /// active technique.
    fn eliminable(&self, pc: usize) -> bool {
        match &self.technique {
            Technique::Darsie(_) => self.kd.plan.skippable[pc],
            Technique::DacIdeal => self.kd.plan.dac_affine[pc],
            _ => false,
        }
    }

    fn fetch_burst(&mut self, now: u64, wslot: usize) -> bool {
        let w = self.warps[wslot].as_ref().expect("warp exists");
        if w.state != WarpState::Ready
            || w.fetch_blocked
            || w.ibuffer_instrs() >= self.cfg.ibuffer_entries
        {
            return false;
        }
        let Some(pc) = w.fetch_pc() else { return false };
        if pc >= self.kd.ck.kernel.len() {
            return false;
        }

        // One I-cache access per fetch (line of the first instruction).
        self.stats.icache_accesses += 1;
        let line = simt_isa::Kernel::byte_pc(pc) / GpuConfig::LINE_BYTES;
        if !self.icache.access(line) {
            self.stats.icache_misses += 1;
            let w = self.warps[wslot].as_mut().expect("warp exists");
            w.fetch_ready_at = now + timing::fetch_miss_penalty(&self.cfg);
            return true;
        }

        let mut delivered = 0;
        while delivered < self.cfg.instrs_per_fetch {
            let (pc, room) = {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                (w.fetch_pc(), w.ibuffer_instrs() < self.cfg.ibuffer_entries)
            };
            let Some(pc) = pc else { break };
            if !room || pc >= self.kd.ck.kernel.len() {
                break;
            }
            // Leave eliminable instructions to the skipper (unless the
            // warp cannot skip at all right now, in which case the first
            // slot fetches it normally).
            if delivered > 0 && self.eliminable(pc) {
                break;
            }
            let op = self.kd.instr(pc).op;
            self.trace(wslot, pc, EventKind::Fetch);
            let w = self.warps[wslot].as_mut().expect("warp exists");
            w.ibuffer.push_back(IBufEntry::Instr { pc, leader: None });
            self.stats.instrs_fetched += 1;
            delivered += 1;
            if matches!(op, Op::Bra { .. } | Op::Exit) {
                w.fetch_blocked = true;
                break;
            }
        }
        delivered > 0
    }

    /// DAC-IDEAL: transfer affine instructions at the fetch frontier onto
    /// the (free) affine stream. Unlimited per cycle — idealized.
    fn dac_ghost_loop(&mut self, wslot: usize) {
        loop {
            let w = self.warps[wslot].as_ref().expect("warp exists");
            if w.fetch_blocked {
                return;
            }
            let Some(pc) = w.fetch_pc() else { return };
            if pc >= self.kd.ck.kernel.len() || !self.kd.plan.dac_affine[pc] {
                return;
            }
            let w = self.warps[wslot].as_mut().expect("warp exists");
            w.ibuffer.push_back(IBufEntry::Ghost { pc });
        }
    }

    /// Bounded leader stall: wait for resources up to a threshold, then
    /// give up and execute the (redundant) instruction normally.
    fn leader_stall_or_give_up(&mut self, wslot: usize) -> bool {
        let max_stall = self.darsie().map_or(64, |d| d.max_leader_stall);
        let w = self.warps[wslot].as_mut().expect("warp exists");
        w.leader_stall += 1;
        if w.leader_stall > max_stall {
            w.leader_stall = 0;
            self.stats.darsie.leader_giveups += 1;
            true // fall through to a normal fetch of this instruction
        } else {
            false
        }
    }

    /// DARSIE skip loop at the fetch frontier (paper Section 4.3.5), with
    /// at most `budget` skips per cycle; `versioning` off is the
    /// write-synchronization ablation. Returns false when the warp blocked
    /// (waiting for a leader, out of skip-table ports, or out of per-cycle
    /// skip budget with a skippable instruction still at the frontier — it
    /// retries next cycle rather than fetching the redundant instruction).
    fn darsie_skip_loop(
        &mut self,
        now: u64,
        wslot: usize,
        budget: usize,
        versioning: bool,
    ) -> bool {
        for iter in 0..=budget {
            let (tb_idx, warp_in_tb, pc) = {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                if w.fetch_blocked {
                    return true;
                }
                let Some(pc) = w.fetch_pc() else { return true };
                (w.tb, w.warp_in_tb, pc)
            };
            if pc >= self.kd.ck.kernel.len() || !self.kd.plan.skippable[pc] {
                return true;
            }
            // Occupancy left no spare registers for this TB's renaming
            // pool: skipping is disabled for it (paper: DARSIE never
            // trades occupancy for renaming space).
            if self.tbs[tb_idx].as_ref().expect("TB exists").rename.capacity() == 0 {
                return true;
            }
            if iter == budget {
                // Budget exhausted with a skippable frontier: retry next
                // cycle instead of fetching the redundant instruction.
                return false;
            }
            // Participation: full active mask, on the majority path.
            {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                let full = w.full_mask;
                let all_lanes = full.count_ones() == self.kd.launch.warp_size;
                if w.active_mask() != full || !all_lanes {
                    return true;
                }
                let tb = self.tbs[tb_idx].as_ref().expect("TB exists");
                if !tb.majority.contains(warp_in_tb) {
                    return true;
                }
            }
            // Skip-table port arbitration via the PC coalescer. A warp
            // whose probe loses port arbitration retries next cycle; it
            // must not fall through and fetch the (skippable) instruction.
            if !self.pc_coalescer.request(pc, &mut self.stats.darsie) {
                return false;
            }
            let instance = {
                let w = self.warps[wslot].as_ref().expect("warp exists");
                w.frontier_instance(pc)
            };
            let outcome = {
                let tb = self.tbs[tb_idx].as_ref().expect("TB exists");
                tb.skip_table.probe(pc, instance, &mut self.stats.darsie)
            };
            match outcome {
                ProbeOutcome::Skip => {
                    let instr = self.kd.instr(pc);
                    let dst = instr.dst.expect("skippable instructions write a register");
                    let taxonomy = self.kd.plan.taxonomy[pc];
                    let values = {
                        let tb = self.tbs[tb_idx].as_ref().expect("TB exists");
                        Arc::clone(
                            tb.snapshots
                                .get(&(pc, instance))
                                .expect("leader_wb implies a snapshot"),
                        )
                    };
                    {
                        let w = self.warps[wslot].as_mut().expect("warp exists");
                        w.ibuffer.push_back(IBufEntry::SkipMarker { pc, dst, values });
                    }
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    // Rename bookkeeping: the follower rebinds its view of
                    // the register to the leader's version, releasing the
                    // version it held before (freeing exhausted pregs).
                    if let Some(&(reg, version)) = tb.entry_versions.get(&(pc, instance)) {
                        let _ = tb.rename.lookup(warp_in_tb, reg, &mut self.stats.darsie);
                        let _ = tb.rename.bind(warp_in_tb, reg, version, &mut self.stats.darsie);
                    }
                    let must = tb.must_pass_mask();
                    if tb.skip_table.record_pass(pc, instance, warp_in_tb, must, now) {
                        tb.entry_completed(pc, instance);
                    }
                    self.stats.instrs_skipped.add(taxonomy, 1);
                    self.stats.darsie.instructions_skipped += 1;
                    self.trace(wslot, pc, EventKind::Skip);
                    // Loop: try to skip the next instruction too.
                }
                ProbeOutcome::BecomeLeader => {
                    // The leader's instruction needs a real I-buffer slot.
                    {
                        let w = self.warps[wslot].as_ref().expect("warp exists");
                        if w.ibuffer_instrs() >= self.cfg.ibuffer_entries {
                            return true;
                        }
                    }
                    let is_load = self.kd.plan.skippable_is_load[pc];
                    let dst = self.kd.instr(pc).dst.expect("skippable writes a register");
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    // The write-synchronization ablation (paper Section 4.1
                    // option 1): a new version of a register may not be
                    // created while an older skip entry for the same
                    // register is live — wait for the TB to drain it.
                    if !versioning {
                        let conflict = tb.skip_table.iter().any(|e| {
                            tb.entry_versions
                                .get(&(e.pc, e.instance))
                                .is_some_and(|&(r, _)| r == dst.0)
                        });
                        if conflict {
                            return self.leader_stall_or_give_up(wslot);
                        }
                    }
                    // Resource exhaustion acts as a synchronization point
                    // (paper Section 4.3.5): the would-be leader waits for
                    // stragglers to drain old entries rather than forfeit
                    // the skip. Bounded: a version pinned until warp exit
                    // would otherwise deadlock the TB.
                    if tb.rename.free_regs() == 0 {
                        self.stats.darsie.freelist_stalls += 1;
                        return self.leader_stall_or_give_up(wslot);
                    }
                    if !tb.skip_table.insert_leader(
                        pc,
                        instance,
                        warp_in_tb,
                        is_load,
                        now,
                        &mut self.stats.darsie,
                    ) {
                        return self.leader_stall_or_give_up(wslot);
                    }
                    self.warps[wslot].as_mut().expect("warp exists").leader_stall = 0;
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    // The insert may have LRU-evicted an entry; reclaim its
                    // version and snapshot.
                    tb.gc_versions();
                    let (version, _preg) = tb
                        .rename
                        .allocate_version(warp_in_tb, dst.0, &mut self.stats.darsie)
                        .expect("freelist checked non-empty this cycle");
                    tb.entry_versions.insert((pc, instance), (dst.0, version));
                    let w = self.warps[wslot].as_mut().expect("warp exists");
                    w.ibuffer.push_back(IBufEntry::Instr { pc, leader: Some(instance) });
                    self.stats.instrs_fetched += 1;
                    self.trace(wslot, pc, EventKind::Lead);
                    // The leader's instruction still consumes fetch work:
                    // charge the I-cache access.
                    self.stats.icache_accesses += 1;
                    let line = simt_isa::Kernel::byte_pc(pc) / GpuConfig::LINE_BYTES;
                    if !self.icache.access(line) {
                        self.stats.icache_misses += 1;
                    }
                    // Continue the loop: following instructions may skip.
                }
                ProbeOutcome::WaitForLeader => {
                    let tb = self.tbs[tb_idx].as_mut().expect("TB exists");
                    tb.skip_table.record_wait(pc, instance, warp_in_tb, now);
                    let w = self.warps[wslot].as_mut().expect("warp exists");
                    w.state = WarpState::WaitLeader(pc, instance);
                    self.trace(wslot, pc, EventKind::WaitLeader);
                    return false;
                }
            }
        }
        true
    }
}

/// Outcome of one issue attempt. `Stall` carries the blamed cause and,
/// when one is known, the I-buffer head PC — the profiler charges the
/// lost issue slot to that (cause, PC) pair.
enum IssueOutcome {
    Issued,
    IssuedControl { tb_done: u32 },
    Stall { cause: StallCause, pc: Option<usize> },
}

/// Wakes the warps of one TB (`slots`, in warp-in-TB order) whose bit is
/// set in `mask` and that are parked in a state `parked` accepts.
fn wake(
    warps: &mut [Option<Warp>],
    slots: &[usize],
    mask: WarpMask,
    parked: impl Fn(WarpState) -> bool,
) {
    for (i, &slot) in slots.iter().enumerate() {
        if mask & (1 << i) != 0 {
            if let Some(w) = warps[slot].as_mut() {
                if parked(w.state) {
                    w.state = WarpState::Ready;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{KernelBuilder, SpecialReg};

    /// An SM of the Pascal configuration (4 schedulers) holding one TB of
    /// 16 warps in slots 0..16, every warp with an instruction buffered.
    fn sm_with_16_warps(scheduler: SchedulerPolicy) -> Sm {
        let mut b = KernelBuilder::new("sched");
        let tid = b.special(SpecialReg::TidX);
        let _ = b.iadd(tid, 1u32);
        let ck = simt_compiler::compile(b.finish());
        let launch = LaunchConfig::new(1u32, 512u32);
        let cfg = GpuConfig { scheduler, ..GpuConfig::pascal_gtx1080ti() };
        let mut sm = Sm::new(0, &cfg, Technique::Base, Arc::new(KernelData::new(ck, launch)));
        sm.launch_tb(Dim3::three_d(0, 0, 0));
        for w in sm.warps.iter_mut().flatten() {
            w.ibuffer.push_back(IBufEntry::Instr { pc: 0, leader: None });
        }
        sm
    }

    fn warp(sm: &mut Sm, slot: usize) -> &mut Warp {
        sm.warps[slot].as_mut().expect("resident warp")
    }

    #[test]
    fn gto_puts_the_greedy_warp_first_then_the_oldest() {
        let mut sm = sm_with_16_warps(SchedulerPolicy::Gto);
        // Scheduler 0 owns slots 0, 4, 8 and 12; make age disagree with
        // slot order.
        for (slot, age) in [(0, 30), (4, 10), (8, 20), (12, 40)] {
            warp(&mut sm, slot).age = age;
        }
        let mut buf = Vec::new();
        sm.warp_candidates(0, &mut buf);
        assert_eq!(buf, [4, 8, 0, 12], "no greedy warp yet: oldest first");

        sm.gto_last[0] = Some(12);
        sm.warp_candidates(0, &mut buf);
        assert_eq!(buf, [12, 4, 8, 0], "the greedy warp leads, the rest stay oldest first");

        // The reused buffer holds only this cycle's candidates: a warp at
        // a barrier or with an empty I-buffer drops out, a warp waiting
        // for a DARSIE leader stays in.
        warp(&mut sm, 8).state = WarpState::AtBarrier;
        warp(&mut sm, 4).ibuffer.clear();
        warp(&mut sm, 0).state = WarpState::WaitLeader(0, 1);
        sm.warp_candidates(0, &mut buf);
        assert_eq!(buf, [12, 0]);

        // A greedy warp that is no longer a candidate leaves the order
        // alone.
        sm.gto_last[0] = Some(8);
        sm.warp_candidates(0, &mut buf);
        assert_eq!(buf, [0, 12]);
    }

    #[test]
    fn schedulers_visit_only_their_own_slots() {
        let mut sm = sm_with_16_warps(SchedulerPolicy::Gto);
        let mut buf = Vec::new();
        for s in 0..4 {
            sm.warp_candidates(s, &mut buf);
            assert_eq!(buf, [s, s + 4, s + 8, s + 12], "scheduler {s}");
        }
    }

    #[test]
    fn lrr_rotates_past_the_last_warp_served_each_cycle() {
        let mut sm = sm_with_16_warps(SchedulerPolicy::Lrr);
        let mut buf = Vec::new();
        let mut firsts = Vec::new();
        for _ in 0..5 {
            sm.warp_candidates(1, &mut buf);
            firsts.push(buf[0]);
        }
        assert_eq!(firsts, [1, 5, 9, 13, 1], "round robin over slots 1, 5, 9, 13");
        assert_eq!(sm.lrr_next[1], 2);
        sm.warp_candidates(1, &mut buf);
        assert_eq!(buf, [5, 9, 13, 1], "rotated to start at the pointer");

        // The pointer skips slots that are not candidates this cycle.
        warp(&mut sm, 9).ibuffer.clear();
        sm.warp_candidates(1, &mut buf);
        assert_eq!(buf, [13, 1, 5]);
        assert_eq!(sm.lrr_next[1], 14);

        // An idle scheduler leaves its pointer alone.
        for slot in [1, 5, 13] {
            warp(&mut sm, slot).ibuffer.clear();
        }
        sm.warp_candidates(1, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(sm.lrr_next[1], 14);
    }
}
