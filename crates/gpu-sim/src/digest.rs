//! Epoch-chained digests of architectural state: the measurement layer of
//! the determinism observatory.
//!
//! The simulator's determinism contract ("identical runs produce
//! bit-identical results") used to be checkable only as a binary
//! end-of-run comparison. This module turns it into an audit trail: at a
//! configurable cadence ([`DigestCadence`]) every SM folds its
//! architectural state — per-warp PC stacks, active masks, register and
//! predicate files, the scoreboard, DARSIE skip-table/renaming state,
//! in-flight memory-queue occupancy — into a cheap FNV-style digest, and
//! the epochs chain (each entry folds its predecessor) so a single
//! comparison of chain heads covers the whole run. Global memory, L2 and
//! DRAM digest at GPU level into their own chain ([`RunDigests::mem_chain`])
//! because they are shared across SMs; only pages *touched since the last
//! epoch* are folded, so quiet epochs cost almost nothing. All chains fold
//! into one per-run root carried on
//! [`SimStats::digest_root`](crate::SimStats::digest_root).
//!
//! Two chained runs that agree on their roots agree (w.h.p.) on every
//! epoch; when they disagree, the chaining makes "first divergent epoch" a
//! monotone predicate, so [`DigestChain::first_divergence`] binary-searches
//! it with `partition_point`. A fine re-run (cadence `Cycle(1)`, component
//! sub-digests on, recording window bracketing the divergent epoch) then
//! lets [`localize`] name the SM, warp and component (scoreboard vs
//! skip-table vs memory vs ...) that first disagreed.
//!
//! Deliberately excluded from the digests: statistics counters (they are
//! *outputs*, compared separately), profiler state, the event ring, and
//! per-cycle transients that never live across a cycle boundary (the PC
//! coalescer's port grants, the SM's scratch buffers). Keyed state is
//! kept in ordered maps and folded in key order as it iterates, so no
//! digest ever observes an iteration order that could vary between runs.

/// FNV-1a offset basis (the same constant
/// [`GlobalMemory::fingerprint`](crate::GlobalMemory::fingerprint) uses).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds one word into an FNV-style accumulator.
#[inline]
pub fn fold(h: &mut u64, w: u64) {
    *h ^= w;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// The splitmix64 finalizer: scrambles an accumulator so structurally
/// similar states do not produce numerically adjacent digests.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Default digest interval (cycles) for [`DigestCadence::Cycle`]: coarse
/// enough to keep wall-time overhead in the low single digits (the
/// dominant per-epoch cost is folding every resident warp's full register
/// file; `bench` measures the overhead on every snapshot), fine enough
/// that a bisected divergence window stays about a thousand cycles wide.
pub const DEFAULT_DIGEST_INTERVAL: u64 = 1024;

/// When the digest layer snapshots architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestCadence {
    /// Every `n` cycles (and once at drain). `n = 1` digests every cycle.
    Cycle(u64),
    /// Whenever any SM releases a threadblock barrier (and at drain).
    Barrier,
    /// Whenever a threadblock completes (and at drain).
    TbBoundary,
}

impl Default for DigestCadence {
    fn default() -> DigestCadence {
        DigestCadence::Cycle(DEFAULT_DIGEST_INTERVAL)
    }
}

impl DigestCadence {
    /// Stable label for reports and manifests.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DigestCadence::Cycle(n) => format!("cycle:{n}"),
            DigestCadence::Barrier => "barrier".to_string(),
            DigestCadence::TbBoundary => "tb-boundary".to_string(),
        }
    }
}

/// Digest-layer configuration, carried on
/// [`GpuConfig::digest`](crate::GpuConfig::digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Master switch. On by default; benches measuring raw simulator speed
    /// turn it off via [`DigestConfig::off`].
    pub enabled: bool,
    /// Epoch cadence.
    pub cadence: DigestCadence,
    /// Record per-component and per-warp sub-digests on every epoch (the
    /// bisector's fine mode). Costs an allocation per epoch, so pair it
    /// with a recording `window`.
    pub components: bool,
    /// When set, epochs are recorded only for cycles in `[start, end]`
    /// (inclusive). Bounds the memory of a fine-cadence re-run.
    pub window: Option<(u64, u64)>,
}

impl Default for DigestConfig {
    fn default() -> DigestConfig {
        DigestConfig {
            enabled: true,
            cadence: DigestCadence::default(),
            components: false,
            window: None,
        }
    }
}

impl DigestConfig {
    /// Digesting disabled entirely.
    #[must_use]
    pub fn off() -> DigestConfig {
        DigestConfig { enabled: false, ..DigestConfig::default() }
    }

    /// The bisector's fine mode: every cycle, with component sub-digests,
    /// recording only inside `window`.
    #[must_use]
    pub fn fine(window: (u64, u64)) -> DigestConfig {
        DigestConfig {
            enabled: true,
            cadence: DigestCadence::Cycle(1),
            components: true,
            window: Some(window),
        }
    }

    /// True when an epoch at `cycle` falls inside the recording window.
    #[must_use]
    pub fn in_window(&self, cycle: u64) -> bool {
        self.window.is_none_or(|(lo, hi)| (lo..=hi).contains(&cycle))
    }
}

/// A deliberate, reproducible state perturbation, injected by the run loop
/// at a fixed cycle. This is the observatory's test signal: the bisector's
/// fixtures perturb one run of a pair and assert the divergence report
/// names the right epoch and component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// XORs `xor` into the global-memory word at byte address `addr` at
    /// the start of `cycle`. Safe on any workload (it never changes
    /// control flow inside the machine, only architectural memory), and
    /// localizes to the `memory` chain.
    GlobalWord {
        /// Cycle the poke is applied (before that cycle's digest epoch).
        cycle: u64,
        /// 4-byte-aligned global byte address.
        addr: u64,
        /// Value XORed into the word.
        xor: u32,
    },
    /// XORs `xor` into one word of a resident warp's register file on SM
    /// `sm` at `cycle`. Only safe on kernels where the chosen register is
    /// pure data (a perturbed address register could fault), so this
    /// variant is reserved for controlled test kernels; it localizes to
    /// the named SM's `warp-state` component.
    WarpReg {
        /// Cycle the poke is applied.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot on that SM (skipped if empty).
        warp_slot: usize,
        /// Word index into the warp's flat register file (taken modulo its
        /// length).
        word: usize,
        /// Value XORed into the register word.
        xor: u32,
    },
}

/// Per-component sub-digests of one SM epoch (fine mode only). Field order
/// is the priority order [`ComponentDigests::first_diff`] reports: the
/// scoreboard and DARSIE structures are the usual suspects in a
/// determinism break, warp-visible state the usual victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDigests {
    /// Pending-register/predicate scoreboard words of every warp.
    pub scoreboard: u64,
    /// DARSIE skip tables, majority masks, snapshots, entry versions and
    /// branch-sync records of every resident TB.
    pub skip_table: u64,
    /// DARSIE register-renaming state of every resident TB.
    pub rename: u64,
    /// Warp-visible state: PC stacks, active masks, register and predicate
    /// files, I-buffers, warp scheduling state.
    pub warp_state: u64,
    /// Shared-memory contents of every resident TB.
    pub shared_mem: u64,
    /// Memory-system queue occupancy: in-flight writebacks, unit busy
    /// timers, scheduler pointers, cache tag state, the UV reuse buffer.
    pub queues: u64,
    /// Per-warp-slot digests of occupied warp slots, for naming the first
    /// diverging warp.
    pub per_warp: Vec<(usize, u64)>,
}

impl ComponentDigests {
    /// Stable component labels, in reporting priority order.
    pub const LABELS: [&'static str; 6] =
        ["scoreboard", "skip-table", "rename", "warp-state", "shared-mem", "queues"];

    fn fields(&self) -> [u64; 6] {
        [
            self.scoreboard,
            self.skip_table,
            self.rename,
            self.warp_state,
            self.shared_mem,
            self.queues,
        ]
    }

    /// The first differing component label, with both sides' digests.
    #[must_use]
    pub fn first_diff(&self, other: &ComponentDigests) -> Option<(&'static str, u64, u64)> {
        let (a, b) = (self.fields(), other.fields());
        (0..6).find(|&i| a[i] != b[i]).map(|i| (Self::LABELS[i], a[i], b[i]))
    }

    /// All differing components as `(label, a, b)` rows.
    #[must_use]
    pub fn diffs(&self, other: &ComponentDigests) -> Vec<(&'static str, u64, u64)> {
        let (a, b) = (self.fields(), other.fields());
        (0..6).filter(|&i| a[i] != b[i]).map(|i| (Self::LABELS[i], a[i], b[i])).collect()
    }

    /// The first warp slot whose digest differs (a slot occupied on only
    /// one side also counts as diverging).
    #[must_use]
    pub fn diverging_warp(&self, other: &ComponentDigests) -> Option<usize> {
        let mut i = 0;
        let mut j = 0;
        while i < self.per_warp.len() && j < other.per_warp.len() {
            let (sa, da) = self.per_warp[i];
            let (sb, db) = other.per_warp[j];
            match sa.cmp(&sb) {
                std::cmp::Ordering::Less => return Some(sa),
                std::cmp::Ordering::Greater => return Some(sb),
                std::cmp::Ordering::Equal => {
                    if da != db {
                        return Some(sa);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        self.per_warp.get(i).or(other.per_warp.get(j)).map(|&(s, _)| s)
    }
}

/// One recorded epoch of a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDigest {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// Digest of the state at this epoch alone.
    pub state: u64,
    /// Chained digest: folds the previous entry's `chained`, this epoch's
    /// cycle and `state`. Equal `chained` values imply (w.h.p.) the whole
    /// prefixes are equal.
    pub chained: u64,
    /// Component sub-digests (fine mode only).
    pub components: Option<ComponentDigests>,
}

/// An epoch-chained digest sequence for one SM (or the shared memory
/// system).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestChain {
    /// Stable chain label: `sm<N>` or `memory`.
    pub label: String,
    /// Recorded epochs, in cycle order.
    pub entries: Vec<EpochDigest>,
}

impl DigestChain {
    /// An empty chain.
    #[must_use]
    pub fn new(label: impl Into<String>) -> DigestChain {
        DigestChain { label: label.into(), entries: Vec::new() }
    }

    /// The chain head: the last chained digest, or the FNV offset basis
    /// for an empty chain.
    #[must_use]
    pub fn head(&self) -> u64 {
        self.entries.last().map_or(FNV_OFFSET, |e| e.chained)
    }

    /// Appends an epoch, chaining it onto the current head.
    pub fn push(&mut self, cycle: u64, state: u64, components: Option<ComponentDigests>) {
        let mut h = self.head();
        fold(&mut h, cycle);
        fold(&mut h, state);
        let chained = splitmix64(h);
        self.entries.push(EpochDigest { cycle, state, chained, components });
    }

    /// Binary-searches the first divergent epoch index against `other`.
    ///
    /// Chaining makes per-epoch equality a monotone predicate (equal at
    /// `i` implies equal at every `j < i`, w.h.p.), so `partition_point`
    /// finds the boundary in `O(log n)` digest comparisons. Returns
    /// `Some(min_len)` when one chain is a strict prefix of the other, and
    /// `None` when the chains are identical.
    #[must_use]
    pub fn first_divergence(&self, other: &DigestChain) -> Option<usize> {
        let n = self.entries.len().min(other.entries.len());
        // Binary search over epoch positions: count the equal prefix.
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entries[mid].chained == other.entries[mid].chained {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < n {
            return Some(lo);
        }
        (self.entries.len() != other.entries.len()).then_some(n)
    }
}

/// Where two runs' digest chains first disagree, at recorded (coarse)
/// cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarseDivergence {
    /// Label of the earliest-diverging chain (`sm<N>` or `memory`).
    pub chain: String,
    /// SM index when the chain is an SM chain.
    pub sm: Option<usize>,
    /// Index of the first divergent epoch in that chain.
    pub epoch: usize,
    /// Cycle of that epoch (minimum of the two runs when they disagree on
    /// it, e.g. under `Barrier` cadence).
    pub cycle: u64,
    /// Cycle of the last epoch both runs agree on (the lower edge of the
    /// bisection window).
    pub prev_cycle: u64,
}

/// A fully localized first divergence, produced by [`localize`] from a
/// fine-cadence run pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Chain that diverged first (`sm<N>` or `memory`).
    pub chain: String,
    /// SM index when an SM chain diverged.
    pub sm: Option<usize>,
    /// First divergent epoch index in that chain.
    pub epoch: usize,
    /// Cycle of the first divergent epoch.
    pub cycle: u64,
    /// Component that first disagreed: one of
    /// [`ComponentDigests::LABELS`], `"memory"`, or `"run-length"` when
    /// one run simply recorded more epochs with no state mismatch.
    pub component: String,
    /// First diverging warp slot, when the `warp-state` component names
    /// one.
    pub warp: Option<usize>,
    /// Every differing component at the divergent epoch, as
    /// `(label, digest_a, digest_b)`.
    pub subs: Vec<(String, u64, u64)>,
}

/// All digest chains of one run, plus the folded root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigests {
    /// One chain per SM, indexed by SM id.
    pub sm_chains: Vec<DigestChain>,
    /// The shared memory-system chain (global pages touched per epoch, L2
    /// tag state, DRAM queue cursor).
    pub mem_chain: DigestChain,
    /// Per-run root: fold of every chain head and the final cycle count.
    /// Zero until [`RunDigests::finish`] runs.
    pub root: u64,
}

impl RunDigests {
    /// Empty chains for `num_sms` SMs.
    #[must_use]
    pub fn new(num_sms: usize) -> RunDigests {
        RunDigests {
            sm_chains: (0..num_sms).map(|i| DigestChain::new(format!("sm{i}"))).collect(),
            mem_chain: DigestChain::new("memory"),
            root: 0,
        }
    }

    /// Folds the chain heads and final cycle count into the root.
    pub fn finish(&mut self, cycles: u64) {
        let mut h = FNV_OFFSET;
        for c in &self.sm_chains {
            fold(&mut h, c.head());
        }
        fold(&mut h, self.mem_chain.head());
        fold(&mut h, cycles);
        self.root = splitmix64(h);
    }

    /// Chains in reporting order: SMs by id, then memory.
    pub fn chains(&self) -> impl Iterator<Item = &DigestChain> {
        self.sm_chains.iter().chain(std::iter::once(&self.mem_chain))
    }

    /// The earliest (by cycle) first divergence across all chains, or
    /// `None` when every chain matches.
    #[must_use]
    pub fn first_divergence(&self, other: &RunDigests) -> Option<CoarseDivergence> {
        let mut best: Option<CoarseDivergence> = None;
        for (idx, (a, b)) in self.chains().zip(other.chains()).enumerate() {
            let Some(epoch) = a.first_divergence(b) else { continue };
            let cycle_of = |c: &DigestChain, i: usize| c.entries.get(i).map(|e| e.cycle);
            let cycle = match (cycle_of(a, epoch), cycle_of(b, epoch)) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => continue,
            };
            let prev_cycle = epoch.checked_sub(1).and_then(|p| cycle_of(a, p)).unwrap_or(0);
            let sm = (idx < self.sm_chains.len()).then_some(idx);
            let cand = CoarseDivergence { chain: a.label.clone(), sm, epoch, cycle, prev_cycle };
            let better = best.as_ref().is_none_or(|b0| cand.cycle < b0.cycle);
            if better {
                best = Some(cand);
            }
        }
        best
    }
}

/// Localizes the first divergence between two *fine-mode* run digests
/// (cadence `Cycle(1)`, components recorded): names the chain, epoch,
/// cycle, component and — when warp state diverged — the warp slot.
#[must_use]
pub fn localize(a: &RunDigests, b: &RunDigests) -> Option<Divergence> {
    let coarse = a.first_divergence(b)?;
    let (ca, cb) = if coarse.chain == "memory" {
        (&a.mem_chain, &b.mem_chain)
    } else {
        let i = coarse.sm.expect("non-memory chains carry an SM index");
        (&a.sm_chains[i], &b.sm_chains[i])
    };
    let (ea, eb) = (ca.entries.get(coarse.epoch), cb.entries.get(coarse.epoch));
    let (component, warp, subs) = match (ea, eb) {
        (Some(ea), Some(eb)) => match (&ea.components, &eb.components) {
            (Some(da), Some(db)) => {
                let first = da.first_diff(db);
                let warp = match first {
                    Some(("warp-state", _, _)) | None => da.diverging_warp(db),
                    _ => None,
                };
                let component = first.map_or_else(
                    || if coarse.chain == "memory" { "memory" } else { "warp-state" },
                    |(l, _, _)| l,
                );
                let subs = da
                    .diffs(db)
                    .into_iter()
                    .map(|(l, x, y)| (l.to_string(), x, y))
                    .collect::<Vec<_>>();
                (component.to_string(), warp, subs)
            }
            _ => {
                // No component breakdown (coarse entries): the chain label
                // itself is the best component name available.
                let label = if coarse.chain == "memory" { "memory" } else { "warp-state" };
                (label.to_string(), None, vec![(label.to_string(), ea.state, eb.state)])
            }
        },
        // One run recorded more epochs than the other with every shared
        // epoch equal: the runs disagree on lifetime, not on any snapshot.
        _ => ("run-length".to_string(), None, Vec::new()),
    };
    let component = if coarse.chain == "memory" && component != "run-length" {
        "memory".to_string()
    } else {
        component
    };
    Some(Divergence {
        chain: coarse.chain,
        sm: coarse.sm,
        epoch: coarse.epoch,
        cycle: coarse.cycle,
        component,
        warp,
        subs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_of(states: &[u64]) -> DigestChain {
        let mut c = DigestChain::new("sm0");
        for (i, &s) in states.iter().enumerate() {
            c.push(i as u64 * 10, s, None);
        }
        c
    }

    #[test]
    fn identical_chains_have_equal_heads_and_no_divergence() {
        let a = chain_of(&[1, 2, 3, 4]);
        let b = chain_of(&[1, 2, 3, 4]);
        assert_eq!(a.head(), b.head());
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn first_divergence_finds_the_first_differing_epoch() {
        let a = chain_of(&[1, 2, 3, 4, 5]);
        let b = chain_of(&[1, 2, 9, 4, 5]);
        assert_eq!(a.first_divergence(&b), Some(2));
        assert_ne!(a.head(), b.head(), "a mid-chain diff must reach the head");
    }

    #[test]
    fn prefix_chain_diverges_at_its_end() {
        let a = chain_of(&[1, 2, 3]);
        let b = chain_of(&[1, 2, 3, 4]);
        assert_eq!(a.first_divergence(&b), Some(3));
        assert_eq!(b.first_divergence(&a), Some(3));
    }

    #[test]
    fn run_digests_root_covers_every_chain() {
        let mk = |mem_state: u64| {
            let mut d = RunDigests::new(2);
            d.sm_chains[0].push(0, 11, None);
            d.sm_chains[1].push(0, 22, None);
            d.mem_chain.push(0, mem_state, None);
            d.finish(100);
            d
        };
        assert_eq!(mk(5).root, mk(5).root);
        assert_ne!(mk(5).root, mk(6).root);
    }

    #[test]
    fn earliest_divergence_across_chains_wins() {
        let mut a = RunDigests::new(2);
        let mut b = RunDigests::new(2);
        for cyc in [0u64, 10, 20] {
            a.sm_chains[0].push(cyc, 1, None);
            b.sm_chains[0].push(cyc, 1, None);
            a.sm_chains[1].push(cyc, 2, None);
            b.sm_chains[1].push(cyc, if cyc >= 10 { 9 } else { 2 }, None);
            a.mem_chain.push(cyc, 3, None);
            b.mem_chain.push(cyc, if cyc >= 20 { 8 } else { 3 }, None);
        }
        let d = a.first_divergence(&b).expect("sm1 diverges at cycle 10");
        assert_eq!(d.chain, "sm1");
        assert_eq!(d.sm, Some(1));
        assert_eq!(d.epoch, 1);
        assert_eq!(d.cycle, 10);
        assert_eq!(d.prev_cycle, 0);
    }

    #[test]
    fn component_first_diff_and_warp_naming() {
        let base = ComponentDigests {
            scoreboard: 1,
            skip_table: 2,
            rename: 3,
            warp_state: 4,
            shared_mem: 5,
            queues: 6,
            per_warp: vec![(0, 10), (3, 30)],
        };
        let mut other = base.clone();
        other.warp_state = 99;
        other.per_warp = vec![(0, 10), (3, 31)];
        assert_eq!(base.first_diff(&other), Some(("warp-state", 4, 99)));
        assert_eq!(base.diverging_warp(&other), Some(3));
        assert_eq!(base.first_diff(&base.clone()), None);
    }

    #[test]
    fn localize_names_component_epoch_and_warp() {
        let comps = |w: u64| ComponentDigests {
            scoreboard: 1,
            skip_table: 2,
            rename: 3,
            warp_state: w,
            shared_mem: 5,
            queues: 6,
            per_warp: vec![(2, w)],
        };
        let mut a = RunDigests::new(1);
        let mut b = RunDigests::new(1);
        for cyc in 0..4u64 {
            let (sa, sb) = if cyc >= 2 { (cyc + 100, cyc + 200) } else { (cyc, cyc) };
            a.sm_chains[0].push(cyc, sa, Some(comps(sa)));
            b.sm_chains[0].push(cyc, sb, Some(comps(sb)));
            a.mem_chain.push(cyc, 7, None);
            b.mem_chain.push(cyc, 7, None);
        }
        a.finish(4);
        b.finish(4);
        let d = localize(&a, &b).expect("diverges at cycle 2");
        assert_eq!(d.chain, "sm0");
        assert_eq!(d.sm, Some(0));
        assert_eq!(d.epoch, 2);
        assert_eq!(d.cycle, 2);
        assert_eq!(d.component, "warp-state");
        assert_eq!(d.warp, Some(2));
        assert_eq!(d.subs.len(), 1);
    }

    #[test]
    fn splitmix_is_a_bijection_probe() {
        // Not a full bijection proof, just a collision sanity check over a
        // small dense range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn cadence_labels_are_stable() {
        assert_eq!(DigestCadence::Cycle(64).label(), "cycle:64");
        assert_eq!(DigestCadence::Barrier.label(), "barrier");
        assert_eq!(DigestCadence::TbBoundary.label(), "tb-boundary");
    }

    #[test]
    fn window_gating() {
        let f = DigestConfig::fine((10, 20));
        assert!(!f.in_window(9));
        assert!(f.in_window(10));
        assert!(f.in_window(20));
        assert!(!f.in_window(21));
        assert!(DigestConfig::default().in_window(u64::MAX));
    }
}
