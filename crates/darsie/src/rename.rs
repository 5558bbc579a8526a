//! Multithreaded register renaming state (paper Section 4.3.1).
//!
//! Three cooperating structures, banked per threadblock:
//!
//! * the **register rename table** maps `<warp, reg#>` to `<reg#, version#>`
//!   (32 entries per TB in the paper's sizing);
//! * the **version table** maps `<reg#, version#>` to a physical register;
//! * the **freelist** hands out physical vector registers from the pool the
//!   kernel launch reserved for renaming.
//!
//! The simulator keeps the actual 32-lane values alongside (it snapshots a
//! leader's result when a follower skips), so this module models
//! *occupancy and accounting*: versions in flight, freelist pressure, and
//! the access counts the energy model charges.

use crate::stats::DarsieStats;
use crate::VecMap;

/// A `<reg#, version#>` pair naming one live renamed value.
pub type RegVersion = (u8, u32);

/// Per-threadblock renaming state. Every table is an ordered
/// [`VecMap`], so iteration (digest folds, warp release) follows key
/// order by construction.
#[derive(Debug, Clone)]
pub struct RenameState {
    /// Physical registers still free for renaming.
    free: Vec<u16>,
    /// Live versions: `<reg, version>` -> (physical register, reference
    /// mask of warps still bound to this version).
    versions: VecMap<RegVersion, (u16, u32)>,
    /// Rename table: per warp, per named register, the bound version.
    bindings: VecMap<(u32, u8), u32>,
    /// Next version number per named register.
    next_version: VecMap<u8, u32>,
    capacity: usize,
}

/// Drops `warp`'s reference to `<reg, version>`, returning the physical
/// register to `free` when it was the last one.
fn unref(
    versions: &mut VecMap<RegVersion, (u16, u32)>,
    free: &mut Vec<u16>,
    reg: u8,
    version: u32,
    warp: u32,
) {
    if let Some(e) = versions.get_mut(&(reg, version)) {
        e.1 &= !(1 << warp);
        if e.1 == 0 {
            let (preg, _) = versions.remove(&(reg, version)).expect("present");
            free.push(preg);
        }
    }
}

impl RenameState {
    /// Creates the state with `capacity` physical registers reserved for
    /// renaming (paper: up to 32 per TB). Physical register ids are
    /// allocated `0..capacity` and, in the real design, strided across the
    /// vector RF banks; [`RenameState::bank_of`] reproduces that stride for
    /// the bank-conflict model.
    #[must_use]
    pub fn new(capacity: usize) -> RenameState {
        RenameState {
            free: (0..capacity as u16).rev().collect(),
            versions: VecMap::new(),
            bindings: VecMap::new(),
            next_version: VecMap::new(),
            capacity,
        }
    }

    /// Number of free physical registers.
    #[must_use]
    pub fn free_regs(&self) -> usize {
        self.free.len()
    }

    /// Number of live versions.
    #[must_use]
    pub fn live_versions(&self) -> usize {
        self.versions.len()
    }

    /// Allocates a new version of `reg` for a leader warp. Returns the
    /// `(version, physical register)` pair, or `None` when the freelist is
    /// empty (the caller falls back to normal execution, or synchronizes —
    /// paper Section 4.3.5).
    pub fn allocate_version(
        &mut self,
        leader: u32,
        reg: u8,
        stats: &mut DarsieStats,
    ) -> Option<(u32, u16)> {
        let preg = self.free.pop()?;
        let v = self.next_version.get_or_insert_with(reg, || 0);
        *v += 1;
        let version = *v;
        self.versions.insert((reg, version), (preg, 1 << leader));
        let _ = self.bind(leader, reg, version, stats);
        stats.version_allocations += 1;
        Some((version, preg))
    }

    /// Binds `warp`'s view of `reg` to `version` (a follower skipping the
    /// producing instruction). Unbinds any previous version, possibly
    /// freeing it. Returns the physical register now bound, or `None` when
    /// the version is no longer live (the leader has already moved on and
    /// every reference was dropped; the follower keeps its private copy,
    /// which the simulator materialized from the value snapshot).
    pub fn bind(
        &mut self,
        warp: u32,
        reg: u8,
        version: u32,
        stats: &mut DarsieStats,
    ) -> Option<u16> {
        stats.rename_writes += 1;
        if !self.versions.contains_key(&(reg, version)) {
            // Stale version: drop any previous binding, bind nothing.
            self.unbind(warp, reg);
            return None;
        }
        if let Some(old) = self.bindings.insert((warp, reg), version) {
            if old != version {
                unref(&mut self.versions, &mut self.free, reg, old, warp);
            }
        }
        let e = self.versions.get_mut(&(reg, version)).expect("checked live above");
        e.1 |= 1 << warp;
        Some(e.0)
    }

    /// Looks up `warp`'s binding for `reg`, counting the rename-table probe
    /// the DARSIE pipeline performs on every register read.
    pub fn lookup(&self, warp: u32, reg: u8, stats: &mut DarsieStats) -> Option<(u32, u16)> {
        stats.rename_reads += 1;
        let version = *self.bindings.get(&(warp, reg))?;
        let (preg, _) = self.versions.get(&(reg, version))?;
        Some((version, *preg))
    }

    /// Drops `warp`'s binding for `reg` (the warp wrote the register
    /// privately, superseding the shared version). Frees the version when
    /// the last reference goes.
    pub fn unbind(&mut self, warp: u32, reg: u8) {
        if let Some(version) = self.bindings.remove(&(warp, reg)) {
            unref(&mut self.versions, &mut self.free, reg, version, warp);
        }
    }

    /// Force-releases a version (undo of a failed leader election).
    /// Removes every warp binding to it and returns the physical register
    /// to the freelist.
    pub fn free_version(&mut self, reg: u8, version: u32) {
        if let Some((preg, _)) = self.versions.remove(&(reg, version)) {
            self.free.push(preg);
        }
        self.bindings.retain(|(_, r), v| !(*r == reg && *v == version));
    }

    /// Releases every binding `warp` holds (the warp diverged off the
    /// majority path — it first copies values to its private space — or
    /// exited). Frees versions that lose their last reference, in register
    /// order: the bindings are keyed `(warp, reg)`, so the release order,
    /// which decides how physical registers stack back onto the freelist
    /// (i.e. which preg and RF bank the next allocation gets), is fixed.
    pub fn release_warp(&mut self, warp: u32) {
        for (&(w, reg), &version) in self.bindings.iter() {
            if w == warp {
                unref(&mut self.versions, &mut self.free, reg, version, warp);
            }
        }
        self.bindings.retain(|&(w, _), _| w != warp);
    }

    /// The vector-RF bank a renamed physical register lives in, given the
    /// strided allocation of Section 4.3.1.
    #[must_use]
    pub fn bank_of(preg: u16, num_banks: usize) -> usize {
        usize::from(preg) % num_banks
    }

    /// Total capacity of the renaming pool.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Folds the full renaming state into an FNV-style digest accumulator
    /// (same constants as the simulator's digest layer). The tables are
    /// ordered maps, so they fold in key order as they iterate.
    pub fn digest_fold(&self, h: &mut u64) {
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut f = |w: u64| {
            *h ^= w;
            *h = h.wrapping_mul(FNV_PRIME);
        };
        f(self.free.len() as u64);
        for &p in &self.free {
            f(u64::from(p));
        }
        for (&(reg, version), &(preg, refs)) in self.versions.iter() {
            f((u64::from(reg) << 32) | u64::from(version));
            f((u64::from(preg) << 32) | u64::from(refs));
        }
        for (&(warp, reg), &version) in self.bindings.iter() {
            f((u64::from(warp) << 8) | u64::from(reg));
            f(u64::from(version));
        }
        for (&reg, &v) in self.next_version.iter() {
            f((u64::from(reg) << 32) | u64::from(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> DarsieStats {
        DarsieStats::default()
    }

    #[test]
    fn allocate_bind_free_cycle() {
        let mut r = RenameState::new(4);
        let mut s = stats();
        let (v1, p1) =
            r.allocate_version(0, 5, &mut s).expect("freelist still holds free physical registers");
        assert_eq!(v1, 1);
        assert_eq!(r.free_regs(), 3);
        // Followers bind the same version.
        assert_eq!(r.bind(1, 5, v1, &mut s), Some(p1));
        assert_eq!(r.bind(2, 5, v1, &mut s), Some(p1));
        assert_eq!(r.lookup(1, 5, &mut s), Some((v1, p1)));
        // Second write to the same register creates version 2.
        let (v2, _p2) =
            r.allocate_version(0, 5, &mut s).expect("freelist still holds free physical registers");
        assert_eq!(v2, 2);
        assert_eq!(r.live_versions(), 2, "v1 still referenced by warps 1,2");
        // Warps 1 and 2 move on to v2; v1 is freed.
        r.bind(1, 5, v2, &mut s);
        r.bind(2, 5, v2, &mut s);
        assert_eq!(r.live_versions(), 1);
        assert_eq!(r.free_regs(), 3);
    }

    #[test]
    fn freelist_exhaustion_returns_none() {
        let mut r = RenameState::new(2);
        let mut s = stats();
        assert!(r.allocate_version(0, 1, &mut s).is_some());
        assert!(r.allocate_version(0, 2, &mut s).is_some());
        assert!(r.allocate_version(0, 3, &mut s).is_none(), "pool exhausted");
        assert_eq!(r.free_regs(), 0);
    }

    #[test]
    fn release_warp_frees_orphaned_versions() {
        let mut r = RenameState::new(4);
        let mut s = stats();
        let (v1, _) =
            r.allocate_version(0, 7, &mut s).expect("freelist still holds free physical registers");
        r.bind(1, 7, v1, &mut s);
        r.release_warp(0);
        assert_eq!(r.live_versions(), 1, "warp 1 still holds v1");
        r.release_warp(1);
        assert_eq!(r.live_versions(), 0);
        assert_eq!(r.free_regs(), 4);
        assert_eq!(r.lookup(1, 7, &mut s), None);
    }

    #[test]
    fn rebinding_same_version_does_not_double_free() {
        let mut r = RenameState::new(4);
        let mut s = stats();
        let (v1, _) =
            r.allocate_version(0, 7, &mut s).expect("freelist still holds free physical registers");
        r.bind(1, 7, v1, &mut s);
        r.bind(1, 7, v1, &mut s);
        assert_eq!(r.live_versions(), 1);
        r.release_warp(1);
        assert_eq!(r.live_versions(), 1, "leader still bound");
    }

    #[test]
    fn distinct_registers_version_independently() {
        let mut r = RenameState::new(8);
        let mut s = stats();
        let (va, _) =
            r.allocate_version(0, 1, &mut s).expect("freelist still holds free physical registers");
        let (vb, _) =
            r.allocate_version(0, 2, &mut s).expect("freelist still holds free physical registers");
        assert_eq!(va, 1);
        assert_eq!(vb, 1, "versions are per register name");
        assert_eq!(r.live_versions(), 2);
    }

    #[test]
    fn accounting_counts_reads_and_writes() {
        let mut r = RenameState::new(4);
        let mut s = stats();
        let (v, _) =
            r.allocate_version(0, 3, &mut s).expect("freelist still holds free physical registers");
        r.bind(1, 3, v, &mut s);
        let _ = r.lookup(1, 3, &mut s);
        let _ = r.lookup(2, 3, &mut s);
        assert_eq!(s.version_allocations, 1);
        assert!(s.rename_writes >= 2, "leader bind + follower bind");
        assert_eq!(s.rename_reads, 2);
    }

    #[test]
    fn binding_a_dead_version_is_harmless() {
        let mut r = RenameState::new(2);
        let mut s = stats();
        let (v1, _) =
            r.allocate_version(0, 5, &mut s).expect("freelist still holds free physical registers");
        // Leader moves on; v1 loses its last reference and is freed.
        let (_v2, _) =
            r.allocate_version(0, 5, &mut s).expect("freelist still holds free physical registers");
        assert_eq!(r.live_versions(), 1);
        // A late follower tries to bind the dead version.
        assert_eq!(r.bind(3, 5, v1, &mut s), None);
        assert_eq!(r.lookup(3, 5, &mut s), None);
    }

    #[test]
    fn unbind_releases_single_binding() {
        let mut r = RenameState::new(2);
        let mut s = stats();
        let (v, _) =
            r.allocate_version(0, 3, &mut s).expect("freelist still holds free physical registers");
        r.bind(1, 3, v, &mut s);
        r.unbind(0, 3);
        assert_eq!(r.live_versions(), 1, "warp 1 still bound");
        r.unbind(1, 3);
        assert_eq!(r.live_versions(), 0);
        assert_eq!(r.free_regs(), 2);
        r.unbind(1, 3); // idempotent
    }

    #[test]
    fn free_version_undoes_allocation() {
        let mut r = RenameState::new(2);
        let mut s = stats();
        let (v, _) =
            r.allocate_version(0, 9, &mut s).expect("freelist still holds free physical registers");
        r.free_version(9, v);
        assert_eq!(r.free_regs(), 2);
        assert_eq!(r.live_versions(), 0);
        assert_eq!(r.lookup(0, 9, &mut s), None);
    }

    #[test]
    fn strided_bank_mapping() {
        assert_eq!(RenameState::bank_of(0, 16), 0);
        assert_eq!(RenameState::bank_of(17, 16), 1);
        assert_eq!(RenameState::bank_of(31, 16), 15);
    }
}
