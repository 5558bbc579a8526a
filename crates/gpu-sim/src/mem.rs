//! Memory system substrate: global memory, caches, the global-memory
//! coalescer, shared-memory banking and the bandwidth-limited DRAM model.

use crate::config::GpuConfig;
use crate::digest::{fold, splitmix64, FNV_OFFSET};

/// Words per allocation page of [`GlobalMemory`].
const PAGE_WORDS: usize = 1024;

/// Bytes per page of [`GlobalMemory`].
const PAGE_BYTES: u64 = PAGE_WORDS as u64 * 4;

/// Highest byte address an instruction can form: a `u32` base plus an
/// `i32` offset, just under 6 GiB.
pub(crate) const MAX_GLOBAL_ADDR: u64 = u32::MAX as u64 + i32::MAX as u64;

/// Sparse word-addressable global memory. Addresses are byte addresses;
/// accesses are 32-bit and must be 4-byte aligned (the simulator's ISA is
/// word-oriented, like PTXPlus `u32` accesses).
///
/// The backing store is a hash-free page table: page `addr / 4096` is a
/// boxed run of 1024 words, allocated the first time it is written, so
/// every access is one indexed lookup. The table reaches only the highest
/// page written; an address no instruction can form (beyond a `u32` base
/// plus an `i32` offset) panics, which caps it at about 1.5 M slots.
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
    next_alloc: u64,
    /// Per page: written since the last digest epoch.
    dirty: Vec<bool>,
    /// The dirty pages, in first-write order; sorted when an epoch folds
    /// them (see [`GlobalMemory::epoch_digest`]).
    touched: Vec<u64>,
}

/// Page number and word index of byte address `addr`.
///
/// # Panics
///
/// Panics on an unaligned address or one beyond [`MAX_GLOBAL_ADDR`].
fn locate(addr: u64, what: &str) -> (usize, usize) {
    assert_eq!(addr % 4, 0, "unaligned global {what} at {addr:#x}");
    assert!(addr <= MAX_GLOBAL_ADDR, "global {what} beyond the addressable range at {addr:#x}");
    // Reduce modulo PAGE_WORDS in u64 before narrowing: a truncating
    // cast first would alias distant addresses on 32-bit targets.
    ((addr / PAGE_BYTES) as usize, ((addr / 4) % PAGE_WORDS as u64) as usize)
}

impl GlobalMemory {
    /// An empty memory whose allocator starts at a non-zero base (so that
    /// null-ish addresses fault loudly in tests).
    #[must_use]
    pub fn new() -> GlobalMemory {
        GlobalMemory { next_alloc: 0x1000, ..GlobalMemory::default() }
    }

    /// Reserves `bytes` of memory, returning the base address
    /// (128-byte aligned so buffers start on cache-line boundaries).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        self.next_alloc = (self.next_alloc + bytes + 127) & !127;
        base
    }

    /// Reads the 32-bit word at byte address `addr` (zero if untouched).
    ///
    /// # Panics
    ///
    /// Panics on unaligned access, or beyond the addressable range.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let (page, idx) = locate(addr, "read");
        self.pages.get(page).and_then(Option::as_ref).map_or(0, |p| p[idx])
    }

    /// Writes the 32-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access, or beyond the addressable range.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let (page, idx) = locate(addr, "write");
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
            self.dirty.resize(page + 1, false);
        }
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_WORDS]))[idx] = value;
        if !self.dirty[page] {
            self.dirty[page] = true;
            self.touched.push(page as u64);
        }
    }

    /// Digest of the pages written since the last call (the digest
    /// layer's per-epoch memory snapshot), in ascending page order,
    /// clearing the dirty set. Quiet epochs fold nothing and return a
    /// constant.
    pub fn epoch_digest(&mut self) -> u64 {
        let mut h = FNV_OFFSET;
        self.touched.sort_unstable();
        for &page in &self.touched {
            fold(&mut h, page);
            self.dirty[page as usize] = false;
            if let Some(words) = &self.pages[page as usize] {
                for &w in words.iter() {
                    fold(&mut h, u64::from(w));
                }
            }
        }
        self.touched.clear();
        splitmix64(h)
    }

    /// Reads a float.
    #[must_use]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes a float.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies a slice of words into memory starting at `addr`.
    pub fn write_slice_u32(&mut self, addr: u64, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, v);
        }
    }

    /// Copies a slice of floats into memory starting at `addr`.
    pub fn write_slice_f32(&mut self, addr: u64, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, v);
        }
    }

    /// Reads `len` words starting at `addr`.
    #[must_use]
    pub fn read_vec_u32(&self, addr: u64, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.read_u32(addr + 4 * i as u64)).collect()
    }

    /// Reads `len` floats starting at `addr`.
    #[must_use]
    pub fn read_vec_f32(&self, addr: u64, len: usize) -> Vec<f32> {
        (0..len).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// A stable fingerprint of all touched memory, for equivalence tests.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            // Skip all-zero pages: untouched and zero-filled are equal.
            if page.iter().all(|&w| w == 0) {
                continue;
            }
            h ^= k as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
            for &w in page.iter() {
                h ^= u64::from(w);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// A set-associative, line-granularity tag cache with LRU replacement.
/// Data lives in [`GlobalMemory`]; this models hits and misses only.
#[derive(Debug, Clone)]
pub struct TagCache {
    sets: usize,
    assoc: usize,
    /// `(tag, last_use)` per way; tag `u64::MAX` = invalid.
    lines: Vec<(u64, u64)>,
    tick: u64,
}

impl TagCache {
    /// A cache with `lines` total lines and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not divisible by `assoc`.
    #[must_use]
    pub fn new(lines: usize, assoc: usize) -> TagCache {
        assert!(lines.is_multiple_of(assoc), "lines must divide evenly into ways");
        TagCache { sets: lines / assoc, assoc, lines: vec![(u64::MAX, 0); lines], tick: 0 }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) % self.sets
    }

    /// Probes (and on miss, fills) the line containing `line_addr`
    /// (already divided by the line size). Returns true on hit.
    pub fn access(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(line_addr);
        let ways = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];
        if let Some(w) = ways.iter_mut().find(|(t, _)| *t == line_addr) {
            w.1 = self.tick;
            return true;
        }
        let victim = ways.iter_mut().min_by_key(|(_, lru)| *lru).expect("assoc > 0");
        *victim = (line_addr, self.tick);
        false
    }

    /// Probes without filling. Returns true on hit.
    #[must_use]
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        self.lines[set * self.assoc..(set + 1) * self.assoc].iter().any(|(t, _)| *t == line_addr)
    }

    /// Invalidates the line if present (write-through store policy).
    pub fn invalidate(&mut self, line_addr: u64) {
        let set = self.set_of(line_addr);
        for w in &mut self.lines[set * self.assoc..(set + 1) * self.assoc] {
            if w.0 == line_addr {
                *w = (u64::MAX, 0);
            }
        }
    }

    /// Folds tag and LRU state into a digest accumulator.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.tick);
        for &(tag, lru) in &self.lines {
            fold(h, tag);
            fold(h, lru);
        }
    }
}

/// The distinct values of one warp access (at most 32 lanes), sorted
/// ascending, in fixed storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSet {
    vals: [u64; 32],
    len: usize,
}

impl LaneSet {
    /// Collects `vals`, then sorts and dedups them.
    ///
    /// # Panics
    ///
    /// Panics when given more than 32 values (one per lane).
    fn distinct(vals: impl Iterator<Item = u64>) -> LaneSet {
        let mut s = LaneSet { vals: [0; 32], len: 0 };
        for v in vals {
            assert!(s.len < 32, "a warp access has at most 32 lanes");
            s.vals[s.len] = v;
            s.len += 1;
        }
        let vals = &mut s.vals[..s.len];
        vals.sort_unstable();
        let mut n = 0;
        for i in 0..vals.len() {
            if n == 0 || vals[i] != vals[n - 1] {
                vals[n] = vals[i];
                n += 1;
            }
        }
        s.len = n;
        s
    }
}

impl std::ops::Deref for LaneSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.vals[..self.len]
    }
}

/// Coalesces one warp's per-lane byte addresses (at most 32) into the
/// distinct 128-byte line transactions of the LSU's global memory
/// coalescer, ascending.
#[must_use]
pub fn coalesce_lines(addrs: impl Iterator<Item = u64>) -> LaneSet {
    LaneSet::distinct(addrs.map(|a| a / GpuConfig::LINE_BYTES))
}

/// Shared-memory bank-conflict degree of one warp access (at most 32
/// lanes): with 32 four-byte banks, the number of serialized passes is the
/// maximum count of *distinct word addresses* mapping to one bank
/// (same-word access broadcasts for free).
#[must_use]
pub fn smem_conflict_degree(addrs: impl Iterator<Item = u64>) -> u32 {
    let mut per_bank = [0u32; 32];
    for &w in LaneSet::distinct(addrs.map(|a| a / 4)).iter() {
        per_bank[(w % 32) as usize] += 1;
    }
    per_bank.into_iter().max().unwrap_or(0).max(1)
}

/// The shared L2 + DRAM service model: a token-bucket bandwidth limiter
/// that assigns each DRAM transaction a service cycle.
#[derive(Debug, Clone)]
pub struct DramModel {
    /// Transactions serviced per cycle.
    bandwidth: usize,
    /// Index of the next service slot, in transaction slots
    /// (slot `s` is serviced in cycle `s / bandwidth`).
    cursor: u64,
}

impl DramModel {
    /// A DRAM servicing `bandwidth` 128-byte transactions per cycle.
    #[must_use]
    pub fn new(bandwidth: usize) -> DramModel {
        DramModel { bandwidth: bandwidth.max(1), cursor: 0 }
    }

    /// Schedules one transaction issued at `now`; returns the cycle its
    /// data is available (service slot + `latency`).
    pub fn schedule(&mut self, now: u64, latency: u64) -> u64 {
        let earliest_slot = now * self.bandwidth as u64;
        self.cursor = self.cursor.max(earliest_slot);
        let service_cycle = self.cursor / self.bandwidth as u64;
        self.cursor += 1;
        service_cycle + latency
    }

    /// Folds the queue cursor into a digest accumulator.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_memory_read_write_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_u32(0x1000, 42);
        m.write_f32(0x2004, 2.75);
        assert_eq!(m.read_u32(0x1000), 42);
        assert_eq!(m.read_f32(0x2004), 2.75);
        assert_eq!(m.read_u32(0x9999000), 0, "untouched memory reads zero");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let m = GlobalMemory::new();
        let _ = m.read_u32(0x1001);
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(4);
        assert_eq!(a % 128, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let mut m = GlobalMemory::new();
        let base = m.alloc(16);
        m.write_slice_f32(base, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.read_vec_f32(base, 4), vec![1.0, 2.0, 3.0, 4.0]);
        m.write_slice_u32(base, &[9, 8, 7, 6]);
        assert_eq!(m.read_vec_u32(base, 4), vec![9, 8, 7, 6]);
    }

    #[test]
    fn fingerprint_detects_differences_but_ignores_zero_pages() {
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        a.write_u32(0x1000, 1);
        b.write_u32(0x1000, 1);
        // b additionally touches a page with zeros only.
        b.write_u32(0x800000, 5);
        b.write_u32(0x800000, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.write_u32(0x1000, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn epoch_digest_folds_dirty_pages_once_in_ascending_order() {
        let page = |n: u64| n * PAGE_BYTES;
        let mut m = GlobalMemory::new();
        m.write_u32(page(5) + 8, 7);
        m.write_u32(page(2), 3);
        m.write_u32(page(5) + 12, 9);
        // By hand: page 2 then page 5, each once, every word of each.
        let mut expected = FNV_OFFSET;
        for (n, words) in [(2, vec![(0, 3)]), (5, vec![(2, 7), (3, 9)])] {
            fold(&mut expected, n);
            let mut full = [0u32; PAGE_WORDS];
            for (i, v) in words {
                full[i] = v;
            }
            for w in full {
                fold(&mut expected, u64::from(w));
            }
        }
        assert_eq!(m.epoch_digest(), splitmix64(expected));
        let quiet = splitmix64(FNV_OFFSET);
        assert_eq!(m.epoch_digest(), quiet, "a quiet epoch folds nothing");
        // The next epoch sees only the page written since.
        m.write_u32(page(2) + 4, 1);
        let mut only_two = FNV_OFFSET;
        fold(&mut only_two, 2);
        for i in 0..PAGE_WORDS {
            fold(&mut only_two, [3u32, 1].get(i).map_or(0, |&v| u64::from(v)));
        }
        assert_eq!(m.epoch_digest(), splitmix64(only_two));
        assert_eq!(m.epoch_digest(), quiet);
    }

    #[test]
    fn global_memory_reaches_past_4_gib() {
        let mut m = GlobalMemory::new();
        let high = 1u64 << 32;
        assert_eq!(m.read_u32(high), 0);
        m.write_u32(high, 0xabcd);
        m.write_u32(MAX_GLOBAL_ADDR & !3, 5);
        assert_eq!(m.read_u32(high), 0xabcd);
        assert_eq!(m.read_u32(MAX_GLOBAL_ADDR & !3), 5);
        assert_eq!(m.read_u32(high - 4), 0, "neighbouring page untouched");
    }

    #[test]
    #[should_panic(expected = "beyond the addressable range")]
    fn global_memory_rejects_an_unreachable_address() {
        let mut m = GlobalMemory::new();
        m.write_u32((MAX_GLOBAL_ADDR + 4) & !3, 1);
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes")]
    fn lane_sets_hold_one_warp() {
        let _ = coalesce_lines(0..33u64);
    }

    #[test]
    fn tag_cache_hits_after_fill() {
        let mut c = TagCache::new(8, 2);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(c.probe(5));
        c.invalidate(5);
        assert!(!c.probe(5));
    }

    #[test]
    fn tag_cache_lru_evicts_oldest() {
        let mut c = TagCache::new(2, 2); // one set, two ways
        assert!(!c.access(0));
        assert!(!c.access(2));
        assert!(c.access(0), "still resident");
        assert!(!c.access(4), "fills over line 2");
        assert!(!c.access(2), "line 2 was evicted");
    }

    #[test]
    fn coalescer_merges_same_line() {
        // 32 consecutive words = 1 line.
        let lanes = (0..32u64).map(|l| 0x1000 + 4 * l);
        assert_eq!(coalesce_lines(lanes).len(), 1);
        // Stride-128 bytes: every lane its own line.
        let strided = (0..32u64).map(|l| 0x1000 + 128 * l);
        assert_eq!(coalesce_lines(strided).len(), 32);
        // Two half-warps hitting two lines.
        let twos = (0..32u64).map(|l| 0x1000 + 4 * (l % 2) * 32);
        assert_eq!(coalesce_lines(twos).len(), 2);
    }

    #[test]
    fn smem_conflict_free_and_conflicting() {
        // Consecutive words: each lane its own bank -> degree 1.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * l)), 1);
        // Broadcast (same word): degree 1.
        assert_eq!(smem_conflict_degree((0..32u64).map(|_| 64)), 1);
        // Stride 32 words: all lanes in bank 0 -> degree 32.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * 32 * l)), 32);
        // Stride 2 words: 2-way conflict.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * 2 * l)), 2);
    }

    #[test]
    fn dram_model_enforces_bandwidth() {
        let mut d = DramModel::new(2);
        // 4 transactions in cycle 10 with latency 100: serviced in cycles
        // 10,10,11,11.
        let t: Vec<u64> = (0..4).map(|_| d.schedule(10, 100)).collect();
        assert_eq!(t, vec![110, 110, 111, 111]);
        // An idle gap resets the cursor to "now".
        assert_eq!(d.schedule(50, 100), 150);
    }
}
