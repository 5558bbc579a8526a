//! The UV baseline's instruction reuse buffer (Xiang et al. / Sodani &
//! Sohi): a value-keyed table probed at the issue stage. Entries store the
//! full `(pc, operand values)` key and compare exactly, as hardware reuse
//! buffers do — a match guarantees the stored result is correct for any
//! deterministic non-memory instruction. If a uniform instruction's
//! operands match a previous execution, the stored result is reused and
//! the execution stage is skipped — but the instruction has already
//! consumed fetch, decode and issue bandwidth, which is exactly why UV
//! trails DARSIE in the paper.

use crate::digest::fold;
use darsie::VecMap;
use std::cmp::Ordering;

/// Operand words a [`ReuseKey`] holds: three sources, or an `s2r`'s three
/// `ctaid` words.
pub const KEY_WORDS: usize = 6;

/// Exact reuse key: static PC plus the scalar operand values consumed,
/// stored inline. Keys order by PC, then lexicographically by operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseKey {
    pc: usize,
    words: [u32; KEY_WORDS],
    len: usize,
}

impl ReuseKey {
    /// The operand values.
    #[must_use]
    pub fn operands(&self) -> &[u32] {
        &self.words[..self.len]
    }
}

impl Ord for ReuseKey {
    fn cmp(&self, other: &ReuseKey) -> Ordering {
        (self.pc, self.operands()).cmp(&(other.pc, other.operands()))
    }
}

impl PartialOrd for ReuseKey {
    fn partial_cmp(&self, other: &ReuseKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An LRU, value-keyed reuse buffer, ordered by key.
#[derive(Debug, Clone)]
pub struct ReuseBuffer {
    capacity: usize,
    /// Key -> (stored result vector, LRU stamp).
    entries: VecMap<ReuseKey, (Box<[u32]>, u64)>,
    tick: u64,
    /// Successful reuses.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
}

impl ReuseBuffer {
    /// A buffer holding `capacity` results.
    #[must_use]
    pub fn new(capacity: usize) -> ReuseBuffer {
        ReuseBuffer { capacity, entries: VecMap::new(), tick: 0, hits: 0, misses: 0 }
    }

    /// Builds the key for `(pc, operand values)`. Since UV only reuses
    /// instructions whose operands are warp-uniform, one scalar word per
    /// operand suffices.
    ///
    /// # Panics
    ///
    /// Panics on more than six operand words.
    #[must_use]
    pub fn key(pc: usize, operands: &[u32]) -> ReuseKey {
        assert!(operands.len() <= KEY_WORDS, "a reuse key holds at most {KEY_WORDS} words");
        let mut words = [0; KEY_WORDS];
        words[..operands.len()].copy_from_slice(operands);
        ReuseKey { pc, words, len: operands.len() }
    }

    /// Probes for a previous result. Returns the stored vector on a hit.
    pub fn probe(&mut self, key: &ReuseKey) -> Option<&[u32]> {
        self.tick += 1;
        if let Some((v, lru)) = self.entries.get_mut(key) {
            *lru = self.tick;
            self.hits += 1;
            Some(v)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a freshly computed result, evicting LRU if needed. A full
    /// buffer reuses the evicted entry's storage.
    pub fn insert(&mut self, key: ReuseKey, value: &[u32]) {
        self.tick += 1;
        if let Some((v, lru)) = self.entries.get_mut(&key) {
            v.copy_from_slice(value);
            *lru = self.tick;
            return;
        }
        let mut storage = None;
        if self.entries.len() >= self.capacity {
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, (_, lru))| *lru).map(|(k, _)| *k)
            {
                storage = self.entries.remove(&victim).map(|(v, _)| v);
            }
        }
        let stored = match storage {
            Some(mut v) if v.len() == value.len() => {
                v.copy_from_slice(value);
                v
            }
            _ => value.into(),
        };
        self.entries.insert(key, (stored, self.tick));
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds the buffer contents into a digest accumulator, in key order.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.tick);
        for (key, (value, lru)) in self.entries.iter() {
            fold(h, key.pc as u64);
            for &w in key.operands() {
                fold(h, u64::from(w));
            }
            for &w in value.iter() {
                fold(h, u64::from(w));
            }
            fold(h, *lru);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_hit() {
        let mut b = ReuseBuffer::new(4);
        let key = ReuseBuffer::key(8, &[1, 2]);
        assert!(b.probe(&key).is_none());
        b.insert(key, &[42; 32]);
        assert_eq!(b.probe(&key), Some(&[42u32; 32][..]));
        assert_eq!(b.hits, 1);
        assert_eq!(b.misses, 1);
    }

    #[test]
    fn different_operands_or_pcs_never_alias() {
        let a = ReuseBuffer::key(8, &[1, 2]);
        let b = ReuseBuffer::key(8, &[1, 3]);
        let c = ReuseBuffer::key(16, &[1, 2]);
        // Exact keys: no collision is possible by construction.
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The regression that motivated exact keys: two small scalar
        // payloads at nearby PCs must not alias.
        assert_ne!(ReuseBuffer::key(9, &[7]), ReuseBuffer::key(14, &[0]));
    }

    #[test]
    fn lru_eviction() {
        let mut b = ReuseBuffer::new(2);
        let k1 = ReuseBuffer::key(0, &[1]);
        let k2 = ReuseBuffer::key(8, &[1]);
        let k3 = ReuseBuffer::key(16, &[1]);
        b.insert(k1, &[1]);
        b.insert(k2, &[2]);
        assert!(b.probe(&k1).is_some(), "refresh k1");
        b.insert(k3, &[3]);
        assert_eq!(b.len(), 2);
        assert!(b.probe(&k2).is_none(), "k2 was LRU");
        assert!(b.probe(&k1).is_some());
    }

    #[test]
    fn keys_order_by_pc_then_operands() {
        let k = ReuseBuffer::key;
        let mut keys = [k(9, &[]), k(8, &[2]), k(8, &[1, 0]), k(8, &[1])];
        keys.sort();
        assert_eq!(keys, [k(8, &[1]), k(8, &[1, 0]), k(8, &[2]), k(9, &[])]);
        assert_eq!(k(8, &[1, 0]).operands(), &[1, 0]);
    }

    #[test]
    fn eviction_reuses_storage_and_keeps_contents_exact() {
        let mut b = ReuseBuffer::new(1);
        let (k1, k2) = (ReuseBuffer::key(0, &[1]), ReuseBuffer::key(0, &[2]));
        b.insert(k1, &[1, 2, 3]);
        b.insert(k2, &[4, 5, 6]);
        assert_eq!(b.len(), 1);
        assert!(b.probe(&k1).is_none());
        assert_eq!(b.probe(&k2), Some(&[4, 5, 6][..]));
        b.insert(k2, &[7, 8, 9]);
        assert_eq!(b.probe(&k2), Some(&[7, 8, 9][..]), "re-insert overwrites");
    }
}
