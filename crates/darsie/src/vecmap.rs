//! A small ordered map on a sorted `Vec`.
//!
//! The per-threadblock DARSIE state (rename bindings, live versions, skip
//! snapshots) holds a few dozen entries at most and is probed every
//! cycle. A sorted `Vec` answers those probes with a binary search over
//! contiguous memory, keeps its capacity when entries come and go (so a
//! steady-state simulation stops allocating), and iterates in key order
//! by construction, so digests and release loops never need to sort.

/// An ordered map from `K` to `V`, stored as a `Vec` sorted by key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> VecMap<K, V> {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map.
    #[must_use]
    pub const fn new() -> VecMap<K, V> {
        VecMap { entries: Vec::new() }
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// True when `key` has a value.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first when absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps only the entries `keep` accepts, in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entry at position `i` in key order.
    #[must_use]
    pub fn entry_at(&self, i: usize) -> Option<(&K, &V)> {
        self.entries.get(i).map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_sorted_through_inserts_and_removes() {
        let mut m = VecMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.insert(3, 31), Some(30), "replace returns the old value");
        assert_eq!(m.iter().map(|(&k, _)| k).collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        assert_eq!(m.remove(&5), Some(50));
        assert_eq!(m.remove(&5), None);
        assert_eq!(m.get(&3), Some(&31));
        assert!(!m.contains_key(&5));
        *m.get_or_insert_with(4, || 0) += 4;
        *m.get_or_insert_with(4, || 100) += 1;
        assert_eq!(m.get(&4), Some(&5));
        m.retain(|&k, _| k % 3 != 0);
        assert_eq!(
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            vec![(1, 10), (4, 5), (7, 70)]
        );
        assert_eq!(m.entry_at(1), Some((&4, &5)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn keeps_capacity_when_emptied() {
        let mut m = VecMap::new();
        for k in 0..16u32 {
            m.insert(k, ());
        }
        for k in 0..16u32 {
            m.remove(&k);
        }
        assert!(m.is_empty());
        assert!(m.entries.capacity() >= 16, "entries come and go without reallocating");
    }
}
