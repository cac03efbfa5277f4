//! Deterministic collections: drop-in replacements for the `HashMap` /
//! `HashSet` patterns the simulator uses, with **insertion-ordered,
//! replay-stable iteration**.
//!
//! `std::collections::HashMap` randomizes its hash seed per process, so any
//! code path whose *behaviour* depends on map iteration order (message send
//! order, retry ordering, metric tie-breaking) silently breaks the
//! simulator's headline guarantee: a run is a pure function of its seed and
//! replays byte-for-byte. [`DetMap`] and [`DetSet`] make that guarantee
//! structural instead of conventional:
//!
//! * iteration yields entries in **insertion order** — the order the
//!   deterministic simulation produced them, stable across processes,
//!   platforms and `RUSTFLAGS`;
//! * lookup goes through a `BTreeMap` index (`O(log n)`, no hashing, no
//!   per-process seed);
//! * equality is **content-based** (key-sorted), so two runs that assembled
//!   the same state in different orders still compare equal.
//!
//! The `arbitree-lint` rule **D001** flags raw `HashMap`/`HashSet` in
//! replay-critical crates and points here.

use std::collections::BTreeMap;
use std::fmt;

/// An insertion-ordered map with `BTreeMap`-backed lookup and deterministic
/// iteration. See the [module docs](self) for why this exists.
///
/// Keys must be `Ord + Clone` (the index stores a second copy of each key).
/// Lookup and insertion are `O(log n)`. Removal is amortized `O(log n)`: it
/// tombstones the entry's slot, and the map compacts its slots once
/// tombstones outnumber live entries, so iteration stays `O(n)` in the live
/// count.
///
/// # Examples
///
/// ```
/// use arbitree_core::DetMap;
///
/// let mut m = DetMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// // Iteration is insertion-ordered, not key-ordered:
/// let keys: Vec<_> = m.keys().copied().collect();
/// assert_eq!(keys, ["b", "a"]);
/// // Equality is content-based:
/// let mut n = DetMap::new();
/// n.insert("a", 1);
/// n.insert("b", 2);
/// assert_eq!(m, n);
/// ```
#[derive(Clone)]
pub struct DetMap<K, V> {
    /// Entries in insertion order; `None` is the tombstone of a removed one.
    slots: Vec<Option<(K, V)>>,
    /// Key → slot of its live entry.
    index: BTreeMap<K, usize>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            slots: Vec::new(),
            index: BTreeMap::new(),
        }
    }
}

/// Borrows a live slot's key and value (`None` for a tombstone).
fn live<K, V>(slot: &Option<(K, V)>) -> Option<(&K, &V)> {
    slot.as_ref().map(|(k, v)| (k, v))
}

impl<K, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DetMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(live)
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over values mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.as_mut().map(|(_, v)| v))
    }
}

impl<K: Ord + Clone, V> DetMap<K, V> {
    /// Appends a new entry (the key must be absent); returns its slot.
    fn push(&mut self, key: K, value: V) -> usize {
        let i = self.slots.len();
        self.index.insert(key.clone(), i);
        self.slots.push(Some((key, value)));
        i
    }

    /// The live entry in slot `i` (every index slot holds one).
    fn slot_mut(&mut self, i: usize) -> Option<&mut V> {
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was present (the entry keeps its original insertion position, like
    /// `HashMap::insert`).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.get(&key) {
            Some(&i) => self.slot_mut(i).map(|v| std::mem::replace(v, value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        live(&self.slots[i]).map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.index.get(key)?;
        self.slot_mut(i)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Removes `key`, returning its value. The entry's slot becomes a
    /// tombstone, so the survivors keep their insertion order; once
    /// tombstones outnumber live entries the slots are compacted.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.index.remove(key)?;
        let (_, value) = self.slots[pos].take()?;
        // Trailing tombstones can go at once: no live slot lies above them.
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        if self.slots.len() - self.index.len() > self.index.len() {
            self.compact();
        }
        Some(value)
    }

    /// Drops every tombstone and re-points the index at the packed slots.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((k, _)) = slot {
                if let Some(pos) = self.index.get_mut(k) {
                    *pos = i;
                }
            }
        }
    }

    /// In-place access to the entry under `key`, inserting on demand — the
    /// subset of `HashMap`'s entry API the workspace uses.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }
}

/// A view into a single [`DetMap`] entry, which may be vacant.
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Ord + Clone, V> Entry<'a, K, V> {
    /// Inserts `default` if the entry is vacant; returns the value.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `default()` if the entry is vacant; returns the value.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let pos = match self.map.index.get(&self.key) {
            Some(&i) => i,
            None => self.map.push(self.key, default()),
        };
        match &mut self.map.slots[pos] {
            Some((_, v)) => v,
            None => unreachable!("the index points at live slots only"),
        }
    }

    /// Inserts `V::default()` if the entry is vacant; returns the value.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Entry<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry").field("key", &self.key).finish()
    }
}

/// Content-based equality: same key set, same value per key — independent
/// of insertion order, matching `HashMap` semantics.
impl<K: Ord, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .index
                .iter()
                .zip(other.index.iter())
                .all(|((ka, &ia), (kb, &ib))| {
                    ka == kb
                        && live(&self.slots[ia]).map(|(_, v)| v)
                            == live(&other.slots[ib]).map(|(_, v)| v)
                })
    }
}

impl<K: Ord, V: Eq> Eq for DetMap<K, V> {}

impl<K: Ord + Clone, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DetMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Ord + Clone, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Option<(K, V)>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

impl<'a, K, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::FilterMap<
        std::slice::Iter<'a, Option<(K, V)>>,
        fn(&'a Option<(K, V)>) -> Option<(&'a K, &'a V)>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.iter().filter_map(live)
    }
}

/// An insertion-ordered set with deterministic iteration — the companion of
/// [`DetMap`] for `HashSet` call sites.
///
/// # Examples
///
/// ```
/// use arbitree_core::DetSet;
///
/// let mut s = DetSet::new();
/// assert!(s.insert(3));
/// assert!(s.insert(1));
/// assert!(!s.insert(3)); // already present
/// let order: Vec<_> = s.iter().copied().collect();
/// assert_eq!(order, [3, 1]); // insertion order, every run
/// ```
#[derive(Clone)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T> Default for DetSet<T> {
    fn default() -> Self {
        DetSet {
            map: DetMap::default(),
        }
    }
}

impl<T> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DetSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }
}

impl<T: Ord + Clone> DetSet<T> {
    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Ord> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Ord> Eq for DetSet<T> {}

impl<T: Ord + Clone> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = DetSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Ord + Clone> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::iter::Map<<DetMap<T, ()> as IntoIterator>::IntoIter, fn((T, ())) -> T>;

    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(t, ())| t)
    }
}

impl<'a, T> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter =
        std::iter::Map<<&'a DetMap<T, ()> as IntoIterator>::IntoIter, fn((&'a T, &'a ())) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        (&self.map).into_iter().map(|(t, ())| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "c"), Some("a"));
        assert_eq!(m.get(&1), Some(&"c"));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("c"));
        assert_eq!(m.remove(&1), None);
        assert!(!m.contains_key(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 1, 9, 3]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, [50, 10, 90, 30]);
    }

    #[test]
    fn remove_preserves_residual_order() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, ());
        }
        m.remove(&1);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 9, 3]);
        // Index stays consistent after the shift.
        m.insert(7, ());
        assert!(m.contains_key(&3) && m.contains_key(&7));
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [5, 9, 3, 7]);
    }

    #[test]
    fn reinsert_keeps_original_position() {
        let mut m = DetMap::new();
        m.insert("x", 1);
        m.insert("y", 2);
        m.insert("x", 3);
        let pairs: Vec<(&&str, &i32)> = m.iter().collect();
        assert_eq!(pairs, [(&"x", &3), (&"y", &2)]);
    }

    #[test]
    fn entry_api() {
        let mut m: DetMap<u32, u64> = DetMap::new();
        *m.entry(4).or_insert(0) += 1;
        *m.entry(4).or_insert(0) += 1;
        *m.entry(9).or_default() += 5;
        assert_eq!(m.get(&4), Some(&2));
        assert_eq!(m.get(&9), Some(&5));
        let v = m.entry(11).or_insert_with(|| 42);
        assert_eq!(*v, 42);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a: DetMap<u32, &str> = [(1, "a"), (2, "b")].into_iter().collect();
        let b: DetMap<u32, &str> = [(2, "b"), (1, "a")].into_iter().collect();
        assert_eq!(a, b);
        let c: DetMap<u32, &str> = [(1, "a"), (2, "z")].into_iter().collect();
        assert_ne!(a, c);
        let d: DetMap<u32, &str> = [(1, "a")].into_iter().collect();
        assert_ne!(a, d);
    }

    #[test]
    fn debug_output_is_stable() {
        let mut m = DetMap::new();
        m.insert(2, "b");
        m.insert(1, "a");
        assert_eq!(format!("{m:?}"), r#"{2: "b", 1: "a"}"#);
        let mut s = DetSet::new();
        s.insert(2);
        s.insert(1);
        assert_eq!(format!("{s:?}"), "{2, 1}");
    }

    #[test]
    fn clear_and_empty() {
        let mut m: DetMap<u8, u8> = [(1, 1)].into_iter().collect();
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn into_iter_owned_and_borrowed() {
        let m: DetMap<u32, u32> = [(3, 30), (1, 10)].into_iter().collect();
        let borrowed: Vec<(u32, u32)> = (&m).into_iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(borrowed, [(3, 30), (1, 10)]);
        let owned: Vec<(u32, u32)> = m.into_iter().collect();
        assert_eq!(owned, [(3, 30), (1, 10)]);
    }

    #[test]
    fn values_mut_updates_in_place() {
        let mut m: DetMap<u32, u32> = [(1, 1), (2, 2)].into_iter().collect();
        for v in m.values_mut() {
            *v *= 10;
        }
        assert_eq!(m.get(&2), Some(&20));
    }

    #[test]
    fn set_semantics() {
        let mut s = DetSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
        assert!(s.remove(&7));
        assert!(!s.remove(&7));
        assert!(s.is_empty());
    }

    #[test]
    fn set_iteration_and_collect() {
        let s: DetSet<u32> = [9, 2, 5, 2].into_iter().collect();
        let order: Vec<u32> = s.iter().copied().collect();
        assert_eq!(order, [9, 2, 5]);
        assert_eq!(s.len(), 3);
        let owned: Vec<u32> = s.into_iter().collect();
        assert_eq!(owned, [9, 2, 5]);
    }

    #[test]
    fn set_equality_is_order_insensitive() {
        let a: DetSet<u32> = [1, 2, 3].into_iter().collect();
        let b: DetSet<u32> = [3, 1, 2].into_iter().collect();
        assert_eq!(a, b);
        let c: DetSet<u32> = [1, 2].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn large_map_index_consistency() {
        // Interleaved inserts/removes keep lookup and order agreeing.
        let mut m = DetMap::new();
        for i in 0..100u32 {
            m.insert(i, i);
        }
        for i in (0..100).step_by(3) {
            m.remove(&i);
        }
        for (k, v) in m.iter() {
            assert_eq!(k, v);
            assert_ne!(k % 3, 0);
        }
        assert_eq!(m.len(), 66);
        for i in 0..100u32 {
            assert_eq!(m.contains_key(&i), i % 3 != 0);
            if i % 3 != 0 {
                assert_eq!(m.get(&i), Some(&i));
            }
        }
    }
}
