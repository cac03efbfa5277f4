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
//! * each key is stored once, in the slot `Vec` that iteration walks.
//!   Lookup goes through an open-addressing index of 8-byte words, each a
//!   32-bit hash tag and a slot number (`O(1)` expected). The index is only
//!   ever probed, never iterated: every iteration, `Debug` and
//!   `IntoIterator` walks the slot `Vec`. So the hash function decides how
//!   fast a lookup is, never what order anything comes out in, and even a
//!   hasher that sent every key to one bucket would change no output. The
//!   index uses a fixed multiplicative hasher (no per-process seed), so its
//!   cost does not vary from run to run either;
//! * equality is **content-based** (same keys, same value per key), so two
//!   runs that assembled the same state in different orders still compare
//!   equal.
//!
//! The `arbitree-lint` rule **D001** flags raw `HashMap`/`HashSet` in
//! replay-critical crates and points here.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A fixed multiplicative hasher in the Fx style: one add and one multiply
/// per word, no seed. Only [`DetMap`]'s index uses it, and that index is
/// never iterated, so its hash values cannot reach any output.
#[derive(Default, Clone, Copy)]
struct FxHasher(u64);

/// The hasher's odd multiplier, one multiply per word.
const FX_MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// The odd multiplier of the final mix (2^64 over the golden ratio).
const MIX_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(FX_MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// Folds the high half into the low and multiplies once more. The
    /// words' multiplies alone leave the high bits of consecutive ids a
    /// fixed step apart, on a lattice that clusters linear probing (20
    /// buckets of displacement on average for ids `0..20_000` in a
    /// 32,768-bucket table, against under 1 after the fold).
    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(MIX_MULTIPLIER)
    }
}

/// The index tag of `key`: the high half of its hash. Each input bit of a
/// multiply reaches the product's high bits, not its low ones, so the high
/// half is the well-mixed one.
#[inline]
fn tag_of<K: Hash>(key: &K) -> u32 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    (hasher.finish() >> 32) as u32
}

/// Buckets in the first table the index allocates (room for three keys).
const MIN_BUCKETS: usize = 4;

/// Buckets a probe reads at once; no table is smaller.
const GROUP: usize = 4;

/// [`DetMap`]'s lookup index: a linear-probing table of words
/// `tag << 32 | (slot + 1)`, where 0 marks an empty bucket. A key's home
/// bucket is its tag's top `log2(buckets)` bits. The table holds only
/// tags, so it grows and rebuilds without touching a key; the keys live in
/// the map's slots, and a probe compares a key only where the tags agree.
/// At most three quarters of the buckets are full, so every probe chain
/// ends at an empty bucket.
#[derive(Clone, Default)]
struct Index {
    /// The buckets: none, or a power of two of them.
    words: Box<[u64]>,
    /// Occupied buckets (the map's live entries).
    len: usize,
}

/// Where the probe for a key ended.
enum Probe {
    /// In the key's bucket, which points at this slot.
    Found { bucket: usize, slot: usize },
    /// At the empty bucket that ends the key's chain: the key is absent.
    Vacant { bucket: usize },
}

/// The bucket word for `slot` under `tag`.
#[inline]
fn word(tag: u32, slot: usize) -> u64 {
    let slot = u32::try_from(slot + 1).expect("a DetMap holds fewer than 2^32 - 1 slots");
    u64::from(tag) << 32 | u64::from(slot)
}

#[inline]
fn word_tag(word: u64) -> u32 {
    (word >> 32) as u32
}

#[inline]
fn word_slot(word: u64) -> usize {
    (word & 0xffff_ffff) as usize - 1
}

impl Index {
    /// The bucket a probe for `tag` starts at (the table is not empty).
    #[inline]
    fn home(&self, tag: u32) -> usize {
        let bits = self.words.len().trailing_zeros();
        ((u64::from(tag) << bits) >> 32) as usize
    }

    #[inline]
    fn next(&self, bucket: usize) -> usize {
        (bucket + 1) & (self.words.len() - 1)
    }

    /// Probes for the key with `tag`; `is_key` recognises it by its slot.
    /// The chain is read four buckets at a time, without a branch per
    /// bucket: one pass marks the empty buckets and the tag matches, and
    /// only matches before the first empty bucket are checked.
    #[inline]
    fn find(&self, tag: u32, is_key: impl Fn(usize) -> bool) -> Probe {
        if self.words.is_empty() {
            return Probe::Vacant { bucket: 0 };
        }
        let mask = self.words.len() - 1;
        let mut start = self.home(tag);
        loop {
            let (mut empty, mut matches) = (0u32, 0u32);
            for i in 0..GROUP {
                let w = self.words[(start + i) & mask];
                empty |= u32::from(w == 0) << i;
                matches |= u32::from(word_tag(w) == tag) << i;
            }
            // Bits below the first empty bucket (all four if none is).
            let mut candidates = matches & (empty & empty.wrapping_neg()).wrapping_sub(1);
            while candidates != 0 {
                let bucket = (start + candidates.trailing_zeros() as usize) & mask;
                let slot = word_slot(self.words[bucket]);
                if is_key(slot) {
                    return Probe::Found { bucket, slot };
                }
                candidates &= candidates - 1;
            }
            if empty != 0 {
                let bucket = (start + empty.trailing_zeros() as usize) & mask;
                return Probe::Vacant { bucket };
            }
            start = (start + GROUP) & mask;
        }
    }

    /// The first empty bucket of `tag`'s chain.
    fn empty_bucket(&self, tag: u32) -> usize {
        let mut bucket = self.home(tag);
        while self.words[bucket] != 0 {
            bucket = self.next(bucket);
        }
        bucket
    }

    /// Points a new bucket at `slot`: `bucket` is where a probe for the
    /// absent key ended, unless the table must grow first.
    fn insert(&mut self, bucket: usize, tag: u32, slot: usize) {
        let bucket = if (self.len + 1) * 4 > self.words.len() * 3 {
            self.grow();
            self.empty_bucket(tag)
        } else {
            bucket
        };
        self.words[bucket] = word(tag, slot);
        self.len += 1;
    }

    /// Doubles the table, re-homing every word by its stored tag.
    fn grow(&mut self) {
        let buckets = (self.words.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.words, vec![0; buckets].into_boxed_slice());
        for &w in old.iter().filter(|&&w| w != 0) {
            let bucket = self.empty_bucket(word_tag(w));
            self.words[bucket] = w;
        }
    }

    /// Empties `bucket` by backward shift: each later word of the run that
    /// may sit at or before the hole (its home is not after the hole,
    /// cyclically) moves into it, and the hole moves to where it was, so
    /// every chain stays unbroken without tombstones.
    fn remove(&mut self, bucket: usize) {
        let mask = self.words.len() - 1;
        let mut hole = bucket;
        let mut at = self.next(bucket);
        while self.words[at] != 0 {
            let w = self.words[at];
            let home = self.home(word_tag(w));
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.words[hole] = w;
                hole = at;
            }
            at = self.next(at);
        }
        self.words[hole] = 0;
        self.len -= 1;
    }

    /// Empties every bucket, keeping the table's size.
    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

/// An insertion-ordered map with hash-indexed lookup and deterministic
/// iteration. See the [module docs](self) for why this exists.
///
/// Keys must be `Eq + Hash`; each is stored once, in its entry's slot,
/// and the index holds 8 bytes per bucket. Lookup and insertion are `O(1)`
/// expected. Removal is amortized `O(1)`: it tombstones the entry's slot,
/// and the map compacts its slots once tombstones outnumber live entries,
/// so iteration stays `O(n)` in the live count. The index is probed, never
/// iterated, so no order depends on hash values. Its hasher is unseeded,
/// so keys crafted to collide would slow it to a linear scan (never change
/// its results): the simulator's keys are its own site, object and op ids,
/// not outside input. [`DetMap::clear`] keeps both buffers, so refilling a
/// cleared map to its old size allocates nothing.
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
    /// Tag and slot of every live entry. Probed only; never iterated.
    index: Index,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            slots: Vec::new(),
            index: Index::default(),
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
        self.index.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Removes every entry, keeping the memory of both the slots and the
    /// index for reuse.
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

    /// The value in slot `slot`, which the index points at (so it is live).
    #[inline]
    fn value_mut(&mut self, slot: usize) -> &mut V {
        match &mut self.slots[slot] {
            Some((_, v)) => v,
            None => unreachable!("the index points at live slots only"),
        }
    }
}

impl<K: Eq + Hash, V> DetMap<K, V> {
    /// `key`'s tag and where its probe ends.
    #[inline]
    fn probe(&self, key: &K) -> (u32, Probe) {
        let tag = tag_of(key);
        let is_key = |slot: usize| matches!(&self.slots[slot], Some((k, _)) if k == key);
        (tag, self.index.find(tag, is_key))
    }

    /// The slot holding `key`, if present. An empty map answers without
    /// hashing the key.
    #[inline]
    fn slot_of(&self, key: &K) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        match self.probe(key).1 {
            Probe::Found { slot, .. } => Some(slot),
            Probe::Vacant { .. } => None,
        }
    }

    /// Appends an entry for a key whose probe ended at the empty `bucket`;
    /// returns its slot.
    #[inline]
    fn push(&mut self, bucket: usize, tag: u32, key: K, value: V) -> usize {
        let slot = self.slots.len();
        self.index.insert(bucket, tag, slot);
        self.slots.push(Some((key, value)));
        slot
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was present (the entry keeps its original insertion position, like
    /// `HashMap::insert`).
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.probe(&key) {
            (_, Probe::Found { slot, .. }) => Some(std::mem::replace(self.value_mut(slot), value)),
            (tag, Probe::Vacant { bucket }) => {
                self.push(bucket, tag, key, value);
                None
            }
        }
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.slot_of(key)?;
        live(&self.slots[slot]).map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.slot_of(key)?;
        Some(self.value_mut(slot))
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.slot_of(key).is_some()
    }

    /// Removes `key`, returning its value. The entry's slot becomes a
    /// tombstone, so the survivors keep their insertion order; once
    /// tombstones outnumber live entries the slots are compacted.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.is_empty() {
            return None;
        }
        let Probe::Found { bucket, slot } = self.probe(key).1 else {
            return None;
        };
        self.index.remove(bucket);
        let (_, value) = self.slots[slot].take()?;
        // Trailing tombstones can go at once: no live slot lies above them.
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        if self.slots.len() - self.index.len > self.index.len {
            self.compact();
        }
        Some(value)
    }

    /// Drops every tombstone and rebuilds the index over the packed slots,
    /// in place.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.index.clear();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some((k, _)) = entry {
                let tag = tag_of(k);
                let bucket = self.index.empty_bucket(tag);
                self.index.insert(bucket, tag, slot);
            }
        }
    }

    /// In-place access to the entry under `key`, inserting on demand — the
    /// subset of `HashMap`'s entry API the workspace uses.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }
}

/// A view into a single [`DetMap`] entry, which may be vacant.
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Eq + Hash, V> Entry<'a, K, V> {
    /// Inserts `default` if the entry is vacant; returns the value.
    #[inline]
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `default()` if the entry is vacant; returns the value.
    #[inline]
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let map = self.map;
        let slot = match map.probe(&self.key) {
            (_, Probe::Found { slot, .. }) => slot,
            (tag, Probe::Vacant { bucket }) => map.push(bucket, tag, self.key, default()),
        };
        map.value_mut(slot)
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
/// of insertion order, matching `HashMap` semantics. With equal lengths,
/// every entry of `self` found in `other` means the key sets coincide.
impl<K: Eq + Hash, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for DetMap<K, V> {}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DetMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for DetMap<K, V> {
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

impl<T: Eq + Hash> DetSet<T> {
    /// Inserts `value`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Eq + Hash> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Eq + Hash> Eq for DetSet<T> {}

impl<T: Eq + Hash> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = DetSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Eq + Hash> Extend<T> for DetSet<T> {
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

    /// A key with a chosen index tag: its hash input is the one word the
    /// hasher maps to `tag << 32`, so distinct keys can share a tag.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Tagged {
        tag: u32,
        id: u32,
    }

    impl Hash for Tagged {
        fn hash<H: Hasher>(&self, state: &mut H) {
            // Undo the final multiply, the fold (the high half passes
            // through it unchanged) and the word's multiply, in turn.
            let mixed = (u64::from(self.tag) << 32).wrapping_mul(inverse(MIX_MULTIPLIER));
            let folded = mixed ^ (mixed >> 32);
            state.write_u64(folded.wrapping_mul(inverse(FX_MULTIPLIER)));
        }
    }

    /// The inverse of odd `x` mod 2^64, by Newton's iteration: each step
    /// doubles the number of correct low bits.
    fn inverse(x: u64) -> u64 {
        let mut y = x;
        for _ in 0..6 {
            y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y)));
        }
        y
    }

    fn tagged(tag: u32, id: u32) -> Tagged {
        Tagged { tag, id }
    }

    /// The slot each bucket points at, `None` where it is empty.
    fn layout<K, V>(m: &DetMap<K, V>) -> Vec<Option<usize>> {
        m.index
            .words
            .iter()
            .map(|&w| (w != 0).then(|| word_slot(w)))
            .collect()
    }

    #[test]
    fn tagged_keys_get_their_tags() {
        assert_eq!(tag_of(&tagged(0xDEAD_BEEF, 1)), 0xDEAD_BEEF);
        assert_eq!(tag_of(&tagged(u32::MAX, 2)), u32::MAX);
    }

    #[test]
    fn consecutive_ids_spread_over_the_table() {
        // Simulated object and op ids are dense runs of integers; their
        // mean distance from home must stay near random keys' (about 0.8
        // at this load), not the 20 of a lattice.
        let m: DetMap<u32, ()> = (0..20_000).map(|k| (k, ())).collect();
        let mask = m.index.words.len() - 1;
        let displacement: usize = (0..m.index.words.len())
            .filter(|&b| m.index.words[b] != 0)
            .map(|b| b.wrapping_sub(m.index.home(word_tag(m.index.words[b]))) & mask)
            .sum();
        let mean = displacement as f64 / m.len() as f64;
        assert!(mean < 1.5, "mean displacement {mean:.2}");
    }

    #[test]
    fn removal_shifts_chains_back_across_the_table_end() {
        // Four buckets: tag u32::MAX homes in the last, tag 0 in the first.
        let (a, b, c) = (tagged(u32::MAX, 0), tagged(u32::MAX, 1), tagged(0, 2));
        let mut m = DetMap::new();
        m.insert(a, 'a');
        m.insert(b, 'b');
        m.insert(c, 'c');
        // `b` wrapped to bucket 0, which pushed `c` out of its home.
        assert_eq!(layout(&m), [Some(1), Some(2), None, Some(0)]);
        assert_eq!(m.remove(&a), Some('a'));
        // `b` moves back across the end into its home; `c` follows into
        // its own.
        assert_eq!(layout(&m), [Some(2), None, None, Some(1)]);
        assert_eq!(
            (m.get(&b), m.get(&c), m.get(&a)),
            (Some(&'b'), Some(&'c'), None)
        );
        // A word already at its home stays put when an earlier bucket
        // empties.
        m.insert(a, 'A');
        assert_eq!(m.remove(&b), Some('b'));
        assert_eq!(m.get(&a), Some(&'A'));
        assert_eq!(m.get(&c), Some(&'c'));
        let keys: Vec<Tagged> = m.keys().copied().collect();
        assert_eq!(keys, [c, a]);
    }

    #[test]
    fn equal_tags_fall_back_to_key_comparison() {
        let mut m = DetMap::new();
        for id in 0..50 {
            m.insert(tagged(7, id), id);
        }
        for id in (0..50).step_by(2) {
            assert_eq!(m.remove(&tagged(7, id)), Some(id));
        }
        for id in 0..50 {
            let want = (id % 2 == 1).then_some(id);
            assert_eq!(m.get(&tagged(7, id)).copied(), want);
        }
        assert_eq!(m.get(&tagged(8, 1)), None);
    }

    #[test]
    fn clear_then_refill_reuses_both_buffers() {
        let mut m: DetMap<u32, u64> = (0..1000).map(|k| (k, u64::from(k))).collect();
        let slots = (m.slots.as_ptr(), m.slots.capacity());
        let words = (m.index.words.as_ptr(), m.index.words.len());
        m.clear();
        assert!(m.is_empty() && m.get(&5).is_none());
        for k in (0..1000).rev() {
            m.insert(k + 5000, 0);
        }
        assert_eq!((m.slots.as_ptr(), m.slots.capacity()), slots);
        assert_eq!((m.index.words.as_ptr(), m.index.words.len()), words);
        // Compaction rebuilds the index in the same buffer too.
        for k in 5000..5900 {
            m.remove(&k);
        }
        assert_eq!((m.index.words.as_ptr(), m.index.words.len()), words);
        assert_eq!(m.len(), 100);
        assert!((5900..6000).all(|k| m.contains_key(&k)));
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
