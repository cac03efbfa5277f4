//! Site sets: one bitset type for quorums and for the sites a pick may use.

use crate::site::{SiteId, Universe};
use std::cmp::Ordering;
use std::fmt;

/// Sites per bitset word.
const WORD: usize = 64;

/// Words stored inline: sites `0..128` never allocate.
const INLINE_WORDS: usize = 2;

/// A set of sites `S ⊆ U`: a quorum, or (as [`AliveSet`]) the sites a
/// quorum pick may use.
///
/// A bitset over site indices — site `i` is a member iff bit `i` is set.
/// Sites below 128 live in two inline words, so a set over a universe of
/// up to 128 sites never allocates; sites from 128 up live in a heap word
/// buffer that stays unallocated until one of them is inserted. Iteration
/// is ascending, `Ord` is lexicographic over the ascending member list,
/// and `Debug` prints that list.
///
/// # Examples
///
/// ```
/// use arbitree_quorum::{QuorumSet, SiteId};
///
/// let q = QuorumSet::from_indices([2, 0, 2, 1]);
/// assert_eq!(q.len(), 3);
/// assert!(q.contains(SiteId::new(2)));
///
/// let mut alive = QuorumSet::full(4);
/// alive.remove(SiteId::new(3));
/// assert!(q.is_subset_of(&alive));
/// assert_eq!(format!("{q:?}"), "QuorumSet { sites: [SiteId(0), SiteId(1), SiteId(2)] }");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct QuorumSet {
    /// Membership bits of sites `0..128`.
    low: [u64; INLINE_WORDS],
    /// Membership bits of sites `128..`, 64 per word. Never ends in a zero
    /// word, so equal sets have equal fields.
    high: Vec<u64>,
}

/// The sites a quorum pick may use: the same bitset as [`QuorumSet`].
pub type AliveSet = QuorumSet;

// The per-site methods are `#[inline]`: other crates call them on every
// quorum pick, send and acknowledgement, and a call per member costs
// more than the bit operation it wraps.
impl QuorumSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        QuorumSet {
            low: [0; INLINE_WORDS],
            high: Vec::new(),
        }
    }

    /// The set `{0, …, n-1}` — every site of an `n`-site universe.
    pub fn full(n: usize) -> Self {
        let mut set = QuorumSet::new();
        for w in 0..n.div_ceil(WORD) {
            let rest = n - w * WORD;
            *set.word_mut(w) = if rest >= WORD {
                u64::MAX
            } else {
                (1 << rest) - 1
            };
        }
        set
    }

    /// Builds a set from any iterator of sites; duplicates are ignored.
    pub fn from_sites<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        let mut set = QuorumSet::new();
        set.extend(sites);
        set
    }

    /// Builds a set from raw `u32` indices; duplicates are ignored.
    pub fn from_indices<I: IntoIterator<Item = u32>>(indices: I) -> Self {
        Self::from_sites(indices.into_iter().map(SiteId::new))
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        match w.checked_sub(INLINE_WORDS) {
            None => self.low[w],
            Some(h) => self.high.get(h).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match w.checked_sub(INLINE_WORDS) {
            None => &mut self.low[w],
            Some(h) => {
                if h >= self.high.len() {
                    self.high.resize(h + 1, 0);
                }
                &mut self.high[h]
            }
        }
    }

    #[inline]
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.low.iter().chain(&self.high).copied()
    }

    /// Adds a site.
    #[inline]
    pub fn insert(&mut self, site: SiteId) {
        let i = site.index();
        *self.word_mut(i / WORD) |= 1 << (i % WORD);
    }

    /// Removes a site (no-op if absent).
    #[inline]
    pub fn remove(&mut self, site: SiteId) {
        let (w, bit) = (site.index() / WORD, 1 << (site.index() % WORD));
        match w.checked_sub(INLINE_WORDS) {
            None => self.low[w] &= !bit,
            Some(h) => {
                if let Some(word) = self.high.get_mut(h) {
                    *word &= !bit;
                    while self.high.last() == Some(&0) {
                        self.high.pop();
                    }
                }
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, site: SiteId) -> bool {
        let i = site.index();
        self.word(i / WORD) & (1 << (i % WORD)) != 0
    }

    /// Number of members (for a quorum, its *size*: the communication
    /// cost of contacting all of them).
    #[inline]
    pub fn len(&self) -> usize {
        // arbitree-lint: allow(D004) — popcount of a u64 is at most 64
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.low == [0; INLINE_WORDS] && self.high.is_empty()
    }

    /// Iterates over the members in ascending order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            word: self.low[0],
            base: 0,
            words: self.low[1..].iter().chain(&self.high),
        }
    }

    /// Returns `true` if `self ∩ other ≠ ∅` (the intersection property of
    /// definition 2.1).
    #[inline]
    pub fn intersects(&self, other: &QuorumSet) -> bool {
        self.words().zip(other.words()).any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if every member of `self` is also a member of `other`.
    #[inline]
    pub fn is_subset_of(&self, other: &QuorumSet) -> bool {
        self.high.len() <= other.high.len()
            && self.words().zip(other.words()).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self ⊂ other` (proper subset).
    pub fn is_proper_subset_of(&self, other: &QuorumSet) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Returns `true` if every member lies inside `universe`.
    pub fn is_within(&self, universe: Universe) -> bool {
        self.iter().all(|s| universe.contains(s))
    }
}

/// Ascending iterator over a [`QuorumSet`]'s members.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// Bits of the current word not yet yielded.
    word: u64,
    /// Site index of the current word's bit 0.
    base: u32,
    words: std::iter::Chain<std::slice::Iter<'a, u64>, std::slice::Iter<'a, u64>>,
}

impl Iterator for Iter<'_> {
    type Item = SiteId;

    #[inline]
    fn next(&mut self) -> Option<SiteId> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(SiteId::new(self.base + bit))
    }
}

impl<'a> IntoIterator for &'a QuorumSet {
    type Item = SiteId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<SiteId> for QuorumSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        Self::from_sites(iter)
    }
}

impl Extend<SiteId> for QuorumSet {
    fn extend<I: IntoIterator<Item = SiteId>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl Ord for QuorumSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for QuorumSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Prints the sorted member list, as `QuorumSet { sites: [SiteId(0), …] }`.
impl fmt::Debug for QuorumSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Sites<'a>(&'a QuorumSet);
        impl fmt::Debug for Sites<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0).finish()
            }
        }
        f.debug_struct("QuorumSet")
            .field("sites", &Sites(self))
            .finish()
    }
}

impl fmt::Display for QuorumSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};

    #[test]
    fn quorum_set_sorts_and_dedups() {
        let q = QuorumSet::from_indices([5, 1, 3, 1, 5]);
        let got: Vec<usize> = q.iter().map(SiteId::index).collect();
        assert_eq!(got, vec![1, 3, 5]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn intersects_detects_common_member() {
        let a = QuorumSet::from_indices([0, 2, 4]);
        let b = QuorumSet::from_indices([1, 3, 4]);
        let c = QuorumSet::from_indices([1, 3, 5]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c));
    }

    #[test]
    fn empty_quorum_never_intersects() {
        let e = QuorumSet::new();
        let a = QuorumSet::from_indices([0]);
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
        assert!(e.is_empty());
    }

    #[test]
    fn subset_relations() {
        let small = QuorumSet::from_indices([1, 2]);
        let big = QuorumSet::from_indices([0, 1, 2, 3]);
        assert!(small.is_subset_of(&big));
        assert!(small.is_proper_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
        assert!(!small.is_proper_subset_of(&small));
    }

    #[test]
    fn is_within_checks_universe_bounds() {
        let q = QuorumSet::from_indices([0, 7]);
        assert!(q.is_within(Universe::new(8)));
        assert!(!q.is_within(Universe::new(7)));
    }

    #[test]
    fn display_formats_member_list() {
        let q = QuorumSet::from_indices([2, 0]);
        assert_eq!(q.to_string(), "{s0,s2}");
    }

    #[test]
    fn extend_keeps_invariants() {
        let mut q = QuorumSet::from_indices([4, 2]);
        q.extend([SiteId::new(3), SiteId::new(2)]);
        let got: Vec<usize> = q.iter().map(SiteId::index).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn full_sets_hold_exactly_the_universe() {
        for n in [0, 1, 5, 63, 64, 65, 127, 128, 129, 200, 520] {
            let a = QuorumSet::full(n);
            assert_eq!(a.len(), n);
            assert!(a.iter().map(SiteId::index).eq(0..n));
            assert_eq!(a, QuorumSet::from_indices(0..n as u32));
        }
    }

    #[test]
    fn small_universes_never_allocate() {
        let mut a = QuorumSet::full(128);
        a.remove(SiteId::new(300));
        a.remove(SiteId::new(127));
        assert!(!a.contains(SiteId::new(1000)));
        assert_eq!(a.high.capacity(), 0);
        a.insert(SiteId::new(128));
        a.remove(SiteId::new(128));
        assert_eq!(a, QuorumSet::from_indices(0..127));
    }

    mod reference {
        /// The sorted-`Vec` set the bitset replaced, for its `Debug` text.
        #[derive(Debug)]
        #[allow(dead_code)] // read only through `Debug`
        pub struct QuorumSet {
            pub sites: Vec<super::SiteId>,
        }
    }

    fn hash_of(q: &QuorumSet) -> u64 {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitset against a `BTreeSet<SiteId>` model through a random
        /// sequence of inserts and removes, on both sides of 128 sites:
        /// `wide` cases draw sites from `0..300`, the others from `0..128`.
        #[test]
        fn bitset_matches_an_ordered_set_model(
            wide in any::<bool>(),
            ops in proptest::collection::vec((any::<bool>(), 0u32..300), 0..80),
            probe in proptest::collection::vec(0u32..300, 0..40),
            other in proptest::collection::vec(0u32..300, 0..40),
        ) {
            let site = |i: u32| if wide { i } else { i % 128 };
            let ops: Vec<(bool, u32)> = ops.into_iter().map(|(add, i)| (add, site(i))).collect();
            let probe: Vec<u32> = probe.into_iter().map(site).collect();
            let other: Vec<u32> = other.into_iter().map(site).collect();
            let mut set = QuorumSet::new();
            let mut model: BTreeSet<SiteId> = BTreeSet::new();
            for &(add, i) in &ops {
                let s = SiteId::new(i);
                if add {
                    set.insert(s);
                    model.insert(s);
                } else {
                    set.remove(s);
                    model.remove(&s);
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            for &i in &probe {
                prop_assert_eq!(set.contains(SiteId::new(i)), model.contains(&SiteId::new(i)));
            }
            let members: Vec<SiteId> = model.iter().copied().collect();
            prop_assert!(set.iter().eq(members.iter().copied()));
            // The same members built another way are equal, hash equal
            // and print the sorted member list.
            let rebuilt = QuorumSet::from_sites(members.iter().rev().copied());
            prop_assert_eq!(&rebuilt, &set);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));
            let sorted_vec = reference::QuorumSet { sites: members.clone() };
            prop_assert_eq!(format!("{set:?}"), format!("{sorted_vec:?}"));
            prop_assert_eq!(format!("{set:#?}"), format!("{sorted_vec:#?}"));

            let other_model: BTreeSet<SiteId> = other.iter().map(|&i| SiteId::new(i)).collect();
            let other_set = QuorumSet::from_indices(other.iter().copied());
            prop_assert_eq!(set.intersects(&other_set), !model.is_disjoint(&other_model));
            prop_assert_eq!(set.is_subset_of(&other_set), model.is_subset(&other_model));
            prop_assert_eq!(other_set.is_subset_of(&set), other_model.is_subset(&model));
            prop_assert_eq!(set == other_set, model == other_model);
            // `Ord` is lexicographic over the ascending member lists.
            let other_members: Vec<SiteId> = other_model.iter().copied().collect();
            prop_assert_eq!(set.cmp(&other_set), members.cmp(&other_members));
        }
    }
}
