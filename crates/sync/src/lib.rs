//! # arbitree-sync
//!
//! A deterministic cumulated-hash range tree ([`HTree`]) over a replica's
//! keyed store, plus the pure request/response logic ([`respond`],
//! [`Session`]) for range-based set reconciliation between two stores —
//! the anti-entropy primitive behind staged replica rejoin.
//!
//! ## The structure
//!
//! Keys are `u32` object identifiers. The tree is a fixed-shape prefix
//! tree over the key space: each node covers the keys sharing a prefix of
//! `4 · depth` bits, so every node has [`BRANCH`] (= 16) children and the
//! leaf level ([`LEAF_DEPTH`] = 7) covers spans of 16 keys. A node's
//! digest ([`NodeAgg`]) is the XOR of the item hashes below it plus an
//! item count. XOR is its own inverse, so inserts, updates and removals
//! maintain every level incrementally in O(log n) — no rebuilds.
//!
//! The tree is *capacity-free*: it covers the whole `u32` key space and
//! only materializes nodes with items under them, so memory is O(n · log n)
//! in the number of live keys, not the key-space size.
//!
//! ## The protocol
//!
//! Reconciliation is requester-driven and responder-stateless:
//!
//! 1. the requester sends `(range, own digest)` starting at the root;
//! 2. the responder compares against its own digest for that range and
//!    answers [`Response::Match`] (subtree identical, prune),
//!    [`Response::Fill`] (the whole range in one message: every key it
//!    holds there, which the caller resolves to values and transfers), or
//!    [`Response::Children`] (16 child digests in one message — the
//!    requester recurses into mismatching children only). It fills when
//!    it holds at most [`BRANCH`] items in the range (a leaf's span, so
//!    every leaf mismatch is a fill), or when the requester holds nothing
//!    there and the responder at most [`FILL_BUDGET`]: an empty range
//!    cannot be narrowed by recursing, only delayed.
//!
//! Matching subtrees are pruned immediately, and the descent stops at the
//! first divergent range sparse enough to ship whole. A diff of `d` keys
//! out of `n` therefore costs O(d · log n) messages instead of the O(n) of
//! full state transfer — the `repair` bench sweeps exactly this curve —
//! and an emptied replica (an amnesia rejoin) pulls its store in about
//! `n / FILL_BUDGET` fills instead of one probe chain per 16-key leaf.
//!
//! ## Determinism
//!
//! Everything here is a pure function of the inserted items: storage is
//! `BTreeMap`-backed (sorted, seed-independent iteration), child digests
//! are emitted in fixed child order, and [`Session`] frontiers are ordered
//! collections. Two replicas with equal stores produce byte-identical
//! digests and message sequences.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bits of key prefix added per tree level.
pub const BRANCH_BITS: u32 = 4;
/// Fan-out of every internal node (`2^BRANCH_BITS`).
pub const BRANCH: usize = 1 << BRANCH_BITS;
/// Depth of the leaf level: nodes there span `2^(32 − 4·7)` = 16 keys.
/// The descent never goes deeper: a leaf holds at most [`BRANCH`] items,
/// so a mismatching leaf is always answered with a [`Response::Fill`].
pub const LEAF_DEPTH: u8 = 7;
/// Most items a responder ships in one [`Response::Fill`] for a range the
/// requester holds nothing of. Any divergent range with at most [`BRANCH`]
/// responder items is filled whatever the requester holds.
pub const FILL_BUDGET: u64 = 1024;

/// A contiguous, prefix-aligned key range — one node of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Range {
    /// Tree depth: 0 is the root (whole key space), [`LEAF_DEPTH`] the
    /// leaf level.
    pub depth: u8,
    /// The `4 · depth`-bit key prefix this node covers (0 at the root).
    pub prefix: u32,
}

impl Range {
    /// The root range: the entire `u32` key space.
    pub const ROOT: Range = Range {
        depth: 0,
        prefix: 0,
    };

    /// Bits a key is shifted right by to obtain this depth's prefix.
    fn shift(depth: u8) -> u32 {
        32 - BRANCH_BITS * u32::from(depth)
    }

    /// The node covering `key` at `depth`.
    pub fn of(key: u32, depth: u8) -> Range {
        debug_assert!(depth <= LEAF_DEPTH);
        let prefix = if depth == 0 {
            0
        } else {
            key >> Range::shift(depth)
        };
        Range { depth, prefix }
    }

    /// First key of the range (as `u64`: the root's bound exceeds `u32`).
    pub fn lo(self) -> u64 {
        u64::from(self.prefix) << Range::shift(self.depth)
    }

    /// Number of keys the range covers.
    pub fn span(self) -> u64 {
        1u64 << Range::shift(self.depth)
    }

    /// The `i`-th child range (`i < BRANCH`). Panics past the leaf level.
    pub fn child(self, i: u32) -> Range {
        assert!(self.depth < LEAF_DEPTH, "leaf ranges have no children");
        debug_assert!((i as usize) < BRANCH);
        Range {
            depth: self.depth + 1,
            prefix: (self.prefix << BRANCH_BITS) | i,
        }
    }

    /// Whether `key` falls inside the range.
    pub fn contains(self, key: u32) -> bool {
        let k = u64::from(key);
        k >= self.lo() && k < self.lo() + self.span()
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}/{:#x}", self.depth, self.prefix)
    }
}

/// A node digest: XOR-combined item hashes plus the item count below the
/// node. Two equal stores produce equal aggregates at every node; the
/// count disambiguates the empty store from (vanishingly unlikely)
/// XOR-cancelling item sets of equal size being compared against nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeAgg {
    /// XOR of the item hashes under the node.
    pub hash: u64,
    /// Number of items under the node.
    pub count: u64,
}

impl NodeAgg {
    /// The digest of an empty subtree.
    pub const EMPTY: NodeAgg = NodeAgg { hash: 0, count: 0 };

    fn toggle(&mut self, item_hash: u64, added: bool) {
        self.hash ^= item_hash;
        if added {
            self.count += 1;
        } else {
            self.count -= 1;
        }
    }
}

/// FNV-1a over a byte slice — the item-hash primitive.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical item hash for a replica value: covers the key, the value's
/// timestamp `(version, sid)` and the value bytes, so any divergence —
/// missing key, stale version, corrupt bytes — flips the digest.
pub fn item_hash(key: u32, version: u64, sid: u32, value: &[u8]) -> u64 {
    let mut prefix = [0u8; 16];
    prefix[..4].copy_from_slice(&key.to_le_bytes());
    prefix[4..12].copy_from_slice(&version.to_le_bytes());
    prefix[12..].copy_from_slice(&sid.to_le_bytes());
    let h = fnv1a(&prefix, 0xcbf2_9ce4_8422_2325);
    fnv1a(value, h)
}

/// The cumulated-hash range tree: item hashes at the bottom, XOR/count
/// aggregates at every level above, all maintained incrementally.
#[derive(Clone, PartialEq, Eq)]
pub struct HTree {
    /// Item hash per live key, sorted — leaf enumeration for fills.
    items: BTreeMap<u32, u64>,
    /// Aggregates for depths `1..=LEAF_DEPTH` (index `depth − 1`), keyed
    /// by node prefix. Nodes with no items are absent (≡ [`NodeAgg::EMPTY`]).
    levels: [BTreeMap<u32, NodeAgg>; LEAF_DEPTH as usize],
    /// The root aggregate (depth 0).
    root: NodeAgg,
}

impl Default for HTree {
    fn default() -> Self {
        HTree::new()
    }
}

// Hand-written: the derived form would stream every node of every level
// into the model checker's fingerprint hash. The tree is a pure function
// of the item map (which the owning storage already exposes), so the root
// digest alone is a faithful summary.
impl fmt::Debug for HTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HTree")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl HTree {
    /// An empty tree.
    pub fn new() -> Self {
        HTree {
            items: BTreeMap::new(),
            levels: Default::default(),
            root: NodeAgg::EMPTY,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The stored item hash for `key`.
    pub fn item(&self, key: u32) -> Option<u64> {
        self.items.get(&key).copied()
    }

    /// Applies `±item_hash` along `key`'s path from root to leaf level.
    fn toggle_path(&mut self, key: u32, item_hash: u64, added: bool) {
        self.root.toggle(item_hash, added);
        for depth in 1..=LEAF_DEPTH {
            let prefix = Range::of(key, depth).prefix;
            let node = self.levels[usize::from(depth) - 1]
                .entry(prefix)
                .or_default();
            node.toggle(item_hash, added);
            if node.count == 0 {
                self.levels[usize::from(depth) - 1].remove(&prefix);
            }
        }
    }

    /// Inserts or updates `key` with `item_hash`, maintaining every
    /// aggregate. Returns `true` if the tree changed.
    pub fn insert(&mut self, key: u32, item_hash: u64) -> bool {
        match self.items.insert(key, item_hash) {
            Some(old) if old == item_hash => false,
            Some(old) => {
                self.toggle_path(key, old, false);
                self.toggle_path(key, item_hash, true);
                true
            }
            None => {
                self.toggle_path(key, item_hash, true);
                true
            }
        }
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: u32) -> bool {
        match self.items.remove(&key) {
            Some(old) => {
                self.toggle_path(key, old, false);
                true
            }
            None => false,
        }
    }

    /// Drops every item — the amnesia-crash wipe.
    pub fn clear(&mut self) {
        self.items.clear();
        for level in &mut self.levels {
            level.clear();
        }
        self.root = NodeAgg::EMPTY;
    }

    /// The digest of `range` (the empty aggregate for item-free nodes).
    pub fn digest(&self, range: Range) -> NodeAgg {
        if range.depth == 0 {
            return self.root;
        }
        debug_assert!(range.depth <= LEAF_DEPTH);
        self.levels[usize::from(range.depth) - 1]
            .get(&range.prefix)
            .copied()
            .unwrap_or(NodeAgg::EMPTY)
    }

    /// The digests of `range`'s [`BRANCH`] children, in child order.
    pub fn child_digests(&self, range: Range) -> Vec<NodeAgg> {
        // arbitree-lint: allow(D004) — BRANCH is 16, trivially in range
        (0..BRANCH as u32)
            .map(|i| self.digest(range.child(i)))
            .collect()
    }

    /// The live keys inside `range`, ascending — what a
    /// [`Response::Fill`] for it ships.
    pub fn range_keys(&self, range: Range) -> impl Iterator<Item = u32> + '_ {
        // The last key of any range is at most u32::MAX (the root's).
        // arbitree-lint: allow(D004) — lo + span − 1 < 2^32 by construction
        let (lo, hi) = (range.lo() as u32, (range.lo() + range.span() - 1) as u32);
        self.items.range(lo..=hi).map(|(&k, _)| k)
    }

    /// Iterates `(key, item_hash)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.items.iter().map(|(&k, &h)| (k, h))
    }
}

/// A responder's answer to one `(range, digest)` probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The subtrees match — the requester prunes the whole range.
    Match,
    /// Digests differ over a range too full to ship whole: the
    /// responder's [`BRANCH`] child digests, for the requester to recurse
    /// into mismatches.
    Children(Vec<NodeAgg>),
    /// Digests differ over a range sparse enough to ship whole: the
    /// responder transfers every key it holds there
    /// ([`HTree::range_keys`]) with its value, and the requester installs
    /// them before consuming this response.
    Fill,
}

/// Stateless responder logic: compares the requester's digest for `range`
/// against `tree`'s own and picks the answer shape (see the module doc's
/// protocol step 2).
pub fn respond(tree: &HTree, range: Range, peer: NodeAgg) -> Response {
    let mine = tree.digest(range);
    if mine == peer {
        Response::Match
    } else if mine.count <= BRANCH as u64 || (peer.count == 0 && mine.count <= FILL_BUDGET) {
        Response::Fill
    } else {
        Response::Children(tree.child_digests(range))
    }
}

/// Counters a [`Session`] accumulates (mirrored into `SimMetrics` by the
/// simulator's rejoin manager).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Range probes issued (requests sent).
    pub requests: u64,
    /// Responses consumed.
    pub responses: u64,
    /// Subtrees pruned by a digest match.
    pub matches: u64,
    /// Range fills received.
    pub fills: u64,
}

/// Requester-side reconciliation state: the frontier of ranges still to
/// probe, plus the probes in flight. The session is done when both are
/// empty — every divergent range has been filled.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Ranges discovered divergent but not yet probed (LIFO: depth-first,
    /// so the in-flight window stays O(log n) deep).
    pending: Vec<Range>,
    /// Probes sent and awaiting a response.
    outstanding: BTreeSet<Range>,
    /// Message counters.
    pub stats: SessionStats,
}

impl Session {
    /// A fresh session, poised to probe the root.
    pub fn new() -> Self {
        Session {
            pending: vec![Range::ROOT],
            outstanding: BTreeSet::new(),
            stats: SessionStats::default(),
        }
    }

    /// Whether reconciliation has converged (no pending or in-flight
    /// probes).
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.outstanding.is_empty()
    }

    /// Probes currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Moves up to `max` pending ranges into flight and writes their
    /// `(range, local digest)` probes to `out`, replacing its contents.
    pub fn take_requests(&mut self, tree: &HTree, max: usize, out: &mut Vec<(Range, NodeAgg)>) {
        out.clear();
        while out.len() < max {
            let Some(range) = self.pending.pop() else {
                break;
            };
            self.outstanding.insert(range);
            self.stats.requests += 1;
            out.push((range, tree.digest(range)));
        }
    }

    /// Writes every in-flight probe (with *current* digests) to `out`,
    /// replacing its contents — the retransmission set after a timeout.
    pub fn resend_requests(&self, tree: &HTree, out: &mut Vec<(Range, NodeAgg)>) {
        out.clear();
        out.extend(self.outstanding.iter().map(|&r| (r, tree.digest(r))));
    }

    /// Consumes a response for `range`. For [`Response::Fill`] the caller
    /// must install the transferred values (updating `tree`) *before*
    /// calling this. Returns `false` for a stale duplicate (range not in
    /// flight), which callers should ignore.
    pub fn on_response(&mut self, tree: &HTree, range: Range, resp: &Response) -> bool {
        if !self.outstanding.remove(&range) {
            return false;
        }
        self.stats.responses += 1;
        match resp {
            Response::Match => self.stats.matches += 1,
            Response::Fill => self.stats.fills += 1,
            Response::Children(theirs) => {
                // Reverse order so the LIFO frontier probes child 0 first.
                for i in (0..BRANCH as u32).rev() {
                    // arbitree-lint: allow(D004) — i < 16
                    let child = range.child(i);
                    if theirs.get(i as usize).copied().unwrap_or(NodeAgg::EMPTY)
                        != tree.digest(child)
                    {
                        self.pending.push(child);
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a full reconciliation of `dst` against `src` in memory,
    /// returning the number of protocol messages exchanged.
    fn reconcile(src: &HTree, dst: &mut HTree, window: usize) -> u64 {
        let mut session = Session::new();
        let mut messages = 0u64;
        let mut reqs = Vec::new();
        while !session.is_done() {
            session.take_requests(dst, window, &mut reqs);
            assert!(!reqs.is_empty(), "session stuck with work pending");
            for &(range, digest) in &reqs {
                messages += 2; // request + response
                let resp = respond(src, range, digest);
                if resp == Response::Fill {
                    for k in src.range_keys(range) {
                        dst.insert(k, src.item(k).expect("responder holds key"));
                    }
                }
                assert!(session.on_response(dst, range, &resp));
            }
        }
        messages
    }

    fn tree_of(keys: impl IntoIterator<Item = u32>) -> HTree {
        let mut t = HTree::new();
        for k in keys {
            t.insert(k, item_hash(k, 1, 0, b"v"));
        }
        t
    }

    #[test]
    fn range_geometry() {
        assert_eq!(Range::ROOT.span(), 1u64 << 32);
        assert_eq!(Range::ROOT.lo(), 0);
        let leaf = Range::of(0xDEAD_BEEF, LEAF_DEPTH);
        assert_eq!(leaf.span(), 16);
        assert!(leaf.contains(0xDEAD_BEEF));
        assert!(!leaf.contains(0xDEAD_BE0F));
        let child = Range::ROOT.child(0xD);
        assert_eq!(child.depth, 1);
        assert!(child.contains(0xDEAD_BEEF));
        assert_eq!(Range::of(0xDEAD_BEEF, 1), child);
        // Children tile their parent.
        let spans: u64 = (0..16).map(|i| child.child(i).span()).sum();
        assert_eq!(spans, child.span());
    }

    #[test]
    fn digests_are_incremental_and_order_independent() {
        let mut a = HTree::new();
        for k in [7u32, 1 << 20, 3, 0xFFFF_FFFF] {
            a.insert(k, item_hash(k, 1, 0, b"x"));
        }
        let b = tree_of_hashes(&[(0xFFFF_FFFF, b"x"), (3, b"x"), (7, b"x"), (1 << 20, b"x")]);
        assert_eq!(a.digest(Range::ROOT), b.digest(Range::ROOT));
        for depth in 1..=LEAF_DEPTH {
            assert_eq!(
                a.digest(Range::of(7, depth)),
                b.digest(Range::of(7, depth)),
                "depth {depth}"
            );
        }
        // Updating a value flips every digest on the path; removing
        // restores the original.
        let before = a.digest(Range::ROOT);
        a.insert(7, item_hash(7, 2, 1, b"y"));
        assert_ne!(a.digest(Range::ROOT), before);
        a.insert(7, item_hash(7, 1, 0, b"x"));
        assert_eq!(a.digest(Range::ROOT), before);
        a.remove(7);
        a.insert(7, item_hash(7, 1, 0, b"x"));
        assert_eq!(a.digest(Range::ROOT), before);
    }

    fn tree_of_hashes(items: &[(u32, &[u8])]) -> HTree {
        let mut t = HTree::new();
        for &(k, v) in items {
            t.insert(k, item_hash(k, 1, 0, v));
        }
        t
    }

    #[test]
    fn empty_nodes_are_pruned_from_levels() {
        let mut t = tree_of([42]);
        assert!(!t.is_empty());
        t.remove(42);
        assert!(t.is_empty());
        assert_eq!(t, HTree::new(), "removal must leave no residue");
        let mut u = tree_of([1, 2, 3]);
        u.clear();
        assert_eq!(u, HTree::new());
    }

    #[test]
    fn item_hash_covers_all_fields() {
        let base = item_hash(1, 1, 0, b"v");
        assert_ne!(base, item_hash(2, 1, 0, b"v"));
        assert_ne!(base, item_hash(1, 2, 0, b"v"));
        assert_ne!(base, item_hash(1, 1, 1, b"v"));
        assert_ne!(base, item_hash(1, 1, 0, b"w"));
    }

    #[test]
    fn identical_trees_reconcile_in_one_round_trip() {
        let src = tree_of(0..1000);
        let mut dst = src.clone();
        assert_eq!(reconcile(&src, &mut dst, 4), 2);
    }

    #[test]
    fn empty_requester_pulls_everything() {
        let src = tree_of((0..500).map(|i| i * 7919));
        let mut dst = HTree::new();
        reconcile(&src, &mut dst, 4);
        assert_eq!(dst, src);
    }

    #[test]
    fn small_diff_costs_far_less_than_full_transfer() {
        let n = 1u32 << 14;
        let src = tree_of(0..n);
        let mut dst = src.clone();
        for k in [3u32, 999, 5000, 16000] {
            dst.remove(k);
        }
        let msgs = reconcile(&src, &mut dst, 8);
        assert_eq!(dst, src);
        let full_transfer = u64::from(n) / 16;
        assert!(
            msgs < full_transfer / 4,
            "diff of 4 keys took {msgs} messages vs {full_transfer} full-transfer fills"
        );
    }

    #[test]
    fn requester_with_extra_keys_still_converges() {
        // The requester holds keys the responder lacks: digests can never
        // fully match, but the frontier still drains (fills report the
        // responder's side; the requester keeps its extras).
        let src = tree_of([1, 2, 3]);
        let mut dst = tree_of([2, 3, 4, 5]);
        reconcile(&src, &mut dst, 4);
        for k in [1, 2, 3, 4, 5] {
            assert!(dst.item(k).is_some(), "key {k} lost");
        }
    }

    #[test]
    fn stale_duplicate_responses_are_ignored() {
        let src = tree_of([1]);
        let dst = HTree::new();
        let mut s = Session::new();
        let mut reqs = Vec::new();
        s.take_requests(&dst, 16, &mut reqs);
        assert_eq!(reqs.len(), 1);
        let resp = respond(&src, Range::ROOT, NodeAgg::EMPTY);
        assert!(s.on_response(&dst, Range::ROOT, &resp));
        assert!(!s.on_response(&dst, Range::ROOT, &resp), "duplicate");
    }

    #[test]
    fn resend_requests_mirror_outstanding() {
        let dst = tree_of([9]);
        let mut s = Session::new();
        let (mut sent, mut resent) = (Vec::new(), vec![(Range::ROOT, NodeAgg::EMPTY); 3]);
        s.take_requests(&dst, 16, &mut sent);
        s.resend_requests(&dst, &mut resent);
        assert_eq!(resent, sent);
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn range_keys_cover_any_depth() {
        let keys = [0u32, 15, 16, 0x0FFF_FFFF, 0x1000_0000, u32::MAX];
        let t = tree_of(keys);
        assert!(t.range_keys(Range::ROOT).eq(keys));
        assert!(t.range_keys(Range::of(0, LEAF_DEPTH)).eq([0, 15]));
        assert!(t.range_keys(Range::of(0, 1)).eq([0, 15, 16, 0x0FFF_FFFF]));
        assert!(t.range_keys(Range::of(u32::MAX, 3)).eq([u32::MAX]));
        assert!(t.range_keys(Range::of(0x8000_0000, 2)).eq([]));
    }

    #[test]
    fn full_ranges_are_split_unless_the_requester_is_empty_there() {
        // 17 items over 17 leaves: one more than a fill may carry to a
        // requester that already holds part of the range.
        let src = tree_of((0..17).map(|i| i << 4));
        let partial = tree_of([0]);
        match respond(&src, Range::ROOT, partial.digest(Range::ROOT)) {
            Response::Children(d) => assert_eq!(d.len(), BRANCH),
            other => panic!("expected children, got {other:?}"),
        }
        // An empty requester gets the whole range up to the budget ...
        assert_eq!(respond(&src, Range::ROOT, NodeAgg::EMPTY), Response::Fill);
        // ... and the children above it.
        // arbitree-lint: allow(D004) — FILL_BUDGET + 1 keys fit u32
        let big = tree_of(0..FILL_BUDGET as u32 + 1);
        assert!(matches!(
            respond(&big, Range::ROOT, NodeAgg::EMPTY),
            Response::Children(_)
        ));
        // An empty requester descends the one populated path (depths 0–5)
        // and then takes four full 256-key ranges and the one key past
        // them as five fills: 11 probes, where 16-key leaves would take 66.
        let mut dst = HTree::new();
        assert_eq!(reconcile(&big, &mut dst, 4), 2 * 11);
        assert_eq!(dst, big);
    }
}
