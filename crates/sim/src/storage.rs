//! Per-site durable storage: committed versions plus 2PC-staged writes.
//!
//! Storage survives *transient* crashes (a site that recovers still holds
//! its data, including prepared-but-uncommitted writes, as required for
//! 2PC to complete after recovery). An amnesia crash calls
//! [`Storage::wipe`] — everything is lost and the site must resync.
//!
//! Alongside the committed map, storage keeps a [`HTree`] — a
//! cumulated-hash range tree over the committed keyspace — so anti-entropy
//! can locate a diff in O(diff · log n) range-hash comparisons instead of
//! scanning (or shipping) the full store, and ship a sparse or
//! requester-empty range whole ([`Storage::fill`]). Only a rejoining site or a sync
//! source ever reads the tree, so it is maintained lazily: installs append
//! their key to a log, and the log is applied on the next digest
//! read ([`Storage::htree`], which takes `&mut self` so no reader can see a
//! stale tree) or once it outgrows twice the committed map. The root
//! aggregate — the one part of the tree that `Debug` (and so the model
//! checker's fingerprint) shows — is kept eagerly.

use crate::message::{ObjectId, OpId};
use arbitree_core::{DetMap, Timestamp};
use arbitree_sync::{item_hash, HTree, NodeAgg, Range};
use bytes::Bytes;
use std::fmt;

/// A committed object version.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// The value.
    pub value: Bytes,
    /// Its timestamp.
    pub ts: Timestamp,
}

impl Default for Version {
    fn default() -> Self {
        Version {
            value: Bytes::new(),
            ts: Timestamp::ZERO,
        }
    }
}

impl Version {
    /// The range-tree item hash of this version under key `obj`.
    fn item_hash(&self, obj: ObjectId) -> u64 {
        item_hash(
            obj.0,
            self.ts.version(),
            self.ts.sid().as_u32(),
            &self.value,
        )
    }
}

/// A staged (prepared, not yet committed) write.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    /// The preparing operation.
    pub op: OpId,
    /// The value to apply on commit.
    pub value: Bytes,
    /// Its timestamp.
    pub ts: Timestamp,
}

/// Durable replica storage.
#[derive(Clone, Default)]
pub struct Storage {
    committed: DetMap<ObjectId, Version>,
    staged: DetMap<ObjectId, Staged>,
    /// Range-hash tree over `committed` as of the last log flush (staged
    /// writes are invisible to it: only durable, committed state takes
    /// part in anti-entropy).
    htree: HTree,
    /// The key of every install since the last flush. The tree is a
    /// function of the committed map, so a flush reads each key's item
    /// hash from there.
    log: Vec<u32>,
    /// The tree's root aggregate over the *current* committed map.
    root: NodeAgg,
}

/// Prints what the range tree's own `Debug` prints — its root — so a
/// storage's `Debug` text does not depend on when the log was flushed.
struct RootView(NodeAgg);

impl fmt::Debug for RootView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HTree")
            .field("root", &self.0)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("committed", &self.committed)
            .field("staged", &self.staged)
            .field("htree", &RootView(self.root))
            .finish()
    }
}

impl Storage {
    /// Empty storage: every object reads as the zero version.
    pub fn new() -> Self {
        Storage::default()
    }

    /// The committed version of `obj` (zero version if never written).
    pub fn read(&self, obj: ObjectId) -> Version {
        self.committed.get(&obj).cloned().unwrap_or_default()
    }

    /// The cumulated-hash range tree over the committed keyspace, brought
    /// up to date first.
    pub fn htree(&mut self) -> &HTree {
        self.flush();
        &self.htree
    }

    /// Every committed `(object, value, timestamp)` in `range`, in key
    /// order — the contents of an anti-entropy fill for it.
    pub fn fill(&mut self, range: Range) -> Vec<(ObjectId, Bytes, Timestamp)> {
        self.flush();
        // arbitree-lint: allow(D004) — a count of stored keys fits usize
        let mut items = Vec::with_capacity(self.htree.digest(range).count as usize);
        for key in self.htree.range_keys(range) {
            let obj = ObjectId(key);
            let v = self.read(obj);
            items.push((obj, v.value, v.ts));
        }
        items
    }

    /// Applies the install log to the tree. The tree is a function of the
    /// committed map, so each logged key is applied once, with the item
    /// hash of its committed version now.
    fn flush(&mut self) {
        self.log.sort_unstable();
        self.log.dedup();
        for &key in &self.log {
            let obj = ObjectId(key);
            // Every logged key is committed: only a wipe removes a key, and
            // it empties the log as well.
            if let Some(version) = self.committed.get(&obj) {
                self.htree.insert(key, version.item_hash(obj));
            }
        }
        self.log.clear();
        debug_assert_eq!(self.htree.digest(Range::ROOT), self.root);
    }

    /// Installs `value` at `ts` when it is newer than the committed version
    /// of `obj` (the zero version if never written), in one committed-map
    /// probe; updates the root aggregate and logs the key for the range
    /// tree. Returns whether it installed. Every committed-map write
    /// funnels through here so the tree can never drift from the store.
    fn install(&mut self, obj: ObjectId, value: Bytes, ts: Timestamp) -> bool {
        // Nothing is older than a never-written key's zero version.
        if ts <= Timestamp::ZERO {
            return false;
        }
        let mut fresh = false;
        let current = self.committed.entry(obj).or_insert_with(|| {
            fresh = true;
            Version::default()
        });
        if ts <= current.ts {
            return false;
        }
        let version = Version { value, ts };
        self.root.hash ^= version.item_hash(obj);
        if fresh {
            self.root.count += 1;
        } else {
            self.root.hash ^= current.item_hash(obj);
        }
        *current = version;
        self.log.push(obj.0);
        // Bounds the log at O(store); flushing by key does at most the work
        // an eager tree would have done for the same installs.
        if self.log.len() > 2 * self.committed.len() {
            self.flush();
        }
        true
    }

    /// Stages a write (2PC phase 1). Re-staging by the same operation is
    /// idempotent (message retries). A stage left behind by a *different*
    /// operation is replaced only when the new timestamp is strictly
    /// greater — safe because the global lock manager admits one writer per
    /// object at a time, so an older stale stage can only belong to an
    /// operation that gave up before its commit point (its `Abort` was lost)
    /// and will therefore never commit. An equal-or-lower timestamp gets a
    /// vote-abort. So does a *same*-operation prepare at a lower timestamp:
    /// it is a late re-send of an attempt the operation has since bumped
    /// past, and must not replace the newer stage (the coordinator ignores
    /// votes for any timestamp but its current one).
    pub fn prepare(&mut self, obj: ObjectId, op: OpId, value: Bytes, ts: Timestamp) -> bool {
        match self.staged.get(&obj) {
            Some(existing) if existing.op != op && ts <= existing.ts => false,
            Some(existing) if ts < existing.ts => false,
            _ => {
                self.staged.insert(obj, Staged { op, value, ts });
                true
            }
        }
    }

    /// Applies the decided write of `op` (2PC phase 2): drops the
    /// operation's stage and installs the carried `(value, ts)` — the
    /// decision itself, never the stage, which a reordered re-send of an
    /// earlier attempt could have left at another timestamp, or an amnesia
    /// crash could have lost. The install is timestamp-guarded, so stale
    /// replays and pre-resync'd newer values are never regressed, and
    /// replays are idempotent.
    pub fn commit(&mut self, obj: ObjectId, op: OpId, value: Bytes, ts: Timestamp) {
        self.abort(obj, op);
        self.install(obj, value, ts);
    }

    /// Discards the staged write of `op`, if present.
    pub fn abort(&mut self, obj: ObjectId, op: OpId) {
        if let Some(staged) = self.staged.get(&obj) {
            if staged.op == op {
                self.staged.remove(&obj);
            }
        }
    }

    /// Read-repair / anti-entropy install: directly applies `value` at `ts`
    /// when it is newer than the committed version. Used only for values
    /// that are already durable on a full write quorum elsewhere. Returns
    /// whether the value was applied (`false`: the local copy was already
    /// at least as new).
    pub fn repair(&mut self, obj: ObjectId, value: Bytes, ts: Timestamp) -> bool {
        self.install(obj, value, ts)
    }

    /// An amnesia crash: all durable state — committed versions, staged
    /// writes, and the range tree over them — is lost.
    pub fn wipe(&mut self) {
        *self = Storage::new();
    }

    /// The staged write for `obj`, if any (used by tests and invariants).
    pub fn staged(&self, obj: ObjectId) -> Option<&Staged> {
        self.staged.get(&obj)
    }

    /// Committed entries in sorted object order — an insertion-order-free
    /// view for canonical fingerprinting (the `DetMap` itself iterates in
    /// insertion order, which depends on the schedule that built it).
    pub fn committed_sorted(&self) -> Vec<(ObjectId, &Version)> {
        let mut entries: Vec<_> = self.committed.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_by_key(|(obj, _)| obj.0);
        entries
    }

    /// Staged entries in sorted object order (see
    /// [`Storage::committed_sorted`]).
    pub fn staged_sorted(&self) -> Vec<(ObjectId, &Staged)> {
        let mut entries: Vec<_> = self.staged.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_by_key(|(obj, _)| obj.0);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::SiteId;
    use arbitree_sync::{Range, LEAF_DEPTH};

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v, SiteId::new(0))
    }

    #[test]
    fn read_of_unwritten_object_is_zero_version() {
        let mut s = Storage::new();
        let v = s.read(ObjectId(0));
        assert_eq!(v.ts, Timestamp::ZERO);
        assert!(v.value.is_empty());
        assert!(s.htree().is_empty());
    }

    #[test]
    fn prepare_commit_cycle() {
        let mut s = Storage::new();
        let obj = ObjectId(1);
        assert!(s.prepare(obj, OpId(1), Bytes::from_static(b"a"), ts(1)));
        assert!(s.staged(obj).is_some());
        // Value not visible before commit — and invisible to the range tree.
        assert_eq!(s.read(obj).ts, Timestamp::ZERO);
        assert!(s.htree().is_empty());
        s.commit(obj, OpId(1), Bytes::from_static(b"a"), ts(1));
        assert_eq!(s.read(obj).ts, ts(1));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"a"));
        assert!(s.staged(obj).is_none());
        assert_eq!(s.htree().len(), 1);
    }

    #[test]
    fn conflicting_prepare_rules() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        assert!(s.prepare(obj, OpId(1), Bytes::new(), ts(2)));
        // Different op, lower or equal timestamp: vote-abort.
        assert!(!s.prepare(obj, OpId(2), Bytes::new(), ts(2)));
        assert!(!s.prepare(obj, OpId(2), Bytes::new(), ts(1)));
        // Different op, strictly higher timestamp: replaces a stale stage.
        assert!(s.prepare(obj, OpId(2), Bytes::new(), ts(3)));
        assert_eq!(s.staged(obj).unwrap().op, OpId(2));
        // Same op re-preparing is fine (message retry).
        assert!(s.prepare(obj, OpId(2), Bytes::new(), ts(3)));
    }

    #[test]
    fn commit_is_idempotent() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3)); // replay
        assert_eq!(s.read(obj).ts, ts(3));
        assert!(s.staged(obj).is_none());
    }

    #[test]
    fn commit_without_stage_installs_carried_value() {
        // The stage is gone (amnesia crash or prior consumption): the
        // commit's own value installs, ts-guarded.
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.commit(obj, OpId(1), Bytes::from_static(b"x"), ts(3));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"x"));
        // A stale carried value does not regress a newer committed one.
        s.commit(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        assert_eq!(s.read(obj).ts, ts(3));
    }

    #[test]
    fn stale_commit_does_not_regress() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::from_static(b"new"), ts(5));
        s.commit(obj, OpId(1), Bytes::from_static(b"new"), ts(5));
        // A delayed lower-timestamp write must not clobber the newer value.
        s.prepare(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        s.commit(obj, OpId(2), Bytes::from_static(b"old"), ts(2));
        assert_eq!(s.read(obj).ts, ts(5));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"new"));
    }

    #[test]
    fn late_same_op_prepare_cannot_regress_the_commit() {
        // An op prepares at ts 2, is vote-aborted elsewhere and re-prepares
        // at the bumped ts 3; a re-send of the ts-2 prepare then arrives
        // late. It must not replace the newer stage, and the commit must
        // install the decided (value, ts) whatever the stage holds.
        let mut s = Storage::new();
        let obj = ObjectId(4);
        assert!(s.prepare(obj, OpId(9), Bytes::from_static(b"new"), ts(3)));
        assert!(!s.prepare(obj, OpId(9), Bytes::from_static(b"old"), ts(2)));
        assert_eq!(s.staged(obj).map(|st| st.ts), Some(ts(3)));
        s.commit(obj, OpId(9), Bytes::from_static(b"new"), ts(3));
        assert_eq!(s.read(obj).ts, ts(3));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"new"));
        assert!(s.staged(obj).is_none());
        // Even a stage that does differ from the decision is dropped, not
        // installed.
        assert!(s.prepare(obj, OpId(10), Bytes::from_static(b"stale"), ts(4)));
        s.commit(obj, OpId(10), Bytes::from_static(b"decided"), ts(5));
        assert_eq!(s.read(obj).value, Bytes::from_static(b"decided"));
        assert_eq!(s.read(obj).ts, ts(5));
        assert!(s.staged(obj).is_none());
    }

    #[test]
    fn abort_discards_stage() {
        let mut s = Storage::new();
        let obj = ObjectId(0);
        s.prepare(obj, OpId(1), Bytes::new(), ts(1));
        s.abort(obj, OpId(2)); // wrong op: keeps stage
        assert!(s.staged(obj).is_some());
        s.abort(obj, OpId(1));
        assert!(s.staged(obj).is_none());
    }

    #[test]
    fn objects_are_independent() {
        let mut s = Storage::new();
        s.prepare(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.prepare(ObjectId(1), OpId(2), Bytes::from_static(b"b"), ts(1));
        s.commit(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        assert_eq!(s.read(ObjectId(0)).value, Bytes::from_static(b"a"));
        assert_eq!(s.read(ObjectId(1)).ts, Timestamp::ZERO);
    }

    #[test]
    fn htree_tracks_every_committed_mutation() {
        let mut a = Storage::new();
        let mut b = Storage::new();
        // a: commit path; b: repair path — same final state, same digests.
        a.prepare(ObjectId(3), OpId(1), Bytes::from_static(b"v"), ts(2));
        a.commit(ObjectId(3), OpId(1), Bytes::from_static(b"v"), ts(2));
        assert!(b.repair(ObjectId(3), Bytes::from_static(b"v"), ts(2)));
        assert_eq!(a.htree(), b.htree());
        // Overwrite changes the digest; a refused stale repair does not.
        let before = a.htree().digest(Range::ROOT);
        assert!(a.repair(ObjectId(3), Bytes::from_static(b"w"), ts(5)));
        assert_ne!(a.htree().digest(Range::ROOT), before);
        let after = a.htree().digest(Range::ROOT);
        assert!(!a.repair(ObjectId(3), Bytes::from_static(b"z"), ts(4)));
        assert_eq!(a.htree().digest(Range::ROOT), after);
        assert_eq!(a.htree().len(), 1);
    }

    #[test]
    fn wipe_loses_everything() {
        let mut s = Storage::new();
        s.prepare(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.commit(ObjectId(0), OpId(1), Bytes::from_static(b"a"), ts(1));
        s.prepare(ObjectId(1), OpId(2), Bytes::from_static(b"b"), ts(1));
        s.wipe();
        assert_eq!(s.read(ObjectId(0)).ts, Timestamp::ZERO);
        assert!(s.staged(ObjectId(1)).is_none());
        assert!(s.htree().is_empty());
    }

    /// A range tree built eagerly, item by item, over `s`'s committed map.
    fn eager_tree(s: &Storage) -> HTree {
        let mut t = HTree::new();
        for (obj, v) in s.committed_sorted() {
            t.insert(obj.0, v.item_hash(obj));
        }
        t
    }

    #[test]
    fn install_log_stays_bounded_by_the_store() {
        let mut s = Storage::new();
        for v in 1..=100 {
            assert!(s.repair(ObjectId(7), Bytes::from_static(b"v"), ts(v)));
            assert!(s.log.len() <= 2 * s.committed.len());
        }
        let before = format!("{s:?}");
        let eager = eager_tree(&s);
        assert_eq!(s.htree(), &eager);
        assert!(s.log.is_empty());
        // Flushing is invisible to Debug (and so to fingerprints).
        assert_eq!(format!("{s:?}"), before);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn lazy_digests_match_an_eager_tree(
            steps in proptest::collection::vec((0u8..12, 0u32..24, 1u64..6, 0u8..3), 1..200)
        ) {
            let mut s = Storage::new();
            for (i, &(op, k, version, byte)) in steps.iter().enumerate() {
                // Spread keys across top-level prefixes and share leaves.
                let obj = ObjectId(k.wrapping_mul(0x0F0F_1235) >> (k % 3));
                let value = Bytes::from(vec![byte]);
                let stamp = Timestamp::new(version, SiteId::new(u32::from(byte)));
                let opid = OpId(i as u64);
                match op {
                    0..=3 => {
                        if s.prepare(obj, opid, value.clone(), stamp) {
                            s.commit(obj, opid, value, stamp);
                        }
                    }
                    4 => s.commit(obj, opid, value, stamp),
                    5..=7 => {
                        s.repair(obj, value, stamp);
                    }
                    8 if k == 0 => s.wipe(),
                    _ => {
                        let debug = format!("{s:?}");
                        let eager = eager_tree(&s);
                        let lazy = s.htree().clone();
                        proptest::prop_assert_eq!(format!("{s:?}"), debug);
                        // Whole-tree equality compares every node of every
                        // level; the probes below also cover empty ranges.
                        proptest::prop_assert!(lazy == eager, "tree differs at step {}", i);
                        for probe in 0u32..24 {
                            let key = probe.wrapping_mul(0x0F0F_1235);
                            for depth in 0..=LEAF_DEPTH {
                                let r = Range::of(key, depth);
                                proptest::prop_assert_eq!(lazy.digest(r), eager.digest(r));
                            }
                        }
                    }
                }
                proptest::prop_assert!(s.log.len() <= 2 * s.committed.len());
            }
            let eager = eager_tree(&s);
            let lazy = s.htree();
            proptest::prop_assert!(lazy == &eager);
        }
    }
}
