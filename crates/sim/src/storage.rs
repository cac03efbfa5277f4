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
//! source ever reads the tree, so it is built lazily: a store that was never
//! read keeps no tree and logs nothing, and the first read ([`Storage::htree`]
//! or [`Storage::fill`], both `&mut self` so no reader can see a stale tree)
//! builds it from the committed map in key order. From then on installs
//! append their key to a log, applied on the next read or once it outgrows
//! twice the committed map. A wipe drops the tree with the data, so the
//! next read builds it again. The state fingerprint hashes the committed
//! and staged maps alone, so when the tree is built is invisible to it.

use crate::message::{ObjectId, OpId};
use arbitree_core::{DetMap, Timestamp};
use arbitree_sync::{item_hash, HTree, Range};
use bytes::Bytes;
use std::hash::{Hash, Hasher};

/// A committed object version.
#[derive(Debug, Clone, PartialEq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Staged {
    /// The preparing operation.
    pub op: OpId,
    /// The value to apply on commit.
    pub value: Bytes,
    /// Its timestamp.
    pub ts: Timestamp,
}

/// Durable replica storage.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    committed: DetMap<ObjectId, Version>,
    staged: DetMap<ObjectId, Staged>,
    /// Range-hash tree over `committed` as of the last log flush (staged
    /// writes are invisible to it: only durable, committed state takes
    /// part in anti-entropy). Empty until the first read builds it.
    htree: HTree,
    /// The key of every install since the last flush; `None` until the
    /// first read builds the tree, so installs before it log nothing. The
    /// tree is a function of the committed map, so a flush reads each
    /// key's item hash from there.
    log: Option<Vec<u32>>,
}

/// Hashes the committed and staged maps in object order, whatever order
/// the schedule filled them in; the tree and its log are a function of
/// the committed map and stay out.
impl Hash for Storage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.committed.hash(state);
        self.staged.hash(state);
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

    /// Brings the tree up to date: the first call builds it from every
    /// committed key, later ones apply the install log. The tree is a
    /// function of the committed map, so each key is applied once, in key
    /// order, with the item hash of its committed version now.
    fn flush(&mut self) {
        let log = self
            .log
            .get_or_insert_with(|| self.committed.keys().map(|obj| obj.0).collect());
        log.sort_unstable();
        log.dedup();
        for &key in log.iter() {
            let obj = ObjectId(key);
            // Every logged key is committed: only a wipe removes a key, and
            // it empties the log as well.
            if let Some(version) = self.committed.get(&obj) {
                self.htree.insert(key, version.item_hash(obj));
            }
        }
        log.clear();
    }

    /// Installs `value` at `ts` when it is newer than the committed version
    /// of `obj` (the zero version if never written), in one committed-map
    /// probe; once the range tree is built, logs the key for it. Returns
    /// whether it installed. Every
    /// committed-map write funnels through here so the tree can never drift
    /// from the store.
    fn install(&mut self, obj: ObjectId, value: Bytes, ts: Timestamp) -> bool {
        // Nothing is older than a never-written key's zero version.
        if ts <= Timestamp::ZERO {
            return false;
        }
        let current = self.committed.entry(obj).or_default();
        if ts <= current.ts {
            return false;
        }
        *current = Version { value, ts };
        if let Some(log) = &mut self.log {
            log.push(obj.0);
            // Bounds the log at O(store); flushing by key does at most the
            // work an eager tree would have done for the same installs.
            if log.len() > 2 * self.committed.len() {
                self.flush();
            }
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
        self.staged.update(obj, |stage| match stage {
            Some(existing) if existing.op != op && ts <= existing.ts => false,
            Some(existing) if ts < existing.ts => false,
            _ => {
                *stage = Some(Staged { op, value, ts });
                true
            }
        })
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
        self.staged.update(obj, |stage| {
            if stage.as_ref().is_some_and(|s| s.op == op) {
                *stage = None;
            }
        });
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fnv;
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
        for (obj, v) in s.committed.iter() {
            t.insert(obj.0, v.item_hash(*obj));
        }
        t
    }

    /// Everything `s` has committed, in key order, as a fill ships it.
    fn all_items(s: &Storage) -> Vec<(ObjectId, Bytes, Timestamp)> {
        let mut items: Vec<_> = s
            .committed
            .iter()
            .map(|(obj, v)| (*obj, v.value.clone(), v.ts))
            .collect();
        items.sort_unstable_by_key(|item| item.0);
        items
    }

    #[test]
    fn the_tree_is_built_on_first_read_and_its_log_stays_bounded() {
        let mut s = Storage::new();
        for v in 1..=100 {
            let obj = ObjectId(7 + (v % 3) as u32);
            assert!(s.repair(obj, Bytes::from_static(b"v"), ts(v)));
            // Never read: no tree and no log.
            assert!(s.log.is_none() && s.htree.is_empty());
        }
        let (before, eager) = (Fnv::lanes(&s), eager_tree(&s));
        assert_eq!(s.htree(), &eager);
        // Building is invisible to the state fingerprint.
        assert_eq!(Fnv::lanes(&s), before);
        for v in 101..=200 {
            assert!(s.repair(ObjectId(7), Bytes::from_static(b"w"), ts(v)));
            assert!(s
                .log
                .as_ref()
                .is_some_and(|log| log.len() <= 2 * s.committed.len()));
        }
        let (before, eager, items) = (Fnv::lanes(&s), eager_tree(&s), all_items(&s));
        assert_eq!(s.fill(Range::ROOT), items);
        assert_eq!(s.log, Some(Vec::new()));
        assert_eq!(s.htree(), &eager);
        // Neither is flushing the log.
        assert_eq!(Fnv::lanes(&s), before);
        // A wipe drops the tree; the store logs nothing until read again.
        s.wipe();
        assert!(s.repair(ObjectId(9), Bytes::from_static(b"x"), ts(1)));
        assert!(s.log.is_none() && s.htree.is_empty());
        let eager = eager_tree(&s);
        assert_eq!(s.htree(), &eager);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// A store that was never read (or not since its wipe) keeps no
        /// tree and no log; once read, its log stays within twice the
        /// store; and every read sees exactly the tree and the items a
        /// build from scratch gives.
        #[test]
        fn lazy_digests_match_an_eager_tree(
            steps in proptest::collection::vec((0u8..12, 0u32..24, 1u64..6, 0u8..3), 1..200)
        ) {
            let mut s = Storage::new();
            let mut read = false;
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
                    8 if k == 0 => {
                        s.wipe();
                        read = false;
                    }
                    8 => {
                        let range = Range::of(obj.0, (k % 4) as u8);
                        let mut want = all_items(&s);
                        want.retain(|(o, _, _)| range.contains(o.0));
                        proptest::prop_assert_eq!(s.fill(range), want);
                        read = true;
                    }
                    _ => {
                        let fingerprint = Fnv::lanes(&s);
                        let eager = eager_tree(&s);
                        let lazy = s.htree().clone();
                        read = true;
                        proptest::prop_assert_eq!(Fnv::lanes(&s), fingerprint);
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
                match &s.log {
                    Some(log) => {
                        proptest::prop_assert!(read);
                        proptest::prop_assert!(log.len() <= 2 * s.committed.len());
                    }
                    None => proptest::prop_assert!(!read && s.htree.is_empty()),
                }
            }
            let eager = eager_tree(&s);
            let lazy = s.htree();
            proptest::prop_assert!(lazy == &eager);
        }
    }
}
