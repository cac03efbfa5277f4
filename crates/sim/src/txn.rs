//! Transaction-level state: the per-transaction coordinator record and its
//! phase machine, the client bookkeeping, live-reconfiguration progress,
//! and the public request/report types.
//!
//! A transaction is one [`TxnState`]: a `Vec` of [`TxnObject`] entries,
//! one per object it touches, plus the acknowledgements and read
//! responses of the phase in progress. Every phase walks the entries in
//! place — locks and the read round in ascending object order (the
//! entries' order), prepare, commit and completion in request order
//! (through a permutation computed once per transaction). The read round
//! covers every entry at once, batched or not. A finished record is
//! recycled for a later transaction with its buffers' capacity intact.
//!
//! These types carry no behaviour of their own — the
//! [`crate::coordinator::Coordinator`] drives them and the
//! [`crate::engine::Engine`] transports their messages.

use crate::history::History;
use crate::locks::LockMode;
use crate::message::{ClientId, ObjectId, OpId};
use crate::metrics::SimMetrics;
use crate::time::SimTime;
use arbitree_core::{DetSet, Timestamp};
use arbitree_quorum::{QuorumSet, ReplicaControl, SiteId};
use bytes::Bytes;
use std::fmt;

/// What a transaction is doing right now.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Phase {
    /// Acquiring its locks, in object order.
    LockWait,
    /// Gathering every object's read-quorum responses.
    ReadGather,
    /// Gathering 2PC votes from every written object's write quorum.
    PrepareGather,
    /// Past the commit point, gathering commit acks.
    CommitGather,
}

/// Coordinator state of one transaction.
///
/// The read phase is one round over every entry, with
/// [`crate::SimConfig::batching`] on or off; written objects are read
/// too, for their current version. A read retry re-sends only the
/// entries `pending` still owes.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub(crate) client: ClientId,
    pub(crate) phase: Phase,
    pub(crate) started: SimTime,
    /// Bumped on every phase (re)start; stale timeouts carry the old value.
    pub(crate) phase_counter: u64,
    /// Quorum re-pick attempts consumed.
    pub(crate) attempts: u32,
    /// One entry per object, ascending by object: the lock plan and the
    /// read order.
    pub(crate) objects: Vec<TxnObject>,
    /// Request order: `order[pos]` is the index in `objects` of the entry
    /// at request position `pos`. Derived from the entries' `pos`.
    pub(crate) order: Vec<usize>,
    /// How many of the entries' locks are held (a migration takes none).
    pub(crate) locks_held: usize,
    /// Outstanding `(object, site)` acknowledgements of the current phase:
    /// read responses, prepare votes or commit acks.
    pub(crate) pending: AckSet,
    /// `(object, site, timestamp)` of every response of the read phase,
    /// retries' included, in arrival order (read-repair).
    pub(crate) responses: Vec<(ObjectId, SiteId, Timestamp)>,
    /// Whether this is a reconfiguration-migration transaction.
    pub(crate) is_migration: bool,
}

/// One object of a transaction.
#[derive(Debug)]
pub(crate) struct TxnObject {
    pub(crate) obj: ObjectId,
    /// `Write` for a written object, `Read` for one only read.
    pub(crate) mode: LockMode,
    /// Position in the request: the reads first, then the writes, each in
    /// the order requested.
    pub(crate) pos: usize,
    /// Greatest-timestamp `(ts, value)` read so far.
    pub(crate) best: Option<(Timestamp, Bytes)>,
    /// Read quorum of the object's latest read attempt.
    pub(crate) read_quorum: QuorumSet,
    /// Value to write (empty for a read).
    pub(crate) value: Bytes,
    /// Write timestamp, stamped once the read phase is over.
    pub(crate) write_ts: Timestamp,
    /// Write quorum of the current prepare attempt.
    pub(crate) write_quorum: QuorumSet,
}

impl TxnObject {
    /// A fresh entry for `obj`; `value` is the value to write, `None` for a
    /// read. [`TxnState::number_requests`] sets its request position.
    pub(crate) fn new(obj: ObjectId, value: Option<Bytes>) -> Self {
        TxnObject {
            obj,
            mode: if value.is_some() {
                LockMode::Write
            } else {
                LockMode::Read
            },
            pos: 0,
            best: None,
            read_quorum: QuorumSet::new(),
            value: value.unwrap_or_default(),
            write_ts: Timestamp::ZERO,
            write_quorum: QuorumSet::new(),
        }
    }

    pub(crate) fn is_write(&self) -> bool {
        self.mode == LockMode::Write
    }
}

impl TxnState {
    /// A fresh transaction record in the lock-wait phase, with no entries
    /// yet: push them in the order requested, then number them
    /// ([`TxnState::number_requests`]), sort them by object and index the
    /// request order ([`TxnState::index_request_order`]).
    pub(crate) fn new(client: ClientId, started: SimTime, is_migration: bool) -> Self {
        TxnState {
            client,
            phase: Phase::LockWait,
            started,
            phase_counter: 0,
            attempts: 0,
            objects: Vec::new(),
            order: Vec::new(),
            locks_held: 0,
            pending: AckSet::default(),
            responses: Vec::new(),
            is_migration,
        }
    }

    /// Readies a finished record for a new transaction: every field as
    /// [`TxnState::new`] sets it, the buffers emptied but keeping their
    /// capacity.
    pub(crate) fn reuse(&mut self, client: ClientId, started: SimTime, is_migration: bool) {
        let mut objects = std::mem::take(&mut self.objects);
        let mut order = std::mem::take(&mut self.order);
        let mut pending = std::mem::take(&mut self.pending);
        let mut responses = std::mem::take(&mut self.responses);
        objects.clear();
        order.clear();
        pending.clear();
        responses.clear();
        *self = TxnState {
            objects,
            order,
            pending,
            responses,
            ..TxnState::new(client, started, is_migration)
        };
    }

    /// Numbers the entries' request positions once they are all in, in
    /// the order requested: the reads first, then the writes, each in the
    /// order requested.
    pub(crate) fn number_requests(&mut self) {
        let mut read = 0;
        let mut write = self.objects.iter().filter(|e| !e.is_write()).count();
        for e in &mut self.objects {
            let next = if e.is_write() { &mut write } else { &mut read };
            e.pos = *next;
            *next += 1;
        }
    }

    /// Records the request-order permutation of the numbered entries, now
    /// in lock-plan order.
    pub(crate) fn index_request_order(&mut self) {
        debug_assert!(self.objects.windows(2).all(|w| w[0].obj < w[1].obj));
        self.order.clear();
        self.order.resize(self.objects.len(), 0);
        for (i, e) in self.objects.iter().enumerate() {
            self.order[e.pos] = i;
        }
    }

    /// The entries in request order: the reads, then the writes, each in
    /// the order requested.
    pub(crate) fn in_request_order(&self) -> impl Iterator<Item = &TxnObject> {
        self.order.iter().map(|&i| &self.objects[i])
    }

    /// The entry of `obj`, if the transaction touches it.
    pub(crate) fn object_mut(&mut self, obj: ObjectId) -> Option<&mut TxnObject> {
        let i = self.objects.binary_search_by_key(&obj, |e| e.obj).ok()?;
        self.objects.get_mut(i)
    }
}

/// Outstanding acknowledgements of one phase: per object, the set of sites
/// still to answer, objects in the order their quorums were added.
///
/// It replaces a `DetSet<(ObjectId, SiteId)>` filled quorum by quorum in
/// ascending site order, and iterates — and prints `Debug` — exactly as
/// that set did: objects in insertion order, each object's sites
/// ascending. Removal is a bit flip instead of an index rewrite.
#[derive(Default)]
pub(crate) struct AckSet {
    /// Objects with at least one outstanding site (emptied sets are
    /// dropped, so `is_empty` is `entries.is_empty()`).
    entries: Vec<(ObjectId, QuorumSet)>,
}

impl AckSet {
    /// Expects an acknowledgement from every member of `quorum` for `obj`
    /// (an object not already present).
    pub(crate) fn add_quorum(&mut self, obj: ObjectId, quorum: &QuorumSet) {
        debug_assert!(self.entries.iter().all(|&(o, _)| o != obj));
        if !quorum.is_empty() {
            self.entries.push((obj, quorum.clone()));
        }
    }

    /// Expects an acknowledgement from every member of `quorum` for `obj`
    /// in place of the sites it still owes, keeping its place in the
    /// order; `false`, changing nothing, if nothing is owed for `obj`.
    pub(crate) fn replace_quorum(&mut self, obj: ObjectId, quorum: &QuorumSet) -> bool {
        let Some((_, sites)) = self.entries.iter_mut().find(|(o, _)| *o == obj) else {
            return false;
        };
        sites.clone_from(quorum);
        true
    }

    /// Expects an acknowledgement from `site` for `obj`, whether or not it
    /// already gave one.
    pub(crate) fn insert(&mut self, obj: ObjectId, site: SiteId) {
        match self.entries.iter_mut().find(|(o, _)| *o == obj) {
            Some((_, sites)) => sites.insert(site),
            None => self
                .entries
                .push((obj, QuorumSet::from_indices([site.as_u32()]))),
        }
    }

    /// Whether some acknowledgement for `obj` is still outstanding.
    pub(crate) fn owes(&self, obj: ObjectId) -> bool {
        self.entries.iter().any(|(o, _)| *o == obj)
    }

    /// Whether `(obj, site)` is still outstanding.
    pub(crate) fn contains(&self, obj: ObjectId, site: SiteId) -> bool {
        self.entries
            .iter()
            .any(|(o, sites)| *o == obj && sites.contains(site))
    }

    /// Records `site`'s acknowledgement for `obj`; `true` if it was
    /// outstanding.
    pub(crate) fn remove(&mut self, obj: ObjectId, site: SiteId) -> bool {
        let Some(i) = self
            .entries
            .iter()
            .position(|(o, sites)| *o == obj && sites.contains(site))
        else {
            return false;
        };
        self.entries[i].1.remove(site);
        if self.entries[i].1.is_empty() {
            self.entries.remove(i);
        }
        true
    }

    /// Whether nothing is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every outstanding acknowledgement.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Outstanding `(object, site)` pairs: objects in insertion order, each
    /// object's sites ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, SiteId)> + '_ {
        self.entries
            .iter()
            .flat_map(|(obj, sites)| sites.iter().map(move |s| (*obj, s)))
    }

    /// The outstanding sites alone, in [`AckSet::iter`] order.
    pub(crate) fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.iter().map(|(_, s)| s)
    }
}

impl fmt::Debug for AckSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Progress of a live reconfiguration.
#[derive(Debug)]
pub(crate) enum MigrationPhase {
    /// Waiting for in-flight client transactions to drain.
    Draining,
    /// Objects are being migrated (read old structure, write both).
    Migrating,
}

/// An in-progress live reconfiguration of one shard towards `target` — any
/// [`ReplicaControl`] implementation, so a run can migrate between protocol
/// *families* (e.g. ARBITRARY → ROWA), not just between trees. Only the
/// objects hashing to `shard` are migrated; the other shards keep serving
/// once the drain completes.
pub(crate) struct Reconfig {
    pub(crate) target: Box<dyn ReplicaControl>,
    pub(crate) shard: usize,
    pub(crate) phase: MigrationPhase,
}

impl fmt::Debug for Reconfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reconfig")
            .field("target", &self.target.describe())
            .field("shard", &self.shard)
            .field("phase", &self.phase)
            .finish()
    }
}

/// Per-client coordinator bookkeeping.
#[derive(Debug)]
pub(crate) struct ClientState {
    /// SID used in this client's write timestamps (distinct from replicas).
    pub(crate) sid: SiteId,
    pub(crate) suspected: DetSet<SiteId>,
    pub(crate) current_op: Option<OpId>,
}

/// A scripted transaction: explicit reads and writes on distinct objects.
///
/// Submit with [`crate::Simulation::schedule_transaction`]; combine with
/// [`crate::SimConfig::auto_workload`]` = false` for fully scripted runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnRequest {
    /// Objects to read.
    pub reads: Vec<ObjectId>,
    /// Objects to write, with their new values.
    pub writes: Vec<(ObjectId, Bytes)>,
}

impl TxnRequest {
    /// A single-object read.
    pub fn read(obj: ObjectId) -> Self {
        TxnRequest {
            reads: vec![obj],
            writes: Vec::new(),
        }
    }

    /// A single-object write.
    pub fn write(obj: ObjectId, value: Bytes) -> Self {
        TxnRequest {
            reads: Vec::new(),
            writes: vec![(obj, value)],
        }
    }
}

/// Outcome of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Aggregated counters.
    pub metrics: SimMetrics,
    /// Consistency violations (empty for a correct protocol).
    pub violations: usize,
    /// Whether the execution was one-copy consistent.
    pub consistent: bool,
    /// Transactions still in flight when the simulation ended (e.g. blocked
    /// on a crashed quorum member during 2PC phase 2).
    pub ops_incomplete: usize,
    /// Reads verified by the checker.
    pub reads_checked: u64,
    /// Writes recorded by the checker.
    pub writes_recorded: u64,
    /// The recorded operation history (empty unless
    /// [`crate::SimConfig::record_history`] was set).
    pub history: History,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | consistent: {} ({} read checks, {} writes recorded), {} in flight",
            self.metrics,
            self.consistent,
            self.reads_checked,
            self.writes_recorded,
            self.ops_incomplete
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A retry's re-picked quorum replaces what its object still owes, in
    /// the object's place; an object owing nothing is left out.
    #[test]
    fn replace_quorum_replaces_what_an_object_owes_in_place() {
        let mut acks = AckSet::default();
        acks.add_quorum(ObjectId(1), &QuorumSet::from_indices([1, 2]));
        acks.add_quorum(ObjectId(2), &QuorumSet::from_indices([3]));
        assert!(acks.remove(ObjectId(1), SiteId::new(1)));
        assert!(acks.replace_quorum(ObjectId(1), &QuorumSet::from_indices([4, 5])));
        assert!(!acks.replace_quorum(ObjectId(3), &QuorumSet::from_indices([6])));
        let got: Vec<(u32, u32)> = acks.iter().map(|(o, s)| (o.0, s.as_u32())).collect();
        assert_eq!(got, [(1, 4), (1, 5), (2, 3)]);
        assert!(acks.owes(ObjectId(2)) && !acks.owes(ObjectId(3)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `AckSet` against the `DetSet<(ObjectId, SiteId)>` it replaced,
        /// filled the way the coordinator fills both (quorum by quorum,
        /// each quorum's sites ascending) and drained by random acks,
        /// duplicates and out-of-quorum ones included.
        #[test]
        fn ack_set_iterates_and_prints_like_the_det_set_it_replaced(
            quorums in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..12), 1..8),
            acks in proptest::collection::vec((0u32..10, 0u32..40), 0..120),
        ) {
            let mut acks_set = AckSet::default();
            let mut pairs: DetSet<(ObjectId, SiteId)> = DetSet::new();
            // Distinct objects in a scrambled order, like a txn's writes.
            for (i, members) in quorums.iter().enumerate() {
                let obj = ObjectId((i as u32 * 7 + 3) % 10);
                let q = QuorumSet::from_indices(members.iter().copied());
                acks_set.add_quorum(obj, &q);
                for site in q.iter() {
                    pairs.insert((obj, site));
                }
            }
            for &(o, s) in &acks {
                let (obj, site) = (ObjectId(o), SiteId::new(s));
                prop_assert_eq!(acks_set.contains(obj, site), pairs.contains(&(obj, site)));
                prop_assert_eq!(acks_set.remove(obj, site), pairs.remove(&(obj, site)));
                prop_assert_eq!(acks_set.owes(obj), pairs.iter().any(|&(o, _)| o == obj));
                let got: Vec<(ObjectId, SiteId)> = acks_set.iter().collect();
                let want: Vec<(ObjectId, SiteId)> = pairs.iter().copied().collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(format!("{acks_set:?}"), format!("{pairs:?}"));
                prop_assert_eq!(acks_set.is_empty(), pairs.is_empty());
            }
            acks_set.clear();
            prop_assert!(acks_set.is_empty());
            prop_assert_eq!(format!("{acks_set:?}"), "{}");
        }

        /// The indexed request order walks the entries exactly as the scan
        /// it replaced (for each request position, the entry holding it),
        /// and a reused record plans and prints like a fresh one.
        #[test]
        fn planned_request_order_matches_a_position_scan(
            requested in proptest::collection::vec((0u32..64, any::<bool>()), 1..17),
            earlier in proptest::collection::vec((0u32..64, any::<bool>()), 1..17),
        ) {
            let fill = |txn: &mut TxnState, entries: &[(u32, bool)]| {
                let mut seen = DetSet::new();
                for &(obj, write) in entries {
                    if seen.insert(obj) {
                        let value = write.then(|| Bytes::copy_from_slice(&obj.to_be_bytes()));
                        txn.objects.push(TxnObject::new(ObjectId(obj), value));
                    }
                }
                txn.number_requests();
                txn.objects.sort_unstable_by_key(|e| e.obj);
                txn.index_request_order();
            };
            let mut fresh = TxnState::new(ClientId(1), SimTime::ZERO, false);
            fill(&mut fresh, &requested);
            let scanned: Vec<ObjectId> = (0..fresh.objects.len())
                .filter_map(|pos| fresh.objects.iter().find(|e| e.pos == pos))
                .map(|e| e.obj)
                .collect();
            let planned: Vec<ObjectId> = fresh.in_request_order().map(|e| e.obj).collect();
            prop_assert_eq!(&planned, &scanned);
            // The reads come first.
            let mut tail = fresh.in_request_order().skip_while(|e| !e.is_write());
            prop_assert!(tail.all(TxnObject::is_write));

            let mut reused = TxnState::new(ClientId(2), SimTime::from_micros(9), true);
            fill(&mut reused, &earlier);
            reused.phase = Phase::CommitGather;
            reused.attempts = 3;
            reused.pending.add_quorum(ObjectId(1), &QuorumSet::from_indices([1, 2]));
            reused.responses.push((ObjectId(1), SiteId::new(1), Timestamp::ZERO));
            reused.reuse(ClientId(1), SimTime::ZERO, false);
            fill(&mut reused, &requested);
            prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        }
    }
}
