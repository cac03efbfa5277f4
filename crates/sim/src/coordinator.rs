//! The coordinator layer: the transaction state machine.
//!
//! [`Coordinator`] owns everything transactional — the strict-2PL lock
//! manager, the per-transaction phase machines (lock wait → read round →
//! 2PC prepare → 2PC commit), the one-copy consistency checker, the
//! workload generators, and the live-reconfiguration state machine. It is
//! deliberately protocol-agnostic: every quorum decision goes through a
//! `&dyn ReplicaControl`, which is also what makes *cross-protocol*
//! reconfiguration possible (the migration target is an arbitrary boxed
//! protocol, not "another tree").
//!
//! The keyspace is *sharded*: objects hash across the
//! [`ShardMap`]'s independent protocol instances, each object's quorum
//! decisions go to its own shard, and reconfiguration migrates one shard
//! at a time. With one shard this degenerates to the classic
//! single-protocol simulator, draw for draw.
//!
//! Methods take the [`Engine`] and the active [`ShardMap`] as explicit
//! parameters: the three layers are sibling fields of
//! [`crate::Simulation`], so the borrow checker can see they are disjoint.

use crate::checker::ConsistencyChecker;
use crate::config::SimConfig;
use crate::engine::Engine;
use crate::event::Event;
use crate::fault::FaultInjection;
use crate::history::{History, HistoryEvent, HistoryKind};
use crate::locks::LockManager;
use crate::message::{ClientId, Endpoint, Message, ObjectId, OpId, Payload};
use crate::metrics::SiteCounts;
use crate::time::SimTime;
use crate::txn::{
    ClientState, MigrationPhase, Phase, Reconfig, SimReport, TxnObject, TxnRequest, TxnState,
};
use crate::workload::{ArrivalPacer, ObjectSampler};
use arbitree_core::{DetMap, DetSet, Timestamp};
use arbitree_quorum::{shard_index, AliveSet, QuorumSet, ReplicaControl, ShardMap, SiteId};
use bytes::Bytes;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;

/// The boxed protocol the simulation runs — swapped live on migration.
pub(crate) type Proto = Box<dyn ReplicaControl>;

/// Why a transaction was aborted (metrics attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortCause {
    /// `max_attempts` timeouts exhausted.
    Exhausted,
    /// Attempts exhausted on prepare vote-aborts (write-write conflict
    /// with a leaked stage).
    Conflict,
    /// No quorum assemblable even against full membership.
    NoQuorum,
}

/// The coordinator layer: clients, transactions, locks, checker, workload,
/// and reconfiguration.
pub struct Coordinator {
    pub(crate) config: SimConfig,
    locks: LockManager,
    checker: ConsistencyChecker,
    clients: Vec<ClientState>,
    ops: DetMap<OpId, TxnState>,
    next_op: u64,
    queued_reconfigs: VecDeque<(usize, Proto)>,
    reconfig: Option<Reconfig>,
    history: History,
    object_sampler: ObjectSampler,
    pacers: Vec<ArrivalPacer>,
    scripted: DetMap<ClientId, VecDeque<(SimTime, TxnRequest)>>,
    /// Finished transaction records, reused by later transactions with
    /// their buffers' capacity. Never part of the state: not in `Debug`,
    /// not in the fingerprint.
    spare_txns: Vec<TxnState>,
    /// Scratch for a prepare attempt's write quorums (entry index, quorum),
    /// all picked before any is stored.
    picks: Vec<(usize, QuorumSet)>,
    /// Scratch for a prepare retry's previous write quorums (object,
    /// quorum), kept to abort the members a re-pick drops.
    old_quorums: Vec<(ObjectId, QuorumSet)>,
    /// Scratch for the transactions a lock release grants.
    granted: Vec<OpId>,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("clients", &self.clients.len())
            .field("ops_in_flight", &self.ops.len())
            .field("next_op", &self.next_op)
            .field("queued_reconfigs", &self.queued_reconfigs.len())
            .field("reconfig", &self.reconfig)
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Creates the coordinator for `n_sites` replicas under `config`.
    pub(crate) fn new(config: SimConfig, n_sites: usize) -> Self {
        // One extra coordinator (the last index) drives reconfiguration
        // migrations; it never issues workload transactions.
        let clients = (0..=config.clients as u32)
            .map(|c| ClientState {
                sid: SiteId::new(n_sites as u32 + c),
                suspected: DetSet::new(),
                current_op: None,
            })
            .collect();
        Coordinator {
            locks: LockManager::new(),
            checker: ConsistencyChecker::new(),
            clients,
            ops: DetMap::new(),
            next_op: 0,
            queued_reconfigs: VecDeque::new(),
            reconfig: None,
            history: History::new(),
            object_sampler: ObjectSampler::new(config.objects, config.object_distribution),
            pacers: (0..config.clients)
                .map(|_| ArrivalPacer::new(config.arrival_pattern, config.think_time))
                .collect(),
            scripted: DetMap::new(),
            spare_txns: Vec::new(),
            picks: Vec::new(),
            old_quorums: Vec::new(),
            granted: Vec::new(),
            config,
        }
    }

    /// The consistency checker (inspection after a run).
    pub fn checker(&self) -> &ConsistencyChecker {
        &self.checker
    }

    /// Transactions currently in flight.
    pub fn ops_in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Streams the coordinator's behavioural state into `h` (see
    /// [`crate::fingerprint`] for the inclusion rules). `now` is the engine
    /// clock, used only to reduce pending scripted transactions to
    /// due-flags — the single place the clock value feeds behaviour.
    pub(crate) fn fingerprint_into(&self, h: &mut crate::fingerprint::Fnv, now: SimTime) {
        h.debug(&self.clients);
        h.debug(&self.locks);
        h.debug(&self.checker);
        h.debug(&self.pacers);
        h.u64(self.next_op);
        h.u64(self.queued_reconfigs.len() as u64);
        for (shard, _) in &self.queued_reconfigs {
            h.u64(*shard as u64);
        }
        h.debug(&self.reconfig);
        for (op, s) in self.ops.iter() {
            h.debug(op);
            // Every TxnState field except `started`, which only feeds the
            // latency metric and history stamps (observational).
            h.debug(&s.client);
            h.debug(&s.phase);
            h.u64(s.phase_counter);
            h.u64(u64::from(s.attempts));
            h.debug(&s.objects);
            h.u64(s.locks_held as u64);
            h.debug(&s.pending);
            h.debug(&s.responses);
            h.debug(&s.is_migration);
        }
        for (client, queue) in self.scripted.iter() {
            h.debug(client);
            for (at, req) in queue {
                h.debug(&(*at <= now));
                h.debug(req);
            }
        }
    }

    /// Whether an [`Event::OpTimeout`] with this `(op, attempt)` pair is
    /// *permanently* stale: the operation has completed (ids are never
    /// reused) or the phase counter has moved past the armed attempt
    /// (counters only advance). A permanently-stale timeout is a pure
    /// no-op under every future schedule, which is what lets the model
    /// checker treat it as independent of all other events.
    pub(crate) fn timeout_is_stale(&self, op: OpId, attempt: u64) -> bool {
        match self.ops.get(&op) {
            None => true,
            Some(s) => attempt < s.phase_counter,
        }
    }

    /// The reserved migration coordinator's id.
    fn migration_client(&self) -> ClientId {
        ClientId(self.config.clients as u32)
    }

    /// Enqueues a reconfiguration target for `shard` (popped by the next
    /// [`Event::Reconfigure`]).
    pub(crate) fn queue_reconfigure(&mut self, shard: usize, target: Proto) {
        self.queued_reconfigs.push_back((shard, target));
    }

    /// Enqueues a scripted transaction; see
    /// [`crate::Simulation::schedule_transaction`].
    pub(crate) fn schedule_transaction(
        &mut self,
        engine: &mut Engine,
        at: SimTime,
        client: ClientId,
        req: TxnRequest,
    ) {
        assert!(
            (client.0 as usize) < self.config.clients,
            "client id out of range"
        );
        assert!(
            !req.reads.is_empty() || !req.writes.is_empty(),
            "transaction must contain at least one operation"
        );
        let mut seen = DetSet::new();
        for obj in req.reads.iter().chain(req.writes.iter().map(|(o, _)| o)) {
            assert!(
                (obj.0 as usize) < self.config.objects,
                "object {obj} out of range"
            );
            assert!(
                seen.insert(*obj),
                "object {obj} appears twice in the transaction"
            );
        }
        self.scripted
            .entry(client)
            .or_default()
            .push_back((at, req));
        engine.schedule(at, Event::ClientTick(client));
    }

    /// Picks a quorum among believed-alive sites. If none can be assembled,
    /// clears the client's suspicions (failures are transient and detectable
    /// per §2.2 — the client re-probes) and tries once more against the full
    /// membership; genuinely dead sites will be re-suspected at the next
    /// timeout.
    fn pick_with_reprobe(
        client: &mut ClientState,
        engine: &mut Engine,
        protocol: &dyn ReplicaControl,
        write: bool,
    ) -> Option<QuorumSet> {
        let alive = Self::believed_alive(client, engine);
        let pick = |alive, rng: &mut dyn rand::RngCore| {
            if write {
                protocol.pick_write_quorum(alive, rng)
            } else {
                protocol.pick_read_quorum(alive, rng)
            }
        };
        if let Some(q) = pick(alive, &mut engine.rng) {
            return Some(q);
        }
        if client.suspected.is_empty() {
            return None;
        }
        engine.metrics.suspicions_cleared += client.suspected.len() as u64;
        client.suspected.clear();
        // Suspicions reset, but Syncing sites stay excluded: their refusal
        // is advertised state, not a guess to re-test.
        let mut full = AliveSet::full(engine.sites.len());
        for s in engine.syncing_sites().iter() {
            full.remove(s);
        }
        pick(full, &mut engine.rng)
    }

    fn believed_alive(client: &ClientState, engine: &Engine) -> AliveSet {
        let mut alive = AliveSet::full(engine.sites.len());
        for s in &client.suspected {
            alive.remove(*s);
        }
        // Mid-rejoin (`Syncing`) sites advertise their state — quorums route
        // around them instead of timing out against their health gate.
        // (Down sites are *not* excluded here: the failure detector has to
        // discover those the hard way, through suspicion.)
        for s in engine.syncing_sites().iter() {
            alive.remove(s);
        }
        alive
    }

    /// Arms the phase timeout under the configured [`RetryPolicy`]: attempt
    /// `k` of a transaction waits `retry.delay(op_timeout, k, u)` with a
    /// deterministic jitter draw `u` from the run's RNG (no draw under
    /// [`RetryPolicy::Fixed`], keeping fixed-policy runs byte-identical to
    /// the pre-backoff simulator).
    ///
    /// [`RetryPolicy`]: crate::config::RetryPolicy
    /// [`RetryPolicy::Fixed`]: crate::config::RetryPolicy::Fixed
    fn arm_timeout(config: &SimConfig, engine: &mut Engine, op: OpId, state: &mut TxnState) {
        let u = if config.retry.uses_jitter() {
            engine.rng.gen::<f64>()
        } else {
            0.0
        };
        state.phase_counter += 1;
        let delay = config.retry.delay(config.op_timeout, state.attempts, u);
        engine.arm_timeout(state.client, op, state.phase_counter, delay);
    }

    /// Handles a client's wake-up tick: issue the next transaction if idle.
    pub(crate) fn handle_client_tick(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
    ) {
        if (client.0 as usize) < self.config.clients
            && self.clients[client.0 as usize].current_op.is_none()
        {
            self.issue_op(engine, shards, client);
        }
    }

    /// Issues a fresh transaction for `client` (assumes it is idle):
    /// scripted requests first, then — if enabled — the random workload.
    fn issue_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        if self.reconfig.is_some() {
            return;
        }
        let due = self
            .scripted
            .get(&client)
            .and_then(|q| q.front())
            .is_some_and(|(at, _)| *at <= engine.now);
        if due {
            let Some((_, req)) = self.scripted.get_mut(&client).and_then(VecDeque::pop_front)
            else {
                return; // unreachable: `due` just observed a front element
            };
            self.insert_txn(engine, shards, client, req);
            return;
        }
        if engine.now >= engine.end || !self.config.auto_workload {
            return;
        }
        let id_hint = self.next_op;

        // Sample 1..=max distinct objects, each op independently read/write.
        // The entries go straight into the (recycled) record in the order
        // sampled; `number_requests` then puts the reads before the writes.
        let max_ops = self.config.max_txn_ops.min(self.config.objects);
        let op_count = if max_ops == 1 {
            1
        } else {
            engine.rng.gen_range(1..=max_ops)
        };
        let mut txn = self.new_txn(client, engine.now, false);
        let mut tries = 0;
        while txn.objects.len() < op_count && tries < 16 * op_count {
            let obj = ObjectId(self.object_sampler.sample(&mut engine.rng));
            if txn.objects.iter().all(|e| e.obj != obj) {
                txn.objects.push(TxnObject::new(obj, None));
            }
            tries += 1;
        }
        for e in &mut txn.objects {
            if engine.rng.gen::<f64>() >= self.config.read_fraction {
                let mut value = [0; 12];
                value[..8].copy_from_slice(&id_hint.to_be_bytes());
                value[8..].copy_from_slice(&e.obj.0.to_be_bytes());
                *e = TxnObject::new(e.obj, Some(Bytes::copy_from_slice(&value)));
            }
        }
        let id = self.register_txn(txn);
        self.advance_locks(engine, shards, id);
    }

    /// A record for a new transaction of `client`: a recycled one if any
    /// is spare.
    fn new_txn(&mut self, client: ClientId, started: SimTime, is_migration: bool) -> TxnState {
        match self.spare_txns.pop() {
            Some(mut txn) => {
                txn.reuse(client, started, is_migration);
                txn
            }
            None => TxnState::new(client, started, is_migration),
        }
    }

    /// Registers a scripted transaction's state and starts its lock
    /// acquisition.
    fn insert_txn(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        req: TxnRequest,
    ) {
        let mut txn = self.new_txn(client, engine.now, false);
        let reads = req.reads.into_iter().map(|obj| TxnObject::new(obj, None));
        let writes = req
            .writes
            .into_iter()
            .map(|(obj, v)| TxnObject::new(obj, Some(v)));
        txn.objects.extend(reads.chain(writes));
        let id = self.register_txn(txn);
        self.advance_locks(engine, shards, id);
    }

    /// Plans `txn` (entries in request order) and makes it its client's
    /// transaction in flight under a fresh id.
    fn register_txn(&mut self, mut txn: TxnState) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        txn.number_requests();
        // Lock plan: ascending object order (deadlock freedom). The
        // objects are distinct, so an unstable sort orders them the same.
        txn.objects.sort_unstable_by_key(|e| e.obj);
        txn.index_request_order();
        self.clients[txn.client.0 as usize].current_op = Some(id);
        self.ops.insert(id, txn);
        id
    }

    /// Acquires the next planned lock(s); when all are held, starts the
    /// read round.
    fn advance_locks(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let Some(s) = self.ops.get_mut(&op) else {
            return;
        };
        while let Some(e) = s.objects.get(s.locks_held) {
            if !self.locks.acquire(op, e.obj, e.mode) {
                return; // queued; resumed by a later release
            }
            s.locks_held += 1;
        }
        self.start_read_round(engine, shards, op);
    }

    /// Called when the lock manager grants a queued request of `op`.
    fn on_lock_granted(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        if let Some(state) = self.ops.get_mut(&op) {
            state.locks_held += 1;
            self.advance_locks(engine, shards, op);
        }
    }

    /// Releases `op`'s lock — held or queued — on each of `objs`, then
    /// resumes the transactions granted a lock as a result.
    fn release_locks(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        op: OpId,
        objs: impl IntoIterator<Item = ObjectId>,
    ) {
        // Scratch taken for the call: resuming a granted transaction can
        // end it and release its locks in turn.
        let mut granted = std::mem::take(&mut self.granted);
        for obj in objs {
            self.locks.release_into(op, obj, &mut granted);
        }
        for &waiter in &granted {
            self.on_lock_granted(engine, shards, waiter);
        }
        granted.clear();
        self.granted = granted;
    }

    /// Starts the read phase: every object's read quorum, each picked from
    /// its object's own shard in object order, gets its `ReadReq`s in this
    /// one event (with [`SimConfig::batching`] on, requests sharing a
    /// destination site coalesce into one envelope). A retry — the
    /// transaction is already gathering — re-picks and re-sends only the
    /// objects still owed a response; every best value and response
    /// gathered so far stays.
    fn start_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let Some(s) = self.ops.get_mut(&op) else {
            return;
        };
        let retry = s.phase == Phase::ReadGather;
        let client = &mut self.clients[s.client.0 as usize];
        let pending = &s.pending;
        let picked = s
            .objects
            .iter_mut()
            .filter(|e| !retry || pending.owes(e.obj))
            .all(|e| {
                let protocol = shards.for_key(u64::from(e.obj.0));
                match Self::pick_with_reprobe(client, engine, protocol, false) {
                    Some(q) => {
                        e.read_quorum = q;
                        true
                    }
                    None => false,
                }
            });
        if !picked {
            self.fail_op(engine, shards, op, AbortCause::NoQuorum);
            return;
        }
        if !retry {
            s.phase = Phase::ReadGather;
            s.pending.clear();
            s.responses.clear();
        }
        for e in &s.objects {
            if !retry {
                s.pending.add_quorum(e.obj, &e.read_quorum);
            } else if !s.pending.replace_quorum(e.obj, &e.read_quorum) {
                continue; // answered
            }
            engine.send_to_sites(
                s.client,
                &e.read_quorum,
                Payload::ReadReq { op, obj: e.obj },
            );
        }
        Self::arm_timeout(&self.config, engine, op, s);
    }

    /// The read phase finished: repair its stale responders, then stamp the
    /// writes and enter the prepare phase, or complete a read-only
    /// transaction.
    fn finish_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let Some(s) = self.ops.get_mut(&op) else {
            return;
        };
        // Read-repair: the best value is committed (locks block writers), so
        // refreshing stale members is safe even if the txn later aborts.
        if self.config.read_repair {
            for e in &s.objects {
                let Some((ts, value)) = &e.best else {
                    continue;
                };
                let stale = QuorumSet::from_sites(
                    s.responses
                        .iter()
                        .filter(|&&(obj, _, seen)| obj == e.obj && seen < *ts)
                        .map(|&(_, site, _)| site),
                );
                if !stale.is_empty() {
                    engine.metrics.repairs_sent += stale.len() as u64;
                    let repair = Payload::Repair {
                        op,
                        obj: e.obj,
                        value: value.clone(),
                        ts: *ts,
                    };
                    engine.send_to_sites(s.client, &stale, repair);
                }
            }
        }
        if s.objects.iter().any(TxnObject::is_write) {
            // Each write goes one version past the greatest one its read
            // found. Mutation hook: SkipVersionBump reuses that timestamp
            // verbatim, so committed versions stop advancing.
            let sid = self.clients[s.client.0 as usize].sid;
            let skip_bump = matches!(self.config.fault, Some(FaultInjection::SkipVersionBump));
            for e in s.objects.iter_mut().filter(|e| e.is_write()) {
                let base = e.best.as_ref().map_or(Timestamp::ZERO, |(ts, _)| *ts);
                e.write_ts = if skip_bump { base } else { base.next(sid) };
            }
            self.start_prepare_phase(engine, shards, op);
        } else {
            self.complete_op(engine, shards, op);
        }
    }

    /// Starts (or restarts) the 2PC prepare phase across every written
    /// object's write quorum (picked from the object's own shard, in
    /// request order).
    fn start_prepare_phase(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let Some(s) = self.ops.get_mut(&op) else {
            return;
        };
        let client = &mut self.clients[s.client.0 as usize];
        let reconfig = &self.reconfig;
        let mut pick = |e: &TxnObject| {
            let protocol = shards.for_key(u64::from(e.obj.0));
            if s.is_migration {
                // Migration writes go to the union of an old-structure and
                // a new-structure write quorum so the value is visible
                // whichever structure serves later reads.
                let old_q = Self::pick_with_reprobe(client, engine, protocol, true)?;
                let alive = Self::believed_alive(client, engine);
                let new_q = reconfig
                    .as_ref()?
                    .target
                    .pick_write_quorum(alive, &mut engine.rng)?;
                Some(QuorumSet::from_sites(old_q.iter().chain(new_q.iter())))
            } else {
                Self::pick_with_reprobe(client, engine, protocol, true)
            }
        };
        // Pick every quorum, in request order, before storing any: a failed
        // pick aborts the previous attempt's quorums.
        let picks = &mut self.picks;
        picks.clear();
        let picked = s.order.iter().all(|&i| {
            let e = &s.objects[i];
            if !e.is_write() {
                return true;
            }
            match pick(e) {
                Some(q) => {
                    picks.push((i, q));
                    true
                }
                None => false,
            }
        });
        if !picked {
            self.fail_op(engine, shards, op, AbortCause::NoQuorum);
            return;
        }
        for (i, q) in picks.drain(..) {
            s.objects[i].write_quorum = q;
        }
        Self::send_writes(engine, op, s, Phase::PrepareGather);
        Self::arm_timeout(&self.config, engine, op, s);
    }

    /// Sends `phase`'s message — `Prepare` or `Commit` — to every written
    /// object's write quorum, in request order, and expects an acknowledgement
    /// from each member.
    fn send_writes(engine: &mut Engine, op: OpId, state: &mut TxnState, phase: Phase) {
        state.phase = phase;
        state.pending.clear();
        // Field by field, not `in_request_order()`: `pending` is written.
        let in_request_order = state.order.iter().map(|&i| &state.objects[i]);
        for e in in_request_order.filter(|e| e.is_write()) {
            state.pending.add_quorum(e.obj, &e.write_quorum);
            let (obj, value, ts) = (e.obj, e.value.clone(), e.write_ts);
            let payload = if state.phase == Phase::CommitGather {
                Payload::Commit { op, obj, value, ts }
            } else {
                Payload::Prepare { op, obj, value, ts }
            };
            engine.send_to_sites(state.client, &e.write_quorum, payload);
        }
    }

    /// Crossing the commit point: send `Commit` to every participant.
    fn start_commit_phase(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        // Mutation hook: EarlyLockRelease frees every lock at the commit
        // *point* instead of after the acknowledgements, admitting readers
        // while the commits are still in flight.
        if matches!(self.config.fault, Some(FaultInjection::EarlyLockRelease)) {
            // Every lock is held by now, except by a migration, which takes none.
            let held: Vec<ObjectId> = self
                .ops
                .get(&op)
                .map(|s| s.objects[..s.locks_held].iter().map(|e| e.obj).collect())
                .unwrap_or_default();
            self.release_locks(engine, shards, op, held);
        }
        let Some(s) = self.ops.get_mut(&op) else {
            return;
        };
        Self::send_writes(engine, op, s, Phase::CommitGather);
        Self::arm_timeout(&self.config, engine, op, s);
    }

    /// The transaction gives up: abort staged writes, release locks, count
    /// the failure (attributed to `cause`), let the client move on.
    fn fail_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId, cause: AbortCause) {
        let Some(state) = self.ops.remove(&op) else {
            return;
        };
        // Staged-but-uncommitted writes must be cleaned up.
        if state.phase == Phase::PrepareGather {
            for e in state.in_request_order().filter(|e| e.is_write()) {
                let abort = Payload::Abort { op, obj: e.obj };
                engine.send_to_sites(state.client, &e.write_quorum, abort);
            }
        }
        if state.is_migration {
            // Abandon the reconfiguration without swapping: everything
            // written so far went to old∪new quorums, so the old structure
            // remains fully consistent.
            engine.metrics.aborts_reconfig += 1;
            self.clients[state.client.0 as usize].current_op = None;
            self.spare_txns.push(state);
            self.reconfig = None;
            self.resume_clients(engine);
            return;
        }
        match cause {
            AbortCause::Exhausted => engine.metrics.aborts_exhausted += 1,
            AbortCause::Conflict => engine.metrics.aborts_conflict += 1,
            AbortCause::NoQuorum => engine.metrics.aborts_no_quorum += 1,
        }
        let writes = state.objects.iter().filter(|e| e.is_write()).count() as u64;
        engine.metrics.reads_failed += state.objects.len() as u64 - writes;
        engine.metrics.writes_failed += writes;
        engine.metrics.txns_failed += 1;
        // Mutation hook: KeepLocksOnAbort leaks the aborted transaction's
        // strict-2PL locks forever.
        let release = !matches!(self.config.fault, Some(FaultInjection::KeepLocksOnAbort));
        self.finish_client_txn(engine, shards, state, op, release);
    }

    /// Completes a transaction successfully: reads then writes, in request
    /// order, go to the checker, the metrics and the history.
    fn complete_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let Some(state) = self.ops.remove(&op) else {
            return;
        };
        if state.is_migration {
            self.clients[state.client.0 as usize].current_op = None;
            self.complete_migration_op(engine, shards, op, state);
            return;
        }
        let latency = engine.now - state.started;
        engine.metrics.record_latency(latency);
        let unwritten = (Timestamp::ZERO, Bytes::new());
        for e in state.in_request_order() {
            let (kind, ts) = if e.is_write() {
                self.checker
                    .record_write(op, e.obj, e.value.clone(), e.write_ts);
                engine.metrics.writes_ok += 1;
                Self::count_hits(&mut engine.metrics.write_quorum_hits, &e.write_quorum);
                Self::count_hits(&mut engine.metrics.version_quorum_hits, &e.read_quorum);
                (HistoryKind::Write, e.write_ts)
            } else {
                let (ts, value) = e.best.as_ref().unwrap_or(&unwritten);
                self.checker.check_read(op, e.obj, value, *ts);
                engine.metrics.reads_ok += 1;
                Self::count_hits(&mut engine.metrics.read_quorum_hits, &e.read_quorum);
                (HistoryKind::Read, *ts)
            };
            if self.config.record_history {
                self.history.record(HistoryEvent {
                    op,
                    kind,
                    obj: e.obj,
                    invoked: state.started,
                    responded: engine.now,
                    ts,
                });
            }
        }
        engine.metrics.txns_ok += 1;
        self.finish_client_txn(engine, shards, state, op, true);
    }

    /// Counts one hit per member of `quorum`.
    fn count_hits(hits: &mut SiteCounts, quorum: &QuorumSet) {
        for s in quorum.iter() {
            hits.increment(s.as_u32());
        }
    }

    /// The first object at or after `from` that hashes to `shard` under
    /// `shard_count` shards — the migration scan order. With one shard
    /// every object matches, reproducing the classic 0,1,2,… sweep.
    fn next_object_in_shard(
        &self,
        from: u32,
        shard: usize,
        shard_count: usize,
    ) -> Option<ObjectId> {
        (from..self.config.objects as u32)
            .find(|&o| shard_index(u64::from(o), shard_count) == shard)
            .map(ObjectId)
    }

    /// Completes a shard migration: swap in the target protocol and wake
    /// the workload clients back up.
    fn swap_migrated_shard(&mut self, engine: &mut Engine, shards: &mut ShardMap) {
        // arbitree-lint: allow(D005) — callers only swap while a reconfiguration is active
        let rc = self.reconfig.take().expect("migration in progress");
        let _retired = shards.set(rc.shard, rc.target);
        engine.metrics.reconfigurations += 1;
        self.resume_clients(engine);
    }

    /// Advances the migration state machine after one of its transactions
    /// completes.
    fn complete_migration_op(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        op: OpId,
        mut state: TxnState,
    ) {
        let started = state.started;
        // A migration transaction has exactly one entry.
        let entry = state.objects.pop();
        self.spare_txns.push(state);
        let Some(e) = entry else {
            return;
        };
        if !e.is_write() {
            // Migration read finished: rewrite the value under a fresh
            // timestamp to old∪new write quorums.
            let (ts, value) = e.best.unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
            self.checker.check_read(op, e.obj, &value, ts);
            let sid = self.clients[self.migration_client().0 as usize].sid;
            self.issue_migration_write(engine, shards, e.obj, value, ts.next(sid));
        } else {
            if self.config.record_history {
                self.history.record(HistoryEvent {
                    op,
                    kind: HistoryKind::Write,
                    obj: e.obj,
                    invoked: started,
                    responded: engine.now,
                    ts: e.write_ts,
                });
            }
            self.checker.record_write(op, e.obj, e.value, e.write_ts);
            engine.metrics.migration_writes += 1;
            let shard = self.reconfig.as_ref().map_or(0, |rc| rc.shard);
            match self.next_object_in_shard(e.obj.0 + 1, shard, shards.shard_count()) {
                Some(next_obj) => self.issue_migration_read(engine, shards, next_obj),
                // Every object of the shard migrated: swap and resume.
                None => self.swap_migrated_shard(engine, shards),
            }
        }
    }

    /// Registers a one-object migration transaction (it takes no locks).
    fn insert_migration_txn(&mut self, engine: &Engine, entry: TxnObject) -> OpId {
        let mut txn = self.new_txn(self.migration_client(), engine.now, true);
        txn.objects.push(entry);
        self.register_txn(txn)
    }

    fn issue_migration_read(&mut self, engine: &mut Engine, shards: &mut ShardMap, obj: ObjectId) {
        let id = self.insert_migration_txn(engine, TxnObject::new(obj, None));
        self.start_read_round(engine, shards, id);
    }

    fn issue_migration_write(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        obj: ObjectId,
        value: Bytes,
        ts: Timestamp,
    ) {
        let mut entry = TxnObject::new(obj, Some(value));
        entry.write_ts = ts;
        let id = self.insert_migration_txn(engine, entry);
        self.start_prepare_phase(engine, shards, id);
    }

    /// Begins the migration once every in-flight client transaction drained.
    fn try_advance_reconfig(&mut self, engine: &mut Engine, shards: &mut ShardMap) {
        let draining = matches!(
            self.reconfig,
            Some(Reconfig {
                phase: MigrationPhase::Draining,
                ..
            })
        );
        if draining && self.ops.is_empty() {
            let shard = self.reconfig.as_ref().map_or(0, |rc| rc.shard);
            if let Some(rc) = self.reconfig.as_mut() {
                rc.phase = MigrationPhase::Migrating;
            }
            match self.next_object_in_shard(0, shard, shards.shard_count()) {
                Some(obj) => self.issue_migration_read(engine, shards, obj),
                // No object hashes to this shard: nothing to migrate.
                None => self.swap_migrated_shard(engine, shards),
            }
        }
    }

    /// Restarts workload clients after a reconfiguration ends (success or
    /// abandonment).
    fn resume_clients(&mut self, engine: &mut Engine) {
        for c in 0..self.config.clients as u32 {
            let offset = crate::time::SimDuration::from_micros(u64::from(c) * 37);
            engine.schedule(
                engine.now + self.config.think_time + offset,
                Event::ClientTick(ClientId(c)),
            );
        }
    }

    /// Releases every lock the transaction held or queued for (unless
    /// `release_locks` is off — the `KeepLocksOnAbort` mutation), resumes
    /// granted waiters, schedules the client's next think-time tick. The
    /// record goes to the spare list.
    fn finish_client_txn(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        state: TxnState,
        op: OpId,
        release_locks: bool,
    ) {
        let client = state.client;
        self.clients[client.0 as usize].current_op = None;
        if release_locks {
            self.release_locks(engine, shards, op, state.objects.iter().map(|e| e.obj));
        }
        self.spare_txns.push(state);
        let jitter: f64 = engine.rng.gen();
        let delay = self.pacers[client.0 as usize].next_delay(jitter);
        engine.schedule(engine.now + delay, Event::ClientTick(client));
        // A pending reconfiguration may now be able to start.
        self.try_advance_reconfig(engine, shards);
    }

    /// Handles a client-bound message from a site.
    pub(crate) fn on_client_message(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        msg: Message,
    ) {
        // A coalesced reply envelope: handle each inner payload in order
        // (batches are never nested, so this recurses at most once), then
        // hand the emptied envelope back to the engine's pool.
        if let Payload::Batch(mut inner) = msg.payload {
            for payload in inner.drain(..) {
                let m = Message {
                    from: msg.from,
                    to: msg.to,
                    payload,
                    sent_at: msg.sent_at,
                };
                self.on_client_message(engine, shards, client, m);
            }
            engine.recycle_envelope(inner);
            return;
        }
        let Endpoint::Site(from) = msg.from else {
            return; // clients never message each other
        };
        // A response proves the site is alive again.
        if self.clients[client.0 as usize].suspected.remove(&from) {
            engine.metrics.suspicions_cleared += 1;
        }

        let op_id = msg.payload.op();
        let Some(state) = self.ops.get_mut(&op_id) else {
            return; // stale response for a finished txn
        };
        if state.client != client {
            return;
        }
        match (&msg.payload, &state.phase) {
            (Payload::ReadResp { obj, value, ts, .. }, Phase::ReadGather) => {
                // Acks are keyed by each object's current quorum, so a late
                // response from a member a retry dropped misses like a
                // duplicate does.
                if !state.pending.remove(*obj, from) {
                    return; // answered object, duplicate, or out-of-quorum
                }
                state.responses.push((*obj, from, *ts));
                if let Some(e) = state.object_mut(*obj) {
                    if e.best.as_ref().is_none_or(|(best, _)| ts > best) {
                        e.best = Some((*ts, value.clone()));
                    }
                }
                if state.pending.is_empty() {
                    self.finish_read_round(engine, shards, op_id);
                }
            }
            (Payload::PrepareAck { obj, ok, ts, .. }, Phase::PrepareGather) => {
                if !state.pending.contains(*obj, from) {
                    return; // duplicate or out-of-quorum
                }
                let Some(e) = state.object_mut(*obj).filter(|e| e.write_ts == *ts) else {
                    return; // vote for an earlier attempt's timestamp
                };
                if !*ok {
                    // Vote-abort: a leaked stage from a failed writer holds
                    // an equal-or-higher timestamp for this object. Bump the
                    // version past it and retry so the object cannot
                    // livelock.
                    e.write_ts = Timestamp::new(ts.version() + 1, ts.sid());
                    state.attempts += 1;
                    if state.attempts >= self.config.max_attempts {
                        self.fail_op(engine, shards, op_id, AbortCause::Conflict);
                    } else {
                        engine.metrics.retries_prepare += 1;
                        self.start_prepare_phase(engine, shards, op_id);
                    }
                    return;
                }
                state.pending.remove(*obj, from);
                if state.pending.is_empty() {
                    self.start_commit_phase(engine, shards, op_id);
                }
            }
            (Payload::CommitAck { obj, .. }, Phase::CommitGather) => {
                let acked = state.pending.remove(*obj, from);
                // Mutation hook: StaleCommitAck declares victory on the first
                // acknowledgement instead of waiting for the full quorum.
                let premature = matches!(self.config.fault, Some(FaultInjection::StaleCommitAck));
                if acked && (state.pending.is_empty() || premature) {
                    self.complete_op(engine, shards, op_id);
                }
            }
            _ => {} // stale message from an earlier phase
        }
    }

    /// Handles a phase timeout.
    pub(crate) fn on_timeout(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        op: OpId,
        attempt: u64,
    ) {
        let Some(state) = self.ops.get_mut(&op) else {
            return;
        };
        if state.phase_counter != attempt || state.client != client {
            return; // stale timeout
        }
        engine.metrics.timeouts_fired += 1;
        // Suspect every member that stayed silent.
        let suspected = &mut self.clients[client.0 as usize].suspected;
        for s in state.pending.sites() {
            if suspected.insert(s) {
                engine.metrics.suspicions_raised += 1;
            }
        }
        match state.phase {
            Phase::LockWait => {}
            Phase::ReadGather => {
                state.attempts += 1;
                if state.attempts >= self.config.max_attempts {
                    self.fail_op(engine, shards, op, AbortCause::Exhausted);
                } else {
                    engine.metrics.retries_read += 1;
                    self.start_read_round(engine, shards, op);
                }
            }
            Phase::PrepareGather => {
                state.attempts += 1;
                if state.attempts >= self.config.max_attempts {
                    self.fail_op(engine, shards, op, AbortCause::Exhausted);
                    return;
                }
                engine.metrics.retries_prepare += 1;
                let mut old_quorums = std::mem::take(&mut self.old_quorums);
                old_quorums.extend(
                    state
                        .in_request_order()
                        .filter(|e| e.is_write())
                        .map(|e| (e.obj, e.write_quorum.clone())),
                );
                // Retry with freshly picked write quorums. Stages on
                // members of BOTH the old and new quorum are reused (same
                // op, same ts), so we must not race an Abort against the
                // re-Prepare; only members dropped from a quorum get an
                // Abort for that object.
                self.start_prepare_phase(engine, shards, op);
                if let Some(state) = self.ops.get_mut(&op) {
                    for &(obj, ref old_q) in &old_quorums {
                        let new_q = state.object_mut(obj).map(|e| &e.write_quorum);
                        for s in old_q.iter() {
                            if new_q.is_none_or(|nq| !nq.contains(s)) {
                                engine.send_to_site(client, s, Payload::Abort { op, obj });
                            }
                        }
                    }
                }
                old_quorums.clear();
                self.old_quorums = old_quorums;
            }
            Phase::CommitGather => {
                // Past the commit point: 2PC phase 2 never gives up. The
                // attempt counter keeps climbing so the backoff policy
                // stretches the re-send interval, but it never aborts.
                state.attempts = state.attempts.saturating_add(1);
                engine.metrics.retries_commit += 1;
                // Re-send carries the decided value and timestamp: the
                // participant may have lost its stage to an amnesia crash
                // since the prepare, and the commit must still apply.
                for (obj, site) in state.pending.iter() {
                    let Some(e) = state.objects.iter().find(|e| e.obj == obj) else {
                        continue;
                    };
                    let commit = Payload::Commit {
                        op,
                        obj,
                        value: e.value.clone(),
                        ts: e.write_ts,
                    };
                    engine.send_to_site(client, site, commit);
                }
                Self::arm_timeout(&self.config, engine, op, state);
            }
        }
    }

    /// A site recovered into `Syncing`: its storage was wiped, so commit
    /// acknowledgements it gave before the wipe no longer vouch for the
    /// value. Every transaction still gathering commit acks expects one
    /// from it again for each written object whose write quorum holds it;
    /// the re-sent `Commit` carries the decided value and lands once the
    /// site serves, and until then the transaction keeps its locks, so no
    /// reader meets the gap. Counting the old ack would let the write
    /// complete while the rejoin's sources held only its stage, leaving a
    /// serving member of its write quorum without it. Mutation hook:
    /// `ForgetWipedAcks` skips this.
    pub(crate) fn on_syncing(&mut self, site: SiteId) {
        if matches!(self.config.fault, Some(FaultInjection::ForgetWipedAcks)) {
            return;
        }
        for state in self.ops.values_mut() {
            if state.phase != Phase::CommitGather {
                continue;
            }
            for e in &state.objects {
                if e.is_write() && e.write_quorum.contains(site) {
                    state.pending.insert(e.obj, site);
                }
            }
        }
    }

    /// The target of the live reconfiguration in progress, if any: while
    /// one runs, migration writes go to the union of an old and a target
    /// write quorum.
    pub fn migration_target(&self) -> Option<&dyn ReplicaControl> {
        self.reconfig.as_ref().map(|rc| &*rc.target)
    }

    /// Handles a [`Event::Reconfigure`]: pop the next queued target and
    /// start draining towards it.
    pub(crate) fn on_reconfigure_event(&mut self, engine: &mut Engine, shards: &mut ShardMap) {
        if self.reconfig.is_some() {
            // A reconfiguration is already in flight; retry shortly.
            engine.schedule(engine.now + self.config.op_timeout, Event::Reconfigure);
            return;
        }
        let Some((shard, target)) = self.queued_reconfigs.pop_front() else {
            return;
        };
        assert!(shard < shards.shard_count(), "reconfiguration shard index");
        assert!(
            target.universe().len() == engine.sites.len(),
            "reconfiguration must keep the replica set"
        );
        self.reconfig = Some(Reconfig {
            target,
            shard,
            phase: MigrationPhase::Draining,
        });
        self.try_advance_reconfig(engine, shards);
    }

    /// Snapshot of the run's outcome.
    pub(crate) fn report(&self, engine: &Engine) -> SimReport {
        SimReport {
            metrics: engine.metrics.clone(),
            violations: self.checker.violations().len(),
            consistent: self.checker.is_consistent(),
            ops_incomplete: self.ops.len(),
            reads_checked: self.checker.reads_checked(),
            writes_recorded: self.checker.writes_recorded(),
            history: self.history.clone(),
        }
    }
}
