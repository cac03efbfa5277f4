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
//! A client is closed loop: it runs at most one transaction at a time. So
//! each client's slot ([`ClientState`], indexed by [`ClientId`]) is the
//! one record of everything the coordinator keeps for it — suspicions,
//! the id and record of its transaction in flight, its pending scripted
//! transactions. Replies and timeouts find their transaction through the
//! client they are addressed to, and a stale one, for the client's
//! earlier transaction, is dropped by comparing op ids. The lock manager
//! names transactions by op id, so a lock grant finds its client by
//! scanning the slots.
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
use crate::time::{SimDuration, SimTime};
use crate::txn::{
    ClientState, MigrationPhase, Phase, Reconfig, RttEstimator, SimReport, TxnObject, TxnRequest,
    TxnState,
};
use crate::workload::ObjectSampler;
use arbitree_core::{DetSet, Timestamp};
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
    /// One slot per client, indexed by [`ClientId`]: the workload clients,
    /// then the migration coordinator. Each holds the client's transaction.
    pub(crate) clients: Vec<ClientState>,
    next_op: u64,
    queued_reconfigs: VecDeque<(usize, Proto)>,
    reconfig: Option<Reconfig>,
    history: History,
    object_sampler: ObjectSampler,
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
            .field("ops_in_flight", &self.ops_in_flight())
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
            .map(|c| ClientState::new(SiteId::new(n_sites as u32 + c)))
            .collect();
        Coordinator {
            locks: LockManager::new(),
            checker: ConsistencyChecker::new(),
            clients,
            next_op: 0,
            queued_reconfigs: VecDeque::new(),
            reconfig: None,
            history: History::new(),
            object_sampler: ObjectSampler::new(config.objects, config.object_distribution),
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
        self.clients.iter().filter(|c| c.op.is_some()).count()
    }

    /// Streams the coordinator's behavioural state into `h` (see
    /// [`crate::fingerprint`] for the inclusion rules). `now` is the engine
    /// clock, used only to reduce pending scripted transactions to
    /// due-flags — the single place the clock value feeds behaviour.
    pub(crate) fn fingerprint_into(&self, h: &mut crate::fingerprint::Fnv, now: SimTime) {
        for c in &self.clients {
            h.debug(&(c.sid, &c.suspected, c.op));
            // An idle client's record is leftovers; of an in-flight one,
            // every field except `started` and the phase stamps, which feed
            // only the latency metrics, history stamps and timer times
            // (like the client's `rtt`, left out too).
            if let (Some(_), Some(s)) = (c.op, &c.txn) {
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
            h.u64(c.scripted.len() as u64);
            for (at, req) in &c.scripted {
                h.debug(&(*at <= now));
                h.debug(req);
            }
        }
        h.debug(&self.locks);
        h.debug(&self.checker);
        h.u64(self.next_op);
        h.u64(self.queued_reconfigs.len() as u64);
        for (shard, _) in &self.queued_reconfigs {
            h.u64(*shard as u64);
        }
        h.debug(&self.reconfig);
    }

    /// Whether an [`Event::OpTimeout`] of `client` with this `(op,
    /// attempt)` pair is *permanently* stale: the operation is no longer
    /// the client's transaction in flight (ids are never reused) or the
    /// phase counter has moved past the armed attempt (counters only
    /// advance). A permanently-stale timeout is a pure no-op under every
    /// future schedule, which is what lets the model checker treat it as
    /// independent of all other events.
    pub(crate) fn timeout_is_stale(&self, client: ClientId, op: OpId, attempt: u64) -> bool {
        let Some(c) = self.clients.get(client.0 as usize) else {
            return true;
        };
        c.op != Some(op) || c.txn.as_ref().is_none_or(|s| attempt < s.phase_counter)
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
        self.clients[client.0 as usize]
            .scripted
            .push_back((at, req));
        engine.schedule(at, Event::ClientTick(client));
    }

    /// Picks a quorum among believed-alive sites. If none can be assembled,
    /// clears the client's suspicions (failures are transient and detectable
    /// per §2.2 — the client re-probes) and tries once more against the full
    /// membership; genuinely dead sites will be re-suspected at the next
    /// timeout.
    fn pick_with_reprobe(
        suspected: &mut DetSet<SiteId>,
        engine: &mut Engine,
        protocol: &dyn ReplicaControl,
        write: bool,
    ) -> Option<QuorumSet> {
        let alive = Self::believed_alive(suspected, engine);
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
        if suspected.is_empty() {
            return None;
        }
        engine.metrics.suspicions_cleared += suspected.len() as u64;
        suspected.clear();
        // Suspicions reset, but Syncing sites stay excluded: their refusal
        // is advertised state, not a guess to re-test.
        let mut full = AliveSet::full(engine.sites.len());
        for s in engine.syncing_sites().iter() {
            full.remove(s);
        }
        pick(full, &mut engine.rng)
    }

    fn believed_alive(suspected: &DetSet<SiteId>, engine: &Engine) -> AliveSet {
        let mut alive = AliveSet::full(engine.sites.len());
        for s in suspected {
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

    /// Arms the phase timeout. A transaction's first attempt at a phase
    /// waits the client's measured round-trip timeout (RFC 6298's, see
    /// [`RttEstimator`]), at least the worst fault-free round trip
    /// `2·max_latency + 1 µs` and at most `op_timeout`; once it retried,
    /// attempt `k` waits `retry.delay(op_timeout, k, u)` as configured.
    /// Either way the delay takes a deterministic jitter draw `u` from the
    /// run's RNG under a jittered [`RetryPolicy`].
    ///
    /// [`RetryPolicy`]: crate::config::RetryPolicy
    fn arm_timeout(
        config: &SimConfig,
        engine: &mut Engine,
        rtt: &RttEstimator,
        op: OpId,
        state: &mut TxnState,
    ) {
        let u = if config.retry.uses_jitter() {
            engine.rng.gen::<f64>()
        } else {
            0.0
        };
        state.phase_counter += 1;
        let base = if state.attempts == 0 {
            let floor = config.network.max_latency.saturating_mul(2) + SimDuration::from_micros(1);
            rtt.timeout(floor, config.op_timeout)
        } else {
            config.op_timeout
        };
        let delay = config.retry.delay(base, state.attempts, u);
        engine.arm_timeout(state.client, op, state.phase_counter, delay);
    }

    /// Handles a client's wake-up tick: issue the next transaction if idle.
    pub(crate) fn handle_client_tick(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
    ) {
        let workload = (client.0 as usize) < self.config.clients;
        if workload && self.clients[client.0 as usize].op.is_none() {
            self.issue_op(engine, shards, client);
        }
    }

    /// Issues a fresh transaction for `client` (assumes it is idle):
    /// scripted requests first, then — if enabled — the random workload.
    /// The entries go straight into the client's record in the order
    /// requested; `register_txn` then plans them.
    fn issue_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        if self.reconfig.is_some() {
            return;
        }
        let c = &mut self.clients[client.0 as usize];
        if c.scripted.front().is_some_and(|(at, _)| *at <= engine.now) {
            let Some((_, req)) = c.scripted.pop_front() else {
                return; // unreachable: a front element was just observed
            };
            let txn = c.fresh_txn(client, engine.now, false);
            let reads = req.reads.into_iter().map(|obj| TxnObject::new(obj, None));
            let writes = req
                .writes
                .into_iter()
                .map(|(obj, v)| TxnObject::new(obj, Some(v)));
            txn.objects.extend(reads.chain(writes));
            self.register_txn(client);
            self.advance_locks(engine, shards, client);
            return;
        }
        if engine.now >= engine.end || !self.config.auto_workload {
            return;
        }
        let id_hint = self.next_op;

        // Sample 1..=max distinct objects, each op independently read/write;
        // `number_requests` then puts the reads before the writes.
        let max_ops = self.config.max_txn_ops.min(self.config.objects);
        let op_count = if max_ops == 1 {
            1
        } else {
            engine.rng.gen_range(1..=max_ops)
        };
        let txn = c.fresh_txn(client, engine.now, false);
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
        self.register_txn(client);
        self.advance_locks(engine, shards, client);
    }

    /// Plans `client`'s record (entries in request order) and puts it in
    /// flight under a fresh id.
    fn register_txn(&mut self, client: ClientId) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let c = &mut self.clients[client.0 as usize];
        let Some(txn) = c.txn.as_deref_mut() else {
            return; // unreachable: every caller readied the record
        };
        txn.number_requests();
        // Lock plan: ascending object order (deadlock freedom). The
        // objects are distinct, so an unstable sort orders them the same.
        txn.objects.sort_unstable_by_key(|e| e.obj);
        txn.index_request_order();
        c.op = Some(id);
    }

    /// Acquires `client`'s next planned lock(s); when all are held, starts
    /// the read round.
    fn advance_locks(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(s)) = (c.op, c.txn.as_deref_mut()) else {
            return;
        };
        while let Some(e) = s.objects.get(s.locks_held) {
            if !self.locks.acquire(op, e.obj, e.mode) {
                return; // queued; resumed by a later release
            }
            s.locks_held += 1;
        }
        self.start_read_round(engine, shards, client);
    }

    /// Releases `op`'s lock — held or queued — on each of the first `count`
    /// entries of `client`'s record, then resumes the transactions granted
    /// a lock as a result.
    fn release_locks(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        op: OpId,
        count: usize,
    ) {
        // Scratch taken for the call: resuming a granted transaction can
        // end it and release its locks in turn.
        let mut granted = std::mem::take(&mut self.granted);
        if let Some(s) = &self.clients[client.0 as usize].txn {
            for e in &s.objects[..count] {
                self.locks.release_into(op, e.obj, &mut granted);
            }
        }
        for &waiter in &granted {
            let Some(i) = self.clients.iter().position(|c| c.op == Some(waiter)) else {
                continue;
            };
            if let Some(s) = self.clients[i].txn.as_deref_mut() {
                s.locks_held += 1;
            }
            self.advance_locks(engine, shards, ClientId(i as u32));
        }
        granted.clear();
        self.granted = granted;
    }

    /// Starts the read phase: every object's read quorum, each picked from
    /// its object's own shard in object order, gets its `ReadReq`s in this
    /// one event (with [`SimConfig::batching`] on, requests sharing a
    /// destination site coalesce into one envelope). A retry — the
    /// transaction is already gathering — re-picks the quorums of only the
    /// objects still owed a response and asks only the members that have
    /// not answered for the object yet; every best value and response
    /// gathered so far stays.
    fn start_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(s)) = (c.op, c.txn.as_deref_mut()) else {
            return;
        };
        let suspected = &mut c.suspected;
        let retry = s.phase == Phase::ReadGather;
        let pending = &s.pending;
        let picked = s
            .objects
            .iter_mut()
            .filter(|e| !retry || pending.owes(e.obj))
            .all(|e| {
                let protocol = shards.for_key(u64::from(e.obj.0));
                match Self::pick_with_reprobe(suspected, engine, protocol, false) {
                    Some(q) => {
                        e.read_quorum = q;
                        true
                    }
                    None => false,
                }
            });
        if !picked {
            self.fail_op(engine, shards, client, AbortCause::NoQuorum);
            return;
        }
        if !retry {
            s.enter(Phase::ReadGather, engine.now);
            s.pending.clear();
            s.responses.clear();
        }
        for e in &s.objects {
            let owed = if retry {
                // A member that already answered for the object is not
                // asked again: its answer holds while the lock is held.
                let answered = s.responses.iter().filter(|r| r.0 == e.obj).map(|r| r.1);
                match s.pending.replace_quorum(e.obj, &e.read_quorum, answered) {
                    Some(owed) => owed,
                    None => continue, // answered, before or now
                }
            } else {
                s.pending.add_quorum(e.obj, &e.read_quorum);
                &e.read_quorum
            };
            engine.send_to_sites(s.client, owed, Payload::ReadReq { op, obj: e.obj });
        }
        if s.pending.is_empty() {
            // Every re-picked quorum had already answered in full.
            self.finish_read_round(engine, shards, client);
            return;
        }
        Self::arm_timeout(&self.config, engine, &c.rtt, op, s);
    }

    /// The read phase finished: repair its stale responders, then stamp the
    /// writes and enter the prepare phase, or complete a read-only
    /// transaction.
    fn finish_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(s)) = (c.op, c.txn.as_deref_mut()) else {
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
            let sid = c.sid;
            let skip_bump = matches!(self.config.fault, Some(FaultInjection::SkipVersionBump));
            for e in s.objects.iter_mut().filter(|e| e.is_write()) {
                let base = e.best.as_ref().map_or(Timestamp::ZERO, |(ts, _)| *ts);
                e.write_ts = if skip_bump { base } else { base.next(sid) };
            }
            self.start_prepare_phase(engine, shards, client);
        } else {
            self.complete_op(engine, shards, client);
        }
    }

    /// Starts (or restarts) the 2PC prepare phase across every written
    /// object's write quorum (picked from the object's own shard, in
    /// request order).
    fn start_prepare_phase(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
    ) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(s)) = (c.op, c.txn.as_deref_mut()) else {
            return;
        };
        let suspected = &mut c.suspected;
        let reconfig = &self.reconfig;
        let mut pick = |e: &TxnObject| {
            let protocol = shards.for_key(u64::from(e.obj.0));
            if s.is_migration {
                // Migration writes go to the union of an old-structure and
                // a new-structure write quorum so the value is visible
                // whichever structure serves later reads.
                let old_q = Self::pick_with_reprobe(suspected, engine, protocol, true)?;
                let alive = Self::believed_alive(suspected, engine);
                let new_q = reconfig
                    .as_ref()?
                    .target
                    .pick_write_quorum(alive, &mut engine.rng)?;
                Some(QuorumSet::from_sites(old_q.iter().chain(new_q.iter())))
            } else {
                Self::pick_with_reprobe(suspected, engine, protocol, true)
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
            self.fail_op(engine, shards, client, AbortCause::NoQuorum);
            return;
        }
        for (i, q) in picks.drain(..) {
            s.objects[i].write_quorum = q;
        }
        Self::send_writes(engine, op, s, Phase::PrepareGather);
        Self::arm_timeout(&self.config, engine, &c.rtt, op, s);
    }

    /// Sends `phase`'s message — `Prepare` or `Commit` — to every written
    /// object's write quorum, in request order, and expects an acknowledgement
    /// from each member.
    fn send_writes(engine: &mut Engine, op: OpId, state: &mut TxnState, phase: Phase) {
        state.enter(phase, engine.now);
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
    fn start_commit_phase(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        let c = &self.clients[client.0 as usize];
        let (Some(op), Some(s)) = (c.op, &c.txn) else {
            return;
        };
        // Mutation hook: EarlyLockRelease frees every lock at the commit
        // *point* instead of after the acknowledgements, admitting readers
        // while the commits are still in flight.
        if matches!(self.config.fault, Some(FaultInjection::EarlyLockRelease)) {
            // Every lock is held by now, except by a migration, which takes none.
            let held = s.locks_held;
            self.release_locks(engine, shards, client, op, held);
        }
        let c = &mut self.clients[client.0 as usize];
        let Some(s) = c.txn.as_deref_mut() else {
            return;
        };
        Self::send_writes(engine, op, s, Phase::CommitGather);
        Self::arm_timeout(&self.config, engine, &c.rtt, op, s);
    }

    /// The transaction gives up: abort staged writes, release locks, count
    /// the failure (attributed to `cause`), let the client move on.
    fn fail_op(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        cause: AbortCause,
    ) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(state)) = (c.op.take(), c.txn.as_deref()) else {
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
        self.finish_client_txn(engine, shards, client, op, release);
    }

    /// Completes a transaction successfully: reads then writes, in request
    /// order, go to the checker, the metrics and the history.
    fn complete_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, client: ClientId) {
        let c = &mut self.clients[client.0 as usize];
        let (Some(op), Some(state)) = (c.op.take(), c.txn.as_deref()) else {
            return;
        };
        if state.is_migration {
            self.complete_migration_op(engine, shards, op);
            return;
        }
        engine.metrics.record_latency(state.phase_times(engine.now));
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
        self.finish_client_txn(engine, shards, client, op, true);
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
    fn complete_migration_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        // The migration coordinator's slot, the last one.
        let m = &mut self.clients[self.config.clients];
        let sid = m.sid;
        let Some(txn) = m.txn.as_deref_mut() else {
            return;
        };
        let started = txn.started;
        // A migration transaction has exactly one entry.
        let Some(e) = txn.objects.pop() else {
            return;
        };
        if !e.is_write() {
            // Migration read finished: rewrite the value under a fresh
            // timestamp to old∪new write quorums.
            let (ts, value) = e.best.unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
            self.checker.check_read(op, e.obj, &value, ts);
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

    /// Puts a one-object migration transaction in flight (it takes no
    /// locks).
    fn insert_migration_txn(&mut self, engine: &Engine, entry: TxnObject) -> ClientId {
        let client = self.migration_client();
        let txn = self.clients[client.0 as usize].fresh_txn(client, engine.now, true);
        txn.objects.push(entry);
        self.register_txn(client);
        client
    }

    fn issue_migration_read(&mut self, engine: &mut Engine, shards: &mut ShardMap, obj: ObjectId) {
        let client = self.insert_migration_txn(engine, TxnObject::new(obj, None));
        self.start_read_round(engine, shards, client);
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
        let client = self.insert_migration_txn(engine, entry);
        self.start_prepare_phase(engine, shards, client);
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
        if draining && self.ops_in_flight() == 0 {
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
            let offset = SimDuration::from_micros(u64::from(c) * 37);
            engine.schedule(
                engine.now + self.config.think_time + offset,
                Event::ClientTick(ClientId(c)),
            );
        }
    }

    /// After `client`'s transaction `op` left flight: releases every lock
    /// it held or queued for (unless `release_locks` is off — the
    /// `KeepLocksOnAbort` mutation), resumes granted waiters, and schedules
    /// the client's next tick a jittered think time away. The record stays
    /// in the client's slot for its next transaction.
    fn finish_client_txn(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        op: OpId,
        release_locks: bool,
    ) {
        if release_locks {
            let c = &self.clients[client.0 as usize];
            let count = c.txn.as_ref().map_or(0, |s| s.objects.len());
            self.release_locks(engine, shards, client, op, count);
        }
        let jitter: f64 = engine.rng.gen();
        let think = self.config.think_time.as_micros();
        let delay = SimDuration::from_micros(think + (jitter * think as f64 / 2.0) as u64);
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
        let c = &mut self.clients[client.0 as usize];
        // A response proves the site is alive again.
        if c.suspected.remove(&from) {
            engine.metrics.suspicions_cleared += 1;
        }
        let op = msg.payload.op();
        let Some(state) = c.txn.as_deref_mut().filter(|_| c.op == Some(op)) else {
            return; // stale response for an earlier txn
        };
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
                    c.rtt.sample_phase(state, engine.now);
                    self.finish_read_round(engine, shards, client);
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
                        self.fail_op(engine, shards, client, AbortCause::Conflict);
                    } else {
                        engine.metrics.retries_prepare += 1;
                        self.start_prepare_phase(engine, shards, client);
                    }
                    return;
                }
                state.pending.remove(*obj, from);
                if state.pending.is_empty() {
                    c.rtt.sample_phase(state, engine.now);
                    self.start_commit_phase(engine, shards, client);
                }
            }
            (Payload::CommitAck { obj, .. }, Phase::CommitGather) => {
                let acked = state.pending.remove(*obj, from);
                // Mutation hook: StaleCommitAck declares victory on the first
                // acknowledgement instead of waiting for the full quorum.
                let premature = matches!(self.config.fault, Some(FaultInjection::StaleCommitAck));
                if acked && (state.pending.is_empty() || premature) {
                    c.rtt.sample_phase(state, engine.now);
                    self.complete_op(engine, shards, client);
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
        let c = &mut self.clients[client.0 as usize];
        let Some(state) = c.txn.as_deref_mut() else {
            return;
        };
        if c.op != Some(op) || state.phase_counter != attempt {
            return; // stale timeout
        }
        let suspected = &mut c.suspected;
        engine.metrics.timeouts_fired += 1;
        // Suspect every member that stayed silent.
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
                    self.fail_op(engine, shards, client, AbortCause::Exhausted);
                } else {
                    engine.metrics.retries_read += 1;
                    self.start_read_round(engine, shards, client);
                }
            }
            Phase::PrepareGather => {
                state.attempts += 1;
                if state.attempts >= self.config.max_attempts {
                    self.fail_op(engine, shards, client, AbortCause::Exhausted);
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
                self.start_prepare_phase(engine, shards, client);
                let c = &mut self.clients[client.0 as usize];
                if let Some(state) = c.txn.as_deref_mut().filter(|_| c.op == Some(op)) {
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
                Self::arm_timeout(&self.config, engine, &c.rtt, op, state);
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
        for c in &mut self.clients {
            let (Some(_), Some(state)) = (c.op, c.txn.as_deref_mut()) else {
                continue;
            };
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
            ops_incomplete: self.ops_in_flight(),
            reads_checked: self.checker.reads_checked(),
            writes_recorded: self.checker.writes_recorded(),
            history: self.history.clone(),
        }
    }
}
