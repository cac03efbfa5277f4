//! The coordinator layer: the transaction state machine.
//!
//! [`Coordinator`] owns everything transactional — the strict-2PL lock
//! manager, the per-transaction phase machines (lock wait → read rounds →
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
use crate::locks::{LockManager, LockMode};
use crate::message::{ClientId, Endpoint, Message, ObjectId, OpId, Payload};
use crate::time::SimTime;
use crate::txn::{ClientState, MigrationPhase, Phase, Reconfig, SimReport, TxnRequest, TxnState};
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
            // One lock stripe per shard, same hash: lock traffic on
            // different shards never meets in one table.
            locks: LockManager::striped(config.shards),
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
            h.debug(&s.reads);
            h.debug(&s.writes);
            h.debug(&s.lock_plan);
            h.u64(s.locks_held as u64);
            h.debug(&s.read_targets);
            h.u64(s.read_round as u64);
            h.debug(&s.pending_sites.sites_debug());
            h.debug(&s.round_quorum);
            h.debug(&s.round_responses);
            h.debug(&s.gathered);
            h.debug(&s.round_quorums);
            h.debug(&s.write_ts);
            h.debug(&s.write_values);
            h.debug(&s.write_quorums);
            h.debug(&s.pending_pairs);
            h.debug(&s.read_pending_pairs);
            h.debug(&s.gather_responses);
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
        &mut self,
        engine: &mut Engine,
        protocol: &dyn ReplicaControl,
        client: ClientId,
        write: bool,
    ) -> Option<QuorumSet> {
        let alive = self.believed_alive(engine, client);
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
        if self.clients[client.0 as usize].suspected.is_empty() {
            return None;
        }
        engine.metrics.suspicions_cleared += self.clients[client.0 as usize].suspected.len() as u64;
        self.clients[client.0 as usize].suspected.clear();
        // Suspicions reset, but Syncing sites stay excluded: their refusal
        // is advertised state, not a guess to re-test.
        let mut full = AliveSet::full(engine.sites.len());
        for s in engine.syncing_sites().iter() {
            full.remove(s);
        }
        pick(full, &mut engine.rng)
    }

    fn believed_alive(&self, engine: &Engine, client: ClientId) -> AliveSet {
        let mut alive = AliveSet::full(engine.sites.len());
        for s in &self.clients[client.0 as usize].suspected {
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
    fn arm_timeout(&mut self, engine: &mut Engine, op: OpId) {
        let u = if self.config.retry.uses_jitter() {
            engine.rng.gen::<f64>()
        } else {
            0.0
        };
        // arbitree-lint: allow(D005) — arm_timeout is called only from phases that just touched the live record
        let state = self.ops.get_mut(&op).expect("txn exists");
        state.phase_counter += 1;
        let delay = self
            .config
            .retry
            .delay(self.config.op_timeout, state.attempts, u);
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
            let reads = req.reads;
            let mut writes = Vec::new();
            let mut write_values = DetMap::new();
            for (obj, value) in req.writes {
                write_values.insert(obj, value);
                writes.push(obj);
            }
            self.insert_txn(engine, shards, client, reads, writes, write_values);
            return;
        }
        if engine.now >= engine.end || !self.config.auto_workload {
            return;
        }
        let id_hint = self.next_op;

        // Sample 1..=max distinct objects, each op independently read/write.
        let max_ops = self.config.max_txn_ops.min(self.config.objects);
        let op_count = if max_ops == 1 {
            1
        } else {
            engine.rng.gen_range(1..=max_ops)
        };
        let mut objects: Vec<ObjectId> = Vec::with_capacity(op_count);
        let mut tries = 0;
        while objects.len() < op_count && tries < 16 * op_count {
            let obj = ObjectId(self.object_sampler.sample(&mut engine.rng));
            if !objects.contains(&obj) {
                objects.push(obj);
            }
            tries += 1;
        }
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut write_values = DetMap::new();
        for obj in objects {
            if engine.rng.gen::<f64>() < self.config.read_fraction {
                reads.push(obj);
            } else {
                let mut v = Vec::with_capacity(12);
                v.extend_from_slice(&id_hint.to_be_bytes());
                v.extend_from_slice(&obj.0.to_be_bytes());
                write_values.insert(obj, Bytes::from(v));
                writes.push(obj);
            }
        }
        self.insert_txn(engine, shards, client, reads, writes, write_values);
    }

    /// Registers a transaction's state and starts its lock acquisition.
    fn insert_txn(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        client: ClientId,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        write_values: DetMap<ObjectId, Bytes>,
    ) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        // Lock plan: ascending object order (deadlock freedom), strongest
        // mode per object.
        let mut lock_plan: Vec<(ObjectId, LockMode)> = reads
            .iter()
            .map(|&o| (o, LockMode::Read))
            .chain(writes.iter().map(|&o| (o, LockMode::Write)))
            .collect();
        lock_plan.sort_by_key(|&(o, _)| o);
        // Every object needing a read round: reads + writes (versions).
        let read_targets: Vec<ObjectId> = lock_plan.iter().map(|&(o, _)| o).collect();

        let mut state = TxnState::new(client, engine.now, false);
        state.reads = reads;
        state.writes = writes;
        state.lock_plan = lock_plan;
        state.read_targets = read_targets;
        state.write_values = write_values;
        self.ops.insert(id, state);
        self.clients[client.0 as usize].current_op = Some(id);
        self.advance_locks(engine, shards, id);
    }

    /// Acquires the next planned lock(s); when all are held, starts the
    /// first read round (or the prepare phase for read-less migrations).
    fn advance_locks(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        loop {
            let next = {
                // arbitree-lint: allow(D005) — advance_locks runs strictly between insert_txn and the fail/complete removal
                let s = self.ops.get(&op).expect("txn exists");
                s.lock_plan.get(s.locks_held).copied()
            };
            match next {
                None => {
                    // All locks held.
                    let has_reads = {
                        // arbitree-lint: allow(D005) — re-lookup after the immutable probe above; nothing in between removes the op
                        let s = self.ops.get(&op).expect("txn exists");
                        !s.read_targets.is_empty()
                    };
                    if has_reads {
                        self.begin_reads(engine, shards, op);
                    } else {
                        self.start_prepare_phase(engine, shards, op);
                    }
                    return;
                }
                Some((obj, mode)) => {
                    if self.locks.acquire(op, obj, mode) {
                        // arbitree-lint: allow(D005) — the record was alive at the top of this loop pass and acquire() never touches ops
                        self.ops.get_mut(&op).expect("txn exists").locks_held += 1;
                    } else {
                        return; // queued; resumed by a later release
                    }
                }
            }
        }
    }

    /// Called when the lock manager grants a queued request of `op`.
    fn on_lock_granted(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        if let Some(state) = self.ops.get_mut(&op) {
            state.locks_held += 1;
            self.advance_locks(engine, shards, op);
        }
    }

    /// Enters the read phase: one object-at-a-time round in sequential
    /// mode, or — with [`SimConfig::batching`] on — one parallel gather
    /// over every read target so same-destination requests coalesce.
    fn begin_reads(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        if self.config.batching {
            self.start_read_gather(engine, shards, op);
        } else {
            self.start_read_round(engine, shards, op);
        }
    }

    /// Starts (or restarts) the current read round (sequential mode).
    fn start_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let (client, obj) = {
            // arbitree-lint: allow(D005) — start_read_round is reached only with a live op
            let s = self.ops.get(&op).expect("txn exists");
            // arbitree-lint: allow(D005) — the caller advances read_round only while it points into read_targets
            (s.client, s.current_read_target().expect("round in range"))
        };
        let quorum =
            self.pick_with_reprobe(engine, shards.for_key(u64::from(obj.0)), client, false);
        let Some(quorum) = quorum else {
            self.fail_op(engine, shards, op, AbortCause::NoQuorum);
            return;
        };
        {
            // arbitree-lint: allow(D005) — re-lookup after pick_with_reprobe, which never mutates ops
            let s = self.ops.get_mut(&op).expect("txn exists");
            s.phase = Phase::ReadGather;
            s.pending_sites.clear();
            s.pending_sites.add_quorum(obj, &quorum);
            s.round_quorum = quorum.clone();
            s.round_responses.clear();
        }
        engine.send_to_sites(client, &quorum, Payload::ReadReq { op, obj });
        self.arm_timeout(engine, op);
    }

    /// Starts (or restarts) the batched read gather: every read target is
    /// queried in one parallel round, its quorum picked from its own shard
    /// up front (in `read_targets` order — deterministic). The engine's
    /// outbox then coalesces the requests sharing a destination site into
    /// one envelope.
    fn start_read_gather(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let (client, targets) = {
            // arbitree-lint: allow(D005) — start_read_gather is reached only with a live op
            let s = self.ops.get(&op).expect("txn exists");
            (s.client, s.read_targets.clone())
        };
        let mut quorums: Vec<(ObjectId, QuorumSet)> = Vec::with_capacity(targets.len());
        for &obj in &targets {
            let q = self.pick_with_reprobe(engine, shards.for_key(u64::from(obj.0)), client, false);
            let Some(q) = q else {
                self.fail_op(engine, shards, op, AbortCause::NoQuorum);
                return;
            };
            quorums.push((obj, q));
        }
        {
            // arbitree-lint: allow(D005) — re-lookup after quorum picking, which never mutates ops
            let s = self.ops.get_mut(&op).expect("txn exists");
            s.phase = Phase::ReadGather;
            s.read_pending_pairs.clear();
            s.gather_responses.clear();
            for (obj, q) in &quorums {
                s.round_quorums.insert(*obj, q.clone());
                s.read_pending_pairs.add_quorum(*obj, q);
            }
        }
        for (obj, q) in quorums {
            engine.send_to_sites(client, &q, Payload::ReadReq { op, obj });
        }
        self.arm_timeout(engine, op);
    }

    /// The batched gather finished: repair stale responders per object,
    /// then stamp writes / complete exactly as the sequential path does.
    fn finish_read_gather(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let (client, targets, responses) = {
            // arbitree-lint: allow(D005) — finish_read_gather fires off a ReadGather response for a live op
            let s = self.ops.get_mut(&op).expect("txn exists");
            // All rounds done at once.
            s.read_round = s.read_targets.len();
            (s.client, s.read_targets.clone(), s.gather_responses.clone())
        };
        if self.config.read_repair {
            for &obj in &targets {
                let best = self
                    .ops
                    .get(&op)
                    .and_then(|s| s.gathered.get(&obj).cloned())
                    .unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
                let stale: Vec<SiteId> = responses
                    .iter()
                    .filter(|(o, _, seen)| *o == obj && *seen < best.0)
                    .map(|(_, site, _)| *site)
                    .collect();
                if !stale.is_empty() {
                    let members = QuorumSet::from_sites(stale);
                    engine.metrics.repairs_sent += members.len() as u64;
                    let (ts, value) = best;
                    engine.send_to_sites(
                        client,
                        &members,
                        Payload::Repair {
                            op,
                            obj,
                            value: value.clone(),
                            ts,
                        },
                    );
                }
            }
        }
        self.after_read_rounds(engine, shards, op);
    }

    /// Every read round is done: stamp the written objects' timestamps
    /// from their gathered versions and enter the prepare phase, or
    /// complete a read-only transaction. Shared tail of the sequential and
    /// batched read paths.
    fn after_read_rounds(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        // arbitree-lint: allow(D005) — both read paths just observed the live record
        let has_writes = !self.ops.get(&op).expect("txn exists").writes.is_empty();
        if has_writes {
            // arbitree-lint: allow(D005) — the record was alive a line up and nothing here removes it
            let client_idx = self.ops.get(&op).expect("txn exists").client.0 as usize;
            let sid = self.clients[client_idx].sid;
            // Mutation hook: SkipVersionBump reuses the gathered timestamp
            // verbatim, so committed versions stop advancing.
            let skip_bump = matches!(self.config.fault, Some(FaultInjection::SkipVersionBump));
            // arbitree-lint: allow(D005) — re-lookup to upgrade the borrow; the op is still live
            let s = self.ops.get_mut(&op).expect("txn exists");
            for obj in s.writes.clone() {
                let base = s.gathered.get(&obj).map_or(Timestamp::ZERO, |(t, _)| *t);
                let ts = if skip_bump { base } else { base.next(sid) };
                s.write_ts.insert(obj, ts);
            }
            self.start_prepare_phase(engine, shards, op);
        } else {
            self.complete_op(engine, shards, op);
        }
    }

    /// The current read round finished: record its result, maybe repair,
    /// then move to the next round, the prepare phase, or completion.
    fn finish_read_round(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let (obj, best, responses, client) = {
            // arbitree-lint: allow(D005) — finish_read_round fires off a ReadGather response for a live op
            let s = self.ops.get_mut(&op).expect("txn exists");
            // arbitree-lint: allow(D005) — the round index was in range when this round started
            let obj = s.current_read_target().expect("round in range");
            let best = s
                .gathered
                .get(&obj)
                .cloned()
                .unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
            s.round_quorums.insert(obj, s.round_quorum.clone());
            s.read_round += 1;
            (obj, best, s.round_responses.clone(), s.client)
        };
        // Read-repair: the best value is committed (locks block writers), so
        // refreshing stale members is safe even if the txn later aborts.
        if self.config.read_repair {
            let stale: Vec<SiteId> = responses
                .iter()
                .filter(|(_, seen)| *seen < best.0)
                .map(|(site, _)| *site)
                .collect();
            if !stale.is_empty() {
                let members = QuorumSet::from_sites(stale);
                engine.metrics.repairs_sent += members.len() as u64;
                let (ts, value) = best.clone();
                engine.send_to_sites(
                    client,
                    &members,
                    Payload::Repair {
                        op,
                        obj,
                        value: value.clone(),
                        ts,
                    },
                );
            }
        }
        let more_rounds = {
            // arbitree-lint: allow(D005) — still inside finish_read_round's borrow-split sequence; the op stays live
            let s = self.ops.get(&op).expect("txn exists");
            s.read_round < s.read_targets.len()
        };
        if more_rounds {
            self.start_read_round(engine, shards, op);
        } else {
            self.after_read_rounds(engine, shards, op);
        }
    }

    /// Starts (or restarts) the 2PC prepare phase across every written
    /// object's write quorum (picked from the object's own shard).
    fn start_prepare_phase(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        let (client, writes, is_migration) = {
            // arbitree-lint: allow(D005) — start_prepare_phase is reached only with a live record
            let s = self.ops.get(&op).expect("txn exists");
            (s.client, s.writes.clone(), s.is_migration)
        };
        let mut quorums: DetMap<ObjectId, QuorumSet> = DetMap::new();
        for &obj in &writes {
            let q = if is_migration {
                // Migration writes go to the union of an old-structure and a
                // new-structure write quorum so the value is visible
                // whichever structure serves later reads.
                let old_q =
                    self.pick_with_reprobe(engine, shards.for_key(u64::from(obj.0)), client, true);
                let alive = self.believed_alive(engine, client);
                let new_q = match (&self.reconfig, old_q.as_ref()) {
                    (Some(rc), Some(_)) => rc.target.pick_write_quorum(alive, &mut engine.rng),
                    _ => None,
                };
                match (old_q, new_q) {
                    (Some(a), Some(b)) => Some(QuorumSet::from_sites(a.iter().chain(b.iter()))),
                    _ => None,
                }
            } else {
                self.pick_with_reprobe(engine, shards.for_key(u64::from(obj.0)), client, true)
            };
            match q {
                Some(q) => {
                    quorums.insert(obj, q);
                }
                None => {
                    self.fail_op(engine, shards, op, AbortCause::NoQuorum);
                    return;
                }
            }
        }
        let mut sends: Vec<(ObjectId, QuorumSet, Bytes, Timestamp)> = Vec::new();
        {
            // arbitree-lint: allow(D005) — re-lookup after quorum picking, which never mutates ops
            let s = self.ops.get_mut(&op).expect("txn exists");
            s.phase = Phase::PrepareGather;
            s.pending_pairs.clear();
            for (&obj, q) in &quorums {
                s.pending_pairs.add_quorum(obj, q);
                sends.push((
                    obj,
                    q.clone(),
                    // arbitree-lint: allow(D005) — write_values holds an entry for every object in writes since insert time
                    s.write_values.get(&obj).expect("value exists").clone(),
                    // arbitree-lint: allow(D005) — write_ts was stamped for every written object before the prepare phase
                    *s.write_ts.get(&obj).expect("ts stamped"),
                ));
            }
            s.write_quorums = quorums;
        }
        for (obj, q, value, ts) in sends {
            let v = value;
            engine.send_to_sites(
                client,
                &q,
                Payload::Prepare {
                    op,
                    obj,
                    value: v.clone(),
                    ts,
                },
            );
        }
        self.arm_timeout(engine, op);
    }

    /// Crossing the commit point: send `Commit` to every participant.
    fn start_commit_phase(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        // Mutation hook: EarlyLockRelease frees every lock at the commit
        // *point* instead of after the acknowledgements, admitting readers
        // while the commits are still in flight.
        if matches!(self.config.fault, Some(FaultInjection::EarlyLockRelease)) {
            let lock_plan = self
                .ops
                .get(&op)
                .map(|s| s.lock_plan.clone())
                .unwrap_or_default();
            let mut granted_all = Vec::new();
            for (obj, _) in lock_plan {
                granted_all.extend(self.locks.release(op, obj));
            }
            for granted in granted_all {
                self.on_lock_granted(engine, shards, granted);
            }
        }
        let (client, sends) = {
            // arbitree-lint: allow(D005) — the prepare gather just proved the op live before crossing the commit point
            let s = self.ops.get_mut(&op).expect("txn exists");
            s.phase = Phase::CommitGather;
            s.pending_pairs.clear();
            let mut sends: Vec<(ObjectId, QuorumSet, Bytes, Timestamp)> = Vec::new();
            for (&obj, q) in &s.write_quorums {
                s.pending_pairs.add_quorum(obj, q);
                sends.push((
                    obj,
                    q.clone(),
                    // arbitree-lint: allow(D005) — write_values holds an entry for every object in writes since insert time
                    s.write_values.get(&obj).expect("value exists").clone(),
                    // arbitree-lint: allow(D005) — write_ts was stamped for every written object before the prepare phase
                    *s.write_ts.get(&obj).expect("ts stamped"),
                ));
            }
            (s.client, sends)
        };
        for (obj, q, value, ts) in sends {
            let v = value;
            engine.send_to_sites(
                client,
                &q,
                Payload::Commit {
                    op,
                    obj,
                    value: v.clone(),
                    ts,
                },
            );
        }
        self.arm_timeout(engine, op);
    }

    /// The transaction gives up: abort staged writes, release locks, count
    /// the failure (attributed to `cause`), let the client move on.
    fn fail_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId, cause: AbortCause) {
        // arbitree-lint: allow(D005) — fail_op runs at most once per op, from paths that just observed the record
        let state = self.ops.remove(&op).expect("txn exists");
        // Staged-but-uncommitted writes must be cleaned up.
        if state.phase == Phase::PrepareGather {
            for (&obj, q) in &state.write_quorums {
                let (client, q) = (state.client, q.clone());
                engine.send_to_sites(client, &q, Payload::Abort { op, obj });
            }
        }
        if state.is_migration {
            // Abandon the reconfiguration without swapping: everything
            // written so far went to old∪new quorums, so the old structure
            // remains fully consistent.
            engine.metrics.aborts_reconfig += 1;
            self.clients[state.client.0 as usize].current_op = None;
            self.reconfig = None;
            self.resume_clients(engine);
            return;
        }
        match cause {
            AbortCause::Exhausted => engine.metrics.aborts_exhausted += 1,
            AbortCause::Conflict => engine.metrics.aborts_conflict += 1,
            AbortCause::NoQuorum => engine.metrics.aborts_no_quorum += 1,
        }
        engine.metrics.reads_failed += state.reads.len() as u64;
        engine.metrics.writes_failed += state.writes.len() as u64;
        engine.metrics.txns_failed += 1;
        // Mutation hook: KeepLocksOnAbort leaks the aborted transaction's
        // strict-2PL locks forever.
        let release = !matches!(self.config.fault, Some(FaultInjection::KeepLocksOnAbort));
        self.finish_client_txn(engine, shards, &state, op, release);
    }

    /// Completes a transaction successfully.
    fn complete_op(&mut self, engine: &mut Engine, shards: &mut ShardMap, op: OpId) {
        // arbitree-lint: allow(D005) — complete_op runs at most once per op, from paths that just observed the record
        let state = self.ops.remove(&op).expect("txn exists");
        if state.is_migration {
            self.clients[state.client.0 as usize].current_op = None;
            self.complete_migration_op(engine, shards, op, state);
            return;
        }
        let latency = engine.now - state.started;
        engine.metrics.record_latency(latency);
        for &obj in &state.reads {
            let (ts, value) = state
                .gathered
                .get(&obj)
                .cloned()
                .unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
            self.checker.check_read(op, obj, &value, ts);
            engine.metrics.reads_ok += 1;
            if let Some(q) = state.round_quorums.get(&obj) {
                for s in q.iter() {
                    *engine
                        .metrics
                        .read_quorum_hits
                        .entry(s.as_u32())
                        .or_insert(0) += 1;
                }
            }
            if self.config.record_history {
                self.history.record(HistoryEvent {
                    op,
                    kind: HistoryKind::Read,
                    obj,
                    invoked: state.started,
                    responded: engine.now,
                    ts,
                });
            }
        }
        for &obj in &state.writes {
            // arbitree-lint: allow(D005) — every object in writes was stamped before the prepare phase began
            let ts = *state.write_ts.get(&obj).expect("ts stamped");
            // arbitree-lint: allow(D005) — write_values holds an entry for every written object since insert time
            let value = state.write_values.get(&obj).expect("value exists").clone();
            self.checker.record_write(op, obj, value, ts);
            engine.metrics.writes_ok += 1;
            if let Some(q) = state.write_quorums.get(&obj) {
                for s in q.iter() {
                    *engine
                        .metrics
                        .write_quorum_hits
                        .entry(s.as_u32())
                        .or_insert(0) += 1;
                }
            }
            if let Some(q) = state.round_quorums.get(&obj) {
                for s in q.iter() {
                    *engine
                        .metrics
                        .version_quorum_hits
                        .entry(s.as_u32())
                        .or_insert(0) += 1;
                }
            }
            if self.config.record_history {
                self.history.record(HistoryEvent {
                    op,
                    kind: HistoryKind::Write,
                    obj,
                    invoked: state.started,
                    responded: engine.now,
                    ts,
                });
            }
        }
        engine.metrics.txns_ok += 1;
        self.finish_client_txn(engine, shards, &state, op, true);
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
        state: TxnState,
    ) {
        if state.writes.is_empty() {
            // Migration read finished: rewrite the value under a fresh
            // timestamp to old∪new write quorums.
            let obj = state.reads[0];
            let (ts, value) = state
                .gathered
                .get(&obj)
                .cloned()
                .unwrap_or_else(|| (Timestamp::ZERO, Bytes::new()));
            self.checker.check_read(op, obj, &value, ts);
            let sid = self.clients[self.migration_client().0 as usize].sid;
            self.issue_migration_write(engine, shards, obj, value, ts.next(sid));
        } else {
            let obj = state.writes[0];
            // arbitree-lint: allow(D005) — migration writes stamp write_ts at issue time
            let ts = *state.write_ts.get(&obj).expect("ts stamped");
            // arbitree-lint: allow(D005) — migration writes stamp write_values at issue time
            let value = state.write_values.get(&obj).expect("value exists").clone();
            if self.config.record_history {
                self.history.record(HistoryEvent {
                    op,
                    kind: HistoryKind::Write,
                    obj,
                    invoked: state.started,
                    responded: engine.now,
                    ts,
                });
            }
            self.checker.record_write(op, obj, value, ts);
            engine.metrics.migration_writes += 1;
            let shard = self.reconfig.as_ref().map_or(0, |rc| rc.shard);
            match self.next_object_in_shard(obj.0 + 1, shard, shards.shard_count()) {
                Some(next_obj) => self.issue_migration_read(engine, shards, next_obj),
                // Every object of the shard migrated: swap and resume.
                None => self.swap_migrated_shard(engine, shards),
            }
        }
    }

    fn blank_migration_txn(&mut self, engine: &Engine, client: ClientId) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(id, TxnState::new(client, engine.now, true));
        self.clients[client.0 as usize].current_op = Some(id);
        id
    }

    fn issue_migration_read(&mut self, engine: &mut Engine, shards: &mut ShardMap, obj: ObjectId) {
        let client = self.migration_client();
        let id = self.blank_migration_txn(engine, client);
        // arbitree-lint: allow(D005) — blank_migration_txn inserted the record on the line above
        let s = self.ops.get_mut(&id).expect("txn exists");
        s.reads = vec![obj];
        s.read_targets = vec![obj];
        self.begin_reads(engine, shards, id);
    }

    fn issue_migration_write(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        obj: ObjectId,
        value: Bytes,
        ts: Timestamp,
    ) {
        let client = self.migration_client();
        let id = self.blank_migration_txn(engine, client);
        // arbitree-lint: allow(D005) — blank_migration_txn inserted the record on the line above
        let s = self.ops.get_mut(&id).expect("txn exists");
        s.writes = vec![obj];
        s.write_ts.insert(obj, ts);
        s.write_values.insert(obj, value);
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
    /// granted waiters, schedules the client's next think-time tick.
    fn finish_client_txn(
        &mut self,
        engine: &mut Engine,
        shards: &mut ShardMap,
        state: &TxnState,
        op: OpId,
        release_locks: bool,
    ) {
        let client = state.client;
        self.clients[client.0 as usize].current_op = None;
        if release_locks {
            let mut granted_all = Vec::new();
            for &(obj, _) in &state.lock_plan {
                granted_all.extend(self.locks.release(op, obj));
            }
            for granted in granted_all {
                self.on_lock_granted(engine, shards, granted);
            }
        }
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
        // (batches are never nested, so this recurses at most once).
        if let Payload::Batch(inner) = msg.payload {
            for payload in inner {
                let m = Message {
                    from: msg.from,
                    to: msg.to,
                    payload,
                    sent_at: msg.sent_at,
                };
                self.on_client_message(engine, shards, client, m);
            }
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
                let candidate = (*ts, value.clone());
                if self.config.batching {
                    // Batched gather: all targets outstanding at once,
                    // matched by (object, site) pair.
                    if !state.read_pending_pairs.remove(*obj, from) {
                        return; // stale gather, duplicate, or out-of-quorum
                    }
                    state.gather_responses.push((*obj, from, *ts));
                    match state.gathered.get_mut(obj) {
                        Some(best) if candidate.0 > best.0 => *best = candidate,
                        Some(_) => {}
                        None => {
                            state.gathered.insert(*obj, candidate);
                        }
                    }
                    if state.read_pending_pairs.is_empty() {
                        self.finish_read_gather(engine, shards, op_id);
                    }
                    return;
                }
                // The round's acks are keyed by its object, so a response
                // for another round's object misses like a duplicate does.
                if !state.pending_sites.remove(*obj, from) {
                    return; // stale round, duplicate, or out-of-quorum
                }
                state.round_responses.push((from, *ts));
                match state.gathered.get_mut(obj) {
                    Some(best) if candidate.0 > best.0 => *best = candidate,
                    Some(_) => {}
                    None => {
                        state.gathered.insert(*obj, candidate);
                    }
                }
                if state.pending_sites.is_empty() {
                    self.finish_read_round(engine, shards, op_id);
                }
            }
            (Payload::PrepareAck { obj, ok, ts, .. }, Phase::PrepareGather) => {
                if state.write_ts.get(obj) != Some(ts) || !state.pending_pairs.contains(*obj, from)
                {
                    return; // vote for an earlier attempt's timestamp
                }
                if !*ok {
                    // Vote-abort: a leaked stage from a failed writer holds
                    // an equal-or-higher timestamp for this object. Bump the
                    // version past it and retry so the object cannot
                    // livelock.
                    state.attempts += 1;
                    let bumped = Timestamp::new(ts.version() + 1, ts.sid());
                    state.write_ts.insert(*obj, bumped);
                    if state.attempts >= self.config.max_attempts {
                        self.fail_op(engine, shards, op_id, AbortCause::Conflict);
                    } else {
                        engine.metrics.retries_prepare += 1;
                        self.start_prepare_phase(engine, shards, op_id);
                    }
                    return;
                }
                state.pending_pairs.remove(*obj, from);
                if state.pending_pairs.is_empty() {
                    self.start_commit_phase(engine, shards, op_id);
                }
            }
            (Payload::CommitAck { obj, .. }, Phase::CommitGather) => {
                let acked = state.pending_pairs.remove(*obj, from);
                // Mutation hook: StaleCommitAck declares victory on the first
                // acknowledgement instead of waiting for the full quorum.
                let premature = matches!(self.config.fault, Some(FaultInjection::StaleCommitAck));
                if acked && (state.pending_pairs.is_empty() || premature) {
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
        let silent: Vec<SiteId> = match state.phase {
            Phase::ReadGather if self.config.batching => state.read_pending_pairs.sites().collect(),
            Phase::ReadGather => state.pending_sites.sites().collect(),
            Phase::PrepareGather | Phase::CommitGather => state.pending_pairs.sites().collect(),
            Phase::LockWait => Vec::new(),
        };
        for s in &silent {
            if self.clients[client.0 as usize].suspected.insert(*s) {
                engine.metrics.suspicions_raised += 1;
            }
        }
        let Some(state) = self.ops.get_mut(&op) else {
            return; // unreachable: nothing between the checks removes the op
        };
        match state.phase {
            Phase::LockWait => {}
            Phase::ReadGather => {
                state.attempts += 1;
                if state.attempts >= self.config.max_attempts {
                    self.fail_op(engine, shards, op, AbortCause::Exhausted);
                } else {
                    engine.metrics.retries_read += 1;
                    // Sequential mode restarts the current round; batched
                    // mode restarts the whole parallel gather.
                    self.begin_reads(engine, shards, op);
                }
            }
            Phase::PrepareGather => {
                state.attempts += 1;
                let old_quorums = state.write_quorums.clone();
                if state.attempts >= self.config.max_attempts {
                    self.fail_op(engine, shards, op, AbortCause::Exhausted);
                } else {
                    engine.metrics.retries_prepare += 1;
                    // Retry with freshly picked write quorums. Stages on
                    // members of BOTH the old and new quorum are reused
                    // (same op, same ts), so we must not race an Abort
                    // against the re-Prepare; only members dropped from a
                    // quorum get an Abort for that object.
                    self.start_prepare_phase(engine, shards, op);
                    if let Some(state) = self.ops.get(&op) {
                        let new_quorums = state.write_quorums.clone();
                        for (obj, old_q) in old_quorums {
                            let dropped = QuorumSet::from_sites(old_q.iter().filter(|s| {
                                new_quorums.get(&obj).is_none_or(|nq| !nq.contains(*s))
                            }));
                            engine.send_to_sites(client, &dropped, Payload::Abort { op, obj });
                        }
                    }
                }
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
                let pending: Vec<(ObjectId, SiteId, Bytes, Timestamp)> = state
                    .pending_pairs
                    .iter()
                    .map(|(obj, site)| {
                        (
                            obj,
                            site,
                            // arbitree-lint: allow(D005) — write_values holds an entry for every object in writes since insert time
                            state.write_values.get(&obj).expect("value exists").clone(),
                            // arbitree-lint: allow(D005) — write_ts was stamped for every written object before the prepare phase
                            *state.write_ts.get(&obj).expect("ts stamped"),
                        )
                    })
                    .collect();
                for (obj, site, value, ts) in pending {
                    let members = QuorumSet::from_sites([site]);
                    let v = value;
                    engine.send_to_sites(
                        client,
                        &members,
                        Payload::Commit {
                            op,
                            obj,
                            value: v.clone(),
                            ts,
                        },
                    );
                }
                self.arm_timeout(engine, op);
            }
        }
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
