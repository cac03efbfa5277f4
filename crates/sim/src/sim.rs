//! The simulation facade: a thin composition of the three layers.
//!
//! * [`crate::engine::Engine`] — clock, event queue, transport, sites,
//!   metrics, RNG (knows nothing about transactions);
//! * [`crate::coordinator::Coordinator`] — clients running the §2.2
//!   transaction model: strict-2PL locking, one quorum read round with
//!   read-repair, two-phase commit, the one-copy checker, and the live
//!   reconfiguration state machine;
//! * the **protocols**, held as a [`ShardMap`] of boxed
//!   `dyn ReplicaControl` instances — objects hash across the shards, each
//!   shard is any quorum protocol, swappable at runtime per shard, which
//!   is what lets [`Simulation::schedule_reconfigure`] migrate between
//!   protocol *families* (ARBITRARY ↔ ROWA ↔ tree-quorum ↔ HQC), not just
//!   between tree shapes. The classic single-protocol simulator is the
//!   one-shard special case.
//!
//! [`Simulation::run`] is the event loop: it pops events and dispatches
//! pure engine events (crash/recover/site delivery) to the engine and
//! transactional events (client messages, ticks, timeouts,
//! reconfigurations) to the coordinator, passing the engine and protocol
//! as explicit siblings so the borrow checker sees the layers are
//! disjoint.
//!
//! Determinism: a run is a pure function of the [`SimConfig`] (seed
//! included) and the injected failure schedule.

use crate::config::SimConfig;
use crate::coordinator::Coordinator;
use crate::engine::Engine;
use crate::event::{Event, EventKey};
use crate::message::{ClientId, Endpoint, Payload};
use crate::network::Partition;
use crate::recovery::RejoinManager;
use crate::site::{CrashMode, Site, SiteHealth};
use crate::time::SimTime;
use crate::txn::{SimReport, TxnRequest};
use arbitree_quorum::{ReplicaControl, ShardMap, SiteId};
use std::fmt;

/// The simulation: construct, optionally inject failures, then [`run`].
///
/// [`run`]: Simulation::run
pub struct Simulation {
    pub(crate) engine: Engine,
    pub(crate) coordinator: Coordinator,
    pub(crate) shards: ShardMap,
    pub(crate) rejoin: RejoinManager,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("shards", &self.shards)
            .field("engine", &self.engine)
            .field("coordinator", &self.coordinator)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation of `protocol` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(config: SimConfig, protocol: impl ReplicaControl + 'static) -> Self {
        Simulation::from_boxed(config, Box::new(protocol))
    }

    /// Creates a simulation of an already-boxed protocol — the form the
    /// parallel experiment runner uses.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulation::new`], or if the
    /// config asks for more than one shard (use [`Simulation::from_shards`]
    /// to supply one protocol instance per shard).
    pub fn from_boxed(config: SimConfig, protocol: Box<dyn ReplicaControl>) -> Self {
        assert!(
            config.shards == 1,
            "config wants {} shards; construct with Simulation::from_shards",
            config.shards
        );
        Simulation::from_shards(config, vec![protocol])
    }

    /// Creates a sharded simulation: objects hash across `protocols`, one
    /// independent protocol instance per shard (they must share one replica
    /// universe). `protocols.len()` must equal `config.shards`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, the shard counts disagree or the
    /// universes differ.
    pub fn from_shards(config: SimConfig, protocols: Vec<Box<dyn ReplicaControl>>) -> Self {
        config.validate();
        assert!(
            protocols.len() == config.shards,
            "config wants {} shards but {} protocols were supplied",
            config.shards,
            protocols.len()
        );
        let shards = ShardMap::new(protocols);
        let n = shards.universe().len();
        let rejoin = RejoinManager::new(&config);
        Simulation {
            engine: Engine::new(n, &config),
            coordinator: Coordinator::new(config, n),
            shards,
            rejoin,
        }
    }

    /// Schedules a live reconfiguration: at `at`, client transactions
    /// drain, every object is migrated (read under the old structure,
    /// written to the union of an old and a new write quorum — visible to
    /// both structures whatever happens), and only then does the protocol
    /// swap. The target may be *any* protocol over the same replica set,
    /// including a different family than the one currently running. If any
    /// migration step fails, the swap is abandoned and the old structure
    /// stays in force; safety is preserved either way.
    pub fn schedule_reconfigure(&mut self, at: SimTime, target: impl ReplicaControl + 'static) {
        self.schedule_reconfigure_boxed(at, Box::new(target));
    }

    /// Boxed form of [`Simulation::schedule_reconfigure`]. Targets shard 0
    /// — the whole keyspace in an unsharded simulation.
    pub fn schedule_reconfigure_boxed(&mut self, at: SimTime, target: Box<dyn ReplicaControl>) {
        self.schedule_reconfigure_shard(at, 0, target);
    }

    /// Schedules a live reconfiguration of one shard: only the objects
    /// hashing to `shard` are migrated, and only that shard's protocol
    /// instance is swapped. Other shards resume serving as soon as the
    /// drain-and-migrate completes.
    ///
    /// # Panics
    ///
    /// Panics (at event time) if `shard` is out of range.
    pub fn schedule_reconfigure_shard(
        &mut self,
        at: SimTime,
        shard: usize,
        target: Box<dyn ReplicaControl>,
    ) {
        self.coordinator.queue_reconfigure(shard, target);
        self.engine.schedule(at, Event::Reconfigure);
    }

    /// Schedules a site crash.
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.engine.schedule(at, Event::Crash(site));
    }

    /// Schedules a site recovery.
    pub fn schedule_recover(&mut self, at: SimTime, site: SiteId) {
        self.engine.schedule(at, Event::Recover(site));
    }

    /// Schedules an *amnesia* crash: the site fail-stops and loses its
    /// storage. On the matching [`Simulation::schedule_recover`] it returns
    /// empty, enters [`SiteHealth::Syncing`], and runs the anti-entropy
    /// rejoin protocol before serving quorum traffic again.
    pub fn schedule_amnesia_crash(&mut self, at: SimTime, site: SiteId) {
        self.engine.note_amnesia_scheduled();
        self.engine.schedule(at, Event::AmnesiaCrash(site));
    }

    /// Schedules a partition to be installed mid-run (clear it later by
    /// scheduling [`Partition::none`]). This is the schedulable counterpart
    /// of [`Simulation::set_partition`]: partitions can form and heal while
    /// traffic is in flight.
    pub fn schedule_partition(&mut self, at: SimTime, partition: Partition) {
        self.engine.schedule(at, Event::SetPartition(partition));
    }

    /// Schedules a temporary network-behaviour override (drop burst,
    /// latency spike): `Some(config)` installs it, `None` restores the base
    /// [`crate::NetworkConfig`].
    pub fn schedule_network_override(
        &mut self,
        at: SimTime,
        override_config: Option<crate::NetworkConfig>,
    ) {
        self.engine
            .schedule(at, Event::NetOverride(override_config));
    }

    /// Schedules every step of a [`crate::Nemesis`] script.
    pub fn schedule_nemesis(&mut self, nemesis: &crate::Nemesis) {
        nemesis.apply(self);
    }

    /// Enqueues a scripted transaction for `client`, to be issued at (or
    /// after) `at` — a busy client picks it up once idle. Scripted
    /// transactions take precedence over the random workload.
    ///
    /// # Panics
    ///
    /// Panics if the client id is out of range, the request is empty, an
    /// object is out of range, or an object appears twice.
    pub fn schedule_transaction(&mut self, at: SimTime, client: ClientId, req: TxnRequest) {
        self.coordinator
            .schedule_transaction(&mut self.engine, at, client, req);
    }

    /// Installs a partition immediately (before or between runs).
    pub fn set_partition(&mut self, partition: Partition) {
        self.engine.set_partition(partition);
    }

    /// The protocol of shard 0 — *the* protocol of an unsharded simulation
    /// (after a completed reconfiguration, the migration target).
    pub fn protocol(&self) -> &dyn ReplicaControl {
        self.shards.get(0)
    }

    /// The sharded protocol map (inspection).
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// The engine layer (inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The coordinator layer (inspection).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The rejoin manager (inspection).
    pub fn rejoin(&self) -> &RejoinManager {
        &self.rejoin
    }

    /// Whether the pending event at `key` is a *permanent* no-op: executing
    /// it now — or after any sequence of other events — changes nothing but
    /// the queue. Today this identifies permanently-stale
    /// [`Event::OpTimeout`]s (the operation completed, or its phase counter
    /// moved past the armed attempt; both conditions are irreversible).
    /// A model checker may treat such an event as independent of every
    /// other event.
    pub fn event_is_noop(&self, key: EventKey) -> bool {
        match self.engine.queue.get(key) {
            Some(Event::OpTimeout {
                client,
                op,
                attempt,
            }) => self.coordinator.timeout_is_stale(*client, *op, *attempt),
            Some(Event::SyncRetry { site, epoch, .. }) => self.rejoin.retry_is_stale(*site, *epoch),
            _ => false,
        }
    }

    /// Runs the simulation to its configured end time and reports, firing
    /// events in the classic seeded order (earliest first).
    pub fn run(&mut self) -> SimReport {
        self.run_with(&mut crate::scheduler::SeededScheduler)
    }

    /// Runs the simulation with `scheduler` deciding which pending event
    /// fires at each step — the controlled-nondeterminism entry point used
    /// by the model checker. `run_with(&mut SeededScheduler)` is
    /// byte-identical to [`Simulation::run`].
    ///
    /// The run ends when the scheduler returns `None`, the queue is empty,
    /// or the selected event lies past the configured end time.
    pub fn run_with(&mut self, scheduler: &mut dyn crate::scheduler::Scheduler) -> SimReport {
        // Stagger initial client ticks so they do not synchronize.
        for c in 0..self.coordinator.config.clients as u32 {
            let offset = crate::time::SimDuration::from_micros(u64::from(c) * 37);
            self.engine
                .schedule(SimTime::ZERO + offset, Event::ClientTick(ClientId(c)));
        }
        while let Some(key) = scheduler.select(&*self) {
            if !self.step(key) {
                break;
            }
        }
        self.coordinator.report(&self.engine)
    }

    /// Executes the pending event identified by `key`. Returns `false` (and
    /// consumes the event) when the event lies past the configured end time
    /// or the key is not pending — both end the run.
    ///
    /// When events fire out of time order (a model-checking scheduler), the
    /// clock never moves backwards: simulated time is an abstraction there,
    /// only the *order* of events matters. On the seeded path keys are taken
    /// in `(at, seq)` order, so `max` is the identity and the clock advances
    /// exactly as before.
    fn step(&mut self, key: EventKey) -> bool {
        let Some((at, event)) = self.engine.queue.take(key) else {
            return false;
        };
        if at > self.engine.end {
            return false;
        }
        self.engine.now = self.engine.now.max(at);
        self.dispatch(event);
        true
    }

    /// Routes one event to the engine or the coordinator, then flushes any
    /// payloads the coordinator buffered for batching — every message
    /// issued while handling one event to one destination shares one
    /// envelope (a no-op with batching off).
    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver(msg) => match msg.to {
                // Anti-entropy replies terminate at the rejoin manager, not
                // the site's quorum handler (whose health gate would refuse
                // them while `Syncing`).
                Endpoint::Site(sid)
                    if matches!(
                        msg.payload,
                        Payload::RangeHashResp { .. } | Payload::RangeFill { .. }
                    ) =>
                {
                    if !self.engine.sites[sid.index()].is_up() {
                        self.engine.metrics.messages_to_dead += 1;
                    } else {
                        self.engine.metrics.messages_delivered += 1;
                        self.rejoin.on_message(&mut self.engine, sid, msg);
                    }
                }
                Endpoint::Site(sid) => self.engine.deliver_to_site(sid, msg),
                Endpoint::Client(cid) => {
                    self.engine.metrics.messages_delivered += 1;
                    self.coordinator.on_client_message(
                        &mut self.engine,
                        &mut self.shards,
                        cid,
                        msg,
                    );
                }
            },
            Event::Crash(s) => self.engine.crash(s, CrashMode::Transient),
            Event::AmnesiaCrash(s) => self.engine.crash(s, CrashMode::Amnesia),
            Event::Recover(s) => {
                if self.engine.recover(s) == SiteHealth::Syncing {
                    self.coordinator.on_syncing(s);
                    self.rejoin.on_recover(
                        &mut self.engine,
                        &self.shards,
                        self.coordinator.migration_target(),
                        s,
                    );
                }
            }
            Event::SyncRetry { site, epoch, .. } => {
                self.rejoin.on_retry(
                    &mut self.engine,
                    &self.shards,
                    self.coordinator.migration_target(),
                    site,
                    epoch,
                );
            }
            Event::SetPartition(p) => self.engine.set_partition(p),
            Event::NetOverride(o) => self.engine.set_network_override(o),
            Event::ClientTick(c) => {
                self.coordinator
                    .handle_client_tick(&mut self.engine, &mut self.shards, c);
            }
            Event::Reconfigure => {
                self.coordinator
                    .on_reconfigure_event(&mut self.engine, &mut self.shards);
            }
            Event::OpTimeout {
                client,
                op,
                attempt,
            } => {
                self.coordinator.on_timeout(
                    &mut self.engine,
                    &mut self.shards,
                    client,
                    op,
                    attempt,
                );
            }
        }
        self.engine.flush_outbox();
    }

    /// Snapshot of the run's outcome so far (what [`Simulation::run`]
    /// returns at the end; schedulers that stop a run early can still
    /// report it).
    pub fn report(&self) -> SimReport {
        self.coordinator.report(&self.engine)
    }

    /// The consistency checker (inspection after a run).
    pub fn checker(&self) -> &crate::checker::ConsistencyChecker {
        self.coordinator.checker()
    }

    /// The sites (inspection after a run).
    pub fn sites(&self) -> &[Site] {
        self.engine.sites()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::message::{Message, ObjectId, OpId};
    use crate::time::SimDuration;
    use crate::txn::Phase;
    use arbitree_core::ArbitraryProtocol;
    use bytes::Bytes;
    use std::collections::HashMap;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            clients: 3,
            objects: 2,
            read_fraction: 0.6,
            duration: SimDuration::from_millis(200),
            ..SimConfig::default()
        }
    }

    fn proto() -> ArbitraryProtocol {
        ArbitraryProtocol::parse("1-3-5").unwrap()
    }

    /// A client's slot holds only its current transaction, so a reply or
    /// timeout still in flight for its previous one lands on the current
    /// record: comparing op ids is all that keeps it from counting there.
    #[test]
    fn a_previous_transactions_replies_and_timeouts_leave_the_current_one_alone() {
        let reply = |phase: &Phase, op, obj, ts| match phase {
            Phase::ReadGather => Payload::ReadResp {
                op,
                obj,
                value: Bytes::new(),
                ts,
            },
            Phase::PrepareGather => Payload::PrepareAck {
                op,
                obj,
                ok: true,
                ts,
            },
            _ => Payload::CommitAck { op, obj },
        };
        let (client, previous, current) = (ClientId(0), OpId(0), OpId(1));
        for phase in [Phase::ReadGather, Phase::PrepareGather, Phase::CommitGather] {
            let config = SimConfig {
                clients: 1,
                objects: 1,
                auto_workload: false,
                network: NetworkConfig {
                    min_latency: SimDuration::from_micros(300),
                    max_latency: SimDuration::from_micros(300),
                    drop_probability: 0.0,
                },
                ..small_config(7)
            };
            let mut sim = Simulation::new(config, proto());
            let write = TxnRequest::write(ObjectId(0), Bytes::from_static(b"v"));
            sim.schedule_transaction(SimTime::ZERO, client, write.clone());
            sim.schedule_transaction(SimTime::ZERO, client, write);
            // Run until the second transaction is in `phase`.
            loop {
                let c = &sim.coordinator.clients[0];
                if c.op == Some(current) && c.txn.as_ref().is_some_and(|t| t.phase == phase) {
                    break;
                }
                let key = sim.engine.queue.next_key().expect("the phase is reached");
                assert!(sim.step(key));
            }
            let record = |sim: &Simulation| format!("{:?}", sim.coordinator.clients[0].txn);
            let before = record(&sim);
            let txn = sim.coordinator.clients[0].txn.as_deref().unwrap();
            let site = txn.pending.sites().next().expect("an ack is owed");
            let (obj, ts, now) = (txn.objects[0].obj, txn.objects[0].write_ts, sim.engine.now);
            let msg = |op| Message {
                from: Endpoint::Site(site),
                to: Endpoint::Client(client),
                payload: reply(&phase, op, obj, ts),
                sent_at: now,
            };
            let Simulation {
                engine,
                coordinator,
                shards,
                ..
            } = &mut sim;
            coordinator.on_client_message(engine, shards, client, msg(previous));
            // The previous transaction armed attempts 1 to 3: its read,
            // prepare and commit rounds.
            for attempt in 1..=3 {
                assert!(coordinator.timeout_is_stale(client, previous, attempt));
                coordinator.on_timeout(engine, shards, client, previous, attempt);
            }
            assert_eq!(record(&sim), before, "{phase:?}");
            // The same reply for the current transaction does count.
            let Simulation {
                engine,
                coordinator,
                shards,
                ..
            } = &mut sim;
            coordinator.on_client_message(engine, shards, client, msg(current));
            assert_ne!(record(&sim), before, "{phase:?}");
        }
    }

    #[test]
    fn failure_free_run_is_consistent_and_complete() {
        let mut sim = Simulation::new(small_config(1), proto());
        let report = sim.run();
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(report.metrics.reads_ok > 10, "{}", report.metrics);
        assert!(report.metrics.writes_ok > 5, "{}", report.metrics);
        assert_eq!(report.metrics.reads_failed, 0);
        assert_eq!(report.metrics.writes_failed, 0);
        assert_eq!(report.metrics.txns_failed, 0);
        assert_eq!(
            report.metrics.txns_ok,
            report.metrics.reads_ok + report.metrics.writes_ok,
            "single-op txns: one op each"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let r1 = Simulation::new(small_config(42), proto()).run();
        let r2 = Simulation::new(small_config(42), proto()).run();
        assert_eq!(r1.metrics, r2.metrics);
        let r3 = Simulation::new(small_config(43), proto()).run();
        assert_ne!(r1.metrics, r3.metrics);
    }

    #[test]
    fn boxed_and_concrete_construction_agree() {
        let concrete = Simulation::new(small_config(42), proto()).run();
        let boxed = Simulation::from_boxed(small_config(42), Box::new(proto())).run();
        assert_eq!(concrete, boxed);
    }

    #[test]
    fn crash_of_a_level_blocks_writes_to_it_but_not_reads() {
        let mut sim = Simulation::new(small_config(7), proto());
        // Crash one site per level: every write quorum is broken, but reads
        // still find a live member per level.
        sim.schedule_crash(SimTime::from_millis(1), SiteId::new(0));
        sim.schedule_crash(SimTime::from_millis(1), SiteId::new(3));
        let report = sim.run();
        assert!(report.consistent);
        assert!(report.metrics.reads_ok > 0);
        // Writes cannot assemble any quorum once the failure is detected.
        assert!(report.metrics.writes_failed > 0, "{}", report.metrics);
    }

    #[test]
    fn crash_and_recovery_allows_progress_again() {
        let mut sim = Simulation::new(small_config(11), proto());
        sim.schedule_crash(SimTime::from_millis(1), SiteId::new(0));
        sim.schedule_recover(SimTime::from_millis(60), SiteId::new(0));
        let report = sim.run();
        assert!(report.consistent);
        assert!(report.metrics.writes_ok > 0);
    }

    #[test]
    fn lossy_network_stays_consistent() {
        let mut cfg = small_config(13);
        cfg.network.drop_probability = 0.05;
        let mut sim = Simulation::new(cfg, proto());
        let report = sim.run();
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(report.metrics.messages_dropped() > 0);
        assert!(report.metrics.ops_ok() > 0);
    }

    #[test]
    fn partition_blocks_minority_side_operations() {
        let mut sim = Simulation::new(small_config(17), proto());
        // Isolate level 2 entirely: reads and writes both need it.
        sim.set_partition(Partition::isolate_sites((3..8).map(SiteId::new)));
        let report = sim.run();
        assert!(report.consistent);
        assert_eq!(report.metrics.reads_ok, 0);
        assert_eq!(report.metrics.writes_ok, 0);
        assert!(report.metrics.ops_failed() > 0);
    }

    #[test]
    fn empirical_costs_match_closed_forms_failure_free() {
        let mut cfg = small_config(23);
        cfg.duration = SimDuration::from_millis(400);
        let mut sim = Simulation::new(cfg, proto());
        let report = sim.run();
        // RD_cost = 2, WR_cost avg = 4 for 1-3-5.
        let rc = report.metrics.empirical_read_cost().unwrap();
        assert!((rc - 2.0).abs() < 1e-9, "read cost {rc}");
        let wc = report.metrics.empirical_write_cost().unwrap();
        assert!((wc - 4.0).abs() < 0.6, "write cost {wc}");
    }

    #[test]
    fn storage_converges_to_checker_model() {
        let mut sim = Simulation::new(small_config(29), proto());
        let report = sim.run();
        assert!(report.consistent);
        // Every object's committed value on a full write quorum must match
        // the checker's model for at least one level (the one last written).
        for obj in 0..2u32 {
            if let Some((ts, _)) = sim.checker().committed(ObjectId(obj)) {
                let found = sim
                    .sites()
                    .iter()
                    .any(|s| s.storage().read(ObjectId(obj)).ts == ts);
                assert!(found, "obj{obj} committed ts {ts} not found on any site");
            }
        }
    }

    #[test]
    fn multi_object_transactions_failure_free() {
        let mut cfg = small_config(31);
        cfg.objects = 5;
        cfg.max_txn_ops = 3;
        cfg.record_history = true;
        let mut sim = Simulation::new(cfg, proto());
        let report = sim.run();
        assert!(report.consistent, "violations: {}", report.violations);
        assert_eq!(report.metrics.txns_failed, 0);
        assert!(report.metrics.txns_ok > 10);
        // Multi-op txns: op totals exceed txn totals.
        assert!(
            report.metrics.reads_ok + report.metrics.writes_ok > report.metrics.txns_ok,
            "{}",
            report.metrics
        );
        assert!(report.history.check_linearizable().is_empty());
    }

    #[test]
    fn multi_object_transactions_under_churn() {
        for seed in 0..6u64 {
            let mut cfg = small_config(seed);
            cfg.objects = 4;
            cfg.max_txn_ops = 3;
            cfg.record_history = true;
            let mut sim = Simulation::new(cfg, proto());
            // Periodic crash/recovery of two sites.
            sim.schedule_crash(SimTime::from_millis(20), SiteId::new(1));
            sim.schedule_recover(SimTime::from_millis(70), SiteId::new(1));
            sim.schedule_crash(SimTime::from_millis(100), SiteId::new(4));
            sim.schedule_recover(SimTime::from_millis(150), SiteId::new(4));
            let report = sim.run();
            assert!(
                report.consistent,
                "seed {seed}: {} violations",
                report.violations
            );
            let v = report.history.check_linearizable();
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn transactions_are_atomic_across_objects() {
        // Pure-write multi-object txns: after the run, for any committed
        // txn, every written object's checker model must carry that txn's
        // value at its timestamp — no partial transactions.
        let mut cfg = small_config(37);
        cfg.objects = 4;
        cfg.max_txn_ops = 4;
        cfg.read_fraction = 0.0;
        cfg.record_history = true;
        let mut sim = Simulation::new(cfg, proto());
        let report = sim.run();
        assert!(report.consistent);
        assert!(report.metrics.txns_ok > 5);
        // Group history write events by op: all writes of a txn share the
        // op id; each was recorded exactly once.
        let mut per_op: HashMap<OpId, usize> = HashMap::new();
        for e in report.history.events() {
            *per_op.entry(e.op).or_insert(0) += 1;
        }
        assert!(
            per_op.values().any(|&c| c > 1),
            "some txn wrote several objects"
        );
    }

    fn shard_protos(n: usize) -> Vec<Box<dyn ReplicaControl>> {
        (0..n)
            .map(|_| Box::new(proto()) as Box<dyn ReplicaControl>)
            .collect()
    }

    #[test]
    fn sharded_run_is_consistent_and_deterministic() {
        let mut cfg = small_config(51);
        cfg.objects = 64;
        cfg.shards = 4;
        cfg.max_txn_ops = 3;
        let r1 = Simulation::from_shards(cfg.clone(), shard_protos(4)).run();
        let r2 = Simulation::from_shards(cfg, shard_protos(4)).run();
        assert!(r1.consistent, "violations: {}", r1.violations);
        assert!(r1.metrics.txns_ok > 10, "{}", r1.metrics);
        assert_eq!(r1.metrics, r2.metrics);
    }

    #[test]
    fn batched_run_is_consistent_and_coalesces() {
        let mut cfg = small_config(53);
        cfg.objects = 64;
        cfg.shards = 4;
        cfg.batching = true;
        cfg.max_txn_ops = 4;
        cfg.record_history = true;
        let report = Simulation::from_shards(cfg, shard_protos(4)).run();
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(report.metrics.txns_ok > 10, "{}", report.metrics);
        assert!(report.metrics.batches_sent > 0, "{}", report.metrics);
        // Every batch coalesces at least two payloads by construction.
        assert!(report.metrics.batched_payloads >= 2 * report.metrics.batches_sent);
        assert!(report.history.check_linearizable().is_empty());
    }

    #[test]
    fn batched_lossy_churny_run_stays_consistent() {
        for seed in 0..4u64 {
            let mut cfg = small_config(seed);
            cfg.objects = 16;
            cfg.shards = 2;
            cfg.batching = true;
            cfg.max_txn_ops = 3;
            cfg.network.drop_probability = 0.05;
            let mut sim = Simulation::from_shards(cfg, shard_protos(2));
            sim.schedule_crash(SimTime::from_millis(20), SiteId::new(2));
            sim.schedule_recover(SimTime::from_millis(80), SiteId::new(2));
            let report = sim.run();
            assert!(
                report.consistent,
                "seed {seed}: {} violations",
                report.violations
            );
        }
    }

    #[test]
    fn sharded_reconfigure_swaps_only_the_target_shard() {
        let mut cfg = small_config(57);
        cfg.objects = 32;
        cfg.shards = 2;
        cfg.duration = SimDuration::from_millis(300);
        let mut sim = Simulation::from_shards(cfg, shard_protos(2));
        let target = ArbitraryProtocol::parse("1-4-4").unwrap();
        let target_desc = target.describe();
        let original_desc = sim.protocol().describe();
        sim.schedule_reconfigure_shard(SimTime::from_millis(50), 1, Box::new(target));
        let report = sim.run();
        assert!(report.consistent, "violations: {}", report.violations);
        assert_eq!(report.metrics.reconfigurations, 1, "{}", report.metrics);
        assert_eq!(sim.shards().get(0).describe(), original_desc);
        assert_eq!(sim.shards().get(1).describe(), target_desc);
    }

    #[test]
    fn unbatched_single_shard_emits_no_batches() {
        let report = Simulation::new(small_config(1), proto()).run();
        assert_eq!(report.metrics.batches_sent, 0);
        assert_eq!(report.metrics.batched_payloads, 0);
    }

    #[test]
    fn deadlock_free_under_high_contention() {
        // Many clients, few objects, large transactions: ordered acquisition
        // must prevent deadlock (progress continues to the end).
        let mut cfg = small_config(41);
        cfg.clients = 6;
        cfg.objects = 3;
        cfg.max_txn_ops = 3;
        cfg.read_fraction = 0.2;
        cfg.duration = SimDuration::from_millis(300);
        let mut sim = Simulation::new(cfg, proto());
        let report = sim.run();
        assert!(report.consistent);
        assert!(report.metrics.txns_ok > 20, "{}", report.metrics);
        // No transaction should be stuck in LockWait at the end beyond the
        // handful naturally in flight.
        assert!(
            report.ops_incomplete <= 6,
            "{} incomplete",
            report.ops_incomplete
        );
    }
}
