//! Small, fully-scripted configurations for exhaustive exploration.
//!
//! A [`Scenario`] is a *derandomized* simulation setup: fixed latency
//! (`min == max`), zero drop probability, fixed retry pacing, and no
//! random workload — only scripted transactions. Under those constraints
//! site-bound deliveries draw **zero** RNG, which is what makes the
//! explorer's independence relation sound: the only remaining draws are
//! coordinator-side (quorum picks, think-time jitter), and coordinator-side
//! events are never treated as independent of each other.

use crate::mutations::Mutation;
use arbitree_sim::{
    ClientId, NetworkConfig, RetryPolicy, SimConfig, SimDuration, SimTime, Simulation, TxnRequest,
};
use bytes::Bytes;

/// One scripted transaction in a scenario.
#[derive(Debug, Clone)]
pub struct ScriptStep {
    /// Issue time (microseconds of simulated time).
    pub at_micros: u64,
    /// Issuing client.
    pub client: u32,
    /// The transaction.
    pub req: TxnRequest,
}

/// A small, fully-scripted configuration for the explorer.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Tree spec for the [`arbitree_core::ArbitraryProtocol`] under test.
    pub spec: &'static str,
    /// Number of clients (each step's `client` must be below this).
    pub clients: usize,
    /// Number of replicated objects.
    pub objects: usize,
    /// Number of keyspace shards (independent protocol instances). `1`
    /// for every pre-sharding scenario.
    pub shards: usize,
    /// Quorum-assembly attempts before an operation aborts.
    pub max_attempts: u32,
    /// Scripted transactions.
    pub script: Vec<ScriptStep>,
    /// Site crashes, as `(micros, site)` — ordered by the explorer like any
    /// other pending event.
    pub crashes: Vec<(u64, u32)>,
    /// Amnesia crashes: storage wiped, recovery re-enters through the
    /// staged `Syncing` rejoin instead of serving directly.
    pub amnesia: Vec<(u64, u32)>,
    /// Site recoveries.
    pub recovers: Vec<(u64, u32)>,
    /// Depth at which the smoke budget drains this scenario's state space
    /// (bounded-tier scenarios use the budget's own depth and never
    /// drain).
    pub smoke_depth: usize,
    /// Depth for the full (EXPERIMENTS.md) budget.
    pub full_depth: usize,
    /// Engine-level coalescing of same-tick same-destination payloads into
    /// [`arbitree_sim::Payload::Batch`] envelopes. Off for the historical
    /// scenarios (their pinned schedule counts predate batching); on where
    /// the scenario exists to put a `Batch` on the wire.
    pub batching: bool,
    /// Coordinator read-repair: stale read-quorum members receive
    /// [`arbitree_sim::Payload::Repair`] pushes. Off for the historical
    /// scenarios; on where the scenario needs fire-and-forget repairs
    /// co-pending with other site traffic.
    pub read_repair: bool,
}

impl Scenario {
    /// Builds a fresh simulation of this scenario, optionally with a
    /// protocol mutation compiled in. Asserts the configuration is
    /// derandomized (see module docs) — the explorer's independence
    /// relation is only sound under those constraints.
    pub fn build(&self, mutation: Option<&Mutation>) -> Simulation {
        let network = NetworkConfig {
            min_latency: SimDuration::from_micros(100),
            max_latency: SimDuration::from_micros(100),
            drop_probability: 0.0,
        };
        let config = SimConfig {
            seed: 7,
            clients: self.clients,
            objects: self.objects,
            shards: self.shards,
            max_attempts: self.max_attempts,
            retry: RetryPolicy::Fixed,
            auto_workload: false,
            record_history: false,
            read_repair: self.read_repair,
            batching: self.batching,
            network,
            op_timeout: SimDuration::from_millis(3),
            // Effectively unbounded: exploration is depth-limited, never
            // wall-clock-limited, and no explored schedule gets anywhere
            // near this horizon.
            duration: SimDuration::from_millis(600_000),
            fault: mutation.and_then(Mutation::fault),
            ..SimConfig::default()
        };
        assert_eq!(
            config.network.min_latency, config.network.max_latency,
            "explorer requires fixed latency (no per-send RNG draw)"
        );
        assert_eq!(
            config.network.drop_probability, 0.0,
            "explorer requires lossless links (no per-send RNG draw)"
        );
        assert!(
            matches!(config.retry, RetryPolicy::Fixed),
            "explorer requires fixed retry pacing (no jitter draw)"
        );
        assert!(
            !config.auto_workload,
            "explorer requires a fully scripted workload"
        );
        // Scripted steps must all be due at t=0: the explorer fires events
        // out of time order and treats clock advancement as a label, which
        // is only sound when no scripted transaction's due-time can flip
        // from "not yet" to "due" depending on which event advanced the
        // clock. (Crashes/recoveries are ordinary events, not due-times,
        // so they may be scheduled later.)
        assert!(
            self.script.iter().all(|s| s.at_micros == 0),
            "explorer scenarios must script every transaction at t=0"
        );
        let protocols = (0..self.shards)
            .map(|_| Mutation::protocol(mutation, self.spec))
            .collect();
        let mut sim = Simulation::from_shards(config, protocols);
        for &(at, site) in &self.crashes {
            sim.schedule_crash(SimTime::from_micros(at), arbitree_quorum::SiteId::new(site));
        }
        for &(at, site) in &self.amnesia {
            sim.schedule_amnesia_crash(
                SimTime::from_micros(at),
                arbitree_quorum::SiteId::new(site),
            );
        }
        for &(at, site) in &self.recovers {
            sim.schedule_recover(SimTime::from_micros(at), arbitree_quorum::SiteId::new(site));
        }
        for step in &self.script {
            sim.schedule_transaction(
                SimTime::from_micros(step.at_micros),
                ClientId(step.client),
                step.req.clone(),
            );
        }
        sim
    }

    /// One client writes then reads one object on a 3-site
    /// single-physical-level tree (`1-3`). Small enough to exhaust
    /// completely — the single-level row of the exhaustive table — and
    /// the scenario that catches premature commit acknowledgement (the
    /// read must land *after* the premature completion, on a site whose
    /// `Commit` is still in flight).
    pub fn write_then_read() -> Scenario {
        Scenario {
            name: "write-then-read",
            spec: "1-3",
            clients: 1,
            objects: 1,
            shards: 1,
            max_attempts: 1,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"fresh"))),
                step(0, 0, TxnRequest::read(obj(0))),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 18,
            full_depth: 22,
            batching: false,
            read_repair: false,
        }
    }

    /// The same sequential write-then-read on the 4-site two-level tree
    /// (`p:1-3`): the two-physical-level row of the exhaustive table
    /// (read quorums span both levels; write quorums are whole levels).
    pub fn write_then_read_tree() -> Scenario {
        Scenario {
            name: "write-then-read-tree",
            spec: "p:1-3",
            clients: 1,
            objects: 1,
            shards: 1,
            max_attempts: 1,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"fresh"))),
                step(0, 0, TxnRequest::read(obj(0))),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 26,
            full_depth: 30,
            batching: false,
            read_repair: false,
        }
    }

    /// Two writers race on one object over a 3-site single-physical-level tree (`1-3`).
    pub fn writers_race() -> Scenario {
        Scenario {
            name: "writers-race",
            spec: "1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"alpha"))),
                step(0, 1, TxnRequest::write(obj(0), val(b"beta"))),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// A writer races two back-to-back readers on a 3-site single-physical-level
    /// tree — the scenario that catches premature lock release and
    /// premature commit acknowledgement.
    pub fn write_read_race() -> Scenario {
        Scenario {
            name: "write-read-race",
            spec: "1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"fresh"))),
                step(0, 1, TxnRequest::read(obj(0))),
                step(0, 1, TxnRequest::read(obj(0))),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// A crash starves write quorums while two writers contend, forcing
    /// aborts (`max_attempts = 1`) — the scenario that catches leaked
    /// locks on the abort path.
    pub fn crash_abort() -> Scenario {
        Scenario {
            name: "crash-abort",
            spec: "1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 1,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"doomed"))),
                step(0, 1, TxnRequest::write(obj(0), val(b"queued"))),
            ],
            crashes: vec![(0, 2)],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// A writer and a reader race across a crash/recovery of a leaf on a
    /// 4-site two-level tree (`p:1-3`) — the two-physical-level
    /// configuration required for exhaustive exploration, and the one the
    /// quorum-structure mutations target.
    pub fn write_crash_recover() -> Scenario {
        Scenario {
            name: "write-crash-recover",
            spec: "p:1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"durable"))),
                step(0, 1, TxnRequest::read(obj(0))),
            ],
            crashes: vec![(0, 3)],
            amnesia: vec![],
            recovers: vec![(200, 3)],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// Two writers on *different shards*: objects 0 and 2 hash to
    /// different instances under `shard_index(·, 2)`, so the two
    /// transactions share no object, no object lock, and no protocol
    /// instance. With the object-tagged independence relation their
    /// same-site deliveries commute, so DPOR needs strictly fewer
    /// schedules to exhaust a given interleaving window. Unlike the other
    /// bounded scenarios, `smoke_depth`/`full_depth` here are *drain
    /// depths*: bounds at which refined-DPOR, site-only DPOR, and naive
    /// DFS all exhaust the prefix tree, making the ablation's
    /// schedule-count comparison exact rather than budget-censored. (The
    /// coverage row still explores it at the bounded tier's own deep
    /// budget, like its siblings.)
    pub fn cross_shard() -> Scenario {
        Scenario {
            name: "cross-shard",
            spec: "1-3",
            clients: 2,
            objects: 3,
            shards: 2,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"left"))),
                step(0, 1, TxnRequest::write(obj(2), val(b"right"))),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 8,
            full_depth: 10,
            batching: false,
            read_repair: false,
        }
    }

    /// A two-object transfer races a reader of both objects, unbatched,
    /// with the objects on different shards (0 and 2, as in
    /// [`Scenario::cross_shard`]): each transaction reads both of its
    /// objects in one round, one `ReadReq` per quorum member and object,
    /// and the transfer then prepares and commits both writes together.
    /// The reader must see each object's value either before the transfer
    /// or after it. Like `cross-shard`, `smoke_depth`/`full_depth` are
    /// drain depths for the object-independence ablation.
    pub fn transfer() -> Scenario {
        Scenario {
            name: "transfer",
            spec: "1-3",
            clients: 2,
            objects: 3,
            shards: 2,
            max_attempts: 3,
            script: vec![
                step(
                    0,
                    0,
                    TxnRequest {
                        reads: Vec::new(),
                        writes: vec![(obj(0), val(b"debit")), (obj(2), val(b"credit"))],
                    },
                ),
                step(
                    0,
                    1,
                    TxnRequest {
                        reads: vec![obj(0), obj(2)],
                        writes: Vec::new(),
                    },
                ),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 8,
            full_depth: 10,
            batching: false,
            read_repair: false,
        }
    }

    /// A writer and a reader race across an *amnesia* crash of a leaf on
    /// the 4-site two-level tree (`p:1-3`): the recovery re-enters through
    /// the staged `Syncing` rejoin, so exploration covers every
    /// interleaving of the 2PC rounds with the range-hash probe/fill
    /// exchange and the serving flip. The explorer may also fire the
    /// recovery *before* the amnesia crash, covering the degenerate
    /// recover-while-up and down-until-horizon orders. The invariants
    /// under test: no schedule lets the syncing site answer a quorum
    /// message, and no schedule reads stale data after the rejoin
    /// completes.
    pub fn amnesia_rejoin() -> Scenario {
        Scenario {
            name: "amnesia-rejoin",
            spec: "p:1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"durable"))),
                step(0, 1, TxnRequest::read(obj(0))),
            ],
            crashes: vec![],
            amnesia: vec![(0, 3)],
            recovers: vec![(300, 3)],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// A writer and a twice-reading reader on the 3-site single-level tree
    /// (`1-3`, whose one write quorum is every site). On the seeded path
    /// sites 1 and 2 crash transiently before the writer's `Commit`
    /// reaches them and recover holding only its stage, while site 0
    /// commits, acknowledges, is wiped and recovers between its
    /// `CommitAck` and the end of CommitGather. Its rejoin syncs from a
    /// level-mate that has not committed the write, so site 0 serves
    /// again without it: the coordinator must expect site 0's
    /// acknowledgement again, or once the re-sent commits reach sites 1
    /// and 2 the write completes and a read through site 0 returns the
    /// older version. The explorer may fire the crashes and the wipe
    /// anywhere else too.
    pub fn wipe_during_commit() -> Scenario {
        Scenario {
            name: "wipe-during-commit",
            spec: "1-3",
            clients: 2,
            objects: 1,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(0), val(b"acked"))),
                step(0, 1, TxnRequest::read(obj(0))),
                step(0, 1, TxnRequest::read(obj(0))),
            ],
            crashes: vec![(450, 1), (450, 2)],
            amnesia: vec![(650, 0)],
            recovers: vec![(550, 1), (550, 2), (700, 0)],
            smoke_depth: 44,
            full_depth: 60,
            batching: false,
            read_repair: false,
        }
    }

    /// A writer, a repairing reader, and a multi-object reader on the
    /// 4-site two-level tree (`p:1-3`), with engine batching *and*
    /// coordinator read-repair enabled. On this tree a write quorum is one
    /// whole physical level, so the other level is always stale and client
    /// 0's follow-up read triggers a `Repair` push to it; meanwhile client
    /// 1's two-object read gather coalesces its same-destination
    /// `ReadReq`s into a `Batch` envelope (the root is in *every* read
    /// quorum, so the envelope always exists). That makes a
    /// fire-and-forget `Repair {obj 1}` co-pend with a `Batch` at the same
    /// site — exactly the `None`-tagged-vs-`Some`-tagged same-site pair
    /// the independence relation must keep *dependent*, and the pair the
    /// `object-tag-unguarded` and `batch-first-object` relation mutations
    /// wrongly split. The audit oracle kills both here.
    pub fn batched_repair() -> Scenario {
        Scenario {
            name: "batched-repair",
            spec: "p:1-3",
            clients: 2,
            objects: 2,
            shards: 1,
            max_attempts: 3,
            script: vec![
                step(0, 0, TxnRequest::write(obj(1), val(b"fresh"))),
                step(0, 0, TxnRequest::read(obj(1))),
                step(
                    0,
                    1,
                    TxnRequest {
                        reads: vec![obj(0), obj(1)],
                        writes: Vec::new(),
                    },
                ),
            ],
            crashes: vec![],
            amnesia: vec![],
            recovers: vec![],
            smoke_depth: 44,
            full_depth: 60,
            batching: true,
            read_repair: true,
        }
    }

    /// The exhaustive tier: one configuration per required tree shape,
    /// small enough for the explorer to drain the whole state space
    /// within budget (in both DPOR and naive modes, so the pruning
    /// factor is exact).
    pub fn exhaustive() -> Vec<Scenario> {
        vec![
            Scenario::write_then_read(),
            Scenario::write_then_read_tree(),
        ]
    }

    /// The bounded tier: contended multi-client scenarios whose full
    /// state space exceeds any practical budget. Explored
    /// budget-bounded (still useful: every explored schedule is
    /// invariant-checked), and used as mutation-kill targets, where
    /// exploration stops at the first violation anyway.
    pub fn bounded() -> Vec<Scenario> {
        vec![
            Scenario::writers_race(),
            Scenario::write_read_race(),
            Scenario::crash_abort(),
            Scenario::write_crash_recover(),
            Scenario::amnesia_rejoin(),
            Scenario::wipe_during_commit(),
            Scenario::batched_repair(),
            Scenario::cross_shard(),
            Scenario::transfer(),
        ]
    }

    /// Every scenario, in report order.
    pub fn all() -> Vec<Scenario> {
        let mut v = Scenario::exhaustive();
        v.extend(Scenario::bounded());
        v
    }
}

fn step(at_micros: u64, client: u32, req: TxnRequest) -> ScriptStep {
    ScriptStep {
        at_micros,
        client,
        req,
    }
}

fn obj(i: u32) -> arbitree_sim::ObjectId {
    arbitree_sim::ObjectId(i)
}

fn val(v: &[u8]) -> Bytes {
    Bytes::copy_from_slice(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_run_seeded() {
        for s in Scenario::all() {
            let mut sim = s.build(None);
            let report = sim.run();
            assert!(
                report.consistent,
                "{}: {} violations",
                s.name, report.violations
            );
        }
    }
}
