//! The read phase reads every object of a transaction in one round, with
//! batching on or off, and a read retry re-sends only what is still owed.
//!
//! Each object's read (and each write's version lookup) is its own
//! read-quorum access, and the coordinator holds all of the transaction's
//! strict-2PL locks before its first read, so all of them go out in one
//! event. These tests pin the consequences end to end: a transaction's
//! latency does not grow with its object count, a timeout re-picks the
//! quorums of only the objects whose responses are missing, a re-picked
//! member that already answered for the object is not asked again, and a
//! retry whose re-picked quorums all answered already completes the read.

use arbitree_core::{ArbitraryProtocol, ArbitraryTree};
use arbitree_quorum::SiteId;
use arbitree_sim::{
    ClientId, Endpoint, Event, EventKey, FailureSchedule, HistoryKind, NetworkConfig,
    ObjectDistribution, ObjectId, OpId, Payload, RetryPolicy, Scheduler, SimConfig, SimDuration,
    SimTime, Simulation, TxnRequest,
};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// One link latency: every round trip takes exactly twice this.
const LINK_US: u64 = 300;

fn config(batching: bool) -> SimConfig {
    SimConfig {
        seed: 29,
        clients: 1,
        objects: 8,
        auto_workload: false,
        record_history: true,
        batching,
        retry: RetryPolicy::Fixed,
        network: NetworkConfig {
            min_latency: SimDuration::from_micros(LINK_US),
            max_latency: SimDuration::from_micros(LINK_US),
            drop_probability: 0.0,
        },
        duration: SimDuration::from_millis(100),
        ..SimConfig::default()
    }
}

fn sim(batching: bool) -> Simulation {
    Simulation::new(config(batching), ArbitraryProtocol::parse("1-3-5").unwrap())
}

fn value(obj: u32) -> Bytes {
    Bytes::copy_from_slice(&obj.to_be_bytes())
}

/// Objects `0..k`, the even ones written and the odd ones read.
fn mixed(k: u32) -> TxnRequest {
    TxnRequest {
        reads: (0..k).filter(|o| o % 2 == 1).map(ObjectId).collect(),
        writes: (0..k)
            .filter(|o| o % 2 == 0)
            .map(|o| (ObjectId(o), value(o)))
            .collect(),
    }
}

#[test]
fn a_transaction_takes_three_round_trips_whatever_its_object_count() {
    for batching in [false, true] {
        for k in 1..=4 {
            let mut sim = sim(batching);
            sim.schedule_transaction(SimTime::ZERO, ClientId(0), mixed(k));
            let report = sim.run();
            assert!(report.consistent, "batching={batching} k={k}");
            assert_eq!(report.metrics.txns_ok, 1, "batching={batching} k={k}");
            assert_eq!(report.metrics.timeouts_fired, 0);
            let events = report.history.events();
            assert_eq!(events.len(), k as usize);
            // One read round, one prepare round, one commit round.
            for e in events {
                assert_eq!(
                    (e.responded - e.invoked).as_micros(),
                    3 * 2 * LINK_US,
                    "batching={batching} k={k}: {e:?}"
                );
            }
        }
    }
}

/// Fires the earliest event, like the seeded scheduler, and logs every
/// `ReadReq` it delivers as `(sent_at, to, obj)`, batched ones included.
#[derive(Default)]
struct ReadReqLog(Vec<(SimTime, SiteId, ObjectId)>);

impl Scheduler for ReadReqLog {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let queue = sim.engine().queue();
        let key = queue.next_key()?;
        if let Some(Event::Deliver(msg)) = queue.get(key) {
            let payloads = match &msg.payload {
                Payload::Batch(inner) => inner.as_slice(),
                single => std::slice::from_ref(single),
            };
            for p in payloads {
                if let (Endpoint::Site(to), Payload::ReadReq { obj, .. }) = (msg.to, p) {
                    self.0.push((msg.sent_at, to, *obj));
                }
            }
        }
        Some(key)
    }
}

#[test]
fn a_read_retry_resends_only_the_objects_a_crashed_member_owed() {
    const OBJECTS: u32 = 6;
    let crashed = SiteId::new(0);
    let read_at = SimTime::from_millis(10);
    for batching in [false, true] {
        let mut sim = sim(batching);
        let all: Vec<ObjectId> = (0..OBJECTS).map(ObjectId).collect();
        let writes = all.iter().map(|&o| (o, value(o.0))).collect();
        let write = TxnRequest {
            reads: Vec::new(),
            writes,
        };
        sim.schedule_transaction(SimTime::ZERO, ClientId(0), write);
        sim.schedule_crash(SimTime::from_millis(5), crashed);
        sim.schedule_transaction(
            read_at,
            ClientId(0),
            TxnRequest {
                reads: all.clone(),
                writes: Vec::new(),
            },
        );
        let mut log = ReadReqLog::default();
        let report = sim.run_with(&mut log);
        let label = format!("batching={batching}");
        assert!(report.consistent, "{label}");
        assert_eq!(report.metrics.txns_ok, 2, "{label}");
        assert_eq!(report.metrics.retries_read, 1, "{label}");

        // The first attempt: every object's quorum, all sent at once.
        let first: Vec<_> = log.0.iter().filter(|r| r.0 == read_at).collect();
        let sent: BTreeSet<ObjectId> = first.iter().map(|r| r.2).collect();
        assert_eq!(sent, all.iter().copied().collect(), "{label}");
        let owed: BTreeSet<ObjectId> = first
            .iter()
            .filter(|r| r.1 == crashed)
            .map(|r| r.2)
            .collect();
        // The seed puts the crashed site in some quorums, not all.
        assert!(
            !owed.is_empty() && owed.len() < all.len(),
            "{label}: {owed:?}"
        );

        // The retry: one timeout later, only the owed objects, never to
        // the suspected site.
        let retry: Vec<_> = log.0.iter().filter(|r| r.0 > read_at).collect();
        let resent: BTreeSet<ObjectId> = retry.iter().map(|r| r.2).collect();
        assert_eq!(resent, owed, "{label}");
        assert!(retry.iter().all(|r| r.1 != crashed), "{label}");
        let resent_at: BTreeSet<SimTime> = retry.iter().map(|r| r.0).collect();
        assert_eq!(resent_at.len(), 1, "{label}");

        // Every read returns the value the write committed.
        let events = report.history.events();
        let committed: BTreeMap<ObjectId, _> = events
            .iter()
            .filter(|e| e.kind == HistoryKind::Write)
            .map(|e| (e.obj, e.ts))
            .collect();
        let read: BTreeMap<ObjectId, _> = events
            .iter()
            .filter(|e| e.kind == HistoryKind::Read)
            .map(|e| (e.obj, e.ts))
            .collect();
        assert_eq!(read, committed, "{label}");
        assert_eq!(read.len(), all.len(), "{label}");
    }
}

/// Fires the earliest event, like the seeded scheduler, and logs every
/// delivered `ReadReq` as `(sent_at, op, obj, site)` and when the first
/// `ReadResp` of each `(op, obj, site)` reached its client.
#[derive(Default)]
struct ReadExchangeLog {
    requests: Vec<(SimTime, OpId, ObjectId, SiteId)>,
    answered: BTreeMap<(OpId, ObjectId, SiteId), SimTime>,
}

impl Scheduler for ReadExchangeLog {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let queue = sim.engine().queue();
        let key = queue.next_key()?;
        if let Some(Event::Deliver(msg)) = queue.get(key) {
            let payloads = match &msg.payload {
                Payload::Batch(inner) => inner.as_slice(),
                single => std::slice::from_ref(single),
            };
            for p in payloads {
                match (msg.from, msg.to, p) {
                    (_, Endpoint::Site(to), Payload::ReadReq { op, obj }) => {
                        self.requests.push((msg.sent_at, *op, *obj, to));
                    }
                    (
                        Endpoint::Site(from),
                        Endpoint::Client(_),
                        Payload::ReadResp { op, obj, .. },
                    ) => {
                        self.answered.entry((*op, *obj, from)).or_insert(key.at);
                    }
                    _ => {}
                }
            }
        }
        Some(key)
    }
}

/// Hot-churn-shaped runs (Zipfian keys, FIFO 300 µs links with 1% loss,
/// crashes with amnesia), where read retries are common: no `ReadReq` goes
/// to a member after its response for that object reached the
/// coordinator. Before read retries skipped such members, 17% of the
/// re-sent `ReadReq`s went to them.
#[test]
fn a_read_retry_never_asks_a_member_that_already_answered() {
    let (mut resent, mut to_answered, mut retries) = (0usize, 0usize, 0u64);
    for seed in 1..=4u64 {
        let duration = SimDuration::from_millis(3_000);
        let config = SimConfig {
            seed,
            clients: 16,
            objects: 1 << 16,
            read_fraction: 0.5,
            max_txn_ops: 4,
            object_distribution: ObjectDistribution::Zipfian { exponent: 1.0 },
            retry: RetryPolicy::Exponential {
                cap: SimDuration::from_millis(24),
                jitter: 0.25,
            },
            network: NetworkConfig {
                min_latency: SimDuration::from_micros(LINK_US),
                max_latency: SimDuration::from_micros(LINK_US),
                drop_probability: 0.01,
            },
            duration,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-3-5").unwrap());
        FailureSchedule::random_with_amnesia(
            8,
            duration,
            SimDuration::from_millis(400),
            SimDuration::from_millis(40),
            0.03,
            seed ^ 0xFA17,
        )
        .apply(&mut sim);
        let mut log = ReadExchangeLog::default();
        let report = sim.run_with(&mut log);
        assert!(report.consistent, "seed {seed}");
        retries += report.metrics.retries_read;
        // A transaction's first read round goes out at one instant; a
        // request sent later is a retry's.
        let mut first_sent: BTreeMap<OpId, SimTime> = BTreeMap::new();
        for &(at, op, _, _) in &log.requests {
            first_sent.entry(op).or_insert(at);
        }
        for &(at, op, obj, site) in &log.requests {
            if at > first_sent[&op] {
                resent += 1;
                // Under fixed latency a response never ties with a send of
                // its own transaction, so `>` is exact.
                if log
                    .answered
                    .get(&(op, obj, site))
                    .is_some_and(|&got| at > got)
                {
                    to_answered += 1;
                }
            }
        }
    }
    assert!(
        retries > 100 && resent > 100,
        "{retries} retries, {resent} re-sent"
    );
    assert_eq!(to_answered, 0, "of {resent} re-sent ReadReqs");
}

/// Holds back read responses by round: of the requests sent at a read's
/// first instant, only the first physical level's members get to answer;
/// of those sent at its second, only the second level's; later rounds
/// are answered in full. Otherwise it fires the earliest event.
struct LevelByRound {
    first_level: BTreeSet<SiteId>,
    /// Each reading op's distinct `ReadReq` send instants, in order.
    rounds: BTreeMap<OpId, Vec<SimTime>>,
}

impl LevelByRound {
    fn held(&self, msg: &arbitree_sim::Message) -> bool {
        let (Endpoint::Site(from), Payload::ReadResp { op, .. }) = (msg.from, &msg.payload) else {
            return false;
        };
        // A site answers a request the moment it arrives.
        let asked = msg.sent_at.as_micros() - LINK_US;
        let round = self
            .rounds
            .get(op)
            .and_then(|r| r.iter().position(|t| t.as_micros() == asked));
        match round {
            Some(0) => !self.first_level.contains(&from),
            Some(1) => self.first_level.contains(&from),
            _ => false,
        }
    }
}

impl Scheduler for LevelByRound {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let queue = sim.engine().queue();
        let key = queue.iter().find_map(|(key, event)| match event {
            Event::Deliver(msg) if self.held(msg) => None,
            _ => Some(key),
        })?;
        if let Some(Event::Deliver(msg)) = queue.get(key) {
            if let Payload::ReadReq { op, .. } = msg.payload {
                let rounds = self.rounds.entry(op).or_default();
                if !rounds.contains(&msg.sent_at) {
                    rounds.push(msg.sent_at);
                }
            }
        }
        Some(key)
    }
}

/// A read retry whose re-picked quorum already answered in full has
/// nothing to send: the read round is complete there and then. Each
/// second-level member of the first quorum and first-level member of the
/// second stays silent, so when the third pick falls on the first
/// round's first-level member and the second round's second-level
/// member, the transaction must finish its read at that timeout, not
/// retry until it aborts.
#[test]
fn a_retry_whose_quorums_all_answered_completes_the_read() {
    let tree = ArbitraryTree::parse("1-3-5").unwrap();
    let first_level: BTreeSet<SiteId> = tree
        .level_sites(tree.physical_levels()[0])
        .iter()
        .copied()
        .collect();
    let mut completed_without_asking = 0;
    for seed in 0..48 {
        let mut sim = Simulation::new(
            SimConfig {
                seed,
                ..config(false)
            },
            ArbitraryProtocol::new(tree.clone()),
        );
        sim.schedule_transaction(
            SimTime::ZERO,
            ClientId(0),
            TxnRequest::write(ObjectId(0), value(0)),
        );
        sim.schedule_transaction(
            SimTime::from_millis(10),
            ClientId(0),
            TxnRequest::read(ObjectId(0)),
        );
        let mut scheduler = LevelByRound {
            first_level: first_level.clone(),
            rounds: BTreeMap::new(),
        };
        let report = sim.run_with(&mut scheduler);
        let m = &report.metrics;
        assert!(report.consistent, "seed {seed}");
        assert_eq!((m.txns_ok, m.reads_ok), (2, 1), "seed {seed}: {m:?}");
        let read_rounds = scheduler.rounds.values().last().map_or(0, Vec::len);
        if m.retries_read == 2 && read_rounds == 2 {
            completed_without_asking += 1;
        }
    }
    assert!(
        completed_without_asking > 0,
        "no seed completed a read without asking"
    );
    println!(
        "{completed_without_asking} of 48 seeds completed a read at a retry that asked no one"
    );
}
