//! The read phase reads every object of a transaction in one round, with
//! batching on or off, and a read retry re-sends only what is still owed.
//!
//! Each object's read (and each write's version lookup) is its own
//! read-quorum access, and the coordinator holds all of the transaction's
//! strict-2PL locks before its first read, so all of them go out in one
//! event. These tests pin the two consequences end to end: a transaction's
//! latency does not grow with its object count, and a timeout re-picks the
//! quorums of only the objects whose responses are missing.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::SiteId;
use arbitree_sim::{
    ClientId, Endpoint, Event, EventKey, HistoryKind, NetworkConfig, ObjectId, Payload,
    RetryPolicy, Scheduler, SimConfig, SimDuration, SimTime, Simulation, TxnRequest,
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
