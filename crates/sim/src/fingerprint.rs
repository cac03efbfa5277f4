//! State fingerprinting for the model checker.
//!
//! [`Simulation::fingerprint`] reduces the *logical* simulation state to a
//! pair of FNV-1a hashes, 64 and 128 bits wide. Two states with equal
//! fingerprints behave identically under every future schedule (modulo
//! hash collisions), which is what lets `arbitree-check` prune branches
//! that re-converge to a visited state. The 128-bit lane exists so the
//! collision audit can count how often distinct states share a 64-bit
//! value.
//!
//! The state is hashed from its fields through [`std::hash::Hash`], never
//! through formatted text: most types derive `Hash`, and a hand-written
//! impl says what it leaves out or reorders.
//!
//! What goes in — everything future behaviour can depend on:
//!
//! * per-site storage and liveness (the replicas' durable state), each
//!   site's committed and staged writes in sorted object order, so two
//!   schedules that commit the same objects in different orders reach the
//!   same fingerprint;
//! * the run RNG (quorum picks and think-time jitter draw from it);
//! * each shard's live protocol, as its `describe()` text (a completed
//!   reconfiguration swaps one, with no other trace in the state);
//! * the network's configuration, override and partition;
//! * the coordinator's transaction machine: per-client state, every
//!   in-flight [`crate::txn::TxnState`], the lock tables, the consistency
//!   checker's model, and the reconfiguration machine (an idle client's
//!   record holds only leftovers and stays out);
//! * the pending scripted transactions, each tagged with whether it is
//!   already *due* (`at ≤ now`) — the only way the clock feeds behaviour;
//! * the rejoin manager's sources, sessions, retry counts and epochs;
//! * the multiset of pending events, each hashed by its content
//!   ([`Event::shape_hash`]) and combined order-independently.
//!
//! What stays out: event scheduling times and message `sent_at` stamps
//! (under a controlled scheduler, time is a label — only the order chosen
//! by the scheduler matters), each client's round-trip estimator and each
//! in-flight transaction's phase stamps and per-phase retry count (they
//! set only when its timeouts are due, a time), sequence numbers (two
//! interleavings that reach the same state label their pending events
//! differently), the range tree and its install log (a function of the
//! committed map), the lock manager's spare pool (an allocation cache),
//! and the observational channels (metrics, history, per-op and
//! per-rejoin `started` stamps) that never feed back into a decision.

use crate::event::Event;
use crate::sim::Simulation;
use std::hash::{Hash, Hasher};

/// Dual-width FNV-1a hasher: the 64- and 128-bit lanes are fed in
/// lockstep, [`Hasher::finish`] reads the first and [`Fnv::finish128`]
/// the second.
pub(crate) struct Fnv {
    h64: u64,
    h128: u128,
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const OFFSET128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    pub(crate) fn new() -> Self {
        Fnv {
            h64: Self::OFFSET,
            h128: Self::OFFSET128,
        }
    }

    pub(crate) fn finish128(&self) -> u128 {
        self.h128
    }

    /// Both lanes of `value`'s hash.
    pub(crate) fn lanes(value: &(impl Hash + ?Sized)) -> (u64, u128) {
        let mut h = Fnv::new();
        value.hash(&mut h);
        (h.finish(), h.finish128())
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h64 = (self.h64 ^ u64::from(b)).wrapping_mul(Self::PRIME);
            self.h128 = (self.h128 ^ u128::from(b)).wrapping_mul(Self::PRIME128);
        }
    }

    fn finish(&self) -> u64 {
        self.h64
    }
}

/// Hashes `len`, then `items` in the order given. The lock table, the
/// checker's model and each client's suspicions hash in their insertion
/// order, not in the key order of `DetMap`'s own `Hash`: whether that
/// order reaches any decision is not yet checked, so the fingerprint
/// keeps it.
pub(crate) fn hash_in_order<T: Hash, H: Hasher>(
    len: usize,
    items: impl Iterator<Item = T>,
    h: &mut H,
) {
    len.hash(h);
    items.for_each(|item| item.hash(h));
}

/// SplitMix64's finalizer: a bijection whose outputs add like random
/// values. A raw FNV hash is affine in the bytes it ends on (`(h ^ b)·P`,
/// then one multiply per trailing zero byte of an integer), so the hashes
/// of events differing only in a small integer field sum alike across
/// different multisets: `{0, 3}` and `{1, 2}` when `h` ends in `01`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// [`mix`] for the 128-bit lane: each half mixed, the high one with the
/// mixed low one folded in, so every output bit depends on every input
/// bit and the map stays a bijection.
fn mix128(x: u128) -> u128 {
    let lo = mix(x as u64);
    let hi = mix((x >> 64) as u64 ^ lo);
    (u128::from(hi) << 64) | u128::from(lo)
}

impl Event {
    /// A 64-bit hash of the event's content: its time and a delivery's
    /// `sent_at` stay out. The model checker names sleeping events by it;
    /// [`Simulation::fingerprint`] sums the same hash, mixed, over the
    /// pending events.
    pub fn shape_hash(&self) -> u64 {
        Fnv::lanes(self).0
    }
}

impl Simulation {
    /// The fingerprint of the logical simulation state (see the module
    /// docs for exactly what it covers), as a 64-bit and a 128-bit lane.
    /// The model checker keys its visited table on it to detect schedules
    /// that re-converge to an explored state, and compares it to tell
    /// whether two event orders commute.
    pub fn fingerprint(&self) -> (u64, u128) {
        let engine = self.engine();
        let mut h = Fnv::new();
        engine.sites().hash(&mut h);
        engine.rng.hash(&mut h);
        for i in 0..self.shards().shard_count() {
            self.shards().get(i).describe().hash(&mut h);
        }
        engine.network.hash(&mut h);
        self.coordinator().fingerprint_into(&mut h, engine.now());
        self.rejoin().fingerprint_into(&mut h);
        // Pending events: a content-only multiset. `wrapping_add` combines
        // the events' mixed hashes, so two interleavings whose queues hold
        // the same events under different sequence numbers (or times)
        // fingerprint identically.
        let (mut pending, mut pending128) = (0u64, 0u128);
        for (_, event) in engine.queue.iter() {
            let (e64, e128) = Fnv::lanes(event);
            pending = pending.wrapping_add(mix(e64));
            pending128 = pending128.wrapping_add(mix128(e128));
        }
        pending.hash(&mut h);
        let h64 = h.finish();
        // The 128-bit lane also absorbs the wide pending sum, folded in
        // after the 64-bit value is taken.
        pending128.hash(&mut h);
        (h64, h.finish128())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::locks::LockMode;
    use crate::message::{ClientId, Endpoint, Message, ObjectId, OpId, Payload};
    use crate::network::Partition;
    use crate::site::{CrashMode, Site};
    use crate::time::{SimDuration, SimTime};
    use crate::txn::{Phase, TxnObject, TxnRequest};
    use arbitree_core::{ArbitraryProtocol, Timestamp};
    use arbitree_quorum::{QuorumSet, SiteId};
    use bytes::Bytes;
    use rand::RngCore;
    use std::collections::HashSet;

    #[test]
    fn narrow_lane_matches_historical_fnv1a() {
        // The widened accumulator must not perturb the 64-bit lane: the
        // empty hash is the FNV offset basis and single bytes match the
        // reference recurrence.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write_u64(0);
        let mut expect: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
    }

    fn deliver_at(sent_at: SimTime) -> Event {
        Event::Deliver(Message {
            from: Endpoint::Client(ClientId(0)),
            to: Endpoint::Site(SiteId::new(0)),
            payload: Payload::ReadReq {
                op: OpId(3),
                obj: ObjectId(1),
            },
            sent_at,
        })
    }

    #[test]
    fn event_shape_ignores_sent_at() {
        let a = deliver_at(SimTime::ZERO);
        let b = deliver_at(SimTime::from_millis(9));
        assert_eq!(Fnv::lanes(&a), Fnv::lanes(&b));
        assert_eq!(a.shape_hash(), b.shape_hash());
        assert_ne!(a.shape_hash(), Event::ClientTick(ClientId(0)).shape_hash());
    }

    #[test]
    fn fresh_sims_with_equal_configs_fingerprint_equal() {
        let cfg = SimConfig::default();
        let a = Simulation::new(cfg.clone(), ArbitraryProtocol::parse("1-3").unwrap());
        let b = Simulation::new(cfg, ArbitraryProtocol::parse("1-3").unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Simulation::new(
            SimConfig {
                seed: 99,
                ..SimConfig::default()
            },
            ArbitraryProtocol::parse("1-3").unwrap(),
        );
        assert_ne!(a.fingerprint().0, c.fingerprint().0);
        assert_ne!(a.fingerprint().1, c.fingerprint().1);
    }

    #[test]
    fn site_hash_ignores_insertion_order() {
        let ts = Timestamp::new(1, SiteId::new(0));
        let mut a = Site::new(SiteId::new(0));
        let mut b = Site::new(SiteId::new(0));
        for (site, order) in [(&mut a, [0u32, 7]), (&mut b, [7u32, 0])] {
            for k in order {
                site.storage_mut()
                    .repair(ObjectId(k), Bytes::from_static(b"v"), ts);
                site.storage_mut()
                    .prepare(ObjectId(k), OpId(1), Bytes::from_static(b"s"), ts);
            }
        }
        assert_eq!(Fnv::lanes(&a), Fnv::lanes(&b));
        // Content differences still register.
        a.storage_mut().repair(
            ObjectId(0),
            Bytes::from_static(b"w"),
            ts.next(SiteId::new(0)),
        );
        assert_ne!(Fnv::lanes(&a).1, Fnv::lanes(&b).1);
    }

    /// A fresh scripted simulation of a five-replica tree.
    fn sim() -> Simulation {
        let config = SimConfig {
            auto_workload: false,
            ..SimConfig::default()
        };
        Simulation::new(config, ArbitraryProtocol::parse("1-2-2").unwrap())
    }

    /// Whether `change`, applied after `setup` to a fresh simulation,
    /// moves the 64-bit and the 128-bit lane of its fingerprint.
    fn moves(setup: impl Fn(&mut Simulation), change: impl Fn(&mut Simulation)) -> (bool, bool) {
        let mut s = sim();
        setup(&mut s);
        let before = s.fingerprint();
        change(&mut s);
        let after = s.fingerprint();
        (before.0 != after.0, before.1 != after.1)
    }

    fn nothing(_: &mut Simulation) {}

    /// Client 0 with a transaction in flight.
    fn in_flight(s: &mut Simulation) {
        let c = &mut s.coordinator.clients[0];
        c.op = Some(OpId(0));
        c.fresh_txn(ClientId(0), SimTime::ZERO, false);
    }

    fn txn(s: &mut Simulation) -> &mut crate::txn::TxnState {
        s.coordinator.clients[0].txn.as_deref_mut().unwrap()
    }

    /// Site 0 rejoining after an amnesia crash.
    fn rejoining(s: &mut Simulation) {
        let site = SiteId::new(0);
        s.engine.crash(site, CrashMode::Amnesia);
        s.engine.recover(site);
        s.rejoin.on_recover(&mut s.engine, &s.shards, None, site);
        assert!(s.rejoin.is_rejoining(site));
    }

    fn rejoin_state(s: &mut Simulation) -> &mut crate::recovery::RejoinState {
        s.rejoin.states[0].as_mut().unwrap()
    }

    /// A hand-written `Hash` can drop a field silently, where a printed
    /// `Debug` showed every one: each item the module docs list as going
    /// in must move both lanes, and each item listed as staying out must
    /// move neither.
    #[test]
    fn every_listed_item_and_only_those_reach_the_fingerprint() {
        let ts = Timestamp::new(1, SiteId::new(0));
        let value = || Bytes::from_static(b"v");
        type Change = Box<dyn Fn(&mut Simulation)>;
        let goes_in: Vec<(&str, Change, Change)> = vec![
            (
                "a committed version",
                Box::new(nothing),
                Box::new(move |s| {
                    s.engine.sites[0]
                        .storage_mut()
                        .repair(ObjectId(0), value(), ts);
                }),
            ),
            (
                "a staged version",
                Box::new(nothing),
                Box::new(move |s| {
                    s.engine.sites[0]
                        .storage_mut()
                        .prepare(ObjectId(0), OpId(1), value(), ts);
                }),
            ),
            (
                "health",
                Box::new(nothing),
                Box::new(|s| s.engine.sites[0].crash(CrashMode::Transient)),
            ),
            (
                "needs_sync",
                Box::new(|s| s.engine.sites[0].crash(CrashMode::Transient)),
                // Down either way; only the flag flips (storage is empty).
                Box::new(|s| s.engine.sites[0].crash(CrashMode::Amnesia)),
            ),
            (
                "one RNG draw",
                Box::new(nothing),
                Box::new(|s| {
                    s.engine.rng.next_u64();
                }),
            ),
            (
                "a partition",
                Box::new(nothing),
                Box::new(|s| s.set_partition(Partition::isolate_sites([SiteId::new(0)]))),
            ),
            (
                "a network override",
                Box::new(nothing),
                Box::new(|s| {
                    let mut lossy = *s.engine.network.effective_config();
                    lossy.drop_probability = 0.5;
                    s.engine.set_network_override(Some(lossy));
                }),
            ),
            (
                "a lock",
                Box::new(nothing),
                Box::new(|s| {
                    s.coordinator
                        .locks
                        .acquire(OpId(0), ObjectId(0), LockMode::Write);
                }),
            ),
            (
                "a client's suspicion",
                Box::new(nothing),
                Box::new(|s| {
                    s.coordinator.clients[0].suspected.insert(SiteId::new(1));
                }),
            ),
            (
                "a transaction going in flight",
                Box::new(nothing),
                Box::new(in_flight),
            ),
            (
                "the transaction's phase",
                Box::new(in_flight),
                Box::new(|s| txn(s).phase = Phase::ReadGather),
            ),
            (
                "the transaction's phase counter",
                Box::new(in_flight),
                Box::new(|s| txn(s).phase_counter += 1),
            ),
            (
                "the transaction's attempts",
                Box::new(in_flight),
                Box::new(|s| txn(s).attempts += 1),
            ),
            (
                "the transaction's objects",
                Box::new(in_flight),
                Box::new(|s| txn(s).objects.push(TxnObject::new(ObjectId(0), None))),
            ),
            (
                "the transaction's locks held",
                Box::new(in_flight),
                Box::new(|s| txn(s).locks_held += 1),
            ),
            (
                "the transaction's outstanding acks",
                Box::new(in_flight),
                Box::new(|s| {
                    txn(s)
                        .pending
                        .add_quorum(ObjectId(0), &QuorumSet::from_indices([1]));
                }),
            ),
            (
                "the transaction's read responses",
                Box::new(in_flight),
                Box::new(move |s| txn(s).responses.push((ObjectId(0), SiteId::new(1), ts))),
            ),
            (
                "the transaction's migration flag",
                Box::new(in_flight),
                Box::new(|s| txn(s).is_migration = true),
            ),
            (
                "a scripted transaction's due-flag",
                Box::new(|s| {
                    s.schedule_transaction(
                        SimTime::from_millis(10),
                        ClientId(0),
                        TxnRequest::read(ObjectId(0)),
                    );
                }),
                Box::new(|s| s.engine.now = SimTime::from_millis(10)),
            ),
            (
                "the next operation id",
                Box::new(nothing),
                Box::new(|s| s.coordinator.next_op += 1),
            ),
            ("a rejoin starting", Box::new(nothing), Box::new(rejoining)),
            (
                "a rejoin's epoch",
                Box::new(rejoining),
                Box::new(|s| rejoin_state(s).epoch += 1),
            ),
            (
                "a rejoin's retry count",
                Box::new(rejoining),
                Box::new(|s| rejoin_state(s).attempt += 1),
            ),
            (
                "one pending event",
                Box::new(nothing),
                Box::new(|s| {
                    s.engine
                        .schedule(SimTime::ZERO, Event::ClientTick(ClientId(0)))
                }),
            ),
        ];
        for (item, setup, change) in &goes_in {
            assert_eq!(
                moves(setup, change),
                (true, true),
                "{item} must reach both lanes"
            );
        }

        let stays_out: Vec<(&str, Change, Change)> = vec![
            (
                "the client's round-trip estimate",
                Box::new(nothing),
                Box::new(|s| {
                    s.coordinator.clients[0]
                        .rtt
                        .sample(SimDuration::from_micros(700));
                }),
            ),
            (
                "the transaction's start",
                Box::new(in_flight),
                Box::new(|s| txn(s).started = SimTime::from_millis(3)),
            ),
            (
                "the transaction's phase stamps",
                Box::new(in_flight),
                Box::new(|s| {
                    let t = txn(s);
                    t.phase_since = SimTime::from_millis(3);
                    t.phase_time.lock_wait = SimDuration::from_millis(1);
                }),
            ),
            (
                "the transaction's per-phase retries",
                Box::new(in_flight),
                Box::new(|s| txn(s).phase_retries += 1),
            ),
            (
                "an idle client's leftover record",
                Box::new(|s| {
                    in_flight(s);
                    s.coordinator.clients[0].op = None;
                }),
                Box::new(|s| txn(s).attempts += 1),
            ),
            (
                "a rejoin's start",
                Box::new(rejoining),
                Box::new(|s| rejoin_state(s).started = SimTime::from_millis(3)),
            ),
            (
                "the clock, with nothing scripted",
                Box::new(nothing),
                Box::new(|s| s.engine.now = SimTime::from_millis(10)),
            ),
            (
                "the lock spare pool",
                Box::new(nothing),
                Box::new(|s| {
                    let locks = &mut s.coordinator.locks;
                    locks.acquire(OpId(0), ObjectId(0), LockMode::Write);
                    locks.release(OpId(0), ObjectId(0));
                }),
            ),
            (
                "building the range tree",
                Box::new(move |s| {
                    s.engine.sites[0]
                        .storage_mut()
                        .repair(ObjectId(0), value(), ts);
                }),
                Box::new(|s| {
                    s.engine.sites[0].storage_mut().htree();
                }),
            ),
        ];
        for (item, setup, change) in &stays_out {
            assert_eq!(moves(setup, change), (false, false), "{item} must stay out");
        }
    }

    /// Pending events count by content alone: not by when they fire, when
    /// a message was sent, or the sequence numbers their scheduling order
    /// gave them.
    #[test]
    fn pending_events_hash_by_content_alone() {
        let with = |events: &[(SimTime, Event)]| {
            let mut s = sim();
            for (at, event) in events {
                s.engine.schedule(*at, event.clone());
            }
            s.fingerprint()
        };
        let tick = |c| Event::ClientTick(ClientId(c));
        let (t1, t2) = (SimTime::from_millis(1), SimTime::from_millis(2));
        let base = with(&[(t1, tick(0)), (t1, deliver_at(SimTime::ZERO))]);
        // The event's time.
        assert_eq!(
            with(&[(t2, tick(0)), (t1, deliver_at(SimTime::ZERO))]),
            base
        );
        // A delivery's `sent_at`.
        assert_eq!(with(&[(t1, tick(0)), (t1, deliver_at(t1))]), base);
        // The sequence numbers.
        assert_eq!(
            with(&[(t1, deliver_at(SimTime::ZERO)), (t1, tick(0))]),
            base
        );
        // Content does count.
        let other = with(&[(t1, tick(1)), (t1, deliver_at(SimTime::ZERO))]);
        assert_ne!(other.0, base.0);
        assert_ne!(other.1, base.1);
        // Queues of similar events stay apart: unmixed, the hashes of
        // `ClientTick(c)` are affine in `c` and their sums would collide.
        let (mut lane64, mut lane128) = (HashSet::new(), HashSet::new());
        for a in 0..8 {
            for b in a + 1..8 {
                let fp = with(&[(t1, tick(a)), (t1, tick(b))]);
                assert!(lane64.insert(fp.0) && lane128.insert(fp.1), "{{{a}, {b}}}");
            }
        }
    }
}
