//! State fingerprinting for the model checker.
//!
//! [`Simulation::fingerprint`] reduces the *logical* simulation state to a
//! 64-bit FNV-1a hash. Two states with equal fingerprints behave
//! identically under every future schedule (modulo hash collisions), which
//! is what lets `arbitree-check` prune branches that re-converge to a
//! visited state.
//!
//! What goes in — everything future behaviour can depend on:
//!
//! * per-site storage and liveness (the replicas' durable state);
//! * the run RNG (quorum picks and think-time jitter draw from it);
//! * the coordinator's transaction machine: per-client state, every
//!   in-flight [`crate::txn::TxnState`], the lock tables, the consistency
//!   checker's model, and the reconfiguration machine (an idle client's
//!   record holds only leftovers and stays out);
//! * the pending scripted transactions, each tagged with whether it is
//!   already *due* (`at ≤ now`) — the only way the clock feeds behaviour;
//! * the multiset of pending events, hashed **content-only** and combined
//!   order-independently.
//!
//! What stays out: event scheduling times and message `sent_at` stamps
//! (under a controlled scheduler, time is a label — only the order chosen
//! by the scheduler matters), each client's round-trip estimator and each
//! in-flight transaction's phase stamps and per-phase retry count (they
//! set only when its timeouts are due, a time), sequence numbers (two
//! interleavings that reach the same state label their pending events
//! differently), and the observational channels (metrics, history, per-op
//! and per-rejoin `started` stamps) that never feed back into a decision.
//!
//! Three variants share one accumulation pass:
//!
//! * [`Simulation::fingerprint`] — the historical 64-bit hash, byte-for-byte
//!   identical to its pre-widening definition (pinned schedule counts in
//!   `arbitree-check` depend on this);
//! * [`Simulation::fingerprint_wide`] — the same state reduced to
//!   `(u64, u128)`; the 128-bit lane exists so `arbitree-audit` can measure
//!   how often distinct states collide in the 64-bit lane;
//! * [`Simulation::fingerprint_canonical`] — like `fingerprint_wide` but
//!   with per-site storage hashed in **sorted object order** instead of the
//!   `DetMap` insertion order. Two schedules that commit the same objects in
//!   a different order reach logically identical storage whose insertion
//!   orders differ; the commutativity oracle compares canonical
//!   fingerprints so that genuinely commuting pairs are not reported as
//!   mismatches. The range tree is omitted from the canonical view: it is a
//!   pure function of the committed map (pinned by
//!   `htree_tracks_every_committed_mutation`), so hashing it would only
//!   reintroduce order artifacts without adding information.

use crate::event::Event;
use crate::sim::Simulation;
use crate::site::Site;
use std::fmt::{self, Write as _};

/// Dual-width FNV-1a accumulator (64- and 128-bit lanes fed in lockstep)
/// that hashes anything `Debug`-printable without allocating: it implements
/// [`fmt::Write`], so `write!` streams the formatted bytes straight into
/// both hashes.
#[derive(Debug, Clone, Copy)]
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

    fn byte(&mut self, b: u8) {
        self.h64 = (self.h64 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self.h128 = (self.h128 ^ u128::from(b)).wrapping_mul(Self::PRIME128);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn u128(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Streams `v`'s `Debug` form into the hash.
    pub(crate) fn debug(&mut self, v: &dyn fmt::Debug) {
        // Infallible: Fnv::write_str never errors.
        let _ = write!(self, "{v:?}");
    }

    pub(crate) fn finish(&self) -> u64 {
        self.h64
    }

    pub(crate) fn finish128(&self) -> u128 {
        self.h128
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.byte(b);
        }
        Ok(())
    }
}

/// Hashes an event's *content*, excluding its scheduling time and (for
/// deliveries) the message's `sent_at` stamp — both are labels under a
/// controlled scheduler, not state.
pub(crate) fn event_shape(h: &mut Fnv, event: &Event) {
    match event {
        Event::Deliver(msg) => {
            h.u64(1);
            h.debug(&msg.from);
            h.debug(&msg.to);
            h.debug(&msg.payload);
        }
        other => {
            h.u64(2);
            h.debug(other);
        }
    }
}

/// Hashes a site's logical state independent of storage insertion order:
/// identity, health, the rejoin flag, then the committed and staged maps in
/// sorted object order. The range tree is omitted (a pure function of the
/// committed contents).
fn site_canonical(h: &mut Fnv, site: &Site) {
    h.debug(&site.id());
    h.debug(&site.health());
    h.u64(u64::from(site.needs_sync()));
    for (obj, version) in site.storage().committed_sorted() {
        h.debug(&obj);
        h.debug(version);
    }
    h.u64(u64::MAX); // map separator
    for (obj, staged) in site.storage().staged_sorted() {
        h.debug(&obj);
        h.debug(staged);
    }
    h.u64(u64::MAX);
}

impl Simulation {
    /// A 64-bit fingerprint of the logical simulation state (see the
    /// module docs for exactly what it covers). Used by the model checker
    /// to detect schedules that re-converge to an already-explored state.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_wide().0
    }

    /// The same state as [`Simulation::fingerprint`], reduced to both hash
    /// widths in one pass. The first component is bit-identical to
    /// `fingerprint()`; the second is the 128-bit lane used by the wide
    /// visited-set mode and the collision audit.
    pub fn fingerprint_wide(&self) -> (u64, u128) {
        let mut h = Fnv::new();
        let pending128 = self.hash_state(&mut h, false);
        let h64 = h.finish();
        // The 128-bit lane additionally absorbs the wide pending multiset
        // sum — folded in *after* the 64-bit value is taken, so the narrow
        // fingerprint stays byte-identical to its historical definition.
        h.u128(pending128);
        (h64, h.finish128())
    }

    /// An insertion-order-free fingerprint for state *equality* checks.
    ///
    /// Identical to [`Simulation::fingerprint_wide`] except that each
    /// site's storage hashes in sorted object order (range tree omitted).
    /// The commutativity oracle in `arbitree-audit` compares canonical
    /// fingerprints after replaying an event pair in both orders: two
    /// same-site deliveries touching different objects commute logically
    /// but permute the storage `DetMap` insertion order, which the plain
    /// fingerprint would (correctly, for its purpose) distinguish.
    pub fn fingerprint_canonical(&self) -> (u64, u128) {
        let mut h = Fnv::new();
        let pending128 = self.hash_state(&mut h, true);
        let h64 = h.finish();
        h.u128(pending128);
        (h64, h.finish128())
    }

    /// Feeds the full logical state into `h` (sites either `Debug`-hashed
    /// or canonicalized), finishing with the 64-bit pending-event multiset
    /// sum. Returns the 128-bit pending sum for the caller to fold into the
    /// wide lane only.
    fn hash_state(&self, h: &mut Fnv, canonical_sites: bool) -> u128 {
        let engine = self.engine();
        // Replica fabric: storage, staged writes, liveness — and the run
        // RNG, which future quorum picks and think-time jitter will consume.
        for site in engine.sites() {
            if canonical_sites {
                site_canonical(h, site);
            } else {
                h.debug(site);
            }
        }
        h.debug(&engine.rng);
        // The live per-shard protocols (a completed reconfiguration swaps
        // one, with no other trace in the coordinator state).
        for i in 0..self.shards().shard_count() {
            h.debug(&self.shards().get(i).describe());
        }
        // Network behaviour that future sends depend on (partition and
        // override state; the static base config hashes along harmlessly).
        h.debug(&engine.network);
        // The transaction machine (per-op state, locks, checker model,
        // scripted-due flags).
        self.coordinator().fingerprint_into(h, engine.now());
        // In-flight rejoins (sources, session progress, epochs).
        self.rejoin().fingerprint_into(h);
        // Pending events: a content-only multiset. Each event hashes to an
        // independent value; `wrapping_add` combines them so two
        // interleavings whose queues hold the same events under different
        // sequence numbers (or times) fingerprint identically.
        let mut pending: u64 = 0;
        let mut pending128: u128 = 0;
        for (_, event) in engine.queue.iter() {
            let mut eh = Fnv::new();
            event_shape(&mut eh, event);
            pending = pending.wrapping_add(eh.finish());
            pending128 = pending128.wrapping_add(eh.finish128());
        }
        h.u64(pending);
        pending128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::message::{ClientId, Endpoint, Message, ObjectId, OpId, Payload};
    use crate::time::SimTime;
    use arbitree_core::{ArbitraryProtocol, Timestamp};
    use arbitree_quorum::SiteId;
    use bytes::Bytes;

    #[test]
    fn fnv_distinguishes_inputs() {
        let mut a = Fnv::new();
        a.debug(&(1u32, "x"));
        let mut b = Fnv::new();
        b.debug(&(2u32, "x"));
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish128(), b.finish128());
    }

    #[test]
    fn narrow_lane_matches_historical_fnv1a() {
        // The widened accumulator must not perturb the 64-bit lane: the
        // empty hash is the FNV offset basis and single bytes match the
        // reference recurrence.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.u64(0);
        let mut expect: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
    }

    fn deliver_at(sent_at: SimTime) -> Event {
        Event::Deliver(Message {
            from: Endpoint::Client(ClientId(0)),
            to: Endpoint::Site(arbitree_quorum::SiteId::new(0)),
            payload: Payload::ReadReq {
                op: OpId(3),
                obj: ObjectId(1),
            },
            sent_at,
        })
    }

    #[test]
    fn event_shape_ignores_sent_at() {
        let mut a = Fnv::new();
        event_shape(&mut a, &deliver_at(SimTime::ZERO));
        let mut b = Fnv::new();
        event_shape(&mut b, &deliver_at(SimTime::from_millis(9)));
        assert_eq!(a.finish(), b.finish());
        assert_eq!(a.finish128(), b.finish128());
    }

    #[test]
    fn fresh_sims_with_equal_configs_fingerprint_equal() {
        let cfg = SimConfig::default();
        let a = Simulation::new(cfg.clone(), ArbitraryProtocol::parse("1-3").unwrap());
        let b = Simulation::new(cfg, ArbitraryProtocol::parse("1-3").unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_wide(), b.fingerprint_wide());
        assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
        let c = Simulation::new(
            SimConfig {
                seed: 99,
                ..SimConfig::default()
            },
            ArbitraryProtocol::parse("1-3").unwrap(),
        );
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint_wide().1, c.fingerprint_wide().1);
    }

    #[test]
    fn wide_narrow_lane_equals_fingerprint() {
        let sim = Simulation::new(
            SimConfig::default(),
            ArbitraryProtocol::parse("p:1-3").unwrap(),
        );
        assert_eq!(sim.fingerprint_wide().0, sim.fingerprint());
    }

    #[test]
    fn canonical_site_hash_ignores_insertion_order() {
        let ts = Timestamp::new(1, SiteId::new(0));
        let mut a = Site::new(SiteId::new(0));
        let mut b = Site::new(SiteId::new(0));
        for (site, order) in [(&mut a, [0u32, 7]), (&mut b, [7u32, 0])] {
            for k in order {
                site.storage_mut()
                    .repair(ObjectId(k), Bytes::from_static(b"v"), ts);
            }
        }
        // Insertion order differs, so the Debug views differ...
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        // ...but the canonical hash sees the same logical state.
        let mut ha = Fnv::new();
        site_canonical(&mut ha, &a);
        let mut hb = Fnv::new();
        site_canonical(&mut hb, &b);
        assert_eq!(ha.finish128(), hb.finish128());
        // And content differences still register.
        a.storage_mut().repair(
            ObjectId(0),
            Bytes::from_static(b"w"),
            ts.next(SiteId::new(0)),
        );
        let mut hc = Fnv::new();
        site_canonical(&mut hc, &a);
        assert_ne!(ha.finish128(), hc.finish128());
    }
}
