//! Replica sites: fail-stop processes holding durable [`Storage`] and
//! answering protocol requests.
//!
//! A site is in one of three health states ([`SiteHealth`]): `Serving`
//! (normal operation), `Down` (crashed — silent), or `Syncing` (recovered
//! from an amnesia crash, running anti-entropy; it refuses quorum traffic
//! until its storage is rebuilt, because a wiped replica acknowledging
//! reads or prepares would silently break quorum intersection).

use crate::message::{Endpoint, Payload, RangeVerdict};
use crate::metrics::SimMetrics;
use crate::storage::Storage;
use arbitree_quorum::SiteId;
use arbitree_sync::{respond, Response};

/// How a site went down — and therefore what it holds when it comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Fail-stop with durable storage intact (the paper's §2.2 model).
    Transient,
    /// Fail-stop that loses all durable state: the site recovers empty and
    /// must resynchronize from its peers before serving again.
    Amnesia,
}

/// A site's liveness/service state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteHealth {
    /// Up and serving quorum traffic.
    Serving,
    /// Crashed: receives nothing, answers nothing.
    Down,
    /// Up but mid-rejoin: receives anti-entropy traffic only; quorum
    /// requests are refused until the sync completes.
    Syncing,
}

/// A replica site.
#[derive(Debug, Clone, Hash)]
pub struct Site {
    id: SiteId,
    health: SiteHealth,
    /// Set by an amnesia crash and cleared only when a rejoin completes —
    /// it survives *transient* crashes in between, so a site that crashes
    /// again mid-sync still comes back as `Syncing`, never as `Serving`
    /// with half-rebuilt storage.
    needs_sync: bool,
    storage: Storage,
}

impl Site {
    /// Creates a live site with empty storage.
    pub fn new(id: SiteId) -> Self {
        Site {
            id,
            health: SiteHealth::Serving,
            needs_sync: false,
            storage: Storage::new(),
        }
    }

    /// This site's identifier.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The site's current health state.
    pub fn health(&self) -> SiteHealth {
        self.health
    }

    /// Whether the site is reachable at all (`Serving` or `Syncing`).
    pub fn is_up(&self) -> bool {
        self.health != SiteHealth::Down
    }

    /// Whether the site serves quorum traffic (strictly stronger than
    /// [`Site::is_up`]: a `Syncing` site is up but does not serve).
    pub fn is_serving(&self) -> bool {
        self.health == SiteHealth::Serving
    }

    /// Fail-stop: the site goes silent. A [`CrashMode::Transient`] crash
    /// retains storage (failures are transient per §2.2); a
    /// [`CrashMode::Amnesia`] crash wipes it and flags the site for
    /// anti-entropy on recovery.
    pub fn crash(&mut self, mode: CrashMode) {
        self.health = SiteHealth::Down;
        if mode == CrashMode::Amnesia {
            self.storage.wipe();
            self.needs_sync = true;
        }
    }

    /// The site resumes processing. After a transient crash it serves
    /// immediately with its durable state intact; after an amnesia crash —
    /// or a transient crash that interrupted an unfinished rejoin — it
    /// comes back `Syncing` and must complete anti-entropy first. Returns
    /// the resulting health so the caller can start the rejoin protocol.
    pub fn recover(&mut self, mode: CrashMode) -> SiteHealth {
        self.health = if mode == CrashMode::Amnesia || self.needs_sync {
            SiteHealth::Syncing
        } else {
            SiteHealth::Serving
        };
        self.health
    }

    /// The rejoin completed: every shard's sync sources have been drained,
    /// the site's storage again holds everything a quorum member must.
    pub(crate) fn mark_serving(&mut self) {
        self.needs_sync = false;
        self.health = SiteHealth::Serving;
    }

    /// Read access to the site's storage (tests, invariants).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable storage access for the rejoin manager (installing range
    /// fills on the syncing site itself).
    pub(crate) fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Handles an incoming protocol request, returning the reply to send
    /// back to the requesting endpoint, or `None` for one-way messages.
    ///
    /// A `Down` site returns `None` for everything (the engine does not
    /// even deliver to it; this is a second line of defence). A `Syncing`
    /// site refuses *every* payload — quorum requests because its storage
    /// is not trustworthy yet, and anti-entropy requests because an
    /// incomplete replica must not serve as a sync source.
    pub fn handle(
        &mut self,
        payload: &Payload,
        metrics: &mut SimMetrics,
    ) -> Option<(Endpoint, Payload)> {
        match self.health {
            SiteHealth::Down => return None,
            SiteHealth::Syncing => {
                metrics.messages_refused_syncing += 1;
                return None;
            }
            SiteHealth::Serving => {}
        }
        match payload {
            Payload::ReadReq { op, obj } => {
                let v = self.storage.read(*obj);
                Some((
                    Endpoint::Site(self.id),
                    Payload::ReadResp {
                        op: *op,
                        obj: *obj,
                        value: v.value,
                        ts: v.ts,
                    },
                ))
            }
            Payload::Prepare { op, obj, value, ts } => {
                let ok = self.storage.prepare(*obj, *op, value.clone(), *ts);
                Some((
                    Endpoint::Site(self.id),
                    Payload::PrepareAck {
                        op: *op,
                        obj: *obj,
                        ok,
                        ts: *ts,
                    },
                ))
            }
            Payload::Commit { op, obj, value, ts } => {
                self.storage.commit(*obj, *op, value.clone(), *ts);
                Some((
                    Endpoint::Site(self.id),
                    Payload::CommitAck { op: *op, obj: *obj },
                ))
            }
            Payload::Abort { op, obj } => {
                self.storage.abort(*obj, *op);
                None
            }
            Payload::Repair { obj, value, ts, .. } => {
                if self.storage.repair(*obj, value.clone(), *ts) {
                    metrics.repairs_applied += 1;
                } else {
                    metrics.repairs_ignored_stale += 1;
                }
                None
            }
            // Anti-entropy source side: compare the requester's digest with
            // ours and answer with a verdict, or with the range's full
            // contents when it is sparse enough to ship whole.
            Payload::RangeHashReq { range, peer } => {
                let range = *range;
                let reply = match respond(self.storage.htree(), range, *peer) {
                    Response::Match => Payload::RangeHashResp {
                        range,
                        verdict: RangeVerdict::Match,
                    },
                    Response::Children(digests) => Payload::RangeHashResp {
                        range,
                        verdict: RangeVerdict::Children(digests),
                    },
                    Response::Fill => Payload::RangeFill {
                        range,
                        items: self.storage.fill(range),
                    },
                };
                Some((Endpoint::Site(self.id), reply))
            }
            // Sites never receive coordinator-bound payloads, anti-entropy
            // responses travel to the rejoin manager (intercepted in the
            // simulation's dispatch), and the engine unwraps batch
            // envelopes before calling handle().
            Payload::ReadResp { .. }
            | Payload::PrepareAck { .. }
            | Payload::CommitAck { .. }
            | Payload::RangeHashResp { .. }
            | Payload::RangeFill { .. }
            | Payload::Batch(..) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ObjectId, OpId};
    use arbitree_core::Timestamp;
    use arbitree_sync::{NodeAgg, Range};
    use bytes::Bytes;

    fn read_req() -> Payload {
        Payload::ReadReq {
            op: OpId(1),
            obj: ObjectId(0),
        }
    }

    fn commit(op: OpId, obj: ObjectId, value: &'static [u8], ts: Timestamp) -> Payload {
        Payload::Commit {
            op,
            obj,
            value: Bytes::from_static(value),
            ts,
        }
    }

    #[test]
    fn crashed_site_is_silent() {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(0));
        assert!(s.is_up());
        s.crash(CrashMode::Transient);
        assert!(!s.is_up());
        assert!(s.handle(&read_req(), &mut m).is_none());
        assert_eq!(s.recover(CrashMode::Transient), SiteHealth::Serving);
        assert!(s.handle(&read_req(), &mut m).is_some());
        assert_eq!(m.messages_refused_syncing, 0);
    }

    #[test]
    fn storage_survives_transient_crash() {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(1));
        let ts = Timestamp::new(1, SiteId::new(1));
        s.handle(
            &Payload::Prepare {
                op: OpId(1),
                obj: ObjectId(0),
                value: Bytes::from_static(b"v"),
                ts,
            },
            &mut m,
        );
        s.handle(&commit(OpId(1), ObjectId(0), b"v", ts), &mut m);
        s.crash(CrashMode::Transient);
        s.recover(CrashMode::Transient);
        match s.handle(&read_req(), &mut m) {
            Some((_, Payload::ReadResp { ts: got, value, .. })) => {
                assert_eq!(got, ts);
                assert_eq!(value, Bytes::from_static(b"v"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn amnesia_crash_wipes_storage_and_gates_service() {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(1));
        let ts = Timestamp::new(1, SiteId::new(1));
        s.handle(
            &Payload::Prepare {
                op: OpId(1),
                obj: ObjectId(0),
                value: Bytes::from_static(b"v"),
                ts,
            },
            &mut m,
        );
        s.handle(&commit(OpId(1), ObjectId(0), b"v", ts), &mut m);
        s.crash(CrashMode::Amnesia);
        assert_eq!(s.recover(CrashMode::Amnesia), SiteHealth::Syncing);
        // Storage is gone and quorum requests are refused, not answered
        // with the (now zero) version.
        assert_eq!(s.storage().read(ObjectId(0)).ts, Timestamp::ZERO);
        assert!(s.handle(&read_req(), &mut m).is_none());
        assert_eq!(m.messages_refused_syncing, 1);
        // A transient crash mid-sync must not shortcut back to Serving.
        s.crash(CrashMode::Transient);
        assert_eq!(s.recover(CrashMode::Transient), SiteHealth::Syncing);
        s.mark_serving();
        assert!(s.handle(&read_req(), &mut m).is_some());
    }

    #[test]
    fn prepared_state_survives_crash_for_2pc_completion() {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(2));
        let ts = Timestamp::new(1, SiteId::new(2));
        s.handle(
            &Payload::Prepare {
                op: OpId(7),
                obj: ObjectId(3),
                value: Bytes::from_static(b"w"),
                ts,
            },
            &mut m,
        );
        s.crash(CrashMode::Transient);
        s.recover(CrashMode::Transient);
        // The retried commit still applies.
        s.handle(&commit(OpId(7), ObjectId(3), b"w", ts), &mut m);
        assert_eq!(s.storage().read(ObjectId(3)).ts, ts);
    }

    #[test]
    fn commit_applies_after_amnesia_without_a_stage() {
        // The stage was lost to an amnesia crash, the site resynced (from
        // sources that may not hold this in-flight write), and the
        // coordinator retries the commit: the carried value must install.
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(2));
        let ts = Timestamp::new(3, SiteId::new(2));
        s.handle(
            &Payload::Prepare {
                op: OpId(7),
                obj: ObjectId(3),
                value: Bytes::from_static(b"w"),
                ts,
            },
            &mut m,
        );
        s.crash(CrashMode::Amnesia);
        s.recover(CrashMode::Amnesia);
        s.mark_serving();
        match s.handle(&commit(OpId(7), ObjectId(3), b"w", ts), &mut m) {
            Some((_, Payload::CommitAck { op, .. })) => assert_eq!(op, OpId(7)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.storage().read(ObjectId(3)).ts, ts);
        assert_eq!(
            s.storage().read(ObjectId(3)).value,
            Bytes::from_static(b"w")
        );
    }

    #[test]
    fn reordered_prepare_resend_does_not_commit_a_stale_version() {
        // The one-copy bug jittered links exposed: a Prepare re-sent at a
        // transaction's old timestamp overtakes the version-bumped Prepare
        // of the same transaction. The late one is refused, and the commit
        // installs the decided timestamp.
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(1));
        let (old, new) = (
            Timestamp::new(2, SiteId::new(9)),
            Timestamp::new(3, SiteId::new(9)),
        );
        let prepare = |ts| Payload::Prepare {
            op: OpId(4),
            obj: ObjectId(6),
            value: Bytes::from_static(b"w"),
            ts,
        };
        match s.handle(&prepare(new), &mut m) {
            Some((_, Payload::PrepareAck { ok, ts, .. })) => assert!(ok && ts == new),
            other => panic!("unexpected {other:?}"),
        }
        match s.handle(&prepare(old), &mut m) {
            Some((_, Payload::PrepareAck { ok, ts, .. })) => assert!(!ok && ts == old),
            other => panic!("unexpected {other:?}"),
        }
        s.handle(&commit(OpId(4), ObjectId(6), b"w", new), &mut m);
        assert_eq!(s.storage().read(ObjectId(6)).ts, new);
        assert!(s.storage().staged(ObjectId(6)).is_none());
    }

    /// A serving site with `objs` committed at version 1 (value `b"v"`).
    fn site_with(objs: impl IntoIterator<Item = u32>) -> Site {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(0));
        let ts = Timestamp::new(1, SiteId::new(0));
        for (i, obj) in objs.into_iter().enumerate() {
            s.handle(&commit(OpId(i as u64), ObjectId(obj), b"v", ts), &mut m);
        }
        s
    }

    fn range_req(range: Range, peer: NodeAgg) -> Payload {
        Payload::RangeHashReq { range, peer }
    }

    #[test]
    fn serving_site_answers_range_hash_requests() {
        let mut m = SimMetrics::default();
        let mut s = site_with([5]);
        let ts = Timestamp::new(1, SiteId::new(0));
        // Empty requester at the root: the whole range comes back in one
        // fill.
        let req = range_req(Range::ROOT, NodeAgg::EMPTY);
        match s.handle(&req, &mut m) {
            Some((_, Payload::RangeFill { range, items })) => {
                assert_eq!(range, Range::ROOT);
                assert_eq!(items, vec![(ObjectId(5), Bytes::from_static(b"v"), ts)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Matching digest: Match.
        let here = s.storage_mut().htree().digest(Range::ROOT);
        match s.handle(&range_req(Range::ROOT, here), &mut m) {
            Some((
                _,
                Payload::RangeHashResp {
                    verdict: RangeVerdict::Match,
                    ..
                },
            )) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Mismatching leaf: the full contents come back.
        let leaf = Range::of(5, arbitree_sync::LEAF_DEPTH);
        match s.handle(&range_req(leaf, NodeAgg::EMPTY), &mut m) {
            Some((_, Payload::RangeFill { items, .. })) => {
                assert_eq!(items, vec![(ObjectId(5), Bytes::from_static(b"v"), ts)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A syncing site refuses to serve as a source.
        s.crash(CrashMode::Amnesia);
        s.recover(CrashMode::Amnesia);
        assert!(s.handle(&req, &mut m).is_none());
    }

    #[test]
    fn sparse_internal_range_is_filled_whole() {
        // Three keys in different leaves under one depth-1 range; the
        // requester already holds one of them, so only sparseness (≤ 16
        // items) makes this a fill.
        let mut m = SimMetrics::default();
        let mut s = site_with([3, 1 << 20, 1 << 24]);
        let mut peer = Storage::new();
        peer.repair(
            ObjectId(3),
            Bytes::from_static(b"v"),
            Timestamp::new(1, SiteId::new(0)),
        );
        let range = Range::of(3, 1);
        match s.handle(&range_req(range, peer.htree().digest(range)), &mut m) {
            Some((_, Payload::RangeFill { range: r, items })) => {
                assert_eq!(r, range);
                let objs: Vec<ObjectId> = items.iter().map(|(obj, _, _)| *obj).collect();
                assert_eq!(objs, [ObjectId(3), ObjectId(1 << 20), ObjectId(1 << 24)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn range_over_sixteen_items_is_split_for_a_non_empty_requester() {
        let mut m = SimMetrics::default();
        let mut s = site_with(0..17);
        let mut peer = Storage::new();
        peer.repair(
            ObjectId(0),
            Bytes::from_static(b"v"),
            Timestamp::new(1, SiteId::new(0)),
        );
        match s.handle(
            &range_req(Range::ROOT, peer.htree().digest(Range::ROOT)),
            &mut m,
        ) {
            Some((
                _,
                Payload::RangeHashResp {
                    verdict: RangeVerdict::Children(d),
                    ..
                },
            )) => {
                assert_eq!(d.len(), 16);
                assert_eq!(d[0].count, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The same range to an empty requester fits the fill budget.
        match s.handle(&range_req(Range::ROOT, NodeAgg::EMPTY), &mut m) {
            Some((_, Payload::RangeFill { items, .. })) => assert_eq!(items.len(), 17),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replies_have_expected_shapes() {
        let mut m = SimMetrics::default();
        let mut s = Site::new(SiteId::new(0));
        match s.handle(&read_req(), &mut m) {
            Some((_, Payload::ReadResp { op, .. })) => assert_eq!(op, OpId(1)),
            other => panic!("unexpected {other:?}"),
        }
        match s.handle(
            &Payload::Prepare {
                op: OpId(2),
                obj: ObjectId(0),
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
            &mut m,
        ) {
            Some((_, Payload::PrepareAck { op, obj, ok, ts })) => {
                assert_eq!(op, OpId(2));
                assert_eq!(obj, ObjectId(0));
                assert!(ok);
                assert_eq!(ts, Timestamp::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s
            .handle(
                &Payload::Abort {
                    op: OpId(2),
                    obj: ObjectId(0)
                },
                &mut m
            )
            .is_none());
        // Coordinator payloads are ignored.
        assert!(s
            .handle(
                &Payload::CommitAck {
                    op: OpId(2),
                    obj: ObjectId(0)
                },
                &mut m
            )
            .is_none());
    }
}
