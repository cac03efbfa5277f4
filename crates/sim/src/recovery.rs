//! Staged replica rejoin: anti-entropy for sites returning from amnesia
//! crashes.
//!
//! A site that lost its storage recovers as [`SiteHealth::Syncing`]: it is
//! reachable but refuses quorum traffic (the coordinator routes around it,
//! treating it like a suspected site). The [`RejoinManager`] then drives
//! range-hash reconciliation against a set of *sync sources* — for every
//! shard, one read quorum picked among the currently `Serving` sites, so
//! quorum intersection guarantees the union of sources holds every
//! completed write the rejoining site could owe a future reader. Sessions
//! run sequentially per source through the ordinary deterministic event
//! queue ([`Payload::RangeHashReq`]/[`Payload::RangeHashResp`]/
//! [`Payload::RangeFill`]), with [`RetryPolicy`] backoff against message
//! loss and a full restart if a source stops serving mid-session. When the
//! last source drains, the site is marked `Serving` again.
//!
//! A source answers a mismatching range with its whole contents in one
//! [`Payload::RangeFill`] when the range is sparse (at most 16 items) or
//! when the rejoiner holds nothing there and the source at most
//! [`FILL_BUDGET`] items, and with child digests otherwise. An amnesiac
//! starts empty, so its first session pulls the store in about one fill
//! per budget-sized range instead of descending to every 16-key leaf; on
//! the hot-churn shape a rejoin compares about 300 ranges and takes about
//! 0.1 s of simulated time, against about 3,500 ranges and 0.65 s for
//! leaf-only fills. Later sessions, against a rejoiner that already holds
//! most keys, descend until the divergent ranges are sparse.
//!
//! Safety argument (the inductive invariant the chaos gates check): every
//! `Serving` site holds every completed write whose write quorum contains
//! it. Serving sites only leave the invariant set by crashing; a rejoining
//! site re-enters it only after pulling a read quorum per shard — which
//! intersects every write quorum — and in-flight 2PC commits it may have
//! lost the stage for still apply because [`Payload::Commit`] carries the
//! decided value and timestamp; a commit it had acknowledged before the
//! wipe is expected from it again once it recovers, so that write cannot
//! complete without it. A session ends only once every divergent
//! range has been filled, and a fill carries every committed item the
//! source holds in its range, however large the range; the rejoiner
//! installs them timestamp-guarded, so nothing newer is regressed.
//!
//! [`SiteHealth::Syncing`]: crate::SiteHealth::Syncing
//! [`Payload::RangeHashReq`]: crate::Payload::RangeHashReq
//! [`Payload::RangeHashResp`]: crate::Payload::RangeHashResp
//! [`Payload::RangeFill`]: crate::Payload::RangeFill
//! [`RetryPolicy`]: crate::RetryPolicy
//! [`FILL_BUDGET`]: arbitree_sync::FILL_BUDGET

use crate::config::{RetryPolicy, SimConfig};
use crate::engine::Engine;
use crate::fingerprint::Fnv;
use crate::message::{Endpoint, Message, Payload, RangeVerdict};
use crate::time::{SimDuration, SimTime};
use arbitree_core::{DetMap, DetSet};
use arbitree_quorum::{ShardMap, SiteId};
use arbitree_sync::{NodeAgg, Range, Response, Session};
use rand::Rng;

/// Maximum range probes a syncing site keeps in flight per session. Small
/// enough to bound burst load on the source, large enough to hide one
/// round-trip of latency per tree level.
const WINDOW: usize = 4;

/// Per-site rejoin progress.
#[derive(Debug)]
struct RejoinState {
    /// Remaining sync sources, current one first. Empty while waiting for
    /// enough `Serving` sites to assemble a read quorum per shard.
    sources: Vec<SiteId>,
    /// Reconciliation session against `sources[0]`.
    session: Session,
    /// Consecutive retries without progress (drives the backoff policy).
    attempt: u32,
    /// The epoch the site's live retry timer was armed in. Bumped on every
    /// progress step from a globally monotonic counter, so stale timers —
    /// and timers of an *earlier* rejoin of the same site — never match.
    epoch: u64,
    /// When the site recovered (for rejoin-latency accounting).
    started: SimTime,
}

/// Drives every in-flight rejoin. A sibling layer of the engine and the
/// coordinator inside [`crate::Simulation`]: it owns only rejoin state and
/// reaches sites, metrics, RNG, and the event queue through the engine it
/// is passed.
#[derive(Debug)]
pub struct RejoinManager {
    retry: RetryPolicy,
    /// Base retry delay (the configured operation timeout).
    base: SimDuration,
    /// Globally monotonic epoch source; never reused, so a retry timer
    /// from any earlier state of any rejoin is permanently stale.
    next_epoch: u64,
    states: DetMap<SiteId, RejoinState>,
    /// Probes being sent, reused across pumps and resends; empty between
    /// calls.
    probes: Vec<(Range, NodeAgg)>,
}

impl RejoinManager {
    /// Creates the manager with the run's retry policy.
    pub(crate) fn new(config: &SimConfig) -> Self {
        RejoinManager {
            retry: config.retry,
            base: config.op_timeout,
            next_epoch: 0,
            states: DetMap::default(),
            probes: Vec::new(),
        }
    }

    /// Whether `site` is currently mid-rejoin.
    pub fn is_rejoining(&self, site: SiteId) -> bool {
        self.states.contains_key(&site)
    }

    /// Whether a [`crate::Event::SyncRetry`] with `epoch` is permanently
    /// stale for `site`: the rejoin progressed past it (epochs are bumped
    /// on every step), restarted, or completed. Epochs are globally
    /// monotonic and never reused, so staleness is irreversible — the
    /// model checker may treat such an event as a no-op.
    pub fn retry_is_stale(&self, site: SiteId, epoch: u64) -> bool {
        self.states.get(&site).is_none_or(|s| s.epoch != epoch)
    }

    fn bump_epoch(&mut self, site: SiteId) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        if let Some(state) = self.states.get_mut(&site) {
            state.epoch = epoch;
        }
    }

    /// A site recovered into `Syncing`: begin (or re-begin) its rejoin.
    pub(crate) fn on_recover(&mut self, engine: &mut Engine, shards: &ShardMap, site: SiteId) {
        let started = match self.states.get(&site) {
            // A transient crash interrupted this rejoin; keep the original
            // start time so rejoin latency measures the whole outage tail.
            Some(state) => state.started,
            None => engine.now(),
        };
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.states.insert(
            site,
            RejoinState {
                sources: Vec::new(),
                session: Session::new(),
                attempt: 0,
                epoch,
                started,
            },
        );
        self.restart(engine, shards, site);
    }

    /// (Re)assembles the source list and opens a fresh session. Called on
    /// recovery and whenever the current source stops serving.
    fn restart(&mut self, engine: &mut Engine, shards: &ShardMap, site: SiteId) {
        let sources = Self::pick_sources(engine, shards, site);
        // arbitree-lint: allow(D005) — every caller inserted the state first
        let state = self.states.get_mut(&site).expect("rejoin state exists");
        match sources {
            Some(sources) => {
                state.sources = sources;
                state.session = Session::new();
                engine.metrics.sync_sessions += 1;
                self.pump(engine, site);
            }
            None => {
                // Not enough Serving sites to cover a read quorum per
                // shard right now; back off and re-probe.
                state.sources = Vec::new();
                self.arm(engine, site);
            }
        }
    }

    /// One read quorum per shard among the currently `Serving` sites,
    /// deduplicated into an ordered source list. `None` if any shard
    /// cannot assemble one (the rejoin waits and retries).
    fn pick_sources(engine: &mut Engine, shards: &ShardMap, site: SiteId) -> Option<Vec<SiteId>> {
        let mut alive = engine.serving_sites();
        alive.remove(site);
        let mut sources: DetSet<SiteId> = DetSet::default();
        for shard in 0..shards.shard_count() {
            let quorum = shards
                .get(shard)
                .pick_read_quorum(alive.clone(), &mut engine.rng)?;
            for s in quorum.iter() {
                sources.insert(s);
            }
        }
        Some(sources.iter().copied().collect())
    }

    /// Sends fresh probes up to the in-flight window and (re)arms the
    /// retry timer.
    fn pump(&mut self, engine: &mut Engine, site: SiteId) {
        // arbitree-lint: allow(D005) — pump is called only with live state
        let state = self.states.get_mut(&site).expect("rejoin state exists");
        let Some(&source) = state.sources.first() else {
            self.arm(engine, site);
            return;
        };
        let budget = WINDOW.saturating_sub(state.session.in_flight());
        state.session.take_requests(
            engine.sites[site.index()].storage_mut().htree(),
            budget,
            &mut self.probes,
        );
        self.send_probes(engine, site, source);
    }

    /// Sends the probes in `self.probes` from `site` to `source`, leaving
    /// the buffer empty, and (re)arms the retry timer.
    fn send_probes(&mut self, engine: &mut Engine, site: SiteId, source: SiteId) {
        for (range, peer) in self.probes.drain(..) {
            engine.metrics.sync_ranges_compared += 1;
            engine.send(
                Endpoint::Site(site),
                Endpoint::Site(source),
                Payload::RangeHashReq { range, peer },
            );
        }
        self.arm(engine, site);
    }

    /// Arms the per-site retry timer under the configured backoff policy
    /// (same jitter discipline as the coordinator: `Fixed` draws no RNG).
    fn arm(&mut self, engine: &mut Engine, site: SiteId) {
        let u = if self.retry.uses_jitter() {
            engine.rng.gen::<f64>()
        } else {
            0.0
        };
        // arbitree-lint: allow(D005) — arm is called only with live state
        let state = self.states.get(&site).expect("rejoin state exists");
        let delay = self.retry.delay(self.base, state.attempt, u);
        engine.arm_sync_retry(site, state.attempt, state.epoch, delay);
    }

    /// An anti-entropy payload arrived at a (supposedly) syncing site.
    /// Stale deliveries — the rejoin completed, restarted against another
    /// source, or this range was already answered — are ignored.
    pub(crate) fn on_message(
        &mut self,
        engine: &mut Engine,
        shards: &ShardMap,
        site: SiteId,
        msg: Message,
    ) {
        let Some(state) = self.states.get_mut(&site) else {
            return; // already Serving again: a late duplicate
        };
        let from_current =
            matches!(msg.from, Endpoint::Site(s) if state.sources.first() == Some(&s));
        if !from_current {
            return; // echo from a source of an abandoned session
        }
        let progressed = match msg.payload {
            Payload::RangeHashResp { range, verdict } => {
                let resp = match verdict {
                    RangeVerdict::Match => Response::Match,
                    RangeVerdict::Children(digests) => Response::Children(digests),
                };
                state.session.on_response(
                    engine.sites[site.index()].storage_mut().htree(),
                    range,
                    &resp,
                )
            }
            Payload::RangeFill { range, items } => {
                engine.metrics.sync_keys_transferred += items.len() as u64;
                let storage = engine.sites[site.index()].storage_mut();
                for (obj, value, ts) in items {
                    // ts-guarded: a locally newer version (e.g. installed
                    // by a racing commit retry) is never regressed.
                    storage.repair(obj, value, ts);
                }
                state
                    .session
                    .on_response(storage.htree(), range, &Response::Fill)
            }
            _ => false,
        };
        if !progressed {
            return; // duplicate of an already-consumed probe
        }
        state.attempt = 0;
        if state.session.is_done() {
            state.sources.remove(0);
            if state.sources.is_empty() {
                let started = state.started;
                self.states.remove(&site);
                engine.sites[site.index()].mark_serving();
                engine.metrics.rejoins_completed += 1;
                engine.metrics.rejoin_time_total =
                    engine.metrics.rejoin_time_total + (engine.now() - started);
                return;
            }
            state.session = Session::new();
            engine.metrics.sync_sessions += 1;
        }
        self.bump_epoch(site);
        let _ = shards;
        self.pump(engine, site);
    }

    /// The retry timer fired. Stale epochs are no-ops; otherwise resend
    /// the outstanding probes with backoff, or restart the whole rejoin if
    /// the current source is no longer serving.
    pub(crate) fn on_retry(
        &mut self,
        engine: &mut Engine,
        shards: &ShardMap,
        site: SiteId,
        epoch: u64,
    ) {
        if self.retry_is_stale(site, epoch) {
            return;
        }
        engine.metrics.sync_retries += 1;
        // arbitree-lint: allow(D005) — retry_is_stale just proved the state live
        let state = self.states.get_mut(&site).expect("rejoin state exists");
        state.attempt = state.attempt.saturating_add(1);
        let source_serving = state
            .sources
            .first()
            .is_some_and(|s| engine.sites[s.index()].is_serving());
        if !source_serving {
            // Waiting for quorum coverage, or the source crashed/recovered
            // into Syncing itself: rebuild the source list from scratch.
            if !state.sources.is_empty() {
                engine.metrics.sync_restarts += 1;
            }
            self.bump_epoch(site);
            self.restart(engine, shards, site);
            return;
        }
        if state.session.in_flight() == 0 {
            // Nothing awaiting a response (fresh session or the window
            // drained exactly at a source switch): send new probes.
            self.pump(engine, site);
            return;
        }
        state.session.resend_requests(
            engine.sites[site.index()].storage_mut().htree(),
            &mut self.probes,
        );
        // arbitree-lint: allow(D005) — in_flight() > 0 was just checked
        let &source = state.sources.first().expect("serving source exists");
        self.send_probes(engine, site, source);
    }

    /// Folds the manager's state into a run fingerprint.
    pub(crate) fn fingerprint_into(&self, h: &mut Fnv) {
        h.u64(self.next_epoch);
        h.u64(self.states.len() as u64);
        for (site, state) in self.states.iter() {
            h.u64(u64::from(site.as_u32()));
            h.debug(state);
        }
    }
}
