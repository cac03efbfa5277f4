//! Staged replica rejoin: anti-entropy for sites returning from amnesia
//! crashes.
//!
//! A site that lost its storage recovers as [`SiteHealth::Syncing`]: it is
//! reachable but refuses quorum traffic (the coordinator routes around it,
//! treating it like a suspected site). The [`RejoinManager`] then drives
//! range-hash reconciliation against a set of *sync sources* picked by
//! [`write_mate_sources`]: for every write quorum that contains the
//! rejoining site, one currently `Serving` mate from it, drawn only where
//! the sources already chosen do not meet that quorum. In the paper's
//! protocol a write quorum is one whole physical level, so on `1-3-5` a
//! rejoin syncs from a single level-mate. Sessions run sequentially per
//! source through the ordinary deterministic event queue
//! ([`Payload::RangeHashReq`]/[`Payload::RangeHashResp`]/
//! [`Payload::RangeFill`]), with [`RetryPolicy`] backoff against message
//! loss and a full restart if a source stops serving mid-session. When the
//! last source drains, the site is marked `Serving` again; a site that no
//! write quorum contains owes nothing and serves at once.
//!
//! A source answers a mismatching range with its whole contents in one
//! [`Payload::RangeFill`] when the range is sparse (at most 16 items) or
//! when the rejoiner holds nothing there and the source at most
//! [`FILL_BUDGET`] items, and with child digests otherwise. An amnesiac
//! starts empty, so its session pulls the store in about one fill per
//! budget-sized range instead of descending to every 16-key leaf. Sources
//! outside the rejoiner's write quorums would add sessions against stores
//! that differ from it in scattered keys, each costing its own fill; on
//! the hot-churn shape a rejoin compares about 2 ranges and takes about
//! 1.3 ms of simulated time.
//!
//! Safety argument (the inductive invariant the chaos gates check): every
//! `Serving` site holds every completed write whose write quorum contains
//! it. Serving sites only leave the invariant set by crashing. A rejoining
//! site re-enters it only after pulling from a serving member of
//! `W \ {site}` for every write quorum `W` that contains it, and that
//! member holds every completed write of `W` by the invariant. The site
//! need not hold writes whose quorum does not contain it: a read quorum
//! meets their write quorum in some other `Serving` site. While a live
//! reconfiguration runs, migration writes go to the union of an old and a
//! target write quorum, so the sources also meet the target's write
//! quorums. A single-site write quorum `W = {site}` (for example the
//! physical root of `p:1-3`) has no mate: its writes lived only on the
//! wiped store, so the rejoin is abandoned and the site stays `Syncing`
//! for the rest of the run (every read quorum needs that site as well).
//! The wait is structural, not transient, so no retry timer is armed for
//! it; [`SimMetrics::rejoins_abandoned`] counts it. A reconfiguration
//! that starts later does not revive such a rejoin. In-flight 2PC
//! commits the site may have lost the stage for still apply because
//! [`Payload::Commit`] carries the decided value and timestamp; a commit
//! it had acknowledged before the wipe is expected from it again once it
//! recovers, so that write cannot complete without it. A session ends only once every divergent range has been filled,
//! and a fill carries every committed item the source holds in its range,
//! however large the range; the rejoiner installs them timestamp-guarded,
//! so nothing newer is regressed.
//!
//! [`SiteHealth::Syncing`]: crate::SiteHealth::Syncing
//! [`Payload::RangeHashReq`]: crate::Payload::RangeHashReq
//! [`Payload::RangeHashResp`]: crate::Payload::RangeHashResp
//! [`Payload::RangeFill`]: crate::Payload::RangeFill
//! [`RetryPolicy`]: crate::RetryPolicy
//! [`FILL_BUDGET`]: arbitree_sync::FILL_BUDGET
//! [`SimMetrics::rejoins_abandoned`]: crate::SimMetrics::rejoins_abandoned

use crate::config::{RetryPolicy, SimConfig};
use crate::engine::Engine;
use crate::fingerprint::Fnv;
use crate::message::{Endpoint, Message, Payload, RangeVerdict};
use crate::time::{SimDuration, SimTime};
use arbitree_quorum::{AliveSet, QuorumSet, ReplicaControl, ShardMap, SiteId};
use arbitree_sync::{NodeAgg, Range, Response, Session};
use rand::{Rng, RngCore};

/// The sync sources for rejoining `site`: for every write quorum `W` of
/// `protocols` that contains `site` and that the sources drawn so far do
/// not yet meet, one member of `W \ {site}` drawn uniformly among the
/// `serving` ones. Every completed write whose write quorum holds `site`
/// then sits on some source. `None` if some such `W \ {site}` has no
/// serving member — including `W = {site}`, whose writes no other site
/// holds — and empty if no write quorum contains `site`.
pub fn write_mate_sources<'a>(
    protocols: impl IntoIterator<Item = &'a dyn ReplicaControl>,
    site: SiteId,
    serving: &AliveSet,
    rng: &mut dyn RngCore,
) -> Option<QuorumSet> {
    let mut sources = QuorumSet::new();
    for protocol in protocols {
        for w in protocol.write_quorums() {
            if !w.contains(site) || w.intersects(&sources) {
                continue;
            }
            let mates = || w.iter().filter(|&s| s != site && serving.contains(s));
            let count = mates().count();
            if count == 0 {
                return None;
            }
            let idx = (rng.next_u64() % count as u64) as usize;
            sources.extend(mates().nth(idx));
        }
    }
    Some(sources)
}

/// Maximum range probes a syncing site keeps in flight per session. Small
/// enough to bound burst load on the source, large enough to hide one
/// round-trip of latency per tree level.
const WINDOW: usize = 4;

/// Per-site rejoin progress.
#[derive(Debug)]
struct RejoinState {
    /// Remaining sync sources, current one first. Empty while waiting for
    /// a `Serving` mate in every write quorum that contains the site.
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
    /// Whether the rejoin was given up (a write quorum holding the site
    /// has no other member); feeds only the abandoned-rejoin count.
    abandoned: bool,
}

/// The state of `site`'s rejoin, which the caller knows is in progress.
fn live(states: &mut [Option<RejoinState>], site: SiteId) -> &mut RejoinState {
    // arbitree-lint: allow(D005) — callers run between `on_recover` and `complete`
    states[site.index()].as_mut().expect("rejoin state exists")
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
    /// Each site's rejoin in progress, indexed by [`SiteId::index`]; empty
    /// until the run's first rejoin, so a run without one allocates nothing.
    states: Vec<Option<RejoinState>>,
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
            states: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Whether `site` is currently mid-rejoin.
    pub fn is_rejoining(&self, site: SiteId) -> bool {
        self.states.get(site.index()).is_some_and(Option::is_some)
    }

    /// Whether a [`crate::Event::SyncRetry`] with `epoch` is permanently
    /// stale for `site`: the rejoin progressed past it (epochs are bumped
    /// on every step), restarted, or completed. Epochs are globally
    /// monotonic and never reused, so staleness is irreversible — the
    /// model checker may treat such an event as a no-op.
    pub fn retry_is_stale(&self, site: SiteId, epoch: u64) -> bool {
        let state = self.states.get(site.index()).and_then(Option::as_ref);
        state.is_none_or(|s| s.epoch != epoch)
    }

    fn bump_epoch(&mut self, site: SiteId) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        if let Some(state) = self.states[site.index()].as_mut() {
            state.epoch = epoch;
        }
    }

    /// A site recovered into `Syncing`: begin (or re-begin) its rejoin.
    pub(crate) fn on_recover(
        &mut self,
        engine: &mut Engine,
        shards: &ShardMap,
        target: Option<&dyn ReplicaControl>,
        site: SiteId,
    ) {
        if self.states.is_empty() {
            self.states.resize_with(engine.sites.len(), || None);
        }
        let (started, abandoned) = match self.states[site.index()].as_ref() {
            // A transient crash interrupted this rejoin; keep the original
            // start time so rejoin latency measures the whole outage tail,
            // and count an abandoned outage once.
            Some(state) => (state.started, state.abandoned),
            None => (engine.now(), false),
        };
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.states[site.index()] = Some(RejoinState {
            sources: Vec::new(),
            session: Session::new(),
            attempt: 0,
            epoch,
            started,
            abandoned,
        });
        self.restart(engine, shards, target, site);
    }

    /// (Re)assembles the source list under the shards' structures and,
    /// while a live reconfiguration runs, its `target`'s (see
    /// [`write_mate_sources`]), and opens a fresh session. Called on
    /// recovery and whenever the current source stops serving. Abandons
    /// the rejoin instead when some write quorum is the site alone.
    fn restart(
        &mut self,
        engine: &mut Engine,
        shards: &ShardMap,
        target: Option<&dyn ReplicaControl>,
        site: SiteId,
    ) {
        let protocols = || {
            (0..shards.shard_count())
                .map(|i| shards.get(i))
                .chain(target)
        };
        let state = live(&mut self.states, site);
        let alone =
            |p: &dyn ReplicaControl| p.write_quorums().any(|w| w.len() == 1 && w.contains(site));
        if protocols().any(alone) {
            // A write quorum is the site alone: its writes lived only on
            // the wiped store and no mate can restore them, so waiting
            // would never end. Arm nothing.
            state.sources = Vec::new();
            if !state.abandoned {
                state.abandoned = true;
                engine.metrics.rejoins_abandoned += 1;
            }
            return;
        }
        let serving = engine.serving_sites();
        let sources = write_mate_sources(protocols(), site, &serving, &mut engine.rng);
        match sources {
            // No write quorum contains the site: it owes nothing.
            Some(sources) if sources.is_empty() => self.complete(engine, site),
            Some(sources) => {
                state.sources = sources.iter().collect();
                state.session = Session::new();
                engine.metrics.sync_sessions += 1;
                self.pump(engine, site);
            }
            None => {
                // Some write quorum holding the site has no other
                // Serving member right now; back off and re-probe.
                state.sources = Vec::new();
                self.arm(engine, site);
            }
        }
    }

    /// Sends fresh probes up to the in-flight window and (re)arms the
    /// retry timer.
    fn pump(&mut self, engine: &mut Engine, site: SiteId) {
        let state = live(&mut self.states, site);
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
        let state = live(&mut self.states, site);
        let delay = self.retry.delay(self.base, state.attempt, u);
        engine.arm_sync_retry(site, state.attempt, state.epoch, delay);
    }

    /// An anti-entropy payload arrived at a (supposedly) syncing site.
    /// Stale deliveries — the rejoin completed, restarted against another
    /// source, or this range was already answered — are ignored.
    pub(crate) fn on_message(&mut self, engine: &mut Engine, site: SiteId, msg: Message) {
        let Some(state) = self.states.get_mut(site.index()).and_then(Option::as_mut) else {
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
                self.complete(engine, site);
                return;
            }
            state.session = Session::new();
            engine.metrics.sync_sessions += 1;
        }
        self.bump_epoch(site);
        self.pump(engine, site);
    }

    /// The last source drained (or there was none): `site` serves again.
    fn complete(&mut self, engine: &mut Engine, site: SiteId) {
        let Some(state) = self.states[site.index()].take() else {
            return;
        };
        engine.sites[site.index()].mark_serving();
        engine.metrics.rejoins_completed += 1;
        engine.metrics.rejoin_time_total =
            engine.metrics.rejoin_time_total + (engine.now() - state.started);
    }

    /// The retry timer fired. Stale epochs are no-ops; otherwise resend
    /// the outstanding probes with backoff, or restart the whole rejoin if
    /// the current source is no longer serving.
    pub(crate) fn on_retry(
        &mut self,
        engine: &mut Engine,
        shards: &ShardMap,
        target: Option<&dyn ReplicaControl>,
        site: SiteId,
        epoch: u64,
    ) {
        if self.retry_is_stale(site, epoch) {
            return;
        }
        engine.metrics.sync_retries += 1;
        let state = live(&mut self.states, site);
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
            self.restart(engine, shards, target, site);
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
        h.u64(self.states.iter().flatten().count() as u64);
        for (site, state) in self.states.iter().enumerate() {
            let Some(state) = state else {
                continue;
            };
            h.u64(site as u64);
            // `started` feeds only the rejoin-latency metric: under a
            // controlled scheduler it is a clock label, like a
            // transaction's start stamp, so it stays out.
            h.debug(&(&state.sources, &state.session, state.attempt, state.epoch));
        }
    }
}
