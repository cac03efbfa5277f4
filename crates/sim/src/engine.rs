//! The discrete-event engine: everything below the transaction layer.
//!
//! [`Engine`] owns the simulated clock, the future-event queue, the
//! message transport, the replica sites (with their storage and liveness),
//! the metrics sink, and the run's RNG. It knows nothing about
//! transactions, locks, or quorums — the
//! [`crate::coordinator::Coordinator`] drives those and uses the engine
//! purely as its clock + transport + site fabric.

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::message::{ClientId, Endpoint, Message, OpId, Payload};
use crate::metrics::SimMetrics;
use crate::network::{Network, Partition};
use crate::site::{CrashMode, Site, SiteHealth};
use crate::time::SimTime;
use arbitree_quorum::{AliveSet, QuorumSet, SiteId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The engine layer: clock, event queue, transport, sites, metrics, RNG.
#[derive(Debug)]
pub struct Engine {
    pub(crate) sites: Vec<Site>,
    pub(crate) network: Network,
    pub(crate) queue: EventQueue,
    pub(crate) metrics: SimMetrics,
    pub(crate) rng: StdRng,
    pub(crate) now: SimTime,
    pub(crate) end: SimTime,
    /// Whether client→site traffic is coalesced per destination
    /// ([`SimConfig::batching`]).
    batching: bool,
    /// Per-destination payload buffer, filled by [`Engine::send_to_sites`]
    /// while handling one event and drained by [`Engine::flush_outbox`]
    /// afterwards. Insertion-ordered (deterministic: it follows the
    /// coordinator's own send order); tiny — one event touches a handful
    /// of destinations. The outer `Vec` keeps its capacity across events;
    /// the inner buffers recycle through [`Engine::outbox_pool`].
    outbox: Vec<(ClientId, SiteId, Vec<Payload>)>,
    /// Retired per-destination buffers awaiting reuse. Single-payload
    /// destinations hand their (emptied) buffer back at flush time;
    /// coalesced destinations move theirs into the [`Payload::Batch`]
    /// envelope instead. A site answers a batch in the same buffer, and the
    /// coordinator returns it here once it has handled the replies
    /// ([`Engine::recycle_envelope`]), so no payload is ever copied and an
    /// envelope is allocated only to replace one lost in the network.
    outbox_pool: Vec<Vec<Payload>>,
    /// How each site last went down ([`CrashMode::Transient`] until a crash
    /// says otherwise) — recovery needs to know what state the site kept.
    crash_modes: Vec<CrashMode>,
    /// Set as soon as any [`Event::AmnesiaCrash`] is scheduled. The model
    /// checker reads it to decide whether `Recover` events can have global
    /// effects (starting a rejoin touches coordinator-visible state);
    /// schedule-time stability keeps the classification identical across an
    /// exploration.
    amnesia_scheduled: bool,
}

impl Engine {
    /// Creates the engine fabric for `n_sites` replicas under `config`.
    pub(crate) fn new(n_sites: usize, config: &SimConfig) -> Self {
        Engine {
            sites: (0..n_sites as u32)
                .map(|i| Site::new(SiteId::new(i)))
                .collect(),
            network: Network::new(config.network),
            queue: EventQueue::new(),
            metrics: SimMetrics::default(),
            rng: StdRng::seed_from_u64(config.seed),
            now: SimTime::ZERO,
            end: SimTime::ZERO + config.duration,
            batching: config.batching,
            outbox: Vec::new(),
            outbox_pool: Vec::new(),
            crash_modes: vec![CrashMode::Transient; n_sites],
            amnesia_scheduled: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Configured end of the run.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The replica sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The pending-event queue (inspection — schedulers enumerate the
    /// enabled set through this).
    pub fn queue(&self) -> &EventQueue {
        &self.queue
    }

    /// Schedules an event at `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
    }

    /// Installs (or clears) a network partition.
    pub fn set_partition(&mut self, partition: Partition) {
        self.network.set_partition(partition);
    }

    /// Installs (`Some`) or clears (`None`) a network-behaviour override.
    pub fn set_network_override(&mut self, override_config: Option<crate::NetworkConfig>) {
        self.network.set_override(override_config);
    }

    /// Fail-stops a site. [`CrashMode::Transient`] keeps its storage;
    /// [`CrashMode::Amnesia`] wipes it, and the eventual recovery will
    /// re-enter through the `Syncing` state instead of serving directly.
    pub(crate) fn crash(&mut self, site: SiteId, mode: CrashMode) {
        self.crash_modes[site.index()] = mode;
        self.sites[site.index()].crash(mode);
    }

    /// Recovers a site, passing it the mode of the crash that took it down
    /// so it knows whether its storage survived. Returns the resulting
    /// health: `Serving` after a transient crash, `Syncing` after an
    /// amnesia crash (the caller starts the rejoin protocol).
    pub(crate) fn recover(&mut self, site: SiteId) -> SiteHealth {
        let mode = self.crash_modes[site.index()];
        self.sites[site.index()].recover(mode)
    }

    /// Marks that an amnesia crash has been scheduled for this run (read by
    /// the model checker's event classification; see
    /// [`Engine::amnesia_scheduled`]).
    pub(crate) fn note_amnesia_scheduled(&mut self) {
        self.amnesia_scheduled = true;
    }

    /// Whether any amnesia crash was ever scheduled. Monotonic and set at
    /// *schedule* time, so it is stable across a model checker's
    /// re-executions of the same scenario.
    pub fn amnesia_scheduled(&self) -> bool {
        self.amnesia_scheduled
    }

    /// The sites currently serving quorum traffic (up and not mid-rejoin).
    pub fn serving_sites(&self) -> AliveSet {
        let mut alive = AliveSet::new();
        for s in &self.sites {
            if s.is_serving() {
                alive.insert(s.id());
            }
        }
        alive
    }

    /// The sites currently mid-rejoin (`Syncing`): up, reachable, but
    /// refusing quorum traffic — the coordinator routes around them.
    pub fn syncing_sites(&self) -> AliveSet {
        let mut syncing = AliveSet::new();
        for s in &self.sites {
            if s.health() == SiteHealth::Syncing {
                syncing.insert(s.id());
            }
        }
        syncing
    }

    /// Arms the rejoin retry timer for a syncing site. Scheduling stays
    /// inside the engine (the designated enqueue layer) — the rejoin
    /// manager calls this instead of touching the queue directly.
    pub(crate) fn arm_sync_retry(
        &mut self,
        site: SiteId,
        attempt: u32,
        epoch: u64,
        delay: crate::time::SimDuration,
    ) {
        self.queue.schedule(
            self.now + delay,
            Event::SyncRetry {
                site,
                attempt,
                epoch,
            },
        );
    }

    /// Sends one message through the simulated network.
    pub(crate) fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload) {
        self.network.send(
            self.now,
            from,
            to,
            payload,
            &mut self.queue,
            &mut self.metrics,
            &mut self.rng,
        );
    }

    /// Sends `payload` from `client` to every member of `members`, in
    /// ascending site order — one clone per extra destination, the original
    /// moving into the last (the payload's `Bytes` values make those clones
    /// inline copies of a short value or shares of a long one's buffer,
    /// never allocations).
    pub(crate) fn send_to_sites(
        &mut self,
        client: ClientId,
        members: &QuorumSet,
        payload: Payload,
    ) {
        let last = members.len().saturating_sub(1);
        let mut payload = Some(payload);
        for (i, s) in members.iter().enumerate() {
            let payload = if i == last {
                payload.take()
            } else {
                payload.clone()
            }
            // arbitree-lint: allow(D005) — `take()` runs only when i == last, so the Option is still occupied
            .expect("payload moves out exactly once, on the last member");
            self.send_to_site(client, s, payload);
        }
    }

    /// Sends `payload` from `client` to `site`. With
    /// [`SimConfig::batching`] on, it is buffered per destination instead
    /// and coalesced into one envelope per site when
    /// [`Engine::flush_outbox`] runs at the end of the current event.
    pub(crate) fn send_to_site(&mut self, client: ClientId, site: SiteId, payload: Payload) {
        if !self.batching {
            self.send(Endpoint::Client(client), Endpoint::Site(site), payload);
            return;
        }
        match self
            .outbox
            .iter_mut()
            .find(|(c, dst, _)| *c == client && *dst == site)
        {
            Some((_, _, buffered)) => buffered.push(payload),
            None => {
                let mut buf = self.outbox_pool.pop().unwrap_or_default();
                buf.push(payload);
                self.outbox.push((client, site, buf));
            }
        }
    }

    /// Drains the per-destination buffer: a destination with one pending
    /// payload gets a plain message; two or more are coalesced into a
    /// single [`Payload::Batch`] envelope — one network round-trip (one
    /// latency/drop draw) amortized across every payload inside.
    ///
    /// Buffer recycling: the outer `Vec` is taken, drained, and restored so
    /// its capacity carries across events; a single-payload destination's
    /// (now empty) inner buffer goes back to [`Engine::outbox_pool`], while
    /// a coalesced destination's buffer moves into the [`Payload::Batch`]
    /// envelope itself — no payload is ever copied out.
    pub(crate) fn flush_outbox(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        for (client, site, mut payloads) in outbox.drain(..) {
            let payload = if payloads.len() == 1 {
                // arbitree-lint: allow(D005) — len() == 1 was just checked
                let p = payloads.pop().expect("one payload");
                self.outbox_pool.push(payloads);
                p
            } else {
                self.metrics.batches_sent += 1;
                self.metrics.batched_payloads += payloads.len() as u64;
                Payload::Batch(payloads)
            };
            self.send(Endpoint::Client(client), Endpoint::Site(site), payload);
        }
        self.outbox = outbox;
    }

    /// Returns a drained envelope buffer to [`Engine::outbox_pool`]: a
    /// batch's buffer travels client → site → client and comes back here,
    /// so the pool stays stocked without allocating.
    pub(crate) fn recycle_envelope(&mut self, mut payloads: Vec<Payload>) {
        payloads.clear();
        self.outbox_pool.push(payloads);
    }

    /// Arms a phase timeout for `op`, tagged with `attempt` so stale
    /// timeouts from earlier phase starts are ignored.
    pub(crate) fn arm_timeout(
        &mut self,
        client: ClientId,
        op: OpId,
        attempt: u64,
        timeout: crate::time::SimDuration,
    ) {
        self.queue.schedule(
            self.now + timeout,
            Event::OpTimeout {
                client,
                op,
                attempt,
            },
        );
    }

    /// Delivers a site-bound message: the site handles it and any reply is
    /// sent back through the network. Messages to crashed sites are counted
    /// and dropped; a `Syncing` site receives the message but its health
    /// gate refuses everything (counted as `messages_refused_syncing`). A
    /// [`Payload::Batch`] envelope is unwrapped here — each inner payload
    /// is handled (and counted as a site request) individually, and the
    /// replies travel back coalesced into the same envelope.
    ///
    /// Every reply is checked against the site's health *at serve time*:
    /// a reply from a non-`Serving` site counts as a `sync_violations` —
    /// structurally unreachable while the health gate holds, and asserted
    /// zero by the chaos gates.
    pub(crate) fn deliver_to_site(&mut self, sid: SiteId, msg: Message) {
        if !self.sites[sid.index()].is_up() {
            self.metrics.messages_to_dead += 1;
            return;
        }
        let serving = self.sites[sid.index()].is_serving();
        self.metrics.messages_delivered += 1;
        match msg.payload {
            Payload::Batch(mut replies) => {
                // Answered in place: each request's slot takes its reply,
                // and one-way requests drop out.
                let site = &mut self.sites[sid.index()];
                replies.retain_mut(|payload| {
                    self.metrics.record_site_request(sid.as_u32());
                    match site.handle(payload, &mut self.metrics) {
                        Some((_, reply)) => {
                            *payload = reply;
                            true
                        }
                        None => false,
                    }
                });
                if !serving {
                    self.metrics.sync_violations += replies.len() as u64;
                }
                let reply = match replies.len() {
                    0 => {
                        self.recycle_envelope(replies);
                        return;
                    }
                    1 => {
                        // arbitree-lint: allow(D005) — len() == 1 was just matched
                        let reply = replies.pop().expect("one reply");
                        self.recycle_envelope(replies);
                        reply
                    }
                    n => {
                        self.metrics.batches_sent += 1;
                        self.metrics.batched_payloads += n as u64;
                        Payload::Batch(replies)
                    }
                };
                self.send(Endpoint::Site(sid), msg.from, reply);
            }
            ref payload => {
                self.metrics.record_site_request(sid.as_u32());
                if let Some((_, reply)) = self.sites[sid.index()].handle(payload, &mut self.metrics)
                {
                    if !serving {
                        self.metrics.sync_violations += 1;
                    }
                    self.send(Endpoint::Site(sid), msg.from, reply);
                }
            }
        }
    }
}
