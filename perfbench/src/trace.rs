//! Layer attribution from outside the simulator.
//!
//! Two seams of the public API carry every span:
//!
//! * [`TimingScheduler`] implements [`Scheduler`]. `run_with` calls
//!   `select` once before every step, so the gap between two consecutive
//!   calls is one step: the event the earlier call selected, dispatched to
//!   its layer, plus the outbox flush. Each step is labelled with the
//!   [`Step`] kind of that event, and the `next_key` call inside `select`
//!   is timed on its own (the `event` layer).
//! * [`TimedProtocol`] wraps a shard's [`ReplicaControl`] and times
//!   `pick_read_quorum` / `pick_write_quorum`. Those picks are child spans
//!   of whichever step called them; the scheduler subtracts them from that
//!   step's time to get the step's self time.
//!
//! Neither seam changes what the simulator does: the scheduler returns
//! exactly the key the seeded scheduler would, and the wrapper forwards
//! every call with the caller's RNG. The benchmark checks this by
//! comparing traced and untraced `SimReport`s.
//!
//! [`CountingScheduler`] is the untraced counterpart: it only counts.

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, Universe};
use arbitree_sim::{Endpoint, Event, EventKey, Payload, Scheduler, Simulation};
use rand::RngCore;
use std::cell::Cell;
use std::rc::Rc;
// arbitree-lint: allow(D002) — wall-clock timing of the benchmark harness itself, not simulated time
use std::time::Instant;

/// The benchmark's one wall-clock read.
pub fn wall_now() -> Instant {
    // arbitree-lint: allow(D002) — wall-clock timing of the benchmark harness itself, not simulated time
    Instant::now()
}

/// Nanoseconds between two instants, saturating at zero.
fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// What one simulator step does, by the event that drives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A quorum-protocol message delivered to a site (`site` layer),
    /// including the send of its reply.
    SiteDeliver,
    /// A reply delivered to a client coordinator (`coordinator` layer).
    ClientDeliver,
    /// A client wakes to issue its next transaction (`coordinator`).
    ClientTick,
    /// A phase timer fires at a coordinator (`coordinator`).
    OpTimeout,
    /// An anti-entropy message delivery (`recovery` layer).
    SyncMessage,
    /// A rejoin retry timer fires (`recovery`).
    SyncRetry,
    /// A crash, recovery, partition, network override or reconfiguration
    /// (`fault` events).
    Fault,
}

impl Step {
    /// Number of step kinds.
    pub const COUNT: usize = Step::Fault as usize + 1;

    /// Dense index into per-step tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Classifies `event`, and counts the protocol payloads it carries to
    /// a site (a batch envelope carries several).
    pub fn of(event: &Event) -> (Step, u64) {
        match event {
            Event::Deliver(msg) => match (&msg.to, &msg.payload) {
                (
                    _,
                    Payload::RangeHashReq { .. }
                    | Payload::RangeHashResp { .. }
                    | Payload::RangeFill { .. },
                ) => (Step::SyncMessage, 0),
                (Endpoint::Site(_), Payload::Batch(inner)) => {
                    (Step::SiteDeliver, inner.len() as u64)
                }
                (Endpoint::Site(_), _) => (Step::SiteDeliver, 1),
                (Endpoint::Client(_), _) => (Step::ClientDeliver, 0),
            },
            Event::ClientTick(_) => (Step::ClientTick, 0),
            Event::OpTimeout { .. } => (Step::OpTimeout, 0),
            Event::SyncRetry { .. } => (Step::SyncRetry, 0),
            Event::Crash(_)
            | Event::AmnesiaCrash(_)
            | Event::Recover(_)
            | Event::SetPartition(_)
            | Event::NetOverride(_)
            | Event::Reconfigure => (Step::Fault, 0),
        }
    }
}

/// The untraced scheduler: fires the earliest event, like
/// [`arbitree_sim::SeededScheduler`], and counts the events that run.
#[derive(Debug, Default)]
pub struct CountingScheduler {
    /// Events executed (the final key past the end time is not counted).
    pub events: u64,
}

impl Scheduler for CountingScheduler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let key = sim.engine().queue().next_key()?;
        if key.at <= sim.engine().end() {
            self.events += 1;
        }
        Some(key)
    }
}

/// Quorum-pick timings, shared between the [`TimedProtocol`] wrappers of
/// every shard and the [`TimingScheduler`] that owns the enclosing steps.
#[derive(Debug, Default)]
pub struct PickProbe {
    read_ns: Cell<u64>,
    read_picks: Cell<u64>,
    write_ns: Cell<u64>,
    write_picks: Cell<u64>,
    failed_picks: Cell<u64>,
    /// Pick time inside the step now running; drained at each step end.
    open_step_ns: Cell<u64>,
}

/// Totals a [`PickProbe`] gathered over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PickTotals {
    /// Time spent in `pick_read_quorum`.
    pub read_ns: u64,
    /// `pick_read_quorum` calls.
    pub read_picks: u64,
    /// Time spent in `pick_write_quorum`.
    pub write_ns: u64,
    /// `pick_write_quorum` calls.
    pub write_picks: u64,
    /// Picks of either kind that returned `None`.
    pub failed_picks: u64,
}

impl PickProbe {
    fn record(&self, write: bool, ns: u64, found: bool) {
        let (time, count) = if write {
            (&self.write_ns, &self.write_picks)
        } else {
            (&self.read_ns, &self.read_picks)
        };
        time.set(time.get() + ns);
        count.set(count.get() + 1);
        if !found {
            self.failed_picks.set(self.failed_picks.get() + 1);
        }
        self.open_step_ns.set(self.open_step_ns.get() + ns);
    }

    /// Pick time since the last call, which belongs to the step that ends.
    fn drain_step(&self) -> u64 {
        self.open_step_ns.replace(0)
    }

    /// The run's totals.
    pub fn totals(&self) -> PickTotals {
        PickTotals {
            read_ns: self.read_ns.get(),
            read_picks: self.read_picks.get(),
            write_ns: self.write_ns.get(),
            write_picks: self.write_picks.get(),
            failed_picks: self.failed_picks.get(),
        }
    }
}

/// A [`ReplicaControl`] that forwards to the real protocol and times its
/// quorum picks into a shared [`PickProbe`].
pub struct TimedProtocol {
    inner: Box<dyn ReplicaControl>,
    probe: Rc<PickProbe>,
}

impl TimedProtocol {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn ReplicaControl>, probe: Rc<PickProbe>) -> Self {
        TimedProtocol { inner, probe }
    }
}

impl ReplicaControl for TimedProtocol {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn universe(&self) -> Universe {
        self.inner.universe()
    }
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.inner.read_quorums()
    }
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.inner.write_quorums()
    }
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let start = wall_now();
        let quorum = self.inner.pick_read_quorum(alive, rng);
        self.probe
            .record(false, ns_between(start, wall_now()), quorum.is_some());
        quorum
    }
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let start = wall_now();
        let quorum = self.inner.pick_write_quorum(alive, rng);
        self.probe
            .record(true, ns_between(start, wall_now()), quorum.is_some());
        quorum
    }
    fn read_cost(&self) -> CostProfile {
        self.inner.read_cost()
    }
    fn write_cost(&self) -> CostProfile {
        self.inner.write_cost()
    }
    fn read_availability(&self, p: f64) -> f64 {
        self.inner.read_availability(p)
    }
    fn write_availability(&self, p: f64) -> f64 {
        self.inner.write_availability(p)
    }
    fn read_load(&self) -> f64 {
        self.inner.read_load()
    }
    fn write_load(&self) -> f64 {
        self.inner.write_load()
    }
}

/// Wall time and count of one [`Step`] kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Steps of this kind that ran.
    pub count: u64,
    /// Their whole wall time, quorum picks included.
    pub ns: u64,
    /// The part of `ns` spent in quorum picks (the `protocol` child spans).
    pub pick_ns: u64,
}

impl StepTotals {
    /// Wall time net of the protocol child spans.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.pick_ns)
    }
}

/// Everything a traced run records, summed over the run.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    /// Per-step-kind totals, indexed by [`Step::index`].
    pub steps: [StepTotals; Step::COUNT],
    /// `next_key` calls and the time they took.
    pub selects: u64,
    /// Time inside `next_key`.
    pub select_ns: u64,
    /// Protocol payloads carried by site-bound deliveries.
    pub site_payloads: u64,
    /// Σ queue length × simulated µs it was held (between events).
    pub pending_area: u128,
    /// Σ transactions in flight × simulated µs it was held.
    pub in_flight_area: u128,
    /// Simulated µs covered by the two areas.
    pub span_us: u64,
    /// Quorum-pick totals from the [`PickProbe`].
    pub picks: PickTotals,
}

impl TraceTotals {
    /// Totals of one step kind.
    pub fn step(&self, step: Step) -> StepTotals {
        self.steps[step.index()]
    }

    /// Adds another run's totals into these.
    pub fn absorb(&mut self, other: &TraceTotals) {
        for (mine, theirs) in self.steps.iter_mut().zip(other.steps.iter()) {
            mine.count += theirs.count;
            mine.ns += theirs.ns;
            mine.pick_ns += theirs.pick_ns;
        }
        self.selects += other.selects;
        self.select_ns += other.select_ns;
        self.site_payloads += other.site_payloads;
        self.pending_area += other.pending_area;
        self.in_flight_area += other.in_flight_area;
        self.span_us += other.span_us;
        self.picks.read_ns += other.picks.read_ns;
        self.picks.read_picks += other.picks.read_picks;
        self.picks.write_ns += other.picks.write_ns;
        self.picks.write_picks += other.picks.write_picks;
        self.picks.failed_picks += other.picks.failed_picks;
    }

    /// What the trace attributes: every step (its layer's self time plus
    /// its quorum picks) and every `next_key` call. The rest of the run's
    /// wall time is unattributed.
    pub fn attributed_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.ns).sum::<u64>() + self.select_ns
    }
}

/// The traced scheduler: fires the earliest event and times every step.
#[derive(Debug)]
pub struct TimingScheduler {
    probe: Rc<PickProbe>,
    /// The step now running: its kind and when it started.
    open: Option<(Step, Instant)>,
    totals: TraceTotals,
}

impl TimingScheduler {
    /// A scheduler whose steps absorb the pick spans recorded in `probe`.
    pub fn new(probe: Rc<PickProbe>) -> Self {
        TimingScheduler {
            probe,
            open: None,
            totals: TraceTotals::default(),
        }
    }

    /// The run's totals. The last selected key lies past the end time and
    /// never runs, so its open span is dropped: the time after it (the
    /// end of `run_with` and its `report()`) stays unattributed.
    pub fn finish(mut self) -> TraceTotals {
        self.totals.picks = self.probe.totals();
        self.totals
    }
}

impl Scheduler for TimingScheduler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let t0 = wall_now();
        if let Some((step, started)) = self.open.take() {
            let totals = &mut self.totals.steps[step.index()];
            totals.count += 1;
            totals.ns += ns_between(started, t0);
            totals.pick_ns += self.probe.drain_step();
        }
        let queue = sim.engine().queue();
        let next = queue.next_key();
        let t1 = wall_now();
        self.totals.selects += 1;
        self.totals.select_ns += ns_between(t0, t1);
        let key = next?;

        // Time-weighted state between the clock now and the next event.
        let now = sim.engine().now();
        let until = key.at.min(sim.engine().end());
        let held_us = (until - now).as_micros();
        self.totals.pending_area += queue.len() as u128 * u128::from(held_us);
        self.totals.in_flight_area +=
            sim.coordinator().ops_in_flight() as u128 * u128::from(held_us);
        self.totals.span_us += held_us;

        if key.at <= sim.engine().end() {
            if let Some(event) = queue.get(key) {
                let (step, payloads) = Step::of(event);
                self.totals.site_payloads += payloads;
                self.open = Some((step, wall_now()));
            }
        }
        Some(key)
    }
}
