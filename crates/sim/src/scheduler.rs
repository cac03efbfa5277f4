//! The scheduler seam: who decides which pending event fires next.
//!
//! [`Simulation::run`] always asked the event queue for its earliest entry;
//! that policy is now one implementation — [`SeededScheduler`] — of the
//! [`Scheduler`] trait, and [`crate::Simulation::run_with`] accepts any
//! other. A model checker implements [`Scheduler`] to turn the queue into a
//! controlled nondeterminism point: at every step it may select *any*
//! pending [`EventKey`] (same-time deliveries, timeout-vs-delivery races,
//! crash-vs-commit races), driving the simulation down one branch of the
//! schedule tree per run.
//!
//! Contract: `select` must return a key currently pending in
//! `sim.engine().queue()`; returning `None` ends the run (the natural end
//! is an empty queue). The seeded path is bit-for-bit identical to the
//! pre-seam simulator, which `crates/sim/tests/replay.rs` pins down.
//!
//! [`Simulation::run`]: crate::Simulation::run

use crate::event::EventKey;
use crate::sim::Simulation;

/// Chooses the next event to fire from the pending set.
pub trait Scheduler {
    /// Selects the key of the next event to execute, or `None` to stop.
    ///
    /// Called once per step with the simulation state *before* the event
    /// executes; implementations may inspect the queue
    /// ([`crate::Engine::queue`]), the clock, and the coordinator, and may
    /// fingerprint the state ([`Simulation::fingerprint`]).
    fn select(&mut self, sim: &Simulation) -> Option<EventKey>;
}

/// The default policy: always fire the earliest pending event.
///
/// This reproduces the classic discrete-event order `(at, seq)` exactly, so
/// `run_with(&mut SeededScheduler)` is byte-identical to the historical
/// `run()` loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeededScheduler;

impl Scheduler for SeededScheduler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        sim.engine().queue().next_key()
    }
}

/// Replays a fixed sequence of event keys, stopping at the first key that
/// is not pending when its turn comes.
///
/// This is the pair-replay hook for `arbitree-audit`: the commutativity
/// oracle replays `prefix + [a, b]` and `prefix + [b, a]` from two fresh
/// simulations and compares the resulting state fingerprints
/// ([`Simulation::fingerprint`], which hashes storage in sorted object
/// order, so two orders that only permute insertion compare equal). Replay
/// leans on the engine's key stability — executing the same choices from
/// the same seed re-creates the same `(at, seq)` keys — which
/// `crates/sim/tests/replay.rs` pins down for the seeded path and the
/// checker's frame-stack replay exercises on every backtrack.
///
/// A scheduled key that has disappeared from the queue is recorded via
/// [`ReplayScheduler::missing`] instead of panicking: for the oracle, "b
/// was disabled by a" is itself evidence against a claimed independence,
/// not an internal error.
#[derive(Debug, Clone)]
pub struct ReplayScheduler<'a> {
    schedule: &'a [EventKey],
    next: usize,
    missing: Option<(usize, EventKey)>,
}

impl<'a> ReplayScheduler<'a> {
    /// A scheduler that will fire exactly `schedule`, in order.
    pub fn new(schedule: &'a [EventKey]) -> Self {
        ReplayScheduler {
            schedule,
            next: 0,
            missing: None,
        }
    }

    /// How many steps of the schedule were replayed.
    pub fn replayed(&self) -> usize {
        self.next
    }

    /// The first `(step, key)` whose key was absent from the pending queue
    /// at its turn, if replay stopped early.
    pub fn missing(&self) -> Option<(usize, EventKey)> {
        self.missing
    }
}

impl Scheduler for ReplayScheduler<'_> {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.missing.is_some() {
            return None;
        }
        let key = *self.schedule.get(self.next)?;
        if sim.engine().queue().get(key).is_none() {
            self.missing = Some((self.next, key));
            return None;
        }
        self.next += 1;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use arbitree_core::ArbitraryProtocol;

    #[test]
    fn seeded_scheduler_selects_earliest() {
        let config = SimConfig {
            seed: 5,
            ..SimConfig::default()
        };
        let sim = Simulation::new(config, ArbitraryProtocol::parse("1-3").unwrap());
        // Before priming, the queue is empty: nothing to select.
        assert!(SeededScheduler.select(&sim).is_none());
    }

    #[test]
    fn replay_scheduler_reproduces_the_seeded_run() {
        let config = SimConfig {
            seed: 11,
            duration: crate::time::SimDuration::from_millis(40),
            ..SimConfig::default()
        };
        // Record the seeded choice sequence...
        struct Recorder(Vec<EventKey>);
        impl Scheduler for Recorder {
            fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
                let key = sim.engine().queue().next_key()?;
                self.0.push(key);
                Some(key)
            }
        }
        let mut a = Simulation::new(config.clone(), ArbitraryProtocol::parse("1-3").unwrap());
        let mut rec = Recorder(Vec::new());
        a.run_with(&mut rec);
        assert!(rec.0.len() > 10, "seeded run fired {} events", rec.0.len());
        // ...and replay it on a fresh sim: same keys pending at every step,
        // same final state.
        let mut b = Simulation::new(config, ArbitraryProtocol::parse("1-3").unwrap());
        let mut replay = ReplayScheduler::new(&rec.0);
        b.run_with(&mut replay);
        assert_eq!(replay.missing(), None);
        assert_eq!(replay.replayed(), rec.0.len());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn replay_scheduler_records_a_missing_key() {
        let config = SimConfig {
            seed: 11,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-3").unwrap());
        let bogus = [EventKey {
            at: crate::time::SimTime::from_millis(1),
            seq: 999_999,
        }];
        let mut replay = ReplayScheduler::new(&bogus);
        sim.run_with(&mut replay);
        assert_eq!(replay.replayed(), 0);
        assert_eq!(replay.missing(), Some((0, bogus[0])));
    }
}
