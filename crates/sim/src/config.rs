//! Simulation configuration.

use crate::time::SimDuration;
use crate::workload::ObjectDistribution;

/// Network behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way message latency.
    pub min_latency: SimDuration,
    /// Maximum one-way message latency (uniformly distributed).
    pub max_latency: SimDuration,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            min_latency: SimDuration::from_micros(100),
            max_latency: SimDuration::from_micros(500),
            drop_probability: 0.0,
        }
    }
}

/// How a coordinator paces phase timeouts across retry attempts.
///
/// The timeout armed for a phase *is* the retry interval: when it fires the
/// phase restarts (or, past the commit point, re-sends). The policy maps
/// a base timeout and an attempt number to a delay ([`RetryPolicy::delay`]).
/// Attempt 0 — a transaction that has not retried — takes as its base its
/// client's measured round-trip timeout, which never exceeds
/// [`SimConfig::op_timeout`]; attempt `k ≥ 1` takes `op_timeout` itself.
/// So `op_timeout` is the first value of the configured schedule and the
/// ceiling of the measured one. Under a partition or drop burst a
/// fixed interval produces a retry storm — every blocked coordinator
/// re-probes at the same cadence; exponential backoff spreads and thins
/// those probes while staying fully deterministic per seed (the jitter is
/// drawn from the run's own RNG).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetryPolicy {
    /// Every retry arms the same [`SimConfig::op_timeout`].
    #[default]
    Fixed,
    /// Attempt `k` arms `min(base · 2^k, cap)`, stretched by a
    /// deterministic seeded jitter uniform in `[0, jitter·delay]`; `base`
    /// is the measured timeout at attempt 0 and `op_timeout` after.
    Exponential {
        /// Upper bound on the backed-off delay (`cap ≥ op_timeout`).
        cap: SimDuration,
        /// Jitter fraction in `[0, 1]`: the armed delay becomes
        /// `delay · (1 + jitter·u)` with `u ~ U[0,1)` from the run RNG.
        jitter: f64,
    },
}

impl RetryPolicy {
    /// Whether arming a timeout under this policy consumes a jitter draw
    /// from the run's RNG.
    pub fn uses_jitter(&self) -> bool {
        matches!(self, RetryPolicy::Exponential { jitter, .. } if *jitter > 0.0)
    }

    /// The delay to arm for retry `attempt` (0 = first try) of a phase whose
    /// base timeout is `base`. `u ∈ [0, 1)` is the jitter draw (ignored by
    /// [`RetryPolicy::Fixed`]).
    pub fn delay(&self, base: SimDuration, attempt: u32, u: f64) -> SimDuration {
        match *self {
            RetryPolicy::Fixed => base,
            RetryPolicy::Exponential { cap, jitter } => {
                let scaled = base
                    .as_micros()
                    .checked_shl(attempt.min(32))
                    .unwrap_or(u64::MAX)
                    .min(cap.as_micros());
                let jittered = scaled.saturating_add((scaled as f64 * jitter * u) as u64);
                SimDuration::from_micros(jittered)
            }
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed: two runs with equal configs and seeds are identical.
    pub seed: u64,
    /// Number of client coordinators.
    pub clients: usize,
    /// Number of replicated objects.
    pub objects: usize,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Think time between a client's operations: each wait is drawn
    /// uniformly from `[think_time, 1.5 · think_time)`.
    pub think_time: SimDuration,
    /// Coordinator phase timeout: the first value of a retried phase's
    /// backoff ([`RetryPolicy`]) and the ceiling of a first attempt's
    /// timeout, which each client otherwise measures from its phases'
    /// round trips (RFC 6298) and keeps above `2·max_latency`. Must exceed
    /// two max latencies.
    pub op_timeout: SimDuration,
    /// Maximum quorum-assembly attempts before an operation fails.
    pub max_attempts: u32,
    /// How retry timeouts are paced across attempts.
    pub retry: RetryPolicy,
    /// Enable read-repair: after a read, refresh quorum members that
    /// returned a timestamp older than the winner.
    pub read_repair: bool,
    /// Record a full operation [`crate::History`] for offline
    /// linearizability checking (memory grows with the run).
    pub record_history: bool,
    /// Whether clients generate the random workload. Disable to drive the
    /// simulation purely with scripted transactions
    /// ([`crate::Simulation::schedule_transaction`]).
    pub auto_workload: bool,
    /// Maximum operations per transaction. 1 (the default) gives
    /// single-object transactions; larger values make clients issue
    /// multi-object transactions (1..=max ops on distinct objects, each
    /// independently a read or a write per `read_fraction`), executed with
    /// ordered strict-2PL locking and a single 2PC across every written
    /// object (§2.2's transaction model).
    pub max_txn_ops: usize,
    /// Number of independent protocol shards the keyspace is hashed
    /// across. 1 (the default) is the classic single-tree simulator;
    /// larger values require constructing the run with
    /// [`crate::Simulation::from_shards`], one protocol instance per
    /// shard over the same replica set.
    pub shards: usize,
    /// Coalesce same-destination protocol messages issued while handling
    /// one event into a single [`crate::Payload::Batch`] envelope (one
    /// network round-trip amortized across keys). It decides only how
    /// payloads travel: either way a transaction reads all of its objects
    /// in one round and prepares and commits them together, and with it
    /// off every payload is a message of its own. Off by default.
    pub batching: bool,
    /// How clients pick objects.
    pub object_distribution: ObjectDistribution,
    /// Network behaviour.
    pub network: NetworkConfig,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Compiled-in protocol mutation for the model checker's mutation-kill
    /// harness. `None` (the default) leaves the coordinator unmodified;
    /// production code never sets this.
    pub fault: Option<crate::fault::FaultInjection>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            clients: 4,
            objects: 4,
            read_fraction: 0.7,
            think_time: SimDuration::from_millis(2),
            op_timeout: SimDuration::from_millis(3),
            max_attempts: 4,
            retry: RetryPolicy::Fixed,
            read_repair: false,
            record_history: false,
            auto_workload: true,
            max_txn_ops: 1,
            shards: 1,
            batching: false,
            object_distribution: ObjectDistribution::Uniform,
            network: NetworkConfig::default(),
            duration: SimDuration::from_millis(500),
            fault: None,
        }
    }
}

impl SimConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any probability is out of range, no clients/objects exist,
    /// or the timeout does not exceed a round trip at maximum latency (which
    /// would make every in-flight exchange a false suspicion).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.network.drop_probability),
            "drop_probability must be a probability"
        );
        assert!(self.clients > 0, "need at least one client");
        assert!(self.objects > 0, "need at least one object");
        // A zero here would make every operation fail on its first timeout
        // with no retry — silently, since the counters still tick.
        assert!(self.max_attempts > 0, "need at least one attempt");
        if let RetryPolicy::Exponential { cap, jitter } = self.retry {
            assert!(
                cap >= self.op_timeout,
                "backoff cap must be at least op_timeout"
            );
            assert!(
                (0.0..=1.0).contains(&jitter),
                "backoff jitter must be a fraction in [0, 1]"
            );
        }
        assert!(
            self.max_txn_ops > 0,
            "transactions need at least one operation"
        );
        assert!(self.shards > 0, "need at least one shard");
        assert!(
            self.shards <= self.objects,
            "more shards than objects leaves shards idle; lower the shard count"
        );
        assert!(
            self.network.min_latency <= self.network.max_latency,
            "min latency must not exceed max latency"
        );
        assert!(
            self.op_timeout.as_micros() > 2 * self.network.max_latency.as_micros(),
            "op_timeout must exceed a full round trip"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "round trip")]
    fn tight_timeout_rejected() {
        let c = SimConfig {
            op_timeout: SimDuration::from_micros(10),
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "read_fraction")]
    fn bad_fraction_rejected() {
        let c = SimConfig {
            read_fraction: 1.5,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let c = SimConfig {
            max_attempts: 0,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "backoff cap")]
    fn backoff_cap_below_timeout_rejected() {
        let c = SimConfig {
            retry: RetryPolicy::Exponential {
                cap: SimDuration::from_micros(1),
                jitter: 0.0,
            },
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn backoff_jitter_out_of_range_rejected() {
        let c = SimConfig {
            retry: RetryPolicy::Exponential {
                cap: SimDuration::from_millis(100),
                jitter: 1.5,
            },
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    fn exponential_delay_doubles_and_caps() {
        let p = RetryPolicy::Exponential {
            cap: SimDuration::from_micros(4_000),
            jitter: 0.0,
        };
        let base = SimDuration::from_micros(1_000);
        assert_eq!(p.delay(base, 0, 0.9).as_micros(), 1_000);
        assert_eq!(p.delay(base, 1, 0.9).as_micros(), 2_000);
        assert_eq!(p.delay(base, 2, 0.9).as_micros(), 4_000);
        assert_eq!(p.delay(base, 10, 0.9).as_micros(), 4_000); // capped
        assert_eq!(p.delay(base, 63, 0.9).as_micros(), 4_000); // no overflow
        assert!(!p.uses_jitter());
    }

    #[test]
    fn jitter_stretches_within_fraction() {
        let p = RetryPolicy::Exponential {
            cap: SimDuration::from_micros(8_000),
            jitter: 0.5,
        };
        assert!(p.uses_jitter());
        let base = SimDuration::from_micros(1_000);
        let lo = p.delay(base, 1, 0.0).as_micros();
        let hi = p.delay(base, 1, 0.999).as_micros();
        assert_eq!(lo, 2_000);
        assert!(hi > 2_000 && hi <= 3_000, "hi {hi}");
        // Fixed ignores the draw entirely.
        assert_eq!(RetryPolicy::Fixed.delay(base, 5, 0.7), base);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let c = SimConfig {
            shards: 0,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "more shards than objects")]
    fn more_shards_than_objects_rejected() {
        let c = SimConfig {
            shards: 8,
            objects: 4,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    fn sharded_batching_config_is_valid() {
        let c = SimConfig {
            shards: 4,
            objects: 64,
            batching: true,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "min latency")]
    fn inverted_latency_rejected() {
        let network = NetworkConfig {
            min_latency: SimDuration::from_millis(10),
            ..NetworkConfig::default()
        };
        let c = SimConfig {
            network,
            ..SimConfig::default()
        };
        c.validate();
    }
}
