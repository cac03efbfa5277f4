//! # arbitree-sim
//!
//! A deterministic discrete-event simulator for quorum-based replica control
//! protocols — the executable form of the paper's §2.2 system model. Sites
//! fail by stopping — transiently (durable storage intact) or with
//! *amnesia* (storage lost; the site rejoins through staged anti-entropy,
//! see [`CrashMode`] and [`RejoinManager`]) — links delay, drop and
//! partition, clients synchronize through a centralized strict-2PL lock
//! manager, and writes commit through two-phase commit.
//!
//! Every run is a pure function of its [`SimConfig`] (seed included) and
//! failure schedule, so experiments replay bit-for-bit.
//!
//! ## Layout
//!
//! The simulator is split into three layers, composed by [`Simulation`]:
//!
//! * [`Engine`] — the discrete-event substrate: clock, event queue,
//!   message transport, replica sites and their liveness, metrics, RNG;
//! * [`Coordinator`] — the transaction layer: strict-2PL locking, one
//!   quorum read round with read-repair, two-phase commit, the one-copy
//!   checker, workload generation, and live reconfiguration;
//! * the protocol — held as a `Box<dyn `[`arbitree_quorum::ReplicaControl`]`>`,
//!   so a run can migrate *between protocol families* at runtime.
//!
//! Around them:
//!
//! * [`ConsistencyChecker`] — verifies one-copy equivalence online;
//! * [`FailureSchedule`] — crash/recovery injection (manual or random
//!   MTTF/MTTR);
//! * [`Partition`] — network partition injection (settable statically or
//!   schedulable mid-run through the event queue);
//! * [`Nemesis`] — scripted *adversarial* fault injection: partition
//!   form/heal cycles, level-targeted correlated crashes, flapping sites,
//!   and time-windowed network overrides (drop bursts, latency spikes),
//!   all deterministic per seed;
//! * [`RetryPolicy`] — fixed-interval or capped exponential backoff (with
//!   seeded jitter) pacing of phase-timeout retries;
//! * [`harness`] — static experiments ([`empirical_availability`],
//!   [`empirical_load`], [`empirical_cost`]) that validate the paper's
//!   closed forms directly, plus [`run_simulation`], the parallel
//!   experiment runner ([`run_cells`] over [`ExperimentCell`]s), and the
//!   chaos campaign runner ([`run_chaos_campaign`] over [`ChaosCell`]s)
//!   cross-validating measured availability against the closed forms;
//! * [`SimMetrics`] — message counts, per-site hit counts (empirical load),
//!   latencies, and fault-facing counters (timeouts, per-phase retries,
//!   suspicions, aborts by cause).
//!
//! ## Example
//!
//! ```
//! use arbitree_core::ArbitraryProtocol;
//! use arbitree_sim::{SimConfig, Simulation};
//!
//! let protocol = ArbitraryProtocol::parse("1-3-5")?;
//! let mut sim = Simulation::new(SimConfig { seed: 1, ..SimConfig::default() }, protocol);
//! let report = sim.run();
//! assert!(report.consistent);
//! assert!(report.metrics.reads_ok > 0);
//! # Ok::<(), arbitree_core::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// An eager `unwrap_or(Bytes::new())` allocates on every call, hit or miss.
#![warn(clippy::or_fun_call)]

mod checker;
mod config;
mod coordinator;
mod engine;
mod event;
mod failure;
mod fault;
mod fingerprint;
pub mod harness;
pub mod history;
mod locks;
mod message;
mod metrics;
mod nemesis;
mod network;
mod recovery;
mod scheduler;
mod sim;
mod site;
mod storage;
mod time;
mod txn;
mod workload;

pub use checker::{ConsistencyChecker, Violation};
pub use config::{NetworkConfig, RetryPolicy, SimConfig};
pub use coordinator::Coordinator;
pub use engine::Engine;
#[cfg(any(test, feature = "reference-queue"))]
pub use event::BTreeQueue;
pub use event::{Event, EventKey, EventQueue};
pub use failure::FailureSchedule;
pub use fault::FaultInjection;
pub use harness::{
    cell_seed, empirical_availability, empirical_cost, empirical_cost_under_failures,
    empirical_load, parallel_map, run_cells, run_chaos_campaign, run_simulation, ChaosCell,
    ChaosOutcome, ExperimentCell,
};
pub use history::{History, HistoryEvent, HistoryKind, HistoryViolation};
pub use locks::{LockManager, LockMode};
pub use message::{ClientId, Endpoint, Message, ObjectId, OpId, Payload, RangeVerdict};
pub use metrics::{LatencyHistogram, PhaseTimes, SimMetrics, SiteCounts};
pub use nemesis::{build_profile, Nemesis, NemesisAction, NemesisKind};
pub use network::{Network, Partition};
pub use recovery::{write_mate_sources, RejoinManager};
pub use scheduler::{ReplayScheduler, Scheduler, SeededScheduler};
pub use sim::Simulation;
pub use site::{CrashMode, Site, SiteHealth};
pub use storage::{Staged, Storage, Version};
pub use time::{SimDuration, SimTime};
pub use txn::{SimReport, TxnRequest};
pub use workload::{ObjectDistribution, ObjectSampler};
