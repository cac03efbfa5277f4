//! Experiment harness: empirical measurements of availability, load and
//! cost that validate the paper's closed forms, convenience wrappers for
//! full dynamic simulations, and a parallel experiment runner
//! ([`run_cells`]) that executes a batch of independent simulation cells
//! across worker threads with seed-for-seed deterministic results.

use crate::config::SimConfig;
use crate::failure::FailureSchedule;
use crate::nemesis::Nemesis;
use crate::sim::Simulation;
use crate::txn::SimReport;
use arbitree_quorum::{AliveSet, ReplicaControl, SiteId};
use arbitree_race as race;
use arbitree_race::{traced_channel, TracedMutex, TracedSender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of independently seeded chunks [`empirical_availability`] splits
/// its trials into. Fixed rather than taken from the host's core count, so
/// one seed gives the same numbers on every machine.
const AVAILABILITY_CHUNKS: u32 = 8;

/// Empirical read/write availability: sample `trials` alive-site vectors
/// (each site up independently with probability `p`) and count the fraction
/// in which the protocol can assemble each quorum kind.
///
/// This is the *static* availability experiment — it measures exactly the
/// quantity the paper's formulas describe, independent of timeout dynamics.
/// The trials run as eight seeded chunks through
/// [`parallel_map`]; the split and the chunk seeds depend only on `trials`
/// and `seed`.
///
/// # Panics
///
/// Panics if `p` is not a probability or `trials == 0`.
pub fn empirical_availability<P: ReplicaControl + Sync + ?Sized>(
    protocol: &P,
    p: f64,
    trials: u32,
    seed: u64,
) -> (f64, f64) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(trials > 0, "need at least one trial");
    let n = protocol.universe().len();

    let chunks: Vec<(u32, u64)> = (0..AVAILABILITY_CHUNKS)
        .map(|t| {
            let my_trials =
                trials / AVAILABILITY_CHUNKS + u32::from(t < trials % AVAILABILITY_CHUNKS);
            let my_seed = seed
                .wrapping_add(u64::from(t))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (my_trials, my_seed)
        })
        .collect();
    let totals = parallel_map(chunks, |(my_trials, my_seed)| {
        let mut rng = StdRng::seed_from_u64(my_seed);
        let mut reads = 0u64;
        let mut writes = 0u64;
        for _ in 0..my_trials {
            let mut alive = AliveSet::new();
            for i in 0..n as u32 {
                if rng.gen::<f64>() < p {
                    alive.insert(SiteId::new(i));
                }
            }
            if protocol.pick_read_quorum(alive.clone(), &mut rng).is_some() {
                reads += 1;
            }
            if protocol.pick_write_quorum(alive, &mut rng).is_some() {
                writes += 1;
            }
        }
        (reads, writes)
    })
    .into_iter()
    .fold((0u64, 0u64), |(ar, aw), (r, w)| (ar + r, aw + w));

    (
        totals.0 as f64 / f64::from(trials),
        totals.1 as f64 / f64::from(trials),
    )
}

/// Empirical system loads under the protocol's canonical strategy with all
/// sites alive: pick `samples` read and write quorums, count per-site
/// membership, and return each kind's busiest-site fraction
/// `(read_load, write_load)` — the empirical counterpart of definition 2.5.
pub fn empirical_load<P: ReplicaControl + ?Sized>(
    protocol: &P,
    samples: u32,
    seed: u64,
) -> (f64, f64) {
    assert!(samples > 0, "need at least one sample");
    let n = protocol.universe().len();
    let alive = AliveSet::full(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut read_hits = vec![0u64; n];
    let mut write_hits = vec![0u64; n];
    for _ in 0..samples {
        let rq = protocol
            .pick_read_quorum(alive.clone(), &mut rng)
            // arbitree-lint: allow(D005) — with every site alive the canonical strategy always finds a read quorum
            .expect("all sites alive");
        for s in rq.iter() {
            read_hits[s.index()] += 1;
        }
        let wq = protocol
            .pick_write_quorum(alive.clone(), &mut rng)
            // arbitree-lint: allow(D005) — with every site alive the canonical strategy always finds a write quorum
            .expect("all sites alive");
        for s in wq.iter() {
            write_hits[s.index()] += 1;
        }
    }
    let max_r = read_hits.iter().copied().max().unwrap_or(0);
    let max_w = write_hits.iter().copied().max().unwrap_or(0);
    (
        max_r as f64 / f64::from(samples),
        max_w as f64 / f64::from(samples),
    )
}

/// Empirical mean communication costs `(read, write)` under the canonical
/// strategy with all sites alive.
pub fn empirical_cost<P: ReplicaControl + ?Sized>(
    protocol: &P,
    samples: u32,
    seed: u64,
) -> (f64, f64) {
    assert!(samples > 0, "need at least one sample");
    let alive = AliveSet::full(protocol.universe().len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut read_total = 0u64;
    let mut write_total = 0u64;
    for _ in 0..samples {
        read_total += protocol
            .pick_read_quorum(alive.clone(), &mut rng)
            // arbitree-lint: allow(D005) — with every site alive the canonical strategy always finds a read quorum
            .expect("all sites alive")
            .len() as u64;
        write_total += protocol
            .pick_write_quorum(alive.clone(), &mut rng)
            // arbitree-lint: allow(D005) — with every site alive the canonical strategy always finds a write quorum
            .expect("all sites alive")
            .len() as u64;
    }
    (
        read_total as f64 / f64::from(samples),
        write_total as f64 / f64::from(samples),
    )
}

/// Empirical mean communication costs `(read, write)` **under failures**:
/// sites are alive independently with probability `p` per trial; only
/// successful quorum assemblies contribute. Returns `None` for an operation
/// that never assembled a quorum. Captures how degraded-mode costs grow
/// (e.g. the tree-quorum protocol's log n → (n+1)/2 range).
pub fn empirical_cost_under_failures<P: ReplicaControl + ?Sized>(
    protocol: &P,
    p: f64,
    trials: u32,
    seed: u64,
) -> (Option<f64>, Option<f64>) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(trials > 0, "need at least one trial");
    let n = protocol.universe().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut rt, mut rc) = (0u64, 0u64);
    let (mut wt, mut wc) = (0u64, 0u64);
    for _ in 0..trials {
        let mut alive = AliveSet::new();
        for i in 0..n as u32 {
            if rng.gen::<f64>() < p {
                alive.insert(SiteId::new(i));
            }
        }
        if let Some(q) = protocol.pick_read_quorum(alive.clone(), &mut rng) {
            rt += q.len() as u64;
            rc += 1;
        }
        if let Some(q) = protocol.pick_write_quorum(alive, &mut rng) {
            wt += q.len() as u64;
            wc += 1;
        }
    }
    (
        (rc > 0).then(|| rt as f64 / rc as f64),
        (wc > 0).then(|| wt as f64 / wc as f64),
    )
}

/// Runs a full dynamic simulation of `protocol` under `config` with the
/// given failure schedule, returning its report.
pub fn run_simulation(
    config: SimConfig,
    protocol: impl ReplicaControl + 'static,
    failures: &FailureSchedule,
) -> SimReport {
    let mut sim = Simulation::new(config, protocol);
    failures.apply(&mut sim);
    sim.run()
}

/// Derives the seed of experiment cell `index` from an experiment-level
/// base seed. SplitMix64-style mixing: adjacent indices land far apart, so
/// sweeps built from one base seed do not correlate across cells.
pub fn cell_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of work for the parallel experiment runner: a labelled
/// simulation of `protocol` under `config` with `failures` injected.
///
/// The cell's run is a pure function of its own `config` (seed included)
/// and `failures` — which is exactly why [`run_cells`] may execute cells
/// on any thread in any order and still produce the same numbers as a
/// serial loop.
pub struct ExperimentCell {
    /// Label carried through to the results (e.g. `"ARBITRARY n=25"`).
    pub label: String,
    /// The run's configuration (its `seed` fully determines the run).
    pub config: SimConfig,
    /// The protocol to simulate.
    pub protocol: Box<dyn ReplicaControl + Send>,
    /// Crash/recovery schedule injected before the run.
    pub failures: FailureSchedule,
    /// Adversarial nemesis script injected before the run.
    pub nemesis: Nemesis,
}

impl ExperimentCell {
    /// A cell with no injected failures.
    pub fn new(
        label: impl Into<String>,
        config: SimConfig,
        protocol: impl ReplicaControl + Send + 'static,
    ) -> Self {
        ExperimentCell {
            label: label.into(),
            config,
            protocol: Box::new(protocol),
            failures: FailureSchedule::none(),
            nemesis: Nemesis::none(),
        }
    }

    /// Sets the failure schedule.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// Sets the nemesis script.
    pub fn with_nemesis(mut self, nemesis: Nemesis) -> Self {
        self.nemesis = nemesis;
        self
    }
}

impl fmt::Debug for ExperimentCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentCell")
            .field("label", &self.label)
            .field("protocol", &self.protocol.describe())
            .field("seed", &self.config.seed)
            .field("failure_events", &self.failures.events().len())
            .finish()
    }
}

/// Applies `f` to every item on a pool of scoped worker threads, returning
/// results **in input order**. Items are claimed from a shared work index,
/// so long items do not serialize behind short ones. Workers send results
/// back over a traced channel keyed by input index, so the output order is
/// independent of scheduling.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` with its original
/// payload: the remaining workers are allowed to finish their claimed
/// items, then the first panic resumes unwinding on the calling thread.
pub fn parallel_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let work: Vec<TracedMutex<Option<T>>> = items
        .into_iter()
        .map(|t| TracedMutex::new(Some(t)))
        .collect();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(8)
        .min(n);
    let (tx, rx) = traced_channel::<(usize, U)>();
    let run_worker = |tx: TracedSender<(usize, U)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = work[i]
            .lock()
            .take()
            // arbitree-lint: allow(D005) — the atomic fetch_add hands each index to exactly one worker
            .expect("item claimed once");
        let out = f(item);
        if tx.send((i, out)).is_err() {
            // The receiver is gone: the caller is already unwinding.
            break;
        }
    };
    if threads <= 1 {
        run_worker(tx);
    } else {
        let first_panic = race::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move |_| run_worker(tx))
                })
                .collect();
            drop(tx);
            let mut first_panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            first_panic
        });
        match first_panic {
            Ok(Some(payload)) | Err(payload) => std::panic::resume_unwind(payload),
            Ok(None) => {}
        }
    }
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, out) in rx.iter() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        // arbitree-lint: allow(D005) — every index below n was claimed and sent by exactly one worker
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Runs every cell to completion across a worker-thread pool and returns
/// `(label, report)` pairs **in input order**.
///
/// Each cell's report is identical to what a serial
/// [`run_simulation`]-style loop would produce for it, because a run is a
/// pure function of the cell's own config and failure schedule — thread
/// scheduling cannot leak between cells.
pub fn run_cells(cells: Vec<ExperimentCell>) -> Vec<(String, SimReport)> {
    parallel_map(cells, |cell| {
        let ExperimentCell {
            label,
            config,
            protocol,
            failures,
            nemesis,
        } = cell;
        let mut sim = Simulation::from_boxed(config, protocol);
        failures.apply(&mut sim);
        nemesis.apply(&mut sim);
        (label, sim.run())
    })
}

/// One cell of a chaos campaign: a simulation under adversarial faults,
/// paired with the closed-form availability predictions to cross-validate
/// the measured success rates against.
pub struct ChaosCell {
    /// The underlying simulation cell (config, protocol, churn, nemesis).
    pub cell: ExperimentCell,
    /// Closed-form read availability at the cell's steady-state uptime
    /// `p = MTTF/(MTTF+MTTR)` — the paper's `∏_k (1 − (1−p)^{m_phy_k})`.
    pub predicted_read: f64,
    /// Closed-form write availability — `1 − ∏_k (1 − p^{m_phy_k})`.
    pub predicted_write: f64,
}

impl fmt::Debug for ChaosCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosCell")
            .field("cell", &self.cell)
            .field("predicted_read", &self.predicted_read)
            .field("predicted_write", &self.predicted_write)
            .finish()
    }
}

/// Outcome of one chaos cell: the full report plus measured-vs-predicted
/// availability.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The cell's label.
    pub label: String,
    /// The run's report (consistency verdict, fault counters, …).
    pub report: SimReport,
    /// Closed-form read availability carried over from the cell.
    pub predicted_read: f64,
    /// Closed-form write availability carried over from the cell.
    pub predicted_write: f64,
}

impl ChaosOutcome {
    /// Measured read availability: `reads_ok / (reads_ok + reads_failed)`,
    /// `None` if the run attempted no reads.
    pub fn measured_read(&self) -> Option<f64> {
        let m = &self.report.metrics;
        let total = m.reads_ok + m.reads_failed;
        (total > 0).then(|| m.reads_ok as f64 / total as f64)
    }

    /// Measured write availability: `writes_ok / (writes_ok +
    /// writes_failed)`, `None` if the run attempted no writes.
    pub fn measured_write(&self) -> Option<f64> {
        let m = &self.report.metrics;
        let total = m.writes_ok + m.writes_failed;
        (total > 0).then(|| m.writes_ok as f64 / total as f64)
    }

    /// Relative error of the measured read availability against the closed
    /// form.
    pub fn read_error(&self) -> Option<f64> {
        self.measured_read()
            .map(|m| arbitree_quorum::relative_error(m, self.predicted_read))
    }

    /// Relative error of the measured write availability against the closed
    /// form.
    pub fn write_error(&self) -> Option<f64> {
        self.measured_write()
            .map(|m| arbitree_quorum::relative_error(m, self.predicted_write))
    }
}

/// Runs a chaos campaign across the worker pool (via [`run_cells`]) and
/// pairs every report with its availability cross-validation. Results come
/// back in input order; each cell replays bit-for-bit from its config,
/// failure schedule and nemesis script.
pub fn run_chaos_campaign(cells: Vec<ChaosCell>) -> Vec<ChaosOutcome> {
    let (sim_cells, predictions): (Vec<ExperimentCell>, Vec<(f64, f64)>) = cells
        .into_iter()
        .map(|c| (c.cell, (c.predicted_read, c.predicted_write)))
        .unzip();
    run_cells(sim_cells)
        .into_iter()
        .zip(predictions)
        .map(
            |((label, report), (predicted_read, predicted_write))| ChaosOutcome {
                label,
                report,
                predicted_read,
                predicted_write,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use arbitree_core::{ArbitraryProtocol, TreeMetrics};

    fn proto() -> ArbitraryProtocol {
        ArbitraryProtocol::parse("1-3-5").unwrap()
    }

    #[test]
    fn empirical_availability_tracks_closed_form() {
        let p = proto();
        let m = TreeMetrics::new(p.tree());
        for &prob in &[0.6, 0.7, 0.85] {
            let (er, ew) = empirical_availability(&p, prob, 40_000, 1);
            assert!(
                (er - m.read_availability(prob)).abs() < 0.01,
                "read p={prob}: {er} vs {}",
                m.read_availability(prob)
            );
            assert!(
                (ew - m.write_availability(prob)).abs() < 0.01,
                "write p={prob}: {ew} vs {}",
                m.write_availability(prob)
            );
        }
    }

    #[test]
    fn empirical_load_tracks_closed_form() {
        let p = proto();
        let (lr, lw) = empirical_load(&p, 60_000, 2);
        // L_RD = 1/3, L_WR = 1/2 for 1-3-5.
        assert!((lr - 1.0 / 3.0).abs() < 0.01, "read load {lr}");
        assert!((lw - 0.5).abs() < 0.01, "write load {lw}");
    }

    #[test]
    fn empirical_cost_tracks_closed_form() {
        let p = proto();
        let (cr, cw) = empirical_cost(&p, 20_000, 3);
        assert!((cr - 2.0).abs() < 1e-9, "read cost {cr}");
        assert!((cw - 4.0).abs() < 0.05, "write cost {cw}");
    }

    #[test]
    fn run_simulation_with_random_failures_is_consistent() {
        let config = SimConfig {
            seed: 5,
            duration: SimDuration::from_millis(150),
            ..SimConfig::default()
        };
        let schedule = FailureSchedule::random(
            8,
            config.duration,
            SimDuration::from_millis(40),
            SimDuration::from_millis(10),
            11,
        );
        let report = run_simulation(config, proto(), &schedule);
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(report.metrics.ops_ok() > 0);
    }

    #[test]
    fn degraded_costs_grow_for_tree_quorum() {
        // All-alive, the tree-quorum pick is a pure path (h+1); under
        // failures the average grows towards (n+1)/2.
        use arbitree_baselines::TreeQuorum;
        let tq = TreeQuorum::new(3); // n = 15, path = 4
        let (healthy, _) = empirical_cost_under_failures(&tq, 1.0, 2_000, 1);
        assert_eq!(healthy, Some(4.0));
        let (degraded, _) = empirical_cost_under_failures(&tq, 0.7, 20_000, 2);
        let degraded = degraded.unwrap();
        assert!(degraded > 4.2, "degraded cost {degraded}");
        assert!(degraded < 8.0);
    }

    #[test]
    fn degraded_costs_stable_for_arbitrary_reads() {
        // The arbitrary protocol's read quorum is always |K_phy| replicas,
        // dead or alive — only availability changes, not cost.
        let p = proto();
        let (r, _) = empirical_cost_under_failures(&p, 0.8, 10_000, 3);
        assert_eq!(r, Some(2.0));
    }

    #[test]
    fn availability_is_deterministic_per_seed() {
        let p = proto();
        let a = empirical_availability(&p, 0.7, 5_000, 9);
        let b = empirical_availability(&p, 0.7, 5_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn availability_does_not_depend_on_the_host_core_count() {
        // Serial reference: eight chunks with the documented seeds, summed
        // in order. A split taken from the core count diverges from it on
        // any host with fewer than eight cores.
        let proto = proto();
        let (p, trials, seed) = (0.7, 1_001u32, 9u64);
        let (mut reads, mut writes) = (0u64, 0u64);
        for t in 0..8u32 {
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_add(u64::from(t))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for _ in 0..trials / 8 + u32::from(t < trials % 8) {
                let mut alive = AliveSet::new();
                for i in 0..8u32 {
                    if rng.gen::<f64>() < p {
                        alive.insert(SiteId::new(i));
                    }
                }
                reads += u64::from(proto.pick_read_quorum(alive.clone(), &mut rng).is_some());
                writes += u64::from(proto.pick_write_quorum(alive, &mut rng).is_some());
            }
        }
        let want = (
            reads as f64 / f64::from(trials),
            writes as f64 / f64::from(trials),
        );
        assert_eq!(empirical_availability(&proto, p, trials, seed), want);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = parallel_map((0..200u64).collect(), |i| i * i);
        let want: Vec<u64> = (0..200u64).map(|i| i * i).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_worker_panic_with_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..64u32).collect::<Vec<_>>(), |i| {
                if i == 7 {
                    panic!("cell 7 exploded");
                }
                i * 2
            })
        });
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("wrong payload type");
        assert_eq!(msg, "cell 7 exploded");
    }

    #[test]
    fn parallel_map_panic_in_single_thread_path_propagates_too() {
        // One item forces the threads <= 1 fallback.
        let result = std::panic::catch_unwind(|| {
            parallel_map(vec![1u32], |_| -> u32 { panic!("lone cell exploded") })
        });
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "lone cell exploded");
    }
}
