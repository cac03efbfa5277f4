//! Repeated passes over one workload, their correctness checks, and the
//! metrics computed from them.
//!
//! A pass builds and runs every segment of the workload (see
//! [`Workload::default_segments`]) once. A measurement repeats passes
//! with one seed until its wall-time budget is spent. Simulated-time
//! figures must come out bit-identical on every pass. Wall-time figures
//! take the median over the fastest quarter of each segment's runs (for
//! set-up time, of the set-ups): interference from other work on the host
//! only ever slows a timing down, so the fast end is the figure that
//! repeats from run to run.

use crate::trace::{wall_now, CountingScheduler, PickProbe, Step, TimingScheduler, TraceTotals};
use crate::workload::{level_wipe, Workload};
use arbitree_sim::{cell_seed, SimDuration, SimReport};
use std::rc::Rc;
use std::time::Instant;

/// Fewest passes a measurement makes, however long they last.
const MIN_PASSES: usize = 2;

/// Fewest set-ups an untraced pass times. A workload with fewer segments
/// builds each one several times and runs the last build, so `setup_s`
/// is a median over many samples even where a set-up takes microseconds.
const SETUP_SAMPLES_PER_PASS: u64 = 16;

/// The failure recorded when a pass does not reproduce the first one.
const REPEAT_DIFFERS: &str = "a repeated pass's reports differ from the first pass's";

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs come from.
    pub seed: u64,
    /// Wall-time budget: passes continue until it is spent.
    pub seconds: f64,
    /// Simulated time of each segment.
    pub duration: SimDuration,
    /// Segments per pass.
    pub segments: u64,
}

impl Plan {
    /// A full-size plan for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan {
            workload,
            seed,
            seconds,
            duration: workload.default_duration(),
            segments: workload.default_segments(),
        }
    }

    /// The seed of segment `index`.
    fn segment_seed(&self, index: u64) -> u64 {
        cell_seed(self.seed, index)
    }
}

/// One metric as reported: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its value; always finite.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of measuring one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulations run, untraced and traced.
    pub runs: u64,
    /// Of those, the ones that failed a correctness check.
    pub failed_runs: u64,
    /// Failed correctness checks, one line each; empty when all held.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

fn seconds_since(start: Instant) -> f64 {
    wall_now().saturating_duration_since(start).as_secs_f64()
}

/// Collects failed checks, and the runs they belong to.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
    failed_runs: u64,
}

impl Checks {
    /// Records the failures of one run.
    fn run(&mut self, failures: Vec<String>) {
        if !failures.is_empty() {
            self.failed_runs += 1;
            self.failures.extend(failures);
        }
    }
}

/// One untraced pass.
struct Pass {
    /// Set-up times of the pass's builds. Every pass times its own
    /// set-ups, so the samples spread over the whole run like the passes
    /// do, instead of catching the host in one instant.
    setup_s: Vec<f64>,
    /// `run_with` time of each segment.
    wall_s: Vec<f64>,
    /// Events executed, summed over segments.
    events: u64,
    /// Each segment's report.
    reports: Vec<SimReport>,
}

/// One pass of untraced runs; `first` also checks each fault schedule.
fn pass_untraced(plan: &Plan, checks: &mut Checks, first: bool) -> Pass {
    let mut pass = Pass {
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        events: 0,
        reports: Vec::new(),
    };
    let builds = SETUP_SAMPLES_PER_PASS.div_ceil(plan.segments).max(1);
    for index in 0..plan.segments {
        let mut built = None;
        for _ in 0..builds {
            let start = wall_now();
            let fresh = plan
                .workload
                .build(plan.segment_seed(index), plan.duration, None);
            pass.setup_s.push(seconds_since(start));
            built = Some(fresh);
        }
        let mut built = built.expect("every segment is built at least once");
        let mut failures = Vec::new();
        if first {
            if let Some(wipe) = level_wipe(&built.faults, &built.tree) {
                failures.push(format!(
                    "segment {index}: fault schedule amnesia-crashes every replica of level {} at {}",
                    wipe.level, wipe.at
                ));
            }
        }
        let mut scheduler = CountingScheduler::default();
        let start = wall_now();
        let report = built.sim.run_with(&mut scheduler);
        pass.wall_s.push(seconds_since(start));
        pass.events += scheduler.events;
        check_report(&report, &mut failures);
        checks.run(failures);
        pass.reports.push(report);
    }
    pass
}

/// One pass of traced runs: its wall time, trace totals and reports.
fn pass_traced(plan: &Plan, checks: &mut Checks) -> (f64, TraceTotals, Vec<SimReport>) {
    let mut wall_s = 0.0;
    let mut totals = TraceTotals::default();
    let mut reports = Vec::new();
    for index in 0..plan.segments {
        let probe = Rc::new(PickProbe::default());
        let mut built = plan
            .workload
            .build(plan.segment_seed(index), plan.duration, Some(&probe));
        let mut scheduler = TimingScheduler::new(Rc::clone(&probe));
        let start = wall_now();
        let report = built.sim.run_with(&mut scheduler);
        let run_s = seconds_since(start);
        let run_totals = scheduler.finish();
        let attributed_s = run_totals.attributed_ns() as f64 / 1e9;
        if attributed_s > run_s {
            checks.run(vec![format!(
                "segment {index}: layer times sum to {attributed_s} s, more than the run's {run_s} s"
            )]);
        }
        wall_s += run_s;
        totals.absorb(&run_totals);
        reports.push(report);
    }
    (wall_s, totals, reports)
}

/// The correctness checks every run's report must pass.
fn check_report(report: &SimReport, failures: &mut Vec<String>) {
    let m = &report.metrics;
    if !report.consistent || report.violations > 0 {
        failures.push(format!("{} one-copy violations", report.violations));
    }
    if m.sync_violations > 0 {
        failures.push(format!("{} sync violations", m.sync_violations));
    }
    if m.ops_ok() == 0 {
        failures.push("no operation committed".to_string());
    }
}

/// Checks that hold for a whole pass.
fn check_pass(workload: Workload, reports: &[SimReport], checks: &mut Checks) {
    if workload == Workload::HotChurn && sum(reports, |r| r.metrics.rejoins_completed) == 0.0 {
        checks.run(vec!["no amnesia rejoin completed".to_string()]);
    }
}

/// Records `failure` if two passes' reports differ.
fn check_same(expected: &[SimReport], reports: &[SimReport], failure: &str, checks: &mut Checks) {
    if expected != reports {
        checks.run(vec![failure.to_string()]);
    }
}

/// The median over the shortest quarter (at least one) of wall times.
/// Interference from other work on the host only ever lengthens a timing,
/// so the short end is the figure that repeats from run to run.
fn fast_time(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    let fastest = times.len().div_ceil(4);
    median(&mut times[..fastest])
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A counter summed over the segments of a pass.
fn sum(reports: &[SimReport], f: impl Fn(&SimReport) -> u64) -> f64 {
    reports.iter().map(f).sum::<u64>() as f64
}

/// Peak resident set size of this process since the last reset, in MiB,
/// from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak-RSS high-water mark, so the next workload in this
/// process reports its own peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Measures the end-to-end metrics: untraced passes, bare protocol.
pub fn measure(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let start = wall_now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || seconds_since(start) < plan.seconds {
        let pass = pass_untraced(plan, &mut checks, passes.is_empty());
        match passes.first() {
            None => check_pass(plan.workload, &pass.reports, &mut checks),
            Some(first) => check_same(&first.reports, &pass.reports, REPEAT_DIFFERS, &mut checks),
        }
        setup_s.extend_from_slice(&pass.setup_s);
        passes.push(pass);
    }
    let reports = &passes[0].reports;
    let ops = sum(reports, |r| r.metrics.ops_ok());
    let finished_ops = ops + sum(reports, |r| r.metrics.ops_failed());
    let txns = sum(reports, |r| r.metrics.txns_ok + r.metrics.txns_failed);
    let sim_s = (plan.duration.as_micros() * plan.segments) as f64 / 1e6;
    // Every pass replays the first (their reports are checked equal), so
    // passes differ only in wall time. Each segment takes its own fastest
    // runs, so interference that hits part of a pass costs only the
    // segments it hit.
    let wall_s: f64 = (0..passes[0].wall_s.len())
        .map(|i| fast_time(passes.iter().map(|p| p.wall_s[i]).collect()))
        .sum();
    let events = passes[0].events as f64;
    let mut p99s: Vec<f64> = reports
        .iter()
        .map(|r| {
            r.metrics
                .latency_histogram
                .p99()
                .map_or(0.0, |d| d.as_micros() as f64)
        })
        .collect();
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("setup_s", fast_time(setup_s), "s"),
        metric("ops_per_wall_s", ops / wall_s, "ops/s"),
        metric("events_per_wall_s", events / wall_s, "events/s"),
        metric("ops_per_sim_s", ops / sim_s, "ops/sim_s"),
        metric(
            "op_latency_mean_sim_us",
            ratio(
                sum(reports, |r| r.metrics.total_latency.as_micros()),
                sum(reports, |r| r.metrics.latency_samples),
            ),
            "sim_us",
        ),
        metric("op_latency_p99_sim_us", median(&mut p99s), "sim_us_pow2"),
        metric(
            "msgs_per_op",
            ratio(sum(reports, |r| r.metrics.messages_sent), ops),
            "msgs/op",
        ),
        metric("op_success_share", ratio(ops, finished_ops), "fraction"),
        metric(
            "txn_commit_share",
            ratio(sum(reports, |r| r.metrics.txns_ok), txns),
            "fraction",
        ),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    Outcome {
        runs: passes.len() as u64 * plan.segments,
        failed_runs: checks.failed_runs,
        failures: checks.failures,
        metrics,
    }
}

/// Measures the per-layer metrics: pairs of an untraced and a traced pass
/// of the same seed, whose reports must be equal.
pub fn measure_traced(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let start = wall_now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut totals = TraceTotals::default();
    let mut first: Option<Vec<SimReport>> = None;
    while untraced_walls.len() < MIN_PASSES || seconds_since(start) < plan.seconds {
        let bare = pass_untraced(plan, &mut checks, first.is_none());
        let (wall_s, pass_totals, traced) = pass_traced(plan, &mut checks);
        check_same(
            &bare.reports,
            &traced,
            "a traced pass's reports differ from the untraced pass's",
            &mut checks,
        );
        match &first {
            None => check_pass(plan.workload, &bare.reports, &mut checks),
            Some(first) => check_same(first, &bare.reports, REPEAT_DIFFERS, &mut checks),
        }
        first.get_or_insert(bare.reports);
        untraced_walls.push(bare.wall_s.iter().sum::<f64>());
        traced_walls.push(wall_s);
        totals.absorb(&pass_totals);
    }
    let passes = untraced_walls.len() as u64;
    let reports = first.expect("at least one pass ran");
    let overhead = median(&mut traced_walls.clone()) / median(&mut untraced_walls) - 1.0;
    let traced_ns: f64 = traced_walls.iter().sum::<f64>() * 1e9;
    let metrics = layer_metrics(&reports, &totals, passes, traced_ns, overhead);
    Outcome {
        runs: 2 * passes * plan.segments,
        failed_runs: checks.failed_runs,
        failures: checks.failures,
        metrics,
    }
}

/// The per-layer metrics of `passes` traced passes that together took
/// `traced_ns`, each producing `reports`.
fn layer_metrics(
    reports: &[SimReport],
    t: &TraceTotals,
    passes: u64,
    traced_ns: f64,
    overhead: f64,
) -> Vec<Metric> {
    // Every pass reproduced the same reports, so the spans of all passes
    // pair with `passes` times one pass's counters.
    let k = passes as f64;
    let total = |f: fn(&SimReport) -> u64| sum(reports, f) * k;
    let ops = total(|r| r.metrics.ops_ok());
    let txns = total(|r| r.metrics.txns_ok + r.metrics.txns_failed);
    let msgs = total(|r| r.metrics.messages_sent);
    // Rejoin figures are per rejoin, so one pass's counters suffice.
    let rejoins = sum(reports, |r| r.metrics.rejoins_completed);
    let site = t.step(Step::SiteDeliver);
    let reply = t.step(Step::ClientDeliver);
    let tick = t.step(Step::ClientTick);
    let timeout = t.step(Step::OpTimeout);
    let sync = [t.step(Step::SyncMessage), t.step(Step::SyncRetry)];
    let fault = t.step(Step::Fault);
    let coordinator_ns = (reply.self_ns() + tick.self_ns() + timeout.self_ns()) as f64;
    let recovery_ns = sync.iter().map(|s| s.self_ns()).sum::<u64>() as f64;
    let recovery_events = sync.iter().map(|s| s.count).sum::<u64>() as f64;
    let pick_ns = (t.picks.read_ns + t.picks.write_ns) as f64;
    let picks = (t.picks.read_picks + t.picks.write_picks) as f64;
    let events: u64 = t.steps.iter().map(|s| s.count).sum();
    let share = |ns: f64| ratio(ns, traced_ns);
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("event.select_ns", per(t.select_ns, t.selects), "ns"),
        metric("event.share", share(t.select_ns as f64), "fraction"),
        metric(
            "event.pending_mean",
            ratio(t.pending_area as f64, t.span_us as f64),
            "events",
        ),
        metric(
            "event.events_per_op",
            ratio(events as f64, ops),
            "events/op",
        ),
        metric(
            "site.ns_per_delivery",
            per(site.self_ns(), site.count),
            "ns",
        ),
        metric("site.share", share(site.self_ns() as f64), "fraction"),
        metric(
            "site.payloads_per_delivery",
            per(t.site_payloads, site.count),
            "payloads/msg",
        ),
        metric(
            "site.refused_share",
            ratio(
                total(|r| r.metrics.messages_to_dead + r.metrics.messages_refused_syncing),
                site.count as f64,
            ),
            "fraction",
        ),
        metric(
            "network.batches_per_msg",
            ratio(total(|r| r.metrics.batches_sent), msgs),
            "batches/msg",
        ),
        metric(
            "network.drop_share",
            ratio(total(|r| r.metrics.messages_dropped()), msgs),
            "fraction",
        ),
        metric(
            "coordinator.ns_per_reply",
            per(reply.self_ns(), reply.count),
            "ns",
        ),
        metric(
            "coordinator.ns_per_tick",
            per(tick.self_ns(), tick.count),
            "ns",
        ),
        metric(
            "coordinator.ns_per_timeout",
            per(timeout.self_ns(), timeout.count),
            "ns",
        ),
        metric("coordinator.share", share(coordinator_ns), "fraction"),
        metric(
            "coordinator.timeout_useful_share",
            ratio(total(|r| r.metrics.timeouts_fired), timeout.count as f64),
            "fraction",
        ),
        metric(
            "coordinator.in_flight_mean",
            ratio(t.in_flight_area as f64, t.span_us as f64),
            "txns",
        ),
        metric(
            "coordinator.retries_per_op",
            ratio(
                total(|r| {
                    r.metrics.retries_read + r.metrics.retries_prepare + r.metrics.retries_commit
                }),
                ops,
            ),
            "retries/op",
        ),
        metric(
            "coordinator.aborts_exhausted_per_txn",
            ratio(total(|r| r.metrics.aborts_exhausted), txns),
            "aborts/txn",
        ),
        metric(
            "coordinator.aborts_conflict_per_txn",
            ratio(total(|r| r.metrics.aborts_conflict), txns),
            "aborts/txn",
        ),
        metric(
            "coordinator.aborts_no_quorum_per_txn",
            ratio(total(|r| r.metrics.aborts_no_quorum), txns),
            "aborts/txn",
        ),
        metric(
            "protocol.read_pick_ns",
            per(t.picks.read_ns, t.picks.read_picks),
            "ns",
        ),
        metric(
            "protocol.write_pick_ns",
            per(t.picks.write_ns, t.picks.write_picks),
            "ns",
        ),
        metric("protocol.share", share(pick_ns), "fraction"),
        metric("protocol.picks_per_op", ratio(picks, ops), "picks/op"),
        metric(
            "protocol.pick_fail_share",
            ratio(t.picks.failed_picks as f64, picks),
            "fraction",
        ),
        metric(
            "recovery.ns_per_sync_msg",
            ratio(recovery_ns, recovery_events),
            "ns",
        ),
        metric("recovery.share", share(recovery_ns), "fraction"),
        metric(
            "recovery.keys_per_rejoin",
            ratio(sum(reports, |r| r.metrics.sync_keys_transferred), rejoins),
            "keys/rejoin",
        ),
        metric(
            "recovery.ranges_per_rejoin",
            ratio(sum(reports, |r| r.metrics.sync_ranges_compared), rejoins),
            "ranges/rejoin",
        ),
        metric(
            "recovery.rejoin_latency_mean_sim_us",
            ratio(
                sum(reports, |r| r.metrics.rejoin_time_total.as_micros()),
                rejoins,
            ),
            "sim_us",
        ),
        metric(
            "checker.checks_per_op",
            ratio(total(|r| r.reads_checked + r.writes_recorded), ops),
            "checks/op",
        ),
        metric("fault.share", share(fault.self_ns() as f64), "fraction"),
        metric("trace.overhead", overhead, "fraction"),
        metric(
            "trace.unattributed_share",
            share(traced_ns - t.attributed_ns() as f64),
            "fraction",
        ),
    ]
}
