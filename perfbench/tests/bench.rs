//! Brief runs of every workload: metric coverage, determinism, the
//! predicted layer split, agreement with `BENCHMARK.json`, and the
//! repository's lint rules on the benchmark's own sources.

use arbitree_perfbench::measure::{measure, measure_traced, Metric, Outcome, Plan};
use arbitree_perfbench::workload::Workload;
use arbitree_sim::SimDuration;
use std::path::Path;

/// Metrics computed from simulated time only: equal for equal seeds.
const SIMULATED: [&str; 6] = [
    "ops_per_sim_s",
    "op_latency_mean_sim_us",
    "op_latency_p99_sim_us",
    "msgs_per_op",
    "op_success_share",
    "txn_commit_share",
];

/// A short plan: one pass takes well under a second even unoptimized.
fn brief(workload: Workload) -> Plan {
    let (duration_ms, segments) = match workload {
        Workload::KeyspaceBatch => (40, 1),
        Workload::Balanced100 => (150, 1),
        Workload::HotChurn => (3_000, 2),
    };
    Plan {
        workload,
        seed: 7,
        seconds: 0.0,
        duration: SimDuration::from_millis(duration_ms),
        segments,
    }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn assert_well_formed(workload: Workload, outcome: &Outcome, expected: usize) {
    assert!(
        outcome.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert_eq!(outcome.failed_runs, 0);
    assert!(outcome.runs >= 2);
    assert_eq!(outcome.metrics.len(), expected, "{}", workload.name());
    for Metric { name, value, unit } in &outcome.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_deterministically() {
    for workload in Workload::ALL {
        let first = measure(&brief(workload));
        assert_well_formed(workload, &first, 10);
        for name in [
            "setup_s",
            "ops_per_wall_s",
            "events_per_wall_s",
            "ops_per_sim_s",
        ] {
            assert!(value(&first, name) > 0.0, "{}: {name}", workload.name());
        }
        let second = measure(&brief(workload));
        for name in SIMULATED {
            assert_eq!(
                value(&first, name).to_bits(),
                value(&second, name).to_bits(),
                "{}: {name} differs between same-seed runs",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_runs_replay_the_untraced_ones_and_split_as_predicted() {
    let traced: Vec<Outcome> = Workload::ALL
        .iter()
        .map(|&w| {
            let outcome = measure_traced(&brief(w));
            assert_well_formed(w, &outcome, 34);
            assert!(value(&outcome, "trace.unattributed_share") >= 0.0);
            outcome
        })
        .collect();
    let [churn, balanced, keyspace] = &traced[..] else {
        unreachable!("three workloads");
    };
    for outcome in [keyspace, balanced] {
        assert_eq!(value(outcome, "recovery.share"), 0.0);
    }
    assert!(value(churn, "recovery.share") > 0.0);
    for outcome in [balanced, churn] {
        assert_eq!(value(outcome, "network.batches_per_msg"), 0.0);
    }
    assert!(value(keyspace, "network.batches_per_msg") > 0.0);
    assert!(value(balanced, "protocol.read_pick_ns") > value(keyspace, "protocol.read_pick_ns"));
    assert!(value(churn, "protocol.pick_fail_share") > 0.0);
    assert!(value(churn, "network.drop_share") > 0.0);
}

#[test]
fn metrics_match_their_declarations_in_benchmark_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let plan = brief(Workload::KeyspaceBatch);
    for outcome in [measure(&plan), measure_traced(&plan)] {
        for m in &outcome.metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for w in Workload::ALL {
        assert!(declared.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn sources_pass_the_repository_lint() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["src", "tests"] {
        for entry in std::fs::read_dir(manifest.join(dir)).expect("source directory") {
            let path = entry.expect("directory entry").path();
            let source = std::fs::read_to_string(&path).expect("readable source");
            let name = format!(
                "perfbench/{dir}/{}",
                path.file_name().expect("a file").to_string_lossy()
            );
            let report = arbitree_lint::lint_source(&name, &source);
            assert!(
                report.diagnostics.is_empty(),
                "{}",
                arbitree_lint::render_text(&report)
            );
        }
    }
}
