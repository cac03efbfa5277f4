//! Detector-enabled stress coverage (requires `--features race-audit`):
//! the parallel experiment runner and a small chaos batch must record
//! clean — zero race, misuse, or lock-order findings and no dropped events.
//!
//! Sessions are serialized process-wide by the recording gate, so these
//! tests are safe under the default parallel test runner.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::SiteId;
use arbitree_race::{analyze, Session};
use arbitree_sim::{
    build_profile, parallel_map, run_cells, ExperimentCell, FailureSchedule, NemesisKind,
    NetworkConfig, SimConfig, SimDuration,
};

fn proto() -> ArbitraryProtocol {
    ArbitraryProtocol::parse("1-3-5").expect("valid tree spec")
}

#[test]
fn parallel_map_records_clean() {
    let session = Session::start();
    let out = parallel_map((0..96u64).collect(), |i| i.wrapping_mul(0x9E37_79B9));
    let report = analyze(&session.finish());
    assert_eq!(out.len(), 96);
    assert!(
        report.clean(),
        "parallel_map produced findings:\n{}",
        report.render_text()
    );
    // With more than one core the map forks worker threads that do all
    // the work, so at least one of them must have recorded beside the
    // caller.
    if std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
        assert!(
            report.threads > 1,
            "only {} thread recorded",
            report.threads
        );
    }
}

#[test]
fn run_cells_with_chaos_records_clean_and_deterministic() {
    let cells = || {
        let mut v = Vec::new();
        for seed in 0..4u64 {
            let config = SimConfig {
                seed,
                duration: SimDuration::from_millis(60),
                ..SimConfig::default()
            };
            let mut cell = ExperimentCell::new(format!("cell-{seed}"), config.clone(), proto());
            if seed % 2 == 0 {
                cell = cell.with_failures(FailureSchedule::random(
                    8,
                    config.duration,
                    SimDuration::from_millis(20),
                    SimDuration::from_millis(5),
                    seed + 11,
                ));
            } else {
                let levels: Vec<Vec<SiteId>> =
                    vec![vec![SiteId::new(0)], (1..4).map(SiteId::new).collect()];
                cell = cell.with_nemesis(build_profile(
                    NemesisKind::PartitionCycles,
                    &levels,
                    NetworkConfig::default(),
                    config.duration,
                    seed + 7,
                ));
            }
            v.push(cell);
        }
        v
    };

    let session = Session::start();
    let audited = run_cells(cells());
    let report = analyze(&session.finish());
    assert!(
        report.clean(),
        "run_cells produced findings:\n{}",
        report.render_text()
    );

    // Recording must not perturb results: a second, untraced run of the
    // same batch returns identical reports.
    let untraced = run_cells(cells());
    assert_eq!(audited.len(), untraced.len());
    for ((la, ra), (lb, rb)) in audited.iter().zip(&untraced) {
        assert_eq!(la, lb);
        assert_eq!(ra.consistent, rb.consistent);
        assert_eq!(ra.metrics.ops_ok(), rb.metrics.ops_ok());
    }
}
