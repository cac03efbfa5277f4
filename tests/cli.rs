//! End-to-end tests of the `arbitree` command-line binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_arbitree"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_prints_paper_example_metrics() {
    let (ok, stdout, _) = run(&["analyze", "1-3-5", "0.7"]);
    assert!(ok);
    assert!(stdout.contains("replicas       : 8"));
    assert!(stdout.contains("m(R) = 15"));
    assert!(stdout.contains("0.3333")); // read load 1/d
}

#[test]
fn render_draws_the_tree() {
    let (ok, stdout, _) = run(&["render", "1-3-5"]);
    assert!(ok);
    assert!(stdout.contains("level 0 [log]"));
    assert!(stdout.contains("(s7)"));
}

#[test]
fn plan_picks_rowa_for_pure_reads() {
    let (ok, stdout, _) = run(&["plan", "20", "1.0", "0.9"]);
    assert!(ok);
    assert!(stdout.contains("1-20"), "{stdout}");
}

#[test]
fn frontier_lists_extremes() {
    let (ok, stdout, _) = run(&["frontier", "12", "0.9"]);
    assert!(ok);
    assert!(stdout.contains("1-12"));
    assert!(stdout.contains("1-2-2-2-2-2-2"));
}

#[test]
fn compare_shows_all_six_configurations() {
    let (ok, stdout, _) = run(&["compare", "27"]);
    assert!(ok);
    for name in [
        "BINARY",
        "UNMODIFIED",
        "ARBITRARY",
        "HQC",
        "MOSTLY-READ",
        "MOSTLY-WRITE",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn simulate_reports_consistency() {
    let (ok, stdout, _) = run(&["simulate", "1-3-5", "7"]);
    assert!(ok);
    assert!(stdout.contains("consistent   : true"));
}

#[test]
fn simulate_runs_trees_beyond_128_replicas() {
    // `consistent : true` is printed only with 0 one-copy violations;
    // any violation also fails the command.
    let (ok, stdout, stderr) = run(&["simulate", "1-200", "1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("consistent   : true"), "{stdout}");
}

#[test]
fn simulate_rejects_unknown_arguments() {
    for args in [
        &["simulate", "1-3-5", "--clients", "0"][..],
        &["simulate", "1-3-5", "--drop", "1.5"],
        &["simulate", "1-3-5", "7", "extra"],
        &["simulate", "1-3-5", "7", "--seeds"],
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.starts_with("error: ") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn faults_reports_blocking_numbers() {
    let (ok, stdout, _) = run(&["faults", "1-3-5"]);
    assert!(ok);
    assert!(stdout.contains("reads  survive any 2 failures"));
    assert!(stdout.contains("writes survive any 1 failures"));
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (ok, _, stderr) = run(&["analyze", "not-a-spec"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
}

#[test]
fn migrate_prints_bounded_steps() {
    let (ok, stdout, _) = run(&["migrate", "1-16", "1-2-6-8", "4"]);
    assert!(ok);
    assert!(stdout.contains("steps of <= 4 moves"));
    assert!(stdout.trim_end().ends_with("1-2-6-8"));
}
