//! `race_audit` — CI entry point for the arbitree-race concurrency
//! auditor (requires `--features race-audit`).
//!
//! Two halves, mirroring the detector's acceptance criteria:
//!
//! * **Smoke suite** — the real threaded harness paths ([`parallel_map`]
//!   and a small chaos [`run_cells`] batch) each run under their own recording
//!   session and must analyze *clean*: zero data-race, lock-order, or
//!   misuse findings and zero dropped events.
//! * **Kill matrix** — every seeded [`RaceMutation`] runs its mutated
//!   scenario; the analyzer must report at least one finding of the
//!   mutation's defect class, and the unmutated suite must stay clean.
//! * **Recording tax** — the wall time of the two harness paths with a
//!   live session over their time with none (a no-op [`parallel_map`],
//!   where traced operations are the whole workload, and a small
//!   [`run_cells`] batch, where simulation work dwarfs them). Reported,
//!   not gated.
//!
//! Usage: `race_audit [--smoke] [--json <path>]` (default path
//! `RACE_report.json`; `--smoke` shrinks the chaos batch for CI). Exit
//! status is nonzero when any smoke scenario reports findings, any
//! mutant survives, or the unmutated baseline is dirty.

#![forbid(unsafe_code)]

use arbitree_bench::report::{json_str, BenchReport, BenchRow};
use arbitree_core::ArbitraryProtocol;
use arbitree_race::{analyze, mutants, RaceMutation, RaceReport, Session};
use arbitree_sim::{
    build_profile, parallel_map, run_cells, ExperimentCell, FailureSchedule, NemesisKind,
    NetworkConfig, SimConfig, SimDuration,
};
use std::hint::black_box;
// arbitree-lint: allow(D002) — wall-clock timing of the bench harness itself, not simulated time
use std::time::Instant;

/// Alternating repetitions behind each recording-tax ratio.
const TAX_REPS: usize = 101;

/// One smoke scenario's outcome.
struct Smoke {
    name: &'static str,
    report: RaceReport,
}

impl Smoke {
    fn clean(&self) -> bool {
        self.report.clean()
    }
}

/// One kill-matrix row.
struct Kill {
    mutation: RaceMutation,
    killed: bool,
    findings: usize,
    trace: Vec<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map_or("RACE_report.json", String::as_str);

    println!(
        "race_audit: smoke suite + kill matrix{}",
        if smoke_mode { " [smoke]" } else { "" }
    );

    let smokes = vec![parallel_map_smoke(), chaos_batch(smoke_mode)];
    for s in &smokes {
        println!(
            "smoke {:<22} {:>6} events  {} threads  {} locks  {} cells  {}",
            s.name,
            s.report.events,
            s.report.threads,
            s.report.locks,
            s.report.cells,
            if s.clean() { "clean" } else { "FINDINGS" }
        );
        if !s.clean() {
            print!("{}", s.report.render_text());
        }
    }

    let taxes = [
        ("parallel-map", recording_tax(map_noop)),
        ("run-cells", recording_tax(small_batch)),
    ];
    for (name, tax) in &taxes {
        println!(
            "tax   {name:<22} {tax:.2}x recorded / no session (median of {TAX_REPS} alternating runs)"
        );
    }

    let baseline = analyze(&mutants::run(None));
    println!(
        "baseline (all scenarios unmutated): {}",
        if baseline.clean() { "clean" } else { "DIRTY" }
    );

    let kills: Vec<Kill> = RaceMutation::ALL
        .iter()
        .map(|&mutation| {
            let report = analyze(&mutants::run(Some(mutation)));
            let hit = report.findings.iter().find(|f| mutation.kills(f));
            let kill = Kill {
                mutation,
                killed: hit.is_some(),
                findings: report.findings.len(),
                trace: hit.map(|f| f.trace.clone()).unwrap_or_default(),
            };
            println!(
                "mutant {:<18} {:<9} ({} finding{}) — {}",
                mutation.name(),
                if kill.killed { "killed" } else { "SURVIVED" },
                kill.findings,
                if kill.findings == 1 { "" } else { "s" },
                mutation.describe()
            );
            for line in &kill.trace {
                println!("    {line}");
            }
            kill
        })
        .collect();

    std::fs::write(
        json_path,
        render_json(smoke_mode, &smokes, &taxes, &baseline, &kills),
    )
    .expect("write race report JSON");
    println!("wrote {json_path}");

    let dirty_smokes = smokes.iter().filter(|s| !s.clean()).count();
    let survivors = kills.iter().filter(|k| !k.killed).count();
    if dirty_smokes > 0 || survivors > 0 || !baseline.clean() {
        println!(
            "FAIL: {dirty_smokes} dirty smoke scenario(s), {survivors} surviving mutant(s){}",
            if baseline.clean() {
                ""
            } else {
                ", dirty baseline"
            }
        );
        std::process::exit(1);
    }
    println!(
        "OK: {} smoke scenarios clean; {}/{} mutants killed",
        smokes.len(),
        kills.len(),
        kills.len()
    );
}

/// The work-stealing map over 128 no-op items: index claims via traced
/// mutexes, results returned over the traced channel.
fn map_noop() {
    let out = parallel_map((0..128u64).collect(), |i| i.wrapping_mul(0x9E37_79B9));
    assert_eq!(out.len(), 128);
}

fn parallel_map_smoke() -> Smoke {
    let session = Session::start();
    map_noop();
    Smoke {
        name: "parallel-map",
        report: analyze(&session.finish()),
    }
}

/// A small chaos batch through [`run_cells`]: crash/restart schedules on
/// even seeds, partition cycles on odd seeds.
fn chaos_batch(smoke_mode: bool) -> Smoke {
    use arbitree_quorum::SiteId;
    let cells: Vec<ExperimentCell> = (0..if smoke_mode { 4u64 } else { 8u64 })
        .map(|seed| {
            let config = SimConfig {
                seed,
                duration: SimDuration::from_millis(if smoke_mode { 60 } else { 150 }),
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
            cell
        })
        .collect();
    let session = Session::start();
    let results = run_cells(cells);
    assert!(!results.is_empty());
    Smoke {
        name: "run-cells-chaos",
        report: analyze(&session.finish()),
    }
}

/// Two fault-free 20 ms cells of `1-3-5`.
fn small_batch() {
    let cells: Vec<ExperimentCell> = (0..2u64)
        .map(|seed| {
            let config = SimConfig {
                seed,
                duration: SimDuration::from_millis(20),
                ..SimConfig::default()
            };
            ExperimentCell::new(format!("tax-{seed}"), config, proto())
        })
        .collect();
    black_box(run_cells(cells));
}

/// Median wall time of `work` inside a live session (start and drain
/// included) over its median with no session, across [`TAX_REPS`]
/// alternating repetitions after an untimed warm-up of each.
fn recording_tax(work: fn()) -> f64 {
    let time = |recorded: bool| {
        // arbitree-lint: allow(D002) — wall-clock timing of the bench itself
        let t0 = Instant::now();
        let session = recorded.then(Session::start);
        work();
        if let Some(session) = session {
            black_box(session.finish());
        }
        t0.elapsed().as_secs_f64()
    };
    time(false);
    time(true);
    let (mut off, mut on): (Vec<f64>, Vec<f64>) =
        (0..TAX_REPS).map(|_| (time(false), time(true))).unzip();
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    on[TAX_REPS / 2] / off[TAX_REPS / 2].max(1e-12)
}

fn proto() -> ArbitraryProtocol {
    ArbitraryProtocol::parse("1-3-5").expect("valid tree spec")
}

/// Hand-rolled JSON (the workspace vendors no serde): stable key order,
/// one object per smoke scenario and kill-matrix row.
fn render_json(
    smoke_mode: bool,
    smokes: &[Smoke],
    taxes: &[(&str, f64)],
    baseline: &RaceReport,
    kills: &[Kill],
) -> String {
    // Shared `arbitree-bench-report/v1` envelope: smoke scenarios are the
    // rows (audits measure cleanliness, not a rate), the kill matrix rides
    // along as a summary payload.
    let mut report = BenchReport::new("race_audit").config("smoke_mode", smoke_mode);
    for sm in smokes {
        report = report.row(
            BenchRow::plain(sm.name)
                .field("clean", sm.clean())
                .field("findings", sm.report.findings.len())
                .field("events", sm.report.events)
                .field("dropped", sm.report.dropped)
                .field("threads", sm.report.threads)
                .field("locks", sm.report.locks)
                .field("cells", sm.report.cells)
                .field("hb_suppressed", sm.report.hb_suppressed),
        );
    }
    for (name, tax) in taxes {
        report = report.row(
            BenchRow::plain(format!("recording-tax {name}"))
                .field("recorded_over_no_session", format!("{tax:.3}"))
                .field("reps", TAX_REPS),
        );
    }
    let mut matrix = String::from("[\n");
    for (i, k) in kills.iter().enumerate() {
        matrix.push_str(&format!(
            "    {{\"mutation\": {}, \"killed\": {}, \"findings\": {}, \"trace\": [",
            json_str(k.mutation.name()),
            k.killed,
            k.findings
        ));
        for (j, line) in k.trace.iter().enumerate() {
            matrix.push_str(&format!(
                "{}{}",
                json_str(line),
                if j + 1 < k.trace.len() { ", " } else { "" }
            ));
        }
        matrix.push_str(&format!(
            "]}}{}\n",
            if i + 1 < kills.len() { "," } else { "" }
        ));
    }
    matrix.push_str("  ]");
    report
        .summary("baseline_clean", baseline.clean())
        .summary("kill_matrix", matrix)
        .summary("killed", kills.iter().filter(|k| k.killed).count())
        .summary("total", kills.len())
        .to_json()
}
