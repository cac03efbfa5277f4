//! Chaos campaign: sweeps seeded adversarial nemesis profiles over the
//! simulator and cross-validates measured availability against the paper's
//! closed forms.
//!
//! Every cell runs uncorrelated MTTF/MTTR churn whose steady-state uptime
//! `p = MTTF/(MTTF+MTTR)` feeds the closed forms (`∏_k (1 − (1−p)^{m_phy_k})`
//! for reads, `1 − ∏_k (1 − p^{m_phy_k})` for writes). The `churn` baseline
//! carries no nemesis, so its measured rates should *track* the prediction;
//! the adversarial cells layer a scripted nemesis on top, so their relative
//! error measures how far correlated faults push reality away from the
//! independence assumption. In every cell the hard requirement is the same:
//! zero one-copy serializability violations.
//!
//! Usage: `chaos [--smoke] [--seeds <k>] [--duration <ms>] [--tree <spec>]`
//! (defaults: 3 seeds, 3200 ms, `1-3-5`; `--smoke` shrinks to 2 seeds of
//! 1200 ms for CI).

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{steady_state_uptime, ReplicaControl};
use arbitree_sim::{
    build_profile, cell_seed, run_chaos_campaign, ChaosCell, ChaosOutcome, ExperimentCell,
    FailureSchedule, NemesisKind, RetryPolicy, SimConfig, SimDuration,
};

/// Mean time to failure of the uncorrelated churn process.
const MTTF: SimDuration = SimDuration::from_millis(240);
/// Mean time to repair of the uncorrelated churn process.
const MTTR: SimDuration = SimDuration::from_millis(60);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seeds = arg_value(&args, "--seeds").unwrap_or(if smoke { 2.0 } else { 3.0 }) as u64;
    let duration_ms =
        arg_value(&args, "--duration").unwrap_or(if smoke { 1200.0 } else { 3200.0 }) as u64;
    let spec = args
        .iter()
        .position(|a| a == "--tree")
        .and_then(|i| args.get(i + 1))
        .map_or("1-3-5", String::as_str);

    let duration = SimDuration::from_millis(duration_ms);
    let p = steady_state_uptime(MTTF.as_micros() as f64, MTTR.as_micros() as f64);
    let probe = ArbitraryProtocol::parse(spec).expect("valid tree spec");
    let predicted_read = probe.read_availability(p);
    let predicted_write = probe.write_availability(p);
    let levels: Vec<Vec<_>> = probe
        .tree()
        .physical_levels()
        .iter()
        .map(|&k| probe.tree().level_sites(k).to_vec())
        .collect();
    let n_sites = probe.tree().replica_count();

    println!(
        "Chaos campaign: tree {spec} ({n_sites} sites), {seeds} seeds x {} profiles, \
         {duration_ms} ms each",
        NemesisKind::ALL.len() + 1
    );
    println!(
        "Churn MTTF/MTTR = {}/{} ms -> steady-state p = {} \
         (closed forms: read {}, write {})\n",
        MTTF.as_micros() / 1_000,
        MTTR.as_micros() / 1_000,
        fmt_f(p),
        fmt_f(predicted_read),
        fmt_f(predicted_write),
    );

    // One cell per (profile, seed); "churn" is the nemesis-free baseline.
    let mut cells = Vec::new();
    for seed_idx in 0..seeds {
        for (profile_idx, profile) in [None]
            .into_iter()
            .chain(NemesisKind::ALL.map(Some))
            .enumerate()
        {
            let seed = cell_seed(0xC4A0_5EED, seed_idx * 64 + profile_idx as u64);
            // A few quick attempts make each operation a sample of "was a
            // quorum feasible right now": the first pick is blind, the
            // suspicion loop steers later picks around dead members, and
            // the attempt window stays well under MTTR so churn has no
            // time to repair mid-op. One attempt would under-measure
            // (blind picks hit dead sites); unbounded attempts would
            // over-measure (waiting out the repair process).
            let config = SimConfig {
                seed,
                duration,
                max_attempts: 3,
                // Long think times keep the closed-loop clients close to a
                // uniform-in-time sampler: a failed op burns ~12 ms of
                // timeouts, which would otherwise under-sample exactly the
                // bad periods the campaign wants to measure.
                think_time: SimDuration::from_millis(40),
                retry: RetryPolicy::Exponential {
                    cap: SimDuration::from_millis(24),
                    jitter: 0.25,
                },
                ..SimConfig::default()
            };
            let churn = FailureSchedule::random(n_sites, duration, MTTF, MTTR, seed ^ 0xF417);
            let name = profile.map_or("churn", NemesisKind::name);
            let mut cell = ExperimentCell::new(
                format!("{name} s{seed_idx}"),
                config,
                ArbitraryProtocol::parse(spec).expect("valid tree spec"),
            )
            .with_failures(churn);
            if let Some(kind) = profile {
                let nemesis =
                    build_profile(kind, &levels, cell.config.network, duration, seed ^ 0xBAD);
                cell = cell.with_nemesis(nemesis);
            }
            cells.push(ChaosCell {
                cell,
                predicted_read,
                predicted_write,
            });
        }
    }

    let outcomes = run_chaos_campaign(cells);
    let rows: Vec<Vec<String>> = outcomes.iter().map(row).collect();
    print!(
        "{}",
        render_table(
            &[
                "profile",
                "RDavail m/c",
                "RDerr",
                "WRavail m/c",
                "WRerr",
                "timeouts",
                "retries",
                "aborts",
                "suspects",
                "dropped",
                "rejoins",
                "1SR",
            ],
            &rows
        )
    );
    println!("(m = measured, c = closed form at steady-state p; err = relative error)");

    let violations: usize = outcomes.iter().map(|o| o.report.violations).sum();
    let inconsistent = outcomes.iter().filter(|o| !o.report.consistent).count();
    if violations > 0 || inconsistent > 0 {
        println!(
            "\nFAIL: {violations} one-copy violations across {inconsistent} inconsistent cells"
        );
        std::process::exit(1);
    }
    // Staged-rejoin gates: no reply was ever served by a non-`Serving`
    // site, and the amnesia profile actually completed its rejoins.
    let sync_violations: u64 = outcomes
        .iter()
        .map(|o| o.report.metrics.sync_violations)
        .sum();
    if sync_violations > 0 {
        println!("\nFAIL: {sync_violations} replies served by non-Serving sites");
        std::process::exit(1);
    }
    let amnesia_rejoins: u64 = outcomes
        .iter()
        .filter(|o| o.label.starts_with("amnesia-cold-start"))
        .map(|o| o.report.metrics.rejoins_completed)
        .sum();
    if amnesia_rejoins == 0 {
        println!("\nFAIL: no amnesia-cold-start cell completed a rejoin");
        std::process::exit(1);
    }
    println!(
        "\nOK: zero one-copy violations, zero syncing-serve violations, \
         {amnesia_rejoins} staged rejoins across all {} cells",
        outcomes.len()
    );
}

fn row(o: &ChaosOutcome) -> Vec<String> {
    let m = &o.report.metrics;
    let opt = |v: Option<f64>| v.map_or_else(|| "-".into(), fmt_f);
    vec![
        o.label.clone(),
        format!("{}/{}", opt(o.measured_read()), fmt_f(o.predicted_read)),
        opt(o.read_error()),
        format!("{}/{}", opt(o.measured_write()), fmt_f(o.predicted_write)),
        opt(o.write_error()),
        m.timeouts_fired.to_string(),
        (m.retries_read + m.retries_prepare + m.retries_commit).to_string(),
        (m.aborts_exhausted + m.aborts_conflict + m.aborts_no_quorum + m.aborts_reconfig)
            .to_string(),
        m.suspicions_raised.to_string(),
        m.messages_dropped().to_string(),
        m.rejoins_completed.to_string(),
        if o.report.consistent {
            "yes".into()
        } else {
            format!("NO ({})", o.report.violations)
        },
    ]
}
