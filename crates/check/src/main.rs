//! `check` — runs the exhaustive-exploration suite and the mutation-kill
//! matrix, printing the tables EXPERIMENTS.md records. The `audit`
//! subcommand instead runs the soundness audit of the checker itself:
//! the commutativity oracle over the independence relation, the seeded
//! relation-mutation kill matrix, and the fingerprint collision audit
//! (optionally written as a JSON report for CI artifacts).
//!
//! Exit status is non-zero if any unmutated exploration finds a violation
//! or any seeded mutation survives — and, under `audit`, if the oracle
//! refutes the real relation or a seeded relation mutation survives.

#![forbid(unsafe_code)]

use arbitree_check::{explore, kill_all, Budget, Scenario};
use std::process::ExitCode;
// arbitree-lint: allow(D002) — wall-clock timing of the checker itself, not simulated time
use std::time::Instant;

mod audit_cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: check [--smoke]");
        println!("       check audit [--smoke] [--json PATH]");
        println!("  --smoke       CI budget (seconds); default is the full EXPERIMENTS.md budget");
        println!("  audit         audit the checker itself: commutativity oracle, relation-");
        println!("                mutation kills, fingerprint collision audit");
        println!("  --json PATH   (audit) also write the report as JSON");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "audit") {
        let json = args
            .iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .cloned();
        return audit_cli::run(smoke, json.as_deref());
    }
    let budget = if smoke {
        Budget::smoke()
    } else {
        Budget::full()
    };
    let mut failed = false;

    println!("== exhaustive exploration (unmutated) ==");
    println!(
        "{:<22} {:>6} {:>5} {:>9} {:>12} {:>12} {:>8} {:>10} {:>6}",
        "scenario",
        "spec",
        "depth",
        "states",
        "dpor-scheds",
        "naive-scheds",
        "factor",
        "violations",
        "secs"
    );
    for scenario in Scenario::exhaustive() {
        let depth = if smoke {
            scenario.smoke_depth
        } else {
            scenario.full_depth
        };
        let b = budget.with_depth(depth);
        // arbitree-lint: allow(D002) — wall-clock timing of the checker itself
        let t0 = Instant::now();
        let dpor = explore(&scenario, None, b);
        let naive = explore(&scenario, None, b.naive());
        let secs = t0.elapsed().as_secs_f64();
        let factor = naive.stats.schedules as f64 / dpor.stats.schedules.max(1) as f64;
        let factor = if naive.complete {
            format!("{factor:.1}x")
        } else {
            format!(">={factor:.1}x")
        };
        let violations = u32::from(dpor.violation.is_some()) + u32::from(naive.violation.is_some());
        println!(
            "{:<22} {:>6} {:>5} {:>9} {:>12} {:>12} {:>8} {:>10} {:>6.1}",
            scenario.name,
            scenario.spec,
            depth,
            dpor.stats.states,
            dpor.stats.schedules,
            naive.stats.schedules,
            factor,
            violations,
            secs
        );
        if !dpor.complete {
            failed = true;
            println!("  FAILED: exhaustive-tier dpor exploration hit the budget");
        }
        for outcome in [&dpor, &naive] {
            if let Some(v) = &outcome.violation {
                failed = true;
                println!("  VIOLATION [{}]: {}", v.kind, v.detail);
                for line in &v.schedule {
                    println!("    {line}");
                }
            }
        }
    }

    // Bounded tier: contended multi-client scenarios whose state space
    // exceeds any budget — every explored schedule is still checked. Both
    // modes run at the same schedule cap, so the coverage factor
    // (dpor-states / naive-states) measures how many more *distinct*
    // states DPOR reaches per schedule; independence-rich scenarios
    // (cross-shard keys) push it up.
    let bounded_budget = budget.capped(if smoke { 60_000 } else { 1_000_000 });
    println!();
    println!("== bounded exploration (unmutated, dpor vs naive at equal budget) ==");
    println!(
        "{:<22} {:>6} {:>9} {:>12} {:>12} {:>9} {:>8} {:>10} {:>15} {:>6}",
        "scenario",
        "spec",
        "states",
        "schedules",
        "naive-states",
        "maxdepth",
        "coverage",
        "violations",
        "end",
        "secs"
    );
    for scenario in Scenario::bounded() {
        // arbitree-lint: allow(D002) — wall-clock timing of the checker itself
        let t0 = Instant::now();
        let outcome = explore(&scenario, None, bounded_budget);
        let naive = explore(&scenario, None, bounded_budget.naive());
        let secs = t0.elapsed().as_secs_f64();
        let coverage = outcome.stats.states as f64 / naive.stats.states.max(1) as f64;
        println!(
            "{:<22} {:>6} {:>9} {:>12} {:>12} {:>9} {:>7.1}x {:>10} {:>15} {:>6.1}",
            scenario.name,
            scenario.spec,
            outcome.stats.states,
            outcome.stats.schedules,
            naive.stats.states,
            outcome.stats.max_depth_seen,
            coverage,
            u32::from(outcome.violation.is_some()) + u32::from(naive.violation.is_some()),
            outcome.termination.to_string(),
            secs
        );
        for out in [&outcome, &naive] {
            if let Some(v) = &out.violation {
                failed = true;
                println!("  VIOLATION [{}]: {}", v.kind, v.detail);
                for line in &v.schedule {
                    println!("    {line}");
                }
            }
        }
        // Sharded scenarios: ablate the object-level independence
        // refinement (same-site deliveries always conflict) at the
        // scenario's *drain depth*, where refined DPOR, site-only DPOR,
        // and naive DFS all exhaust the prefix tree — so the comparison
        // is exact schedules-to-drain, not a budget-censored count.
        // (The deep bounded run above never revisits the shallow frames
        // where the two clients interleave, so measuring there would
        // show nothing; see DESIGN.md §10.)
        if scenario.shards > 1 {
            let depth = if smoke {
                scenario.smoke_depth
            } else {
                scenario.full_depth
            };
            let ab = budget.with_depth(depth);
            let refined = explore(&scenario, None, ab);
            let coarse = explore(&scenario, None, ab.coarse());
            let ab_naive = explore(&scenario, None, ab.naive());
            let drained = refined.complete && coarse.complete && ab_naive.complete;
            println!(
                "  object-independence ablation (drain depth {depth}): schedules-to-drain \
                 {} refined vs {} site-only vs {} naive ({:.2}x / {:.2}x)",
                refined.stats.schedules,
                coarse.stats.schedules,
                ab_naive.stats.schedules,
                coarse.stats.schedules as f64 / refined.stats.schedules.max(1) as f64,
                ab_naive.stats.schedules as f64 / refined.stats.schedules.max(1) as f64,
            );
            if !drained {
                failed = true;
                println!("  FAILED: ablation did not drain at depth {depth} — counts are censored");
            }
            for out in [&refined, &coarse, &ab_naive] {
                if let Some(v) = &out.violation {
                    failed = true;
                    println!("  VIOLATION [{}]: {}", v.kind, v.detail);
                    for line in &v.schedule {
                        println!("    {line}");
                    }
                }
            }
        }
    }

    println!();
    println!("== mutation-kill matrix ==");
    println!(
        "{:<20} {:<20} {:>7} {:<12} {:>10}",
        "mutation", "scenario", "killed", "invariant", "schedules"
    );
    for result in kill_all(budget) {
        println!(
            "{:<20} {:<20} {:>7} {:<12} {:>10}",
            result.mutation,
            result.scenario,
            if result.killed { "yes" } else { "NO" },
            result.kind,
            result.schedules
        );
        match &result.violation {
            Some(v) => {
                println!("  detail: {}", v.detail);
                if v.schedule.is_empty() {
                    println!("  (structural violation — no schedule needed)");
                } else {
                    println!("  replayable schedule:");
                    for line in &v.schedule {
                        println!("    {line}");
                    }
                }
            }
            None => {
                failed = true;
                println!("  SURVIVED — the explorer found no violation within budget");
            }
        }
    }

    if failed {
        println!();
        println!("FAILED: unmutated violation found, or a mutation survived");
        ExitCode::FAILURE
    } else {
        println!();
        println!("ok: zero violations unmutated; all mutations killed");
        ExitCode::SUCCESS
    }
}
