//! The `check audit` subcommand: runs the commutativity oracle over the
//! unmutated independence relation, the relation-mutation kill matrix,
//! and the fingerprint collision audit, printing the tables
//! EXPERIMENTS.md records and optionally writing a JSON report for CI
//! artifacts.

use arbitree_check::{
    audit_scenario, explore, relation_kill_all, AuditBudget, AuditOutcome, Budget, Scenario,
};
use std::fmt::Write as _;
use std::process::ExitCode;
// arbitree-lint: allow(D002) — wall-clock timing of the audit itself, not simulated time
use std::time::Instant;

/// One oracle row, kept for the JSON report.
struct OracleRow {
    scenario: &'static str,
    tier: &'static str,
    depth: usize,
    outcome: AuditOutcome,
    secs: f64,
}

fn print_oracle_row(row: &OracleRow) {
    let o = &row.outcome;
    println!(
        "{:<22} {:<10} {:>5} {:>8} {:>9} {:>8} {:>9} {:>10} {:>10} {:>6.1}",
        row.scenario,
        row.tier,
        row.depth,
        o.stats.states,
        o.stats.schedules,
        o.stats.pairs_checked,
        o.stats.pairs_skipped,
        o.mismatches.len(),
        if o.complete { "drained" } else { "sampled" },
        row.secs
    );
    for m in &o.mismatches {
        println!("  MISMATCH [{}]: {}", m.kind, m.detail);
        println!("    pair: {}", m.pair.0);
        println!("          {}", m.pair.1);
        for line in &m.schedule {
            println!("    {line}");
        }
    }
}

/// JSON string escape (the report contains event descriptions only, but
/// quote/backslash handling must still be correct).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs the audit; `json` is an optional path for the machine-readable
/// report.
pub fn run(smoke: bool, json: Option<&str>) -> ExitCode {
    let mut failed = false;

    // 1. Commutativity oracle, unmutated relation. Exhaustive tier drains
    // at the audit depth (the walk is unreduced, so these depths sit
    // below the explorer's); bounded tier is sampled at the recorded
    // budget.
    println!("== commutativity oracle (unmutated independence relation) ==");
    println!(
        "{:<22} {:<10} {:>5} {:>8} {:>9} {:>8} {:>9} {:>10} {:>10} {:>6}",
        "scenario",
        "tier",
        "depth",
        "states",
        "schedules",
        "pairs",
        "skipped",
        "mismatches",
        "coverage",
        "secs"
    );
    let mut oracle_rows: Vec<OracleRow> = Vec::new();
    let exhaustive_depth = if smoke { 8 } else { 10 };
    for scenario in Scenario::exhaustive() {
        // arbitree-lint: allow(D002) — wall-clock timing of the audit itself
        let t0 = Instant::now();
        let outcome = audit_scenario(
            &scenario,
            None,
            AuditBudget::exhaustive(exhaustive_depth),
            false,
        );
        let row = OracleRow {
            scenario: scenario.name,
            tier: "exhaustive",
            depth: exhaustive_depth,
            outcome,
            secs: t0.elapsed().as_secs_f64(),
        };
        print_oracle_row(&row);
        if !row.outcome.complete {
            failed = true;
            println!("  FAILED: exhaustive-tier audit hit a budget");
        }
        failed |= !row.outcome.mismatches.is_empty();
        oracle_rows.push(row);
    }
    let sampled = AuditBudget::sampled(smoke);
    for scenario in Scenario::bounded() {
        // arbitree-lint: allow(D002) — wall-clock timing of the audit itself
        let t0 = Instant::now();
        let outcome = audit_scenario(&scenario, None, sampled, false);
        let row = OracleRow {
            scenario: scenario.name,
            tier: "bounded",
            depth: sampled.max_depth,
            outcome,
            secs: t0.elapsed().as_secs_f64(),
        };
        print_oracle_row(&row);
        failed |= !row.outcome.mismatches.is_empty();
        oracle_rows.push(row);
    }

    // 2. Relation-mutation kill matrix: the oracle must refute every
    // seeded over-coarsening of the independence relation.
    println!();
    println!("== independence-relation mutation kills ==");
    println!(
        "{:<24} {:<16} {:>7} {:>17} {:>8} {:>10}",
        "relation mutation", "scenario", "killed", "kind", "pairs", "schedules"
    );
    let kills = relation_kill_all(usize::MAX);
    for r in &kills {
        println!(
            "{:<24} {:<16} {:>7} {:>17} {:>8} {:>10}",
            r.mutation.name(),
            r.scenario,
            if r.killed { "yes" } else { "NO" },
            r.mismatch.as_ref().map_or("-", |m| m.kind.as_str()),
            r.pairs_checked,
            r.schedules
        );
        match &r.mismatch {
            Some(m) => {
                println!("  detail: {}", m.detail);
                println!("  replayable trace (final two steps are the refuted pair):");
                for line in &m.schedule {
                    println!("    {line}");
                }
            }
            None => {
                failed = true;
                println!("  SURVIVED — the oracle found no refutation within budget");
            }
        }
    }

    // 3. Fingerprint collision audit: how many distinct states
    // share a 64-bit fingerprint (from the oracle walks above), plus the
    // explorer itself re-run with its visited set on the 128-bit lane —
    // identical state/schedule counts mean no narrow-lane merge ever
    // changed what the explorer saw.
    println!();
    println!("== fingerprint collision audit ==");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "scenario", "states", "fp64", "collisions", "rate"
    );
    for row in &oracle_rows {
        let s = &row.outcome.stats;
        println!(
            "{:<22} {:>10} {:>12} {:>12} {:>12}",
            row.scenario,
            s.states,
            s.fp64_distinct,
            s.fp_collisions,
            format!("{:.2e}", s.fp_collisions as f64 / (s.states.max(1)) as f64),
        );
    }
    let mut wide_rows = Vec::new();
    for scenario in Scenario::exhaustive() {
        let depth = if smoke {
            scenario.smoke_depth
        } else {
            scenario.full_depth
        };
        let budget = if smoke {
            Budget::smoke()
        } else {
            Budget::full()
        }
        .with_depth(depth);
        let narrow = explore(&scenario, None, budget);
        let wide = explore(&scenario, None, budget.wide());
        let agree = narrow.stats.states == wide.stats.states
            && narrow.stats.schedules == wide.stats.schedules;
        println!(
            "explorer 64- vs 128-bit visited set on {}: states {} vs {}, schedules {} vs {} — {}",
            scenario.name,
            narrow.stats.states,
            wide.stats.states,
            narrow.stats.schedules,
            wide.stats.schedules,
            if agree { "identical" } else { "DIVERGED" }
        );
        if !agree {
            failed = true;
        }
        wide_rows.push((scenario.name, narrow.stats, wide.stats, agree));
    }

    if let Some(path) = json {
        let mut out = String::from("{\n  \"oracle\": [\n");
        for (i, row) in oracle_rows.iter().enumerate() {
            let s = &row.outcome.stats;
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"tier\": \"{}\", \"depth\": {}, \"states\": {}, \
                 \"schedules\": {}, \"pairs_checked\": {}, \"pairs_skipped\": {}, \
                 \"mismatches\": {}, \"complete\": {}, \"fp64_distinct\": {}, \
                 \"fp_collisions\": {}, \"secs\": {:.2}}}{}",
                esc(row.scenario),
                row.tier,
                row.depth,
                s.states,
                s.schedules,
                s.pairs_checked,
                s.pairs_skipped,
                row.outcome.mismatches.len(),
                row.outcome.complete,
                s.fp64_distinct,
                s.fp_collisions,
                row.secs,
                if i + 1 < oracle_rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"kills\": [\n");
        for (i, r) in kills.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"mutation\": \"{}\", \"scenario\": \"{}\", \"killed\": {}, \
                 \"kind\": {}, \"pairs_checked\": {}, \"schedules\": {}, \"trace\": {}}}{}",
                r.mutation.name(),
                esc(r.scenario),
                r.killed,
                r.mismatch
                    .as_ref()
                    .map_or("null".to_string(), |m| format!("\"{}\"", esc(&m.kind))),
                r.pairs_checked,
                r.schedules,
                r.mismatch.as_ref().map_or("null".to_string(), |m| {
                    let lines: Vec<String> = m
                        .schedule
                        .iter()
                        .map(|l| format!("\"{}\"", esc(l)))
                        .collect();
                    format!("[{}]", lines.join(", "))
                }),
                if i + 1 < kills.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"wide_explorer\": [\n");
        for (i, (name, narrow, wide, agree)) in wide_rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"narrow_states\": {}, \"wide_states\": {}, \
                 \"narrow_schedules\": {}, \"wide_schedules\": {}, \"identical\": {}}}{}",
                esc(name),
                narrow.states,
                wide.states,
                narrow.schedules,
                wide.schedules,
                agree,
                if i + 1 < wide_rows.len() { "," } else { "" }
            );
        }
        let _ = write!(out, "  ],\n  \"ok\": {}\n}}\n", !failed);
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("failed to write JSON report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("JSON report written to {path}");
    }

    if failed {
        println!();
        println!("FAILED: oracle mismatch on the real relation, incomplete exhaustive audit, or a relation mutation survived");
        ExitCode::FAILURE
    } else {
        println!();
        println!("ok: zero oracle mismatches on the real relation; all relation mutations killed");
        ExitCode::SUCCESS
    }
}
