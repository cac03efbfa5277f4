//! `repair` — anti-entropy reconciliation cost sweep over the range-hash
//! tree.
//!
//! Drives the `arbitree-sync` protocol directly (in memory, no simulator:
//! the curve under test is a property of the tree and the probe protocol,
//! not of the network schedule) between a healthy source replica and a
//! partially-diverged rejoiner, sweeping the divergence size `d` over a
//! fixed `n`-key store. Each cell counts protocol messages (probes,
//! responses, fills), reconciliation rounds, and keys transferred, against
//! a full-state-transfer baseline of one message per stored key plus the
//! initiating request.
//!
//! The store scatters its `n` keys evenly across the whole `u32` key
//! space (stride `2^32 / n`), the layout an object-id hash produces, and
//! the divergent set is evenly spaced within the store — the adversarial
//! placement for range pruning, since clustered losses share probe paths
//! and cost strictly less. The claim under test: messages grow as
//! `O(d · log n)`, so the log-log fit of messages against `d` must have
//! slope ≈ 1 (the `log n` factor bends only the saturated small-`d` end),
//! and repair must beat full transfer by a wide margin at small `d`.
//!
//! The source fills any divergent range holding at most 16 of its keys,
//! so on this stride layout the descent stops at depth 4 (2^16-key ranges,
//! 16 store keys each at `n = 2^20`): the committed full sweep reads
//! messages ~ d^0.848, 225.9× cheaper than full transfer at `d = 1024`,
//! in 5 rounds at every `d`.
//!
//! Usage: `repair [--smoke] [--keys <n>] [--out <path>]` (defaults:
//! `n = 2^20`, `d ∈ {2^4 … 2^14}`; `--smoke` shrinks to `n = 2^16`,
//! `d ∈ {2^4 … 2^10}` for CI but still writes the JSON).
//!
//! Exit status is nonzero when any cell fails to converge to the source
//! store, when the fitted exponent leaves `[0.8, 1.2]`, or when repair at
//! `d = 2^10` (`2^8` in smoke) is not at least 10x (1x in smoke) cheaper
//! than the full-transfer baseline.

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_bench::report::{BenchReport, BenchRow};
use arbitree_sync::{item_hash, respond, HTree, Response, Session};

/// Per-probe window: every pending range goes into flight at once, so one
/// `take_requests` drain is one network round and rounds track tree depth.
const WINDOW: usize = usize::MAX;
/// Round-trip estimate used for the latency column: the simulator's fixed
/// 100 us one-way latency, both directions.
const RTT_MICROS: u64 = 200;

/// One sweep cell: reconciliation cost at divergence size `d`.
struct Outcome {
    d: u64,
    messages: u64,
    rounds: u64,
    keys_transferred: u64,
}

impl Outcome {
    /// Estimated rejoin latency: pipelined probes pay one RTT per round.
    /// An estimate, not a measurement — the chaos campaign measures the
    /// real thing under load.
    fn est_latency_micros(&self) -> u64 {
        self.rounds * RTT_MICROS
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let n = arg_value(&args, "--keys").unwrap_or(if smoke { 65_536.0 } else { 1_048_576.0 }) as u64;
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_repair.json", String::as_str);
    assert!(n.is_power_of_two() && n <= 1 << 26, "keys: power of two");

    let d_max_log2 = if smoke { 10 } else { 14 };
    let ds: Vec<u64> = (4..=d_max_log2).map(|e| 1u64 << e).collect();
    // Full transfer ships every stored key (one message each) after one
    // request announcing the rejoin.
    let full_transfer = n + 1;
    // The improvement gate anchors below the sweep's top end, where
    // pruning still matters: d = 2^10 full, 2^8 smoke.
    let gate_d = if smoke { 1u64 << 8 } else { 1u64 << 10 };
    let gate_bar = if smoke { 1.0 } else { 10.0 };

    println!(
        "Repair sweep: {n}-key store scattered over the u32 key space, \
         d in 2^4..2^{d_max_log2}, full-transfer baseline {full_transfer} messages{}",
        if smoke { " [smoke]" } else { "" }
    );

    let stride = (1u64 << 32) / n;
    let src = build_store(n, stride);
    let outcomes: Vec<Outcome> = ds.iter().map(|&d| run_cell(&src, n, stride, d)).collect();

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.d.to_string(),
                o.messages.to_string(),
                o.rounds.to_string(),
                o.keys_transferred.to_string(),
                fmt_f(full_transfer as f64 / o.messages as f64),
                fmt_f(o.est_latency_micros() as f64 / 1_000.0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["d", "msgs", "rounds", "keys", "vs-full", "est ms",],
            &rows
        )
    );
    println!(
        "(vs-full = full-transfer messages / repair messages; \
         est ms = rounds x {RTT_MICROS} us RTT, an estimate)"
    );

    // Log-log least-squares fit of messages against d: the claimed
    // O(d log n) cost must show up as slope ~ 1 in d.
    let exponent = fit_exponent(&outcomes);
    let gate_cell = outcomes
        .iter()
        .find(|o| o.d == gate_d)
        .expect("gate divergence is in the sweep");
    let improvement = full_transfer as f64 / gate_cell.messages as f64;
    println!(
        "fit: messages ~ d^{} (bar [0.8, 1.2]); at d={gate_d}: {}x cheaper \
         than full transfer (bar {}x)",
        fmt_f(exponent),
        fmt_f(improvement),
        fmt_f(gate_bar)
    );

    let json = render_json(
        smoke,
        n,
        full_transfer,
        exponent,
        gate_d,
        improvement,
        &outcomes,
    );
    std::fs::write(out_path, json).expect("write BENCH_repair.json");
    println!("wrote {out_path}");

    if !(0.8..=1.2).contains(&exponent) {
        println!(
            "FAIL: fitted exponent {} outside [0.8, 1.2]",
            fmt_f(exponent)
        );
        std::process::exit(1);
    }
    if improvement < gate_bar {
        println!(
            "FAIL: repair at d={gate_d} only {}x cheaper than full transfer",
            fmt_f(improvement)
        );
        std::process::exit(1);
    }
    println!("OK: exponent within [0.8, 1.2]; repair clears its {gate_bar}x bar at d={gate_d}");
}

/// A store of `n` keys at the given stride, each with a distinct value
/// hash (key-derived version/value so divergence is per-item detectable).
fn build_store(n: u64, stride: u64) -> HTree {
    let mut t = HTree::new();
    for i in 0..n {
        // Stride layout: key i * (2^32 / n) fits u32 by construction.
        // arbitree-lint: allow(D004) — i * stride < 2^32 for i < n
        let key = (i * stride) as u32;
        t.insert(key, item_hash(key, 1, 0, &key.to_le_bytes()));
    }
    t
}

/// Reconciles a rejoiner missing `d` evenly-spaced keys against `src`,
/// counting messages and rounds, and asserts it converges exactly.
fn run_cell(src: &HTree, n: u64, stride: u64, d: u64) -> Outcome {
    let mut dst = src.clone();
    let gap = n / d;
    for j in 0..d {
        // Offset into the middle of each gap so neither store edge is hit.
        // arbitree-lint: allow(D004) — store keys fit u32 by construction
        let key = ((j * gap + gap / 2) * stride) as u32;
        assert!(dst.remove(key), "divergent key must exist in the store");
    }

    let mut session = Session::new();
    let mut messages = 0u64;
    let mut rounds = 0u64;
    let mut keys_transferred = 0u64;
    let mut reqs = Vec::new();
    while !session.is_done() {
        session.take_requests(&dst, WINDOW, &mut reqs);
        assert!(!reqs.is_empty(), "session stuck with work pending");
        rounds += 1;
        for &(range, digest) in &reqs {
            messages += 2; // probe + response
            let resp = respond(src, range, digest);
            if resp == Response::Fill {
                for k in src.range_keys(range) {
                    if dst.item(k) != src.item(k) {
                        keys_transferred += 1;
                        dst.insert(k, src.item(k).expect("responder holds key"));
                    }
                }
            }
            assert!(session.on_response(&dst, range, &resp));
        }
    }
    assert!(dst == *src, "reconciliation must converge exactly");
    // The requester only probes ranges it already knows diverge (children
    // are compared locally), so every probe below the root draws real work
    // — pruning shows up as the probes *not* sent, i.e. the gap to the
    // full-transfer baseline, not as `Match` responses.
    assert_eq!(session.stats.matches, 0, "no probe should be wasted");
    Outcome {
        d,
        messages,
        rounds,
        keys_transferred,
    }
}

/// Least-squares slope of `log2(messages)` against `log2(d)`.
fn fit_exponent(outcomes: &[Outcome]) -> f64 {
    let pts: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| ((o.d as f64).log2(), (o.messages as f64).log2()))
        .collect();
    let k = pts.len() as f64;
    let mean_x = pts.iter().map(|p| p.0).sum::<f64>() / k;
    let mean_y = pts.iter().map(|p| p.1).sum::<f64>() / k;
    let num: f64 = pts.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let den: f64 = pts.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    num / den
}

/// Machine-readable report in the shared `arbitree-bench-report/v1`
/// envelope: one row per divergence size (a cost sweep, so no headline
/// rate), fit and gate results as summary keys.
fn render_json(
    smoke: bool,
    n: u64,
    full_transfer: u64,
    exponent: f64,
    gate_d: u64,
    improvement: f64,
    outcomes: &[Outcome],
) -> String {
    let mut report = BenchReport::new("repair")
        .config("smoke", smoke)
        .config("keys", n)
        .config("full_transfer_messages", full_transfer)
        .config("rtt_micros", RTT_MICROS);
    for o in outcomes {
        report = report.row(
            BenchRow::plain(format!("d={}", o.d))
                .field("divergence", o.d)
                .field("messages", o.messages)
                .field("rounds", o.rounds)
                .field("keys_transferred", o.keys_transferred)
                .field(
                    "improvement_vs_full",
                    format!("{:.1}", full_transfer as f64 / o.messages as f64),
                )
                .field("est_latency_micros", o.est_latency_micros()),
        );
    }
    report
        .summary("fit_exponent", format!("{exponent:.3}"))
        .summary("gate_divergence", gate_d)
        .summary("gate_improvement", format!("{improvement:.1}"))
        .to_json()
}
