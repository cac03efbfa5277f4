//! `throughput` — keyed-keyspace throughput sweep over the sharded engine.
//!
//! Sweeps shard count × object distribution × batching over a ≥1M-key
//! keyspace on the ARBITRARY `1-3-5` tree: every cell runs the same
//! closed-loop multi-object transaction workload and reports sustained
//! committed operations per simulated second plus *message efficiency*
//! (committed ops per network message). The machine-readable baseline goes
//! to `BENCH_throughput.json`.
//!
//! What the sweep is measuring:
//!
//! * **Shards** — independent protocol instances the keyspace hashes
//!   across. Locks are per object and shards do not change quorum sizes,
//!   so ops/sec per *simulated* second mainly moves with contention, and
//!   wall-clock throughput with engine work.
//! * **Distribution** — `uniform` vs `zipfian(1.0)`: skew concentrates
//!   traffic on hot keys (and therefore hot shards).
//! * **Batching** — same-destination payloads issued in one scheduling
//!   instant coalesce into one envelope, and reads gather all targets in a
//!   single parallel round; the tree root sits in every read quorum, so
//!   multi-object transactions coalesce heavily there.
//!
//! Usage: `throughput [--smoke] [--keys <n>] [--duration <ms>]
//! [--clients <n>] [--out <path>]` (defaults: 1 048 576 keys, 400 ms,
//! 16 clients; `--smoke` shrinks to 65 536 keys / 60 ms / 8 clients for CI
//! but still writes the JSON).
//!
//! Exit status is nonzero on any one-copy violation, or when batching
//! fails its message-efficiency bar at the largest shard count (≥2× the
//! unbatched ops-per-message in the full sweep).

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_bench::report::{json_str, BenchReport, BenchRow};
use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::ReplicaControl;
use arbitree_sim::{cell_seed, ObjectDistribution, SimConfig, SimDuration, SimReport, Simulation};
// arbitree-lint: allow(D002) — wall-clock timing of the bench harness itself, not simulated time
use std::time::Instant;

/// Tree spec every cell runs on (9 physical sites, root on every read path).
const SPEC: &str = "1-3-5";
/// Shard counts swept, ascending; the last one anchors the efficiency gate.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// One cell of the sweep and its measured outcome.
struct Outcome {
    shards: usize,
    dist_name: &'static str,
    batching: bool,
    seed: u64,
    /// Wall time of `Simulation::from_shards`.
    setup_ms: f64,
    wall_ms: f64,
    report: SimReport,
}

impl Outcome {
    fn label(&self) -> String {
        format!(
            "s={:<2} {:7} {}",
            self.shards,
            self.dist_name,
            if self.batching { "batch" } else { "plain" }
        )
    }

    /// Committed operations (reads + writes that returned to a client).
    fn ops(&self) -> u64 {
        self.report.metrics.ops_ok()
    }

    /// Committed ops per network message — the efficiency the batching
    /// layer is supposed to buy.
    fn ops_per_message(&self) -> f64 {
        let msgs = self.report.metrics.messages_sent.max(1);
        self.ops() as f64 / msgs as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let keys =
        arg_value(&args, "--keys").unwrap_or(if smoke { 65_536.0 } else { 1_048_576.0 }) as usize;
    let duration_ms =
        arg_value(&args, "--duration").unwrap_or(if smoke { 60.0 } else { 400.0 }) as u64;
    let clients = arg_value(&args, "--clients").unwrap_or(if smoke { 8.0 } else { 16.0 }) as usize;
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_throughput.json", String::as_str);

    let duration = SimDuration::from_millis(duration_ms);
    let dists: [(&str, ObjectDistribution); 2] = [
        ("uniform", ObjectDistribution::Uniform),
        ("zipfian", ObjectDistribution::Zipfian { exponent: 1.0 }),
    ];

    println!(
        "Throughput sweep: tree {SPEC}, {keys} keys, {clients} clients, {duration_ms} ms \
         simulated per cell, shards {SHARD_COUNTS:?} x {{uniform, zipfian(1.0)}} x \
         {{plain, batch}}{}",
        if smoke { " [smoke]" } else { "" }
    );

    // Cells run sequentially so each wall-clock figure is unperturbed by
    // sibling cells competing for cores.
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut idx = 0u64;
    for &shards in &SHARD_COUNTS {
        for (dist_name, dist) in dists {
            for batching in [false, true] {
                let seed = cell_seed(0x7B40_0B47, idx);
                idx += 1;
                let config = SimConfig {
                    seed,
                    clients,
                    objects: keys,
                    duration,
                    think_time: SimDuration::from_micros(300),
                    read_fraction: 0.5,
                    max_txn_ops: 16,
                    shards,
                    batching,
                    object_distribution: dist,
                    ..SimConfig::default()
                };
                let protocols: Vec<Box<dyn ReplicaControl>> = (0..shards)
                    .map(|_| {
                        Box::new(ArbitraryProtocol::parse(SPEC).expect("valid tree spec"))
                            as Box<dyn ReplicaControl>
                    })
                    .collect();
                // arbitree-lint: allow(D002) — wall-clock timing of the bench harness itself
                let t0 = Instant::now();
                let mut sim = Simulation::from_shards(config, protocols);
                let built = t0.elapsed();
                let report = sim.run();
                let setup_ms = built.as_secs_f64() * 1_000.0;
                let wall_ms = (t0.elapsed() - built).as_secs_f64() * 1_000.0;
                outcomes.push(Outcome {
                    shards,
                    dist_name,
                    batching,
                    seed,
                    setup_ms,
                    wall_ms,
                    report,
                });
            }
        }
    }

    let sim_secs = duration_ms as f64 / 1_000.0;
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let m = &o.report.metrics;
            vec![
                o.label(),
                m.txns_ok.to_string(),
                o.ops().to_string(),
                fmt_f(o.ops() as f64 / sim_secs),
                m.messages_sent.to_string(),
                m.batches_sent.to_string(),
                fmt_f(o.ops_per_message()),
                fmt_f(o.setup_ms),
                fmt_f(o.wall_ms),
                if o.report.consistent {
                    "ok"
                } else {
                    "VIOLATED"
                }
                .to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "cell", "txns", "ops", "ops/sec", "msgs", "batches", "ops/msg", "setup ms",
                "wall ms", "1SR",
            ],
            &rows
        )
    );
    println!(
        "(ops/sec = committed ops per simulated second; ops/msg = per network message; \
         setup ms = wall time of Simulation::from_shards)"
    );

    // Efficiency gate: at the largest shard count, batching must deliver
    // at least `bar`x the unbatched ops-per-message for every distribution.
    let max_shards = SHARD_COUNTS[SHARD_COUNTS.len() - 1];
    let bar = if smoke { 1.0 } else { 2.0 };
    let mut gains: Vec<(&str, f64)> = Vec::new();
    let mut gate_failed = false;
    for (dist_name, _) in dists {
        let eff = |batching: bool| {
            outcomes
                .iter()
                .find(|o| {
                    o.shards == max_shards && o.dist_name == dist_name && o.batching == batching
                })
                .map_or(0.0, Outcome::ops_per_message)
        };
        let (off, on) = (eff(false), eff(true));
        let gain = if off > 0.0 { on / off } else { 0.0 };
        println!(
            "batching gain @ {max_shards} shards, {dist_name}: {} -> {} ops/msg ({}x, bar {}x)",
            fmt_f(off),
            fmt_f(on),
            fmt_f(gain),
            fmt_f(bar)
        );
        if gain < bar {
            gate_failed = true;
        }
        gains.push((dist_name, gain));
    }

    let json = render_json(
        smoke,
        keys,
        clients,
        duration_ms,
        max_shards,
        &outcomes,
        &gains,
    );
    std::fs::write(out_path, json).expect("write BENCH_throughput.json");
    println!("wrote {out_path}");

    let violations: usize = outcomes.iter().map(|o| o.report.violations).sum();
    let inconsistent = outcomes.iter().filter(|o| !o.report.consistent).count();
    if violations > 0 || inconsistent > 0 {
        println!("FAIL: {violations} violations across {inconsistent} inconsistent cells");
        std::process::exit(1);
    }
    if gate_failed {
        println!("FAIL: batching below its {bar}x message-efficiency bar at {max_shards} shards");
        std::process::exit(1);
    }
    println!("OK: zero one-copy violations; batching clears its efficiency bar");
}

/// Machine-readable report in the shared `arbitree-bench-report/v1`
/// envelope: one row per sweep cell, headline `ops_per_sec` in simulated
/// seconds, the batching-efficiency gains as a summary key.
fn render_json(
    smoke: bool,
    keys: usize,
    clients: usize,
    duration_ms: u64,
    max_shards: usize,
    outcomes: &[Outcome],
    gains: &[(&str, f64)],
) -> String {
    let sim_secs = duration_ms as f64 / 1_000.0;
    let mut report = BenchReport::new("throughput")
        .config("tree", json_str(SPEC))
        .config("smoke", smoke)
        .config("keys", keys)
        .config("clients", clients)
        .config("duration_ms", duration_ms)
        .config("read_fraction", 0.5)
        .config("max_txn_ops", 16);
    for o in outcomes {
        let m = &o.report.metrics;
        report = report.row(
            BenchRow::rate(o.label().trim(), o.ops() as f64 / sim_secs)
                .field("shards", o.shards)
                .field("distribution", json_str(o.dist_name))
                .field("batching", o.batching)
                .field("seed", o.seed)
                .field("txns_ok", m.txns_ok)
                .field("ops_ok", o.ops())
                .field(
                    "ops_per_wall_sec",
                    format!("{:.1}", o.ops() as f64 / (o.wall_ms / 1_000.0).max(1e-9)),
                )
                .field("messages_sent", m.messages_sent)
                .field("batches_sent", m.batches_sent)
                .field("batched_payloads", m.batched_payloads)
                .field("ops_per_message", format!("{:.4}", o.ops_per_message()))
                .field("setup_ms", format!("{:.3}", o.setup_ms))
                .field("wall_ms", format!("{:.1}", o.wall_ms))
                .field("violations", o.report.violations)
                .field("consistent", o.report.consistent),
        );
    }
    let mut gain_obj = String::from("{");
    for (i, (dist_name, gain)) in gains.iter().enumerate() {
        gain_obj.push_str(&format!(
            "{}{}: {gain:.3}",
            if i == 0 { "" } else { ", " },
            json_str(dist_name)
        ));
    }
    gain_obj.push('}');
    report
        .summary(&format!("efficiency_gain_at_{max_shards}_shards"), gain_obj)
        .to_json()
}
