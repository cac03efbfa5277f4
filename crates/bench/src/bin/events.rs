//! `events` — raw event-engine throughput: the events/sec trajectory of
//! the discrete-event hot path (requires `--features reference-queue`).
//!
//! Two tiers, both fully deterministic in their workloads:
//!
//! * **Queue tier** — the classic *hold model* (constant pending set:
//!   pop-earliest, schedule a replacement) drives the production calendar
//!   queue and the pre-swap `BTreeQueue` baseline through the identical
//!   event sequence at pending-set sizes {7, 31, 127, 1023} × write-mix
//!   {10%, 50%, 90%}, plus one *bimodal* cell at 1023 pending shaped like
//!   `hot-churn`: half near traffic (a fixed 300 µs hop or a delay up to
//!   4 ms) and half a far tail of crashes spread over 5 s. The pop-order
//!   checksums must agree exactly (the queues are observationally
//!   identical; `crates/sim/tests/replay.rs` proves it, this re-checks it
//!   for free), and the headline **speedup gate** — calendar ≥ 3× the
//!   baseline (1× in smoke, where shared CI runners make timing
//!   unreliable) on every cell at the largest pending set, bimodal
//!   included — anchors where the old `O(log n)` node churn hurt most.
//!   A cell's speedup is the median of per-pair ratios over alternating
//!   calendar/baseline runs, so a burst of host load lands on both sides
//!   of a pair instead of skewing one engine's best time.
//! * **Simulation tier** — whole-simulator events/sec over binary trees of
//!   7, 31 and 127 sites × read fractions {0.1, 0.5, 0.9}: every layer
//!   (queue, slab, outbox pooling, copy-free payload fan-out) in one
//!   number. Events are counted by a wrapping scheduler, so the figure is
//!   exact, not estimated. The tier also prices
//!   the model checker's per-state work on one mid-run `1-3-5` state:
//!   ns per call of the state fingerprint, and the wall time of a
//!   `ReplayScheduler` run over the seeded run whose schedule it replays.
//!
//! Usage: `events [--smoke] [--steps <n>] [--out <path>]` (defaults:
//! 2 000 000 hold steps per queue cell, 200 ms simulated per sim cell;
//! `--smoke` shrinks to 200 000 steps / 40 ms for CI but still writes the
//! JSON). The machine-readable trajectory goes to `BENCH_events.json` in
//! the shared `arbitree-bench-report/v1` envelope.
//!
//! Exit status is nonzero on a checksum mismatch between the two queues,
//! or when the calendar queue misses its speedup bar at 1023 pending.

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_bench::events_driver::{bimodal_hold_model, hold_model};
use arbitree_bench::report::{json_str, BenchReport, BenchRow};
use arbitree_core::ArbitraryProtocol;
use arbitree_sim::{
    BTreeQueue, EventKey, EventQueue, ReplayScheduler, Scheduler, SeededScheduler, SimConfig,
    SimDuration, Simulation,
};
use std::hint::black_box;
// arbitree-lint: allow(D002) — wall-clock timing of the bench harness itself, not simulated time
use std::time::Instant;

/// Pending-set sizes swept by the hold model; the last anchors the gate.
const PENDING: [usize; 4] = [7, 31, 127, 1023];
/// The pending-set size whose cells the speedup gate covers.
const GATE_PENDING: usize = PENDING[PENDING.len() - 1];
/// Write-path share of scheduled events, in permille.
const WRITE_MIX: [u64; 3] = [100, 500, 900];
/// Write mix of the bimodal cell (which runs at the gate's pending size).
const BIMODAL_WRITE_MIX: u64 = 500;
/// Hold-model delay horizon: 4.1 ms spans dozens of calendar days
/// (64 us each), so the sweep crosses bucket hits, overflow inserts, and
/// window rotations.
const HORIZON_MICROS: u64 = 4_096;
/// Simulation tier: full binary trees of 7, 31, and 127 physical sites.
const SIM_SPECS: [(&str, usize); 3] = [("1-2-4", 7), ("1-2-4-8-16", 31), ("1-2-4-8-16-32-64", 127)];
/// Read fractions swept in the simulation tier.
const READ_FRACTIONS: [f64; 3] = [0.1, 0.5, 0.9];
/// Seeded steps that park the audit-cost simulation in its mid-run state.
const AUDIT_STEPS: usize = 500;
/// Runs per timed batch on each side of a replay/seeded pair.
const REPLAY_RUNS: u32 = 10;

/// A hold-model driver: `(seed, pending, steps, horizon, write_permille)`
/// to `(events, checksum)`.
type Driver = fn(u64, usize, u64, u64, u64) -> (u64, u64);

/// One queue-tier cell: both engines' rates over the identical sequence,
/// as medians over alternating pairs, and the per-pair speedups.
struct QueueCell {
    model: &'static str,
    pending: usize,
    write_permille: u64,
    calendar_eps: f64,
    btree_eps: f64,
    /// Per-pair `calendar / btree` ratios, sorted.
    ratios: Vec<f64>,
    checksums_agree: bool,
}

impl QueueCell {
    /// The median per-pair ratio.
    fn speedup(&self) -> f64 {
        median(&self.ratios)
    }
}

/// Median of an ascending slice (0 when empty).
fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `min-max` of an ascending slice of pair ratios.
fn pair_range(sorted: &[f64]) -> String {
    format!(
        "{}-{}",
        fmt_f(sorted.first().copied().unwrap_or(0.0)),
        fmt_f(sorted.last().copied().unwrap_or(0.0))
    )
}

/// Times `pairs` alternating calendar/baseline runs of one cell, after an
/// untimed warm-up of each (first-touch and allocator costs). Every run
/// must reproduce its engine's checksum.
fn time_cell(
    model: &'static str,
    calendar: Driver,
    btree: Driver,
    pending: usize,
    write_permille: u64,
    steps: u64,
    pairs: usize,
) -> QueueCell {
    let seed = 0xE7E2_0000 ^ ((pending as u64) << 16) ^ write_permille;
    let run = |driver: Driver| {
        // arbitree-lint: allow(D002) — wall-clock timing of the bench itself
        let t0 = Instant::now();
        let (n, sum) = driver(seed, pending, steps, HORIZON_MICROS, write_permille);
        (n as f64 / t0.elapsed().as_secs_f64().max(1e-9), sum)
    };
    let (_, sum_cal) = run(calendar);
    let (_, sum_bt) = run(btree);
    let (mut cal, mut bt, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let (c, c_sum) = run(calendar);
        let (b, b_sum) = run(btree);
        assert!(
            c_sum == sum_cal && b_sum == sum_bt,
            "nondeterministic hold model"
        );
        cal.push(c);
        bt.push(b);
        ratios.push(if b > 0.0 { c / b } else { 0.0 });
    }
    for v in [&mut cal, &mut bt, &mut ratios] {
        v.sort_by(f64::total_cmp);
    }
    QueueCell {
        model,
        pending,
        write_permille,
        calendar_eps: median(&cal),
        btree_eps: median(&bt),
        ratios,
        checksums_agree: sum_cal == sum_bt,
    }
}

/// One simulation-tier cell.
struct SimCell {
    spec: &'static str,
    sites: usize,
    read_fraction: f64,
    events: u64,
    wall_ms: f64,
    ops_ok: u64,
    consistent: bool,
}

impl SimCell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1_000.0).max(1e-9)
    }
}

/// Counts how many events the seeded policy fires.
struct CountingScheduler {
    events: u64,
}

impl Scheduler for CountingScheduler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let key = sim.engine().queue().next_key();
        if key.is_some() {
            self.events += 1;
        }
        key
    }
}

/// The seeded policy, stopped after `left` steps, recording the keys it
/// fires: parks a simulation in a mid-run state (staged writes, in-flight
/// quorum rounds, pending timers) and yields the schedule that reached it.
struct Capped {
    left: usize,
    keys: Vec<EventKey>,
}

impl Scheduler for Capped {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = SeededScheduler.select(sim)?;
        self.keys.push(key);
        Some(key)
    }
}

/// The model checker's per-state costs on one mid-run state.
struct AuditCost {
    /// Median ns per call of `Simulation::fingerprint`.
    fingerprint_ns: f64,
    /// Per-pair `replay / seeded` wall-time ratios, sorted.
    replay_ratios: Vec<f64>,
}

/// A fresh audit-cost simulation: `1-3-5`, 4 clients on 4 objects.
fn audit_sim() -> Simulation {
    let config = SimConfig {
        seed: 7,
        clients: 4,
        objects: 4,
        duration: SimDuration::from_millis(50),
        ..SimConfig::default()
    };
    Simulation::new(
        config,
        ArbitraryProtocol::parse("1-3-5").expect("valid tree spec"),
    )
}

/// Median ns per call of `f` over `samples` timed batches of `calls`.
fn ns_per_call<T>(samples: usize, calls: u32, f: impl Fn() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            // arbitree-lint: allow(D002) — wall-clock timing of the bench itself
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    median(&ns)
}

/// Times the state fingerprint on the state [`AUDIT_STEPS`] seeded
/// steps in, then `pairs` alternating batches of [`REPLAY_RUNS`] seeded
/// and replayed runs of those steps (construction included: replay always
/// pays it). Every replay must fire the whole schedule and reach the
/// seeded run's fingerprint.
fn audit_cost(samples: usize, calls: u32, pairs: usize) -> AuditCost {
    let seeded = || {
        let mut sim = audit_sim();
        let mut capped = Capped {
            left: AUDIT_STEPS,
            keys: Vec::with_capacity(AUDIT_STEPS),
        };
        sim.run_with(&mut capped);
        (sim, capped.keys)
    };
    let (sim, schedule) = seeded();
    assert_eq!(
        schedule.len(),
        AUDIT_STEPS,
        "seeded run must supply every step"
    );
    let fingerprint_ns = ns_per_call(samples, calls, || sim.fingerprint());
    let seeded_run = || seeded().0.fingerprint();
    let replay_run = || {
        let mut sim = audit_sim();
        let mut replay = ReplayScheduler::new(&schedule);
        sim.run_with(&mut replay);
        assert!(replay.missing().is_none(), "recorded schedule must replay");
        sim.fingerprint()
    };
    assert_eq!(
        replay_run(),
        sim.fingerprint(),
        "replay must reach the seeded state"
    );
    let mut replay_ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let seeded_ns = ns_per_call(1, REPLAY_RUNS, seeded_run);
            ns_per_call(1, REPLAY_RUNS, replay_run) / seeded_ns.max(1e-9)
        })
        .collect();
    replay_ratios.sort_by(f64::total_cmp);
    AuditCost {
        fingerprint_ns,
        replay_ratios,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let steps =
        arg_value(&args, "--steps").unwrap_or(if smoke { 200_000.0 } else { 2_000_000.0 }) as u64;
    let sim_ms = if smoke { 40 } else { 200 };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_events.json", String::as_str);

    println!(
        "Event-engine sweep: hold model {steps} steps x pending {PENDING:?} x write \
         {WRITE_MIX:?} permille; whole-sim {sim_ms} ms x {{7, 31, 127}} sites x read \
         {READ_FRACTIONS:?}{}",
        if smoke { " [smoke]" } else { "" }
    );

    // --- Queue tier -----------------------------------------------------
    let pairs = if smoke { 3 } else { 5 };
    let mut queue_cells: Vec<QueueCell> = Vec::new();
    for &pending in &PENDING {
        for &write_permille in &WRITE_MIX {
            queue_cells.push(time_cell(
                "uniform",
                hold_model::<EventQueue>,
                hold_model::<BTreeQueue>,
                pending,
                write_permille,
                steps,
                pairs,
            ));
        }
    }
    queue_cells.push(time_cell(
        "bimodal",
        bimodal_hold_model::<EventQueue>,
        bimodal_hold_model::<BTreeQueue>,
        GATE_PENDING,
        BIMODAL_WRITE_MIX,
        steps,
        pairs,
    ));

    let rows: Vec<Vec<String>> = queue_cells
        .iter()
        .map(|c| {
            vec![
                c.model.to_string(),
                c.pending.to_string(),
                format!("{}%", c.write_permille / 10),
                fmt_f(c.calendar_eps / 1e6),
                fmt_f(c.btree_eps / 1e6),
                fmt_f(c.speedup()),
                pair_range(&c.ratios),
                if c.checksums_agree { "ok" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "model",
                "pending",
                "writes",
                "cal Mev/s",
                "btree Mev/s",
                "speedup",
                "pair range",
                "order"
            ],
            &rows
        )
    );
    println!(
        "(hold model; Mev/s = million pop+schedule events per wall second, medians of \
         {pairs} alternating pairs; speedup = median per-pair ratio)"
    );

    // --- Simulation tier ------------------------------------------------
    let mut sim_cells: Vec<SimCell> = Vec::new();
    for (spec, sites) in SIM_SPECS {
        for read_fraction in READ_FRACTIONS {
            let config = SimConfig {
                seed: 0xE7E2 ^ (sites as u64) ^ ((read_fraction * 1_000.0) as u64) << 8,
                clients: 8,
                objects: 1_024,
                duration: SimDuration::from_millis(sim_ms),
                think_time: SimDuration::from_micros(300),
                read_fraction,
                ..SimConfig::default()
            };
            let proto = ArbitraryProtocol::parse(spec).expect("valid tree spec");
            let mut sim = Simulation::new(config, proto);
            let mut scheduler = CountingScheduler { events: 0 };
            // arbitree-lint: allow(D002) — wall-clock timing of the bench itself
            let t0 = Instant::now();
            let report = sim.run_with(&mut scheduler);
            let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            sim_cells.push(SimCell {
                spec,
                sites,
                read_fraction,
                events: scheduler.events,
                wall_ms,
                ops_ok: report.metrics.ops_ok(),
                consistent: report.consistent,
            });
        }
    }

    let rows: Vec<Vec<String>> = sim_cells
        .iter()
        .map(|c| {
            vec![
                format!("{} ({} sites)", c.spec, c.sites),
                fmt_f(c.read_fraction),
                c.events.to_string(),
                fmt_f(c.events_per_sec() / 1e6),
                c.ops_ok.to_string(),
                fmt_f(c.wall_ms),
                if c.consistent { "ok" } else { "VIOLATED" }.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["tree", "reads", "events", "Mev/s", "ops", "wall ms", "1SR"],
            &rows
        )
    );
    println!("(whole-simulator events per wall second, every engine layer included)");

    let (samples, calls, replay_pairs) = if smoke { (3, 50, 3) } else { (9, 200, 9) };
    let audit = audit_cost(samples, calls, replay_pairs);
    let rows = vec![
        vec![
            "fingerprint()".to_string(),
            format!("{:.0} ns/call", audit.fingerprint_ns),
            String::new(),
        ],
        vec![
            format!("replay / seeded ({AUDIT_STEPS} steps)"),
            format!("{}x", fmt_f(median(&audit.replay_ratios))),
            pair_range(&audit.replay_ratios),
        ],
    ];
    print!(
        "{}",
        render_table(&["audit cost", "median", "pair range"], &rows)
    );
    println!(
        "(1-3-5 parked after {AUDIT_STEPS} seeded steps; fingerprint: median of {samples} \
         batches of {calls} calls; replay: median of {replay_pairs} alternating pairs of \
         {REPLAY_RUNS}-run batches)"
    );

    // --- Gate -----------------------------------------------------------
    let bar = if smoke { 1.0 } else { 3.0 };
    let gate_speedup = queue_cells
        .iter()
        .filter(|c| c.pending == GATE_PENDING)
        .map(QueueCell::speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "speedup @ {GATE_PENDING} pending (worst cell): {}x (bar {}x, target 10x)",
        fmt_f(gate_speedup),
        fmt_f(bar)
    );

    let json = render_json(
        smoke,
        steps,
        sim_ms,
        gate_speedup,
        &queue_cells,
        &sim_cells,
        &audit,
    );
    std::fs::write(out_path, json).expect("write BENCH_events.json");
    println!("wrote {out_path}");

    if queue_cells.iter().any(|c| !c.checksums_agree) {
        println!("FAIL: calendar and reference queues disagreed on pop order");
        std::process::exit(1);
    }
    if sim_cells.iter().any(|c| !c.consistent) {
        println!("FAIL: one-copy violation in a simulation cell");
        std::process::exit(1);
    }
    if gate_speedup < bar {
        println!("FAIL: calendar queue below its {bar}x bar at {GATE_PENDING} pending");
        std::process::exit(1);
    }
    println!("OK: pop order identical; calendar queue clears its {bar}x bar");
}

/// Machine-readable trajectory in the shared `arbitree-bench-report/v1`
/// envelope: queue-tier rows lead with the calendar events/sec, sim-tier
/// rows with the whole-simulator rate; the gate result rides as summary.
fn render_json(
    smoke: bool,
    steps: u64,
    sim_ms: u64,
    gate_speedup: f64,
    queue_cells: &[QueueCell],
    sim_cells: &[SimCell],
    audit: &AuditCost,
) -> String {
    let mut report = BenchReport::new("events")
        .config("smoke", smoke)
        .config("hold_steps", steps)
        .config("hold_horizon_micros", HORIZON_MICROS)
        .config(
            "hold_pairs",
            queue_cells.first().map_or(0, |c| c.ratios.len()),
        )
        .config("sim_duration_ms", sim_ms);
    for c in queue_cells {
        report = report.row(
            BenchRow::rate(
                match c.model {
                    "uniform" => format!("queue p={} w={}", c.pending, c.write_permille),
                    model => format!("queue {model} p={} w={}", c.pending, c.write_permille),
                },
                c.calendar_eps,
            )
            .field("tier", json_str("queue"))
            .field("model", json_str(c.model))
            .field("pending", c.pending)
            .field("write_permille", c.write_permille)
            .field("btree_ops_per_sec", format!("{:.1}", c.btree_eps))
            .field("speedup", format!("{:.2}", c.speedup()))
            .field(
                "speedup_min",
                format!("{:.2}", c.ratios.first().copied().unwrap_or(0.0)),
            )
            .field(
                "speedup_max",
                format!("{:.2}", c.ratios.last().copied().unwrap_or(0.0)),
            )
            .field("order_identical", c.checksums_agree),
        );
    }
    for c in sim_cells {
        report = report.row(
            BenchRow::rate(
                format!("sim {} r={}", c.spec, c.read_fraction),
                c.events_per_sec(),
            )
            .field("tier", json_str("sim"))
            .field("tree", json_str(c.spec))
            .field("sites", c.sites)
            .field("read_fraction", c.read_fraction)
            .field("events", c.events)
            .field("ops_ok", c.ops_ok)
            .field("wall_ms", format!("{:.1}", c.wall_ms))
            .field("consistent", c.consistent),
        );
    }
    report = report.row(
        BenchRow::plain("sim fingerprint()")
            .field("tier", json_str("sim"))
            .field("steps", AUDIT_STEPS)
            .field("ns_per_call", format!("{:.0}", audit.fingerprint_ns)),
    );
    let ratios = &audit.replay_ratios;
    report = report.row(
        BenchRow::plain("sim replay/seeded")
            .field("tier", json_str("sim"))
            .field("steps", AUDIT_STEPS)
            .field("ratio", format!("{:.3}", median(ratios)))
            .field(
                "ratio_min",
                format!("{:.3}", ratios.first().copied().unwrap_or(0.0)),
            )
            .field(
                "ratio_max",
                format!("{:.3}", ratios.last().copied().unwrap_or(0.0)),
            ),
    );
    report
        .summary("gate_pending", GATE_PENDING)
        .summary("gate_speedup", format!("{gate_speedup:.2}"))
        .to_json()
}
