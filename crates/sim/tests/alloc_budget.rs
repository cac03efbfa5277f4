//! Heap allocations per committed operation on the steady-state path.
//!
//! A counting global allocator wraps the system one. Counting is per
//! thread, so the harness's other test threads do not leak into a count.
//! Each test runs one of three configurations shaped like the perfbench
//! workloads, lets it warm up (pools, maps and queues reach their working
//! size), then counts every allocation until the run's end and divides by
//! the operations committed inside that window.
//!
//! The counts are deterministic for a given seed and build, so the budgets
//! are hard bounds, not statistical ones, each just above its measured
//! count (0.01, 0.19 and 0.17 allocations per op). The same windows cost
//! 11.9, 22.8 and 10.4 before transaction records, envelopes and lock
//! states were recycled and short values were stored inline, and 1.50,
//! 1.69 and 2.94 while each picked quorum was still a sorted `Vec`. The
//! churn window cost 0.93 while rejoins descended every divergent range to
//! 16-key leaves and built fresh probe and key buffers at every step.

use arbitree_core::{builder, ArbitraryProtocol, ArbitraryTree};
use arbitree_quorum::ReplicaControl;
use arbitree_sim::{
    EventKey, FailureSchedule, ObjectDistribution, RetryPolicy, Scheduler, SimConfig, SimDuration,
    SimReport, SimTime, Simulation,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made by a thread
/// while its `COUNTING` flag is set.
struct CountingAllocator;

impl CountingAllocator {
    fn note() {
        // `try_with` so an allocation during thread teardown, after the
        // thread-locals are gone, is simply not counted.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATIONS.with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counting touches only
// `const`-initialized thread-locals without destructors, which never
// allocate and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Fires the earliest event, like `SeededScheduler`. Counting starts at the
/// first event at or after `warm_up` and stops at the key that ends the run,
/// so the final report is not counted.
struct WindowScheduler {
    warm_up: SimTime,
    /// Operations committed when counting started.
    ops_at_start: Option<u64>,
}

impl Scheduler for WindowScheduler {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let engine = sim.engine();
        let key = engine.queue().next_key();
        let ends = key.is_none_or(|k| k.at > engine.end());
        if ends {
            COUNTING.with(|on| on.set(false));
        } else if self.ops_at_start.is_none() && engine.now() >= self.warm_up {
            self.ops_at_start = Some(engine.metrics().ops_ok());
            ALLOCATIONS.with(|n| n.set(0));
            COUNTING.with(|on| on.set(true));
        }
        key
    }
}

/// Runs `sim` to its end and returns allocations per operation committed
/// after `warm_up`, with the run's report.
fn allocations_per_op(mut sim: Simulation, warm_up: SimTime) -> (f64, SimReport) {
    let mut scheduler = WindowScheduler {
        warm_up,
        ops_at_start: None,
    };
    let report = sim.run_with(&mut scheduler);
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);
    let start = scheduler.ops_at_start.expect("the run reaches its warm-up");
    let ops = report.metrics.ops_ok() - start;
    assert!(ops > 1_000, "too few operations in the window: {ops}");
    assert!(report.consistent, "{} violations", report.violations);
    let per_op = allocations as f64 / ops as f64;
    println!("{allocations} allocations / {ops} ops = {per_op:.2} per op");
    (per_op, report)
}

fn shards(tree: &ArbitraryTree, count: usize) -> Vec<Box<dyn ReplicaControl>> {
    (0..count)
        .map(|_| Box::new(ArbitraryProtocol::new(tree.clone())) as Box<dyn ReplicaControl>)
        .collect()
}

fn one_three_five() -> ArbitraryTree {
    ArbitraryTree::parse("1-3-5").expect("valid spec")
}

/// 16-shard `1-3-5` with batching, 2^20 uniform keys, 1–16 ops per
/// transaction.
#[test]
fn batched_multi_object_transactions_stay_within_budget() {
    let config = SimConfig {
        seed: 1,
        clients: 16,
        objects: 1 << 20,
        read_fraction: 0.5,
        think_time: SimDuration::from_micros(300),
        max_txn_ops: 16,
        shards: 16,
        batching: true,
        duration: SimDuration::from_millis(300),
        ..SimConfig::default()
    };
    let sim = Simulation::from_shards(config, shards(&one_three_five(), 16));
    let (per_op, _) = allocations_per_op(sim, SimTime::from_millis(100));
    assert!(per_op <= 0.05, "{per_op:.2} allocations per op");
}

/// Algorithm 1's balanced tree for 100 replicas, single-op transactions.
#[test]
fn wide_fan_out_single_op_transactions_stay_within_budget() {
    let tree = builder::balanced(100)
        .and_then(|spec| ArbitraryTree::from_spec(&spec))
        .expect("balanced(100) is a valid tree");
    let config = SimConfig {
        seed: 1,
        clients: 8,
        objects: 4096,
        read_fraction: 0.5,
        max_txn_ops: 1,
        duration: SimDuration::from_millis(3_000),
        ..SimConfig::default()
    };
    let sim = Simulation::from_shards(config, shards(&tree, 1));
    let (per_op, _) = allocations_per_op(sim, SimTime::from_millis(500));
    assert!(per_op <= 0.25, "{per_op:.2} allocations per op");
}

/// `1-3-5` under Zipfian keys, 1% link loss, and crashes of which 3% lose
/// their storage and rejoin through anti-entropy.
#[test]
fn zipfian_churn_with_amnesia_stays_within_budget() {
    let duration = SimDuration::from_millis(3_000);
    let mut config = SimConfig {
        seed: 1,
        clients: 16,
        objects: 1 << 16,
        read_fraction: 0.5,
        max_txn_ops: 4,
        object_distribution: ObjectDistribution::Zipfian { exponent: 1.0 },
        retry: RetryPolicy::Exponential {
            cap: SimDuration::from_millis(24),
            jitter: 0.25,
        },
        duration,
        ..SimConfig::default()
    };
    config.network.min_latency = SimDuration::from_micros(300);
    config.network.max_latency = SimDuration::from_micros(300);
    config.network.drop_probability = 0.01;
    let mut sim = Simulation::from_shards(config, shards(&one_three_five(), 1));
    FailureSchedule::random_with_amnesia(
        8,
        duration,
        SimDuration::from_millis(400),
        SimDuration::from_millis(40),
        0.03,
        7,
    )
    .apply(&mut sim);
    let (per_op, report) = allocations_per_op(sim, SimTime::from_millis(500));
    assert!(
        report.metrics.rejoins_completed > 0,
        "no amnesia rejoin ran"
    );
    assert!(per_op <= 0.2, "{per_op:.2} allocations per op");
}
