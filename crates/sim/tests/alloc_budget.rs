//! Heap allocations per committed operation on the steady-state path,
//! per repeated simulation set-up, and the peak live heap of a run.
//!
//! A counting global allocator wraps the system one. Counting is per
//! thread, so the harness's other test threads do not leak into a count.
//! Three configurations are shaped like the perfbench workloads. For each,
//! one test lets a run warm up (pools, maps and queues reach their working
//! size), then counts every allocation until the run's end and divides by
//! the operations committed inside that window; another counts the
//! allocations and bytes of a repeat build, the work perfbench's `setup_s`
//! times on every build after a thread's first. On the keyspace-batch
//! shape a third test tracks the bytes allocated and not yet freed from
//! the start of a build to the end of its run, and gates their peak.
//!
//! The counts are deterministic for a given seed and build, so the budgets
//! are hard bounds, not statistical ones, each just above its measured
//! count (0.01, 0.12 and 0.06 allocations per op). The same windows cost
//! 11.9, 22.8 and 10.4 before transaction records, envelopes and lock
//! states were recycled and short values were stored inline, and 1.50,
//! 1.69 and 2.94 while each picked quorum was still a sorted `Vec`. The
//! churn window cost 0.93 while rejoins descended every divergent range to
//! 16-key leaves and built fresh probe and key buffers at every step.
//! While every replica kept its range tree from its first install, not its
//! first read, the balanced-100 window cost 0.18 (856 allocations), and
//! the churn window 0.21 (2,057) once every phase's first attempt was
//! timed from the measured round trip: the faster transactions pulled a
//! replica's first full tree build, about 1,460 `BTreeMap` nodes, into the
//! window.
//!
//! A repeat build measures 59, 129 and 48 allocations (8,992, 51,245 and
//! 40,457 bytes), each budget just above its reading. It read 9,120,
//! 52,845 and 40,585 bytes while every replica's storage also kept its
//! range tree's root aggregate eagerly, under budgets of 64, 140 and 55
//! allocations (10,500, 66,000 and 44,000 bytes) that a 13 KB rise per
//! balanced-100 build would have passed. It cost 70, 235 and 60
//! allocations (10,240, 67,405 and 565,993 bytes) while every replica's
//! range tree kept its levels in a `Vec` and every Zipfian build
//! recomputed its 512 KiB key table, and 10,048, 65,005 and 41,513 bytes
//! while `DetMap`'s index was a `HashMap`.
//!
//! The keyspace-batch run peaks at 3,265,344 live bytes (3.11 MiB). It
//! peaked at 3,396,544 (3.24 MiB) while every replica kept its range tree
//! from its first install, and at 4,600,512 (4.39 MiB) while `DetMap`'s
//! index stored a second copy of every key and the range-tree install log
//! kept an item hash beside each key.

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
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made by a thread
/// while its `COUNTING` flag is set, and sums the bytes they ask for (a
/// `realloc` counts its new size). It also keeps the thread's live bytes
/// over the same window, and their peak: `alloc` and `alloc_zeroed` add
/// their size, `dealloc` subtracts it, and `realloc` adds the difference.
/// Freeing what was allocated before the window drives the live count
/// below zero, never the peak.
struct CountingAllocator;

impl CountingAllocator {
    /// Records a call that asks for `asked` bytes and changes the live
    /// bytes by `live`.
    fn note(asked: usize, live: i64) {
        // `try_with` so an allocation during thread teardown, after the
        // thread-locals are gone, is simply not counted.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATIONS.with(|n| n.set(n.get() + 1));
                BYTES.with(|n| n.set(n.get() + asked as u64));
                Self::live(live);
            }
        });
    }

    /// Moves the live bytes by `delta` and raises the peak to match.
    fn live(delta: i64) {
        let now = LIVE.with(|n| {
            n.set(n.get() + delta);
            n.get()
        });
        PEAK.with(|p| p.set(p.get().max(now)));
    }

    /// Records a `dealloc` of `bytes`.
    fn free(bytes: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                Self::live(-(bytes as i64));
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
        Self::note(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::free(layout.size());
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

/// Allocations and bytes of a repeat `build`: one build warms whatever a
/// thread keeps between builds, then the second is counted. The
/// simulation is dropped outside the count.
fn repeat_setup(build: fn() -> Simulation) -> (u64, u64) {
    drop(build());
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let sim = build();
    COUNTING.with(|on| on.set(false));
    drop(sim);
    let counts = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    println!(
        "repeat set-up: {} allocations, {} bytes",
        counts.0, counts.1
    );
    counts
}

/// The peak live heap, in bytes, of building `build` and running it to its
/// end. Everything the simulation holds is allocated inside the window,
/// so the peak is its whole footprint at its largest.
fn peak_live_bytes(build: fn() -> Simulation) -> i64 {
    LIVE.with(|n| n.set(0));
    PEAK.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let mut sim = build();
    let report = sim.run();
    COUNTING.with(|on| on.set(false));
    assert!(report.consistent, "{} violations", report.violations);
    drop(sim);
    let peak = PEAK.with(Cell::get);
    println!(
        "peak live heap: {peak} bytes ({:.2} MiB)",
        peak as f64 / (1 << 20) as f64
    );
    peak
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
fn keyspace_batch() -> Simulation {
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
    Simulation::from_shards(config, shards(&one_three_five(), 16))
}

/// Algorithm 1's balanced tree for 100 replicas, single-op transactions.
fn balanced_100() -> Simulation {
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
    Simulation::from_shards(config, shards(&tree, 1))
}

/// `1-3-5` under 2^16 Zipfian keys, 1% link loss, and crashes of which 3%
/// lose their storage and rejoin through anti-entropy.
fn hot_churn() -> Simulation {
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
    sim
}

#[test]
fn batched_multi_object_transactions_stay_within_budget() {
    let (per_op, _) = allocations_per_op(keyspace_batch(), SimTime::from_millis(100));
    assert!(per_op <= 0.05, "{per_op:.2} allocations per op");
}

#[test]
fn wide_fan_out_single_op_transactions_stay_within_budget() {
    let (per_op, _) = allocations_per_op(balanced_100(), SimTime::from_millis(500));
    assert!(per_op <= 0.13, "{per_op:.2} allocations per op");
}

#[test]
fn zipfian_churn_with_amnesia_stays_within_budget() {
    let (per_op, report) = allocations_per_op(hot_churn(), SimTime::from_millis(500));
    assert!(
        report.metrics.rejoins_completed > 0,
        "no amnesia rejoin ran"
    );
    assert!(per_op <= 0.07, "{per_op:.2} allocations per op");
}

#[test]
fn keyspace_batch_repeat_setup_stays_within_budget() {
    let (allocations, bytes) = repeat_setup(keyspace_batch);
    assert!(allocations <= 60, "{allocations} allocations");
    assert!(bytes <= 9_100, "{bytes} bytes");
}

#[test]
fn balanced_100_repeat_setup_stays_within_budget() {
    let (allocations, bytes) = repeat_setup(balanced_100);
    assert!(allocations <= 130, "{allocations} allocations");
    assert!(bytes <= 51_500, "{bytes} bytes");
}

#[test]
fn hot_churn_repeat_setup_stays_within_budget() {
    let (allocations, bytes) = repeat_setup(hot_churn);
    assert!(allocations <= 49, "{allocations} allocations");
    assert!(bytes <= 40_700, "{bytes} bytes");
}

#[test]
fn keyspace_batch_peak_live_heap_stays_within_budget() {
    let peak = peak_live_bytes(keyspace_batch);
    assert!(peak <= 3_300_000, "{peak} bytes");
}
