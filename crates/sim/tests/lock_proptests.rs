//! Property tests for the lock manager.
//!
//! Every observable of [`LockManager`] — grant decisions, FIFO wake-ups,
//! `holds`, queue depths — must match a reference model that knows only
//! the arrival order of each object's live requests. And the coordinator's
//! deadlock-freedom argument (locks acquired in ascending object order, a
//! total order) must hold for *random* multi-key transactions, not just
//! the shapes the simulator happens to produce.

use arbitree_sim::{LockManager, LockMode, ObjectId, OpId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One scripted lock-manager call.
#[derive(Debug, Clone)]
enum Call {
    Acquire { op: u64, obj: u32, write: bool },
    Release { op: u64, obj: u32 },
}

fn call_strategy() -> impl Strategy<Value = Call> {
    (any::<bool>(), 0u64..12, 0u32..24, any::<bool>()).prop_map(|(acquire, op, obj, write)| {
        if acquire {
            Call::Acquire { op, obj, write }
        } else {
            Call::Release { op, obj }
        }
    })
}

/// Reference model: each object's live requests (held or queued) in
/// arrival order. The granted requests are the longest prefix that is
/// either one write or reads only.
#[derive(Default)]
struct Model {
    requests: BTreeMap<u32, Vec<(u64, LockMode)>>,
}

impl Model {
    fn granted(&self, obj: u32) -> Vec<u64> {
        let Some(reqs) = self.requests.get(&obj) else {
            return Vec::new();
        };
        match reqs.first() {
            Some(&(op, LockMode::Write)) => vec![op],
            _ => reqs
                .iter()
                .take_while(|(_, m)| *m == LockMode::Read)
                .map(|(op, _)| *op)
                .collect(),
        }
    }

    fn acquire(&mut self, op: u64, obj: u32, mode: LockMode) -> bool {
        self.requests.entry(obj).or_default().push((op, mode));
        self.granted(obj).contains(&op)
    }

    /// The requests granted by removing `op`'s, in arrival order.
    fn release(&mut self, op: u64, obj: u32) -> Vec<u64> {
        let before = self.granted(obj);
        if let Some(reqs) = self.requests.get_mut(&obj) {
            reqs.retain(|(o, _)| *o != op);
            if reqs.is_empty() {
                self.requests.remove(&obj);
            }
        }
        self.granted(obj)
            .into_iter()
            .filter(|o| !before.contains(o))
            .collect()
    }

    fn queue_len(&self, obj: u32) -> usize {
        self.requests.get(&obj).map_or(0, Vec::len) - self.granted(obj).len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any call script observes the model's behaviour: same immediate
    /// grants, same wake-up lists in FIFO order, same holder/queue state
    /// after every step.
    #[test]
    fn manager_matches_arrival_order_model(
        script in proptest::collection::vec(call_strategy(), 1..80),
    ) {
        let mut lm = LockManager::new();
        let mut model = Model::default();
        // (op, obj) pairs with a live acquire (held or queued), so the
        // script never re-acquires a held lock (a caller contract).
        let mut live: BTreeSet<(u64, u32)> = BTreeSet::new();
        for call in script {
            match call {
                Call::Acquire { op, obj, write } => {
                    if !live.insert((op, obj)) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    prop_assert_eq!(
                        lm.acquire(OpId(op), ObjectId(obj), mode),
                        model.acquire(op, obj, mode),
                        "grant decision diverged on {:?}", (op, obj)
                    );
                }
                Call::Release { op, obj } => {
                    live.remove(&(op, obj));
                    let woken: Vec<u64> =
                        lm.release(OpId(op), ObjectId(obj)).iter().map(|o| o.0).collect();
                    prop_assert_eq!(
                        woken,
                        model.release(op, obj),
                        "wake-up list diverged on {:?}", (op, obj)
                    );
                }
            }
            for obj in 0u32..24 {
                let granted = model.granted(obj);
                for op in 0u64..12 {
                    prop_assert_eq!(
                        lm.holds(OpId(op), ObjectId(obj)),
                        granted.contains(&op),
                        "holds diverged on {:?}", (op, obj)
                    );
                }
                prop_assert_eq!(lm.queue_len(ObjectId(obj)), model.queue_len(obj));
            }
            prop_assert_eq!(lm.locked_objects(), model.requests.len());
        }
    }

    /// Random multi-key transactions that acquire their locks in ascending
    /// object order (the coordinator's strict-2PL plan order) always all
    /// complete — no schedule deadlocks.
    #[test]
    fn ordered_acquisition_never_deadlocks(
        plans in proptest::collection::vec(
            proptest::collection::vec((0u32..16, any::<bool>()), 1..6),
            2..10,
        ),
    ) {
        // Dedup objects inside a plan (a transaction locks each object
        // once); keep the stronger mode when both were generated.
        struct Txn {
            plan: Vec<(ObjectId, LockMode)>,
            next: usize,
            done: bool,
        }
        let mut txns: Vec<Txn> = plans
            .iter()
            .map(|raw| {
                // Sort ascending (the coordinator's total acquisition
                // order) and collapse duplicate objects, keeping the
                // stronger mode.
                let mut sorted = raw.clone();
                sorted.sort_unstable();
                let mut plan: Vec<(ObjectId, LockMode)> = Vec::new();
                for (obj, write) in sorted {
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    match plan.last_mut() {
                        Some((last, m)) if *last == ObjectId(obj) => {
                            if mode == LockMode::Write {
                                *m = LockMode::Write;
                            }
                        }
                        _ => plan.push((ObjectId(obj), mode)),
                    }
                }
                Txn { plan, next: 0, done: false }
            })
            .collect();

        let mut lm = LockManager::new();
        let mut work: VecDeque<usize> = (0..txns.len()).collect();
        let mut steps = 0usize;
        while let Some(i) = work.pop_front() {
            steps += 1;
            prop_assert!(steps <= 10_000, "lock scheduler failed to quiesce");
            if txns[i].done {
                continue;
            }
            loop {
                if txns[i].next == txns[i].plan.len() {
                    // Strict 2PL: all locks held -> commit, release
                    // everything, wake whoever was queued behind us.
                    txns[i].done = true;
                    let plan = txns[i].plan.clone();
                    for (obj, _) in plan {
                        for granted in lm.release(OpId(i as u64), obj) {
                            // arbitree-lint: allow(D004) — op ids are txn indices, all < txns.len()
                            work.push_back(granted.0 as usize);
                        }
                    }
                    break;
                }
                let (obj, mode) = txns[i].plan[txns[i].next];
                // A wake-up means the manager already granted this lock.
                if lm.holds(OpId(i as u64), obj) || lm.acquire(OpId(i as u64), obj, mode) {
                    txns[i].next += 1;
                } else {
                    break; // queued; a future release re-enqueues us
                }
            }
        }
        prop_assert!(
            txns.iter().all(|t| t.done),
            "stuck transactions: {:?}",
            txns.iter().enumerate().filter(|(_, t)| !t.done).map(|(i, _)| i).collect::<Vec<_>>()
        );
        prop_assert_eq!(lm.locked_objects(), 0, "locks leaked after quiescence");
    }
}
