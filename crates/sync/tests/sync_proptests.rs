//! Property tests for the cumulated-hash range tree and the
//! reconciliation protocol: incremental digests must equal rebuilt ones,
//! reconciliation must converge for arbitrary diffs, the message cost
//! must stay far below full transfer for small diffs, and whole-range
//! fills must never cost more messages than descending to the leaves.

use arbitree_sync::{item_hash, respond, HTree, NodeAgg, Range, Response, Session, LEAF_DEPTH};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Reference store: a plain sorted map of (key → item hash).
fn build(items: &BTreeMap<u32, u64>) -> HTree {
    let mut t = HTree::new();
    for (&k, &h) in items {
        t.insert(k, h);
    }
    t
}

/// Full in-memory reconciliation; returns messages exchanged.
fn reconcile(src: &HTree, dst: &mut HTree, window: usize) -> u64 {
    reconcile_with(respond, src, dst, window, |dst, k| {
        dst.insert(k, src.item(k).expect("responder holds key"));
    })
}

/// Reconciliation under the responder rule `rule`, installing each filled
/// key through `install`; returns messages exchanged.
fn reconcile_with(
    rule: fn(&HTree, Range, NodeAgg) -> Response,
    src: &HTree,
    dst: &mut HTree,
    window: usize,
    mut install: impl FnMut(&mut HTree, u32),
) -> u64 {
    let mut session = Session::new();
    let mut messages = 0u64;
    let mut guard = 0u32;
    let mut reqs = Vec::new();
    while !session.is_done() {
        guard += 1;
        assert!(guard < 1_000_000, "reconciliation did not converge");
        session.take_requests(dst, window, &mut reqs);
        for &(range, digest) in &reqs {
            messages += 2;
            let resp = rule(src, range, digest);
            if resp == Response::Fill {
                for k in src.range_keys(range) {
                    install(dst, k);
                }
            }
            assert!(session.on_response(dst, range, &resp));
        }
    }
    messages
}

/// The responder rule before whole-range fills, kept as the cost
/// reference: descend every divergent range down to its 16-key leaves and
/// fill only there.
fn respond_at_leaves(tree: &HTree, range: Range, peer: NodeAgg) -> Response {
    if tree.digest(range) == peer {
        Response::Match
    } else if range.depth == LEAF_DEPTH {
        Response::Fill
    } else {
        Response::Children(tree.child_digests(range))
    }
}

/// A replica store: key → `(version, value byte)`.
type Store = BTreeMap<u32, (u64, u8)>;

fn tree_of(store: &Store) -> HTree {
    let mut t = HTree::new();
    for (&k, &(version, value)) in store {
        t.insert(k, item_hash(k, version, 0, &[value]));
    }
    t
}

/// How a requester's copy of one source key differs.
#[derive(Debug, Clone, Copy)]
enum Divergence {
    Same,
    Missing,
    Stale,
}

/// A source store and a requester derived from it: each source key kept,
/// dropped or one version behind, plus requester-only extras. Keys come
/// from either a narrow band (dense ranges, deep descents) or the whole
/// key space (sparse ranges, early fills); stores reach past
/// `FILL_BUDGET` so both sides of the empty-requester budget occur.
fn store_pair() -> impl Strategy<Value = (Store, Store)> {
    let key =
        || (any::<bool>(), any::<u32>()).prop_map(|(narrow, k)| if narrow { k % 4096 } else { k });
    let divergence = (0u8..6).prop_map(|r| match r {
        0..=2 => Divergence::Same,
        3 | 4 => Divergence::Missing,
        _ => Divergence::Stale,
    });
    (
        proptest::collection::vec((key(), 2u64..9, any::<u8>(), divergence), 0..1500),
        proptest::collection::vec((key(), any::<u8>()), 0..40),
        any::<bool>(),
    )
        .prop_map(|(items, extras, wiped)| {
            let mut src = Store::new();
            let mut dst = Store::new();
            for (k, version, value, divergence) in items {
                src.insert(k, (version, value));
                match divergence {
                    Divergence::Same => {
                        dst.insert(k, (version, value));
                    }
                    Divergence::Missing => {
                        dst.remove(&k);
                    }
                    Divergence::Stale => {
                        dst.insert(k, (version - 1, value.wrapping_add(1)));
                    }
                }
            }
            if wiped {
                dst.clear();
            }
            for (k, value) in extras {
                if !src.contains_key(&k) {
                    dst.insert(k, (1, value));
                }
            }
            (src, dst)
        })
}

fn keyspace_strategy() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((any::<u32>(), any::<u64>()), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incrementally-maintained digests equal those of a tree rebuilt
    /// from scratch after arbitrary insert/update/remove interleavings.
    #[test]
    fn incremental_digests_match_rebuild(
        ops in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..200),
    ) {
        let mut live = HTree::new();
        let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
        for (key, hash, insert) in ops {
            if insert {
                live.insert(key, hash);
                reference.insert(key, hash);
            } else {
                live.remove(key);
                reference.remove(&key);
            }
        }
        let rebuilt = build(&reference);
        prop_assert_eq!(&live, &rebuilt);
        // Spot-check digests along a few random-ish paths too.
        for (&key, _) in reference.iter().take(8) {
            for depth in 0..=LEAF_DEPTH {
                prop_assert_eq!(
                    live.digest(Range::of(key, depth)),
                    rebuilt.digest(Range::of(key, depth))
                );
            }
        }
    }

    /// Reconciliation converges for arbitrary source/destination pairs:
    /// afterwards the destination holds every source item (its own extras
    /// may remain — the protocol only pulls).
    #[test]
    fn reconciliation_pulls_every_source_item(
        src_items in keyspace_strategy(),
        dst_items in keyspace_strategy(),
        window in 1usize..17,
    ) {
        let src = build(&src_items.iter().copied().collect());
        let mut dst = build(&dst_items.iter().copied().collect());
        reconcile(&src, &mut dst, window);
        for (k, h) in src.iter() {
            prop_assert_eq!(dst.item(k), Some(h), "key {} not transferred", k);
        }
    }

    /// For a dense store with a small random diff, the message cost stays
    /// well below the full-transfer baseline (one fill per 16-key leaf).
    #[test]
    fn small_diffs_beat_full_transfer(
        missing_raw in proptest::collection::vec(0u32..(1 << 13), 1..12),
    ) {
        let missing: std::collections::BTreeSet<u32> = missing_raw.into_iter().collect();
        let n = 1u32 << 13;
        let mut src = HTree::new();
        for k in 0..n {
            src.insert(k, item_hash(k, 1, 0, b"v"));
        }
        let mut dst = src.clone();
        for &k in &missing {
            dst.remove(k);
        }
        let msgs = reconcile(&src, &mut dst, 8);
        prop_assert_eq!(&dst, &src);
        let full = u64::from(n / 16);
        prop_assert!(
            msgs < full / 2,
            "{} messages for a {}-key diff vs {} full-transfer fills",
            msgs, missing.len(), full
        );
    }

    /// Two sessions over the same trees produce identical request
    /// sequences and stats — reconciliation is deterministic.
    #[test]
    fn sessions_are_deterministic(
        src_items in keyspace_strategy(),
        dst_items in keyspace_strategy(),
    ) {
        let src = build(&src_items.iter().copied().collect());
        let dst0 = build(&dst_items.iter().copied().collect());

        let run = || {
            let mut dst = dst0.clone();
            let mut session = Session::new();
            let mut log: Vec<(Range, NodeAgg)> = Vec::new();
            let mut reqs = Vec::new();
            while !session.is_done() {
                session.take_requests(&dst, 4, &mut reqs);
                for &(range, digest) in &reqs {
                    log.push((range, digest));
                    let resp = respond(&src, range, digest);
                    if resp == Response::Fill {
                        for k in src.range_keys(range) {
                            dst.insert(k, src.item(k).expect("responder holds key"));
                        }
                    }
                    session.on_response(&dst, range, &resp);
                }
            }
            (log, session.stats)
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(stats_a, stats_b);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole-range fills against stores that differ by missing keys,
    /// stale versions and requester extras, or against a wiped requester:
    /// reconciliation with timestamp-guarded installs converges (every
    /// source item arrives, no extra is lost), and it never takes more
    /// messages than descending to the leaves on the same pair.
    #[test]
    fn whole_range_fills_converge_in_no_more_messages_than_leaf_fills(
        pair in store_pair(),
        window in 1usize..9,
    ) {
        let (src, dst) = pair;
        let src_tree = tree_of(&src);
        let start = tree_of(&dst);
        let run = |rule: fn(&HTree, Range, NodeAgg) -> Response| {
            let mut store = dst.clone();
            let mut tree = start.clone();
            let msgs = reconcile_with(rule, &src_tree, &mut tree, window, |tree, k| {
                let (version, value) = src[&k];
                if store.get(&k).is_none_or(|&(mine, _)| version > mine) {
                    store.insert(k, (version, value));
                    tree.insert(k, item_hash(k, version, 0, &[value]));
                }
            });
            prop_assert_eq!(&tree, &tree_of(&store));
            Ok((store, msgs))
        };
        let (filled, msgs) = run(respond)?;
        let (reference, leaf_msgs) = run(respond_at_leaves)?;
        for (k, item) in &src {
            prop_assert_eq!(filled.get(k), Some(item), "key {} not converged", k);
        }
        for (k, item) in &dst {
            if !src.contains_key(k) {
                prop_assert_eq!(filled.get(k), Some(item), "extra key {} lost", k);
            }
        }
        prop_assert_eq!(&filled, &reference);
        prop_assert!(
            msgs <= leaf_msgs,
            "{} messages with whole-range fills vs {} at the leaves", msgs, leaf_msgs
        );
    }
}
