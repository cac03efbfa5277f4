//! Model-based test of `DetMap`: random insert/remove/get/entry/clear
//! sequences run against a naive insertion-ordered `Vec` model. Removal
//! tombstones slots and compacts them in batches, so the sequences are long
//! enough, over few enough keys, to cross many compactions. A second set
//! of sequences fills the map with 300 to 400 distinct keys, so its index
//! table grows from 4 buckets to 512, then churns it with removals and
//! re-insertions (long probe chains, some wrapping past the table's end,
//! shifted back on every removal) and drains it across compactions.
//!
//! Every property runs twice: over plain integer keys and over [`Collide`]
//! keys, whose hashes are all equal, so every key has the same index tag
//! and one probe chain holds them all. Lookups, iteration order, `Debug`
//! and equality must come out the same either way, since the hash index is
//! only probed, never iterated.

use arbitree_core::{DetMap, DetSet};
use proptest::prelude::*;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// A key whose `Hash` writes a constant: every key lands on the same hash,
/// the worst case for the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Collide(u16);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(0xC011_1DE5);
    }
}

/// What the properties need of a key type.
trait Key: Copy + Eq + Hash + Debug {}

impl<T: Copy + Eq + Hash + Debug> Key for T {}

/// One step: `(opcode, key, value)`. Few keys force overwrites and
/// re-insertions after removal.
fn steps() -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    proptest::collection::vec((0u8..10, 0u8..12, 0u32..1000), 0..300)
}

/// A target content over the same 12 keys (duplicates dropped later).
fn contents() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..12, 0u32..1000), 0..16)
}

/// The reference: a `Vec` in insertion order with linear lookup.
struct Model<K>(Vec<(K, u32)>);

impl<K: Key> Model<K> {
    fn pos(&self, k: K) -> Option<usize> {
        self.0.iter().position(|&(mk, _)| mk == k)
    }

    fn insert(&mut self, k: K, v: u32) -> Option<u32> {
        match self.pos(k) {
            Some(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
            None => {
                self.0.push((k, v));
                None
            }
        }
    }

    fn remove(&mut self, k: K) -> Option<u32> {
        self.pos(k).map(|i| self.0.remove(i).1)
    }

    fn get(&self, k: K) -> Option<u32> {
        self.pos(k).map(|i| self.0[i].1)
    }

    fn debug(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Whether two entry lists hold the same elements, in any order (neither
/// list repeats a key).
fn same_content<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().all(|e| b.contains(e))
}

/// `a == b`, after checking that `b == a` agrees: equality probes the other
/// side's index, so symmetry is not given by construction.
fn equal_both_ways<T: PartialEq>(a: &T, b: &T) -> Result<bool, TestCaseError> {
    let (ab, ba) = (a == b, b == a);
    prop_assert_eq!(ab, ba, "equality is not symmetric");
    Ok(ab)
}

/// `target` with repeated keys dropped (the first occurrence wins).
fn distinct_keys(target: &[(u8, u32)]) -> Vec<(u8, u32)> {
    let mut out: Vec<(u8, u32)> = Vec::new();
    for &(k, v) in target {
        if out.iter().all(|&(ok, _)| ok != k) {
            out.push((k, v));
        }
    }
    out
}

/// Wraps a narrow key as a [`Collide`].
fn collide(k: u8) -> Collide {
    Collide(u16::from(k))
}

fn map_matches_model<K: Key>(ops: &[(u8, u8, u32)], key: fn(u8) -> K) -> TestCaseResult {
    let mut map: DetMap<K, u32> = DetMap::new();
    let mut model = Model(Vec::new());
    for (step, &(op, k, v)) in ops.iter().enumerate() {
        let k = key(k);
        match op {
            // Removal is as likely as insertion, so maps keep shrinking
            // and tombstones keep crossing the compaction threshold.
            0..=2 => prop_assert_eq!(map.insert(k, v), model.insert(k, v), "insert at {}", step),
            3..=5 => prop_assert_eq!(map.remove(&k), model.remove(k), "remove at {}", step),
            6 => prop_assert_eq!(map.get(&k).copied(), model.get(k), "get at {}", step),
            7 => {
                let got = map.entry(k).or_insert(v);
                *got += 1;
                let want = match model.pos(k) {
                    Some(i) => &mut model.0[i].1,
                    None => {
                        model.0.push((k, v));
                        &mut model.0.last_mut().expect("just pushed").1
                    }
                };
                *want += 1;
            }
            8 => {
                if let Some(x) = map.get_mut(&k) {
                    *x ^= v;
                }
                if let Some(i) = model.pos(k) {
                    model.0[i].1 ^= v;
                }
            }
            _ => {
                // Rare: most sequences run long without a reset.
                if v % 8 == 0 {
                    map.clear();
                    model.0.clear();
                }
            }
        }
        let order: Vec<(K, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&order, &model.0, "order after step {}", step);
        prop_assert_eq!(
            format!("{map:?}"),
            model.debug(),
            "Debug after step {}",
            step
        );
        prop_assert_eq!(map.len(), model.0.len());
        prop_assert_eq!(map.is_empty(), model.0.is_empty());
        for probe in 0u8..12 {
            prop_assert_eq!(
                map.contains_key(&key(probe)),
                model.pos(key(probe)).is_some()
            );
        }
    }
    // Equality is content-based: a fresh map built in model order and
    // one built in reverse order both equal the tombstoned one.
    let fresh: DetMap<K, u32> = model.0.iter().copied().collect();
    let reversed: DetMap<K, u32> = model.0.iter().rev().copied().collect();
    prop_assert!(map == fresh);
    prop_assert!(map == reversed);
    prop_assert!(map.clone() == map);
    let mut other = fresh.clone();
    if let Some(&(k, v)) = model.0.first() {
        other.insert(k, v.wrapping_add(1));
        prop_assert!(map != other);
        other.remove(&k);
        prop_assert!(map != other);
    }
    let owned: Vec<(K, u32)> = map.into_iter().collect();
    prop_assert_eq!(owned, model.0);
    Ok(())
}

/// Runs `ops` as inserts and removes (equally likely, so tombstones cross
/// compactions), then, given a `target`, reshapes the map to hold exactly
/// it: keys outside it removed, its entries inserted in `target` order.
fn build_map<K: Key>(
    ops: &[(u8, u8, u32)],
    target: Option<&[(u8, u32)]>,
    key: fn(u8) -> K,
) -> DetMap<K, u32> {
    let mut map = DetMap::new();
    for &(op, k, v) in ops {
        if op < 5 {
            map.insert(key(k), v);
        } else {
            map.remove(&key(k));
        }
    }
    if let Some(target) = target {
        for k in 0u8..12 {
            if target.iter().all(|&(tk, _)| tk != k) {
                map.remove(&key(k));
            }
        }
        for &(k, v) in target {
            map.insert(key(k), v);
        }
    }
    map
}

fn map_equality_is_content_based<K: Key>(
    ops_a: &[(u8, u8, u32)],
    ops_b: &[(u8, u8, u32)],
    target: &[(u8, u32)],
    key: fn(u8) -> K,
) -> TestCaseResult {
    let entries =
        |m: &DetMap<K, u32>| -> Vec<(K, u32)> { m.iter().map(|(&k, &v)| (k, v)).collect() };
    // Two unrelated histories are equal exactly when their contents are.
    let (a, b) = (build_map(ops_a, None, key), build_map(ops_b, None, key));
    prop_assert_eq!(
        equal_both_ways(&a, &b)?,
        same_content(&entries(&a), &entries(&b))
    );

    // Forced to one content, in opposite insertion orders, they are equal.
    let target = distinct_keys(target);
    let reversed: Vec<(u8, u32)> = target.iter().rev().copied().collect();
    let a = build_map(ops_a, Some(&target), key);
    let mut b = build_map(ops_b, Some(&reversed), key);
    prop_assert!(equal_both_ways(&a, &b)?);

    // Differing content is unequal: a changed value, a missing key, an
    // extra key.
    if let Some(&(k, v)) = target.first() {
        b.insert(key(k), v.wrapping_add(1));
        prop_assert!(!equal_both_ways(&a, &b)?);
        b.remove(&key(k));
        prop_assert!(!equal_both_ways(&a, &b)?);
        // Re-inserted last: a new position, the same content again.
        b.insert(key(k), v);
        prop_assert!(equal_both_ways(&a, &b)?);
    }
    b.insert(key(12), 0);
    prop_assert!(!equal_both_ways(&a, &b)?);
    Ok(())
}

fn set_matches_model<K: Key>(ops: &[(u8, u8, u32)], key: fn(u8) -> K) -> TestCaseResult {
    let mut set: DetSet<K> = DetSet::new();
    let mut model: Vec<K> = Vec::new();
    for &(op, k, _) in ops {
        let k = key(k);
        if op < 5 {
            prop_assert_eq!(set.insert(k), !model.contains(&k));
            if !model.contains(&k) {
                model.push(k);
            }
        } else {
            let present = model.iter().position(|&m| m == k);
            prop_assert_eq!(set.remove(&k), present.is_some());
            if let Some(i) = present {
                model.remove(i);
            }
        }
        let order: Vec<K> = set.iter().copied().collect();
        prop_assert_eq!(&order, &model);
        for probe in 0u8..12 {
            prop_assert_eq!(set.contains(&key(probe)), model.contains(&key(probe)));
        }
    }
    let body: Vec<String> = model.iter().map(|k| format!("{k:?}")).collect();
    prop_assert_eq!(format!("{set:?}"), format!("{{{}}}", body.join(", ")));
    let borrowed: Vec<K> = (&set).into_iter().copied().collect();
    prop_assert_eq!(&borrowed, &model);
    Ok(())
}

/// The `DetSet` counterpart of [`build_map`].
fn build_set<K: Key>(ops: &[(u8, u8, u32)], target: Option<&[u8]>, key: fn(u8) -> K) -> DetSet<K> {
    let mut set = DetSet::new();
    for &(op, k, _) in ops {
        if op < 5 {
            set.insert(key(k));
        } else {
            set.remove(&key(k));
        }
    }
    if let Some(target) = target {
        for k in (0u8..12).filter(|k| !target.contains(k)) {
            set.remove(&key(k));
        }
        set.extend(target.iter().map(|&k| key(k)));
    }
    set
}

fn set_equality_is_content_based<K: Key>(
    ops_a: &[(u8, u8, u32)],
    ops_b: &[(u8, u8, u32)],
    target: &[(u8, u32)],
    key: fn(u8) -> K,
) -> TestCaseResult {
    let members = |s: &DetSet<K>| -> Vec<K> { s.iter().copied().collect() };
    let (a, b) = (build_set(ops_a, None, key), build_set(ops_b, None, key));
    prop_assert_eq!(
        equal_both_ways(&a, &b)?,
        same_content(&members(&a), &members(&b))
    );

    let target: Vec<u8> = distinct_keys(target).iter().map(|&(k, _)| k).collect();
    let reversed: Vec<u8> = target.iter().rev().copied().collect();
    let a = build_set(ops_a, Some(&target), key);
    let mut b = build_set(ops_b, Some(&reversed), key);
    prop_assert!(equal_both_ways(&a, &b)?);

    if let Some(&k) = target.first() {
        b.remove(&key(k));
        prop_assert!(!equal_both_ways(&a, &b)?);
        b.insert(key(k));
        prop_assert!(equal_both_ways(&a, &b)?);
    }
    b.insert(key(12));
    prop_assert!(!equal_both_ways(&a, &b)?);
    Ok(())
}

/// Keys the wide sequences draw from: 401 is prime, so `i * 181 % 401`
/// visits each of them once as `i` runs over `0..401`.
const WIDE_KEYS: u16 = 401;

/// The `i`-th key of a fill that starts at `offset`.
fn fill_key(i: u16, offset: u16) -> u16 {
    ((u32::from(i) * 181 + u32::from(offset)) % u32::from(WIDE_KEYS)) as u16
}

/// A fill size and offset, then churn steps `(opcode, key, value)` over
/// the same keys.
fn wide_steps() -> impl Strategy<Value = (u16, u16, Vec<(u8, u16, u32)>)> {
    (
        300u16..=WIDE_KEYS,
        0u16..WIDE_KEYS,
        proptest::collection::vec((0u8..10, 0u16..WIDE_KEYS, 0u32..1000), 500..1500),
    )
}

/// The map against the model on every key: order, length and membership.
fn agrees<K: Key>(map: &DetMap<K, u32>, model: &Model<K>, key: fn(u16) -> K) -> TestCaseResult {
    let order: Vec<(K, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(&order, &model.0);
    prop_assert_eq!(map.len(), model.0.len());
    for probe in 0..=WIDE_KEYS {
        prop_assert_eq!(map.get(&key(probe)).copied(), model.get(key(probe)));
    }
    Ok(())
}

/// Fills `size` distinct keys, churns them with `ops`, then removes every
/// key but each tenth (in fill order), checking the map against the model
/// along the way and at the end of each phase.
fn wide_map_matches_model<K: Key>(
    size: u16,
    offset: u16,
    ops: &[(u8, u16, u32)],
    key: fn(u16) -> K,
) -> TestCaseResult {
    let mut map: DetMap<K, u32> = DetMap::new();
    let mut model = Model(Vec::new());
    for i in 0..size {
        let k = key(fill_key(i, offset));
        prop_assert_eq!(map.insert(k, u32::from(i)), model.insert(k, u32::from(i)));
    }
    agrees(&map, &model, key)?;
    for (step, &(op, k, v)) in ops.iter().enumerate() {
        let k = key(k);
        match op {
            // As many removals as insertions: the map hovers near its fill
            // size while its keys move to the back of the slot order.
            0..=3 => prop_assert_eq!(map.remove(&k), model.remove(k), "remove at {}", step),
            4..=7 => prop_assert_eq!(map.insert(k, v), model.insert(k, v), "insert at {}", step),
            8 => prop_assert_eq!(map.get(&k).copied(), model.get(k), "get at {}", step),
            _ => {
                *map.entry(k).or_insert(v) += 1;
                match model.pos(k) {
                    Some(i) => model.0[i].1 += 1,
                    None => model.0.push((k, v + 1)),
                }
            }
        }
        prop_assert_eq!(map.len(), model.0.len(), "len after step {}", step);
        if step % 64 == 0 {
            agrees(&map, &model, key)?;
        }
    }
    agrees(&map, &model, key)?;
    for i in (0..WIDE_KEYS).filter(|i| i % 10 != 0) {
        let k = key(fill_key(i, offset));
        prop_assert_eq!(map.remove(&k), model.remove(k));
    }
    agrees(&map, &model, key)?;
    prop_assert_eq!(format!("{map:?}"), model.debug());
    let rebuilt: DetMap<K, u32> = model.0.iter().rev().copied().collect();
    prop_assert!(map == rebuilt);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn detmap_grows_and_churns_over_hundreds_of_keys(wide in wide_steps()) {
        let (size, offset, ops) = wide;
        wide_map_matches_model(size, offset, &ops, |k| k)?;
    }

    #[test]
    fn detmap_with_colliding_hashes_grows_and_churns(wide in wide_steps()) {
        let (size, offset, ops) = wide;
        wide_map_matches_model(size, offset, &ops, Collide)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detmap_matches_insertion_ordered_vec(ops in steps()) {
        map_matches_model(&ops, |k| k)?;
    }

    #[test]
    fn detmap_with_colliding_hashes_matches_the_model(ops in steps()) {
        map_matches_model(&ops, collide)?;
    }

    #[test]
    fn detmap_equality_is_content_based(ops_a in steps(), ops_b in steps(), target in contents()) {
        map_equality_is_content_based(&ops_a, &ops_b, &target, |k| k)?;
        map_equality_is_content_based(&ops_a, &ops_b, &target, collide)?;
    }

    #[test]
    fn detset_matches_insertion_ordered_vec(ops in steps()) {
        set_matches_model(&ops, |k| k)?;
    }

    #[test]
    fn detset_with_colliding_hashes_matches_the_model(ops in steps()) {
        set_matches_model(&ops, collide)?;
    }

    #[test]
    fn detset_equality_is_content_based(ops_a in steps(), ops_b in steps(), target in contents()) {
        set_equality_is_content_based(&ops_a, &ops_b, &target, |k| k)?;
        set_equality_is_content_based(&ops_a, &ops_b, &target, collide)?;
    }
}
