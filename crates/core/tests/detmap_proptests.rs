//! Model-based test of `DetMap`: random insert/remove/get/entry/clear
//! sequences run against a naive insertion-ordered `Vec` model. Removal
//! tombstones slots and compacts them in batches, so the sequences are long
//! enough, over few enough keys, to cross many compactions.

use arbitree_core::{DetMap, DetSet};
use proptest::prelude::*;

/// One step: `(opcode, key, value)`. Few keys force overwrites and
/// re-insertions after removal.
fn steps() -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    proptest::collection::vec((0u8..10, 0u8..12, 0u32..1000), 0..300)
}

/// The reference: a `Vec` in insertion order with linear lookup.
#[derive(Default)]
struct Model(Vec<(u8, u32)>);

impl Model {
    fn pos(&self, k: u8) -> Option<usize> {
        self.0.iter().position(|&(mk, _)| mk == k)
    }

    fn insert(&mut self, k: u8, v: u32) -> Option<u32> {
        match self.pos(k) {
            Some(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
            None => {
                self.0.push((k, v));
                None
            }
        }
    }

    fn remove(&mut self, k: u8) -> Option<u32> {
        self.pos(k).map(|i| self.0.remove(i).1)
    }

    fn get(&self, k: u8) -> Option<u32> {
        self.pos(k).map(|i| self.0[i].1)
    }

    fn debug(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detmap_matches_insertion_ordered_vec(ops in steps()) {
        let mut map: DetMap<u8, u32> = DetMap::new();
        let mut model = Model::default();
        for (step, &(op, k, v)) in ops.iter().enumerate() {
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
            let order: Vec<(u8, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&order, &model.0, "order after step {}", step);
            prop_assert_eq!(format!("{map:?}"), model.debug(), "Debug after step {}", step);
            prop_assert_eq!(map.len(), model.0.len());
            prop_assert_eq!(map.is_empty(), model.0.is_empty());
            for key in 0u8..12 {
                prop_assert_eq!(map.contains_key(&key), model.pos(key).is_some());
            }
        }
        // Equality is content-based: a fresh map built in model order and
        // one built in reverse order both equal the tombstoned one.
        let fresh: DetMap<u8, u32> = model.0.iter().copied().collect();
        let reversed: DetMap<u8, u32> = model.0.iter().rev().copied().collect();
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
        let owned: Vec<(u8, u32)> = map.into_iter().collect();
        prop_assert_eq!(owned, model.0);
    }

    #[test]
    fn detset_matches_insertion_ordered_vec(ops in steps()) {
        let mut set: DetSet<u8> = DetSet::new();
        let mut model: Vec<u8> = Vec::new();
        for &(op, k, _) in &ops {
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
            let order: Vec<u8> = set.iter().copied().collect();
            prop_assert_eq!(&order, &model);
        }
        let body: Vec<String> = model.iter().map(u8::to_string).collect();
        prop_assert_eq!(format!("{set:?}"), format!("{{{}}}", body.join(", ")));
        let borrowed: Vec<u8> = (&set).into_iter().copied().collect();
        prop_assert_eq!(&borrowed, &model);
    }
}
