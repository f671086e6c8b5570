//! Property-based tests: the B+tree must behave exactly like a model
//! `std::collections::BTreeMap` under arbitrary operation sequences, while
//! never violating its structural invariants.

use bionic_btree::tree::Footprint;
use bionic_btree::{BTree, StrKey, TreeKey};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u64),
    Remove(i64),
    Get(i64),
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Get),
    ]
}

/// One (value, footprint) per key from cursors advanced in lock-step: every
/// cursor moves one level per pass, the way the engine resolves probes
/// ahead. A batch of one is a plain cursor descent.
fn lockstep_get<K: TreeKey>(tree: &BTree<K>, keys: &[K]) -> Vec<(Option<u64>, Footprint)> {
    let mut state: Vec<_> = keys
        .iter()
        .map(|_| (tree.cursor(), Footprint::default()))
        .collect();
    for level in 1.. {
        let mut moved = 0;
        for (k, (cur, fp)) in keys.iter().zip(&mut state) {
            moved += tree.step(cur, k, fp) as usize;
        }
        if moved == 0 {
            break;
        }
        // One tree, so every cursor reaches its leaf in the same pass.
        assert_eq!(moved, keys.len(), "level {level}");
    }
    keys.iter()
        .zip(state)
        .map(|(k, (cur, mut fp))| (tree.finish(cur, k, &mut fp), fp))
        .collect()
}

/// Cursor descents against two references that share no code with them:
/// the `BTreeMap` model for the value, and the depth-first batched descent
/// run on the key alone for the footprint (`get` is itself a cursor
/// descent, so it can vouch for neither).
fn check_cursor_descents<K: TreeKey + std::fmt::Debug>(
    tree: &BTree<K>,
    model: &BTreeMap<K, u64>,
    probes: &[K],
) -> Result<(), TestCaseError> {
    let batch = lockstep_get(tree, probes);
    for (k, got) in probes.iter().zip(batch) {
        let (res, fp) = tree.batch_get(&mut [k.clone()]);
        prop_assert_eq!(got, (model.get(k).copied(), fp), "lock-step, key {:?}", k);
        prop_assert_eq!(res, vec![(k.clone(), got.0)]);
        let alone = lockstep_get(tree, std::slice::from_ref(k));
        prop_assert_eq!(alone, vec![got], "alone, key {:?}", k);
        prop_assert_eq!(tree.get(k), got, "get, key {:?}", k);
    }
    Ok(())
}

/// Grow a tree (splits), thin it out (borrows and merges), grow it again
/// over the holes; the model follows along.
fn churned_tree<K: TreeKey>(
    order: usize,
    rounds: [&[K]; 3],
) -> (BTree<K>, BTreeMap<K, u64>, Footprint) {
    let mut tree = BTree::with_order(order);
    let mut model = BTreeMap::new();
    let mut smo = Footprint::default();
    for (round, keys) in rounds.into_iter().enumerate() {
        for (i, k) in keys.iter().enumerate() {
            let fp = if round == 1 {
                model.remove(k);
                tree.remove(k).1
            } else {
                let v = (round * 1_000_000 + i) as u64;
                model.insert(k.clone(), v);
                tree.insert(k.clone(), v).1
            };
            smo.merge_from(fp);
        }
    }
    (tree, model, smo)
}

fn order_strategy() -> impl Strategy<Value = usize> {
    // Small orders make deep trees; the default 256 needs hundreds of keys
    // before its root splits at all.
    prop_oneof![4usize..8, 8usize..64, 64usize..=256]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cursor_descents_match_model_and_depth_first_footprint(
        order in order_strategy(),
        grow in prop::collection::vec(0i64..3000, 0..1500),
        thin in prop::collection::vec(0i64..3000, 0..1500),
        regrow in prop::collection::vec(0i64..3000, 0..400),
        probes in prop::collection::vec(-5i64..3005, 1..48),
    ) {
        let (tree, model, _) = churned_tree(order, [&grow, &thin, &regrow]);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        check_cursor_descents(&tree, &model, &probes)?;
    }

    #[test]
    fn cursor_descents_match_for_string_keys(
        order in 4usize..48,
        grow in prop::collection::vec("[a-c]{0,20}", 0..500),
        thin in prop::collection::vec("[a-c]{0,20}", 0..500),
        regrow in prop::collection::vec("[a-c]{0,20}", 0..150),
        probes in prop::collection::vec("[a-d]{0,20}", 1..32),
    ) {
        let keys = |v: &[String]| v.iter().map(|s| StrKey::from(s.as_str())).collect::<Vec<_>>();
        let (tree, model, _) = churned_tree(order, [&keys(&grow), &keys(&thin), &keys(&regrow)]);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        check_cursor_descents(&tree, &model, &keys(&probes))?;
    }

    #[test]
    fn matches_model_btreemap(
        ops in prop::collection::vec(op_strategy(200), 1..400),
        order in 4usize..32,
    ) {
        let mut tree = BTree::with_order(order);
        let mut model: BTreeMap<i64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let (old, _) = tree.insert(k, v);
                    prop_assert_eq!(old, model.insert(k, v));
                }
                Op::Remove(k) => {
                    let (old, _) = tree.remove(&k);
                    prop_assert_eq!(old, model.remove(&k));
                }
                Op::Get(k) => {
                    let (got, _) = tree.get(&k);
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        // Full scan must agree with the model's ordered iteration.
        let mut scanned = Vec::new();
        tree.scan_all(|k, v| scanned.push((*k, v)));
        let expected: Vec<(i64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn range_matches_model(
        entries in prop::collection::btree_map(0i64..1000, any::<u64>(), 0..300),
        lo in 0i64..1000,
        width in 0i64..200,
        order in 4usize..16,
    ) {
        let mut tree = BTree::with_order(order);
        for (&k, &v) in &entries {
            tree.insert(k, v);
        }
        let hi = lo + width;
        let mut got = Vec::new();
        tree.range(&lo, &hi, |k, v| got.push((*k, v)));
        let expected: Vec<(i64, u64)> =
            entries.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bulk_load_equals_incremental_build(
        entries in prop::collection::btree_map(0i64..10_000, any::<u64>(), 0..500),
        order in 4usize..64,
        fill in 0.4f64..1.0,
    ) {
        let pairs: Vec<(i64, u64)> = entries.iter().map(|(&k, &v)| (k, v)).collect();
        let bulk = BTree::bulk_load(pairs.clone(), order, fill);
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(bulk.len(), pairs.len());
        for (k, v) in &pairs {
            prop_assert_eq!(bulk.get(k).0, Some(*v));
        }
    }

    #[test]
    fn string_keys_match_model(
        ops in prop::collection::vec(
            prop_oneof![
                ("[a-z]{0,12}", any::<u64>()).prop_map(|(k, v)| (k, Some(v))),
                "[a-z]{0,12}".prop_map(|k| (k, None)),
            ],
            1..200,
        ),
    ) {
        let mut tree: BTree<StrKey> = BTree::with_order(8);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, v) in ops {
            let key = StrKey::new(k.clone().into_bytes());
            match v {
                Some(v) => {
                    let (old, _) = tree.insert(key, v);
                    prop_assert_eq!(old, model.insert(k.into_bytes(), v));
                }
                None => {
                    let (old, _) = tree.remove(&key);
                    prop_assert_eq!(old, model.remove(k.as_bytes()));
                }
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn batch_get_matches_pointwise_gets(
        entries in prop::collection::btree_map(0i64..2000, any::<u64>(), 0..400),
        probes in prop::collection::vec(0i64..2500, 0..200),
        order in 4usize..32,
    ) {
        let mut tree = BTree::with_order(order);
        for (&k, &v) in &entries {
            tree.insert(k, v);
        }
        let mut keys = probes.clone();
        let (results, _) = tree.batch_get(&mut keys);
        // One result per distinct probe, in key order.
        let mut unique = probes.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(
            results.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            unique
        );
        for (k, v) in results {
            prop_assert_eq!(v, entries.get(&k).copied());
        }
    }

    #[test]
    fn footprints_are_bounded_by_height(
        n in 1usize..2000,
        probe in 0i64..5000,
    ) {
        let mut tree = BTree::with_order(16);
        for i in 0..n as i64 {
            tree.insert(i * 3, i as u64);
        }
        let (_, fp) = tree.get(&probe);
        prop_assert_eq!(fp.nodes_visited(), tree.height());
        prop_assert_eq!(fp.leaves_visited, 1);
        prop_assert_eq!(fp.inner_visited, tree.height() - 1);
    }
}

/// The churn the cursor properties build their trees with does reach every
/// structural modification, at a small order and at the default one.
#[test]
fn churned_trees_split_borrow_and_merge() {
    for order in [4, 256] {
        let grow: Vec<i64> = (0..3000).map(|i| i * 7 % 3000).collect();
        let thin: Vec<i64> = (0..3000).filter(|i| i % 5 != 0).collect();
        let regrow: Vec<i64> = (0..3000).step_by(3).collect();
        let (tree, model, smo) = churned_tree(order, [&grow, &thin, &regrow]);
        tree.check_invariants().unwrap();
        assert!(
            smo.splits > 0 && smo.borrows > 0 && smo.merges > 0,
            "order {order}: {smo:?}"
        );
        assert!(tree.height() > 1, "order {order}");
        let probes: Vec<i64> = (-2..3002).collect();
        check_cursor_descents(&tree, &model, &probes).unwrap();
    }
}
