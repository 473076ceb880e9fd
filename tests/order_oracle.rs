//! The order-consistency oracle: under *arbitrary* update sequences, every
//! scheme's labels must sort exactly like the document's tag order — the
//! definition of a valid labeling (§3).
//!
//! Property-based: proptest generates op sequences (single-element inserts
//! at random anchors, deletes of random live elements), we replay them on a
//! reference model (a plain ordered list of tag ids) and on each scheme,
//! then compare orders.

use boxes_core::bbox::BBoxConfig;
use boxes_core::lidf::Lid;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{BBoxScheme, LabelingScheme, NaiveScheme, WBoxScheme};
use proptest::prelude::*;

/// An abstract op on tag positions: values are indices into the *current*
/// live tag list (modulo its length at application time).
#[derive(Clone, Debug)]
enum TagOp {
    /// Insert a new label before the tag at this (wrapped) index.
    InsertBefore(usize),
    /// Insert a start/end pair before the tag at this index.
    InsertElement(usize),
    /// Delete the tag at this index (only applied when > 2 tags remain).
    Delete(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<TagOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..10_000).prop_map(TagOp::InsertBefore),
            (0usize..10_000).prop_map(TagOp::InsertElement),
            (0usize..10_000).prop_map(TagOp::Delete),
        ],
        1..120,
    )
}

/// Replay the ops on a scheme while maintaining the expected order as a
/// plain vector of LIDs, then check the scheme agrees.
fn check_scheme<S: LabelingScheme>(mut scheme: S, initial: usize, ops: &[TagOp]) {
    // partner map for a flat run of `initial/2` sibling elements.
    let partner: Vec<usize> = (0..initial).map(|i| i ^ 1).collect();
    let mut order: Vec<Lid> = scheme.bulk_load_document(&partner);
    for op in ops {
        match op {
            TagOp::InsertBefore(raw) => {
                let at = raw % order.len();
                let new = scheme.try_insert_before(order[at]).unwrap();
                order.insert(at, new);
            }
            TagOp::InsertElement(raw) => {
                let at = raw % order.len();
                let (s, e) = scheme.try_insert_element_before(order[at]).unwrap();
                order.insert(at, e);
                order.insert(at, s);
            }
            TagOp::Delete(raw) => {
                if order.len() > 2 {
                    let at = raw % order.len();
                    let lid = order.remove(at);
                    scheme.try_delete(lid).unwrap();
                }
            }
        }
    }
    assert_eq!(scheme.len(), order.len() as u64);
    let labels: Vec<S::Label> = order
        .iter()
        .map(|&l| scheme.try_lookup(l).unwrap())
        .collect();
    for (i, w) in labels.windows(2).enumerate() {
        assert!(
            w[0] < w[1],
            "{}: order violated between positions {} and {}",
            scheme.name(),
            i,
            i + 1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wbox_matches_reference_order(ops in ops_strategy()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        check_scheme(
            WBoxScheme::new(pager, WBoxConfig::small_for_tests()),
            40,
            &ops,
        );
    }

    #[test]
    fn wbox_ordinal_matches_reference_order(ops in ops_strategy()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        check_scheme(
            WBoxScheme::new(pager, WBoxConfig::small_for_tests().with_ordinal()),
            40,
            &ops,
        );
    }

    #[test]
    fn bbox_matches_reference_order(ops in ops_strategy()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        check_scheme(
            BBoxScheme::new(pager, BBoxConfig::from_block_size(128)),
            40,
            &ops,
        );
    }

    #[test]
    fn bbox_ordinal_matches_reference_order(ops in ops_strategy()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        check_scheme(
            BBoxScheme::new(pager, BBoxConfig::from_block_size(128).with_ordinal()),
            40,
            &ops,
        );
    }

    #[test]
    fn naive_matches_reference_order(ops in ops_strategy()) {
        check_scheme(NaiveScheme::with_block_size(256, 3), 40, &ops);
    }

    #[test]
    fn ordinal_labels_equal_positions(ops in ops_strategy()) {
        use boxes_core::OrdinalScheme;
        let pager = Pager::new(PagerConfig::with_block_size(128));
        let mut scheme = BBoxScheme::new(
            pager,
            BBoxConfig::from_block_size(128).with_ordinal(),
        );
        let partner: Vec<usize> = (0..30).map(|i| i ^ 1).collect();
        let mut order: Vec<Lid> = scheme.bulk_load_document(&partner);
        for op in &ops {
            match op {
                TagOp::InsertBefore(raw) | TagOp::InsertElement(raw) => {
                    let at = raw % order.len();
                    let new = scheme.try_insert_before(order[at]).unwrap();
                    order.insert(at, new);
                }
                TagOp::Delete(raw) => {
                    if order.len() > 2 {
                        let at = raw % order.len();
                        let lid = order.remove(at);
                        scheme.try_delete(lid).unwrap();
                    }
                }
            }
        }
        // Every ordinal label is the exact position.
        for (i, &lid) in order.iter().enumerate() {
            prop_assert_eq!(scheme.ordinal_of(lid).unwrap(), i as u64);
        }
    }
}

/// Structural invariants hold after every proptest-shaped workload too;
/// spot-check with a fixed heavy sequence (cheaper than validating inside
/// the property).
#[test]
fn invariants_after_heavy_mixed_workload() {
    let pager = Pager::new(PagerConfig::with_block_size(512));
    let mut w = WBoxScheme::new(pager, WBoxConfig::small_for_tests());
    let partner: Vec<usize> = (0..100).map(|i| i ^ 1).collect();
    let mut order = w.bulk_load_document(&partner);
    for round in 0usize..3_000 {
        match round % 5 {
            0..=2 => {
                let at = (round * 31) % order.len();
                let new = w.try_insert_before(order[at]).unwrap();
                order.insert(at, new);
            }
            3 => {
                let at = (round * 17) % order.len();
                let new = w.try_insert_before(order[at]).unwrap();
                order.insert(at, new);
            }
            _ => {
                if order.len() > 2 {
                    let at = (round * 13) % order.len();
                    w.try_delete(order.remove(at)).unwrap();
                }
            }
        }
    }
    w.inner().validate();

    let pager = Pager::new(PagerConfig::with_block_size(128));
    let mut b = BBoxScheme::new(pager, BBoxConfig::from_block_size(128).with_ordinal());
    let mut order = b.bulk_load_document(&(0..100).map(|i| i ^ 1).collect::<Vec<_>>());
    for round in 0usize..3_000 {
        if round % 3 == 2 && order.len() > 2 {
            let at = (round * 13) % order.len();
            b.try_delete(order.remove(at)).unwrap();
        } else {
            let at = (round * 31) % order.len();
            let new = b.try_insert_before(order[at]).unwrap();
            order.insert(at, new);
        }
    }
    b.inner().validate();
}
