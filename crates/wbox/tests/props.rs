//! In-crate property tests for W-BOX: every §4 invariant must hold after
//! arbitrary op sequences (checked by `WBox::validate`, which verifies
//! weight bounds, range assignment, label order, LIDF pointers, and — in
//! the respective modes — size fields and pair caches).

use boxes_audit::Auditable;
use boxes_pager::{Pager, PagerConfig};
use boxes_wbox::{WBox, WBoxConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum WOp {
    Insert(usize),
    InsertElement(usize),
    Delete(usize),
    InsertSubtree(usize, usize),
    DeleteRange(usize, usize),
}

fn ops() -> impl Strategy<Value = Vec<WOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..10_000).prop_map(WOp::Insert),
            3 => (0usize..10_000).prop_map(WOp::InsertElement),
            2 => (0usize..10_000).prop_map(WOp::Delete),
            1 => ((0usize..10_000), (1usize..40)).prop_map(|(a, n)| WOp::InsertSubtree(a, n)),
            1 => ((0usize..10_000), (0usize..10_000)).prop_map(|(a, b)| WOp::DeleteRange(a, b)),
        ],
        1..60,
    )
}

fn run(mut w: WBox, script: &[WOp], audit_every_op: bool) {
    let mut order = w.bulk_load(80).unwrap();
    for op in script {
        match *op {
            WOp::Insert(raw) => {
                let at = raw % order.len();
                let new = w.insert_before(order[at]).unwrap();
                order.insert(at, new);
            }
            WOp::InsertElement(raw) => {
                let at = raw % order.len();
                let (s, e) = w.insert_element_before(order[at]).unwrap();
                order.insert(at, e);
                order.insert(at, s);
            }
            WOp::Delete(raw) => {
                if order.len() > 4 {
                    let at = raw % order.len();
                    w.delete(order.remove(at)).unwrap();
                }
            }
            WOp::InsertSubtree(raw, n) => {
                let at = raw % order.len();
                let lids = w.insert_subtree_before(order[at], n).unwrap();
                for (j, lid) in lids.into_iter().enumerate() {
                    order.insert(at + j, lid);
                }
            }
            WOp::DeleteRange(ra, rb) => {
                if order.len() < 6 {
                    continue;
                }
                let mut a = ra % order.len();
                let mut b = rb % order.len();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                if a == b || b - a + 1 >= order.len() {
                    continue;
                }
                w.delete_subtree(order[a], order[b]).unwrap();
                order.drain(a..=b);
            }
        }
        if audit_every_op {
            // The non-panicking audit path: the report must come back empty
            // after every single op, not merely at the end of the script.
            let report = w.audit();
            assert!(report.is_clean(), "dirty after {op:?}:\n{report}");
        }
    }
    w.validate();
    assert_eq!(w.iter_lids().unwrap(), order);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plain_wbox_invariants(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        run(WBox::new(pager, WBoxConfig::small_for_tests()).unwrap(), &script, false);
    }

    #[test]
    fn ordinal_wbox_invariants(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        run(
            WBox::new(pager, WBoxConfig::small_for_tests().with_ordinal()).unwrap(),
            &script,
            false,
        );
    }

    #[test]
    fn invariants_hold_after_every_single_op(script in ops()) {
        // Smaller case count would be nice but the scripts are short.
        let pager = Pager::new(PagerConfig::with_block_size(512));
        run(WBox::new(pager, WBoxConfig::small_for_tests()).unwrap(), &script, true);
    }
}
