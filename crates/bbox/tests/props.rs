//! In-crate property tests for B-BOX mirroring the W-BOX suite: structural
//! invariants after arbitrary op scripts, including bulk subtree ops and
//! both fill policies.

use boxes_audit::Auditable;
use boxes_bbox::{BBox, BBoxConfig, FillPolicy};
use boxes_pager::{Pager, PagerConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum BOp {
    Insert(usize),
    Delete(usize),
    InsertSubtree(usize, usize),
    DeleteRange(usize, usize),
}

fn ops() -> impl Strategy<Value = Vec<BOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0usize..10_000).prop_map(BOp::Insert),
            2 => (0usize..10_000).prop_map(BOp::Delete),
            1 => ((0usize..10_000), (1usize..50)).prop_map(|(a, n)| BOp::InsertSubtree(a, n)),
            1 => ((0usize..10_000), (0usize..10_000)).prop_map(|(a, b)| BOp::DeleteRange(a, b)),
        ],
        1..70,
    )
}

fn run(mut b: BBox, script: &[BOp], audit_every_op: bool) {
    let mut order = b.bulk_load(80).unwrap();
    for op in script {
        match *op {
            BOp::Insert(raw) => {
                let at = raw % order.len();
                let new = b.insert_before(order[at]).unwrap();
                order.insert(at, new);
            }
            BOp::Delete(raw) => {
                if order.len() > 4 {
                    let at = raw % order.len();
                    b.delete(order.remove(at)).unwrap();
                }
            }
            BOp::InsertSubtree(raw, n) => {
                let at = raw % order.len();
                let lids = b.insert_subtree_before(order[at], n).unwrap();
                for (j, lid) in lids.into_iter().enumerate() {
                    order.insert(at + j, lid);
                }
            }
            BOp::DeleteRange(ra, rb) => {
                if order.len() < 6 {
                    continue;
                }
                let mut a = ra % order.len();
                let mut c = rb % order.len();
                if a > c {
                    std::mem::swap(&mut a, &mut c);
                }
                if a == c || c - a + 1 >= order.len() {
                    continue;
                }
                b.delete_subtree(order[a], order[c]).unwrap();
                order.drain(a..=c);
            }
        }
        if audit_every_op {
            // The non-panicking audit path: the report must come back empty
            // after every single op, not merely at the end of the script.
            let report = b.audit();
            assert!(report.is_clean(), "dirty after {op:?}:\n{report}");
        }
    }
    b.validate();
    assert_eq!(b.iter_lids().unwrap(), order);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn plain_bbox_invariants(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        run(BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap(), &script, false);
    }

    #[test]
    fn ordinal_bbox_invariants(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        run(
            BBox::new(pager, BBoxConfig::from_block_size(128).with_ordinal()).unwrap(),
            &script,
            false,
        );
    }

    #[test]
    fn quarter_fill_bbox_invariants(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        run(
            BBox::new(
                pager,
                BBoxConfig::from_block_size(128).with_fill(FillPolicy::Quarter),
            ).unwrap(),
            &script,
            false,
        );
    }

    #[test]
    fn invariants_hold_after_every_single_op(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        run(BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap(), &script, true);
    }
}
