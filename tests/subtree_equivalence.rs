//! Bulk subtree operations must be *observationally identical* to their
//! element-at-a-time equivalents — same final document order, same live
//! LIDs — they may only differ in cost. Property-tested for both BOXes.

use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::{WBox, WBoxConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum BulkOp {
    /// Insert a subtree of this many tags before the tag at the index.
    Insert(usize, usize),
    /// Delete the contiguous range [i, j] (wrapped, swapped into order).
    Delete(usize, usize),
}

fn bulk_ops() -> impl Strategy<Value = Vec<BulkOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0usize..1_000), (1usize..60)).prop_map(|(a, n)| BulkOp::Insert(a, n)),
            ((0usize..1_000), (0usize..1_000)).prop_map(|(a, b)| BulkOp::Delete(a, b)),
        ],
        1..12,
    )
}

trait Subject {
    fn bulk(&mut self, n: usize) -> Vec<boxes_core::lidf::Lid>;
    fn ins_one(&mut self, before: boxes_core::lidf::Lid) -> boxes_core::lidf::Lid;
    fn ins_tree(&mut self, before: boxes_core::lidf::Lid, n: usize) -> Vec<boxes_core::lidf::Lid>;
    fn del_one(&mut self, lid: boxes_core::lidf::Lid);
    fn del_tree(&mut self, a: boxes_core::lidf::Lid, b: boxes_core::lidf::Lid);
    fn order(&self) -> Vec<boxes_core::lidf::Lid>;
    fn validate(&self);
}

impl Subject for WBox {
    fn bulk(&mut self, n: usize) -> Vec<boxes_core::lidf::Lid> {
        self.bulk_load(n).unwrap()
    }
    fn ins_one(&mut self, before: boxes_core::lidf::Lid) -> boxes_core::lidf::Lid {
        self.insert_before(before).unwrap()
    }
    fn ins_tree(&mut self, before: boxes_core::lidf::Lid, n: usize) -> Vec<boxes_core::lidf::Lid> {
        self.insert_subtree_before(before, n).unwrap()
    }
    fn del_one(&mut self, lid: boxes_core::lidf::Lid) {
        self.delete(lid).unwrap()
    }
    fn del_tree(&mut self, a: boxes_core::lidf::Lid, b: boxes_core::lidf::Lid) {
        self.delete_subtree(a, b).unwrap()
    }
    fn order(&self) -> Vec<boxes_core::lidf::Lid> {
        self.iter_lids().unwrap()
    }
    fn validate(&self) {
        WBox::validate(self)
    }
}

impl Subject for BBox {
    fn bulk(&mut self, n: usize) -> Vec<boxes_core::lidf::Lid> {
        self.bulk_load(n).unwrap()
    }
    fn ins_one(&mut self, before: boxes_core::lidf::Lid) -> boxes_core::lidf::Lid {
        self.insert_before(before).unwrap()
    }
    fn ins_tree(&mut self, before: boxes_core::lidf::Lid, n: usize) -> Vec<boxes_core::lidf::Lid> {
        self.insert_subtree_before(before, n).unwrap()
    }
    fn del_one(&mut self, lid: boxes_core::lidf::Lid) {
        self.delete(lid).unwrap()
    }
    fn del_tree(&mut self, a: boxes_core::lidf::Lid, b: boxes_core::lidf::Lid) {
        self.delete_subtree(a, b).unwrap()
    }
    fn order(&self) -> Vec<boxes_core::lidf::Lid> {
        self.iter_lids().unwrap()
    }
    fn validate(&self) {
        BBox::validate(self)
    }
}

/// Run the script twice — bulk ops vs loops of single ops — and compare the
/// *positions* of surviving original labels (LID values differ between the
/// two runs, so compare by position bookkeeping).
fn run_script<S: Subject>(mut subject: S, ops: &[BulkOp], use_bulk: bool) -> (Vec<usize>, S) {
    // Track a parallel "identity" vector: each live tag carries the id it
    // was born with (original load ids 0.., inserted ids 10_000+i).
    let lids = subject.bulk(100);
    let mut order: Vec<(boxes_core::lidf::Lid, usize)> =
        lids.into_iter().enumerate().map(|(i, l)| (l, i)).collect();
    let mut next_id = 10_000usize;
    for op in ops {
        match *op {
            BulkOp::Insert(raw, n) => {
                let at = raw % order.len();
                let before = order[at].0;
                let new = if use_bulk {
                    subject.ins_tree(before, n)
                } else {
                    (0..n).map(|_| subject.ins_one(before)).collect()
                };
                for (j, lid) in new.into_iter().enumerate() {
                    order.insert(at + j, (lid, next_id + j));
                }
                next_id += n;
            }
            BulkOp::Delete(ra, rb) => {
                if order.len() < 4 {
                    continue;
                }
                let mut a = ra % order.len();
                let mut b = rb % order.len();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                if a == b {
                    continue;
                }
                // Never delete everything.
                if b - a + 1 >= order.len() {
                    b = a + order.len() - 2;
                }
                if use_bulk {
                    subject.del_tree(order[a].0, order[b].0);
                } else {
                    for &(lid, _) in &order[a..=b] {
                        subject.del_one(lid);
                    }
                }
                order.drain(a..=b);
            }
        }
    }
    subject.validate();
    // Scheme's own order must match our bookkeeping.
    let got: Vec<boxes_core::lidf::Lid> = subject.order();
    let expect: Vec<boxes_core::lidf::Lid> = order.iter().map(|&(l, _)| l).collect();
    assert_eq!(got, expect, "scheme order diverged from bookkeeping");
    (order.into_iter().map(|(_, id)| id).collect(), subject)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wbox_bulk_equals_single(ops in bulk_ops()) {
        let mk = || {
            let pager = Pager::new(PagerConfig::with_block_size(512));
            WBox::new(pager, WBoxConfig::small_for_tests()).unwrap()
        };
        let (bulk_ids, _) = run_script(mk(), &ops, true);
        let (single_ids, _) = run_script(mk(), &ops, false);
        prop_assert_eq!(bulk_ids, single_ids);
    }

    #[test]
    fn bbox_bulk_equals_single(ops in bulk_ops()) {
        let mk = || {
            let pager = Pager::new(PagerConfig::with_block_size(128));
            BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap()
        };
        let (bulk_ids, _) = run_script(mk(), &ops, true);
        let (single_ids, _) = run_script(mk(), &ops, false);
        prop_assert_eq!(bulk_ids, single_ids);
    }

    #[test]
    fn wbox_ordinal_bulk_equals_single(ops in bulk_ops()) {
        let mk = || {
            let pager = Pager::new(PagerConfig::with_block_size(512));
            WBox::new(pager, WBoxConfig::small_for_tests().with_ordinal()).unwrap()
        };
        let (bulk_ids, subject) = run_script(mk(), &ops, true);
        for (i, lid) in subject.iter_lids().unwrap().into_iter().enumerate() {
            prop_assert_eq!(subject.ordinal_of(lid).unwrap(), i as u64);
        }
        let (single_ids, _) = run_script(mk(), &ops, false);
        prop_assert_eq!(bulk_ids, single_ids);
    }

    #[test]
    fn bbox_ordinal_bulk_equals_single(ops in bulk_ops()) {
        let mk = || {
            let pager = Pager::new(PagerConfig::with_block_size(128));
            BBox::new(pager, BBoxConfig::from_block_size(128).with_ordinal()).unwrap()
        };
        let (bulk_ids, subject) = run_script(mk(), &ops, true);
        for (i, lid) in subject.iter_lids().unwrap().into_iter().enumerate() {
            prop_assert_eq!(subject.ordinal_of(lid).unwrap(), i as u64);
        }
        let (single_ids, _) = run_script(mk(), &ops, false);
        prop_assert_eq!(bulk_ids, single_ids);
    }
}
