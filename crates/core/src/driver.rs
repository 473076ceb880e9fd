//! Replaying XML update streams against a labeling scheme.

#![expect(
    clippy::expect_used,
    reason = "the driver only replays ids it minted; a deleted-slot hit is a harness bug"
)]

use crate::scheme::LabelingScheme;
use boxes_lidf::Lid;
use boxes_pager::IoStats;
use boxes_xml::tags::{tag_sequence, TagKind};
use boxes_xml::tree::XmlTree;
use boxes_xml::workload::{Anchor, ElemRef, Op};

/// Map a document's tag sequence to the `partner_of` form the schemes
/// consume: `partner_of[i]` is the index of tag i's element's other tag.
pub fn partner_map(tree: &XmlTree) -> Vec<usize> {
    let seq = tag_sequence(tree);
    let mut start_at = std::collections::HashMap::new();
    let mut partner = vec![0usize; seq.len()];
    for (i, tag) in seq.iter().enumerate() {
        match tag.kind {
            TagKind::Start => {
                start_at.insert(tag.element, i);
            }
            TagKind::End => {
                let s = start_at[&tag.element];
                partner[s] = i;
                partner[i] = s;
            }
        }
    }
    partner
}

/// Per-element LID table for a replayed stream: element `ElemRef(i)` maps
/// to its (start, end) LIDs; deleted elements become `None`.
type ElemTable = Vec<Option<(Lid, Lid)>>;

/// Drives an [`boxes_xml::workload::UpdateStream`] against any scheme,
/// recording per-operation I/O — the measurement loop behind every figure
/// in §7.
pub struct DocumentDriver<S: LabelingScheme> {
    /// The scheme under test.
    pub scheme: S,
    elems: ElemTable,
}

impl<S: LabelingScheme> DocumentDriver<S> {
    /// Bulk-load `base` into a fresh scheme.
    pub fn load(mut scheme: S, base: &XmlTree) -> Self {
        let partner = partner_map(base);
        let lids = scheme.bulk_load_document(&partner);
        let seq = tag_sequence(base);
        // Elements are numbered in document order of start tags.
        let order = base.document_order();
        let index_of: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let mut elems: ElemTable = vec![None; order.len()];
        let mut starts = vec![Lid::INVALID; order.len()];
        for (i, tag) in seq.iter().enumerate() {
            let e = index_of[&tag.element];
            match tag.kind {
                TagKind::Start => starts[e] = lids[i],
                TagKind::End => elems[e] = Some((starts[e], lids[i])),
            }
        }
        DocumentDriver { scheme, elems }
    }

    /// LIDs of an element.
    pub fn element(&self, r: ElemRef) -> (Lid, Lid) {
        self.elems[r.0].expect("element was deleted")
    }

    /// Number of known (live or deleted) element slots.
    pub fn element_count(&self) -> usize {
        self.elems.len()
    }

    fn anchor_lid(&self, anchor: Anchor) -> Lid {
        match anchor {
            Anchor::BeforeStart(r) => self.element(r).0,
            Anchor::BeforeEnd(r) => self.element(r).1,
        }
    }

    /// Apply one operation.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::InsertElement { anchor } => {
                let lid = self.anchor_lid(*anchor);
                let pair = self.scheme.insert_element_before(lid);
                self.elems.push(Some(pair));
            }
            Op::DeleteElement { elem } => {
                let (s, e) = self.element(*elem);
                self.scheme.delete(s);
                self.scheme.delete(e);
                self.elems[elem.0] = None;
            }
            Op::InsertSubtree { anchor, tree } => {
                let lid = self.anchor_lid(*anchor);
                let partner = partner_map(tree);
                let lids = self.scheme.insert_subtree_before(lid, &partner);
                // Register the new elements in document order of the
                // subtree's start tags.
                let seq = tag_sequence(tree);
                let order = tree.document_order();
                let index_of: std::collections::HashMap<_, _> =
                    order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                let base = self.elems.len();
                self.elems.extend(std::iter::repeat_n(None, order.len()));
                let mut starts = vec![Lid::INVALID; order.len()];
                for (i, tag) in seq.iter().enumerate() {
                    let e = index_of[&tag.element];
                    match tag.kind {
                        TagKind::Start => starts[e] = lids[i],
                        TagKind::End => self.elems[base + e] = Some((starts[e], lids[i])),
                    }
                }
            }
            Op::DeleteSubtree { elem, removed } => {
                let (s, e) = self.element(*elem);
                self.scheme.delete_subtree(s, e);
                for r in removed {
                    self.elems[r.0] = None;
                }
                self.elems[elem.0] = None;
            }
        }
    }

    /// Apply a sequence of ops, returning each op's I/O cost.
    pub fn replay(&mut self, ops: &[Op]) -> Vec<u64> {
        let pager = self.scheme.pager().clone();
        ops.iter()
            .map(|op| {
                let before = pager.stats();
                self.apply(op);
                pager.stats().since(&before).total()
            })
            .collect()
    }

    /// Apply a sequence of ops, returning only the aggregate I/O.
    pub fn replay_total(&mut self, ops: &[Op]) -> IoStats {
        let pager = self.scheme.pager().clone();
        let before = pager.stats();
        for op in ops {
            self.apply(op);
        }
        pager.stats().since(&before)
    }

    /// Assert that label order equals document order for every live
    /// element (the oracle used by the integration tests).
    pub fn verify_document_order(&self) {
        let mut labels: Vec<(S::Label, Lid)> = Vec::new();
        for pair in self.elems.iter().flatten() {
            labels.push((self.scheme.lookup(pair.0), pair.0));
            labels.push((self.scheme.lookup(pair.1), pair.1));
        }
        let mut sorted = labels.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        // Labels must be unique...
        for w in sorted.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate labels: {:?}", w[0].0);
        }
        // ...and nesting must be proper: start < end for each element, and
        // element intervals either nest or are disjoint.
        for pair in self.elems.iter().flatten() {
            let s = self.scheme.lookup(pair.0);
            let e = self.scheme.lookup(pair.1);
            assert!(s < e, "start/end inverted for {pair:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BBoxScheme, NaiveScheme, WBoxScheme};
    use boxes_xml::generate::xmark;
    use boxes_xml::workload::{
        concentrated, concentrated_bulk, insert_delete_churn_with_prefill, scattered,
    };

    #[test]
    fn partner_map_is_involution() {
        let doc = xmark(300, 5);
        let p = partner_map(&doc);
        assert_eq!(p.len(), 2 * doc.len());
        for (i, &j) in p.iter().enumerate() {
            assert_eq!(p[j], i);
            assert_ne!(i, j);
        }
    }

    fn drive<S: LabelingScheme>(scheme: S) {
        let stream = concentrated(200, 60);
        let mut driver = DocumentDriver::load(scheme, &stream.base);
        let costs = driver.replay(&stream.ops);
        assert_eq!(costs.len(), 60);
        assert!(costs.iter().all(|&c| c > 0), "every op costs I/O");
        driver.verify_document_order();
    }

    #[test]
    fn concentrated_stream_on_all_schemes() {
        drive(WBoxScheme::with_block_size(1024));
        drive(BBoxScheme::with_block_size(256));
        drive(NaiveScheme::with_block_size(256, 6));
    }

    #[test]
    fn scattered_stream_keeps_order() {
        let stream = scattered(500, 80);
        let mut driver = DocumentDriver::load(BBoxScheme::with_block_size(256), &stream.base);
        driver.replay(&stream.ops);
        driver.verify_document_order();
    }

    #[test]
    fn churn_stream_with_deletes() {
        let stream = insert_delete_churn_with_prefill(100, 50, 40);
        let mut driver = DocumentDriver::load(WBoxScheme::with_block_size(1024), &stream.base);
        driver.replay(&stream.ops);
        assert_eq!(driver.scheme.len(), 2 * (101 + 40));
        driver.verify_document_order();
    }

    #[test]
    fn bulk_subtree_stream() {
        let stream = concentrated_bulk(400, 150);
        let mut driver = DocumentDriver::load(BBoxScheme::with_block_size(256), &stream.base);
        let total = driver.replay_total(&stream.ops);
        assert!(total.total() > 0);
        assert_eq!(driver.scheme.len(), 2 * (401 + 150));
        driver.verify_document_order();
    }

    #[test]
    fn bulk_insert_beats_element_at_a_time() {
        let single = concentrated(400, 150);
        let mut d1 = DocumentDriver::load(WBoxScheme::with_block_size(1024), &single.base);
        let cost_single: u64 = d1.replay(&single.ops).iter().sum();

        let bulk = concentrated_bulk(400, 150);
        let mut d2 = DocumentDriver::load(WBoxScheme::with_block_size(1024), &bulk.base);
        let cost_bulk = d2.replay_total(&bulk.ops).total();
        assert!(
            cost_bulk * 2 < cost_single,
            "bulk {cost_bulk} vs single {cost_single}"
        );
        assert_eq!(d1.scheme.len(), d2.scheme.len());
    }

    #[test]
    fn xmark_document_order_stream() {
        let doc = xmark(2_000, 9);
        let stream = boxes_xml::workload::document_order(&doc, 500);
        let mut driver = DocumentDriver::load(WBoxScheme::with_block_size(1024), &stream.base);
        let costs = driver.replay(&stream.ops);
        assert_eq!(costs.len(), doc.len() - 1);
        driver.verify_document_order();
        assert_eq!(driver.scheme.len(), 2 * doc.len() as u64);
    }
}
