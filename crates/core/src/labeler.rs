//! Element-centric labeling API: the layer an XML query processor talks to.

#![expect(
    clippy::expect_used,
    reason = "label/unlabel are paired by the driver contract: every looked-up element was labeled first"
)]

use crate::driver::partner_map;
use crate::scheme::{LabelingScheme, OrdinalScheme};
use boxes_lidf::Lid;
use boxes_pager::IoResult;
use boxes_xml::tags::{tag_sequence, TagKind};
use boxes_xml::tree::{ElementId, XmlTree};
use std::collections::HashMap;

/// Maintains the element ↔ label mapping for a live [`XmlTree`] on top of
/// any [`LabelingScheme`], and answers the structural predicates order-based
/// labels exist for (§1/§3).
pub struct ElementLabeler<S: LabelingScheme> {
    /// The scheme holding the labels.
    pub scheme: S,
    lids: HashMap<ElementId, (Lid, Lid)>,
}

impl<S: LabelingScheme> ElementLabeler<S> {
    /// Bulk-load the document into a fresh scheme.
    pub fn load(mut scheme: S, tree: &XmlTree) -> IoResult<Self> {
        let partner = partner_map(tree);
        let lids = scheme.try_bulk_load_document(&partner)?;
        let seq = tag_sequence(tree);
        let mut map: HashMap<ElementId, (Lid, Lid)> = HashMap::with_capacity(tree.len());
        let mut starts: HashMap<ElementId, Lid> = HashMap::new();
        for (i, tag) in seq.iter().enumerate() {
            match tag.kind {
                TagKind::Start => {
                    starts.insert(tag.element, lids[i]);
                }
                TagKind::End => {
                    map.insert(tag.element, (starts[&tag.element], lids[i]));
                }
            }
        }
        Ok(ElementLabeler { scheme, lids: map })
    }

    /// The LIDs of an element's start and end labels.
    pub fn lids(&self, e: ElementId) -> (Lid, Lid) {
        *self.lids.get(&e).expect("element not labeled")
    }

    /// The element's current (start, end) labels.
    pub fn labels(&self, e: ElementId) -> IoResult<(S::Label, S::Label)> {
        let (s, x) = self.lids(e);
        Ok((self.scheme.try_lookup(s)?, self.scheme.try_lookup(x)?))
    }

    /// Register an element inserted into the tree as a previous sibling of
    /// `sibling` (mirror of [`XmlTree::insert_before`]).
    pub fn on_insert_before(&mut self, new: ElementId, sibling: ElementId) -> IoResult<()> {
        let anchor = self.lids(sibling).0;
        let pair = self.scheme.try_insert_element_before(anchor)?;
        self.lids.insert(new, pair);
        Ok(())
    }

    /// Register an element appended as the last child of `parent`.
    pub fn on_add_child(&mut self, new: ElementId, parent: ElementId) -> IoResult<()> {
        let anchor = self.lids(parent).1;
        let pair = self.scheme.try_insert_element_before(anchor)?;
        self.lids.insert(new, pair);
        Ok(())
    }

    /// Register the deletion of a single element (children were promoted).
    pub fn on_remove_element(&mut self, e: ElementId) -> IoResult<()> {
        let (s, x) = self.lids.remove(&e).expect("element not labeled");
        self.scheme.try_delete(s)?;
        self.scheme.try_delete(x)
    }

    /// Register a bulk subtree insertion: `subtree`'s root becomes the
    /// previous sibling of `sibling`. Returns nothing; all subtree elements
    /// are labeled. `ids` must list the subtree elements in document order
    /// (as produced by [`XmlTree::document_order`] on the subtree).
    pub fn on_insert_subtree_before(
        &mut self,
        subtree: &XmlTree,
        ids: &[ElementId],
        sibling: ElementId,
    ) -> IoResult<()> {
        let anchor = self.lids(sibling).0;
        let partner = partner_map(subtree);
        let lids = self.scheme.try_insert_subtree_before(anchor, &partner)?;
        let seq = tag_sequence(subtree);
        let order = subtree.document_order();
        let index_of: HashMap<_, _> = order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let mut starts = vec![Lid::INVALID; order.len()];
        for (i, tag) in seq.iter().enumerate() {
            let e = index_of[&tag.element];
            match tag.kind {
                TagKind::Start => starts[e] = lids[i],
                TagKind::End => {
                    self.lids.insert(ids[e], (starts[e], lids[i]));
                }
            }
        }
        Ok(())
    }

    /// Register a bulk subtree deletion rooted at `root`; `descendants`
    /// lists every removed element (including `root`).
    pub fn on_remove_subtree(
        &mut self,
        root: ElementId,
        descendants: &[ElementId],
    ) -> IoResult<()> {
        let (s, x) = self.lids(root);
        self.scheme.try_delete_subtree(s, x)?;
        for e in descendants {
            self.lids.remove(e);
        }
        Ok(())
    }

    /// §3's running example: is `desc` a descendant of `anc`? Two lookups
    /// and two comparisons — no tree traversal.
    pub fn is_descendant(&self, desc: ElementId, anc: ElementId) -> IoResult<bool> {
        let (as_, ae) = self.labels(anc)?;
        let (ds, _) = self.labels(desc)?;
        Ok(as_ < ds && ds < ae)
    }

    /// Containment join: all (ancestor, descendant) pairs between the two
    /// element sets, computed with a sort + stack sweep over labels — the
    /// stack-tree join of [20] in the paper's reference list.
    pub fn containment_join(
        &self,
        ancestors: &[ElementId],
        descendants: &[ElementId],
    ) -> IoResult<Vec<(ElementId, ElementId)>> {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Kind {
            // Variant order makes an ancestor's start sort before a
            // coinciding descendant event (labels are unique, so this is
            // only cosmetic).
            AncStart,
            DescStart,
            AncEnd,
        }
        let mut events: Vec<(S::Label, Kind, ElementId)> = Vec::new();
        for &a in ancestors {
            let (s, e) = self.labels(a)?;
            events.push((s, Kind::AncStart, a));
            events.push((e, Kind::AncEnd, a));
        }
        for &d in descendants {
            let (s, _) = self.labels(d)?;
            events.push((s, Kind::DescStart, d));
        }
        events.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
        let mut stack: Vec<ElementId> = Vec::new();
        let mut out = Vec::new();
        for (_, kind, id) in events {
            match kind {
                Kind::AncStart => stack.push(id),
                Kind::AncEnd => {
                    let top = stack.pop();
                    debug_assert_eq!(top, Some(id), "properly nested intervals");
                }
                Kind::DescStart => {
                    for &a in &stack {
                        if a != id {
                            out.push((a, id));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl<S: OrdinalScheme> ElementLabeler<S> {
    /// §3's ordinal-label query: is `e1` the last child of `e2`? True iff
    /// ordinal(l>(e1)) + 1 == ordinal(l>(e2)).
    pub fn is_last_child(&self, e1: ElementId, e2: ElementId) -> IoResult<bool> {
        let (_, e1_end) = self.lids(e1);
        let (_, e2_end) = self.lids(e2);
        Ok(self.scheme.ordinal_of(e1_end)? + 1 == self.scheme.ordinal_of(e2_end)?)
    }

    /// The exact tag position of the element's start tag in the document.
    pub fn ordinal_start(&self, e: ElementId) -> IoResult<u64> {
        self.scheme.ordinal_of(self.lids(e).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BBoxScheme, WBoxScheme};
    use boxes_bbox::BBoxConfig;
    use boxes_pager::{Pager, PagerConfig};
    use boxes_xml::generate::xmark;

    fn sample_tree() -> XmlTree {
        // <a><b><d/><e/></b><c/></a>
        let mut t = XmlTree::new("a");
        let b = t.add_child(t.root(), "b");
        t.add_child(b, "d");
        t.add_child(b, "e");
        t.add_child(t.root(), "c");
        t
    }

    #[test]
    fn descendant_checks_match_tree_ground_truth() {
        let tree = xmark(400, 3);
        let labeler = ElementLabeler::load(WBoxScheme::with_block_size(1024), &tree).unwrap();
        let order = tree.document_order();
        for (i, &a) in order.iter().enumerate().step_by(17) {
            for &d in order.iter().skip(i % 7).step_by(23) {
                assert_eq!(
                    labeler.is_descendant(d, a).unwrap(),
                    tree.is_ancestor(a, d),
                    "a={a:?} d={d:?}"
                );
            }
        }
    }

    #[test]
    fn mutations_keep_predicates_correct() {
        let mut tree = sample_tree();
        let mut labeler = ElementLabeler::load(BBoxScheme::with_block_size(256), &tree).unwrap();
        let order = tree.document_order();
        let (b, c) = (order[1], order[4]);
        // Insert <x> before <c>, then a child <y> under <b>.
        let x = tree.insert_before(c, "x");
        labeler.on_insert_before(x, c).unwrap();
        let y = tree.add_child(b, "y");
        labeler.on_add_child(y, b).unwrap();
        assert!(labeler.is_descendant(y, b).unwrap());
        assert!(!labeler.is_descendant(x, b).unwrap());
        assert!(labeler.is_descendant(x, tree.root()).unwrap());
        // Delete <b> (children promoted to root).
        let d = tree.children(b)[0];
        tree.remove_element(b);
        labeler.on_remove_element(b).unwrap();
        assert!(labeler.is_descendant(d, tree.root()).unwrap());
    }

    #[test]
    fn containment_join_finds_all_pairs() {
        let tree = xmark(600, 8);
        let labeler = ElementLabeler::load(WBoxScheme::with_block_size(1024), &tree).unwrap();
        let order = tree.document_order();
        // Join all "item" elements against all "keyword" descendants.
        let items: Vec<ElementId> = order
            .iter()
            .copied()
            .filter(|&e| tree.tag(e) == "item")
            .collect();
        let keywords: Vec<ElementId> = order
            .iter()
            .copied()
            .filter(|&e| tree.tag(e) == "keyword")
            .collect();
        let pairs = labeler.containment_join(&items, &keywords).unwrap();
        let mut expected: Vec<(ElementId, ElementId)> = Vec::new();
        for &a in &items {
            for &d in &keywords {
                if tree.is_ancestor(a, d) {
                    expected.push((a, d));
                }
            }
        }
        let mut got = pairs.clone();
        got.sort();
        let mut want = expected;
        want.sort();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "workload should produce matches");
    }

    #[test]
    fn subtree_operations_update_the_mapping() {
        let mut tree = sample_tree();
        let mut labeler = ElementLabeler::load(WBoxScheme::with_block_size(1024), &tree).unwrap();
        let order = tree.document_order();
        let c = order[4];

        // Paste a small subtree before <c>.
        let mut sub = XmlTree::new("p");
        sub.add_child(sub.root(), "q");
        let sub_order = sub.document_order();
        // Materialize the same shape in the main tree.
        let p = tree.insert_before(c, "p");
        let q = tree.add_child(p, "q");
        labeler.on_insert_subtree_before(&sub, &[p, q], c).unwrap();
        assert!(labeler.is_descendant(q, p).unwrap());
        assert!(!labeler.is_descendant(q, c).unwrap());
        let _ = sub_order;

        // Cut it back out.
        let removed = tree.remove_subtree(p);
        labeler.on_remove_subtree(p, &removed).unwrap();
        assert!(labeler.is_descendant(c, tree.root()).unwrap());
        assert_eq!(labeler.scheme.len(), 2 * tree.len() as u64);
    }

    #[test]
    fn last_child_via_ordinals() {
        let tree = sample_tree();
        let pager = Pager::new(PagerConfig::with_block_size(256));
        let labeler = ElementLabeler::load(
            BBoxScheme::new(pager, BBoxConfig::from_block_size(256).with_ordinal()),
            &tree,
        )
        .unwrap();
        let order = tree.document_order();
        let (a, b, d, e, c) = (order[0], order[1], order[2], order[3], order[4]);
        assert!(
            labeler.is_last_child(c, a).unwrap(),
            "<c> is <a>'s last child"
        );
        assert!(labeler.is_last_child(e, b).unwrap());
        assert!(!labeler.is_last_child(d, b).unwrap());
        assert!(!labeler.is_last_child(b, a).unwrap());
        assert_eq!(labeler.ordinal_start(a).unwrap(), 0);
    }
}
