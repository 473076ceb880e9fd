//! Read-only view over a labeling scheme — the query surface a
//! `boxes-session` snapshot exposes.
//!
//! [`LabelView`] is the `&self` subset of [`LabelingScheme`]: lookups, order
//! tests, and containment tests, but no mutation. Every scheme implements it
//! for free through the blanket impl, so a W-BOX/B-BOX/naive structure
//! reopened over a snapshot pager can be handed to query code that is
//! type-incapable of mutating it — the session layer's compile-time
//! analog of the pager's runtime "snapshot views are read-only" guard.

use crate::scheme::LabelingScheme;
use boxes_lidf::Lid;
use boxes_pager::IoResult;
use std::cmp::Ordering;

/// Read-only order-based label queries (§2's query model: document order
/// and ancestor/containment tests via two label comparisons).
pub trait LabelView {
    /// The label value type; ordering agrees with document order.
    type Label: Ord + Clone + std::fmt::Debug;

    /// Short scheme name for reports (e.g. `"W-BOX"`).
    fn name(&self) -> String;

    /// Current label of `lid`. A disk fault that survives retry and
    /// read-repair comes back as a typed error, never a wrong label.
    fn try_lookup(&self, lid: Lid) -> IoResult<Self::Label>;

    /// Document order of the tags labeled `a` and `b`.
    fn order(&self, a: Lid, b: Lid) -> IoResult<Ordering> {
        Ok(self.try_lookup(a)?.cmp(&self.try_lookup(b)?))
    }

    /// Whether the tag labeled `x` falls strictly between the tags labeled
    /// `start` and `end` — the containment test behind ancestor queries.
    fn contains(&self, start: Lid, end: Lid, x: Lid) -> IoResult<bool> {
        let xl = self.try_lookup(x)?;
        Ok(self.try_lookup(start)? < xl && xl < self.try_lookup(end)?)
    }

    /// Number of live labels.
    fn len(&self) -> u64;

    /// Whether no labels are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits required per label right now (the paper's label-length metric).
    fn label_bits(&self) -> IoResult<u32>;
}

impl<S: LabelingScheme> LabelView for S {
    type Label = S::Label;

    fn name(&self) -> String {
        LabelingScheme::name(self)
    }

    fn try_lookup(&self, lid: Lid) -> IoResult<Self::Label> {
        LabelingScheme::try_lookup(self, lid)
    }

    fn len(&self) -> u64 {
        LabelingScheme::len(self)
    }

    fn is_empty(&self) -> bool {
        LabelingScheme::is_empty(self)
    }

    fn label_bits(&self) -> IoResult<u32> {
        LabelingScheme::label_bits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::WBoxScheme;

    fn view_only(v: &dyn LabelView<Label = u64>, lids: &[Lid]) -> Vec<u64> {
        lids.iter().map(|&l| v.try_lookup(l).unwrap()).collect()
    }

    #[test]
    fn blanket_impl_answers_order_and_containment() {
        let mut scheme = WBoxScheme::with_block_size(512);
        let lids = scheme.bulk_load_document(&[2, 3, 1, 0]); // two elements
        let labels = view_only(&scheme, &lids);
        assert!(labels.windows(2).all(|w| w[0] < w[1]), "document order");
        assert_eq!(
            LabelView::order(&scheme, lids[0], lids[3]),
            Ok(Ordering::Less)
        );
        assert_eq!(
            LabelView::contains(&scheme, lids[0], lids[3], lids[1]),
            Ok(true),
            "inner tag sits between the outer element's tags"
        );
        assert_eq!(
            LabelView::contains(&scheme, lids[1], lids[2], lids[0]),
            Ok(false)
        );
        assert_eq!(LabelView::len(&scheme), 4);
        assert!(!LabelView::is_empty(&scheme));
        assert!(LabelView::label_bits(&scheme).unwrap() > 0);
    }
}
