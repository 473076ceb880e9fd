//! The benchmark's view of the document: the generator's tree kept as a
//! mirror beside the labeling scheme, the element → LID table, and the
//! correctness checks that compare the two. Everything here runs outside
//! the timed region.

use boxes_core::driver::partner_map;
use boxes_core::lidf::Lid;
use boxes_core::pager::PagerError;
use boxes_core::xml::tags::{tag_sequence, TagKind};
use boxes_core::xml::tree::{ElementId, XmlTree};
use boxes_core::LabelingScheme;

use crate::layers::Timer;
use crate::stats::Rng;

/// Where a new element goes, in the paper's `insert-element-before` terms.
#[derive(Clone, Copy, Debug)]
pub enum Anchor {
    /// Before the element's start tag: the new element becomes its
    /// previous sibling.
    Before(ElementId),
    /// Before the element's end tag: the new element becomes its last
    /// child.
    LastChildOf(ElementId),
}

/// The generator's tree plus the LIDs of every live element.
pub struct Doc {
    /// Ground truth for ancestry and document order.
    pub tree: XmlTree,
    /// `(start, end)` LIDs indexed by `ElementId.0`.
    lids: Vec<Option<(Lid, Lid)>>,
}

/// What a bulk load needs, computed once per document so repeated set-ups
/// time only the storage stack.
pub struct LoadPlan {
    partner: Vec<usize>,
}

impl LoadPlan {
    /// Tag partners of `tree` in document order.
    pub fn new(tree: &XmlTree) -> LoadPlan {
        LoadPlan {
            partner: partner_map(tree),
        }
    }

    /// Bulk-load the document into `scheme`; returns the LIDs in tag order.
    pub fn load<S: LabelingScheme>(&self, scheme: &mut S) -> Vec<Lid> {
        scheme.bulk_load_document(&self.partner)
    }
}

impl Doc {
    /// Pair `tree` with the tag-ordered `lids` of its bulk load.
    pub fn new(tree: XmlTree, lids: &[Lid]) -> Doc {
        let seq = tag_sequence(&tree);
        assert_eq!(seq.len(), lids.len(), "one LID per tag");
        let slots = seq
            .iter()
            .map(|t| t.element.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut table = vec![None; slots];
        let mut start = vec![Lid::INVALID; slots];
        for (tag, &lid) in seq.iter().zip(lids) {
            let slot = tag.element.0 as usize;
            match tag.kind {
                TagKind::Start => start[slot] = lid,
                TagKind::End => table[slot] = Some((start[slot], lid)),
            }
        }
        Doc { tree, lids: table }
    }

    /// LIDs of a live element.
    pub fn lids(&self, e: ElementId) -> (Lid, Lid) {
        self.lids[e.0 as usize].expect("element is live")
    }

    /// The tag the scheme inserts before for `anchor`.
    pub fn anchor_lid(&self, anchor: Anchor) -> Lid {
        match anchor {
            Anchor::Before(e) => self.lids(e).0,
            Anchor::LastChildOf(e) => self.lids(e).1,
        }
    }

    /// Mirror a completed element insert at `anchor` with LIDs `pair`.
    pub fn record_insert(&mut self, anchor: Anchor, pair: (Lid, Lid)) -> ElementId {
        let e = match anchor {
            Anchor::Before(sibling) => self.tree.insert_before(sibling, "new"),
            Anchor::LastChildOf(parent) => self.tree.add_child(parent, "new"),
        };
        let slot = e.0 as usize;
        if slot >= self.lids.len() {
            self.lids.resize(slot + 1, None);
        }
        self.lids[slot] = Some(pair);
        e
    }

    /// Mirror a completed single-element delete: its children move up to
    /// its parent, as the scheme's labels imply.
    pub fn record_delete(&mut self, e: ElementId) {
        self.tree.remove_element(e);
        self.lids[e.0 as usize] = None;
    }

    /// Sample `samples` adjacent tag pairs of the mirror's tag sequence and
    /// check that their labels are in document order. Returns the first
    /// pair found out of order (or a lookup error) as a message.
    pub fn check_order_sample<S: LabelingScheme>(
        &self,
        scheme: &S,
        rng: &mut Rng,
        samples: usize,
    ) -> Result<(), String> {
        let seq = tag_sequence(&self.tree);
        let label = |i: usize| {
            let (start, end) = self.lids(seq[i].element);
            let lid = match seq[i].kind {
                TagKind::Start => start,
                TagKind::End => end,
            };
            scheme
                .try_lookup(lid)
                .map_err(|e| format!("lookup of tag {i} failed: {e}"))
        };
        for _ in 0..samples {
            let i = rng.below(seq.len() - 1);
            let (a, b) = (label(i)?, label(i + 1)?);
            if a >= b {
                return Err(format!(
                    "tags {i} and {} out of document order: {a:?} >= {b:?}",
                    i + 1
                ));
            }
        }
        Ok(())
    }
}

/// Label of `lid`, timed into `timer` on traced runs.
fn lookup<S: LabelingScheme>(
    scheme: &S,
    lid: Lid,
    timer: Option<&Timer>,
) -> Result<S::Label, PagerError> {
    match timer {
        Some(t) => t.time(|| scheme.try_lookup(lid)),
        None => scheme.try_lookup(lid),
    }
}

/// The ancestry check: is the element labeled `anc` a proper ancestor of
/// the one labeled `desc`? Four label lookups and two comparisons.
pub fn is_ancestor<S: LabelingScheme>(
    scheme: &S,
    anc: (Lid, Lid),
    desc: (Lid, Lid),
    timer: Option<&Timer>,
) -> Result<bool, PagerError> {
    let anc_start = lookup(scheme, anc.0, timer)?;
    let desc_start = lookup(scheme, desc.0, timer)?;
    let desc_end = lookup(scheme, desc.1, timer)?;
    let anc_end = lookup(scheme, anc.1, timer)?;
    Ok(anc_start < desc_start && desc_end < anc_end)
}

/// A set of live elements with O(1) uniform choice, insert and removal.
#[derive(Default)]
pub struct Pool {
    items: Vec<ElementId>,
    /// Position in `items` by `ElementId.0`; `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl Pool {
    /// Pool holding `items`.
    pub fn of(items: impl IntoIterator<Item = ElementId>) -> Pool {
        let mut pool = Pool::default();
        for e in items {
            pool.add(e);
        }
        pool
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Add `e` (no-op if present).
    pub fn add(&mut self, e: ElementId) {
        let slot = e.0 as usize;
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, usize::MAX);
        }
        if self.pos[slot] == usize::MAX {
            self.pos[slot] = self.items.len();
            self.items.push(e);
        }
    }

    /// Whether `e` is in the pool.
    pub fn contains(&self, e: ElementId) -> bool {
        self.pos.get(e.0 as usize).is_some_and(|&p| p != usize::MAX)
    }

    /// Remove `e` (no-op if absent).
    pub fn remove(&mut self, e: ElementId) {
        if !self.contains(e) {
            return;
        }
        let at = std::mem::replace(&mut self.pos[e.0 as usize], usize::MAX);
        self.items.swap_remove(at);
        if let Some(&moved) = self.items.get(at) {
            self.pos[moved.0 as usize] = at;
        }
    }

    /// A uniformly random member (the pool must not be empty).
    pub fn pick(&self, rng: &mut Rng) -> ElementId {
        self.items[rng.below(self.items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_membership_through_removals() {
        let ids: Vec<ElementId> = (1..=5).map(ElementId).collect();
        let mut pool = Pool::of(ids.iter().copied());
        pool.remove(ids[1]);
        pool.remove(ids[1]);
        pool.remove(ids[4]);
        assert_eq!(pool.len(), 3);
        assert!(!pool.contains(ids[1]) && pool.contains(ids[0]));
        let mut rng = Rng::new(3, 0);
        for _ in 0..50 {
            let e = pool.pick(&mut rng);
            assert!(pool.contains(e) && e != ids[1] && e != ids[4]);
        }
    }
}
