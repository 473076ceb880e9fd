//! Subtree insertion and deletion for W-BOX (§4).
//!
//! Both operations rebuild the lowest ancestor that can absorb the change
//! while every node above it keeps its weight constraint:
//!
//! * **Insert**: find the lowest ancestor v with w(v) + N′ below its bound
//!   (growing the root first if even the root cannot absorb N′), then
//!   rebuild v's subtree around the insertion point. Existing leaves keep
//!   their blocks — only their `range_lo` headers are rewritten — so the
//!   LIDF is updated only for the insertion leaf's moved suffix and the new
//!   records, the optimization the paper calls out. O((N + N′)/B) worst case.
//! * **Delete**: all doomed labels are contiguous; drop whole leaves inside
//!   the range, trim the two boundary leaves, and rebuild the lowest
//!   ancestor whose remaining weight still satisfies the constraint (the
//!   whole tree in the worst case, O(N/B)).

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "descent invariants: paths reach a leaf and sibling entries exist at the recorded positions"
)]
#![expect(
    clippy::as_conversions,
    reason = "weight/size deltas are +/-(subtree count) which fits i64; positions are fanout-bounded"
)]

use crate::build::{chunk_records, LeafUnit};
use crate::node::{LeafRecord, WNode};
use crate::tree::WBox;
use boxes_lidf::{BlockPtrRecord, Lid};
use boxes_pager::BlockId;
use boxes_trace::OpSpan;

impl WBox {
    /// Insert `n_tags` new labels immediately before `lid_old` as one bulk
    /// operation. Returns the new LIDs in document order.
    pub fn insert_subtree_before(&mut self, lid_old: Lid, n_tags: usize) -> Vec<Lid> {
        let _span = OpSpan::op(self.pager().trace(), self.trace_tag(), "subtree_insert");
        self.journaled(|t| t.insert_subtree_impl(lid_old, n_tags, None))
    }

    /// Pair-mode bulk insert: `partner_of[i]` is the index (within the new
    /// batch) of tag i's partner tag.
    pub fn insert_subtree_before_pairs(&mut self, lid_old: Lid, partner_of: &[usize]) -> Vec<Lid> {
        assert!(self.config().pair, "pair wiring requires pair mode");
        let _span = OpSpan::op(self.pager().trace(), self.trace_tag(), "subtree_insert");
        self.journaled(|t| t.insert_subtree_impl(lid_old, partner_of.len(), Some(partner_of)))
    }

    fn insert_subtree_impl(
        &mut self,
        lid_old: Lid,
        n_tags: usize,
        partner_of: Option<&[usize]>,
    ) -> Vec<Lid> {
        if n_tags == 0 {
            return Vec::new();
        }
        if self.height() == 1 {
            // Tiny tree: element-at-a-time (then wire pairs if asked).
            let lids: Vec<Lid> = (0..n_tags).map(|_| self.insert_before(lid_old)).collect();
            if let Some(p) = partner_of {
                for (i, &j) in p.iter().enumerate() {
                    if i < j {
                        self.wire_pair(lids[i], lids[j]);
                    }
                }
            }
            return lids;
        }

        // Choose v: the lowest strict ancestor of the insertion leaf such
        // that every node from the root down to v can absorb N′ more weight.
        // Grow the root as long as even the root cannot.
        let (path, v_idx) = loop {
            let leaf_id = self.lidf_ref().read(lid_old).block;
            let leaf = self.read_node(leaf_id);
            let label = leaf.range_lo() + leaf.position_of_lid(lid_old) as u64;
            let path = self.descend(label);
            if path[0].node.weight() + n_tags as u64 >= self.config().max_weight(path[0].level) {
                let step = &path[0];
                self.grow_root_for_bulk(step);
                continue;
            }
            // Longest prefix of fitting ancestors; v must be internal.
            let mut v_idx = 0;
            for (j, step) in path.iter().enumerate() {
                if step.node.is_leaf()
                    || step.node.weight() + n_tags as u64 >= self.config().max_weight(step.level)
                {
                    break;
                }
                v_idx = j;
            }
            break (path, v_idx);
        };

        let v = &path[v_idx];
        let v_id = v.id;
        let v_level = v.level;
        let v_lo = v.range_lo;
        let u_id = path.last().expect("leaf step").id;

        // Allocate LIDF records for the new labels (block pointers are set
        // by the rebuild's repoint pass).
        let placeholders = vec![BlockPtrRecord::new(BlockId::INVALID); n_tags];
        let new_lids = self.lidf().bulk_append(&placeholders);
        let mut new_recs: Vec<LeafRecord> =
            new_lids.iter().map(|&l| LeafRecord::plain(l)).collect();
        if let Some(p) = partner_of {
            for (i, r) in new_recs.iter_mut().enumerate() {
                r.is_start = i < p[i];
                r.partner_lid = new_lids[p[i]];
            }
        }

        // Collect v's leaves in order, splitting the insertion leaf around
        // the anchor; old internal nodes below v are freed (the rebuild
        // allocates replacements).
        let mut units: Vec<LeafUnit> = Vec::new();
        let mut internal_to_free: Vec<BlockId> = Vec::new();
        self.collect_units(
            v_id,
            v_id,
            &mut |this, id, node| {
                if id != u_id {
                    units.push(keep_unit(id, node));
                    return;
                }
                let pos = node.position_of_lid(lid_old);
                let (range_lo, tombstones, recs) = explode_leaf(node);
                let _ = range_lo;
                let mut prefix = recs;
                let suffix = prefix.split_off(pos);
                if !prefix.is_empty() {
                    units.push(LeafUnit {
                        block: Some(id),
                        tombstones,
                        recs: prefix,
                    });
                } else if tombstones > 0 {
                    // Keep the tombstone weight attached to the first new unit.
                    units.push(LeafUnit {
                        block: Some(id),
                        tombstones,
                        recs: Vec::new(),
                    });
                } else {
                    this.pager().free(id);
                }
                for unit in chunk_records(
                    std::mem::take(&mut new_recs),
                    this.config().leaf_capacity(),
                    this.config().min_weight(0),
                ) {
                    units.push(unit);
                }
                if !suffix.is_empty() {
                    units.push(LeafUnit::fresh(suffix));
                }
            },
            &mut internal_to_free,
        );
        for id in internal_to_free {
            self.pager().free(id);
        }

        let mut dropped = Vec::new();
        let units = normalize_units(
            units,
            self.config().leaf_capacity(),
            self.config().min_weight(0),
            &mut dropped,
        );
        for id in dropped {
            self.pager().free(id);
        }
        self.build_at_level(units, v_level, v_id, v_lo);
        self.add_live(n_tags as i64);

        // Ancestors above v absorb the added weight.
        for step in path.iter().take(v_idx) {
            let mut step_node = step.node.clone();
            let e = &mut step_node.entries_mut()[step.child_pos];
            e.weight += n_tags as u64;
            e.size += n_tags as u64;
            self.write_node(step.id, &step_node);
        }
        new_lids
    }

    /// Grow the root for a bulk insertion (same as the single-insert grow).
    fn grow_root_for_bulk(&mut self, old_root_step: &crate::tree::PathStep) {
        self.grow_root(old_root_step);
    }

    /// Delete every label in the inclusive range spanned by `start_lid`
    /// and `end_lid`, reclaiming blocks and LIDF records.
    pub fn delete_subtree(&mut self, start_lid: Lid, end_lid: Lid) {
        let _span = OpSpan::op(self.pager().trace(), self.trace_tag(), "subtree_delete");
        self.journaled(|t| t.delete_subtree_impl(start_lid, end_lid));
    }

    fn delete_subtree_impl(&mut self, start_lid: Lid, end_lid: Lid) {
        let l_s = self.lookup(start_lid);
        let l_e = self.lookup(end_lid);
        assert!(l_s < l_e, "subtree endpoints out of order");
        let path = self.descend(l_s);

        // Lowest common ancestor: the deepest path node whose range also
        // covers l_e.
        let lca_idx = (0..path.len())
            .rev()
            .find(|&j| {
                let step = &path[j];
                l_e < step.range_lo + self.config().range_len(step.level)
            })
            .expect("the root covers everything");

        // Count what the range removes (live records and tombstones of
        // fully covered leaves) with one walk below the LCA.
        let (live_deleted, weight_removed) = self.count_range(path[lca_idx].id, l_s, l_e);

        // Choose v: the deepest node at or above the LCA such that every
        // non-root node from v to the root keeps its minimum weight.
        let fits = |j: usize| -> bool {
            (0..=j).all(|t| {
                let step = &path[t];
                let remaining = step.node.weight() - weight_removed;
                t == 0 || remaining > self.config().min_weight(step.level)
            })
        };
        let v_idx = (0..=lca_idx).rev().find(|&j| fits(j)).unwrap_or(0);

        // Collect survivors under v, freeing doomed leaves and LIDs.
        let v = &path[v_idx];
        let (v_id, v_level, v_lo) = (v.id, v.level, v.range_lo);
        let mut units: Vec<LeafUnit> = Vec::new();
        let mut doomed_lids: Vec<Lid> = Vec::new();
        let mut internal_to_free: Vec<BlockId> = Vec::new();
        self.collect_units(
            v_id,
            v_id,
            &mut |this, id, node| {
                let lo = node.range_lo();
                let n = node.recs().len() as u64;
                if lo > l_e || lo + n <= l_s || n == 0 {
                    units.push(keep_unit(id, node));
                    return;
                }
                let (_, tombstones, recs) = explode_leaf(node);
                let survivors: Vec<LeafRecord> = recs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| {
                        let label = lo + i as u64;
                        if label >= l_s && label <= l_e {
                            doomed_lids.push(r.lid);
                            None
                        } else {
                            Some(*r)
                        }
                    })
                    .collect();
                if survivors.is_empty() {
                    // Fully covered: the leaf goes away, tombstones included —
                    // `count_range` charges their weight to the ancestors.
                    this.pager().free(id);
                } else {
                    units.push(LeafUnit {
                        block: Some(id),
                        tombstones,
                        recs: survivors,
                    });
                }
            },
            &mut internal_to_free,
        );
        for id in internal_to_free {
            self.pager().free(id);
        }
        debug_assert_eq!(doomed_lids.len() as u64, live_deleted);
        self.lidf().free_batch(doomed_lids);
        self.add_live(-(live_deleted as i64));

        let mut dropped = Vec::new();
        let units = normalize_units(
            units,
            self.config().leaf_capacity(),
            self.config().min_weight(0),
            &mut dropped,
        );
        for id in dropped {
            self.pager().free(id);
        }

        if v_idx == 0 {
            // Rebuild from the root: height may change. A leaf root either
            // survives inside `units` (keeping its block) or was already
            // freed by the collection pass; an internal root is replaced.
            if path.len() > 1 {
                self.pager().free(v_id);
            }
            if units.is_empty() {
                let root = self.pager().alloc();
                self.write_node(root, &WNode::leaf(0));
                self.set_root(root, 1);
                let live = self.len();
                self.set_live(live);
                return;
            }
            let (root, height) = self.build_auto(units);
            self.set_root(root, height);
            let live = self.len();
            self.set_live(live);
            return;
        }
        self.build_at_level(units, v_level, v_id, v_lo);
        for step in path.iter().take(v_idx) {
            let mut step_node = step.node.clone();
            let e = &mut step_node.entries_mut()[step.child_pos];
            e.weight -= weight_removed;
            e.size -= live_deleted;
            self.write_node(step.id, &step_node);
        }
    }

    /// Walk the subtree of `id`, invoking `on_leaf` for every leaf in
    /// document order and accumulating internal node ids (excluding
    /// `keep_top`) for the caller to free.
    fn collect_units(
        &mut self,
        id: BlockId,
        keep_top: BlockId,
        on_leaf: &mut impl FnMut(&mut Self, BlockId, WNode),
        internal_to_free: &mut Vec<BlockId>,
    ) {
        match self.read_node(id) {
            node @ WNode::Leaf { .. } => on_leaf(self, id, node),
            WNode::Internal { entries } => {
                for e in entries {
                    self.collect_units(e.child, keep_top, on_leaf, internal_to_free);
                }
                if id != keep_top {
                    internal_to_free.push(id);
                }
            }
        }
    }

    /// Count live records inside [l_s, l_e] plus the tombstones of leaves
    /// fully covered by the range (their blocks will be dropped). Returns
    /// (live_deleted, weight_removed).
    fn count_range(&self, id: BlockId, l_s: u64, l_e: u64) -> (u64, u64) {
        let mut live = 0u64;
        let mut weight = 0u64;
        self.count_range_rec(id, l_s, l_e, &mut live, &mut weight);
        (live, weight)
    }

    fn count_range_rec(&self, id: BlockId, l_s: u64, l_e: u64, live: &mut u64, weight: &mut u64) {
        match self.read_node(id) {
            WNode::Leaf {
                range_lo,
                tombstones,
                recs,
            } => {
                let n = recs.len() as u64;
                if range_lo > l_e || range_lo + n <= l_s {
                    return;
                }
                let from = l_s.saturating_sub(range_lo).min(n);
                let to = (l_e - range_lo + 1).min(n);
                let covered = to.saturating_sub(from);
                *live += covered;
                *weight += covered;
                if covered == n {
                    // The whole leaf goes away, tombstones included.
                    *weight += tombstones as u64;
                }
            }
            WNode::Internal { entries } => {
                for e in entries {
                    self.count_range_rec(e.child, l_s, l_e, live, weight);
                }
            }
        }
    }
}

fn keep_unit(id: BlockId, node: WNode) -> LeafUnit {
    let (_, tombstones, recs) = explode_leaf(node);
    LeafUnit {
        block: Some(id),
        tombstones,
        recs,
    }
}

fn explode_leaf(node: WNode) -> (u64, u16, Vec<LeafRecord>) {
    match node {
        WNode::Leaf {
            range_lo,
            tombstones,
            recs,
        } => (range_lo, tombstones, recs),
        _ => panic!("expected a leaf"),
    }
}

/// Merge too-light units into neighbors (splitting when the result would
/// overflow a leaf). Merged units lose their block identity (the abandoned
/// blocks are pushed to `dropped` for the caller to free) and their records
/// are re-pointed by the builder.
fn normalize_units(
    units: Vec<LeafUnit>,
    cap: usize,
    min_excl: u64,
    dropped: &mut Vec<BlockId>,
) -> Vec<LeafUnit> {
    let mut out: Vec<LeafUnit> = Vec::with_capacity(units.len());
    let merge = |a: LeafUnit, b: LeafUnit, out: &mut Vec<LeafUnit>, dropped: &mut Vec<BlockId>| {
        dropped.extend(a.block);
        dropped.extend(b.block);
        let tombstones = a.tombstones + b.tombstones;
        let mut recs = a.recs;
        recs.extend(b.recs);
        // The merged *weight* (live + tombstones) must stay within the
        // 2k − 1 bound; split evenly (records and tombstone counts both)
        // when it does not.
        if recs.len() + tombstones as usize <= cap {
            out.push(LeafUnit {
                block: None,
                tombstones,
                recs,
            });
        } else {
            let half = recs.len().div_ceil(2);
            let tail = recs.split_off(half);
            let t1 = tombstones / 2;
            out.push(LeafUnit {
                block: None,
                tombstones: t1,
                recs,
            });
            out.push(LeafUnit {
                block: None,
                tombstones: tombstones - t1,
                recs: tail,
            });
        }
    };
    for unit in units {
        if unit.weight() == 0 {
            dropped.extend(unit.block);
            continue;
        }
        let fine = unit.weight() > min_excl && unit.weight() <= cap as u64;
        if fine || out.is_empty() {
            out.push(unit);
            continue;
        }
        let prev = out.pop().expect("checked non-empty");
        merge(prev, unit, &mut out, dropped);
    }
    // The first unit may itself be too light (it never had a left
    // neighbor to merge into): fold units forward until it is legal.
    while out.len() >= 2 && out[0].weight() <= min_excl {
        let first = out.remove(0);
        let second = out.remove(0);
        let mut head = Vec::new();
        merge(first, second, &mut head, dropped);
        for (i, u) in head.into_iter().enumerate() {
            out.insert(i, u);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WBoxConfig;

    use boxes_pager::{Pager, PagerConfig};

    fn make(ordinal: bool) -> WBox {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut c = WBoxConfig::small_for_tests();
        if ordinal {
            c = c.with_ordinal();
        }
        WBox::new(pager, c)
    }

    fn assert_order(w: &WBox, lids: &[Lid]) {
        let labels: Vec<u64> = lids.iter().map(|&l| w.lookup(l)).collect();
        for (i, win) in labels.windows(2).enumerate() {
            assert!(win[0] < win[1], "order violated at {i}");
        }
    }

    #[test]
    fn subtree_insert_in_the_middle() {
        for ordinal in [false, true] {
            let mut w = make(ordinal);
            let base = w.bulk_load(800);
            let sub = w.insert_subtree_before(base[400], 120);
            assert_eq!(w.len(), 920, "ordinal={ordinal}");
            let mut all = base[..400].to_vec();
            all.extend(&sub);
            all.extend(&base[400..]);
            assert_eq!(w.iter_lids(), all);
            assert_order(&w, &all);
            w.validate();
        }
    }

    #[test]
    fn subtree_insert_at_document_start() {
        let mut w = make(true);
        let base = w.bulk_load(300);
        let sub = w.insert_subtree_before(base[0], 50);
        let mut all = sub.clone();
        all.extend(&base);
        assert_eq!(w.iter_lids(), all);
        for (i, &lid) in all.iter().enumerate().step_by(29) {
            assert_eq!(w.ordinal_of(lid), i as u64);
        }
        w.validate();
    }

    #[test]
    fn subtree_insert_grows_root_when_needed() {
        let mut w = make(false);
        let base = w.bulk_load(60);
        let before_height = w.height();
        let sub = w.insert_subtree_before(base[30], 2_000);
        assert!(w.height() > before_height);
        assert_eq!(w.len(), 2_060);
        assert_eq!(sub.len(), 2_000);
        w.validate();
    }

    #[test]
    fn subtree_insert_keeps_untouched_leaf_blocks() {
        let mut w = make(false);
        let base = w.bulk_load(3_000);
        let pager = w.pager().clone();
        // A far-away record's LIDF entry must not be rewritten by the bulk
        // insert (the paper's block-preserving optimization).
        let far_block = {
            let before = pager.stats();
            let _ = w.lookup(base[2_900]);
            let d = pager.stats().since(&before);
            assert_eq!(d.total(), 2);
            // remember where it lives
            w.lookup(base[2_900])
        };
        w.insert_subtree_before(base[10], 100);
        assert_eq!(
            w.lookup(base[2_900]),
            far_block,
            "distant labels survive a localized subtree insert"
        );
        w.validate();
    }

    #[test]
    fn subtree_insert_cheaper_than_loose_inserts() {
        let mut bulk = make(false);
        let base = bulk.bulk_load(5_000);
        let pager = bulk.pager().clone();
        let before = pager.stats();
        bulk.insert_subtree_before(base[2_500], 1_000);
        let bulk_cost = pager.stats().since(&before).total();
        bulk.validate();

        let mut loose = make(false);
        let base = loose.bulk_load(5_000);
        let pager = loose.pager().clone();
        let before = pager.stats();
        for _ in 0..1_000 {
            loose.insert_before(base[2_500]);
        }
        let loose_cost = pager.stats().since(&before).total();
        assert!(
            bulk_cost * 3 < loose_cost,
            "bulk {bulk_cost} vs element-at-a-time {loose_cost}"
        );
    }

    #[test]
    fn subtree_delete_middle_range() {
        for ordinal in [false, true] {
            let mut w = make(ordinal);
            let base = w.bulk_load(900);
            w.delete_subtree(base[200], base[699]);
            assert_eq!(w.len(), 400, "ordinal={ordinal}");
            let mut rest = base[..200].to_vec();
            rest.extend(&base[700..]);
            assert_eq!(w.iter_lids(), rest);
            assert_order(&w, &rest);
            w.validate();
        }
    }

    #[test]
    fn subtree_delete_within_one_leaf() {
        let mut w = make(true);
        let base = w.bulk_load(100);
        w.delete_subtree(base[1], base[4]);
        assert_eq!(w.len(), 96);
        let mut rest = vec![base[0]];
        rest.extend(&base[5..]);
        assert_eq!(w.iter_lids(), rest);
        w.validate();
    }

    #[test]
    fn subtree_delete_almost_everything_rebuilds_root() {
        let mut w = make(false);
        let base = w.bulk_load(2_000);
        let tall = w.height();
        w.delete_subtree(base[1], base[1_998]);
        assert_eq!(w.len(), 2);
        assert!(w.height() < tall, "tree collapsed");
        assert_eq!(w.iter_lids(), vec![base[0], base[1_999]]);
        w.validate();
    }

    #[test]
    fn subtree_delete_matches_loose_deletes() {
        let mut bulk = make(true);
        let a = bulk.bulk_load(400);
        bulk.delete_subtree(a[50], a[349]);
        bulk.validate();

        let mut loose = make(true);
        let b = loose.bulk_load(400);
        for &lid in &b[50..350] {
            loose.delete(lid);
        }
        loose.validate();
        assert_eq!(bulk.len(), loose.len());
        let pos_a: Vec<usize> = bulk
            .iter_lids()
            .iter()
            .map(|l| a.iter().position(|x| x == l).unwrap())
            .collect();
        let pos_b: Vec<usize> = loose
            .iter_lids()
            .iter()
            .map(|l| b.iter().position(|x| x == l).unwrap())
            .collect();
        assert_eq!(pos_a, pos_b);
    }

    #[test]
    fn interleaved_subtree_ops_stay_consistent() {
        let mut w = make(true);
        let base = w.bulk_load(400);
        let s1 = w.insert_subtree_before(base[200], 150);
        w.validate();
        w.delete_subtree(s1[20], s1[129]);
        w.validate();
        let _s2 = w.insert_subtree_before(base[300], 60);
        w.validate();
        assert_eq!(w.len(), 400 + 150 - 110 + 60);
        let all = w.iter_lids();
        assert_order(&w, &all);
    }

    #[test]
    fn subtree_ops_reclaim_lidf_slots() {
        let mut w = make(false);
        let base = w.bulk_load(500);
        w.delete_subtree(base[100], base[399]);
        // Freed LIDs come back through the free list.
        let reused = w.insert_before(base[400]);
        assert!(reused.0 < 500, "recycled a freed LIDF slot: {reused:?}");
        w.validate();
    }
}
