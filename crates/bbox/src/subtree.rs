//! Bulk subtree insertion and deletion for B-BOX (§5).
//!
//! * **Insert**: bulk-load the new subtree T′ (sharing the LIDF), "rip" the
//!   host tree along the insertion point for h′ levels, and splice T′ into
//!   the gap; all root-to-leaf paths keep the same length. Cost
//!   O(N′/B + B·log_B(N + N′)).
//! * **Delete**: all doomed labels form one contiguous range; rip from both
//!   endpoints until the paths meet, unlink the isolated subtrees, and
//!   repair the seams. Tree cost O(B·log_B N); LIDF reclamation is batched
//!   (O(N′/B) when the records are clustered, as after a bulk insert).

#![expect(
    clippy::expect_used,
    reason = "descent invariants: the root-to-leaf path is non-empty and every visited child's parent range is recorded"
)]
#![expect(
    clippy::as_conversions,
    reason = "slot positions are bounded by per-node fanout; size deltas are subtree counts < 2^63"
)]

use crate::node::{ChildEntry, Node};
use crate::tree::BBox;
use boxes_lidf::Lid;
use boxes_pager::{BlockId, IoResult, PagerError};
use std::collections::HashSet;

impl BBox {
    /// Height a bulk-built tree of `count` labels would have.
    fn bulk_height(&self, count: usize) -> usize {
        let mut nodes = count.div_ceil(self.config().leaf_capacity);
        let mut h = 1;
        while nodes > 1 {
            nodes = nodes.div_ceil(self.config().internal_capacity);
            h += 1;
        }
        h
    }

    /// Insert `n_tags` new labels immediately before `lid_old` as one bulk
    /// operation. Returns the new LIDs in document order.
    pub fn insert_subtree_before(&mut self, lid_old: Lid, n_tags: usize) -> IoResult<Vec<Lid>> {
        let _span =
            boxes_trace::OpSpan::op(self.pager().trace(), self.trace_tag(), "subtree_insert");
        self.journaled(|t| t.insert_subtree_before_impl(lid_old, n_tags))
    }

    fn insert_subtree_before_impl(&mut self, lid_old: Lid, n_tags: usize) -> IoResult<Vec<Lid>> {
        if n_tags == 0 {
            return Ok(Vec::new());
        }
        let sub_height = self.bulk_height(n_tags);
        if sub_height > self.height() {
            // The incoming tree is taller than the host: fall back to
            // element-at-a-time insertion (only when N′ dwarfs N).
            return (0..n_tags).map(|_| self.insert_before(lid_old)).collect();
        }

        // Path from the insertion leaf to the root (level 0 first).
        let leaf_id = self.lidf_read_block(lid_old)?;
        let path = self.path_to_root(leaf_id)?;
        debug_assert_eq!(path.len(), self.height());

        // Bulk reorganizations restructure whole paths: conservatively
        // invalidate every cached label (§6 layer support).
        self.note_change_all();

        // Build T′ (appends its records to the shared LIDF).
        let (sub_root, built_height, new_lids) = self.build_forest(n_tags)?;
        debug_assert_eq!(built_height, sub_height);
        self.add_len(n_tags as i64);

        // Seam parts per ripped level: (block, subtree record count).
        let mut left_seam: Vec<Option<(BlockId, u64)>> = Vec::with_capacity(sub_height);
        let mut right_seam: Vec<Option<(BlockId, u64)>> = Vec::with_capacity(sub_height);

        // ---- rip level 0: split the insertion leaf at the point ----------
        {
            let (u_id, u_node) = &path[0];
            let mut u_node = u_node.clone();
            let pos = u_node.position_of_lid(lid_old);
            let right_lids: Vec<Lid> = u_node.lids_mut().split_off(pos);
            debug_assert!(!right_lids.is_empty(), "anchor is in the right part");
            if u_node.count() == 0 {
                // Whole leaf moves right: reuse the block, no LIDF updates.
                let n = right_lids.len() as u64;
                let reused = Node::Leaf {
                    parent: u_node.parent(),
                    lids: right_lids,
                };
                self.write_node(*u_id, &reused)?;
                left_seam.push(None);
                right_seam.push(Some((*u_id, n)));
            } else {
                let right_id = self.pager().alloc()?;
                let right = Node::Leaf {
                    parent: u_node.parent(),
                    lids: right_lids,
                };
                self.write_node(*u_id, &u_node)?;
                self.write_node(right_id, &right)?;
                let moved = right.lids().clone();
                self.lidf_repoint(&moved, right_id)?;
                left_seam.push(Some((*u_id, u_node.count() as u64)));
                right_seam.push(Some((right_id, right.count() as u64)));
            }
        }

        // ---- rip levels 1 .. sub_height-1 ---------------------------------
        for level in 1..sub_height {
            let (v_id, v_node) = &path[level];
            let q = v_node.position_of_child(path[level - 1].0);
            let entries = v_node.entries();
            let mut left_entries: Vec<ChildEntry> = entries[..q].to_vec();
            if let Some((id, size)) = left_seam[level - 1] {
                left_entries.push(ChildEntry { child: id, size });
            }
            let mut right_entries: Vec<ChildEntry> = Vec::new();
            if let Some((id, size)) = right_seam[level - 1] {
                right_entries.push(ChildEntry { child: id, size });
            }
            right_entries.extend_from_slice(&entries[q + 1..]);
            debug_assert!(!right_entries.is_empty());
            let lsum: u64 = left_entries.iter().map(|e| e.size).sum();
            let rsum: u64 = right_entries.iter().map(|e| e.size).sum();

            if left_entries.is_empty() {
                // Everything moves right; reuse v's block so untouched
                // children keep valid back-links.
                let node = Node::Internal {
                    parent: v_node.parent(),
                    entries: right_entries,
                };
                self.write_node(*v_id, &node)?;
                if let Some((id, _)) = right_seam[level - 1] {
                    self.set_parent(id, *v_id)?;
                }
                left_seam.push(None);
                right_seam.push(Some((*v_id, rsum)));
            } else {
                let left = Node::Internal {
                    parent: v_node.parent(),
                    entries: left_entries,
                };
                self.write_node(*v_id, &left)?;
                // The left seam child from below kept its old block, whose
                // back-link already names v. Nothing to fix on the left.
                let right_id = self.pager().alloc()?;
                let right = Node::Internal {
                    parent: v_node.parent(),
                    entries: right_entries,
                };
                self.write_node(right_id, &right)?;
                for e in right.entries() {
                    self.set_parent(e.child, right_id)?;
                }
                left_seam.push(Some((*v_id, lsum)));
                right_seam.push(Some((right_id, rsum)));
            }
        }

        // ---- splice at level sub_height -----------------------------------
        if sub_height == self.height() {
            // T′ is exactly as tall as the host: the rip ran through the
            // root, so a new root is created over [left part, T′, right
            // part] and the tree grows one level.
            let mut entries: Vec<ChildEntry> = Vec::with_capacity(3);
            if let Some((id, size)) = left_seam[sub_height - 1] {
                entries.push(ChildEntry { child: id, size });
            }
            entries.push(ChildEntry {
                child: sub_root,
                size: n_tags as u64,
            });
            if let Some((id, size)) = right_seam[sub_height - 1] {
                entries.push(ChildEntry { child: id, size });
            }
            let new_root = self.pager().alloc()?;
            let node = Node::Internal {
                parent: BlockId::INVALID,
                entries,
            };
            self.write_node(new_root, &node)?;
            for e in node.entries() {
                self.set_parent(e.child, new_root)?;
            }
            let h = self.height();
            self.set_root(new_root, h + 1);
            // Repair the seams and T′'s root, top-down.
            self.take_freed_log();
            let mut dead: HashSet<BlockId> = HashSet::new();
            for level in (0..sub_height).rev() {
                if level == sub_height - 1 && !dead.contains(&sub_root) {
                    self.repair_if_underfull(sub_root)?;
                    dead.extend(self.take_freed_log());
                }
                for (id, _) in [left_seam[level], right_seam[level]].into_iter().flatten() {
                    if dead.contains(&id) {
                        continue;
                    }
                    self.repair_if_underfull(id)?;
                    dead.extend(self.take_freed_log());
                }
            }
            return Ok(new_lids);
        }
        let (w_id, w_node) = &path[sub_height];
        let mut w = w_node.clone();
        let q = w.position_of_child(path[sub_height - 1].0);
        let mut replacement: Vec<ChildEntry> = Vec::with_capacity(3);
        if let Some((id, size)) = left_seam[sub_height - 1] {
            replacement.push(ChildEntry { child: id, size });
        }
        replacement.push(ChildEntry {
            child: sub_root,
            size: n_tags as u64,
        });
        if let Some((id, size)) = right_seam[sub_height - 1] {
            replacement.push(ChildEntry { child: id, size });
        }
        w.entries_mut().splice(q..=q, replacement);
        // New children of w need their back-links set; if w splits below,
        // split_internal re-fixes whichever half moved.
        self.set_parent(sub_root, *w_id)?;
        if let Some((id, _)) = right_seam[sub_height - 1] {
            if id != path[sub_height - 1].0 {
                self.set_parent(id, *w_id)?;
            }
        }
        if w.count() <= self.config().internal_capacity {
            self.write_node(*w_id, &w)?;
            if self.config().ordinal {
                self.bump_sizes(w.parent(), *w_id, n_tags as i64)?;
            }
        } else {
            self.split_internal(*w_id, w, n_tags as i64)?;
        }

        // ---- repair seams, top-down ---------------------------------------
        self.take_freed_log();
        let mut dead: HashSet<BlockId> = HashSet::new();
        for level in (0..sub_height).rev() {
            if level == sub_height - 1 && !dead.contains(&sub_root) {
                // T′'s root may be under-filled for a non-root position.
                self.repair_if_underfull(sub_root)?;
                dead.extend(self.take_freed_log());
            }
            for (id, _) in [left_seam[level], right_seam[level]].into_iter().flatten() {
                if dead.contains(&id) {
                    continue;
                }
                self.repair_if_underfull(id)?;
                dead.extend(self.take_freed_log());
            }
        }
        Ok(new_lids)
    }

    /// Delete every label in the inclusive range spanned by `start_lid` and
    /// `end_lid` (the start/end tags of a subtree root), reclaiming tree
    /// blocks and LIDF records.
    pub fn delete_subtree(&mut self, start_lid: Lid, end_lid: Lid) -> IoResult<()> {
        let _span =
            boxes_trace::OpSpan::op(self.pager().trace(), self.trace_tag(), "subtree_delete");
        self.journaled(|t| t.delete_subtree_impl(start_lid, end_lid))
    }

    fn delete_subtree_impl(&mut self, start_lid: Lid, end_lid: Lid) -> IoResult<()> {
        assert_ne!(start_lid, end_lid, "a subtree has two distinct endpoints");
        let leaf_s = self.lidf_read_block(start_lid)?;
        let leaf_e = self.lidf_read_block(end_lid)?;
        if leaf_s == leaf_e {
            self.delete_range_within_leaf(leaf_s, start_lid, end_lid)?;
            return Ok(());
        }

        self.note_change_all();
        let path_s = self.path_to_root(leaf_s)?;
        let path_e = self.path_to_root(leaf_e)?;
        let meet = (0..path_s.len())
            .find(|&i| path_s[i].0 == path_e[i].0)
            .expect("paths meet at the root");
        debug_assert!(meet >= 1);

        let mut freed_lids: Vec<Lid> = Vec::new();
        // Surviving boundary block per ripped level (None = became empty).
        let mut s_alive: Vec<Option<BlockId>> = Vec::with_capacity(meet);
        let mut e_alive: Vec<Option<BlockId>> = Vec::with_capacity(meet);
        // Records deleted so far inside each boundary subtree.
        let mut s_deleted: u64 = 0;
        let mut e_deleted: u64 = 0;

        // ---- level 0 --------------------------------------------------------
        {
            let (s_id, s_node) = &path_s[0];
            let mut s_node = s_node.clone();
            let ps = s_node.position_of_lid(start_lid);
            let doomed = s_node.lids_mut().split_off(ps);
            s_deleted += doomed.len() as u64;
            freed_lids.extend(doomed);
            if s_node.count() == 0 {
                self.free_node(*s_id)?;
                s_alive.push(None);
            } else {
                self.write_node(*s_id, &s_node)?;
                s_alive.push(Some(*s_id));
            }

            let (e_id, e_node) = &path_e[0];
            let mut e_node = e_node.clone();
            let pe = e_node.position_of_lid(end_lid);
            let survivors = e_node.lids_mut().split_off(pe + 1);
            let doomed = std::mem::replace(e_node.lids_mut(), survivors);
            e_deleted += doomed.len() as u64;
            freed_lids.extend(doomed);
            if e_node.count() == 0 {
                self.free_node(*e_id)?;
                e_alive.push(None);
            } else {
                self.write_node(*e_id, &e_node)?;
                e_alive.push(Some(*e_id));
            }
        }

        // ---- levels 1 .. meet-1 ----------------------------------------------
        for level in 1..meet {
            // Start side: children after the path child die entirely; the
            // path child's entry shrinks by what was deleted inside it (or
            // disappears if the child emptied).
            let (s_id, s_node) = &path_s[level];
            let mut s_node = s_node.clone();
            let q = s_node.position_of_child(path_s[level - 1].0);
            let deleted_below = s_deleted;
            let dropped = s_node.entries_mut().split_off(q + 1);
            for e in &dropped {
                s_deleted += self.free_whole_subtree(e.child, &mut freed_lids)?;
            }
            match s_alive[level - 1] {
                Some(_) => {
                    let last = s_node.entries_mut().last_mut().expect("path entry");
                    // Size fields are only maintained in ordinal mode (the
                    // subtraction is exact there); saturate so the garbage
                    // values of plain mode stay harmless.
                    last.size = last.size.saturating_sub(deleted_below);
                }
                None => {
                    s_node.entries_mut().pop();
                }
            }
            if s_node.count() == 0 {
                self.free_node(*s_id)?;
                s_alive.push(None);
            } else {
                self.write_node(*s_id, &s_node)?;
                s_alive.push(Some(*s_id));
            }

            // End side, mirrored: children before the path child die.
            let (e_id, e_node) = &path_e[level];
            let mut e_node = e_node.clone();
            let q = e_node.position_of_child(path_e[level - 1].0);
            let deleted_below = e_deleted;
            let kept = e_node.entries_mut().split_off(q);
            let dropped = std::mem::replace(e_node.entries_mut(), kept);
            for e in &dropped {
                e_deleted += self.free_whole_subtree(e.child, &mut freed_lids)?;
            }
            match e_alive[level - 1] {
                Some(_) => {
                    let first = e_node.entries_mut().first_mut().expect("path entry");
                    first.size = first.size.saturating_sub(deleted_below);
                }
                None => {
                    e_node.entries_mut().remove(0);
                }
            }
            if e_node.count() == 0 {
                self.free_node(*e_id)?;
                e_alive.push(None);
            } else {
                self.write_node(*e_id, &e_node)?;
                e_alive.push(Some(*e_id));
            }
        }

        // ---- the meet node ----------------------------------------------------
        let (m_id, m_node) = &path_s[meet];
        let mut m = m_node.clone();
        let qs = m.position_of_child(path_s[meet - 1].0);
        let qe = m.position_of_child(path_e[meet - 1].0);
        debug_assert!(qs < qe);
        // Children strictly between the two paths die entirely.
        let mut middle_deleted: u64 = 0;
        for e in &m.entries()[qs + 1..qe] {
            middle_deleted += self.free_whole_subtree(e.child, &mut freed_lids)?;
        }
        let mut survivors: Vec<ChildEntry> = m.entries()[..qs].to_vec();
        if s_alive[meet - 1].is_some() {
            let mut entry = m.entries()[qs];
            entry.size = entry.size.saturating_sub(s_deleted);
            survivors.push(entry);
        }
        if e_alive[meet - 1].is_some() {
            let mut entry = m.entries()[qe];
            entry.size = entry.size.saturating_sub(e_deleted);
            survivors.push(entry);
        }
        survivors.extend_from_slice(&m.entries()[qe + 1..]);
        *m.entries_mut() = survivors;

        let total_deleted = s_deleted + e_deleted + middle_deleted;
        debug_assert_eq!(total_deleted as usize, freed_lids.len());
        self.add_len(-(total_deleted as i64));

        if m.count() == 0 {
            // Possible only when the range covered everything under m (and
            // m is not the root: the root always retains labels outside any
            // subtree — at least the document root's own tags... but guard
            // anyway by rebuilding an empty leaf if the whole tree emptied).
            let m_parent = m.parent();
            self.free_node(*m_id)?;
            if m_parent.is_invalid() {
                // Entire tree deleted: reset to a fresh empty leaf.
                let root = self.pager().alloc()?;
                self.write_node(root, &Node::leaf(BlockId::INVALID))?;
                self.set_root(root, 1);
            } else {
                let mut p = self.read_node(m_parent)?;
                let pos = p.position_of_child(*m_id);
                p.entries_mut().remove(pos);
                self.write_node(m_parent, &p)?;
                if self.config().ordinal {
                    self.bump_sizes(p.parent(), m_parent, -(total_deleted as i64))?;
                }
                self.lidf().free_batch(freed_lids)?;
                self.finish_subtree_delete_repairs(m_parent, meet, &s_alive, &e_alive)?;
                return Ok(());
            }
            self.lidf().free_batch(freed_lids)?;
            return Ok(());
        }
        self.write_node(*m_id, &m)?;
        if self.config().ordinal {
            self.bump_sizes(m.parent(), *m_id, -(total_deleted as i64))?;
        }
        self.lidf().free_batch(freed_lids)?;
        self.finish_subtree_delete_repairs(*m_id, meet, &s_alive, &e_alive)
    }

    /// Top-down seam repair after a subtree delete: the meet node (or its
    /// parent) first, then both boundary chains from just below the meet
    /// down to the leaves.
    fn finish_subtree_delete_repairs(
        &mut self,
        top: BlockId,
        meet: usize,
        s_alive: &[Option<BlockId>],
        e_alive: &[Option<BlockId>],
    ) -> IoResult<()> {
        self.take_freed_log();
        let mut dead: HashSet<BlockId> = HashSet::new();
        let repair = |this: &mut Self, id: BlockId, dead: &mut HashSet<BlockId>| {
            if !dead.contains(&id) {
                this.repair_if_underfull(id)?;
                dead.extend(this.take_freed_log());
            }
            Ok::<(), PagerError>(())
        };
        repair(self, top, &mut dead)?;
        for level in (0..meet).rev() {
            if let Some(id) = s_alive[level] {
                repair(self, id, &mut dead)?;
            }
            if let Some(id) = e_alive[level] {
                repair(self, id, &mut dead)?;
            }
        }
        Ok(())
    }

    /// Delete an inclusive LID range that lies within a single leaf.
    fn delete_range_within_leaf(&mut self, leaf_id: BlockId, start: Lid, end: Lid) -> IoResult<()> {
        let mut leaf = self.read_node(leaf_id)?;
        let ps = leaf.position_of_lid(start);
        let pe = leaf.position_of_lid(end);
        assert!(ps < pe, "subtree endpoints out of order");
        let doomed: Vec<Lid> = leaf.lids_mut().drain(ps..=pe).collect();
        let n = doomed.len() as i64;
        self.write_node(leaf_id, &leaf)?;
        self.lidf().free_batch(doomed)?;
        self.add_len(-n);
        if self.config().ordinal {
            self.bump_sizes(leaf.parent(), leaf_id, -n)?;
        }
        if !leaf.parent().is_invalid() && leaf.count() < self.config().min_leaf() {
            self.rebalance(leaf_id, leaf)?;
        }
        Ok(())
    }

    /// Free a whole subtree's blocks, appending its LIDs to `out`; returns
    /// the number of records it held.
    fn free_whole_subtree(&mut self, id: BlockId, out: &mut Vec<Lid>) -> IoResult<u64> {
        let node = self.read_node(id)?;
        let mut count = 0;
        match &node {
            Node::Leaf { lids, .. } => {
                count += lids.len() as u64;
                out.extend(lids.iter().copied());
            }
            Node::Internal { entries, .. } => {
                for e in entries {
                    count += self.free_whole_subtree(e.child, out)?;
                }
            }
        }
        self.free_node(id)?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BBoxConfig;
    use crate::label::PathLabel;
    use boxes_pager::{Pager, PagerConfig};

    fn make(ordinal: bool) -> BBox {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        let mut c = BBoxConfig::from_block_size(64);
        if ordinal {
            c = c.with_ordinal();
        }
        BBox::new(pager, c).unwrap()
    }

    fn assert_order(b: &BBox, lids: &[Lid]) {
        let labels: Vec<PathLabel> = lids.iter().map(|&l| b.lookup(l).unwrap()).collect();
        for (i, w) in labels.windows(2).enumerate() {
            assert!(
                w[0] < w[1],
                "order violated at {}: {:?} !< {:?}",
                i,
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn subtree_insert_in_the_middle() {
        for ordinal in [false, true] {
            let mut b = make(ordinal);
            let base = b.bulk_load(500).unwrap();
            let sub = b.insert_subtree_before(base[250], 60).unwrap();
            assert_eq!(b.len(), 560);
            let mut all = base[..250].to_vec();
            all.extend(&sub);
            all.extend(&base[250..]);
            assert_eq!(b.iter_lids().unwrap(), all, "ordinal={ordinal}");
            assert_order(&b, &all);
            b.validate();
        }
    }

    #[test]
    fn subtree_insert_at_document_start() {
        let mut b = make(true);
        let base = b.bulk_load(300).unwrap();
        let sub = b.insert_subtree_before(base[0], 40).unwrap();
        let mut all = sub.clone();
        all.extend(&base);
        assert_eq!(b.iter_lids().unwrap(), all);
        b.validate();
        for (i, &lid) in all.iter().enumerate().step_by(23) {
            assert_eq!(b.ordinal_of(lid).unwrap(), i as u64);
        }
    }

    #[test]
    fn subtree_insert_at_leaf_boundary() {
        let mut b = make(true);
        let base = b.bulk_load(700).unwrap();
        // Leaf capacity 7 and full bulk leaves: index 7 starts a leaf.
        let sub = b.insert_subtree_before(base[7], 50).unwrap();
        let mut all = base[..7].to_vec();
        all.extend(&sub);
        all.extend(&base[7..]);
        assert_eq!(b.iter_lids().unwrap(), all);
        b.validate();
    }

    #[test]
    fn subtree_insert_tall_falls_back() {
        let mut b = make(false);
        let base = b.bulk_load(20).unwrap();
        // 400 tags need a taller tree than the host: fallback path.
        let sub = b.insert_subtree_before(base[10], 400).unwrap();
        assert_eq!(sub.len(), 400);
        assert_eq!(b.len(), 420);
        let mut all = base[..10].to_vec();
        all.extend(&sub);
        all.extend(&base[10..]);
        assert_order(&b, &all);
        b.validate();
    }

    #[test]
    fn subtree_insert_is_much_cheaper_than_loose_inserts() {
        let mut bulk = make(false);
        let base = bulk.bulk_load(5_000).unwrap();
        let pager = bulk.pager().clone();
        let before = pager.stats();
        bulk.insert_subtree_before(base[2_500], 1_000).unwrap();
        let bulk_cost = pager.stats().since(&before).total();
        bulk.validate();

        let mut loose = make(false);
        let base = loose.bulk_load(5_000).unwrap();
        let pager = loose.pager().clone();
        let before = pager.stats();
        for _ in 0..1_000 {
            loose.insert_before(base[2_500]).unwrap();
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
            let mut b = make(ordinal);
            let base = b.bulk_load(500).unwrap();
            b.delete_subtree(base[100], base[399]).unwrap();
            assert_eq!(b.len(), 200, "ordinal={ordinal}");
            let mut rest = base[..100].to_vec();
            rest.extend(&base[400..]);
            assert_eq!(b.iter_lids().unwrap(), rest);
            assert_order(&b, &rest);
            b.validate();
        }
    }

    #[test]
    fn subtree_delete_within_one_leaf() {
        let mut b = make(true);
        let base = b.bulk_load(100).unwrap();
        b.delete_subtree(base[1], base[3]).unwrap();
        assert_eq!(b.len(), 97);
        let mut rest = vec![base[0]];
        rest.extend(&base[4..]);
        assert_eq!(b.iter_lids().unwrap(), rest);
        b.validate();
    }

    #[test]
    fn subtree_delete_prefix_and_suffix() {
        let mut b = make(true);
        let base = b.bulk_load(400).unwrap();
        b.delete_subtree(base[0], base[149]).unwrap();
        b.validate();
        b.delete_subtree(base[300], base[399]).unwrap();
        b.validate();
        assert_eq!(b.len(), 150);
        assert_eq!(b.iter_lids().unwrap(), base[150..300].to_vec());
    }

    #[test]
    fn subtree_delete_almost_everything() {
        let mut b = make(true);
        let base = b.bulk_load(600).unwrap();
        b.delete_subtree(base[1], base[598]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter_lids().unwrap(), vec![base[0], base[599]]);
        assert_eq!(b.height(), 1, "tree collapsed to a leaf");
        b.validate();
    }

    #[test]
    fn subtree_delete_matches_loose_deletes() {
        let mut bulk = make(true);
        let a = bulk.bulk_load(300).unwrap();
        bulk.delete_subtree(a[40], a[259]).unwrap();
        bulk.validate();

        let mut loose = make(true);
        let b = loose.bulk_load(300).unwrap();
        for &lid in &b[40..260] {
            loose.delete(lid).unwrap();
        }
        loose.validate();

        assert_eq!(bulk.len(), loose.len());
        // Same logical document: position i survivors align.
        let la = bulk.iter_lids().unwrap();
        let lb = loose.iter_lids().unwrap();
        let pos_a: Vec<usize> = la
            .iter()
            .map(|l| a.iter().position(|x| x == l).unwrap())
            .collect();
        let pos_b: Vec<usize> = lb
            .iter()
            .map(|l| b.iter().position(|x| x == l).unwrap())
            .collect();
        assert_eq!(pos_a, pos_b);
    }

    #[test]
    fn subtree_delete_then_reuse_space() {
        let mut b = make(false);
        let base = b.bulk_load(1000).unwrap();
        let blocks_full = b.pager().allocated_blocks();
        b.delete_subtree(base[10], base[989]).unwrap();
        let blocks_after = b.pager().allocated_blocks();
        // Tree blocks are reclaimed; LIDF blocks persist (their slots are
        // recycled through the free list instead).
        assert!(
            blocks_after < blocks_full / 2 + 10,
            "blocks reclaimed: {blocks_full} -> {blocks_after}"
        );
        // Freed LIDs are recycled by later inserts.
        let n = b.insert_before(base[990]).unwrap();
        assert!(n.0 < 1000, "recycled a freed LIDF slot: {n:?}");
        b.validate();
    }

    #[test]
    fn interleaved_subtree_ops_stay_consistent() {
        let mut b = make(true);
        let base = b.bulk_load(200).unwrap();
        let s1 = b.insert_subtree_before(base[100], 80).unwrap();
        b.validate();
        b.delete_subtree(s1[10], s1[69]).unwrap();
        b.validate();
        let s2 = b.insert_subtree_before(base[150], 30).unwrap();
        b.validate();
        assert_eq!(b.len(), 200 + 80 - 60 + 30);
        let all = b.iter_lids().unwrap();
        assert_order(&b, &all);
        let _ = s2;
    }
}

#[cfg(test)]
mod repro {
    use crate::config::BBoxConfig;
    use crate::tree::BBox;
    use boxes_pager::{Pager, PagerConfig};

    #[test]
    fn single_record_subtree_insert_everywhere() {
        for n in [60usize, 100, 131, 140] {
            for at in (0..n).step_by(1) {
                let pager = Pager::new(PagerConfig::with_block_size(128));
                let mut b = BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap();
                let order = b.bulk_load(n).unwrap();
                b.insert_subtree_before(order[at], 1).unwrap();
                let report = boxes_audit::Auditable::audit(&b);
                assert!(report.is_clean(), "n={n} at={at}: {report}");
            }
        }
    }

    #[test]
    fn minimal_failing_sequence_from_proptest() {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        let mut b = BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap();
        let mut order = b.bulk_load(100).unwrap();
        // Insert(45, 31)
        let at = 45 % order.len();
        let new = b.insert_subtree_before(order[at], 31).unwrap();
        for (j, lid) in new.into_iter().enumerate() {
            order.insert(at + j, lid);
        }
        b.validate();
        // Insert(333, 1)
        let at = 333 % order.len();
        let new = b.insert_subtree_before(order[at], 1).unwrap();
        for (j, lid) in new.into_iter().enumerate() {
            order.insert(at + j, lid);
        }
        b.validate();
        // Delete(125, 480) → indices wrapped
        let mut a = 125 % order.len();
        let mut c = 480 % order.len();
        if a > c {
            std::mem::swap(&mut a, &mut c);
        }
        if a != c {
            b.delete_subtree(order[a], order[c]).unwrap();
            order.drain(a..=c);
        }
        b.validate();
        // Insert(0, 7)
        let at = 0;
        let new = b.insert_subtree_before(order[at], 7).unwrap();
        for (j, lid) in new.into_iter().enumerate() {
            order.insert(at + j, lid);
        }
        b.validate();
    }
}
