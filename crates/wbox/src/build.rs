//! Bulk construction for W-BOX (§4): O(N/B) bulk loading, the global
//! rebuilding that backs O(1) amortized deletion, and the shared
//! structure-builder used by subtree insert/delete.
//!
//! The builder materializes the node hierarchy in memory first (leaf
//! contents are already in memory at that point), assigns subranges bottom-
//! up and label ranges top-down, then writes every node exactly once — the
//! same single-pass I/O pattern the paper gets by keeping the rightmost
//! spine in memory.

#![expect(
    clippy::expect_used,
    reason = "bulk-load level vectors are non-empty by construction (each level emits >= 1 node)"
)]
#![expect(
    clippy::as_conversions,
    reason = "bulk-load capacity formula widens small config ints; pow exponent is a tree level <= D"
)]

use crate::node::{LeafRecord, WEntry, WNode};
use crate::tree::WBox;
use boxes_lidf::{BlockPtrRecord, Lid};
use boxes_pager::codec::usize_to_u64;
use boxes_pager::BlockId;
use boxes_trace::OpSpan;
use std::collections::HashMap;

/// A leaf in the making: an optional reused block plus its contents.
pub(crate) struct LeafUnit {
    /// Reuse this block if set; otherwise a fresh block is allocated.
    pub block: Option<BlockId>,
    /// Tombstone count carried over (weight stays charged).
    pub tombstones: u16,
    /// Live records in document order.
    pub recs: Vec<LeafRecord>,
}

impl LeafUnit {
    /// A not-yet-persisted unit holding `recs`, with no tombstones.
    pub fn fresh(recs: Vec<LeafRecord>) -> Self {
        LeafUnit {
            block: None,
            tombstones: 0,
            recs,
        }
    }

    /// Weight as charged by the W-BOX balance invariant: live records plus
    /// tombstones.
    pub fn weight(&self) -> u64 {
        usize_to_u64(self.recs.len()) + u64::from(self.tombstones)
    }
}

impl WBox {
    /// Bulk load `count` fresh labels into an empty W-BOX in document
    /// order. O(N/B) I/Os. Returns the LIDs in order.
    pub fn bulk_load(&mut self, count: usize) -> Vec<Lid> {
        let _span = OpSpan::op(self.pager().trace(), self.trace_tag(), "bulk_load");
        self.journaled(|t| t.bulk_load_impl(count, None))
    }

    /// Bulk load with pair wiring (W-BOX-O): `partner_of[i]` is the index
    /// of tag i's partner tag (start tags point at their end tag and vice
    /// versa). Requires pair mode.
    pub fn bulk_load_pairs(&mut self, partner_of: &[usize]) -> Vec<Lid> {
        assert!(
            self.config().pair,
            "bulk_load_pairs requires pair optimization"
        );
        let _span = OpSpan::op(self.pager().trace(), self.trace_tag(), "bulk_load");
        self.journaled(|t| t.bulk_load_impl(partner_of.len(), Some(partner_of)))
    }

    fn bulk_load_impl(&mut self, count: usize, partner_of: Option<&[usize]>) -> Vec<Lid> {
        assert!(
            self.is_empty() && self.height() == 1,
            "bulk_load on a non-empty W-BOX"
        );
        if count == 0 {
            return Vec::new();
        }
        // LIDs are sequential on an empty LIDF, so pair identities can be
        // wired before allocation.
        let sizes = leaf_chunk_sizes(
            count,
            self.config().leaf_capacity(),
            self.config().min_weight(0),
        );
        let blocks: Vec<BlockId> = sizes.iter().map(|_| self.pager().alloc()).collect();
        let mut records = Vec::with_capacity(count);
        let mut units: Vec<LeafUnit> = Vec::with_capacity(sizes.len());
        let mut idx = 0usize;
        for (&size, &block) in sizes.iter().zip(&blocks) {
            let mut recs = Vec::with_capacity(size);
            for _ in 0..size {
                let lid = Lid(idx as u64);
                let rec = match partner_of {
                    Some(p) => LeafRecord {
                        lid,
                        is_start: idx < p[idx],
                        partner_lid: Lid(p[idx] as u64),
                        partner: BlockId::INVALID, // filled by the builder
                        end_cache: 0,
                    },
                    None => LeafRecord::plain(lid),
                };
                records.push(BlockPtrRecord::new(block));
                recs.push(rec);
                idx += 1;
            }
            units.push(LeafUnit {
                block: Some(block),
                tombstones: 0,
                recs,
            });
        }
        let lids = self.lidf().bulk_append(&records);
        debug_assert!(lids.iter().enumerate().all(|(i, l)| l.0 == i as u64));

        let old_root = self.root_id();
        self.pager().free(old_root);
        let (root, height) = self.build_auto(units);
        self.set_root(root, height);
        self.set_live(count as u64);
        lids
    }

    /// Rebuild the entire structure from its live records — §4's global
    /// rebuilding, triggered after N/2 deletions. O(N/B) I/Os.
    pub(crate) fn global_rebuild(&mut self) {
        let _phase = OpSpan::phase(self.pager().trace(), "rebuild");
        self.bump_counter(|c| c.global_rebuilds += 1);
        self.note_relabel(0, u64::MAX);
        let mut records = Vec::with_capacity(self.len() as usize);
        self.collect_records_and_free(self.root_id(), &mut records);
        let live = usize_to_u64(records.len());
        if records.is_empty() {
            let root = self.pager().alloc();
            self.write_node(root, &WNode::leaf(0));
            self.set_root(root, 1);
            self.set_live(0);
            return;
        }
        let units = chunk_records(
            records,
            self.config().leaf_capacity(),
            self.config().min_weight(0),
        );
        let (root, height) = self.build_auto(units);
        self.set_root(root, height);
        self.set_live(live);
    }

    /// DFS that collects full leaf records in document order and frees
    /// every visited block.
    pub(crate) fn collect_records_and_free(&mut self, id: BlockId, out: &mut Vec<LeafRecord>) {
        match self.read_node(id) {
            WNode::Leaf { recs, .. } => out.extend(recs),
            WNode::Internal { entries } => {
                for e in entries {
                    self.collect_records_and_free(e.child, out);
                }
            }
        }
        self.pager().free(id);
    }

    /// Build a complete structure over `units`, growing levels until a
    /// single top node remains; the root's range starts at label 0.
    /// Returns (root block, height).
    pub(crate) fn build_auto(&mut self, units: Vec<LeafUnit>) -> (BlockId, usize) {
        let leaves = self.place_leaves(units);
        let pyramid = self.build_pyramid(leaves, None);
        let height = pyramid.len();
        let top_level = height - 1;
        let (top_block, _) = pyramid[top_level][0];
        self.write_pyramid(pyramid, top_level, 0);
        (top_block, height)
    }

    /// Build a structure of *exactly* `target_level + 1` levels over
    /// `units`, with the top node placed in `top_block` and owning the
    /// range starting at `top_lo`. Used by subtree rebuilds, where the
    /// rebuilt subtree must keep its original level and range.
    pub(crate) fn build_at_level(
        &mut self,
        units: Vec<LeafUnit>,
        target_level: usize,
        top_block: BlockId,
        top_lo: u64,
    ) -> (u64, u64) {
        self.note_relabel(top_lo, top_lo + self.config().range_len(target_level) - 1);
        let leaves = self.place_leaves(units);
        let pyramid = self.build_pyramid(leaves, Some((target_level, top_block)));
        assert_eq!(pyramid.len(), target_level + 1, "rebuild height mismatch");
        let top = &pyramid[target_level][0].1;
        let (w, s) = (top.weight(), top.size());
        self.write_pyramid(pyramid, target_level, top_lo);
        (w, s)
    }

    /// Group levels bottom-up until a single node remains (or until the
    /// forced target level when `force_top` is set). Nothing is written;
    /// subrange indices are final, label ranges are not yet assigned.
    fn build_pyramid(
        &mut self,
        leaves: Vec<(BlockId, WNode)>,
        force_top: Option<(usize, BlockId)>,
    ) -> Vec<Vec<(BlockId, WNode)>> {
        let mut pyramid = vec![leaves];
        let mut level = 0usize;
        loop {
            let current = pyramid.last().expect("non-empty pyramid");
            let at_forced_top = force_top.is_some_and(|(t, _)| level == t);
            if at_forced_top || (force_top.is_none() && current.len() == 1 && level > 0) {
                break;
            }
            if force_top.is_none() && current.len() == 1 {
                // A single leaf is a complete tree.
                break;
            }
            level += 1;
            let force_single = force_top.is_some_and(|(t, _)| level == t);
            let groups = if force_single {
                vec![pyramid.last().expect("level").len()]
            } else {
                group_level(
                    pyramid.last().expect("level"),
                    self.config().max_weight(level) / 2,
                    self.config().min_weight(level),
                )
            };
            let mut next: Vec<(BlockId, WNode)> = Vec::with_capacity(groups.len());
            let is_top_alloc = force_top
                .filter(|(t, _)| level == *t)
                .map(|(_, block)| block);
            let current = pyramid.last().expect("level");
            let mut cursor = 0usize;
            for (gi, gsize) in groups.iter().enumerate() {
                let block = match is_top_alloc {
                    Some(b) if gi == 0 => b,
                    _ => self.pager().alloc(),
                };
                let children = &current[cursor..cursor + gsize];
                cursor += gsize;
                let c = children.len();
                let entries: Vec<WEntry> = children
                    .iter()
                    .enumerate()
                    .map(|(t, (cb, cn))| WEntry {
                        child: *cb,
                        subrange: (t * self.config().b / c) as u16,
                        weight: cn.weight(),
                        size: cn.size(),
                    })
                    .collect();
                assert!(
                    entries.len() <= self.config().b,
                    "bulk fan-out overflow: {} > {}",
                    entries.len(),
                    self.config().b
                );
                next.push((block, WNode::Internal { entries }));
            }
            pyramid.push(next);
        }
        pyramid
    }

    /// Assign label ranges top-down over a finished pyramid and write every
    /// node exactly once (pair fields are refreshed on the way).
    fn write_pyramid(
        &mut self,
        mut pyramid: Vec<Vec<(BlockId, WNode)>>,
        top_level: usize,
        top_lo: u64,
    ) {
        // Compute each node's range base, walking levels top-down.
        let mut lo_of: HashMap<BlockId, u64> = HashMap::new();
        let (top_block, _) = pyramid[top_level][0];
        lo_of.insert(top_block, top_lo);
        for level in (1..=top_level).rev() {
            let len = self.config().range_len(level - 1);
            let nodes = &pyramid[level];
            for (block, node) in nodes {
                let base = *lo_of.get(block).expect("parent range known");
                for e in node.entries() {
                    lo_of.insert(e.child, base + e.subrange as u64 * len);
                }
            }
        }
        // Write internal levels.
        for nodes in pyramid.iter().take(top_level + 1).skip(1) {
            for (block, node) in nodes {
                self.write_node(*block, node);
            }
        }
        // Set leaf ranges, refresh pair fields, write leaves.
        let leaves = std::mem::take(&mut pyramid[0]);
        let leaves: Vec<(BlockId, WNode)> = leaves
            .into_iter()
            .map(|(block, mut node)| {
                if let WNode::Leaf { range_lo, .. } = &mut node {
                    *range_lo = lo_of[&block];
                }
                (block, node)
            })
            .collect();
        self.finish_leaves(leaves);
    }

    /// Final pass over materialized leaves: refresh pair fields (partner
    /// blocks and end caches) now that every record's placement is known,
    /// then write each leaf once. Partners outside this build are patched
    /// remotely (≤ D of them for a subtree rebuild, per Theorem 4.7).
    fn finish_leaves(&mut self, leaves: Vec<(BlockId, WNode)>) {
        if !self.config().pair {
            for (block, node) in &leaves {
                self.write_node(*block, node);
            }
            return;
        }
        let mut placed: HashMap<Lid, (BlockId, u64)> = HashMap::new();
        for (block, node) in &leaves {
            let lo = node.range_lo();
            for (i, r) in node.recs().iter().enumerate() {
                placed.insert(r.lid, (*block, lo + i as u64));
            }
        }
        let mut remote: Vec<(BlockId, Lid, Option<u64>, Option<BlockId>)> = Vec::new();
        for (block, mut node) in leaves {
            Self::refresh_pair_fields(node.recs_mut(), &placed);
            let lo = node.range_lo();
            for (i, r) in node.recs().iter().enumerate() {
                if r.partner_lid == Lid::INVALID || placed.contains_key(&r.partner_lid) {
                    continue;
                }
                // Partner lives outside the rebuild: it must learn this
                // record's new block, and — when this is an end record —
                // its new label for the partner's cache.
                let label = lo + i as u64;
                let cache = (!r.is_start).then_some(label);
                remote.push((r.partner, r.partner_lid, cache, Some(block)));
            }
            self.write_node(block, &node);
        }
        self.apply_remote_pair_fixes(remote);
    }

    /// Grouped remote fixes: set the partner-block pointer and/or the end
    /// cache of records living outside a rebuild scope.
    pub(crate) fn apply_remote_pair_fixes(
        &mut self,
        mut fixes: Vec<(BlockId, Lid, Option<u64>, Option<BlockId>)>,
    ) {
        fixes.sort_by_key(|(b, _, _, _)| *b);
        let mut i = 0;
        while i < fixes.len() {
            let block = fixes[i].0;
            let mut node = self.read_node(block);
            while i < fixes.len() && fixes[i].0 == block {
                let (_, lid, cache, pblock) = fixes[i];
                if let Some(r) = node.recs_mut().iter_mut().find(|r| r.lid == lid) {
                    if let Some(c) = cache {
                        r.end_cache = c;
                    }
                    if let Some(p) = pblock {
                        r.partner = p;
                    }
                }
                i += 1;
            }
            self.write_node(block, &node);
        }
    }

    /// Allocate blocks for units (reusing kept blocks) and re-point the
    /// LIDF records of every record that landed in a fresh block.
    fn place_leaves(&mut self, units: Vec<LeafUnit>) -> Vec<(BlockId, WNode)> {
        let mut out = Vec::with_capacity(units.len());
        let mut repoint: Vec<(Lid, BlockPtrRecord)> = Vec::new();
        for unit in units {
            let reused = unit.block.is_some();
            let block = unit.block.unwrap_or_else(|| self.pager().alloc());
            if !reused {
                for r in &unit.recs {
                    repoint.push((r.lid, BlockPtrRecord::new(block)));
                }
            }
            out.push((
                block,
                WNode::Leaf {
                    range_lo: 0,
                    tombstones: unit.tombstones,
                    recs: unit.recs,
                },
            ));
        }
        if !repoint.is_empty() {
            self.lidf().write_batch(repoint);
        }
        out
    }
}

/// Chunk `total` records into full leaves (capacity 2k − 1), rebalancing
/// the last two so every leaf weight exceeds the level-0 minimum.
pub(crate) fn leaf_chunk_sizes(total: usize, cap: usize, min_excl: u64) -> Vec<usize> {
    assert!(total > 0);
    if total <= cap {
        return vec![total];
    }
    let mut sizes = vec![cap; total / cap];
    let rem = total % cap;
    if rem > 0 {
        if rem as u64 > min_excl {
            sizes.push(rem);
        } else {
            let tail = cap + rem;
            sizes.pop();
            sizes.push(tail.div_ceil(2));
            sizes.push(tail / 2);
        }
    }
    sizes
}

/// Chunk concrete records into fresh leaf units.
pub(crate) fn chunk_records(records: Vec<LeafRecord>, cap: usize, min_excl: u64) -> Vec<LeafUnit> {
    let sizes = leaf_chunk_sizes(records.len(), cap, min_excl);
    let mut units = Vec::with_capacity(sizes.len());
    let mut iter = records.into_iter();
    for size in sizes {
        units.push(LeafUnit::fresh(iter.by_ref().take(size).collect()));
    }
    units
}

/// Group one level's nodes into parent groups: close a group once its
/// weight reaches `target` (= aⁱk); a too-light tail merges into the last
/// group (the combined weight stays below 2aⁱk — see DESIGN.md).
pub(crate) fn group_level(nodes: &[(BlockId, WNode)], target: u64, min_excl: u64) -> Vec<usize> {
    let mut groups = Vec::new();
    let mut acc = 0u64;
    let mut count = 0usize;
    for (_, node) in nodes {
        acc += node.weight();
        count += 1;
        if acc >= target {
            groups.push(count);
            acc = 0;
            count = 0;
        }
    }
    if count > 0 {
        if acc > min_excl || groups.is_empty() {
            groups.push(count);
        } else {
            *groups.last_mut().expect("non-empty") += count;
        }
    }
    groups
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

    #[test]
    fn leaf_chunking_respects_bounds() {
        for total in 1..300 {
            let sizes = leaf_chunk_sizes(total, 7, 2);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            for &s in &sizes {
                assert!(s <= 7);
                if total > 2 {
                    assert!(s as u64 > 2, "chunk {s} too light in {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn bulk_load_small_and_lookup() {
        let mut w = make(false);
        let lids = w.bulk_load(5);
        assert_eq!(w.len(), 5);
        assert_eq!(w.height(), 1);
        let labels: Vec<u64> = lids.iter().map(|&l| w.lookup(l)).collect();
        assert_eq!(labels, vec![0, 1, 2, 3, 4], "leaf-ordinal labels from 0");
        w.validate();
    }

    #[test]
    fn bulk_load_multi_level() {
        let mut w = make(true);
        let lids = w.bulk_load(2000);
        assert!(w.height() >= 3);
        assert_eq!(w.iter_lids(), lids);
        w.validate();
        for (i, &lid) in lids.iter().enumerate().step_by(131) {
            assert_eq!(w.ordinal_of(lid), i as u64);
        }
    }

    #[test]
    fn bulk_load_is_linear_io() {
        let mut w = make(false);
        let pager = w.pager().clone();
        let before = pager.stats();
        w.bulk_load(20_000);
        let cost = pager.stats().since(&before);
        let blocks = pager.allocated_blocks() as u64;
        assert!(
            cost.total() <= 3 * blocks + 10,
            "bulk load must be O(N/B): {cost:?} for {blocks} blocks"
        );
        w.validate();
    }

    #[test]
    fn bulk_load_exact_boundaries() {
        for count in [7, 8, 14, 49, 56] {
            let mut w = make(true);
            let lids = w.bulk_load(count);
            assert_eq!(lids.len(), count);
            w.validate();
        }
    }
}
