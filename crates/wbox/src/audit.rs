//! Non-panicking audit of every §4 invariant (the `boxes-audit`
//! integration).
//!
//! The auditor mirrors the checks the legacy `validate()` performed — weight
//! bounds, range assignment, label order, LIDF agreement, pair linkage, the
//! N/2 rebuild rule — but collects typed [`Violation`]s instead of panicking
//! on the first failure, and survives arbitrary on-disk corruption: child
//! pointers into unallocated blocks, undecodable node bytes, and reference
//! cycles are all reported rather than chased.

use crate::node::{LeafRecord, WNode};
use crate::tree::WBox;
use boxes_audit::{AuditReport, Auditable, Violation, ViolationKind};
use boxes_lidf::Lid;
use boxes_pager::codec::usize_to_u64;
use boxes_pager::BlockId;
use std::collections::{HashMap, HashSet};

/// What the DFS remembers about each leaf, for the order and pair passes.
struct LeafInfo {
    range_lo: u64,
    recs: Vec<LeafRecord>,
}

struct WAuditor<'a> {
    tree: &'a WBox,
    report: AuditReport,
    /// Every block reached, to catch child-pointer cycles and reuse.
    visited: HashSet<BlockId>,
    /// Which leaf each LID was first seen in, to catch duplicates.
    lid_owner: HashMap<Lid, BlockId>,
    /// Leaves in DFS (document) order.
    leaves: Vec<(BlockId, LeafInfo)>,
}

impl<'a> WAuditor<'a> {
    fn push(&mut self, v: Violation) {
        self.report.push(v);
    }

    /// Audit the subtree at `id`. Returns the subtree's actual
    /// (weight, size), or `None` when the node could not be read — the
    /// parent then skips its stale-field checks for this child instead of
    /// cascading bogus mismatches.
    fn audit_node(
        &mut self,
        id: BlockId,
        level: usize,
        range_lo: u64,
        is_root: bool,
        path: &str,
    ) -> Option<(u64, u64)> {
        if !self.visited.insert(id) {
            self.push(
                Violation::new(ViolationKind::ChildReuse, path)
                    .at_block(id.0)
                    .expected("each block referenced as a child once")
                    .actual("block reached again (shared child or cycle)"),
            );
            return None;
        }
        if !self.tree.pager().is_allocated(id) {
            self.push(
                Violation::new(ViolationKind::CorruptNode, path)
                    .at_block(id.0)
                    .expected("child pointer to an allocated block")
                    .actual("block is unallocated"),
            );
            return None;
        }
        let config = self.tree.config();
        let bytes = match self.tree.pager().read(id) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.push(Violation::unreadable(path, e).at_block(id.0));
                return None;
            }
        };
        let node = match WNode::try_decode(&bytes, config.pair) {
            Ok(node) => node,
            Err(e) => {
                self.push(
                    Violation::new(ViolationKind::CorruptNode, path)
                        .at_block(id.0)
                        .expected("decodable W-BOX node")
                        .actual(e),
                );
                return None;
            }
        };
        let w = node.weight();
        if w >= config.max_weight(level) {
            self.push(
                Violation::new(ViolationKind::WeightOverflow, path)
                    .at_block(id.0)
                    .expected(format!(
                        "weight < {} at level {level}",
                        config.max_weight(level)
                    ))
                    .actual(w),
            );
        }
        if !is_root && w <= config.min_weight(level) {
            self.push(
                Violation::new(ViolationKind::WeightUnderflow, path)
                    .at_block(id.0)
                    .expected(format!(
                        "weight > {} at level {level}",
                        config.min_weight(level)
                    ))
                    .actual(w),
            );
        }
        match node {
            WNode::Leaf {
                range_lo: lo,
                tombstones,
                recs,
            } => {
                if level != 0 {
                    self.push(
                        Violation::new(ViolationKind::DepthMismatch, path)
                            .at_block(id.0)
                            .expected("leaves only at level 0")
                            .actual(format!("leaf at level {level}")),
                    );
                }
                if lo != range_lo {
                    self.push(
                        Violation::new(ViolationKind::RangeMismatch, path)
                            .at_block(id.0)
                            .expected(format!("range_lo {range_lo} (from ancestor subranges)"))
                            .actual(lo),
                    );
                }
                if recs.len() > config.leaf_capacity() {
                    self.push(
                        Violation::new(ViolationKind::FillOverflow, path)
                            .at_block(id.0)
                            .expected(format!("≤ {} records", config.leaf_capacity()))
                            .actual(recs.len()),
                    );
                }
                for (i, r) in recs.iter().enumerate() {
                    let rec_path = format!("{path}/rec[{i}]");
                    if let Some(&first) = self.lid_owner.get(&r.lid) {
                        self.push(
                            Violation::new(ViolationKind::DuplicateLid, rec_path.clone())
                                .at_block(id.0)
                                .expected(format!("{:?} in exactly one leaf", r.lid))
                                .actual(format!("already in block {}", first.0)),
                        );
                    } else {
                        self.lid_owner.insert(r.lid, id);
                    }
                    match self.tree.lidf_ref().read_live(r.lid) {
                        Err(e) => self.push(Violation::unreadable(rec_path, e).at_block(id.0)),
                        Ok(None) => self.push(
                            Violation::new(ViolationKind::LidfMismatch, rec_path)
                                .at_block(id.0)
                                .expected(format!("live LIDF record for {:?}", r.lid))
                                .actual("slot freed or out of range"),
                        ),
                        Ok(Some(rec)) if rec.block != id => self.push(
                            Violation::new(ViolationKind::LidfMismatch, rec_path)
                                .at_block(id.0)
                                .expected(format!("LIDF points {:?} at this leaf", r.lid))
                                .actual(format!("points at block {}", rec.block.0)),
                        ),
                        Ok(Some(_)) => {}
                    }
                }
                let size = usize_to_u64(recs.len());
                self.leaves.push((id, LeafInfo { range_lo: lo, recs }));
                Some((size + u64::from(tombstones), size))
            }
            WNode::Internal { entries } => {
                if level == 0 {
                    self.push(
                        Violation::new(ViolationKind::DepthMismatch, path)
                            .at_block(id.0)
                            .expected("internal nodes above level 0")
                            .actual("internal node at leaf level"),
                    );
                    return None; // no sane recursion target below level 0
                }
                if entries.len() > config.b {
                    self.push(
                        Violation::new(ViolationKind::FillOverflow, path)
                            .at_block(id.0)
                            .expected(format!("≤ {} children", config.b))
                            .actual(entries.len()),
                    );
                }
                if is_root && entries.len() < 2 {
                    self.push(
                        Violation::new(ViolationKind::RootArity, path)
                            .at_block(id.0)
                            .expected("internal root with ≥ 2 children")
                            .actual(entries.len()),
                    );
                }
                let len = config.range_len(level - 1);
                let mut prev_sub: Option<u16> = None;
                let mut weight = 0u64;
                let mut size = 0u64;
                for (i, e) in entries.iter().enumerate() {
                    let child_path = format!("{path}/child[{i}]");
                    if usize::from(e.subrange) >= config.b {
                        self.push(
                            Violation::new(ViolationKind::RangeMismatch, child_path.clone())
                                .at_block(id.0)
                                .expected(format!("subrange < {}", config.b))
                                .actual(e.subrange),
                        );
                    }
                    if let Some(p) = prev_sub {
                        if p >= e.subrange {
                            self.push(
                                Violation::new(ViolationKind::KeyOrder, child_path.clone())
                                    .at_block(id.0)
                                    .expected(format!("subrange > {p} (strictly increasing)"))
                                    .actual(e.subrange),
                            );
                        }
                    }
                    prev_sub = Some(e.subrange);
                    let child_lo = range_lo + u64::from(e.subrange) * len;
                    match self.audit_node(e.child, level - 1, child_lo, false, &child_path) {
                        Some((cw, cs)) => {
                            if cw != e.weight {
                                self.push(
                                    Violation::new(ViolationKind::StaleWeight, child_path.clone())
                                        .at_block(id.0)
                                        .expected(format!(
                                            "cached weight {cw} (actual subtree weight)"
                                        ))
                                        .actual(e.weight),
                                );
                            }
                            if config.ordinal && cs != e.size {
                                self.push(
                                    Violation::new(ViolationKind::StaleSize, child_path)
                                        .at_block(id.0)
                                        .expected(format!("cached size {cs} (actual live count)"))
                                        .actual(e.size),
                                );
                            }
                            weight += cw;
                            size += cs;
                        }
                        None => {
                            // Unreadable child: fall back to the cached
                            // fields so the ancestors' sums stay meaningful.
                            weight += e.weight;
                            size += e.size;
                        }
                    }
                }
                Some((weight, size))
            }
        }
    }

    /// Labels strictly increase across leaves in DFS order. Within a leaf
    /// the ordinal rule makes labels consecutive by construction, so only
    /// the seams between leaves can disagree.
    fn audit_label_order(&mut self) {
        let mut prev: Option<(u64, BlockId)> = None;
        for (id, leaf) in &self.leaves {
            if leaf.recs.is_empty() {
                continue;
            }
            let first = leaf.range_lo;
            if let Some((last, prev_id)) = prev {
                if last >= first {
                    self.report.push(
                        Violation::new(ViolationKind::KeyOrder, format!("wbox/leaf@{}", id.0))
                            .at_block(id.0)
                            .expected(format!(
                                "first label > {last} (last of block {})",
                                prev_id.0
                            ))
                            .actual(first),
                    );
                }
            }
            prev = Some((first + usize_to_u64(leaf.recs.len()) - 1, *id));
        }
    }

    /// W-BOX-O: pair links must be mutual with opposite flags, partner
    /// block pointers fresh, and cached end labels current.
    fn audit_pairs(&mut self) {
        let by_block: HashMap<BlockId, usize> = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        let mut found = Vec::new();
        for (id, leaf) in &self.leaves {
            for r in &leaf.recs {
                if r.partner_lid == Lid::INVALID {
                    continue;
                }
                let path = format!("wbox/leaf@{}/pair({:?})", id.0, r.lid);
                let pblock = match self.tree.lidf_ref().read_live(r.partner_lid) {
                    Ok(Some(rec)) => rec.block,
                    Ok(None) => {
                        found.push(
                            Violation::new(ViolationKind::PairLink, path)
                                .at_block(id.0)
                                .expected(format!("live partner {:?}", r.partner_lid))
                                .actual("partner LIDF slot freed or out of range"),
                        );
                        continue;
                    }
                    Err(e) => {
                        found.push(Violation::unreadable(path, e).at_block(id.0));
                        continue;
                    }
                };
                if r.partner != pblock {
                    found.push(
                        Violation::new(ViolationKind::PairLink, path.clone())
                            .at_block(id.0)
                            .expected(format!("partner block {} (per LIDF)", pblock.0))
                            .actual(format!("cached partner block {}", r.partner.0)),
                    );
                }
                let Some(&pi) = by_block.get(&pblock) else {
                    found.push(
                        Violation::new(ViolationKind::PairLink, path)
                            .at_block(pblock.0)
                            .expected("partner block is a leaf of this tree")
                            .actual("block not reached by the tree walk"),
                    );
                    continue;
                };
                let pleaf = &self.leaves[pi].1;
                let Some(ppos) = pleaf.recs.iter().position(|p| p.lid == r.partner_lid) else {
                    found.push(
                        Violation::new(ViolationKind::PairLink, path)
                            .at_block(pblock.0)
                            .expected(format!("{:?} present in partner leaf", r.partner_lid))
                            .actual("record missing"),
                    );
                    continue;
                };
                let p = &pleaf.recs[ppos];
                if p.partner_lid != r.lid {
                    found.push(
                        Violation::new(ViolationKind::PairLink, path.clone())
                            .at_block(pblock.0)
                            .expected(format!("mutual link back to {:?}", r.lid))
                            .actual(format!("partner links {:?}", p.partner_lid)),
                    );
                }
                if p.is_start == r.is_start {
                    found.push(
                        Violation::new(ViolationKind::PairLink, path.clone())
                            .at_block(pblock.0)
                            .expected("opposite start/end flags")
                            .actual(format!("both is_start = {}", r.is_start)),
                    );
                }
                if r.is_start {
                    let end_label = pleaf.range_lo + usize_to_u64(ppos);
                    if r.end_cache != end_label {
                        found.push(
                            Violation::new(ViolationKind::PairEndCache, path)
                                .at_block(id.0)
                                .expected(format!("cached end label {end_label}"))
                                .actual(r.end_cache),
                        );
                    }
                }
            }
        }
        for v in found {
            self.report.push(v);
        }
    }
}

impl Auditable for WBox {
    /// Audit every §4 invariant plus the underlying LIDF, without
    /// panicking even on corrupted blocks.
    fn audit(&self) -> AuditReport {
        let mut auditor = WAuditor {
            tree: self,
            report: AuditReport::new(),
            visited: HashSet::new(),
            lid_owner: HashMap::new(),
            leaves: Vec::new(),
        };
        let total = auditor.audit_node(self.root_id(), self.height() - 1, 0, true, "wbox/root");
        if let Some((_, size)) = total {
            if size != self.len() {
                auditor.report.push(
                    Violation::new(ViolationKind::CountMismatch, "wbox")
                        .expected(format!("{} live records (the live counter)", self.len()))
                        .actual(size),
                );
            }
        }
        auditor.audit_label_order();
        if self.config().pair {
            auditor.audit_pairs();
        }
        // The N/2 deletion rule must have fired already if due.
        let n = self.live_at_rebuild().max(2);
        if self.deletions_pending() * 2 >= n {
            auditor.report.push(
                Violation::new(ViolationKind::RebuildOverdue, "wbox")
                    .expected(format!(
                        "< {} deletions since the last rebuild",
                        n.div_ceil(2)
                    ))
                    .actual(self.deletions_pending()),
            );
        }
        let mut report = auditor.report;
        report.merge(self.lidf_ref().audit());
        report
    }
}
