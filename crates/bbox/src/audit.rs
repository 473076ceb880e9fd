//! Non-panicking audit of every §5 invariant (the `boxes-audit`
//! integration).
//!
//! Mirrors the checks the legacy `validate()` performed — back-link
//! agreement, fill bounds, root arity, size-field freshness, equal leaf
//! depths, LIDF agreement — but collects typed [`Violation`]s instead of
//! panicking on the first failure, and survives arbitrary on-disk
//! corruption: dangling child pointers, undecodable node bytes, and
//! reference cycles are reported rather than chased.

use crate::node::Node;
use crate::tree::BBox;
use boxes_audit::{AuditReport, Auditable, Violation, ViolationKind};
use boxes_lidf::Lid;
use boxes_pager::codec::usize_to_u64;
use boxes_pager::BlockId;
use std::collections::{HashMap, HashSet};

struct BAuditor<'a> {
    tree: &'a BBox,
    report: AuditReport,
    /// Every block reached, to catch child-pointer cycles and reuse.
    visited: HashSet<BlockId>,
    /// Which leaf each LID was first seen in, to catch duplicates.
    lid_owner: HashMap<Lid, BlockId>,
}

impl<'a> BAuditor<'a> {
    fn push(&mut self, v: Violation) {
        self.report.push(v);
    }

    /// Audit the subtree at `id`. Returns the subtree's actual
    /// (live count, depth in levels), or `None` when the node could not be
    /// read — the parent then skips its size/depth checks for this child
    /// instead of cascading bogus mismatches.
    fn audit_node(
        &mut self,
        id: BlockId,
        expect_parent: BlockId,
        is_root: bool,
        path: &str,
    ) -> Option<(u64, usize)> {
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
        let bytes = match self.tree.pager().read(id) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.push(Violation::unreadable(path, e).at_block(id.0));
                return None;
            }
        };
        let node = match Node::try_decode(&bytes) {
            Ok(node) => node,
            Err(e) => {
                self.push(
                    Violation::new(ViolationKind::CorruptNode, path)
                        .at_block(id.0)
                        .expected("decodable B-BOX node")
                        .actual(e),
                );
                return None;
            }
        };
        if node.parent() != expect_parent {
            self.push(
                Violation::new(ViolationKind::BackLink, path)
                    .at_block(id.0)
                    .expected(format!("back-link to block {}", expect_parent.0))
                    .actual(format!("links block {}", node.parent().0)),
            );
        }
        let config = self.tree.config();
        match node {
            Node::Leaf { lids, .. } => {
                if lids.len() > config.leaf_capacity {
                    self.push(
                        Violation::new(ViolationKind::FillOverflow, path)
                            .at_block(id.0)
                            .expected(format!("≤ {} records", config.leaf_capacity))
                            .actual(lids.len()),
                    );
                }
                if !is_root && lids.len() < config.min_leaf() {
                    self.push(
                        Violation::new(ViolationKind::FillUnderflow, path)
                            .at_block(id.0)
                            .expected(format!("≥ {} records", config.min_leaf()))
                            .actual(lids.len()),
                    );
                }
                for (i, &lid) in lids.iter().enumerate() {
                    let rec_path = format!("{path}/rec[{i}]");
                    if let Some(&first) = self.lid_owner.get(&lid) {
                        self.push(
                            Violation::new(ViolationKind::DuplicateLid, rec_path)
                                .at_block(id.0)
                                .expected(format!("{lid:?} in exactly one leaf"))
                                .actual(format!("already in block {}", first.0)),
                        );
                        continue;
                    }
                    self.lid_owner.insert(lid, id);
                    match self.tree.lidf_ref().read_live(lid) {
                        Err(e) => self.push(Violation::unreadable(rec_path, e).at_block(id.0)),
                        Ok(None) => self.push(
                            Violation::new(ViolationKind::LidfMismatch, rec_path)
                                .at_block(id.0)
                                .expected(format!("live LIDF record for {lid:?}"))
                                .actual("slot freed or out of range"),
                        ),
                        Ok(Some(rec)) if rec.block != id => self.push(
                            Violation::new(ViolationKind::LidfMismatch, rec_path)
                                .at_block(id.0)
                                .expected(format!("LIDF points {lid:?} at this leaf"))
                                .actual(format!("points at block {}", rec.block.0)),
                        ),
                        Ok(Some(_)) => {}
                    }
                }
                Some((usize_to_u64(lids.len()), 1))
            }
            Node::Internal { entries, .. } => {
                if entries.len() > config.internal_capacity {
                    self.push(
                        Violation::new(ViolationKind::FillOverflow, path)
                            .at_block(id.0)
                            .expected(format!("≤ {} children", config.internal_capacity))
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
                } else if !is_root && entries.len() < config.min_internal() {
                    self.push(
                        Violation::new(ViolationKind::FillUnderflow, path)
                            .at_block(id.0)
                            .expected(format!("≥ {} children", config.min_internal()))
                            .actual(entries.len()),
                    );
                }
                let mut total = 0u64;
                let mut depth: Option<usize> = None;
                for (i, e) in entries.iter().enumerate() {
                    let child_path = format!("{path}/child[{i}]");
                    let Some((count, d)) = self.audit_node(e.child, id, false, &child_path) else {
                        // Unreadable child: fall back to the cached size so
                        // the ancestors' sums stay meaningful.
                        total += e.size;
                        continue;
                    };
                    if config.ordinal && e.size != count {
                        self.push(
                            Violation::new(ViolationKind::StaleSize, child_path.clone())
                                .at_block(id.0)
                                .expected(format!("size field {count} (actual live count)"))
                                .actual(e.size),
                        );
                    }
                    total += count;
                    match depth {
                        None => depth = Some(d),
                        Some(prev) if prev != d => {
                            self.push(
                                Violation::new(ViolationKind::DepthMismatch, child_path)
                                    .at_block(id.0)
                                    .expected(format!("leaf depth {prev} (as the left siblings)"))
                                    .actual(d),
                            );
                        }
                        Some(_) => {}
                    }
                }
                Some((total, depth.unwrap_or(0) + 1))
            }
        }
    }
}

impl Auditable for BBox {
    /// Audit every §5 invariant plus the underlying LIDF, without
    /// panicking even on corrupted blocks.
    fn audit(&self) -> AuditReport {
        let mut auditor = BAuditor {
            tree: self,
            report: AuditReport::new(),
            visited: HashSet::new(),
            lid_owner: HashMap::new(),
        };
        if let Some((count, depth)) =
            auditor.audit_node(self.root_id(), BlockId::INVALID, true, "bbox/root")
        {
            if count != self.len() {
                auditor.report.push(
                    Violation::new(ViolationKind::CountMismatch, "bbox")
                        .expected(format!("{} records (the len counter)", self.len()))
                        .actual(count),
                );
            }
            if depth != self.height() {
                auditor.report.push(
                    Violation::new(ViolationKind::DepthMismatch, "bbox")
                        .expected(format!("height {} (the height counter)", self.height()))
                        .actual(depth),
                );
            }
        }
        let mut report = auditor.report;
        report.merge(self.lidf_ref().audit());
        report
    }
}
