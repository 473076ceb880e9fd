//! On-disk W-BOX node layouts (Figure 3).
//!
//! Leaf header:
//! ```text
//! offset 0   u8   kind (0 = leaf, 1 = internal)
//! offset 1   u16  live record count
//! offset 3   u16  tombstone count (deleted weight still charged, §4)
//! offset 5   u64  range_lo: the leaf's label range starts here; the i-th
//!                 live record's label is range_lo + i (leaf-ordinal rule)
//! ```
//! Leaf entries are LIDs (8 bytes); in W-BOX-O pair mode each entry also
//! carries a start/end flag, the partner record's LID and block, and (on
//! start records) a cached copy of the end label (29 bytes total).
//!
//! Internal header is kind + count; entries hold the child pointer, its
//! subrange index within this node's range, its weight, and its size (live
//! count, maintained for ordinal mode).

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "node-kind projections, the on-disk u16 count bound (fanout << u16::MAX), and decode are documented contracts; auditors use try_decode"
)]

use boxes_lidf::Lid;
use boxes_pager::codec::{usize_to_u16, usize_to_u64};
use boxes_pager::{BlockId, Reader, Writer};

/// Bytes of the leaf header.
pub const LEAF_HEADER: usize = 13;
/// Bytes per leaf entry without pair optimization.
pub const LEAF_ENTRY_PLAIN: usize = 8;
/// Bytes per leaf entry with pair optimization
/// (lid + flag + partner lid + partner block + cached end label).
pub const LEAF_ENTRY_PAIR: usize = 29;
/// Bytes of the internal header.
pub const INTERNAL_HEADER: usize = 3;
/// Bytes per internal entry (child + subrange + weight + size).
pub const INTERNAL_ENTRY: usize = 22;

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

/// One live leaf record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafRecord {
    /// The label's immutable ID.
    pub lid: Lid,
    /// Pair mode: whether this is a start label.
    pub is_start: bool,
    /// Pair mode: LID of the element's other label (stable identity).
    pub partner_lid: Lid,
    /// Pair mode: block holding the partner record (fast access without
    /// the LIDF hop).
    pub partner: BlockId,
    /// Pair mode, start records only: cached value of the end label.
    pub end_cache: u64,
}

impl LeafRecord {
    /// Plain record (no pair bookkeeping).
    pub fn plain(lid: Lid) -> Self {
        LeafRecord {
            lid,
            is_start: false,
            partner_lid: Lid::INVALID,
            partner: BlockId::INVALID,
            end_cache: 0,
        }
    }
}

/// One child entry of an internal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WEntry {
    /// The child block.
    pub child: BlockId,
    /// Which of the parent's b subranges the child owns.
    pub subrange: u16,
    /// Weight: leaf records (live + tombstoned) below this child.
    pub weight: u64,
    /// Size: live records below this child (ordinal mode).
    pub size: u64,
}

/// Decoded W-BOX node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WNode {
    /// Leaf: live records in label order plus a tombstone count.
    Leaf {
        /// First label of the leaf's range.
        range_lo: u64,
        /// Deleted records still counted in weights (global rebuilding).
        tombstones: u16,
        /// Live records; the i-th holds label `range_lo + i`.
        recs: Vec<LeafRecord>,
    },
    /// Internal node: children ordered by subrange index.
    Internal {
        /// Child entries in label order.
        entries: Vec<WEntry>,
    },
}

impl WNode {
    /// Empty leaf owning the range starting at `range_lo`.
    pub fn leaf(range_lo: u64) -> Self {
        WNode::Leaf {
            range_lo,
            tombstones: 0,
            recs: Vec::new(),
        }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, WNode::Leaf { .. })
    }

    /// Weight of this node: leaf records incl. tombstones, or entry sum.
    pub fn weight(&self) -> u64 {
        match self {
            WNode::Leaf {
                recs, tombstones, ..
            } => usize_to_u64(recs.len()) + u64::from(*tombstones),
            WNode::Internal { entries } => entries.iter().map(|e| e.weight).sum(),
        }
    }

    /// Live records below this node.
    pub fn size(&self) -> u64 {
        match self {
            WNode::Leaf { recs, .. } => usize_to_u64(recs.len()),
            WNode::Internal { entries } => entries.iter().map(|e| e.size).sum(),
        }
    }

    /// Leaf records (panics on internal nodes).
    pub fn recs(&self) -> &Vec<LeafRecord> {
        match self {
            WNode::Leaf { recs, .. } => recs,
            _ => panic!("expected a W-BOX leaf"),
        }
    }

    /// Mutable leaf records (panics on internal nodes).
    pub fn recs_mut(&mut self) -> &mut Vec<LeafRecord> {
        match self {
            WNode::Leaf { recs, .. } => recs,
            _ => panic!("expected a W-BOX leaf"),
        }
    }

    /// Leaf range start (panics on internal nodes).
    pub fn range_lo(&self) -> u64 {
        match self {
            WNode::Leaf { range_lo, .. } => *range_lo,
            _ => panic!("expected a W-BOX leaf"),
        }
    }

    /// Internal entries (panics on leaves).
    pub fn entries(&self) -> &Vec<WEntry> {
        match self {
            WNode::Internal { entries } => entries,
            _ => panic!("expected a W-BOX internal node"),
        }
    }

    /// Mutable internal entries (panics on leaves).
    pub fn entries_mut(&mut self) -> &mut Vec<WEntry> {
        match self {
            WNode::Internal { entries } => entries,
            _ => panic!("expected a W-BOX internal node"),
        }
    }

    /// Position of a LID among the leaf's live records.
    pub fn position_of_lid(&self, lid: Lid) -> usize {
        self.recs()
            .iter()
            .position(|r| r.lid == lid)
            .unwrap_or_else(|| panic!("{lid:?} not in this W-BOX leaf"))
    }

    /// Serialize into a block buffer. `pair` selects the leaf entry format.
    pub fn encode(&self, buf: &mut [u8], pair: bool) {
        let mut w = Writer::new(buf);
        match self {
            WNode::Leaf {
                range_lo,
                tombstones,
                recs,
            } => {
                w.u8(KIND_LEAF);
                // A leaf never exceeds the per-block fanout, which is far
                // below u16::MAX for any supported block size.
                w.u16(usize_to_u16(recs.len()).expect("leaf record count exceeds on-disk u16"));
                w.u16(*tombstones);
                w.u64(*range_lo);
                for r in recs {
                    w.u64(r.lid.0);
                    if pair {
                        w.u8(u8::from(r.is_start));
                        w.u64(r.partner_lid.0);
                        w.u32(r.partner.0);
                        w.u64(r.end_cache);
                    }
                }
            }
            WNode::Internal { entries } => {
                w.u8(KIND_INTERNAL);
                // Internal fanout is bounded by the block size, well under
                // the on-disk u16 count field.
                w.u16(
                    usize_to_u16(entries.len()).expect("internal entry count exceeds on-disk u16"),
                );
                for e in entries {
                    w.u32(e.child.0);
                    w.u16(e.subrange);
                    w.u64(e.weight);
                    w.u64(e.size);
                }
            }
        }
    }

    /// Deserialize from a block buffer.
    ///
    /// # Panics
    /// Panics on bytes that do not decode as a node; auditors use
    /// [`WNode::try_decode`] instead.
    pub fn decode(buf: &[u8], pair: bool) -> Self {
        match Self::try_decode(buf, pair) {
            Ok(node) => node,
            Err(e) => panic!("corrupt W-BOX node: {e}"),
        }
    }

    /// Deserialize from a block buffer without panicking: structural
    /// problems (unknown kind byte, an entry count that overruns the block)
    /// come back as a description instead.
    pub fn try_decode(buf: &[u8], pair: bool) -> Result<Self, String> {
        if buf.len() < INTERNAL_HEADER {
            return Err(format!(
                "{}-byte block is smaller than a node header",
                buf.len()
            ));
        }
        let mut r = Reader::new(buf);
        let kind = r.u8();
        let count = usize::from(r.u16());
        match kind {
            KIND_LEAF => {
                let entry = if pair {
                    LEAF_ENTRY_PAIR
                } else {
                    LEAF_ENTRY_PLAIN
                };
                let need = LEAF_HEADER + count * entry;
                if need > buf.len() {
                    return Err(format!(
                        "leaf record count {count} needs {need} bytes, block has {}",
                        buf.len()
                    ));
                }
                let tombstones = r.u16();
                let range_lo = r.u64();
                let recs = (0..count)
                    .map(|_| {
                        let lid = Lid(r.u64());
                        if pair {
                            LeafRecord {
                                lid,
                                is_start: r.u8() != 0,
                                partner_lid: Lid(r.u64()),
                                partner: BlockId(r.u32()),
                                end_cache: r.u64(),
                            }
                        } else {
                            LeafRecord::plain(lid)
                        }
                    })
                    .collect();
                Ok(WNode::Leaf {
                    range_lo,
                    tombstones,
                    recs,
                })
            }
            KIND_INTERNAL => {
                let need = INTERNAL_HEADER + count * INTERNAL_ENTRY;
                if need > buf.len() {
                    return Err(format!(
                        "internal entry count {count} needs {need} bytes, block has {}",
                        buf.len()
                    ));
                }
                let entries = (0..count)
                    .map(|_| WEntry {
                        child: BlockId(r.u32()),
                        subrange: r.u16(),
                        weight: r.u64(),
                        size: r.u64(),
                    })
                    .collect();
                Ok(WNode::Internal { entries })
            }
            k => Err(format!("kind {k}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip_plain() {
        let node = WNode::Leaf {
            range_lo: 42,
            tombstones: 3,
            recs: vec![LeafRecord::plain(Lid(7)), LeafRecord::plain(Lid(9))],
        };
        let mut buf = vec![0u8; 64];
        node.encode(&mut buf, false);
        assert_eq!(WNode::decode(&buf, false), node);
        assert_eq!(node.weight(), 5);
        assert_eq!(node.size(), 2);
    }

    #[test]
    fn leaf_roundtrip_pair() {
        let node = WNode::Leaf {
            range_lo: 100,
            tombstones: 0,
            recs: vec![
                LeafRecord {
                    lid: Lid(1),
                    is_start: true,
                    partner_lid: Lid(2),
                    partner: BlockId(55),
                    end_cache: 117,
                },
                LeafRecord {
                    lid: Lid(2),
                    is_start: false,
                    partner_lid: Lid(1),
                    partner: BlockId(54),
                    end_cache: 0,
                },
            ],
        };
        let mut buf = vec![0u8; 96];
        node.encode(&mut buf, true);
        assert_eq!(WNode::decode(&buf, true), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = WNode::Internal {
            entries: vec![
                WEntry {
                    child: BlockId(1),
                    subrange: 0,
                    weight: 40,
                    size: 35,
                },
                WEntry {
                    child: BlockId(2),
                    subrange: 9,
                    weight: 50,
                    size: 50,
                },
            ],
        };
        let mut buf = vec![0u8; 64];
        node.encode(&mut buf, false);
        let back = WNode::decode(&buf, false);
        assert_eq!(back, node);
        assert_eq!(back.weight(), 90);
        assert_eq!(back.size(), 85);
    }

    #[test]
    fn header_constants_match_encoding() {
        let node = WNode::leaf(5);
        let mut buf = vec![0u8; LEAF_HEADER];
        node.encode(&mut buf, false); // exactly the header fits
        let node = WNode::Internal { entries: vec![] };
        let mut buf = vec![0u8; INTERNAL_HEADER];
        node.encode(&mut buf, false);
    }
}
