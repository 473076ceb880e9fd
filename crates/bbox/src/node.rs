//! On-disk B-BOX node layout.
//!
//! Every node starts with a 7-byte header:
//!
//! ```text
//! offset 0  u8   kind (0 = leaf, 1 = internal)
//! offset 1  u16  entry count
//! offset 3  u32  back-link: parent block id (INVALID for the root)
//! ```
//!
//! Leaf entries are 8-byte LIDs. Internal entries are a 4-byte child block
//! id plus an 8-byte size field (Figure 4's "optional size fields" — always
//! present in the layout, only *maintained* when ordinal support is on).

#![expect(
    clippy::panic,
    reason = "node-kind projections and decode are documented contract panics; auditors use try_decode"
)]

use boxes_lidf::Lid;
use boxes_pager::codec::{usize_to_u16, usize_to_u64};
use boxes_pager::{BlockId, Reader, Writer};

/// Bytes of the common node header.
pub const HEADER_SIZE: usize = 7;
/// Bytes per leaf entry (a LID).
pub const LEAF_ENTRY_SIZE: usize = 8;
/// Bytes per internal entry (child pointer + size field).
pub const INTERNAL_ENTRY_SIZE: usize = 12;

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

/// One child entry of an internal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildEntry {
    /// The child block.
    pub child: BlockId,
    /// Records below this child (maintained only in ordinal mode).
    pub size: u64,
}

/// Decoded B-BOX node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Leaf: ordered list of LIDs.
    Leaf {
        /// Back-link to the parent (INVALID for the root).
        parent: BlockId,
        /// Record LIDs in document order.
        lids: Vec<Lid>,
    },
    /// Internal node: ordered list of children.
    Internal {
        /// Back-link to the parent (INVALID for the root).
        parent: BlockId,
        /// Children in document order.
        entries: Vec<ChildEntry>,
    },
}

impl Node {
    /// Empty leaf.
    pub fn leaf(parent: BlockId) -> Self {
        Node::Leaf {
            parent,
            lids: Vec::new(),
        }
    }

    /// Entry count.
    pub fn count(&self) -> usize {
        match self {
            Node::Leaf { lids, .. } => lids.len(),
            Node::Internal { entries, .. } => entries.len(),
        }
    }

    /// Back-link.
    pub fn parent(&self) -> BlockId {
        match self {
            Node::Leaf { parent, .. } | Node::Internal { parent, .. } => *parent,
        }
    }

    /// Set the back-link.
    pub fn set_parent(&mut self, p: BlockId) {
        match self {
            Node::Leaf { parent, .. } | Node::Internal { parent, .. } => *parent = p,
        }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Leaf LIDs (panics on internal nodes).
    pub fn lids(&self) -> &Vec<Lid> {
        match self {
            Node::Leaf { lids, .. } => lids,
            _ => panic!("expected a leaf"),
        }
    }

    /// Mutable leaf LIDs (panics on internal nodes).
    pub fn lids_mut(&mut self) -> &mut Vec<Lid> {
        match self {
            Node::Leaf { lids, .. } => lids,
            _ => panic!("expected a leaf"),
        }
    }

    /// Internal entries (panics on leaves).
    pub fn entries(&self) -> &Vec<ChildEntry> {
        match self {
            Node::Internal { entries, .. } => entries,
            _ => panic!("expected an internal node"),
        }
    }

    /// Mutable internal entries (panics on leaves).
    pub fn entries_mut(&mut self) -> &mut Vec<ChildEntry> {
        match self {
            Node::Internal { entries, .. } => entries,
            _ => panic!("expected an internal node"),
        }
    }

    /// Position of a LID in a leaf.
    pub fn position_of_lid(&self, lid: Lid) -> usize {
        self.lids()
            .iter()
            .position(|&l| l == lid)
            .unwrap_or_else(|| panic!("{lid:?} not in leaf"))
    }

    /// Position of a child in an internal node.
    pub fn position_of_child(&self, child: BlockId) -> usize {
        self.entries()
            .iter()
            .position(|e| e.child == child)
            .unwrap_or_else(|| panic!("{child:?} not a child of this node"))
    }

    /// Total of the size fields (ordinal mode).
    pub fn size_sum(&self) -> u64 {
        match self {
            Node::Leaf { lids, .. } => usize_to_u64(lids.len()),
            Node::Internal { entries, .. } => entries.iter().map(|e| e.size).sum(),
        }
    }

    /// Serialize into a block buffer.
    pub fn encode(&self, buf: &mut [u8]) {
        let mut w = Writer::new(buf);
        match self {
            Node::Leaf { parent, lids } => {
                w.u8(KIND_LEAF);
                w.u16(usize_to_u16(lids.len()).unwrap_or(u16::MAX));
                w.u32(parent.0);
                for lid in lids {
                    w.u64(lid.0);
                }
            }
            Node::Internal { parent, entries } => {
                w.u8(KIND_INTERNAL);
                w.u16(usize_to_u16(entries.len()).unwrap_or(u16::MAX));
                w.u32(parent.0);
                for e in entries {
                    w.u32(e.child.0);
                    w.u64(e.size);
                }
            }
        }
    }

    /// Deserialize from a block buffer.
    ///
    /// # Panics
    /// Panics on bytes that do not decode as a node; auditors use
    /// [`Node::try_decode`] instead.
    pub fn decode(buf: &[u8]) -> Self {
        match Self::try_decode(buf) {
            Ok(node) => node,
            Err(e) => panic!("corrupt B-BOX node: {e}"),
        }
    }

    /// Deserialize from a block buffer without panicking: structural
    /// problems (unknown kind byte, an entry count that overruns the block)
    /// come back as a description instead.
    pub fn try_decode(buf: &[u8]) -> Result<Self, String> {
        if buf.len() < HEADER_SIZE {
            return Err(format!(
                "{}-byte block is smaller than a node header",
                buf.len()
            ));
        }
        let mut r = Reader::new(buf);
        let kind = r.u8();
        let count = usize::from(r.u16());
        let parent = BlockId(r.u32());
        match kind {
            KIND_LEAF => {
                let need = HEADER_SIZE + count * LEAF_ENTRY_SIZE;
                if need > buf.len() {
                    return Err(format!(
                        "leaf entry count {count} needs {need} bytes, block has {}",
                        buf.len()
                    ));
                }
                let lids = (0..count).map(|_| Lid(r.u64())).collect();
                Ok(Node::Leaf { parent, lids })
            }
            KIND_INTERNAL => {
                let need = HEADER_SIZE + count * INTERNAL_ENTRY_SIZE;
                if need > buf.len() {
                    return Err(format!(
                        "internal entry count {count} needs {need} bytes, block has {}",
                        buf.len()
                    ));
                }
                let entries = (0..count)
                    .map(|_| ChildEntry {
                        child: BlockId(r.u32()),
                        size: r.u64(),
                    })
                    .collect();
                Ok(Node::Internal { parent, entries })
            }
            k => Err(format!("kind {k}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            parent: BlockId(3),
            lids: vec![Lid(10), Lid(20), Lid(30)],
        };
        let mut buf = vec![0u8; 64];
        node.encode(&mut buf);
        assert_eq!(Node::decode(&buf), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            parent: BlockId::INVALID,
            entries: vec![
                ChildEntry {
                    child: BlockId(1),
                    size: 100,
                },
                ChildEntry {
                    child: BlockId(2),
                    size: 250,
                },
            ],
        };
        let mut buf = vec![0u8; 64];
        node.encode(&mut buf);
        let back = Node::decode(&buf);
        assert_eq!(back, node);
        assert_eq!(back.size_sum(), 350);
        assert_eq!(back.position_of_child(BlockId(2)), 1);
    }

    #[test]
    fn entry_sizes_match_constants() {
        // A leaf with n lids must fit in HEADER + n * LEAF_ENTRY_SIZE.
        let node = Node::Leaf {
            parent: BlockId(0),
            lids: vec![Lid(1), Lid(2)],
        };
        let mut buf = vec![0u8; HEADER_SIZE + 2 * LEAF_ENTRY_SIZE];
        node.encode(&mut buf); // would panic on overflow
        let node = Node::Internal {
            parent: BlockId(0),
            entries: vec![ChildEntry {
                child: BlockId(1),
                size: 1,
            }],
        };
        let mut buf = vec![0u8; HEADER_SIZE + INTERNAL_ENTRY_SIZE];
        node.encode(&mut buf);
    }

    #[test]
    #[should_panic(expected = "not in leaf")]
    fn missing_lid_panics() {
        Node::leaf(BlockId(0)).position_of_lid(Lid(9));
    }
}
