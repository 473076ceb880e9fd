#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::as_conversions,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::mem_forget,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
//! W-BOX: the Weight-balanced B-tree for Ordering XML (§4 of the paper).
//!
//! W-BOX materializes label values but bounds relabeling cost by storing
//! them in a *weight-balanced* B-tree (after Arge–Vitter, with the paper's
//! modified constraints): a node at level `i` has weight strictly below
//! `2·aⁱ·k` and (non-root) strictly above `aⁱ·k − 2·aⁱ⁻¹·k`. Every node owns
//! a contiguous label range; a node's range divides into `b` equal subranges
//! from which its children are assigned. Within a leaf, labels are *ordinal*
//! in the leaf's range (the i-th live record holds `range_lo + i`) — the
//! invariant §6's logging relies on, and what makes a leaf's labels implicit
//! in its block.
//!
//! Consequences, all reproduced here:
//! * [`WBox::lookup`] costs exactly one index I/O after the LIDF hop
//!   (Theorem 4.5) — the label is computed from the leaf alone.
//! * Inserts descend once to maintain weights; a weight violation splits
//!   the node, reassigning subranges and relabeling only the moved half —
//!   or, when both adjacent subranges are taken, respacing all of the
//!   parent's children (amortized O(log_B N), Theorem 4.6 via Lemma 4.2).
//! * Deletes tombstone the record and use *global rebuilding* every N/2
//!   deletions (amortized O(1)).
//! * Ordinal labeling is served by per-entry `size` fields (live counts).
//! * Bulk load is a single O(N/B) pass; subtree insert/delete rebuild the
//!   lowest ancestor with room, keeping surviving leaves in their blocks so
//!   LIDF records stay valid.
//! * The W-BOX-O variant ([`WBoxConfig::with_pair_optimization`]) lets a
//!   start record answer for both labels of its element in one leaf I/O, at
//!   the maintenance cost bounded by the XML document depth (Theorem 4.7).
//!
//! # Example
//!
//! ```
//! use boxes_wbox::{WBox, WBoxConfig};
//! use boxes_pager::{Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig::with_block_size(1024));
//! let mut wbox = WBox::new(pager, WBoxConfig::small_for_tests())?;
//! let lids = wbox.bulk_load(100)?;
//! let new = wbox.insert_before(lids[50])?;
//! assert!(wbox.lookup(lids[49])? < wbox.lookup(new)?);
//! assert!(wbox.lookup(new)? < wbox.lookup(lids[50])?);
//! # Ok::<(), boxes_pager::PagerError>(())
//! ```

mod audit;
mod build;
mod config;
mod node;
mod pairs;
mod subtree;
mod tree;

pub use config::WBoxConfig;
pub use tree::{WBox, WBoxCounters};
