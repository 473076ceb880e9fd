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
//! B-BOX: the Back-linked B-tree for Ordering XML (§5 of the paper).
//!
//! B-BOX stores **no label values at all**. It is a B-tree whose nodes hold
//! only child pointers (plus a back-link from every non-root node to its
//! parent), and whose leaves hold only LIDs. The label of a record is the
//! vector of child ordinals along the root-to-leaf path — reconstructed on
//! demand by walking *up* the tree through the back-links. Because nothing
//! is materialized, ordinary insertions touch only the leaf: the amortized
//! update cost is O(1) I/Os (Theorem 5.3), at the price of an O(log_B N)
//! lookup (Theorem 5.2).
//!
//! Supported here, matching the paper:
//! * bottom-up [`BBox::lookup`] and the cheaper LCA-based [`BBox::compare`];
//! * `insert-before` / `delete` with split, borrow and merge, including the
//!   LIDF and back-link maintenance the paper charges O(B) for;
//! * the standard B/2 minimum fill and the B/4 variant for mixed
//!   insert/delete churn ([`FillPolicy`]);
//! * ordinal labeling via per-entry `size` fields (B-BOX-O);
//! * O(N/B) bulk loading and rip-based subtree insert / delete.
//!
//! # Example
//!
//! ```
//! use boxes_bbox::{BBox, BBoxConfig};
//! use boxes_pager::{Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig::with_block_size(256));
//! let mut bbox = BBox::new(pager, BBoxConfig::from_block_size(256))?;
//! let lids = bbox.bulk_load(100)?;
//! let new = bbox.insert_before(lids[50])?;
//! assert!(bbox.lookup(lids[49])? < bbox.lookup(new)?);
//! assert!(bbox.lookup(new)? < bbox.lookup(lids[50])?);
//! # Ok::<(), boxes_pager::PagerError>(())
//! ```

mod audit;
mod bulk;
mod config;
mod label;
mod node;
mod subtree;
mod tree;

pub use config::{BBoxConfig, FillPolicy};
pub use label::PathLabel;
pub use tree::{BBox, BBoxChange, BBoxCounters};
