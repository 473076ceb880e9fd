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
        clippy::mem_forget,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
//! # BOXes — order-based labeling for dynamic XML data
//!
//! A production-quality Rust reproduction of
//! *Silberstein, He, Yi, Yang: "BOXes: Efficient Maintenance of Order-Based
//! Labeling for Dynamic XML Data" (ICDE 2005)*.
//!
//! Order-based labels let XML query processors decide ancestor/descendant
//! relationships with two integer comparisons. Keeping those labels valid
//! under arbitrary insertions and deletions is the hard part; this workspace
//! provides the paper's two I/O-efficient structures plus everything around
//! them:
//!
//! | Structure | Lookup | Update (amortized) | Crate |
//! |-----------|--------|--------------------|-------|
//! | W-BOX (weight-balanced B-tree) | O(1) | O(log_B N) | [`boxes_wbox`] |
//! | B-BOX (back-linked keyless B-tree) | O(log_B N) | O(1) | [`boxes_bbox`] |
//! | naive-k gap labeling (baseline) | O(1) | Θ(N/B) adversarial | [`boxes_naive`] |
//!
//! plus the immutable-label-ID file ([`boxes_lidf`]), the simulated block
//! device with I/O accounting ([`boxes_pager`]), the §6 caching/logging
//! layer ([`boxes_cache`]), and XML documents/workloads ([`boxes_xml`]).
//!
//! This crate ties them together:
//!
//! * [`LabelingScheme`] — one interface over all three schemes;
//! * [`DocumentDriver`] — replays [`boxes_xml::workload::UpdateStream`]s
//!   against any scheme, recording per-operation I/O;
//! * [`ElementLabeler`] — element-centric API (labels, ancestor tests,
//!   containment joins) over a live XML tree;
//! * [`cached`] — §6 wiring: cached references with modification logs for
//!   each scheme.
//!
//! ## Quickstart
//!
//! ```
//! use boxes_core::{DocumentDriver, LabelingScheme, WBoxScheme};
//! use boxes_xml::generate::two_level;
//! use boxes_xml::workload::scattered;
//!
//! let stream = scattered(1_000, 100);
//! let scheme = WBoxScheme::with_block_size(1024);
//! let mut driver = DocumentDriver::load(scheme, &stream.base);
//! let costs = driver.replay(&stream.ops);
//! assert_eq!(costs.len(), 100);
//! driver.verify_document_order(); // labels sorted = document order
//! let _ = two_level(4);
//! ```

/// §6 cached label wrappers (mod-log replay over checkpointed anchors).
pub mod cached;
/// Document driver: replays update streams against a labeling scheme.
pub mod driver;
/// WAL-journaled environments, crash injection, and scheme reopening.
pub mod durable;
/// Reusable corruption primitives (byte flips, torn slots, dangling LIDF
/// pointers) for robustness tests and the chaos sweep.
pub mod faultlib;
mod faults;
/// End-to-end labeler facade combining a scheme with a document tree.
pub mod labeler;
/// Seeded logical-tick scheduler for deterministic interleaving tests
/// (the latch-interleave rig's replay engine).
pub mod sched;
/// The `LabelingScheme`/`OrdinalScheme` trait surface and adapters.
pub mod scheme;
/// Read-only label-query views (`LabelView`) over any scheme.
pub mod view;

pub use cached::{CachedBBox, CachedOrdinal, CachedWBox};
pub use driver::DocumentDriver;
pub use durable::{reopen_bbox, reopen_lidf, reopen_naive, reopen_wbox, DurableEnv};
pub use labeler::ElementLabeler;
pub use scheme::{BBoxScheme, LabelingScheme, NaiveScheme, OrdinalScheme, WBoxScheme};
pub use view::LabelView;

// Re-export the whole workspace under one roof.
pub use boxes_bbox as bbox;
pub use boxes_cache as cache;
pub use boxes_lidf as lidf;
pub use boxes_naive as naive;
pub use boxes_pager as pager;
pub use boxes_wal as wal;
pub use boxes_wbox as wbox;
pub use boxes_xml as xml;
