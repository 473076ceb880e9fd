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
//! XML substrate for the BOXes reproduction: document model, a minimal
//! well-formed parser/serializer, synthetic document generators, and the
//! update streams driving the paper's experiments (§7).
//!
//! The labeling structures themselves never see an [`XmlTree`]; they operate
//! on tags identified by LIDs. This crate supplies (a) realistic documents to
//! bulk-load and (b) abstract [`workload::UpdateStream`]s that a driver (in
//! `boxes-core`) replays against any labeling scheme.

/// Synthetic document generators (two-level, XMark-shaped, …).
pub mod generate;
/// A minimal non-validating XML parser for test corpora.
pub mod parse;
/// Tag-name interning.
pub mod tags;
/// The in-memory element tree.
pub mod tree;
/// Randomized update-stream builders replayed by the document driver.
pub mod workload;

pub use parse::{parse, ParseError};
pub use tags::{Tag, TagKind};
pub use tree::{ElementId, XmlTree};
pub use workload::{Anchor, ElemRef, Op, UpdateStream};
