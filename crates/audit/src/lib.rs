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
//! Typed, non-panicking structural auditing for every storage layer of the
//! BOXes reproduction.
//!
//! The paper's correctness arguments lean on structural invariants — W-BOX
//! weight-balance bounds (§4), B-BOX back-link and size-field consistency
//! (§5), LIDF slot liveness, pager free-list discipline, and §6 log-replay
//! equivalence. Historically each structure enforced its own invariants with
//! panic-on-first-failure `validate()` methods, which are useless for
//! diagnostics (one failure hides the rest) and for CI reporting.
//!
//! This crate defines the shared vocabulary instead: an [`Auditable`]
//! structure produces an [`AuditReport`] — a list of typed [`Violation`]s,
//! each naming *what* rule broke ([`ViolationKind`]), *where* (block id and a
//! human-readable path), and the expected-vs-actual evidence. Audits never
//! panic, even on corrupted on-disk bytes; the legacy `validate()` methods
//! are thin wrappers that call [`AuditReport::assert_clean`].
//!
//! The crate is dependency-free on purpose: every storage crate depends on
//! it and implements [`Auditable`] with full access to its own internals.

use std::fmt;

/// What class of invariant a [`Violation`] breaks.
///
/// The set spans all five audited layers (W-BOX, B-BOX, LIDF, pager/pool,
/// §6 cache log); each auditor uses the subset that applies to it.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Labels, keys, or subrange indices are not strictly increasing.
    KeyOrder,
    /// A leaf's label range disagrees with the range derived from its
    /// ancestors' subrange indices.
    RangeMismatch,
    /// A node's weight reaches or exceeds the §4 upper bound for its level.
    WeightOverflow,
    /// A non-root node's weight is at or below the §4 lower bound.
    WeightUnderflow,
    /// A node holds more records or children than its capacity.
    FillOverflow,
    /// A non-root B-BOX node is below its minimum fill.
    FillUnderflow,
    /// An internal root has fewer than two children.
    RootArity,
    /// Leaves sit at unequal depths, or a node kind appears at the wrong
    /// level.
    DepthMismatch,
    /// A cached per-child weight field disagrees with the subtree's actual
    /// weight.
    StaleWeight,
    /// A cached per-child size field disagrees with the subtree's actual
    /// live count.
    StaleSize,
    /// A structure-level counter (live records, height, …) disagrees with
    /// the tree contents.
    CountMismatch,
    /// The §4 global-rebuild trigger (N/2 deletions) should already have
    /// fired.
    RebuildOverdue,
    /// A child's back-link does not point at its actual parent.
    BackLink,
    /// The same block is referenced as a child from more than one place.
    ChildReuse,
    /// A LIDF entry and the leaf that should hold the record disagree
    /// (dangling pointer, wrong block, or record missing from the leaf).
    LidfMismatch,
    /// The same LID appears in more than one leaf position.
    DuplicateLid,
    /// W-BOX-O pair linkage is not mutual or the start/end flags agree when
    /// they must be opposite.
    PairLink,
    /// A start record's cached end label disagrees with the partner's actual
    /// label.
    PairEndCache,
    /// A LIDF slot's liveness tag contradicts the free chain or the live
    /// counter.
    SlotLiveness,
    /// The LIDF free chain is broken: out-of-range link, cycle, or wrong
    /// length.
    FreeChain,
    /// A pager free-list entry refers to a block the backend still considers
    /// allocated (or one past the end of the file).
    FreeListOverlap,
    /// The pager free list contains the same block twice.
    FreeListDuplicate,
    /// A buffer-pool frame outlives its block — the pool caches a block the
    /// backend has freed (the pool analog of a pin-count leak).
    PoolLeak,
    /// A block's bytes do not decode as a structurally plausible node.
    CorruptNode,
    /// Replaying the §6 range-effect log over a snapshot label does not
    /// reproduce the eager structure's answer.
    ReplayDivergence,
    /// The §6 log's timestamps are not strictly increasing (FIFO order
    /// broken).
    LogOrder,
    /// A pin count survived to audit time: a buffer-pool frame is still
    /// pinned against eviction, or a snapshot epoch is still pinned against
    /// version reclamation, after every session should have closed.
    PinLeak,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One concrete invariant violation: what broke, where, and the evidence.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant class broke.
    pub kind: ViolationKind,
    /// Block the violation was observed in, when it is tied to one.
    pub block: Option<u64>,
    /// Human-readable location within the structure, e.g.
    /// `wbox/root/child[3]/leaf`.
    pub path: String,
    /// What the invariant requires.
    pub expected: String,
    /// What the structure actually contains.
    pub actual: String,
}

impl Violation {
    /// Start a violation of `kind` observed at `path`.
    pub fn new(kind: ViolationKind, path: impl Into<String>) -> Self {
        Violation {
            kind,
            block: None,
            path: path.into(),
            expected: String::new(),
            actual: String::new(),
        }
    }

    /// Attach the block id the violation was observed in.
    pub fn at_block(mut self, block: impl Into<u64>) -> Self {
        self.block = Some(block.into());
        self
    }

    /// Record what the invariant requires.
    pub fn expected(mut self, value: impl ToString) -> Self {
        self.expected = value.to_string();
        self
    }

    /// Record what the structure actually contains.
    pub fn actual(mut self, value: impl ToString) -> Self {
        self.actual = value.to_string();
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.path)?;
        if let Some(block) = self.block {
            write!(f, " (block {block})")?;
        }
        if !self.expected.is_empty() || !self.actual.is_empty() {
            write!(f, ": expected {}, actual {}", self.expected, self.actual)?;
        }
        Ok(())
    }
}

/// The outcome of one audit pass: every violation found, in discovery order.
#[derive(Clone, Debug, Default)]
#[must_use = "a dropped audit report is a skipped invariant check"]
pub struct AuditReport {
    violations: Vec<Violation>,
}

impl AuditReport {
    /// Empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one violation.
    pub fn push(&mut self, violation: Violation) {
        self.violations.push(violation);
    }

    /// Append every violation of `other` to this report.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }

    /// Whether the audit found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations found.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// Whether the report is empty (alias of [`AuditReport::is_clean`] for
    /// collection-style callers).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations, in discovery order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether any violation of `kind` was found.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// Count the violations of `kind`.
    pub fn count_of(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// Panic with a full listing unless the report is clean. This is the
    /// bridge from auditing back to the legacy `validate()` contract.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "{context} audit found {} violation(s):\n{self}",
            self.len()
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// A structure that can audit its own invariants without panicking.
pub trait Auditable {
    /// Inspect every invariant and report all violations found. Must not
    /// panic, even when the underlying storage is corrupted.
    fn audit(&self) -> AuditReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Violation {
        Violation::new(ViolationKind::WeightOverflow, "wbox/root")
            .at_block(7u32)
            .expected("< 56")
            .actual(61)
    }

    #[test]
    fn builder_fills_all_fields() {
        let v = sample();
        assert_eq!(v.kind, ViolationKind::WeightOverflow);
        assert_eq!(v.block, Some(7));
        assert_eq!(v.path, "wbox/root");
        assert_eq!(v.expected, "< 56");
        assert_eq!(v.actual, "61");
        assert_eq!(
            v.to_string(),
            "[WeightOverflow] wbox/root (block 7): expected < 56, actual 61"
        );
    }

    #[test]
    fn report_queries() {
        let mut report = AuditReport::new();
        assert!(report.is_clean());
        report.push(sample());
        report.push(Violation::new(ViolationKind::KeyOrder, "wbox/leaf"));
        assert!(!report.is_clean());
        assert_eq!(report.len(), 2);
        assert!(report.has(ViolationKind::KeyOrder));
        assert!(!report.has(ViolationKind::BackLink));
        assert_eq!(report.count_of(ViolationKind::KeyOrder), 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = AuditReport::new();
        a.push(sample());
        let mut b = AuditReport::new();
        b.push(Violation::new(ViolationKind::LogOrder, "cache/log"));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn assert_clean_passes_on_empty() {
        AuditReport::new().assert_clean("test");
    }

    #[test]
    #[should_panic(expected = "test audit found 1 violation(s)")]
    fn assert_clean_panics_with_listing() {
        let mut report = AuditReport::new();
        report.push(sample());
        report.assert_clean("test");
    }
}
