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
//! Reducing the cost of indirection (§6 of the paper): caching + logging.
//!
//! Dereferencing a LID costs random I/Os, which §6 neutralizes in two steps:
//!
//! 1. **Basic caching** — every reference carries the cached label value and
//!    a `last-cached` timestamp; a single `last-modified` timestamp per
//!    document tells whether the cache is still valid.
//! 2. **Caching + logging** — instead of one timestamp, keep a FIFO log of
//!    the last k modifications, each described *succinctly* as its effect on
//!    existing labels (e.g. `[142857, ∞): +2`). A reference whose
//!    `last-cached` is still covered by the log replays the missed effects
//!    and returns without any I/O; only a logged *invalidation* covering the
//!    label forces the full lookup. A k-entry log makes caching roughly
//!    k-fold more effective.
//!
//! This crate is scheme-agnostic: [`ModLog`] and [`CachedRef`] are generic
//! over a label type and an [`Effect`] algebra. The three effect algebras of
//! §6 are provided: [`OrdinalEffect`] (ordinal labels of either BOX),
//! [`FlatEffect`] (W-BOX non-ordinal labels), and [`PathEffect`] (B-BOX
//! non-ordinal, multi-component labels). `boxes-core` wires them to the
//! concrete structures.
//!
//! # Example
//!
//! ```
//! use boxes_cache::{CachedRef, Lookup, ModLog, OrdinalEffect};
//!
//! let mut log = ModLog::new(8);
//! let mut reference = CachedRef::new();
//! // First access: full lookup, cache primed.
//! assert_eq!(reference.resolve(&log, || 100u64), Lookup::Full(100));
//! // A logged insertion before label 40 shifts everything ≥ 40 up by 2.
//! log.record(OrdinalEffect::shift(40, 2));
//! // The reference replays the effect without any lookup.
//! assert_eq!(reference.resolve(&log, || unreachable!()), Lookup::Replayed(102));
//! ```

use std::collections::VecDeque;

/// Logical modification timestamp (a sequence number).
pub type Timestamp = u64;

/// The succinct description of one modification's effect on labels.
pub trait Effect<L>: Clone {
    /// Apply to a cached label: `Some(adjusted)` when the effect can be
    /// replayed, `None` when it invalidates the label (full lookup needed).
    fn apply(&self, label: &L) -> Option<L>;
}

/// FIFO log of the last `k` modification effects (§6's "caching and
/// logging"). With `k = 0` it degenerates to the basic single
/// `last-modified` timestamp approach.
#[derive(Clone, Debug)]
pub struct ModLog<E> {
    entries: VecDeque<(Timestamp, E)>,
    capacity: usize,
    clock: Timestamp,
}

impl<E> ModLog<E> {
    /// Log keeping the `capacity` most recent modifications.
    pub fn new(capacity: usize) -> Self {
        ModLog {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            clock: 0,
        }
    }

    /// Resume a log at an externally recovered `clock` with no retained
    /// entries — the crash-recovery alignment path. After WAL recovery the
    /// effect entries are gone with the process, so a reference stamped
    /// before `clock` is *not covered* and correctly falls back to a full
    /// lookup, while a reference stamped exactly at `clock` (the last
    /// durably committed modification) still hits: its cached value is
    /// committed state. `clock` must be the mod-log timestamp recorded in
    /// the recovered checkpoint, never a guess.
    pub fn with_clock(capacity: usize, clock: Timestamp) -> Self {
        ModLog {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            clock,
        }
    }

    /// Roll the log back to `ts`: drop every entry recorded after it and
    /// rewind the clock. Used when the structure was rolled back to an
    /// earlier committed state (a torn WAL tail): effects of rolled-back
    /// modifications must not be replayed into caches.
    pub fn truncate_after(&mut self, ts: Timestamp) {
        assert!(ts <= self.clock, "cannot roll the mod-log forward");
        self.entries.retain(|(t, _)| *t <= ts);
        self.clock = ts;
    }

    /// The timestamp of the most recent modification.
    pub fn last_modified(&self) -> Timestamp {
        self.clock
    }

    /// Record a modification; returns its timestamp. The oldest entry is
    /// dropped when the log is full.
    pub fn record(&mut self, effect: E) -> Timestamp {
        self.clock += 1;
        if self.capacity > 0 {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back((self.clock, effect));
        }
        self.clock
    }

    /// Whether a cache stamped `last_cached` can be repaired from the log
    /// (every modification after it is still logged).
    pub fn covers(&self, last_cached: Timestamp) -> bool {
        last_cached + u64::try_from(self.entries.len()).unwrap_or(u64::MAX) >= self.clock
    }

    /// Effects later than `last_cached`, oldest first.
    pub fn since(&self, last_cached: Timestamp) -> impl Iterator<Item = &E> {
        self.entries
            .iter()
            .filter(move |(ts, _)| *ts > last_cached)
            .map(|(_, e)| e)
    }

    /// Timestamps of the retained entries, oldest first (audit support:
    /// they must be strictly increasing and end at or before the clock).
    pub fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.entries.iter().map(|(ts, _)| *ts)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How a [`CachedRef`] resolution was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup<L> {
    /// Served straight from the cache (no modifications since).
    Hit(L),
    /// Served by replaying logged effects — still zero I/O.
    Replayed(L),
    /// The cache was unusable; the full lookup ran.
    Full(L),
}

impl<L> Lookup<L> {
    /// The label value, however it was obtained.
    pub fn value(self) -> L {
        match self {
            Lookup::Hit(l) | Lookup::Replayed(l) | Lookup::Full(l) => l,
        }
    }

    /// Whether the full lookup was avoided.
    pub fn avoided_io(&self) -> bool {
        !matches!(self, Lookup::Full(_))
    }
}

/// An augmented reference: a label value cached alongside the LID (the LID
/// itself is held by the caller), plus the `last-cached` timestamp.
#[derive(Clone, Debug, Default)]
pub struct CachedRef<L> {
    cached: Option<(L, Timestamp)>,
}

impl<L: Clone> CachedRef<L> {
    /// An empty (cold) reference.
    pub fn new() -> Self {
        CachedRef { cached: None }
    }

    /// Resolve the label: serve from cache, replay the log, or fall back to
    /// `full_lookup`. Updates the cache either way (§6: "it replaces the
    /// cached value with the label it obtained, and updates last-cached").
    pub fn resolve<E: Effect<L>>(
        &mut self,
        log: &ModLog<E>,
        full_lookup: impl FnOnce() -> L,
    ) -> Lookup<L> {
        let now = log.last_modified();
        if let Some((value, stamp)) = self.cached.clone() {
            if stamp >= now {
                return Lookup::Hit(value);
            }
            if log.covers(stamp) {
                let mut current = Some(value);
                for effect in log.since(stamp) {
                    current = current.and_then(|v| effect.apply(&v));
                    if current.is_none() {
                        break;
                    }
                }
                if let Some(value) = current {
                    self.cached = Some((value.clone(), now));
                    return Lookup::Replayed(value);
                }
            }
        }
        let value = full_lookup();
        self.cached = Some((value.clone(), now));
        Lookup::Full(value)
    }

    /// Like [`CachedRef::resolve`] but **without write escalation**: the
    /// cached value and timestamp are left untouched, so concurrent readers
    /// never contend on the reference (§6 flags the read-to-update
    /// escalation as a multi-user concern and future work; this is the
    /// lock-free answer). Returns `None` when only a full lookup could
    /// produce the label — the caller decides whether to pay for it.
    pub fn resolve_readonly<E: Effect<L>>(&self, log: &ModLog<E>) -> Option<Lookup<L>> {
        let now = log.last_modified();
        let (value, stamp) = self.cached.clone()?;
        if stamp >= now {
            return Some(Lookup::Hit(value));
        }
        if !log.covers(stamp) {
            return None;
        }
        let mut current = Some(value);
        for effect in log.since(stamp) {
            current = effect.apply(&current?);
        }
        current.map(Lookup::Replayed)
    }

    /// Drop the cached value (e.g. when the referenced label was deleted).
    pub fn clear(&mut self) {
        self.cached = None;
    }

    /// The cached value, if any (test support).
    pub fn peek(&self) -> Option<&L> {
        self.cached.as_ref().map(|(l, _)| l)
    }
}

// ---------------------------------------------------------------------------
// Effect algebras of §6
// ---------------------------------------------------------------------------

/// Effect on **ordinal** labels (either BOX): inserting before ordinal `l`
/// shifts every label ≥ l up; deleting shifts down. Never invalidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrdinalEffect {
    /// First affected ordinal.
    pub from: u64,
    /// +1/+2 for insertions, −1/−2 for deletions (elements shift by 2).
    pub delta: i64,
}

impl OrdinalEffect {
    /// `[from, ∞): +delta`.
    pub fn shift(from: u64, delta: i64) -> Self {
        OrdinalEffect { from, delta }
    }
}

impl Effect<u64> for OrdinalEffect {
    fn apply(&self, label: &u64) -> Option<u64> {
        if *label >= self.from {
            // Overflow means the cached label can no longer be repaired;
            // report it dead so the caller falls back to a full lookup.
            label.checked_add_signed(self.delta)
        } else {
            Some(*label)
        }
    }
}

/// Effect on W-BOX non-ordinal labels. Leaf-local updates shift a closed
/// range (the leaf keeps within-leaf ordinal labels, so the suffix of one
/// leaf moves by ±1); multi-leaf reorganizations invalidate their range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatEffect {
    /// `[lo, hi]: +delta` — a single-leaf insert or delete.
    Shift {
        /// First affected label (the anchor's pre-update label).
        lo: u64,
        /// Largest label on the leaf before the update.
        hi: u64,
        /// ±1.
        delta: i64,
    },
    /// `[lo, hi]` was relabeled by a split; cached labels inside are dead.
    Invalidate {
        /// Range start.
        lo: u64,
        /// Range end (inclusive).
        hi: u64,
    },
}

impl Effect<u64> for FlatEffect {
    fn apply(&self, label: &u64) -> Option<u64> {
        match *self {
            FlatEffect::Shift { lo, hi, delta } => {
                if *label >= lo && *label <= hi {
                    // Overflow ⇒ unrepairable; treat like an invalidation.
                    label.checked_add_signed(delta)
                } else {
                    Some(*label)
                }
            }
            FlatEffect::Invalidate { lo, hi } => {
                if *label >= lo && *label <= hi {
                    None
                } else {
                    Some(*label)
                }
            }
        }
    }
}

/// Effect on B-BOX non-ordinal (multi-component) labels, represented as
/// component vectors. Leaf-local updates shift the **last** component of
/// labels within one leaf; splits/merges/borrows invalidate by prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathEffect {
    /// Labels starting with `prefix` whose next component is in
    /// `[from_last, hi_last]` get their last component shifted by `delta`
    /// (a single-leaf insert or delete; `prefix` is the leaf's path).
    ShiftLast {
        /// Path of the leaf (all components but the last).
        prefix: Vec<u32>,
        /// First affected in-leaf position.
        from_last: u32,
        /// Last affected in-leaf position before the update.
        hi_last: u32,
        /// ±1.
        delta: i64,
    },
    /// Case (1) of §6: node at `prefix` gained/lost a child at position
    /// `j` — labels `prefix · k · …` with k ≥ j are invalidated.
    InvalidateFrom {
        /// Path of the reorganized node.
        prefix: Vec<u32>,
        /// First affected child position.
        j: u32,
    },
    /// Case (2) of §6: the boundary between children `j` and `j + 1`
    /// moved — labels `prefix · k · …` with k ∈ {j, j+1} are invalidated.
    InvalidateBoundary {
        /// Path of the node whose children rebalanced.
        prefix: Vec<u32>,
        /// Left child of the shifted boundary.
        j: u32,
    },
}

impl Effect<Vec<u32>> for PathEffect {
    fn apply(&self, label: &Vec<u32>) -> Option<Vec<u32>> {
        match self {
            PathEffect::ShiftLast {
                prefix,
                from_last,
                hi_last,
                delta,
            } => {
                if label.len() == prefix.len() + 1
                    && label[..prefix.len()] == prefix[..]
                    && label[prefix.len()] >= *from_last
                    && label[prefix.len()] <= *hi_last
                {
                    // A delta outside i32 or a component overflow cannot be
                    // repaired in place — invalidate the cached path instead.
                    let shifted = i32::try_from(*delta)
                        .ok()
                        .and_then(|d| label[prefix.len()].checked_add_signed(d))?;
                    let mut out = label.clone();
                    out[prefix.len()] = shifted;
                    Some(out)
                } else {
                    Some(label.clone())
                }
            }
            PathEffect::InvalidateFrom { prefix, j } => {
                if label.len() > prefix.len()
                    && label[..prefix.len()] == prefix[..]
                    && label[prefix.len()] >= *j
                {
                    None
                } else {
                    Some(label.clone())
                }
            }
            PathEffect::InvalidateBoundary { prefix, j } => {
                if label.len() > prefix.len()
                    && label[..prefix.len()] == prefix[..]
                    && (label[prefix.len()] == *j || label[prefix.len()] == *j + 1)
                {
                    None
                } else {
                    Some(label.clone())
                }
            }
        }
    }
}

/// Hit/replay/miss statistics for a cached workload (harness support).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Resolutions served directly from the cache.
    pub hits: u64,
    /// Resolutions repaired by log replay.
    pub replays: u64,
    /// Resolutions that needed the full lookup.
    pub full: u64,
}

impl CacheStats {
    /// Record one resolution outcome.
    pub fn note<L>(&mut self, lookup: &Lookup<L>) {
        match lookup {
            Lookup::Hit(_) => self.hits += 1,
            Lookup::Replayed(_) => self.replays += 1,
            Lookup::Full(_) => self.full += 1,
        }
    }

    /// Fraction of resolutions that avoided I/O.
    #[expect(
        clippy::as_conversions,
        reason = "a reporting ratio: precision loss above 2^53 resolutions is irrelevant"
    )]
    pub fn avoidance_rate(&self) -> f64 {
        let total = self.hits + self.replays + self.full;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.replays) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_reference_does_full_lookup_then_hits() {
        let log: ModLog<OrdinalEffect> = ModLog::new(4);
        let mut r = CachedRef::new();
        assert_eq!(r.resolve(&log, || 7u64), Lookup::Full(7));
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Hit(7));
    }

    #[test]
    fn replay_applies_effects_in_order() {
        let mut log = ModLog::new(4);
        let mut r = CachedRef::new();
        r.resolve(&log, || 100u64);
        log.record(OrdinalEffect::shift(50, 2)); // 100 → 102
        log.record(OrdinalEffect::shift(200, 2)); // no change
        log.record(OrdinalEffect::shift(0, -1)); // 102 → 101
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Replayed(101));
        // And the repaired value is re-cached.
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Hit(101));
    }

    #[test]
    fn log_overflow_forces_full_lookup() {
        let mut log = ModLog::new(2);
        let mut r = CachedRef::new();
        r.resolve(&log, || 10u64);
        for _ in 0..3 {
            log.record(OrdinalEffect::shift(0, 1));
        }
        // Three modifications, log holds two: cache not covered.
        assert_eq!(r.resolve(&log, || 13), Lookup::Full(13));
    }

    #[test]
    fn k_fold_effectiveness() {
        // With capacity k, exactly k modifications can pass before a cached
        // reference goes stale; with the basic approach (k = 0), one.
        for (k, expect_full) in [(0usize, true), (8, false)] {
            let mut log = ModLog::new(k);
            let mut r = CachedRef::new();
            r.resolve(&log, || 0u64);
            log.record(OrdinalEffect::shift(1_000, 2));
            let res = r.resolve(&log, || 0);
            assert_eq!(matches!(res, Lookup::Full(_)), expect_full, "k = {k}");
        }
    }

    #[test]
    fn flat_shift_and_invalidate() {
        let e = FlatEffect::Shift {
            lo: 10,
            hi: 20,
            delta: 1,
        };
        assert_eq!(e.apply(&9), Some(9));
        assert_eq!(e.apply(&10), Some(11));
        assert_eq!(e.apply(&20), Some(21));
        assert_eq!(e.apply(&21), Some(21));
        let inv = FlatEffect::Invalidate { lo: 10, hi: 20 };
        assert_eq!(inv.apply(&9), Some(9));
        assert_eq!(inv.apply(&15), None);
        assert_eq!(inv.apply(&21), Some(21));
    }

    #[test]
    fn invalidation_falls_back_and_recovers() {
        let mut log: ModLog<FlatEffect> = ModLog::new(4);
        let mut r = CachedRef::new();
        r.resolve(&log, || 15u64);
        log.record(FlatEffect::Invalidate { lo: 10, hi: 20 });
        assert_eq!(r.resolve(&log, || 99), Lookup::Full(99));
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Hit(99));
    }

    #[test]
    fn paper_example_range_update() {
        // §6: inserting an element before start label 142857 logs
        // [142857, ∞): +2.
        let mut log = ModLog::new(4);
        let mut r = CachedRef::new();
        r.resolve(&log, || 142_857u64);
        log.record(OrdinalEffect::shift(142_857, 2));
        assert_eq!(
            r.resolve(&log, || unreachable!()),
            Lookup::Replayed(142_859)
        );
    }

    #[test]
    fn path_shift_last_component() {
        let e = PathEffect::ShiftLast {
            prefix: vec![1, 3],
            from_last: 2,
            hi_last: 6,
            delta: 1,
        };
        assert_eq!(e.apply(&vec![1, 3, 2]), Some(vec![1, 3, 3]));
        assert_eq!(e.apply(&vec![1, 3, 1]), Some(vec![1, 3, 1]));
        assert_eq!(e.apply(&vec![1, 3, 7]), Some(vec![1, 3, 7]), "outside leaf");
        assert_eq!(e.apply(&vec![1, 2, 4]), Some(vec![1, 2, 4]), "other leaf");
        assert_eq!(
            e.apply(&vec![1, 3, 2, 0]),
            Some(vec![1, 3, 2, 0]),
            "longer labels belong to other levels"
        );
    }

    #[test]
    fn path_invalidations() {
        let from = PathEffect::InvalidateFrom {
            prefix: vec![1],
            j: 3,
        };
        assert_eq!(from.apply(&vec![1, 2, 9]), Some(vec![1, 2, 9]));
        assert_eq!(from.apply(&vec![1, 3, 0]), None);
        assert_eq!(from.apply(&vec![1, 4, 5]), None);
        assert_eq!(from.apply(&vec![2, 9, 9]), Some(vec![2, 9, 9]));
        let boundary = PathEffect::InvalidateBoundary {
            prefix: vec![0, 0],
            j: 2,
        };
        assert_eq!(boundary.apply(&vec![0, 0, 2, 5]), None);
        assert_eq!(boundary.apply(&vec![0, 0, 3, 5]), None);
        assert_eq!(boundary.apply(&vec![0, 0, 4, 5]), Some(vec![0, 0, 4, 5]));
        assert_eq!(boundary.apply(&vec![0, 0, 1, 5]), Some(vec![0, 0, 1, 5]));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut log = ModLog::new(2);
        let mut r = CachedRef::new();
        let mut stats = CacheStats::default();
        stats.note(&r.resolve(&log, || 5u64));
        stats.note(&r.resolve(&log, || 5u64));
        log.record(OrdinalEffect::shift(0, 1));
        stats.note(&r.resolve(&log, || 6u64));
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.replays, 1);
        assert_eq!(stats.full, 1);
        assert!((stats.avoidance_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn readonly_resolve_never_mutates() {
        let mut log = ModLog::new(4);
        let mut r = CachedRef::new();
        assert!(r.resolve_readonly(&log).is_none(), "cold cache");
        r.resolve(&log, || 50u64);
        log.record(OrdinalEffect::shift(0, 2));
        // Read-only replay succeeds but does not refresh the stamp...
        assert_eq!(r.resolve_readonly(&log), Some(Lookup::Replayed(52)));
        assert_eq!(r.peek(), Some(&50), "cache untouched");
        // ...so a later mutable resolve still replays from the old stamp.
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Replayed(52));
        // Once the log overflows, read-only resolution declines.
        for _ in 0..5 {
            log.record(OrdinalEffect::shift(0, 1));
        }
        assert!(r.resolve_readonly(&log).is_none());
    }

    #[test]
    fn resumed_log_forces_full_lookup_for_stale_stamps() {
        // Pre-crash: a reference cached at ts 3, another at ts 5 (the last
        // committed modification). The crash destroys the log entries.
        let mut pre = ModLog::new(8);
        let mut early = CachedRef::new();
        early.resolve(&pre, || 10u64);
        for _ in 0..3 {
            pre.record(OrdinalEffect::shift(0, 1));
        }
        let mut late = CachedRef::new();
        late.resolve(&pre, || 13u64);
        pre.record(OrdinalEffect::shift(0, 1));
        pre.record(OrdinalEffect::shift(0, 1));
        let mut at_commit = CachedRef::new();
        at_commit.resolve(&pre, || 15u64);
        // Recovery: resume at the committed clock with no entries.
        let resumed: ModLog<OrdinalEffect> = ModLog::with_clock(8, pre.last_modified());
        assert_eq!(early.resolve(&resumed, || 99), Lookup::Full(99));
        assert_eq!(late.resolve(&resumed, || 98), Lookup::Full(98));
        // The reference stamped at the committed clock still hits: its
        // cached value is committed state.
        assert_eq!(
            at_commit.resolve(&resumed, || unreachable!()),
            Lookup::Hit(15)
        );
    }

    #[test]
    fn truncate_after_drops_rolled_back_effects() {
        let mut log = ModLog::new(8);
        let mut r = CachedRef::new();
        r.resolve(&log, || 100u64);
        let committed = log.record(OrdinalEffect::shift(0, 1)); // survives
        log.record(OrdinalEffect::shift(0, 50)); // rolled back by recovery
        log.truncate_after(committed);
        assert_eq!(log.last_modified(), committed);
        assert_eq!(log.len(), 1);
        // Replay applies only the committed effect.
        assert_eq!(r.resolve(&log, || unreachable!()), Lookup::Replayed(101));
    }

    #[test]
    #[should_panic(expected = "roll the mod-log forward")]
    fn truncate_after_rejects_future_timestamps() {
        let mut log: ModLog<OrdinalEffect> = ModLog::new(2);
        log.truncate_after(5);
    }

    #[test]
    fn cleared_reference_goes_cold() {
        let log: ModLog<OrdinalEffect> = ModLog::new(2);
        let mut r = CachedRef::new();
        r.resolve(&log, || 1u64);
        r.clear();
        assert_eq!(r.resolve(&log, || 2), Lookup::Full(2));
    }
}
