//! §6 wiring: cached references with modification logs for each scheme.
//!
//! Each wrapper owns the structure plus a [`ModLog`] of the last k
//! modifications, phrased in the §6 effect algebra for that structure's
//! labels. Query sites hold [`CachedRef`]s; resolving one through the
//! wrapper either hits the cache, replays the missed effects (no I/O), or
//! falls back to the structure's full lookup.
//!
//! The k-entry log gives "roughly a k-fold boost in the effectiveness of
//! caching"; `invalidated` entries (multi-leaf reorganizations) are rare —
//! "on average only one in Θ(B) updates affects more than one leaf".

#![expect(
    clippy::expect_used,
    reason = "path labels have >= 1 component by construction (root label is non-empty)"
)]

use boxes_audit::{AuditReport, Auditable, Violation, ViolationKind};
use boxes_bbox::{BBox, BBoxChange};
use boxes_cache::{
    CacheStats, CachedRef, Effect, FlatEffect, ModLog, OrdinalEffect, PathEffect, Timestamp,
};
use boxes_lidf::Lid;
use boxes_pager::IoResult;
use boxes_wbox::WBox;

use crate::scheme::OrdinalScheme;

/// A replay anchor set: labels snapshotted at a log timestamp, against which
/// [`Auditable::audit`] later checks that log replay reproduces the eager
/// structure's answers (§6 equivalence).
type Checkpoint<L> = Option<(Timestamp, Vec<(Lid, L)>)>;

/// Log-structure audit shared by all three wrappers: entry timestamps must
/// be strictly increasing (FIFO order) and never run ahead of the clock.
fn audit_log_order<E>(log: &ModLog<E>, path: &str, report: &mut AuditReport) {
    let mut prev: Option<Timestamp> = None;
    for ts in log.timestamps() {
        if let Some(p) = prev {
            if ts <= p {
                report.push(
                    Violation::new(ViolationKind::LogOrder, path)
                        .expected(format!("timestamp > {p} (strictly increasing FIFO)"))
                        .actual(ts),
                );
            }
        }
        if ts > log.last_modified() {
            report.push(
                Violation::new(ViolationKind::LogOrder, path)
                    .expected(format!("timestamp ≤ clock {}", log.last_modified()))
                    .actual(ts),
            );
        }
        prev = Some(ts);
    }
}

/// §6 replay-equivalence audit: replay every checkpointed label through the
/// effects logged since the snapshot; wherever the replay produces a value
/// (no invalidation hit it), that value must equal the eager lookup. Dead
/// anchors and snapshots older than the log's horizon are skipped; an
/// anchor that cannot be read is reported as unreadable.
fn audit_replay<L, E>(
    checkpoint: &Checkpoint<L>,
    log: &ModLog<E>,
    is_live: impl Fn(Lid) -> IoResult<bool>,
    eager: impl Fn(Lid) -> IoResult<L>,
    path: &str,
    report: &mut AuditReport,
) where
    L: Clone + PartialEq + std::fmt::Debug,
    E: Effect<L>,
{
    let Some((stamp, anchors)) = checkpoint else {
        return;
    };
    if !log.covers(*stamp) {
        return;
    }
    for (lid, old) in anchors {
        let mut check = || -> IoResult<()> {
            if !is_live(*lid)? {
                return Ok(());
            }
            let mut replayed = old.clone();
            for effect in log.since(*stamp) {
                let Some(next) = effect.apply(&replayed) else {
                    return Ok(()); // invalidated: the cache would fall back to a lookup
                };
                replayed = next;
            }
            let truth = eager(*lid)?;
            if replayed != truth {
                report.push(
                    Violation::new(ViolationKind::ReplayDivergence, format!("{path}/{lid:?}"))
                        .expected(format!("{truth:?} (eager lookup)"))
                        .actual(format!("{replayed:?} (log replay)")),
                );
            }
            Ok(())
        };
        if let Err(e) = check() {
            report.push(Violation::unreadable(format!("{path}/{lid:?}"), e));
        }
    }
}

/// W-BOX (non-ordinal labels) with a §6 modification log.
pub struct CachedWBox {
    /// The underlying W-BOX.
    pub wbox: WBox,
    /// FIFO log of the last k effects.
    pub log: ModLog<FlatEffect>,
    /// Hit/replay/full counters.
    pub stats: CacheStats,
    checkpoint: Checkpoint<u64>,
}

impl CachedWBox {
    /// Wrap a W-BOX with a k-entry log. The W-BOX must use non-ordinal
    /// labels with the (default) leaf-ordinal rule — which is what §6's
    /// `[l, l_max]: ±1` entries describe.
    pub fn new(wbox: WBox, k: usize) -> Self {
        CachedWBox {
            wbox,
            log: ModLog::new(k),
            stats: CacheStats::default(),
            checkpoint: None,
        }
    }

    /// Snapshot the current labels of `lids` together with the log clock.
    /// A later [`Auditable::audit`] replays each snapshot through the
    /// effects logged since and checks the result against the eager lookup.
    pub fn checkpoint(&mut self, lids: &[Lid]) -> IoResult<()> {
        let stamp = self.log.last_modified();
        let anchors = lids
            .iter()
            .map(|&l| Ok((l, self.wbox.lookup(l)?)))
            .collect::<IoResult<_>>()?;
        self.checkpoint = Some((stamp, anchors));
        Ok(())
    }

    /// Resolve a label through a cached reference.
    pub fn lookup(&mut self, lid: Lid, cache: &mut CachedRef<u64>) -> IoResult<u64> {
        let wbox = &self.wbox;
        let result = cache.resolve(&self.log, || wbox.lookup(lid))?;
        self.stats.note(&result);
        Ok(result.value())
    }

    /// Insert a new label before `lid`, logging its effect.
    pub fn insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        let (l, l_max) = self.wbox.leaf_extent(lid)?;
        let _ = self.wbox.take_relabel_range(); // clear stale state
        let new = self.wbox.insert_before(lid)?;
        match self.wbox.take_relabel_range() {
            None => {
                // Single-leaf update: `[l, l_max]: +1`.
                self.log.record(FlatEffect::Shift {
                    lo: l,
                    hi: l_max,
                    delta: 1,
                });
            }
            Some((lo, hi)) => {
                // Multi-leaf reorganization: the affected range (including
                // the anchor leaf's pre-update labels) is invalidated.
                self.log.record(FlatEffect::Invalidate {
                    lo: lo.min(l),
                    hi: hi.max(l_max),
                });
            }
        }
        Ok(new)
    }

    /// Insert an element (two labels) before `lid`, logging both effects.
    pub fn insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        let end = self.insert_before(lid)?;
        let start = self.insert_before(end)?;
        Ok((start, end))
    }

    /// Delete the label of `lid`, logging `[l, l_max]: −1`.
    pub fn delete(&mut self, lid: Lid) -> IoResult<()> {
        if let Some((_, anchors)) = &mut self.checkpoint {
            anchors.retain(|(l, _)| *l != lid);
        }
        let (l, l_max) = self.wbox.leaf_extent(lid)?;
        let _ = self.wbox.take_relabel_range();
        self.wbox.delete(lid)?;
        match self.wbox.take_relabel_range() {
            None => {
                self.log.record(FlatEffect::Shift {
                    lo: l,
                    hi: l_max,
                    delta: -1,
                });
            }
            Some((lo, hi)) => {
                self.log.record(FlatEffect::Invalidate {
                    lo: lo.min(l),
                    hi: hi.max(l_max),
                });
            }
        }
        Ok(())
    }
}

impl Auditable for CachedWBox {
    /// Audit the wrapped W-BOX plus the §6 layer: log FIFO order and
    /// replay-equivalence against the last [`CachedWBox::checkpoint`].
    fn audit(&self) -> AuditReport {
        let mut report = self.wbox.audit();
        audit_log_order(&self.log, "cached-wbox/log", &mut report);
        audit_replay(
            &self.checkpoint,
            &self.log,
            |l| self.wbox.is_live(l),
            |l| self.wbox.lookup(l),
            "cached-wbox/replay",
            &mut report,
        );
        report
    }
}

/// B-BOX (non-ordinal, multi-component labels) with a §6 modification log.
pub struct CachedBBox {
    /// The underlying B-BOX.
    pub bbox: BBox,
    /// FIFO log of the last k effects.
    pub log: ModLog<PathEffect>,
    /// Hit/replay/full counters.
    pub stats: CacheStats,
    checkpoint: Checkpoint<Vec<u32>>,
}

impl CachedBBox {
    /// Wrap a B-BOX with a k-entry log.
    pub fn new(bbox: BBox, k: usize) -> Self {
        CachedBBox {
            bbox,
            log: ModLog::new(k),
            stats: CacheStats::default(),
            checkpoint: None,
        }
    }

    /// Snapshot the current labels of `lids` together with the log clock
    /// (see [`CachedWBox::checkpoint`]).
    pub fn checkpoint(&mut self, lids: &[Lid]) -> IoResult<()> {
        let stamp = self.log.last_modified();
        let anchors = lids
            .iter()
            .map(|&l| Ok((l, self.bbox.lookup(l)?.0)))
            .collect::<IoResult<_>>()?;
        self.checkpoint = Some((stamp, anchors));
        Ok(())
    }

    /// Resolve a label (as its component vector) through a cached
    /// reference.
    pub fn lookup(&mut self, lid: Lid, cache: &mut CachedRef<Vec<u32>>) -> IoResult<Vec<u32>> {
        let bbox = &self.bbox;
        let result = cache.resolve(&self.log, || Ok(bbox.lookup(lid)?.0))?;
        self.stats.note(&result);
        Ok(result.value())
    }

    fn log_changes(&mut self, changes: Vec<BBoxChange>) {
        for change in changes {
            let effect = match change {
                BBoxChange::ChildrenFrom { prefix, j } => PathEffect::InvalidateFrom { prefix, j },
                BBoxChange::Boundary { prefix, j } => PathEffect::InvalidateBoundary { prefix, j },
            };
            self.log.record(effect);
        }
    }

    /// Insert a new label before `lid`, logging its effect.
    pub fn insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        let (label, count) = self.bbox.leaf_extent(lid)?;
        let mut prefix = label.0;
        let pos = prefix.pop().expect("labels have at least one component");
        let _ = self.bbox.take_changes();
        let new = self.bbox.insert_before(lid)?;
        let changes = self.bbox.take_changes();
        if changes.is_empty() {
            // Single-leaf update: shift the last component of the leaf's
            // suffix.
            self.log.record(PathEffect::ShiftLast {
                prefix,
                from_last: pos,
                hi_last: count - 1,
                delta: 1,
            });
        } else {
            self.log_changes(changes);
        }
        Ok(new)
    }

    /// Insert an element (two labels) before `lid`, logging both effects.
    pub fn insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        let end = self.insert_before(lid)?;
        let start = self.insert_before(end)?;
        Ok((start, end))
    }

    /// Delete the label of `lid`, logging its effect.
    pub fn delete(&mut self, lid: Lid) -> IoResult<()> {
        if let Some((_, anchors)) = &mut self.checkpoint {
            anchors.retain(|(l, _)| *l != lid);
        }
        let (label, count) = self.bbox.leaf_extent(lid)?;
        let mut prefix = label.0;
        let pos = prefix.pop().expect("labels have at least one component");
        let _ = self.bbox.take_changes();
        self.bbox.delete(lid)?;
        let changes = self.bbox.take_changes();
        if changes.is_empty() {
            self.log.record(PathEffect::ShiftLast {
                prefix,
                from_last: pos,
                hi_last: count - 1,
                delta: -1,
            });
        } else {
            self.log_changes(changes);
        }
        Ok(())
    }
}

impl Auditable for CachedBBox {
    /// Audit the wrapped B-BOX plus the §6 layer: log FIFO order and
    /// replay-equivalence against the last [`CachedBBox::checkpoint`].
    fn audit(&self) -> AuditReport {
        let mut report = self.bbox.audit();
        audit_log_order(&self.log, "cached-bbox/log", &mut report);
        audit_replay(
            &self.checkpoint,
            &self.log,
            |l| self.bbox.is_live(l),
            |l| Ok(self.bbox.lookup(l)?.0),
            "cached-bbox/replay",
            &mut report,
        );
        report
    }
}

/// Any ordinal-capable scheme with a §6 modification log over **ordinal**
/// labels — the simplest effect algebra: `[l, ∞): ±1`, never invalidated.
pub struct CachedOrdinal<S: OrdinalScheme> {
    /// The underlying scheme (must be configured with ordinal support).
    pub scheme: S,
    /// FIFO log of the last k effects.
    pub log: ModLog<OrdinalEffect>,
    /// Hit/replay/full counters.
    pub stats: CacheStats,
    checkpoint: Checkpoint<u64>,
}

impl<S: OrdinalScheme> CachedOrdinal<S> {
    /// Wrap an ordinal-capable scheme with a k-entry log.
    pub fn new(scheme: S, k: usize) -> Self {
        CachedOrdinal {
            scheme,
            log: ModLog::new(k),
            stats: CacheStats::default(),
            checkpoint: None,
        }
    }

    /// Snapshot the current ordinals of `lids` together with the log clock
    /// (see [`CachedWBox::checkpoint`]).
    pub fn checkpoint(&mut self, lids: &[Lid]) -> IoResult<()> {
        let stamp = self.log.last_modified();
        let anchors = lids
            .iter()
            .map(|&l| Ok((l, self.scheme.ordinal_of(l)?)))
            .collect::<IoResult<_>>()?;
        self.checkpoint = Some((stamp, anchors));
        Ok(())
    }

    /// Resolve an ordinal label through a cached reference.
    pub fn ordinal_of(&mut self, lid: Lid, cache: &mut CachedRef<u64>) -> IoResult<u64> {
        let scheme = &self.scheme;
        let result = cache.resolve(&self.log, || scheme.ordinal_of(lid))?;
        self.stats.note(&result);
        Ok(result.value())
    }

    /// Insert a new label before `lid`, logging `[l, ∞): +1`.
    pub fn insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        let l = self.scheme.ordinal_of(lid)?;
        let new = self.scheme.try_insert_before(lid)?;
        self.log.record(OrdinalEffect::shift(l, 1));
        Ok(new)
    }

    /// Insert an element before `lid`, logging `[l, ∞): +2` as two steps.
    pub fn insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        let end = self.insert_before(lid)?;
        let start = self.insert_before(end)?;
        Ok((start, end))
    }

    /// Delete the label of `lid`, logging `[l, ∞): −1`.
    pub fn delete(&mut self, lid: Lid) -> IoResult<()> {
        if let Some((_, anchors)) = &mut self.checkpoint {
            anchors.retain(|(l, _)| *l != lid);
        }
        let l = self.scheme.ordinal_of(lid)?;
        self.scheme.try_delete(lid)?;
        self.log.record(OrdinalEffect::shift(l, -1));
        Ok(())
    }

    /// Lookup I/O-avoidance rate so far.
    pub fn avoidance_rate(&self) -> f64 {
        self.stats.avoidance_rate()
    }
}

impl<S: OrdinalScheme + Auditable> Auditable for CachedOrdinal<S> {
    /// Audit the wrapped scheme plus the §6 layer: log FIFO order and
    /// replay-equivalence against the last [`CachedOrdinal::checkpoint`].
    fn audit(&self) -> AuditReport {
        let mut report = self.scheme.audit();
        audit_log_order(&self.log, "cached-ordinal/log", &mut report);
        audit_replay(
            &self.checkpoint,
            &self.log,
            |l| self.scheme.is_live(l),
            |l| self.scheme.ordinal_of(l),
            "cached-ordinal/replay",
            &mut report,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{LabelingScheme, WBoxScheme};
    use boxes_bbox::BBoxConfig;
    use boxes_pager::{Pager, PagerConfig};
    use boxes_wbox::WBoxConfig;

    fn wbox() -> WBox {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        WBox::new(pager, WBoxConfig::small_for_tests()).unwrap()
    }

    fn bbox() -> BBox {
        let pager = Pager::new(PagerConfig::with_block_size(256));
        BBox::new(pager, BBoxConfig::from_block_size(256)).unwrap()
    }

    #[test]
    fn wbox_cached_lookup_replays_single_leaf_inserts() {
        let mut w = wbox();
        let lids = w.bulk_load(1_000).unwrap();
        let mut cached = CachedWBox::new(w, 16);
        let probe = lids[500];
        // Bulk-loaded leaves are full, so the very first insert splits;
        // do it before warming the cache.
        cached.insert_before(probe).unwrap();
        let mut r = CachedRef::new();
        let first = cached.lookup(probe, &mut r).unwrap();
        // Insert right before the probe: the cached label must replay.
        cached.insert_before(probe).unwrap();
        let pager = cached.wbox.pager().clone();
        let before = pager.stats();
        let second = cached.lookup(probe, &mut r).unwrap();
        assert_eq!(pager.stats().since(&before).total(), 0, "no I/O");
        assert_eq!(second, first + 1, "replayed the +1 shift");
        assert_eq!(
            second,
            cached.wbox.lookup(probe).unwrap(),
            "agrees with truth"
        );
        assert_eq!(cached.stats.replays, 1);
    }

    #[test]
    fn wbox_cached_lookup_survives_splits_via_invalidation() {
        let mut w = wbox();
        let lids = w.bulk_load(1_000).unwrap();
        let mut cached = CachedWBox::new(w, 64);
        let probe = lids[500];
        let mut r = CachedRef::new();
        cached.lookup(probe, &mut r).unwrap();
        // Hammer the probe's neighborhood until splits occur.
        for _ in 0..40 {
            cached.insert_before(probe).unwrap();
        }
        let value = cached.lookup(probe, &mut r).unwrap();
        assert_eq!(value, cached.wbox.lookup(probe).unwrap());
        assert!(cached.stats.full >= 1, "splits forced full lookups");
        cached.wbox.validate();
    }

    #[test]
    fn wbox_distant_references_replay_through_updates() {
        let mut w = wbox();
        let lids = w.bulk_load(2_000).unwrap();
        let mut cached = CachedWBox::new(w, 32);
        let far = lids[1_900];
        let mut r = CachedRef::new();
        let v0 = cached.lookup(far, &mut r).unwrap();
        for _ in 0..20 {
            cached.insert_before(lids[100]).unwrap();
        }
        let pager = cached.wbox.pager().clone();
        let before = pager.stats();
        let v1 = cached.lookup(far, &mut r).unwrap();
        assert_eq!(v1, v0, "distant label unaffected");
        // Replays and hits are free; a far-away reference should rarely pay.
        assert!(pager.stats().since(&before).total() <= 2);
    }

    #[test]
    fn bbox_cached_lookup_replays_and_invalidates() {
        let mut b = bbox();
        let lids = b.bulk_load(500).unwrap();
        let mut cached = CachedBBox::new(b, 32);
        let probe = lids[250];
        cached.insert_before(probe).unwrap(); // full bulk leaf: splits once
        let mut r = CachedRef::new();
        let v0 = cached.lookup(probe, &mut r).unwrap();
        cached.insert_before(probe).unwrap();
        let v1 = cached.lookup(probe, &mut r).unwrap();
        assert_eq!(v1, cached.bbox.lookup(probe).unwrap().0);
        assert_ne!(v0, v1);
        assert!(cached.stats.replays >= 1);
        // Force splits; correctness must hold through invalidations.
        for _ in 0..60 {
            cached.insert_before(probe).unwrap();
        }
        let v2 = cached.lookup(probe, &mut r).unwrap();
        assert_eq!(v2, cached.bbox.lookup(probe).unwrap().0);
        cached.bbox.validate();
    }

    #[test]
    fn bbox_deletes_replay_too() {
        let mut b = bbox();
        let lids = b.bulk_load(300).unwrap();
        let mut cached = CachedBBox::new(b, 16);
        let probe = lids[120];
        let mut r = CachedRef::new();
        cached.lookup(probe, &mut r).unwrap();
        // Delete a label earlier in the same leaf.
        cached.delete(lids[118]).unwrap();
        let v = cached.lookup(probe, &mut r).unwrap();
        assert_eq!(v, cached.bbox.lookup(probe).unwrap().0);
        cached.bbox.validate();
    }

    #[test]
    fn ordinal_cached_layer_over_wbox() {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut scheme = WBoxScheme::new(pager, WBoxConfig::small_for_tests().with_ordinal());
        let lids = scheme.bulk_load_document(&(0..400).map(|i| i ^ 1).collect::<Vec<_>>());
        let mut cached = CachedOrdinal::new(scheme, 8);
        let probe = lids[200];
        let mut r = CachedRef::new();
        assert_eq!(cached.ordinal_of(probe, &mut r).unwrap(), 200);
        // Paper's example shape: insert before an element, all ordinals
        // ≥ l shift by 2; the cache replays it.
        cached.insert_element_before(lids[100]).unwrap();
        let pager = cached.scheme.pager().clone();
        let before = pager.stats();
        assert_eq!(cached.ordinal_of(probe, &mut r).unwrap(), 202);
        assert_eq!(pager.stats().since(&before).total(), 0);
        // Updates beyond the log capacity force a full lookup.
        for _ in 0..9 {
            cached.insert_before(lids[50]).unwrap();
        }
        assert_eq!(cached.ordinal_of(probe, &mut r).unwrap(), 211);
        assert!(cached.stats.full >= 1);
        assert!(cached.avoidance_rate() > 0.0);
    }

    #[test]
    fn read_heavy_workload_mostly_avoids_io() {
        let mut w = wbox();
        let lids = w.bulk_load(3_000).unwrap();
        let mut cached = CachedWBox::new(w, 16);
        // Open up the update neighborhood first (full leaves split once).
        for round in 0..20 {
            cached.insert_before(lids[round * 7 + 1]).unwrap();
        }
        let mut refs: Vec<CachedRef<u64>> = (0..50).map(|_| CachedRef::new()).collect();
        let probes: Vec<_> = (0..50).map(|i| lids[i * 60]).collect();
        // Warm every reference, then measure only steady state.
        for (r, &lid) in refs.iter_mut().zip(&probes) {
            cached.lookup(lid, r).unwrap();
        }
        cached.stats = CacheStats::default();
        // 10 reads per update, k = 16.
        for round in 0..20 {
            cached.insert_before(lids[round * 7 + 1]).unwrap();
            for (r, &lid) in refs.iter_mut().zip(&probes).take(10) {
                let got = cached.lookup(lid, r).unwrap();
                assert_eq!(got, cached.wbox.lookup(lid).unwrap());
            }
        }
        assert!(
            cached.stats.avoidance_rate() > 0.8,
            "read-heavy workload should mostly avoid I/O: {:?}",
            cached.stats
        );
    }
}
