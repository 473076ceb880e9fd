//! One interface over all dynamic labeling schemes.

use boxes_bbox::{BBox, BBoxConfig, PathLabel};
use boxes_lidf::Lid;
use boxes_naive::{BigLabel, NaiveConfig, NaiveLabeling};
use boxes_pager::{IoResult, Pager, PagerConfig, SharedPager};
use boxes_wbox::{WBox, WBoxConfig};

/// A dynamic order-based labeling scheme (§3's supported operations plus
/// the bulk operations of §4/§5).
///
/// Implementations own their LIDF and index storage on a shared pager, so
/// all I/O is visible through [`LabelingScheme::pager`]. Every operation
/// that touches a block returns its disk faults as a typed [`PagerError`],
/// never a wrong label. While the pager is degraded (read-only), lookups
/// keep answering and every mutation is rejected with
/// [`PagerError::Degraded`] by the pager's transaction gate, before any
/// structure state changes. An error *during* a mutation (the fault that
/// first degrades the pager) means in-memory state may have run ahead of
/// disk: recover from the WAL and reopen before mutating again.
pub trait LabelingScheme {
    /// The label value type (`u64` for W-BOX/naive, [`PathLabel`] for
    /// B-BOX). Ordering agrees with document order.
    type Label: Ord + Clone + std::fmt::Debug;

    /// Short scheme name for reports (e.g. `"W-BOX"`).
    fn name(&self) -> String;

    /// Current label of `lid`.
    fn try_lookup(&self, lid: Lid) -> IoResult<Self::Label>;

    /// Insert one new label immediately before the label of `lid`.
    fn try_insert_before(&mut self, lid: Lid) -> IoResult<Lid>;

    /// Insert a new element (start and end labels) before the tag labeled
    /// `lid` (§3: end first, then start before it).
    fn try_insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)>;

    /// Delete the label of `lid`, reclaiming its LIDF record.
    fn try_delete(&mut self, lid: Lid) -> IoResult<()>;

    /// Bulk load a fresh document of tags in document order.
    /// `partner_of[i]` is the index of tag i's partner (its element's other
    /// tag) — used by pair-optimized schemes, ignored by the rest.
    fn try_bulk_load_document(&mut self, partner_of: &[usize]) -> IoResult<Vec<Lid>>;

    /// [`LabelingScheme::try_bulk_load_document`] for set-up code, where a
    /// disk fault is fatal.
    ///
    /// # Panics
    /// Panics when the bulk load fails.
    #[expect(
        clippy::expect_used,
        reason = "set-up bulk load on a fresh pager: a disk fault there is fatal like Pager::new's failed file creation; fault drills call try_bulk_load_document"
    )]
    fn bulk_load_document(&mut self, partner_of: &[usize]) -> Vec<Lid> {
        self.try_bulk_load_document(partner_of)
            .expect("bulk load at set-up")
    }

    /// Bulk-insert a subtree of tags before the tag labeled `lid`;
    /// `partner_of` is relative to the new batch.
    fn try_insert_subtree_before(&mut self, lid: Lid, partner_of: &[usize]) -> IoResult<Vec<Lid>>;

    /// Bulk-delete the contiguous label range between the two tags of a
    /// subtree root (inclusive).
    fn try_delete_subtree(&mut self, start: Lid, end: Lid) -> IoResult<()>;

    /// Number of live labels.
    fn len(&self) -> u64;

    /// Whether no labels are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits required per label right now (the paper's label-length metric).
    fn label_bits(&self) -> IoResult<u32>;

    /// The shared pager, for I/O accounting, space metrics and
    /// [`Health`](boxes_pager::Health).
    fn pager(&self) -> &SharedPager;
}

/// Schemes that can also produce ordinal labels (§3).
pub trait OrdinalScheme: LabelingScheme {
    /// The exact ordinal position of the tag in the document (0-based).
    fn ordinal_of(&self, lid: Lid) -> IoResult<u64>;

    /// Whether `lid` currently names a live label (audit support: lets the
    /// §6 replay check skip deleted anchors without panicking).
    fn is_live(&self, lid: Lid) -> IoResult<bool>;
}

// ---------------------------------------------------------------------------
// W-BOX
// ---------------------------------------------------------------------------

/// [`WBox`] behind the unified interface.
pub struct WBoxScheme {
    inner: WBox,
}

impl WBoxScheme {
    /// W-BOX with parameters derived from `block_size`, caching off.
    pub fn with_block_size(block_size: usize) -> Self {
        let pager = Pager::new(PagerConfig::with_block_size(block_size));
        Self::new(pager, WBoxConfig::from_block_size(block_size))
    }

    /// W-BOX on an existing pager with explicit parameters.
    ///
    /// # Panics
    /// Panics when the empty root cannot be written.
    #[expect(
        clippy::expect_used,
        reason = "the empty root is written at set-up, before any labeled data exists: a failed root write is fatal like Pager::new's failed file creation"
    )]
    pub fn new(pager: SharedPager, config: WBoxConfig) -> Self {
        WBoxScheme {
            inner: WBox::new(pager, config).expect("W-BOX root written at set-up"),
        }
    }

    /// Reattach to the on-disk image of a previously committed W-BOX:
    /// `state`/`lidf_state` are the `"wbox"`/`"lidf"` meta blobs recovered
    /// from the WAL (see `boxes_wal::recover`).
    pub fn reopen(pager: SharedPager, config: WBoxConfig, state: &[u8], lidf_state: &[u8]) -> Self {
        WBoxScheme {
            inner: WBox::reopen(pager, config, state, lidf_state),
        }
    }

    /// The underlying structure.
    pub fn inner(&self) -> &WBox {
        &self.inner
    }

    /// The underlying structure, mutably.
    pub fn inner_mut(&mut self) -> &mut WBox {
        &mut self.inner
    }

    /// Consume the wrapper.
    pub fn into_inner(self) -> WBox {
        self.inner
    }
}

impl LabelingScheme for WBoxScheme {
    type Label = u64;

    fn name(&self) -> String {
        let c = self.inner.config();
        match (c.pair, c.ordinal) {
            (true, _) => "W-BOX-O".into(),
            (false, true) => "W-BOX (ordinal)".into(),
            (false, false) => "W-BOX".into(),
        }
    }

    fn try_lookup(&self, lid: Lid) -> IoResult<u64> {
        self.inner.lookup(lid)
    }

    fn try_insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        self.inner.insert_before(lid)
    }

    fn try_insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        self.inner.insert_element_before(lid)
    }

    fn try_delete(&mut self, lid: Lid) -> IoResult<()> {
        self.inner.delete(lid)
    }

    fn try_bulk_load_document(&mut self, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        if self.inner.config().pair {
            self.inner.bulk_load_pairs(partner_of)
        } else {
            self.inner.bulk_load(partner_of.len())
        }
    }

    fn try_insert_subtree_before(&mut self, lid: Lid, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        if self.inner.config().pair {
            self.inner.insert_subtree_before_pairs(lid, partner_of)
        } else {
            self.inner.insert_subtree_before(lid, partner_of.len())
        }
    }

    fn try_delete_subtree(&mut self, start: Lid, end: Lid) -> IoResult<()> {
        self.inner.delete_subtree(start, end)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn label_bits(&self) -> IoResult<u32> {
        Ok(self.inner.label_bits())
    }

    fn pager(&self) -> &SharedPager {
        self.inner.pager()
    }
}

impl OrdinalScheme for WBoxScheme {
    fn ordinal_of(&self, lid: Lid) -> IoResult<u64> {
        self.inner.ordinal_of(lid)
    }

    fn is_live(&self, lid: Lid) -> IoResult<bool> {
        self.inner.is_live(lid)
    }
}

impl boxes_audit::Auditable for WBoxScheme {
    fn audit(&self) -> boxes_audit::AuditReport {
        boxes_audit::Auditable::audit(&self.inner)
    }
}

// ---------------------------------------------------------------------------
// B-BOX
// ---------------------------------------------------------------------------

/// [`BBox`] behind the unified interface.
pub struct BBoxScheme {
    inner: BBox,
}

impl BBoxScheme {
    /// B-BOX with parameters derived from `block_size`, caching off.
    pub fn with_block_size(block_size: usize) -> Self {
        let pager = Pager::new(PagerConfig::with_block_size(block_size));
        Self::new(pager, BBoxConfig::from_block_size(block_size))
    }

    /// B-BOX on an existing pager with explicit parameters.
    ///
    /// # Panics
    /// Panics when the empty root cannot be written.
    #[expect(
        clippy::expect_used,
        reason = "the empty root is written at set-up, before any labeled data exists: a failed root write is fatal like Pager::new's failed file creation"
    )]
    pub fn new(pager: SharedPager, config: BBoxConfig) -> Self {
        BBoxScheme {
            inner: BBox::new(pager, config).expect("B-BOX root written at set-up"),
        }
    }

    /// Reattach to the on-disk image of a previously committed B-BOX:
    /// `state`/`lidf_state` are the `"bbox"`/`"lidf"` meta blobs recovered
    /// from the WAL (see `boxes_wal::recover`).
    pub fn reopen(pager: SharedPager, config: BBoxConfig, state: &[u8], lidf_state: &[u8]) -> Self {
        BBoxScheme {
            inner: BBox::reopen(pager, config, state, lidf_state),
        }
    }

    /// The underlying structure.
    pub fn inner(&self) -> &BBox {
        &self.inner
    }

    /// The underlying structure, mutably.
    pub fn inner_mut(&mut self) -> &mut BBox {
        &mut self.inner
    }

    /// Consume the wrapper.
    pub fn into_inner(self) -> BBox {
        self.inner
    }
}

impl LabelingScheme for BBoxScheme {
    type Label = PathLabel;

    fn name(&self) -> String {
        if self.inner.config().ordinal {
            "B-BOX-O".into()
        } else {
            "B-BOX".into()
        }
    }

    fn try_lookup(&self, lid: Lid) -> IoResult<PathLabel> {
        self.inner.lookup(lid)
    }

    fn try_insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        self.inner.insert_before(lid)
    }

    fn try_insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        self.inner.insert_element_before(lid)
    }

    fn try_delete(&mut self, lid: Lid) -> IoResult<()> {
        self.inner.delete(lid)
    }

    fn try_bulk_load_document(&mut self, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        self.inner.bulk_load(partner_of.len())
    }

    fn try_insert_subtree_before(&mut self, lid: Lid, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        self.inner.insert_subtree_before(lid, partner_of.len())
    }

    fn try_delete_subtree(&mut self, start: Lid, end: Lid) -> IoResult<()> {
        self.inner.delete_subtree(start, end)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn label_bits(&self) -> IoResult<u32> {
        self.inner.label_bits()
    }

    fn pager(&self) -> &SharedPager {
        self.inner.pager()
    }
}

impl OrdinalScheme for BBoxScheme {
    fn ordinal_of(&self, lid: Lid) -> IoResult<u64> {
        self.inner.ordinal_of(lid)
    }

    fn is_live(&self, lid: Lid) -> IoResult<bool> {
        self.inner.is_live(lid)
    }
}

impl boxes_audit::Auditable for BBoxScheme {
    fn audit(&self) -> boxes_audit::AuditReport {
        boxes_audit::Auditable::audit(&self.inner)
    }
}

// ---------------------------------------------------------------------------
// naive-k
// ---------------------------------------------------------------------------

/// [`NaiveLabeling`] behind the unified interface.
pub struct NaiveScheme {
    inner: NaiveLabeling,
    extra_bits: u32,
}

impl NaiveScheme {
    /// naive-k with the given extra bits, caching off.
    pub fn with_block_size(block_size: usize, extra_bits: u32) -> Self {
        let pager = Pager::new(PagerConfig::with_block_size(block_size));
        Self::new(pager, NaiveConfig { extra_bits })
    }

    /// naive-k on an existing pager with explicit parameters.
    pub fn new(pager: SharedPager, config: NaiveConfig) -> Self {
        NaiveScheme {
            extra_bits: config.extra_bits,
            inner: NaiveLabeling::new(pager, config),
        }
    }

    /// Reattach to the on-disk image of a previously committed naive-k
    /// structure: `state` is the `"naive"` meta blob recovered from the WAL
    /// (see `boxes_wal::recover`).
    pub fn reopen(pager: SharedPager, config: NaiveConfig, state: &[u8]) -> IoResult<Self> {
        Ok(NaiveScheme {
            extra_bits: config.extra_bits,
            inner: NaiveLabeling::reopen(pager, config, state)?,
        })
    }

    /// The underlying structure.
    pub fn inner(&self) -> &NaiveLabeling {
        &self.inner
    }

    /// The underlying structure, mutably.
    pub fn inner_mut(&mut self) -> &mut NaiveLabeling {
        &mut self.inner
    }
}

impl LabelingScheme for NaiveScheme {
    type Label = BigLabel;

    fn name(&self) -> String {
        format!("naive-{}", self.extra_bits)
    }

    fn try_lookup(&self, lid: Lid) -> IoResult<BigLabel> {
        self.inner.lookup(lid)
    }

    fn try_insert_before(&mut self, lid: Lid) -> IoResult<Lid> {
        self.inner.insert_before(lid)
    }

    fn try_insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        self.inner.insert_element_before(lid)
    }

    fn try_delete(&mut self, lid: Lid) -> IoResult<()> {
        self.inner.delete(lid)
    }

    fn try_bulk_load_document(&mut self, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        self.inner.bulk_load(partner_of.len())
    }

    fn try_insert_subtree_before(&mut self, lid: Lid, partner_of: &[usize]) -> IoResult<Vec<Lid>> {
        self.inner.insert_subtree_before(lid, partner_of.len())
    }

    fn try_delete_subtree(&mut self, start: Lid, end: Lid) -> IoResult<()> {
        self.inner.delete_subtree(start, end)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn label_bits(&self) -> IoResult<u32> {
        Ok(self.inner.label_bits())
    }

    fn pager(&self) -> &SharedPager {
        self.inner.pager()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: LabelingScheme>(mut s: S) {
        // A 3-element document: <a><b/><c/></a> → 6 tags, pairs (0,5),
        // (1,2), (3,4).
        let lids = s.bulk_load_document(&[5, 2, 1, 4, 3, 0]);
        assert_eq!(s.len(), 6);
        // New element before <c>'s start tag.
        let (ns, ne) = s.try_insert_element_before(lids[3]).unwrap();
        assert!(s.try_lookup(lids[2]).unwrap() < s.try_lookup(ns).unwrap());
        assert!(s.try_lookup(ns).unwrap() < s.try_lookup(ne).unwrap());
        assert!(s.try_lookup(ne).unwrap() < s.try_lookup(lids[3]).unwrap());
        s.try_delete(ns).unwrap();
        s.try_delete(ne).unwrap();
        assert_eq!(s.len(), 6);
        assert!(s.label_bits().unwrap() > 0);
        assert!(!s.name().is_empty());
    }

    #[test]
    fn all_schemes_satisfy_the_interface() {
        exercise(WBoxScheme::with_block_size(1024));
        exercise(BBoxScheme::with_block_size(256));
        exercise(NaiveScheme::with_block_size(256, 8));
        let pager = Pager::new(PagerConfig::with_block_size(1024));
        exercise(WBoxScheme::new(
            pager,
            WBoxConfig::from_block_size_paired(1024),
        ));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(WBoxScheme::with_block_size(1024).name(), "W-BOX");
        assert_eq!(BBoxScheme::with_block_size(256).name(), "B-BOX");
        assert_eq!(NaiveScheme::with_block_size(256, 16).name(), "naive-16");
        let pager = Pager::new(PagerConfig::with_block_size(256));
        let bo = BBoxScheme::new(pager, BBoxConfig::from_block_size(256).with_ordinal());
        assert_eq!(bo.name(), "B-BOX-O");
    }

    #[test]
    fn degraded_schemes_answer_lookups_and_reject_mutations() {
        use boxes_pager::{FaultPlan, FaultPlanConfig};
        use boxes_wal::{Wal, WalConfig};

        fn drill<S: LabelingScheme>(mut s: S, plan: std::sync::Arc<FaultPlan>) {
            let name = s.name();
            let lids = s.bulk_load_document(&[5, 2, 1, 4, 3, 0]);
            // The disk's write path dies. The next mutation commits to the
            // WAL but cannot apply: the pager parks the frames and degrades
            // instead of corrupting or panicking.
            plan.fail_all_writes_after(0);
            let first = s.try_insert_before(lids[3]);
            assert!(
                first.is_ok(),
                "{name}: the degrading op itself is committed (WAL + overlay)"
            );
            assert!(
                !s.pager().health().is_ok(),
                "{name}: degraded after write death"
            );
            // Lookups keep answering, and document order is intact.
            let labels: Vec<S::Label> = lids
                .iter()
                .map(|&lid| s.try_lookup(lid).expect("lookups survive degradation"))
                .collect();
            assert!(
                labels.windows(2).all(|w| w[0] < w[1]),
                "{name}: document order preserved while degraded"
            );
            let inserted = first.expect("checked above");
            let new_label = s.try_lookup(inserted).expect("new label readable");
            assert!(labels[2] < new_label && new_label < labels[3]);
            // Every mutation entry point fails fast with the typed error.
            assert!(matches!(
                s.try_insert_before(lids[0]),
                Err(boxes_pager::PagerError::Degraded(_))
            ));
            assert!(matches!(
                s.try_insert_element_before(lids[0]),
                Err(boxes_pager::PagerError::Degraded(_))
            ));
            assert!(matches!(
                s.try_delete(inserted),
                Err(boxes_pager::PagerError::Degraded(_))
            ));
            assert!(matches!(
                s.try_insert_subtree_before(lids[0], &[1, 0]),
                Err(boxes_pager::PagerError::Degraded(_))
            ));
            assert!(matches!(
                s.try_delete_subtree(lids[1], lids[2]),
                Err(boxes_pager::PagerError::Degraded(_))
            ));
            assert_eq!(s.len(), 7, "{name}: committed op counted, rejects not");
            // Disk replaced: resume drains the parked frames and service
            // returns.
            plan.heal();
            s.pager().try_resume().expect("resume after heal");
            assert!(s.pager().health().is_ok(), "{name}: healthy after resume");
            let again = s.try_insert_before(lids[3]).expect("mutations resume");
            assert!(s.try_lookup(inserted).unwrap() < s.try_lookup(again).unwrap());
            assert!(s.try_lookup(again).unwrap() < s.try_lookup(lids[3]).unwrap());
        }

        fn env(block_size: usize) -> (SharedPager, std::sync::Arc<FaultPlan>) {
            let pager = Pager::new(PagerConfig::with_block_size(block_size));
            pager.attach_journal(Wal::new(block_size, WalConfig::default()));
            let plan = FaultPlan::new(FaultPlanConfig::quiet(3, block_size));
            pager.attach_fault_injector(plan.clone());
            (pager, plan)
        }

        let (pager, plan) = env(1024);
        drill(
            WBoxScheme::new(pager, WBoxConfig::from_block_size(1024)),
            plan,
        );
        let (pager, plan) = env(1024);
        drill(
            WBoxScheme::new(pager, WBoxConfig::from_block_size_paired(1024)),
            plan,
        );
        let (pager, plan) = env(512);
        drill(
            BBoxScheme::new(pager, BBoxConfig::from_block_size(512)),
            plan,
        );
        let (pager, plan) = env(512);
        drill(NaiveScheme::new(pager, NaiveConfig { extra_bits: 8 }), plan);
    }

    #[test]
    fn ordinal_schemes_expose_positions() {
        let pager = Pager::new(PagerConfig::with_block_size(1024));
        let mut w = WBoxScheme::new(pager, WBoxConfig::from_block_size(1024).with_ordinal());
        let lids = w.bulk_load_document(&(0..100).map(|i| i ^ 1).collect::<Vec<_>>());
        for (i, &lid) in lids.iter().enumerate().step_by(13) {
            assert_eq!(w.ordinal_of(lid).unwrap(), i as u64);
        }
    }
}
