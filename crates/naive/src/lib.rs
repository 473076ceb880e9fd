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
//! The naive-k gap-relabeling baseline (§1, §2, §7 of the paper).
//!
//! Labels live directly in the label file: each record stores the label
//! value and the gap to the previous label. An insertion splits the
//! predecessor gap; when the gap is exhausted (length 1) *everything* is
//! relabeled to equally spaced values with gap 2^k, where `k` is the
//! scheme's extra-bits parameter. An adversary inserting repeatedly into
//! the smallest gap forces a full relabel every k+1 insertions — the
//! failure mode the BOXes fix.
//!
//! Records are sized for ⌈log N⌉ + k bit labels (stored as [`BigLabel`]s of
//! up to 320 bits — k = 256 labels simply do not fit machine words, the
//! paper's "Other findings" point), so large k also means fewer records per
//! block and costlier relabels.
//!
//! Per §7 we grant naive-k the paper's "unfair advantage": sorting for
//! relabeling is free (an in-memory label→LID mirror), so a global relabel
//! costs exactly one sequential read plus one sequential write of the
//! file, O(N/B) I/Os.
//!
//! # Example
//!
//! ```
//! use boxes_naive::{NaiveConfig, NaiveLabeling};
//! use boxes_pager::{Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig::with_block_size(512));
//! let mut naive = NaiveLabeling::new(pager, NaiveConfig { extra_bits: 4 });
//! let lids = naive.bulk_load(4)?;
//! let mid = naive.insert_before(lids[2])?;
//! assert!(naive.lookup(lids[1])? < naive.lookup(mid)?);
//! assert!(naive.lookup(mid)? < naive.lookup(lids[2])?);
//! # Ok::<(), boxes_pager::PagerError>(())
//! ```

mod biglabel;

pub use biglabel::BigLabel;

use boxes_lidf::Lid;
use boxes_pager::codec::{u32_to_usize, u64_to_index, usize_to_u64};
use boxes_pager::{BlockId, IoResult, SharedPager};
use boxes_trace::OpSpan;
use std::collections::BTreeMap;

/// Configuration of the naive scheme.
#[derive(Clone, Copy, Debug)]
pub struct NaiveConfig {
    /// k: extra bits of gap per label. Fresh labels are spaced 2^k apart.
    pub extra_bits: u32,
}

impl NaiveConfig {
    fn gap(&self) -> BigLabel {
        BigLabel::pow2(self.extra_bits)
    }

    /// Bytes per stored label: room for ⌈log N⌉ + k bits (40 + k budget).
    fn label_bytes(&self) -> usize {
        u32_to_usize(40 + self.extra_bits).div_ceil(8)
    }
}

/// Serialized size of a [`BigLabel`] in the `"naive"` state blob (320 bits).
const MAX_LABEL_BYTES: usize = 40;

/// The naive-k dynamic labeling scheme over its own heap file of
/// (label, gap) records.
pub struct NaiveLabeling {
    pager: SharedPager,
    config: NaiveConfig,
    blocks: Vec<BlockId>,
    /// Total slots ever created.
    slots: u64,
    /// In-memory free-slot list (bookkeeping, like the sort mirror).
    free: Vec<u64>,
    recs_per_block: usize,
    rec_bytes: usize,
    /// In-memory sorted mirror (label → LID). Models the paper's assumption
    /// that naive-k sorts in memory for free; never charged I/Os.
    mirror: BTreeMap<BigLabel, Lid>,
    relabel_count: u64,
    max_label_seen: BigLabel,
}

impl NaiveLabeling {
    /// Empty scheme on the shared pager.
    pub fn new(pager: SharedPager, config: NaiveConfig) -> Self {
        assert!(
            config.extra_bits >= 1,
            "naive-0 has no gaps at all: every insert would relabel \
             forever (k must be ≥ 1)"
        );
        assert!(
            config.extra_bits <= 272,
            "gap parameter beyond BigLabel capacity"
        );
        let rec_bytes = 2 * config.label_bytes();
        let recs_per_block = pager.block_size() / rec_bytes;
        assert!(
            recs_per_block >= 1,
            "block too small for naive-{} records ({rec_bytes} bytes each)",
            config.extra_bits
        );
        Self {
            pager,
            config,
            blocks: Vec::new(),
            slots: 0,
            free: Vec::new(),
            recs_per_block,
            rec_bytes,
            mirror: BTreeMap::new(),
            relabel_count: 0,
            max_label_seen: BigLabel::ZERO,
        }
    }

    /// Records per block for this k and block size.
    pub fn recs_per_block(&self) -> usize {
        self.recs_per_block
    }

    /// Reconstruct the scheme from its `"naive"` state blob over a recovered
    /// pager. `config` must match the build-time configuration (record size
    /// depends on k). The sorted label mirror is not serialized — it is
    /// rebuilt here by one sequential scan of the live records, the same
    /// free in-memory sort the paper already grants naive-k.
    pub fn reopen(pager: SharedPager, config: NaiveConfig, state: &[u8]) -> IoResult<Self> {
        let mut this = Self::new(pager, config);
        let mut r = boxes_pager::Reader::new(state);
        this.slots = r.u64();
        this.relabel_count = r.u64();
        let n_free = boxes_pager::codec::u32_to_usize(r.u32());
        this.free = (0..n_free).map(|_| r.u64()).collect();
        let n_blocks = boxes_pager::codec::u32_to_usize(r.u32());
        this.blocks = (0..n_blocks).map(|_| BlockId(r.u32())).collect();
        this.max_label_seen = BigLabel::read_bytes(r.bytes(MAX_LABEL_BYTES));
        let dead: std::collections::BTreeSet<u64> = this.free.iter().copied().collect();
        for slot in 0..this.slots {
            if !dead.contains(&slot) {
                let lid = Lid(slot);
                let (label, _) = this.read_record(lid)?;
                this.mirror.insert(label, lid);
            }
        }
        Ok(this)
    }

    /// Serialize the in-memory header (slot allocator, free list, counters)
    /// — everything [`NaiveLabeling::reopen`] needs beyond the label file
    /// itself. The mirror is derived state and deliberately excluded.
    #[expect(
        clippy::expect_used,
        reason = "the pager caps allocation far below 2^32 blocks, so the free list and the directory fit their u32 count fields"
    )]
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = boxes_pager::VecWriter::new();
        w.u64(self.slots);
        w.u64(self.relabel_count);
        w.u32(boxes_pager::codec::usize_to_u32(self.free.len()).expect("free list fits u32"));
        for &slot in &self.free {
            w.u64(slot);
        }
        w.u32(boxes_pager::codec::usize_to_u32(self.blocks.len()).expect("directory fits u32"));
        for b in &self.blocks {
            w.u32(b.0);
        }
        let mut label = [0u8; MAX_LABEL_BYTES];
        self.max_label_seen.write_bytes(&mut label);
        w.bytes(&label);
        w.into_bytes()
    }

    /// Run `f` as one journaled operation: all blocks it dirties (up to a
    /// whole global relabel) commit as a single atomic WAL record carrying
    /// the refreshed `"naive"` state blob.
    /// Trace scheme tag for spans opened by this scheme's primitives.
    /// Span labels are `&'static str`, so the common k values get their
    /// own tag and everything else shares a generic one.
    fn trace_tag(&self) -> &'static str {
        match self.config.extra_bits {
            1 => "naive-1",
            2 => "naive-2",
            4 => "naive-4",
            8 => "naive-8",
            16 => "naive-16",
            32 => "naive-32",
            64 => "naive-64",
            _ => "naive-k",
        }
    }

    fn journaled<T>(&mut self, f: impl FnOnce(&mut Self) -> IoResult<T>) -> IoResult<T> {
        let txn = self.pager.txn()?;
        let out = f(self)?;
        let state = self.save_state();
        self.pager.txn_meta("naive", || state);
        txn.commit();
        Ok(out)
    }

    fn locate(&self, lid: Lid) -> (BlockId, usize) {
        assert!(lid.0 < self.slots, "LID out of range: {lid:?}");
        let rpb = usize_to_u64(self.recs_per_block);
        let block = self.blocks[u64_to_index(lid.0 / rpb)];
        let offset = u64_to_index(lid.0 % rpb) * self.rec_bytes;
        (block, offset)
    }

    fn read_record(&self, lid: Lid) -> IoResult<(BigLabel, BigLabel)> {
        let (block, offset) = self.locate(lid);
        let buf = self.pager.read(block)?;
        Ok(self.decode_at(&buf, offset))
    }

    fn decode_at(&self, buf: &[u8], offset: usize) -> (BigLabel, BigLabel) {
        let lb = self.config.label_bytes();
        (
            BigLabel::read_bytes(&buf[offset..offset + lb]),
            BigLabel::read_bytes(&buf[offset + lb..offset + 2 * lb]),
        )
    }

    fn encode_at(&self, buf: &mut [u8], offset: usize, label: BigLabel, gap: BigLabel) {
        let lb = self.config.label_bytes();
        label.write_bytes(&mut buf[offset..offset + lb]);
        gap.write_bytes(&mut buf[offset + lb..offset + 2 * lb]);
    }

    fn write_record(&mut self, lid: Lid, label: BigLabel, gap: BigLabel) -> IoResult<()> {
        let (block, offset) = self.locate(lid);
        let mut buf = self.pager.read(block)?;
        self.encode_at(&mut buf, offset, label, gap);
        self.pager.write(block, &buf)
    }

    fn alloc_slot(&mut self) -> IoResult<Lid> {
        if let Some(slot) = self.free.pop() {
            return Ok(Lid(slot));
        }
        let lid = Lid(self.slots);
        if (self.slots).is_multiple_of(usize_to_u64(self.recs_per_block)) {
            self.blocks.push(self.pager.alloc()?);
        }
        self.slots += 1;
        Ok(lid)
    }

    fn note_max(&mut self, label: BigLabel) {
        if label > self.max_label_seen {
            self.max_label_seen = label;
        }
    }

    /// Bulk load `count` tags in document order, equally spaced 2^k apart.
    /// O(N/B) I/Os. Returns the LIDs in document order.
    pub fn bulk_load(&mut self, count: usize) -> IoResult<Vec<Lid>> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "bulk_load");
        self.journaled(|t| t.bulk_load_impl(count))
    }

    #[expect(
        clippy::expect_used,
        reason = "blocks is non-empty after setup: relabel_all always allocates at least one block"
    )]
    fn bulk_load_impl(&mut self, count: usize) -> IoResult<Vec<Lid>> {
        assert!(self.is_empty(), "bulk_load on a non-empty scheme");
        let gap = self.config.gap();
        let mut lids = Vec::with_capacity(count);
        let mut label = BigLabel::ZERO;
        let mut i = 0usize;
        while i < count {
            let block = {
                let lid = Lid(self.slots);
                if lid.0.is_multiple_of(usize_to_u64(self.recs_per_block)) {
                    self.blocks.push(self.pager.alloc()?);
                }
                *self.blocks.last().expect("block exists")
            };
            let mut buf = self.pager.read(block)?;
            let mut slot = u64_to_index(self.slots % usize_to_u64(self.recs_per_block));
            while slot < self.recs_per_block && i < count {
                label = label.add(gap);
                self.encode_at(&mut buf, slot * self.rec_bytes, label, gap);
                let lid = Lid(self.slots);
                self.mirror.insert(label, lid);
                lids.push(lid);
                self.slots += 1;
                slot += 1;
                i += 1;
            }
            self.pager.write(block, &buf)?;
        }
        self.note_max(label);
        Ok(lids)
    }

    /// Current label of `lid`. One I/O.
    pub fn lookup(&self, lid: Lid) -> IoResult<BigLabel> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "lookup");
        Ok(self.read_record(lid)?.0)
    }

    /// Insert a new label immediately before the label of `lid_old`.
    /// Returns the new LID. Splits the predecessor gap; triggers a global
    /// relabel when the gap is exhausted.
    pub fn insert_before(&mut self, lid_old: Lid) -> IoResult<Lid> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "insert");
        self.journaled(|t| t.insert_before_impl(lid_old))
    }

    fn insert_before_impl(&mut self, lid_old: Lid) -> IoResult<Lid> {
        let (old_label, old_gap) = self.read_record(lid_old)?;
        if old_gap.is_one() || old_gap.is_zero() {
            self.relabel()?;
            return self.insert_before_impl(lid_old);
        }
        let left = old_gap.half();
        let new_label = old_label.sub(left);
        let new_gap = old_gap.sub(left);
        let new_lid = self.alloc_slot()?;
        self.write_record(new_lid, new_label, new_gap)?;
        self.write_record(lid_old, old_label, left)?;
        self.mirror.insert(new_label, new_lid);
        Ok(new_lid)
    }

    /// Insert a new element (two labels) before the tag labeled `lid`:
    /// end label first, then start label before it (§3).
    pub fn insert_element_before(&mut self, lid: Lid) -> IoResult<(Lid, Lid)> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "insert_element");
        self.journaled(|t| {
            let end = t.insert_before_impl(lid)?;
            let start = t.insert_before_impl(end)?;
            Ok((start, end))
        })
    }

    /// Remove the label identified by `lid`, reclaiming its record. The
    /// successor absorbs the freed gap.
    pub fn delete(&mut self, lid: Lid) -> IoResult<()> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "delete");
        self.journaled(|t| t.delete_impl(lid))
    }

    fn delete_impl(&mut self, lid: Lid) -> IoResult<()> {
        let (label, gap) = self.read_record(lid)?;
        self.mirror.remove(&label);
        if let Some((&succ_label, &succ_lid)) = self.mirror.range(label..).next() {
            let (sl, sg) = self.read_record(succ_lid)?;
            debug_assert_eq!(sl, succ_label);
            self.write_record(succ_lid, sl, sg.add(gap))?;
        }
        self.free.push(lid.0);
        Ok(())
    }

    /// Insert a subtree of `n_tags` labels before the tag labeled `lid`.
    /// The paper defines no bulk path for naive; this loops
    /// `insert_before` (used only for completeness in E7).
    pub fn insert_subtree_before(&mut self, lid: Lid, n_tags: usize) -> IoResult<Vec<Lid>> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "subtree_insert");
        self.journaled(|t| {
            let mut out = Vec::with_capacity(n_tags);
            let mut anchor = lid;
            for _ in 0..n_tags {
                anchor = t.insert_before_impl(anchor)?;
                out.push(anchor);
            }
            out.reverse();
            Ok(out)
        })
    }

    /// Delete every label in the inclusive label range of `start`..`end`.
    /// One random I/O per record freed (the paper's O(N′) remark).
    pub fn delete_subtree(&mut self, start: Lid, end: Lid) -> IoResult<()> {
        let _span = OpSpan::op(self.pager.trace(), self.trace_tag(), "subtree_delete");
        self.journaled(|t| {
            let lo = t.lookup(start)?;
            let hi = t.lookup(end)?;
            assert!(lo < hi, "subtree endpoints out of order");
            let doomed: Vec<Lid> = t.mirror.range(lo..=hi).map(|(_, &l)| l).collect();
            for lid in doomed {
                t.delete_impl(lid)?;
            }
            Ok(())
        })
    }

    /// Global relabel: every live record gets a fresh, equally spaced label
    /// with gap 2^k. One sequential read + write of the file (O(N/B));
    /// the sort is free via the in-memory mirror.
    fn relabel(&mut self) -> IoResult<()> {
        let _phase = OpSpan::phase(self.pager.trace(), "relabel");
        self.relabel_count += 1;
        let gap = self.config.gap();
        // One pass over the (sorted) mirror yields every live slot's rank;
        // sorting by slot turns the rewrite into a sequential block sweep.
        let mut by_slot: Vec<(u64, u64)> = self
            .mirror
            .values()
            .enumerate()
            .map(|(rank, &lid)| (lid.0, usize_to_u64(rank)))
            .collect();
        by_slot.sort_unstable();
        let rpb = usize_to_u64(self.recs_per_block);
        let mut i = 0usize;
        while i < by_slot.len() {
            let bi = u64_to_index(by_slot[i].0 / rpb);
            let block = self.blocks[bi];
            let mut buf = self.pager.read(block)?;
            while i < by_slot.len() && u64_to_index(by_slot[i].0 / rpb) == bi {
                let (slot, rank) = by_slot[i];
                let label = gap.mul_u64(rank + 1);
                self.encode_at(
                    &mut buf,
                    u64_to_index(slot % rpb) * self.rec_bytes,
                    label,
                    gap,
                );
                i += 1;
            }
            self.pager.write(block, &buf)?;
        }
        let n = usize_to_u64(self.mirror.len());
        // Keys are reassigned in place; order is unchanged, so the rebuild
        // collects from an already-sorted iterator (bulk build).
        self.mirror = self
            .mirror
            .values()
            .enumerate()
            .map(|(i, &lid)| (gap.mul_u64(usize_to_u64(i) + 1), lid))
            .collect();
        self.note_max(gap.mul_u64(n));
        Ok(())
    }

    /// How many global relabels have occurred.
    pub fn relabel_count(&self) -> u64 {
        self.relabel_count
    }

    /// Number of live labels.
    pub fn len(&self) -> u64 {
        usize_to_u64(self.mirror.len())
    }

    /// Whether the scheme holds no labels.
    pub fn is_empty(&self) -> bool {
        self.mirror.is_empty()
    }

    /// Bits needed for the largest label value ever assigned — the paper's
    /// label-length metric (naive-k labels need ⌈log N⌉ + k bits).
    pub fn label_bits(&self) -> u32 {
        self.max_label_seen.bits()
    }

    /// Blocks used by the label file.
    pub fn blocks_used(&self) -> usize {
        self.blocks.len()
    }

    /// Shared pager handle, for I/O accounting.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// All live labels in document order — test/validation support, not an
    /// I/O-accounted operation.
    pub fn snapshot_order(&self) -> Vec<(BigLabel, Lid)> {
        self.mirror.iter().map(|(&l, &lid)| (l, lid)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_pager::{Pager, PagerConfig};

    fn scheme(k: u32) -> NaiveLabeling {
        NaiveLabeling::new(
            Pager::new(PagerConfig::with_block_size(512)),
            NaiveConfig { extra_bits: k },
        )
    }

    fn lbl(v: u64) -> BigLabel {
        BigLabel::from_u64(v)
    }

    #[test]
    fn bulk_load_spaces_labels_equally() {
        let mut s = scheme(3);
        let lids = s.bulk_load(5).unwrap();
        let labels: Vec<BigLabel> = lids.iter().map(|&l| s.lookup(l).unwrap()).collect();
        assert_eq!(labels, vec![lbl(8), lbl(16), lbl(24), lbl(32), lbl(40)]);
        assert_eq!(s.label_bits(), 6);
    }

    #[test]
    fn insert_splits_the_gap() {
        let mut s = scheme(4); // gap 16
        let lids = s.bulk_load(3).unwrap(); // 16, 32, 48
        let mid = s.insert_before(lids[1]).unwrap();
        assert_eq!(s.lookup(mid).unwrap(), lbl(24));
        assert_eq!(s.lookup(lids[1]).unwrap(), lbl(32));
        let mid2 = s.insert_before(lids[1]).unwrap();
        assert_eq!(s.lookup(mid2).unwrap(), lbl(28));
    }

    #[test]
    fn adversary_forces_relabel_after_k_plus_one_inserts() {
        let mut s = scheme(3); // gap 8 → 3+1 inserts break it
        let lids = s.bulk_load(2).unwrap();
        for _ in 0..3 {
            s.insert_before(lids[1]).unwrap();
        }
        assert_eq!(s.relabel_count(), 0);
        s.insert_before(lids[1]).unwrap();
        assert_eq!(s.relabel_count(), 1, "k+1st insert into the gap relabels");
    }

    #[test]
    fn huge_k_values_work() {
        // k = 256: labels beyond any machine word, as in the paper.
        let mut s = scheme(256);
        let lids = s.bulk_load(10).unwrap();
        assert!(s.label_bits() > 256);
        let mid = s.insert_before(lids[5]).unwrap();
        assert!(s.lookup(lids[4]).unwrap() < s.lookup(mid).unwrap());
        assert!(s.lookup(mid).unwrap() < s.lookup(lids[5]).unwrap());
        // Larger records: fewer per block.
        assert!(s.recs_per_block() < scheme(1).recs_per_block());
        // The first insert already halved the 2^256 gap once, so 255 more
        // inserts reach gap 1; the 257th insert overall triggers a relabel.
        for _ in 0..255 {
            s.insert_before(lids[5]).unwrap();
        }
        assert_eq!(s.relabel_count(), 0);
        s.insert_before(lids[5]).unwrap();
        assert_eq!(s.relabel_count(), 1);
    }

    #[test]
    fn relabel_preserves_order() {
        let mut s = scheme(1);
        let lids = s.bulk_load(4).unwrap();
        let mut inserted = vec![];
        for _ in 0..20 {
            inserted.push(s.insert_before(lids[2]).unwrap());
        }
        assert!(s.relabel_count() > 0);
        let mut expect = vec![lids[0], lids[1]];
        expect.extend(&inserted);
        expect.push(lids[2]);
        expect.push(lids[3]);
        let labels: Vec<BigLabel> = expect.iter().map(|&l| s.lookup(l).unwrap()).collect();
        for w in labels.windows(2) {
            assert!(w[0] < w[1], "order violated");
        }
    }

    #[test]
    fn relabel_cost_is_two_sequential_passes() {
        let mut s = scheme(1);
        let lids = s.bulk_load(1000).unwrap();
        let pager = s.pager().clone();
        s.insert_before(lids[500]).unwrap();
        let before = pager.stats();
        s.insert_before(lids[500]).unwrap();
        let cost = pager.stats().since(&before);
        assert_eq!(s.relabel_count(), 1);
        let blocks = s.blocks_used() as u64;
        assert!(
            cost.total() >= 2 * blocks,
            "relabel must rewrite the whole file: {cost:?} vs {blocks} blocks"
        );
        assert!(
            cost.total() <= 2 * blocks + 8,
            "relabel should cost ~2 passes: {cost:?}"
        );
    }

    #[test]
    fn element_insert_allocates_ordered_pair() {
        let mut s = scheme(6);
        let lids = s.bulk_load(2).unwrap();
        let (start, end) = s.insert_element_before(lids[1]).unwrap();
        let ls = s.lookup(start).unwrap();
        let le = s.lookup(end).unwrap();
        assert!(s.lookup(lids[0]).unwrap() < ls);
        assert!(ls < le);
        assert!(le < s.lookup(lids[1]).unwrap());
    }

    #[test]
    fn delete_gives_gap_to_successor() {
        let mut s = scheme(4);
        let lids = s.bulk_load(3).unwrap();
        s.delete(lids[1]).unwrap();
        assert_eq!(s.len(), 2);
        for _ in 0..4 {
            s.insert_before(lids[2]).unwrap();
        }
        assert_eq!(s.relabel_count(), 0);
    }

    #[test]
    fn delete_last_label_needs_no_successor() {
        let mut s = scheme(4);
        let lids = s.bulk_load(2).unwrap();
        s.delete(lids[1]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(lids[0]).unwrap(), lbl(16));
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut s = scheme(4);
        let lids = s.bulk_load(3).unwrap();
        s.delete(lids[1]).unwrap();
        let n = s.insert_before(lids[2]).unwrap();
        assert_eq!(n, lids[1], "slot recycled");
    }

    #[test]
    fn subtree_insert_keeps_order() {
        let mut s = scheme(8);
        let lids = s.bulk_load(4).unwrap();
        let sub = s.insert_subtree_before(lids[2], 6).unwrap();
        assert_eq!(sub.len(), 6);
        let mut order = vec![lids[0], lids[1]];
        order.extend(&sub);
        order.push(lids[2]);
        order.push(lids[3]);
        let labels: Vec<BigLabel> = order.iter().map(|&l| s.lookup(l).unwrap()).collect();
        for w in labels.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn subtree_delete_frees_exactly_the_range() {
        let mut s = scheme(8);
        let lids = s.bulk_load(6).unwrap();
        s.delete_subtree(lids[1], lids[4]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.lookup(lids[0]).unwrap() < s.lookup(lids[5]).unwrap());
    }

    #[test]
    fn label_bits_grow_with_k() {
        for k in [1u32, 4, 16, 64] {
            let mut s = scheme(k);
            s.bulk_load(1000).unwrap(); // max label = 1000·2^k < 2^(10+k)
            assert_eq!(s.label_bits(), 10 + k, "⌈log N⌉ + k bits");
        }
    }

    #[test]
    fn lookup_costs_one_io() {
        let mut s = scheme(4);
        let lids = s.bulk_load(100).unwrap();
        let pager = s.pager().clone();
        let before = pager.stats();
        s.lookup(lids[42]).unwrap();
        assert_eq!(pager.stats().since(&before).total(), 1);
    }
}
