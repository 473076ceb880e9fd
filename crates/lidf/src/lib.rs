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
//! The Immutable Label ID File (LIDF) — §3 of the paper.
//!
//! Dynamic labeling schemes move label values around, but references to
//! labels (in indexes, as element ids) must stay valid. The LIDF provides the
//! level of indirection: a heap file of fixed-size records whose record
//! numbers — [`Lid`]s — are immutable. Each record stores whatever the
//! labeling scheme needs to find the current label:
//!
//! * W-BOX / B-BOX store a pointer to the index leaf holding the BOX record
//!   ([`BlockPtrRecord`]),
//! * naive-k stores the label value and gap directly (`boxes-naive` defines
//!   its own record type).
//!
//! When an element is deleted its records are reclaimed through a free list
//! so the file stays compact, as the paper assumes. Start/end records of an
//! element are allocated adjacently when possible so one I/O retrieves both
//! (the "obvious optimization" of §3).
//!
//! # Example
//!
//! ```
//! use boxes_lidf::{BlockPtrRecord, Lidf};
//! use boxes_pager::{BlockId, Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig::with_block_size(256));
//! let mut lidf = Lidf::<BlockPtrRecord>::new(pager);
//! let (start, end) = lidf.alloc_pair(
//!     BlockPtrRecord::new(BlockId(7)),
//!     BlockPtrRecord::new(BlockId(7)),
//! );
//! assert_eq!(lidf.read(start).block, BlockId(7));
//! let (s, e) = lidf.read_pair(start, end); // one I/O when adjacent
//! assert_eq!(s.block, e.block);
//! ```

use boxes_pager::codec::{u32_to_usize, u64_to_index, usize_to_u32, usize_to_u64};
use boxes_pager::{BlockId, Health, PagerError, Reader, SharedPager, VecWriter, Writer};

/// An immutable label ID: the record number of a LIDF record. Never changes
/// for the lifetime of the label, so it can be duplicated freely in other
/// indexes or used as an element identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lid(pub u64);

impl Lid {
    /// Sentinel meaning "no label".
    pub const INVALID: Lid = Lid(u64::MAX);
}

impl std::fmt::Debug for Lid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Lid::INVALID {
            write!(f, "Lid(∅)")
        } else {
            write!(f, "Lid({})", self.0)
        }
    }
}

/// A fixed-size LIDF record payload.
///
/// `SIZE` is the encoded size in bytes; `encode`/`decode` must consume
/// exactly that many bytes. One extra liveness byte per slot is managed by
/// [`Lidf`] itself.
pub trait Record: Clone {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Serialize into the writer (exactly `SIZE` bytes).
    fn encode(&self, w: &mut Writer<'_>);
    /// Deserialize from the reader (exactly `SIZE` bytes).
    fn decode(r: &mut Reader<'_>) -> Self;
}

/// LIDF record used by both BOXes: a pointer to the index block that
/// currently holds the corresponding BOX record (Figure 2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPtrRecord {
    /// Block containing the BOX record for this label.
    pub block: BlockId,
}

impl BlockPtrRecord {
    /// Record pointing at `block`.
    pub fn new(block: BlockId) -> Self {
        Self { block }
    }
}

impl Record for BlockPtrRecord {
    // Padded to 8 bytes: freed slots store an 8-byte free-chain pointer in
    // the record payload, so payloads must be at least that large.
    const SIZE: usize = 8;
    fn encode(&self, w: &mut Writer<'_>) {
        w.u32(self.block.0);
        w.u32(0);
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        let block = BlockId(r.u32());
        r.skip(4);
        Self { block }
    }
}

const TAG_FREE: u8 = 0;
const TAG_LIVE: u8 = 1;
/// Sentinel terminating the on-disk free chain.
const FREE_END: u64 = u64::MAX;

/// The immutable label ID file: a heap file of fixed-size records over the
/// shared pager, with free-list reclamation.
///
/// The logical-record-number → block directory is kept in memory: the paper
/// treats LIDs as "record numbers (or physical disk locations)", i.e.
/// translating a LID to a block address is free; only the record access
/// itself costs an I/O.
pub struct Lidf<R: Record> {
    pager: SharedPager,
    blocks: Vec<BlockId>,
    /// Total record slots ever created (live + free).
    slots: u64,
    /// Number of live records.
    live: u64,
    /// Head of the free chain (slot index), or `FREE_END`.
    free_head: u64,
    recs_per_block: usize,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> Lidf<R> {
    /// Byte size of one record slot (payload + liveness tag).
    pub const SLOT_SIZE: usize = R::SIZE + 1;

    /// Create an empty LIDF on the shared pager.
    pub fn new(pager: SharedPager) -> Self {
        assert!(
            R::SIZE >= 8,
            "LIDF record payloads must be at least 8 bytes: freed slots \
             store an 8-byte free-chain pointer in the payload"
        );
        let recs_per_block = pager.block_size() / Self::SLOT_SIZE;
        assert!(recs_per_block >= 2, "block size too small for LIDF records");
        Self {
            pager,
            blocks: Vec::new(),
            slots: 0,
            live: 0,
            free_head: FREE_END,
            recs_per_block,
            _marker: std::marker::PhantomData,
        }
    }

    /// Reconstruct a LIDF from a [`Lidf::save_state`] blob over an existing
    /// pager (typically one rebuilt by WAL recovery). The record type `R`
    /// must match the one the state was saved with; block contents are
    /// trusted as recovered.
    pub fn reopen(pager: SharedPager, state: &[u8]) -> Self {
        let mut this = Self::new(pager);
        let mut r = Reader::new(state);
        this.slots = r.u64();
        this.live = r.u64();
        this.free_head = r.u64();
        let n_blocks = u32_to_usize(r.u32());
        this.blocks = (0..n_blocks).map(|_| BlockId(r.u32())).collect();
        let rpb = usize_to_u64(this.recs_per_block);
        assert!(
            this.slots <= usize_to_u64(n_blocks) * rpb
                && this.slots + rpb > usize_to_u64(n_blocks) * rpb,
            "LIDF state blob inconsistent: {} slots do not fill {} blocks",
            this.slots,
            n_blocks
        );
        this
    }

    /// Serialize the in-memory directory and counters — everything needed to
    /// [`Lidf::reopen`] over a recovered pager. Journaled mutators stage this
    /// blob as the `"lidf"` meta of their WAL record.
    #[expect(
        clippy::expect_used,
        reason = "save_state serializes the block directory count; the pager caps allocation far below 2^32 blocks, so the overflow arm is unreachable"
    )]
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = VecWriter::new();
        w.u64(self.slots);
        w.u64(self.live);
        w.u64(self.free_head);
        w.u32(usize_to_u32(self.blocks.len()).expect("directory fits u32"));
        for b in &self.blocks {
            w.u32(b.0);
        }
        w.into_bytes()
    }

    /// Run `f` as one journaled operation: every block it dirties commits as
    /// a single atomic WAL record carrying the refreshed `"lidf"` state
    /// blob. Without an attached journal this is pure scope bookkeeping.
    fn journaled<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let _lidf = boxes_trace::OpSpan::phase(self.pager.trace(), "lidf");
        let txn = self.pager.txn();
        let out = f(self);
        let state = self.save_state();
        self.pager.txn_meta("lidf", || state);
        txn.commit();
        out
    }

    /// Records per block for this record type and block size — the paper's
    /// `B` as applied to the LIDF.
    #[inline]
    pub fn recs_per_block(&self) -> usize {
        self.recs_per_block
    }

    /// Number of live records.
    #[inline]
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live records exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of blocks the file occupies — the paper's O(N/B) space term.
    #[inline]
    pub fn blocks_used(&self) -> usize {
        self.blocks.len()
    }

    /// Directory index and byte offset of `slot` within its block. Labels
    /// are `u64`, the directory is `usize`-indexed; the checked helpers keep
    /// that boundary truncation-free.
    #[inline]
    fn slot_pos(&self, slot: u64) -> (usize, usize) {
        let rpb = usize_to_u64(self.recs_per_block);
        let bi = u64_to_index(slot / rpb);
        let offset = u64_to_index(slot % rpb) * Self::SLOT_SIZE;
        (bi, offset)
    }

    /// Offset (in records) of the next append slot inside its block.
    #[inline]
    fn tail_in_block(&self) -> usize {
        u64_to_index(self.slots % usize_to_u64(self.recs_per_block))
    }

    /// Block holding the next append slot, allocating a fresh one at a
    /// block boundary. `in_block != 0` implies `slots > 0`, which implies a
    /// tail block exists; the fallthrough keeps the path panic-free anyway.
    fn tail_block(&mut self, in_block: usize) -> BlockId {
        if in_block != 0 {
            if let Some(&b) = self.blocks.last() {
                return b;
            }
        }
        let b = self.pager.alloc();
        self.blocks.push(b);
        b
    }

    #[inline]
    fn locate(&self, lid: Lid) -> (BlockId, usize) {
        let slot = lid.0;
        assert!(slot < self.slots, "LID out of range: {lid:?}");
        let (bi, offset) = self.slot_pos(slot);
        (self.blocks[bi], offset)
    }

    /// Allocate a record, preferring reclaimed slots.
    pub fn alloc(&mut self, value: R) -> Lid {
        self.journaled(|t| t.alloc_impl(value))
    }

    fn alloc_impl(&mut self, value: R) -> Lid {
        if self.free_head != FREE_END {
            let lid = Lid(self.free_head);
            let (block, offset) = self.locate(lid);
            let mut buf = self.pager.read(block);
            let next = Reader::at(&buf, offset + 1).u64();
            self.write_slot(&mut buf, offset, &value);
            self.pager.write(block, &buf);
            self.free_head = next;
            self.live += 1;
            return lid;
        }
        self.append(value)
    }

    fn append(&mut self, value: R) -> Lid {
        let lid = Lid(self.slots);
        let in_block = self.tail_in_block();
        let block = self.tail_block(in_block);
        let mut buf = self.pager.read(block);
        self.write_slot(&mut buf, in_block * Self::SLOT_SIZE, &value);
        self.pager.write(block, &buf);
        self.slots += 1;
        self.live += 1;
        lid
    }

    fn write_slot(&self, buf: &mut [u8], offset: usize, value: &R) {
        let mut w = Writer::at(buf, offset);
        w.u8(TAG_LIVE);
        value.encode(&mut w);
        debug_assert_eq!(w.pos(), offset + Self::SLOT_SIZE);
    }

    /// Append many records sequentially, paying one read-modify-write per
    /// touched block — the bulk-loading I/O pattern (O(N/B)).
    pub fn bulk_append(&mut self, values: &[R]) -> Vec<Lid> {
        self.journaled(|t| t.bulk_append_impl(values))
    }

    fn bulk_append_impl(&mut self, values: &[R]) -> Vec<Lid> {
        let mut lids = Vec::with_capacity(values.len());
        let mut i = 0;
        while i < values.len() {
            let in_block = self.tail_in_block();
            let block = self.tail_block(in_block);
            let mut buf = self.pager.read(block);
            let mut slot = in_block;
            while slot < self.recs_per_block && i < values.len() {
                self.write_slot(&mut buf, slot * Self::SLOT_SIZE, &values[i]);
                lids.push(Lid(self.slots));
                self.slots += 1;
                self.live += 1;
                slot += 1;
                i += 1;
            }
            self.pager.write(block, &buf);
        }
        lids
    }

    /// Allocate two records adjacently when appending (start/end of one
    /// element: a single I/O later retrieves both). Falls back to two
    /// free-list slots when reclaimed space is available.
    pub fn alloc_pair(&mut self, a: R, b: R) -> (Lid, Lid) {
        self.journaled(|t| t.alloc_pair_impl(a, b))
    }

    fn alloc_pair_impl(&mut self, a: R, b: R) -> (Lid, Lid) {
        if self.free_head != FREE_END {
            return (self.alloc_impl(a), self.alloc_impl(b));
        }
        // Append path: both slots land in the same or consecutive blocks and
        // the two writes to a shared block are coalesced below.
        let in_block = self.tail_in_block();
        if in_block == 0 {
            // Fresh block: create it, write both slots with one RMW.
            let block = self.tail_block(0);
            let mut buf = self.pager.read(block);
            self.write_slot(&mut buf, 0, &a);
            self.write_slot(&mut buf, Self::SLOT_SIZE, &b);
            self.pager.write(block, &buf);
            let la = Lid(self.slots);
            let lb = Lid(self.slots + 1);
            self.slots += 2;
            self.live += 2;
            return (la, lb);
        }
        if in_block + 1 < self.recs_per_block {
            // Both fit in the current tail block: one read-modify-write.
            let block = self.tail_block(in_block);
            let mut buf = self.pager.read(block);
            self.write_slot(&mut buf, in_block * Self::SLOT_SIZE, &a);
            self.write_slot(&mut buf, (in_block + 1) * Self::SLOT_SIZE, &b);
            self.pager.write(block, &buf);
            let la = Lid(self.slots);
            let lb = Lid(self.slots + 1);
            self.slots += 2;
            self.live += 2;
            (la, lb)
        } else {
            (self.append(a), self.append(b))
        }
    }

    /// Read a live record. One I/O.
    pub fn read(&self, lid: Lid) -> R {
        let _lidf = boxes_trace::OpSpan::phase(self.pager.trace(), "lidf");
        let (block, offset) = self.locate(lid);
        let buf = self.pager.read(block);
        let mut r = Reader::at(&buf, offset);
        assert_eq!(r.u8(), TAG_LIVE, "read of freed {lid:?}");
        R::decode(&mut r)
    }

    /// Read two records, paying one I/O when they share a block.
    pub fn read_pair(&self, a: Lid, b: Lid) -> (R, R) {
        let _lidf = boxes_trace::OpSpan::phase(self.pager.trace(), "lidf");
        let (block_a, off_a) = self.locate(a);
        let (block_b, off_b) = self.locate(b);
        let buf_a = self.pager.read(block_a);
        let buf_b = if block_a == block_b {
            None
        } else {
            Some(self.pager.read(block_b))
        };
        let mut ra = Reader::at(&buf_a, off_a);
        assert_eq!(ra.u8(), TAG_LIVE, "read of freed {a:?}");
        let va = R::decode(&mut ra);
        let src = buf_b.as_deref().unwrap_or(&buf_a);
        let mut rb = Reader::at(src, off_b);
        assert_eq!(rb.u8(), TAG_LIVE, "read of freed {b:?}");
        let vb = R::decode(&mut rb);
        (va, vb)
    }

    /// Overwrite a live record. One read-modify-write (2 I/Os, caching off).
    pub fn write(&mut self, lid: Lid, value: R) {
        self.journaled(|t| t.write_impl(lid, value));
    }

    fn write_impl(&mut self, lid: Lid, value: R) {
        let (block, offset) = self.locate(lid);
        let mut buf = self.pager.read(block);
        assert_eq!(
            Reader::at(&buf, offset).u8(),
            TAG_LIVE,
            "write to freed {lid:?}"
        );
        self.write_slot(&mut buf, offset, &value);
        self.pager.write(block, &buf);
    }

    /// Overwrite many records, reading and writing each touched block once.
    /// This models the batched LIDF maintenance done during BOX leaf splits.
    pub fn write_batch(&mut self, updates: Vec<(Lid, R)>) {
        self.journaled(|t| t.write_batch_impl(updates));
    }

    fn write_batch_impl(&mut self, mut updates: Vec<(Lid, R)>) {
        updates.sort_by_key(|(lid, _)| lid.0);
        let mut i = 0;
        while i < updates.len() {
            let (block, _) = self.locate(updates[i].0);
            let mut buf = self.pager.read(block);
            while i < updates.len() {
                let (b, offset) = self.locate(updates[i].0);
                if b != block {
                    break;
                }
                assert_eq!(
                    Reader::at(&buf, offset).u8(),
                    TAG_LIVE,
                    "batch write to freed {:?}",
                    updates[i].0
                );
                let value = updates[i].1.clone();
                self.write_slot(&mut buf, offset, &value);
                i += 1;
            }
            self.pager.write(block, &buf);
        }
    }

    /// Reclaim a record, chaining it into the free list.
    pub fn free(&mut self, lid: Lid) {
        self.journaled(|t| t.free_impl(lid));
    }

    fn free_impl(&mut self, lid: Lid) {
        let (block, offset) = self.locate(lid);
        let mut buf = self.pager.read(block);
        assert_eq!(
            Reader::at(&buf, offset).u8(),
            TAG_LIVE,
            "double free of {lid:?}"
        );
        let mut w = Writer::at(&mut buf, offset);
        w.u8(TAG_FREE);
        w.u64(self.free_head);
        self.pager.write(block, &buf);
        self.free_head = lid.0;
        self.live -= 1;
    }

    /// Reclaim many records, reading and writing each touched block once.
    /// This is the clustered O(N'/B) deletion path the paper describes for
    /// subtree deletes whose LIDF records were allocated together.
    pub fn free_batch(&mut self, lids: Vec<Lid>) {
        self.journaled(|t| t.free_batch_impl(lids));
    }

    fn free_batch_impl(&mut self, mut lids: Vec<Lid>) {
        lids.sort();
        debug_assert!(
            lids.windows(2).all(|w| w[0] != w[1]),
            "duplicate LID in free_batch (caller double-free)"
        );
        let mut i = 0;
        while i < lids.len() {
            let (block, _) = self.locate(lids[i]);
            let mut buf = self.pager.read(block);
            while i < lids.len() {
                let (b, offset) = self.locate(lids[i]);
                if b != block {
                    break;
                }
                assert_eq!(
                    Reader::at(&buf, offset).u8(),
                    TAG_LIVE,
                    "double free of {:?}",
                    lids[i]
                );
                let mut w = Writer::at(&mut buf, offset);
                w.u8(TAG_FREE);
                w.u64(self.free_head);
                self.free_head = lids[i].0;
                self.live -= 1;
                i += 1;
            }
            self.pager.write(block, &buf);
        }
    }

    /// Whether the record is currently live. Costs one I/O (reads the slot).
    pub fn is_live(&self, lid: Lid) -> bool {
        let _lidf = boxes_trace::OpSpan::phase(self.pager.trace(), "lidf");
        if lid.0 >= self.slots {
            return false;
        }
        let (block, offset) = self.locate(lid);
        let buf = self.pager.read(block);
        Reader::at(&buf, offset).u8() == TAG_LIVE
    }

    /// Sequentially scan all live records, one block read per block.
    pub fn scan(&self, mut f: impl FnMut(Lid, R)) {
        let _lidf = boxes_trace::OpSpan::phase(self.pager.trace(), "lidf");
        for (bi, &block) in self.blocks.iter().enumerate() {
            let buf = self.pager.read(block);
            let base = usize_to_u64(bi) * usize_to_u64(self.recs_per_block);
            for s in 0..self.recs_per_block {
                let slot = base + usize_to_u64(s);
                if slot >= self.slots {
                    break;
                }
                let mut r = Reader::at(&buf, s * Self::SLOT_SIZE);
                if r.u8() == TAG_LIVE {
                    f(Lid(slot), R::decode(&mut r));
                }
            }
        }
    }

    /// Sequentially rewrite all live records in place: one read and one
    /// write per block. This is the I/O pattern of naive-k's global relabel.
    pub fn scan_mut(&mut self, f: impl FnMut(Lid, &mut R)) {
        self.journaled(|t| t.scan_mut_impl(f));
    }

    fn scan_mut_impl(&mut self, mut f: impl FnMut(Lid, &mut R)) {
        for (bi, block) in self.blocks.clone().into_iter().enumerate() {
            let mut buf = self.pager.read(block);
            let base = usize_to_u64(bi) * usize_to_u64(self.recs_per_block);
            let mut touched = false;
            for s in 0..self.recs_per_block {
                let slot = base + usize_to_u64(s);
                if slot >= self.slots {
                    break;
                }
                let offset = s * Self::SLOT_SIZE;
                let mut r = Reader::at(&buf, offset);
                if r.u8() == TAG_LIVE {
                    let mut rec = R::decode(&mut r);
                    f(Lid(slot), &mut rec);
                    self.write_slot(&mut buf, offset, &rec);
                    touched = true;
                }
            }
            if touched {
                self.pager.write(block, &buf);
            }
        }
    }

    /// Shared pager handle.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Health of the underlying pager: degraded LIDFs still serve reads.
    #[must_use]
    pub fn health(&self) -> Health {
        self.pager.health()
    }

    /// [`Lidf::read`] with disk faults surfaced as typed errors instead of
    /// panics. Reads are attempted even while degraded — the overlay and
    /// read-repair keep them answerable.
    pub fn try_read(&self, lid: Lid) -> Result<R, PagerError> {
        PagerError::catch(|| self.read(lid))
    }

    /// [`Lidf::write`] gated on health: mutating a degraded store fails
    /// fast before any in-memory state (free chain, live count) can drift
    /// from the durable image.
    pub fn try_write(&mut self, lid: Lid, value: R) -> Result<(), PagerError> {
        if let Health::Degraded(reason) = self.pager.health() {
            return Err(PagerError::Degraded(reason));
        }
        PagerError::catch(|| self.write(lid, value))
    }

    /// [`Lidf::alloc`] gated on health; see [`Lidf::try_write`].
    pub fn try_alloc(&mut self, value: R) -> Result<Lid, PagerError> {
        if let Health::Degraded(reason) = self.pager.health() {
            return Err(PagerError::Degraded(reason));
        }
        PagerError::catch(|| self.alloc(value))
    }

    /// [`Lidf::free`] gated on health; see [`Lidf::try_write`].
    pub fn try_free(&mut self, lid: Lid) -> Result<(), PagerError> {
        if let Health::Degraded(reason) = self.pager.health() {
            return Err(PagerError::Degraded(reason));
        }
        PagerError::catch(|| self.free(lid))
    }
}

impl<R: Record> boxes_audit::Auditable for Lidf<R> {
    /// Audit slot liveness and free-list discipline: every slot carries a
    /// valid tag, live tags agree with the live counter, the free chain
    /// reaches exactly the free-tagged slots (no dangling links, cycles, or
    /// orphans), and the block directory only names allocated blocks.
    fn audit(&self) -> boxes_audit::AuditReport {
        use boxes_audit::{Violation, ViolationKind};
        let mut report = boxes_audit::AuditReport::new();
        // One pass over the directory: collect each block's bytes so the
        // per-slot checks below never trip the pager's unallocated-read
        // panic even when the directory itself is corrupt.
        let mut bufs: Vec<Option<Box<[u8]>>> = Vec::with_capacity(self.blocks.len());
        for (bi, &block) in self.blocks.iter().enumerate() {
            if self.pager.is_allocated(block) {
                bufs.push(Some(self.pager.read(block)));
            } else {
                report.push(
                    Violation::new(ViolationKind::LidfMismatch, format!("lidf/dir[{bi}]"))
                        .at_block(block.0)
                        .expected("directory entry names an allocated block")
                        .actual("block is unallocated"),
                );
                bufs.push(None);
            }
        }
        let tag_of = |slot: u64| -> Option<u8> {
            let (bi, offset) = self.slot_pos(slot);
            let buf = bufs.get(bi)?.as_ref()?;
            Some(Reader::at(buf, offset).u8())
        };
        let mut live_tags = 0u64;
        for slot in 0..self.slots {
            match tag_of(slot) {
                Some(TAG_LIVE) => live_tags += 1,
                Some(TAG_FREE) | None => {}
                Some(tag) => report.push(
                    Violation::new(ViolationKind::SlotLiveness, format!("lidf/slot[{slot}]"))
                        .expected(format!("tag {TAG_FREE} (free) or {TAG_LIVE} (live)"))
                        .actual(tag),
                ),
            }
        }
        if live_tags != self.live {
            report.push(
                Violation::new(ViolationKind::CountMismatch, "lidf")
                    .expected(format!(
                        "{} live-tagged slots (the live counter)",
                        self.live
                    ))
                    .actual(live_tags),
            );
        }
        // Walk the free chain: bounded by the slot count, so a cycle or a
        // link into space is detected rather than looped on.
        let mut on_chain = std::collections::HashSet::new();
        let mut cur = self.free_head;
        while cur != FREE_END {
            if cur >= self.slots {
                report.push(
                    Violation::new(ViolationKind::FreeChain, format!("lidf/free-chain@{cur}"))
                        .expected(format!("link < {} or end sentinel", self.slots))
                        .actual(cur),
                );
                break;
            }
            if !on_chain.insert(cur) {
                report.push(
                    Violation::new(ViolationKind::FreeChain, format!("lidf/free-chain@{cur}"))
                        .expected("acyclic chain")
                        .actual("slot revisited (cycle)"),
                );
                break;
            }
            match tag_of(cur) {
                Some(TAG_FREE) => {}
                None => break, // directory hole already reported above
                Some(tag) => {
                    report.push(
                        Violation::new(ViolationKind::SlotLiveness, format!("lidf/slot[{cur}]"))
                            .expected(format!("free-chain slot tagged {TAG_FREE}"))
                            .actual(format!("tag {tag}")),
                    );
                    break;
                }
            }
            let (bi, offset) = self.slot_pos(cur);
            let Some(buf) = bufs.get(bi).and_then(|b| b.as_ref()) else {
                break; // unreachable: tag_of(cur) just returned Some
            };
            cur = Reader::at(buf, offset + 1).u64();
        }
        // Free-tagged slots unreachable from the chain are leaked: they can
        // never be recycled. (Skip when the walk aborted early — everything
        // past the break would be a false orphan.)
        if cur == FREE_END {
            for slot in 0..self.slots {
                if tag_of(slot) == Some(TAG_FREE) && !on_chain.contains(&slot) {
                    report.push(
                        Violation::new(ViolationKind::FreeChain, format!("lidf/slot[{slot}]"))
                            .expected("every free slot reachable from the chain")
                            .actual("orphaned free slot"),
                    );
                }
            }
            let expected_free = self.slots - self.live;
            if usize_to_u64(on_chain.len()) != expected_free {
                report.push(
                    Violation::new(ViolationKind::FreeChain, "lidf/free-chain")
                        .expected(format!("{expected_free} slots (slots − live)"))
                        .actual(on_chain.len()),
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_pager::{Pager, PagerConfig};

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Pair(u64, u64);
    impl Record for Pair {
        const SIZE: usize = 16;
        fn encode(&self, w: &mut Writer<'_>) {
            w.u64(self.0);
            w.u64(self.1);
        }
        fn decode(r: &mut Reader<'_>) -> Self {
            Pair(r.u64(), r.u64())
        }
    }

    fn lidf(bs: usize) -> Lidf<Pair> {
        Lidf::new(Pager::new(PagerConfig::with_block_size(bs)))
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut l = lidf(256);
        let a = l.alloc(Pair(1, 2));
        let b = l.alloc(Pair(3, 4));
        assert_eq!(l.read(a), Pair(1, 2));
        assert_eq!(l.read(b), Pair(3, 4));
        l.write(a, Pair(9, 9));
        assert_eq!(l.read(a), Pair(9, 9));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn free_then_alloc_reuses_slot() {
        let mut l = lidf(256);
        let a = l.alloc(Pair(1, 1));
        let _b = l.alloc(Pair(2, 2));
        l.free(a);
        assert_eq!(l.len(), 1);
        assert!(!l.is_live(a));
        let c = l.alloc(Pair(3, 3));
        assert_eq!(c, a, "free slot recycled");
        assert_eq!(l.read(c), Pair(3, 3));
    }

    #[test]
    fn degraded_lidf_serves_reads_and_rejects_mutations() {
        use boxes_pager::{FaultPlan, FaultPlanConfig};
        let pager = Pager::new(PagerConfig::with_block_size(256));
        let plan = FaultPlan::new(FaultPlanConfig::quiet(17, 256));
        pager.attach_fault_injector(plan.clone());
        let mut l = Lidf::new(pager);
        let a = l.try_alloc(Pair(1, 2)).expect("healthy alloc");
        let b = l.try_alloc(Pair(3, 4)).expect("healthy alloc");
        plan.fail_all_writes_after(0);
        assert!(
            matches!(l.try_write(a, Pair(9, 9)), Err(PagerError::Degraded(_))),
            "persistent write fault surfaces as a typed degrade"
        );
        assert!(!l.health().is_ok());
        // Reads answer the last durable values; further mutations fail fast.
        assert_eq!(l.try_read(a).expect("reads survive"), Pair(1, 2));
        assert_eq!(l.try_read(b).expect("reads survive"), Pair(3, 4));
        assert!(l.try_alloc(Pair(5, 5)).is_err());
        assert!(l.try_free(b).is_err());
        assert_eq!(l.len(), 2, "no in-memory drift from rejected mutations");
        // Disk healed: resume and mutate again.
        plan.heal();
        l.pager().try_resume().expect("resume after heal");
        assert!(l.health().is_ok());
        l.try_write(a, Pair(9, 9)).expect("mutations resume");
        assert_eq!(l.read(a), Pair(9, 9));
    }

    #[test]
    fn free_list_is_lifo_chain() {
        let mut l = lidf(256);
        let lids: Vec<Lid> = (0..5).map(|i| l.alloc(Pair(i, i))).collect();
        for &lid in &lids[1..4] {
            l.free(lid);
        }
        // LIFO: last freed comes back first.
        assert_eq!(l.alloc(Pair(10, 10)), lids[3]);
        assert_eq!(l.alloc(Pair(11, 11)), lids[2]);
        assert_eq!(l.alloc(Pair(12, 12)), lids[1]);
    }

    #[test]
    fn pair_allocation_shares_block_when_possible() {
        let mut l = lidf(256); // 15 slots of 17 bytes
        l.alloc(Pair(0, 0));
        let p = l.pager().clone();
        let before = p.stats();
        let (a, b) = l.alloc_pair(Pair(1, 1), Pair(2, 2));
        let d = p.stats().since(&before);
        assert_eq!(b.0, a.0 + 1);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
        let before = p.stats();
        let (x, y) = l.read_pair(a, b);
        assert_eq!((x, y), (Pair(1, 1), Pair(2, 2)));
        assert_eq!(p.stats().since(&before).reads, 1, "adjacent pair: 1 I/O");
    }

    #[test]
    fn records_span_blocks() {
        let mut l = lidf(64); // 3 slots per 64-byte block (17B slots)
        let lids: Vec<Lid> = (0..10).map(|i| l.alloc(Pair(i, i * 7))).collect();
        assert!(l.blocks_used() >= 3);
        for (i, lid) in lids.iter().enumerate() {
            assert_eq!(l.read(*lid), Pair(i as u64, i as u64 * 7));
        }
    }

    #[test]
    fn scan_visits_live_records_in_order() {
        let mut l = lidf(64);
        let lids: Vec<Lid> = (0..7).map(|i| l.alloc(Pair(i, 0))).collect();
        l.free(lids[2]);
        l.free(lids[5]);
        let mut seen = Vec::new();
        l.scan(|lid, rec| seen.push((lid, rec.0)));
        assert_eq!(
            seen,
            vec![
                (lids[0], 0),
                (lids[1], 1),
                (lids[3], 3),
                (lids[4], 4),
                (lids[6], 6)
            ]
        );
    }

    #[test]
    fn scan_mut_rewrites_with_one_rw_per_block() {
        let mut l = lidf(64); // 3 slots per block
        for i in 0..9 {
            l.alloc(Pair(i, 0));
        }
        let p = l.pager().clone();
        let before = p.stats();
        l.scan_mut(|_, rec| rec.1 = rec.0 * 2);
        let d = p.stats().since(&before);
        assert_eq!(d.reads as usize, l.blocks_used());
        assert_eq!(d.writes as usize, l.blocks_used());
        l.scan(|_, rec| assert_eq!(rec.1, rec.0 * 2));
    }

    #[test]
    fn write_batch_groups_by_block() {
        let mut l = lidf(64); // 3 slots per block
        let lids: Vec<Lid> = (0..6).map(|i| l.alloc(Pair(i, 0))).collect();
        let p = l.pager().clone();
        let before = p.stats();
        // Two updates in block 0, one in block 1, delivered out of order.
        l.write_batch(vec![
            (lids[4], Pair(40, 40)),
            (lids[0], Pair(0, 99)),
            (lids[1], Pair(1, 99)),
        ]);
        let d = p.stats().since(&before);
        assert_eq!(d.reads, 2);
        assert_eq!(d.writes, 2);
        assert_eq!(l.read(lids[4]), Pair(40, 40));
        assert_eq!(l.read(lids[0]), Pair(0, 99));
    }

    #[test]
    fn bulk_append_costs_one_rw_per_block() {
        let mut l = lidf(64); // 3 slots per block
        let p = l.pager().clone();
        let before = p.stats();
        let values: Vec<Pair> = (0..9).map(|i| Pair(i, i)).collect();
        let lids = l.bulk_append(&values);
        let d = p.stats().since(&before);
        assert_eq!(lids.len(), 9);
        assert_eq!(d.reads, 3);
        assert_eq!(d.writes, 3);
        for (i, lid) in lids.iter().enumerate() {
            assert_eq!(l.read(*lid), Pair(i as u64, i as u64));
        }
        // Appending after a bulk load continues in the same slot space.
        let next = l.alloc(Pair(99, 99));
        assert_eq!(next.0, 9);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut l = lidf(256);
        let a = l.alloc(Pair(1, 1));
        l.free(a);
        l.free(a);
    }

    #[test]
    #[should_panic(expected = "freed")]
    fn read_of_freed_panics() {
        let mut l = lidf(256);
        let a = l.alloc(Pair(1, 1));
        l.free(a);
        l.read(a);
    }

    #[test]
    fn free_batch_groups_by_block_and_recycles() {
        let mut l = lidf(64); // 3 slots per block
        let lids: Vec<Lid> = (0..9).map(|i| l.alloc(Pair(i, 0))).collect();
        let p = l.pager().clone();
        let before = p.stats();
        l.free_batch(vec![lids[4], lids[0], lids[1], lids[5]]);
        let d = p.stats().since(&before);
        assert_eq!(d.reads, 2, "two blocks touched");
        assert_eq!(d.writes, 2);
        assert_eq!(l.len(), 5);
        // All four slots come back through the free list.
        let reused: Vec<Lid> = (0..4).map(|i| l.alloc(Pair(100 + i, 0))).collect();
        let mut expected = vec![lids[4], lids[0], lids[1], lids[5]];
        expected.sort();
        let mut got = reused.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn save_state_reopen_roundtrip_in_memory() {
        use boxes_audit::Auditable as _;
        let mut l = lidf(64);
        let lids: Vec<Lid> = (0..7).map(|i| l.alloc(Pair(i, i))).collect();
        l.free(lids[2]);
        l.free(lids[4]);
        let state = l.save_state();
        let l2: Lidf<Pair> = Lidf::reopen(l.pager().clone(), &state);
        assert_eq!(l2.len(), 5);
        assert_eq!(l2.read(lids[1]), Pair(1, 1));
        assert!(!l2.is_live(lids[2]));
        assert!(l2.audit().is_clean(), "{:?}", l2.audit());
        // The free chain survives: recycling continues where it left off.
        let mut l2 = l2;
        assert_eq!(l2.alloc(Pair(9, 9)), lids[4]);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("boxes-lidf-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn file_backend_roundtrips_records() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let pager = Pager::open_file(&path, 64).expect("create");
        let mut l: Lidf<Pair> = Lidf::new(pager);
        let lids: Vec<Lid> = (0..9).map(|i| l.alloc(Pair(i, i * 3))).collect();
        l.free(lids[4]);
        for (i, lid) in lids.iter().enumerate() {
            if i != 4 {
                assert_eq!(l.read(*lid), Pair(i as u64, i as u64 * 3));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_reopen_persists_across_processes() {
        use boxes_audit::Auditable as _;
        let path = temp_path("reopen-persist");
        let _ = std::fs::remove_file(&path);
        let state = {
            let pager = Pager::open_file(&path, 64).expect("create");
            let mut l: Lidf<Pair> = Lidf::new(pager);
            let lids: Vec<Lid> = (0..7).map(|i| l.alloc(Pair(i, 100 + i))).collect();
            l.free(lids[3]);
            l.write(lids[5], Pair(55, 55));
            l.save_state()
        }; // pager dropped: simulates a clean shutdown
        let pager = Pager::open_file(&path, 64).expect("reopen");
        let mut l: Lidf<Pair> = Lidf::reopen(pager, &state);
        assert_eq!(l.len(), 6);
        assert_eq!(l.read(Lid(5)), Pair(55, 55));
        assert_eq!(l.read(Lid(0)), Pair(0, 100));
        assert!(!l.is_live(Lid(3)));
        assert!(l.audit().is_clean(), "{:?}", l.audit());
        assert_eq!(l.alloc(Pair(9, 9)), Lid(3), "free chain persisted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn block_ptr_record_roundtrip() {
        let p = Pager::new(PagerConfig::with_block_size(128));
        let mut l = Lidf::<BlockPtrRecord>::new(p);
        let lid = l.alloc(BlockPtrRecord::new(BlockId(1234)));
        assert_eq!(l.read(lid).block, BlockId(1234));
    }
}
