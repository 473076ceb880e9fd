//! Sharded page table with per-frame latches — the fine-grained half of the
//! pager's locking split.
//!
//! The coarse `Pager.inner` mutex remains the *coordinator*: alloc/free,
//! epoch publish, journal group-commit barriers and every write-side code
//! path still serialize there. What moved out is the block storage itself:
//! frames and frozen snapshot versions now live in [`SHARD_COUNT`] shards,
//! each guarded by its own small mutex, with an `RwLock` latch per frame on
//! top. Snapshot readers resolve a pinned-epoch read entirely inside one
//! shard — version lookup, frame latch, checksum verify — without ever
//! touching the coordinator, so readers over disjoint blocks (and even the
//! same shard, via shared read latches) no longer contend with each other.
//!
//! Lock hierarchy (registered in the BX015 lock-order graph):
//!
//! ```text
//! boxes-pager::Pager.inner   (coordinator)
//!   └─ boxes-pager::Shard.state    (one of SHARD_COUNT shard mutexes)
//!        └─ boxes-pager::Frame.latch   (per-frame RwLock)
//! ```
//!
//! Shards are only ever taken *after* the coordinator (writers) or with no
//! coordinator at all (snapshot readers); frame latches only under a shard
//! guard. A reader clones the frame's `Arc`, acquires the read latch while
//! the shard guard is still held, then drops the shard guard and copies the
//! block under the latch alone — it never waits on a shard while holding a
//! latch, so the hierarchy is acyclic by construction.

use crate::codec;
use crate::lock_unpoisoned;
use crate::ReadFailure;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of page-table shards. A power of two so `BlockId` hashing is a
/// mask; 16 shards keep 8 concurrent readers on disjoint blocks collision-
/// free with high probability while staying cheap to iterate under the
/// coordinator (reclaim, audit, disk imaging).
pub(crate) const SHARD_COUNT: usize = 16;

/// Shared handle to one resident frame. The alias lets locals cloned out of
/// a shard map keep a resolvable type for the lock-discipline lint.
pub(crate) type FrameRef = Arc<Frame>;

/// Shared handle to the whole sharded table (the memory backend and the
/// pager's version store are the same object).
pub(crate) type TableRef = Arc<PageTable>;

/// One in-memory block plus its page checksum. The checksum is recomputed
/// on every write and verified on every read, so a torn page (a crash that
/// persisted only a prefix of a block) is *detected*, never silently
/// decoded.
pub(crate) struct FrameBody {
    /// Raw block bytes as "persisted".
    pub(crate) data: Box<[u8]>,
    /// Stored checksum — deliberately left stale by torn writes and bit rot.
    pub(crate) crc: u32,
}

impl FrameBody {
    fn zeroed(block_size: usize) -> Self {
        Self::fresh(vec![0u8; block_size].into_boxed_slice())
    }

    fn fresh(data: Box<[u8]>) -> Self {
        let crc = codec::crc32(&data);
        Self { data, crc }
    }
}

/// One resident block behind its per-frame latch. Writers (always under the
/// coordinator *and* the owning shard guard) take the write latch; snapshot
/// readers take the read latch and may keep it briefly after releasing the
/// shard guard while they copy the block out.
pub(crate) struct Frame {
    latch: RwLock<FrameBody>,
}

impl Frame {
    fn new(body: FrameBody) -> FrameRef {
        Arc::new(Frame {
            latch: RwLock::new(body),
        })
    }

    /// Acquire the frame read latch, recovering from poisoning (crash
    /// injection panics while latches are held; see [`lock_unpoisoned`]).
    pub(crate) fn read_latch(&self) -> RwLockReadGuard<'_, FrameBody> {
        match self.latch.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquire the frame write latch (poison-recovering).
    pub(crate) fn write_latch(&self) -> RwLockWriteGuard<'_, FrameBody> {
        match self.latch.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// One copy-on-write frozen block version: the committed image as it stood
/// through epoch `valid_to`, preserved because a pinned snapshot may still
/// read it. Versions of a block are kept in ascending `valid_to` order; a
/// snapshot pinned at epoch `e` reads the first version with
/// `valid_to >= e`, falling back to the live frame when none exists.
pub(crate) struct Frozen {
    /// Last epoch this image was the committed state for.
    pub(crate) valid_to: u64,
    /// The frozen block bytes.
    pub(crate) data: Box<[u8]>,
}

/// Everything one shard guards: the resident frames of the blocks hashing
/// to it, plus their frozen snapshot versions. Keeping versions in the same
/// shard as the live frame makes a snapshot read atomic under one guard:
/// version lookup and frame-latch acquisition cannot interleave with a
/// writer's freeze-then-overwrite sequence on the same block.
#[derive(Default)]
pub(crate) struct ShardState {
    frames: HashMap<u32, FrameRef>,
    versions: HashMap<u32, Vec<Frozen>>,
}

/// One page-table shard: a small mutex over its slice of the frame map,
/// plus contention tallies (SeqCst; read by [`PageTable::shard_stats`]).
pub(crate) struct Shard {
    state: Mutex<ShardState>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState::default()),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquire this shard's state mutex, tallying the acquisition and —
    /// when the uncontended fast path misses — the contention event. Poison
    /// recovery as in [`lock_unpoisoned`].
    fn state_guard(&self) -> MutexGuard<'_, ShardState> {
        self.acquisitions.fetch_add(1, Ordering::SeqCst);
        match self.state.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::SeqCst);
                lock_unpoisoned(&self.state)
            }
        }
    }
}

/// Latch counters of one shard, snapshotted by [`crate::Pager::shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard mutex acquisitions (readers + writers + coordinator sweeps).
    pub acquisitions: u64,
    /// Acquisitions that found the shard mutex already held.
    pub contended: u64,
    /// Frames currently resident in this shard.
    pub frames: usize,
    /// Frozen snapshot versions currently parked in this shard.
    pub versions: usize,
}

/// The sharded page table: [`SHARD_COUNT`] shards keyed by `BlockId` masked
/// into the shard array, plus the slot high-water mark (the equivalent of
/// the old backing `Vec`'s length — deallocated slots stay counted, exactly
/// like `Vec<Option<MemBlock>>` kept `None` holes).
pub(crate) struct PageTable {
    shards: Vec<Shard>,
    len: AtomicUsize,
}

impl PageTable {
    /// Fresh empty table.
    pub(crate) fn new() -> PageTable {
        PageTable {
            shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Rebuild a table from recovered disk-image slots; checksums are
    /// recomputed from the (already repaired) data.
    pub(crate) fn from_blocks(blocks: Vec<Option<Box<[u8]>>>) -> PageTable {
        let table = PageTable::new();
        table.len.store(blocks.len(), Ordering::SeqCst);
        for (idx, slot) in blocks.into_iter().enumerate() {
            let Some(data) = slot else { continue };
            let Ok(raw) = codec::usize_to_u32(idx) else {
                continue;
            };
            let shard: &Shard = table.shard(raw);
            let mut state = shard.state_guard();
            state.frames.insert(raw, Frame::new(FrameBody::fresh(data)));
        }
        table
    }

    /// The shard owning block `raw`.
    fn shard(&self, raw: u32) -> &Shard {
        &self.shards[codec::u32_to_usize(raw) % self.shards.len()]
    }

    /// Slot high-water mark (mirrors the old backing `Vec` length).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether block `raw` currently has a resident frame.
    pub(crate) fn is_allocated(&self, raw: u32) -> bool {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        state.frames.contains_key(&raw)
    }

    /// Append a fresh zeroed block at the next slot index.
    pub(crate) fn push_zeroed(&self, block_size: usize) {
        let idx = self.len.fetch_add(1, Ordering::SeqCst);
        let Ok(raw) = codec::usize_to_u32(idx) else {
            return;
        };
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        state
            .frames
            .insert(raw, Frame::new(FrameBody::zeroed(block_size)));
    }

    /// Re-materialize a previously deallocated slot as a zeroed block.
    pub(crate) fn reuse_zeroed(&self, raw: u32, block_size: usize) {
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        if let Some(entry) = state.frames.get(&raw) {
            let frame: FrameRef = FrameRef::clone(entry);
            let mut body = frame.write_latch();
            *body = FrameBody::zeroed(block_size);
        } else {
            state
                .frames
                .insert(raw, Frame::new(FrameBody::zeroed(block_size)));
        }
    }

    /// Drop block `raw`'s frame (deallocation). Frozen versions are managed
    /// separately — a freed block's pre-image may outlive the frame for
    /// pinned snapshot readers.
    pub(crate) fn deallocate(&self, raw: u32) {
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        state.frames.remove(&raw);
    }

    /// Read block `raw`, classifying failures exactly like the old memory
    /// backend: missing frame → `Unallocated`, stale checksum → `Checksum`.
    pub(crate) fn try_read(&self, raw: u32) -> Result<Box<[u8]>, ReadFailure> {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        let Some(entry) = state.frames.get(&raw) else {
            return Err(ReadFailure::Unallocated);
        };
        let frame: FrameRef = FrameRef::clone(entry);
        let body = frame.read_latch();
        drop(state);
        if codec::crc32(&body.data) != body.crc {
            return Err(ReadFailure::Checksum);
        }
        Ok(body.data.clone())
    }

    /// Overwrite (or materialize) block `raw` with a fresh checksum.
    pub(crate) fn write(&self, raw: u32, data: Box<[u8]>) {
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        if let Some(entry) = state.frames.get(&raw) {
            let frame: FrameRef = FrameRef::clone(entry);
            let mut body = frame.write_latch();
            *body = FrameBody::fresh(data);
        } else {
            state.frames.insert(raw, Frame::new(FrameBody::fresh(data)));
        }
    }

    /// Persist only the first `n` bytes of `data` into block `raw`, leaving
    /// the rest of the block and its stored checksum stale — the torn-write
    /// fault model. Returns `false` when the slot is unallocated (the
    /// caller owns the contract panic).
    pub(crate) fn write_torn(&self, raw: u32, data: &[u8], n: usize) -> bool {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        let Some(entry) = state.frames.get(&raw) else {
            return false;
        };
        let frame: FrameRef = FrameRef::clone(entry);
        let mut body = frame.write_latch();
        drop(state);
        let n = n.min(data.len()).min(body.data.len());
        body.data[..n].copy_from_slice(&data[..n]);
        true
    }

    /// Flip `mask` into the stored byte at `offset`, leaving the stored
    /// checksum stale — the media-corruption (bit rot) primitive.
    pub(crate) fn corrupt(&self, raw: u32, offset: usize, mask: u8) {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        let Some(entry) = state.frames.get(&raw) else {
            return;
        };
        let frame: FrameRef = FrameRef::clone(entry);
        let mut body = frame.write_latch();
        drop(state);
        if let Some(byte) = body.data.get_mut(offset) {
            *byte ^= mask;
        }
    }

    /// Raw block bytes plus the *stored* checksum, without verification —
    /// the crash-recovery path inspects torn pages instead of panicking.
    pub(crate) fn raw(&self, raw: u32) -> Option<(Box<[u8]>, u32)> {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        let entry = state.frames.get(&raw)?;
        let frame: FrameRef = FrameRef::clone(entry);
        let body = frame.read_latch();
        drop(state);
        Some((body.data.clone(), body.crc))
    }

    /// Number of currently allocated (resident) frames.
    pub(crate) fn allocated_count(&self) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            let state = shard.state_guard();
            total += state.frames.len();
        }
        total
    }

    /// Whether the newest frozen version of `raw` already covers `epoch`
    /// (the freeze-skip condition — freezing again would shadow nothing).
    pub(crate) fn newest_version_covers(&self, raw: u32, epoch: u64) -> bool {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        state
            .versions
            .get(&raw)
            .and_then(|v| v.last())
            .is_some_and(|f| f.valid_to >= epoch)
    }

    /// Freeze the current frame image of `raw` as the version valid through
    /// `epoch` — the memory-backend copy-on-write step, atomic under one
    /// shard guard. Skips when the newest version already covers `epoch`,
    /// when the block was never materialized, or when the image fails its
    /// checksum (a corrupt image is not worth preserving — snapshot reads
    /// then fall back to the repaired backend path).
    pub(crate) fn freeze_image(&self, raw: u32, epoch: u64) {
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        if state
            .versions
            .get(&raw)
            .and_then(|v| v.last())
            .is_some_and(|f| f.valid_to >= epoch)
        {
            return;
        }
        let Some(entry) = state.frames.get(&raw) else {
            return;
        };
        let frame: FrameRef = FrameRef::clone(entry);
        let data = {
            let body = frame.read_latch();
            if codec::crc32(&body.data) != body.crc {
                return;
            }
            body.data.clone()
        };
        state.versions.entry(raw).or_default().push(Frozen {
            valid_to: epoch,
            data,
        });
    }

    /// Park an externally read pre-image (file-backend freeze path) as the
    /// version of `raw` valid through `epoch`. The caller has already
    /// checked [`PageTable::newest_version_covers`] under the coordinator.
    pub(crate) fn push_version(&self, raw: u32, epoch: u64, data: Box<[u8]>) {
        let shard: &Shard = self.shard(raw);
        let mut state = shard.state_guard();
        if state
            .versions
            .get(&raw)
            .and_then(|v| v.last())
            .is_some_and(|f| f.valid_to >= epoch)
        {
            return;
        }
        state.versions.entry(raw).or_default().push(Frozen {
            valid_to: epoch,
            data,
        });
    }

    /// The coordinator-free snapshot read fast path: resolve block `raw` as
    /// of pinned epoch `epoch` entirely inside its shard. Returns the
    /// oldest frozen version still valid at `epoch` if one exists, else the
    /// live frame image when it verifies. `None` means the slow path (under
    /// the coordinator) must decide: unallocated contract panic, checksum
    /// read-repair, or a file-backend read.
    ///
    /// Safe without the coordinator because every version push and frame
    /// overwrite happens under this same shard guard, and the writer
    /// freezes the pre-image *before* overwriting — so between our version
    /// check and our latch acquisition (both under one guard) no write can
    /// slip in.
    pub(crate) fn snapshot_read(&self, raw: u32, epoch: u64) -> Option<Box<[u8]>> {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        if let Some(versions) = state.versions.get(&raw) {
            if let Some(frozen) = versions.iter().find(|f| f.valid_to >= epoch) {
                return Some(frozen.data.clone());
            }
        }
        let entry = state.frames.get(&raw)?;
        let frame: FrameRef = FrameRef::clone(entry);
        let body = frame.read_latch();
        drop(state);
        if codec::crc32(&body.data) != body.crc {
            return None;
        }
        Some(body.data.clone())
    }

    /// Fast-path half of snapshot allocation checks: `true` when a covering
    /// frozen version or a resident frame proves the block readable at
    /// `epoch`. `false` is *inconclusive* (file backends keep no frames
    /// here) — the caller falls back to the coordinator.
    pub(crate) fn snapshot_covers(&self, raw: u32, epoch: u64) -> bool {
        let shard: &Shard = self.shard(raw);
        let state = shard.state_guard();
        if state
            .versions
            .get(&raw)
            .is_some_and(|versions| versions.iter().any(|f| f.valid_to >= epoch))
        {
            return true;
        }
        state.frames.contains_key(&raw)
    }

    /// Drop frozen versions no pinned epoch can still read. Version `i` of
    /// a block covers epochs `(versions[i-1].valid_to, versions[i].valid_to]`
    /// (the first covers from 0), so a version is live iff some pin falls
    /// in its coverage window. Runs under the coordinator after every
    /// unpin.
    pub(crate) fn reclaim_versions(&self, pins: &std::collections::BTreeMap<u64, u64>) {
        for shard in &self.shards {
            let mut state = shard.state_guard();
            state.versions.retain(|_, versions| {
                let mut valid_from = 0u64;
                versions.retain(|v| {
                    let needed = pins.range(valid_from..=v.valid_to).next().is_some();
                    valid_from = v.valid_to + 1;
                    needed
                });
                !versions.is_empty()
            });
        }
    }

    /// Whether any frozen versions remain (audit/test hook).
    pub(crate) fn versions_empty(&self) -> bool {
        for shard in &self.shards {
            let state = shard.state_guard();
            if !state.versions.is_empty() {
                return false;
            }
        }
        true
    }

    /// Per-shard latch counters plus occupancy, in shard order.
    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        let mut out = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let state = shard.state_guard();
            out.push(ShardStats {
                acquisitions: shard.acquisitions.load(Ordering::SeqCst),
                contended: shard.contended.load(Ordering::SeqCst),
                frames: state.frames.len(),
                versions: state.versions.values().map(Vec::len).sum(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_write_read_roundtrip() {
        let t = PageTable::new();
        t.push_zeroed(32);
        assert_eq!(t.len(), 1);
        assert!(t.is_allocated(0));
        let data = t.try_read(0).ok().unwrap();
        assert_eq!(&data[..], &[0u8; 32][..]);
        t.write(0, vec![7u8; 32].into_boxed_slice());
        assert_eq!(&t.try_read(0).ok().unwrap()[..], &[7u8; 32][..]);
    }

    #[test]
    fn torn_write_leaves_stale_checksum() {
        let t = PageTable::new();
        t.push_zeroed(32);
        t.write(0, vec![1u8; 32].into_boxed_slice());
        assert!(t.write_torn(0, &[0xFFu8; 32], 5));
        assert!(matches!(t.try_read(0), Err(ReadFailure::Checksum)));
        assert!(!t.write_torn(99, &[0u8; 4], 2));
    }

    #[test]
    fn deallocate_then_reuse_round_trips() {
        let t = PageTable::new();
        t.push_zeroed(16);
        t.deallocate(0);
        assert!(!t.is_allocated(0));
        assert!(matches!(t.try_read(0), Err(ReadFailure::Unallocated)));
        t.reuse_zeroed(0, 16);
        assert_eq!(&t.try_read(0).ok().unwrap()[..], &[0u8; 16][..]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snapshot_read_prefers_covering_version() {
        let t = PageTable::new();
        t.push_zeroed(16);
        t.write(0, vec![1u8; 16].into_boxed_slice());
        t.freeze_image(0, 3);
        t.write(0, vec![2u8; 16].into_boxed_slice());
        // Pinned at epoch <= 3: sees the frozen pre-image.
        assert_eq!(&t.snapshot_read(0, 2).unwrap()[..], &[1u8; 16][..]);
        // Pinned later: falls through to the live frame.
        assert_eq!(&t.snapshot_read(0, 4).unwrap()[..], &[2u8; 16][..]);
        assert!(t.snapshot_read(9, 2).is_none());
    }

    #[test]
    fn freeze_skips_when_newest_version_covers() {
        let t = PageTable::new();
        t.push_zeroed(16);
        t.write(0, vec![1u8; 16].into_boxed_slice());
        t.freeze_image(0, 5);
        t.write(0, vec![2u8; 16].into_boxed_slice());
        t.freeze_image(0, 5); // no-op: newest covers epoch 5
        assert!(t.newest_version_covers(0, 5));
        assert_eq!(&t.snapshot_read(0, 5).unwrap()[..], &[1u8; 16][..]);
    }

    #[test]
    fn reclaim_drops_uncovered_windows() {
        let t = PageTable::new();
        t.push_zeroed(16);
        t.write(0, vec![1u8; 16].into_boxed_slice());
        t.freeze_image(0, 1);
        t.write(0, vec![2u8; 16].into_boxed_slice());
        t.freeze_image(0, 2);
        let mut pins = std::collections::BTreeMap::new();
        pins.insert(2u64, 1u64);
        t.reclaim_versions(&pins);
        // Window (1, 2] pinned: the second version survives, the first dies.
        assert!(t.snapshot_read(0, 2).is_some());
        assert!(!t.versions_empty());
        pins.clear();
        t.reclaim_versions(&pins);
        assert!(t.versions_empty());
    }

    #[test]
    fn shard_stats_tally_acquisitions() {
        let t = PageTable::new();
        t.push_zeroed(16);
        let stats = t.shard_stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        let total: u64 = stats.iter().map(|s| s.acquisitions).sum();
        assert!(total >= 1);
        assert_eq!(stats.iter().map(|s| s.frames).sum::<usize>(), 1);
    }
}
