//! File-backed block storage — an extension beyond the paper's simulated
//! setup: the same block API and I/O accounting, but blocks live in a real
//! file, so wall-clock measurements include genuine disk behavior.
//!
//! # On-disk layout
//!
//! ```text
//! header (16 bytes): magic "BOXPGR01" | block_size u64 LE
//! slot i (block_size + 8 bytes), at 16 + i·(block_size+8):
//!     block bytes | crc32 u32 LE | alloc flag u8 | 3 pad bytes
//! ```
//!
//! The per-slot trailer makes the file self-describing: reopening an
//! existing path rebuilds the allocation bitmap from the trailer flags, and
//! every read verifies the trailer checksum so a torn page (a crash that
//! persisted only a prefix of a slot) is *detected*, never silently
//! decoded. Edge cases — reading a deallocated index, reopening with the
//! wrong block size, a short/partial slot on disk — are typed
//! [`FileError`]s rather than unspecified behavior, and so is an OS error
//! on any write: the pager retries or parks the work, as it does for an
//! injected fault.

#![expect(
    clippy::disallowed_types,
    reason = "the pager's file backend owns disk access: it is the paper's disk model, under the accounted layer"
)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::Path;

use crate::codec;
use crate::vfs::RawFile;
use crate::{DiskBlock, DiskImage};

/// Magic bytes opening every pager file (versioned).
pub const FILE_MAGIC: [u8; 8] = *b"BOXPGR01";
/// Bytes of file header before the first slot.
const HEADER_SIZE: u64 = 16;
/// Bytes of per-slot trailer: crc32 (4) + alloc flag (1) + padding (3).
const TRAILER_SIZE: usize = 8;

/// Typed failure of the pager's file backend.
#[derive(Debug)]
pub enum FileError {
    /// Underlying OS I/O failure.
    Io(std::io::Error),
    /// Read or write of a slot that is not currently allocated.
    Unallocated(usize),
    /// The file ended before a complete slot — a short/partial block.
    ShortBlock {
        /// Slot index of the incomplete block.
        index: usize,
        /// Bytes actually present.
        got: usize,
        /// Bytes a complete slot requires.
        want: usize,
    },
    /// The file is not a pager file or its header is damaged.
    BadHeader(String),
    /// Reopened with a different block size than the file was created with.
    BlockSizeMismatch {
        /// Block size recorded in the file header.
        file: u64,
        /// Block size the caller requested.
        requested: usize,
    },
    /// Stored trailer checksum does not match the block data (torn page).
    Checksum(usize),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "pager file I/O error: {e}"),
            FileError::Unallocated(idx) => {
                write!(f, "access to unallocated file slot {idx}")
            }
            FileError::ShortBlock { index, got, want } => write!(
                f,
                "short block at slot {index}: {got} of {want} bytes on disk"
            ),
            FileError::BadHeader(why) => write!(f, "bad pager file header: {why}"),
            FileError::BlockSizeMismatch { file, requested } => write!(
                f,
                "block size mismatch: file has {file}, caller requested {requested}"
            ),
            FileError::Checksum(idx) => write!(
                f,
                "checksum mismatch at file slot {idx} — torn or corrupt block"
            ),
        }
    }
}

impl std::error::Error for FileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

pub(crate) struct FileStore {
    /// Behind the [`RawFile`] seam, so a test can wrap it in a `FaultFile`.
    file: Box<dyn RawFile>,
    block_size: usize,
    allocated: Vec<bool>,
}

impl FileStore {
    /// Create (or truncate) the backing file and write its header.
    pub fn create(path: &Path, block_size: usize) -> Result<Self, FileError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = [0u8; 16];
        header[..8].copy_from_slice(&FILE_MAGIC);
        header[8..].copy_from_slice(&codec::usize_to_u64(block_size).to_le_bytes());
        file.write_all_at(&header, 0)?;
        Ok(FileStore {
            file: Box::new(file),
            block_size,
            allocated: Vec::new(),
        })
    }

    /// Reopen an existing pager file, validating the header and rebuilding
    /// the allocation bitmap from the per-slot trailer flags.
    pub fn open(path: &Path, block_size: usize) -> Result<Self, FileError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = read_header(&file, block_size)?;
        let slot = codec::usize_to_u64(block_size + TRAILER_SIZE);
        let payload = file_len - HEADER_SIZE;
        let slots = codec::u64_to_index(payload / slot);
        let rem = codec::u64_to_index(payload % slot);
        if rem != 0 {
            return Err(FileError::ShortBlock {
                index: slots,
                got: rem,
                want: block_size + TRAILER_SIZE,
            });
        }
        let mut store = FileStore {
            file: Box::new(file),
            block_size,
            allocated: Vec::with_capacity(slots),
        };
        for idx in 0..slots {
            let (_, flag) = store.read_trailer(idx)?;
            store.allocated.push(flag != 0);
        }
        Ok(store)
    }

    /// Number of block slots ever created (allocated or freed).
    pub fn len(&self) -> usize {
        self.allocated.len()
    }

    /// Is slot `idx` currently allocated?
    pub fn is_allocated(&self, idx: usize) -> bool {
        self.allocated.get(idx).copied().unwrap_or(false)
    }

    /// Number of currently-allocated blocks.
    pub fn allocated_count(&self) -> usize {
        self.allocated.iter().filter(|&&a| a).count()
    }

    /// Slot indices currently deallocated, highest first (so a rebuilt free
    /// list recycles low indices first and the file stays compact).
    pub fn free_indices(&self) -> Vec<usize> {
        (0..self.allocated.len())
            .rev()
            .filter(|&i| !self.allocated[i])
            .collect()
    }

    fn slot_offset(&self, idx: usize) -> u64 {
        HEADER_SIZE
            + codec::usize_to_u64(idx)
                .saturating_mul(codec::usize_to_u64(self.block_size + TRAILER_SIZE))
    }

    fn write_slot(&mut self, idx: usize, data: &[u8], alloc: bool) -> Result<(), FileError> {
        let offset = self.slot_offset(idx);
        self.file.write_all_at(data, offset)?;
        let mut trailer = [0u8; TRAILER_SIZE];
        trailer[..4].copy_from_slice(&codec::crc32(data).to_le_bytes());
        trailer[4] = u8::from(alloc);
        self.file
            .write_all_at(&trailer, offset + codec::usize_to_u64(data.len()))?;
        Ok(())
    }

    fn read_trailer(&self, idx: usize) -> Result<(u32, u8), FileError> {
        let offset = self.slot_offset(idx) + codec::usize_to_u64(self.block_size);
        let mut trailer = [0u8; TRAILER_SIZE];
        self.read_exact_or_short(idx, &mut trailer, offset)?;
        let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        Ok((crc, trailer[4]))
    }

    /// Positioned exact read of `buf` at `offset`, typing a premature end
    /// of file as [`FileError::ShortBlock`] for slot `idx`. Positioned I/O
    /// keeps concurrent snapshot readers off a shared cursor.
    fn read_exact_or_short(
        &self,
        idx: usize,
        buf: &mut [u8],
        offset: u64,
    ) -> Result<(), FileError> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self
                .file
                .read_at(&mut buf[filled..], offset + codec::usize_to_u64(filled))?;
            if n == 0 {
                return Err(FileError::ShortBlock {
                    index: idx,
                    got: filled,
                    want: buf.len(),
                });
            }
            filled += n;
        }
        Ok(())
    }

    /// Append a fresh zero-filled block slot; a failed write adds none.
    pub fn push_zeroed(&mut self) -> Result<(), FileError> {
        let idx = self.allocated.len();
        let zeros = vec![0u8; self.block_size];
        self.write_slot(idx, &zeros, true)?;
        self.allocated.push(true);
        Ok(())
    }

    /// Re-allocate a freed slot, zeroing its contents; a failed write
    /// leaves it free.
    pub fn reuse_zeroed(&mut self, idx: usize) -> Result<(), FileError> {
        assert!(!self.allocated[idx], "reuse of a live block");
        let zeros = vec![0u8; self.block_size];
        self.write_slot(idx, &zeros, true)?;
        self.allocated[idx] = true;
        Ok(())
    }

    /// Mark slot `idx` free, persisting the trailer flag so a reopen sees
    /// the hole; the data bytes stay on disk until reuse. A failed write
    /// leaves it allocated.
    pub fn deallocate(&mut self, idx: usize) -> Result<(), FileError> {
        let offset = self.slot_offset(idx) + codec::usize_to_u64(self.block_size);
        self.file.write_all_at(&[0u8; TRAILER_SIZE], offset)?;
        self.allocated[idx] = false;
        Ok(())
    }

    /// Read and checksum-verify the block at slot `idx`.
    pub fn read(&self, idx: usize, block_size: usize) -> Result<Box<[u8]>, FileError> {
        if !self.is_allocated(idx) {
            return Err(FileError::Unallocated(idx));
        }
        let mut buf = vec![0u8; block_size];
        self.read_exact_or_short(idx, &mut buf, self.slot_offset(idx))?;
        let (crc, _) = self.read_trailer(idx)?;
        if codec::crc32(&buf) != crc {
            return Err(FileError::Checksum(idx));
        }
        Ok(buf.into_boxed_slice())
    }

    /// Write `data` and a fresh trailer over the block at slot `idx`.
    pub fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), FileError> {
        if !self.is_allocated(idx) {
            return Err(FileError::Unallocated(idx));
        }
        self.write_slot(idx, data, true)
    }

    /// Torn-write mode: persist only `prefix` (a strict prefix of the block)
    /// and leave the trailer untouched, so the stored checksum goes stale —
    /// the crash-injection model of a partial sector write.
    pub fn write_torn(&mut self, idx: usize, prefix: &[u8]) -> Result<(), FileError> {
        if !self.is_allocated(idx) {
            return Err(FileError::Unallocated(idx));
        }
        self.file.write_all_at(prefix, self.slot_offset(idx))?;
        Ok(())
    }

    /// Raw block bytes plus the *stored* checksum, without verification —
    /// for crash-recovery inspection of possibly-torn slots.
    pub fn raw(&self, idx: usize, block_size: usize) -> Option<(Box<[u8]>, u32)> {
        if !self.is_allocated(idx) {
            return None;
        }
        let mut buf = vec![0u8; block_size];
        if self
            .read_exact_or_short(idx, &mut buf, self.slot_offset(idx))
            .is_err()
        {
            return None;
        }
        let (crc, _) = self.read_trailer(idx).ok()?;
        Some((buf.into_boxed_slice(), crc))
    }
}

/// Validate the 16-byte header of the pager file behind `file` against the
/// caller's `block_size`; returns the file length.
fn read_header(file: &File, block_size: usize) -> Result<u64, FileError> {
    let file_len = file.file_len()?;
    if file_len < HEADER_SIZE {
        return Err(FileError::BadHeader(format!(
            "file is {file_len} bytes, smaller than the {HEADER_SIZE}-byte header"
        )));
    }
    let mut header = [0u8; 16];
    RawFile::read_exact_at(file, &mut header, 0)?;
    if header[..8] != FILE_MAGIC {
        return Err(FileError::BadHeader("magic bytes do not match".into()));
    }
    let file_bs = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    if file_bs != codec::usize_to_u64(block_size) {
        return Err(FileError::BlockSizeMismatch {
            file: file_bs,
            requested: block_size,
        });
    }
    Ok(file_len)
}

/// Crash-tolerant scan of a pager file into a [`DiskImage`]: the
/// post-mortem counterpart of [`FileStore::open`]. Where `open` rejects a
/// trailing partial slot (a reopen wants a well-formed file), this scan
/// *expects* process death mid-write and classifies instead of rejecting:
///
/// - full slots with a live trailer flag become blocks carrying their
///   *stored* checksum (possibly stale — a torn page recovery must repair
///   from the log);
/// - full slots with a zero flag are holes;
/// - a trailing partial slot (the write the crash interrupted) becomes a
///   zero-padded block with its surviving trailer prefix, so its stale
///   checksum flags it torn rather than silently decoding.
///
/// WAL recovery then either redoes a committed record over each torn slot
/// or truncates it away as an uncommitted eager allocation; a torn slot
/// with neither cover fails recovery loudly.
pub fn recover_image(path: &Path, block_size: usize) -> Result<DiskImage, FileError> {
    let file = OpenOptions::new().read(true).open(path)?;
    let file_len = read_header(&file, block_size)?;
    let slot = codec::usize_to_u64(block_size + TRAILER_SIZE);
    let payload = file_len - HEADER_SIZE;
    let slots = codec::u64_to_index(payload / slot);
    let rem = codec::u64_to_index(payload % slot);
    let mut blocks = Vec::with_capacity(slots + usize::from(rem > 0));
    let mut buf = vec![0u8; block_size + TRAILER_SIZE];
    for idx in 0..slots {
        let offset = HEADER_SIZE + codec::usize_to_u64(idx) * slot;
        RawFile::read_exact_at(&file, &mut buf, offset)?;
        let (data, trailer) = buf.split_at(block_size);
        let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if trailer[4] == 0 {
            blocks.push(None);
        } else {
            blocks.push(Some(DiskBlock {
                data: data.to_vec().into_boxed_slice(),
                crc,
            }));
        }
    }
    if rem > 0 {
        // The interrupted final write: keep whatever prefix landed, padded
        // with zeros. Missing trailer bytes read as zero, so a slot whose
        // trailer never landed carries a zero (stale) checksum.
        let offset = HEADER_SIZE + codec::usize_to_u64(slots) * slot;
        let mut partial = vec![0u8; block_size + TRAILER_SIZE];
        RawFile::read_exact_at(&file, &mut partial[..rem], offset)?;
        let (data, trailer) = partial.split_at(block_size);
        let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        blocks.push(Some(DiskBlock {
            data: data.to_vec().into_boxed_slice(),
            crc,
        }));
    }
    Ok(DiskImage { block_size, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultFile, FileFaultPlan, Pager, PagerConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("boxes-pager-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn file_backend_roundtrips() {
        let path = temp_path("roundtrip");
        {
            let pager = Pager::new(PagerConfig::with_block_size(128).backed_by_file(&path));
            let a = pager.alloc().unwrap();
            let b = pager.alloc().unwrap();
            pager.write(a, &[7u8; 128]).unwrap();
            pager.write(b, &[9u8; 128]).unwrap();
            assert_eq!(pager.read(a).unwrap()[0], 7);
            assert_eq!(pager.read(b).unwrap()[127], 9);
            pager.free(a).unwrap();
            let c = pager.alloc().unwrap();
            assert_eq!(c, a);
            assert!(
                pager.read(c).unwrap().iter().all(|&x| x == 0),
                "recycled = zeroed"
            );
            assert_eq!(pager.allocated_blocks(), 2);
            assert_eq!(pager.stats().reads, 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_runs_a_whole_btree() {
        // Smoke: the store behaves identically under a real workload by
        // writing interleaved patterns across many blocks.
        let path = temp_path("many");
        {
            let pager = Pager::new(PagerConfig::with_block_size(64).backed_by_file(&path));
            let ids: Vec<_> = (0..100).map(|_| pager.alloc().unwrap()).collect();
            for (i, &id) in ids.iter().enumerate() {
                pager.write(id, &[i as u8; 64]).unwrap();
            }
            for (i, &id) in ids.iter().enumerate().rev() {
                assert_eq!(pager.read(id).unwrap()[13], i as u8);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A pager over a fresh store whose handle injects `plan`. Each slot
    /// write is two writes of the handle: the data, then the trailer.
    fn faulty_pager(path: &Path, plan: FileFaultPlan) -> crate::SharedPager {
        let mut store = FileStore::create(path, 64).expect("create");
        let file = OpenOptions::new().read(true).write(true).open(path);
        store.file = Box::new(FaultFile::new(file.expect("reopen"), plan));
        let backend = crate::Backend::File(store);
        std::sync::Arc::new(Pager {
            block_size: 64,
            table: std::sync::Arc::new(crate::table::PageTable::new()),
            inner: std::sync::Mutex::new(crate::PagerInner::new(
                backend,
                crate::BufferPool::disabled(),
            )),
            view: None,
            trace: boxes_trace::Trace::new(),
        })
    }

    #[test]
    fn eio_on_a_block_write_is_retried() {
        let path = temp_path("eio-write");
        // Writes 1-2 zero-fill the new slot; write 3 is the block's data.
        let plan = FileFaultPlan {
            eio_write_at: Some(3),
            ..FileFaultPlan::default()
        };
        let pager = faulty_pager(&path, plan);
        let id = pager.alloc().expect("alloc");
        pager
            .write(id, &[0x5Au8; 64])
            .expect("the retry rewrites the block");
        assert_eq!(pager.stats().retries, 1);
        assert_eq!(pager.read(id).expect("read")[..], [0x5Au8; 64]);
        assert!(pager.health().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eio_on_a_zero_fill_fails_the_alloc() {
        let path = temp_path("eio-alloc");
        let plan = FileFaultPlan {
            eio_write_at: Some(1),
            ..FileFaultPlan::default()
        };
        let pager = faulty_pager(&path, plan);
        assert_eq!(
            pager.alloc(),
            Err(crate::PagerError::Io {
                block: crate::BlockId(0),
                attempts: 1
            })
        );
        assert_eq!(pager.allocated_blocks(), 0, "no slot was allocated");
        assert_eq!(pager.alloc(), Ok(crate::BlockId(0)), "the slot is reused");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn file_backend_rejects_stale_reads() {
        let path = temp_path("stale");
        let pager = Pager::new(PagerConfig::with_block_size(64).backed_by_file(&path));
        let a = pager.alloc().unwrap();
        pager.free(a).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::fs::remove_file(&path).ok();
        }));
        pager.read(a).unwrap();
    }

    #[test]
    fn read_of_deallocated_slot_is_typed() {
        let path = temp_path("typed-unalloc");
        let mut store = FileStore::create(&path, 64).expect("create");
        store.push_zeroed().expect("append");
        store.deallocate(0).expect("free");
        match store.read(0, 64) {
            Err(FileError::Unallocated(0)) => {}
            other => panic!("expected Unallocated(0), got {other:?}"),
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_rebuilds_allocation_bitmap_and_data() {
        let path = temp_path("reopen");
        {
            let mut store = FileStore::create(&path, 64).expect("create");
            store.push_zeroed().expect("append"); // slot 0: stays allocated
            store.push_zeroed().expect("append"); // slot 1: freed below
            store.push_zeroed().expect("append"); // slot 2: stays allocated
            store.write(0, &[0xAAu8; 64]).expect("write 0");
            store.write(2, &[0xCCu8; 64]).expect("write 2");
            store.deallocate(1).expect("free");
        }
        {
            let store = FileStore::open(&path, 64).expect("reopen");
            assert_eq!(store.len(), 3);
            assert!(store.is_allocated(0));
            assert!(!store.is_allocated(1), "hole survives reopen");
            assert!(store.is_allocated(2));
            assert_eq!(store.free_indices(), vec![1]);
            assert_eq!(store.read(0, 64).expect("read 0")[5], 0xAA);
            assert_eq!(store.read(2, 64).expect("read 2")[63], 0xCC);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_rejects_wrong_block_size_and_bad_magic() {
        let path = temp_path("reopen-badmeta");
        {
            FileStore::create(&path, 64).expect("create");
        }
        match FileStore::open(&path, 128) {
            Err(FileError::BlockSizeMismatch {
                file: 64,
                requested: 128,
            }) => {}
            other => panic!("expected BlockSizeMismatch, got {:?}", other.err()),
        }
        std::fs::write(&path, b"not a pager file at all").expect("clobber");
        match FileStore::open(&path, 64) {
            Err(FileError::BadHeader(_)) => {}
            other => panic!("expected BadHeader, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_slot_on_disk_is_typed() {
        let path = temp_path("short-slot");
        {
            let mut store = FileStore::create(&path, 64).expect("create");
            store.push_zeroed().expect("append");
        }
        // Chop the file mid-slot: header + half a block.
        let bytes = std::fs::read(&path).expect("read file");
        std::fs::write(&path, &bytes[..16 + 32]).expect("truncate");
        match FileStore::open(&path, 64) {
            Err(FileError::ShortBlock {
                index: 0,
                got: 32,
                want: 72,
            }) => {}
            other => panic!("expected ShortBlock, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_is_detected_by_checksum() {
        let path = temp_path("torn");
        {
            let mut store = FileStore::create(&path, 64).expect("create");
            store.push_zeroed().expect("append");
            store.write(0, &[0x11u8; 64]).expect("full write");
            // Crash model: only the first 20 bytes of the next write land.
            store.write_torn(0, &[0x99u8; 20]).expect("torn write");
            match store.read(0, 64) {
                Err(FileError::Checksum(0)) => {}
                other => panic!("expected Checksum(0), got {other:?}"),
            }
            // Raw access still exposes the torn bytes for recovery.
            let (raw, stored_crc) = store.raw(0, 64).expect("raw");
            assert_eq!(&raw[..20], &[0x99u8; 20]);
            assert_eq!(&raw[20..], &[0x11u8; 44]);
            assert_ne!(codec::crc32(&raw), stored_crc);
        }
        std::fs::remove_file(&path).ok();
    }
}
