//! The raw-file surface beneath the file backends, plus a fault-wrapping
//! handle that injects disk failures *below* the file layer.
//!
//! Everything the pager's [`FileStore`](crate::FileError) and the WAL's
//! file-backed log store need from the OS is four positioned operations —
//! `read_at`, `write_all_at`, `sync`, `truncate` — expressed as the
//! [`RawFile`] trait. Positioned I/O (`pread`/`pwrite` via
//! `std::os::unix::fs::FileExt`) never moves a shared cursor, so one handle
//! can serve concurrent snapshot readers without interleaving seeks.
//!
//! [`FaultFile`] wraps any [`RawFile`] and injects seeded failures at
//! 512-byte sector granularity: short writes (a sector-aligned prefix
//! persists, the call errors), write EIO (nothing persists), fsync failure
//! (the fsyncgate model: the error is returned **once** and the dirty data
//! is silently dropped — a retry would falsely succeed, which is exactly
//! why the WAL must poison itself instead of retrying), and power-cut
//! (from the cut on, writes are accepted but never persist and every sync
//! fails — the device is gone).

#![expect(
    clippy::disallowed_types,
    reason = "the fault-injection VFS is a blessed disk surface: it sits under the accounted layer"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the fault-injection VFS is a blessed disk surface: it forwards raw writes to the file it wraps"
)]

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Granularity of torn writes and power-cut truncation: one disk sector.
pub const SECTOR_SIZE: usize = 512;

/// Positioned raw-file operations — the only OS surface the file-backed
/// stores use. `Send + Sync` so a store can live behind a shared pager or
/// WAL mutex.
pub trait RawFile: Send + Sync {
    /// Read up to `buf.len()` bytes at absolute `offset`. Returns the
    /// number of bytes read (0 at end of file). Never moves a cursor.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Write all of `buf` at absolute `offset`. Never moves a cursor.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;

    /// Flush file data (and metadata) to stable storage — the fsync
    /// barrier. A failure means the dirty-page state is *unknowable*:
    /// callers must treat unsynced writes as lost, never retry the sync.
    fn sync(&self) -> io::Result<()>;

    /// Current file length in bytes.
    fn file_len(&self) -> io::Result<u64>;

    /// Truncate (or extend with zeros) to exactly `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;

    /// Read exactly `buf.len()` bytes at `offset`, erroring with
    /// [`io::ErrorKind::UnexpectedEof`] if the file ends first.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = self.read_at(
                &mut buf[filled..],
                offset + crate::codec::usize_to_u64(filled),
            )?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "file ended mid-read",
                ));
            }
            filled += n;
        }
        Ok(())
    }
}

impl RawFile for std::fs::File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, buf, offset)
    }

    fn sync(&self) -> io::Result<()> {
        self.sync_all()
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
}

/// A deterministic fault plan for one [`FaultFile`]: each field is a
/// 1-based ordinal of the call (write or sync) at which the fault fires.
/// `None` disables that fault. At most one write fault fires per call;
/// precedence when ordinals collide: power-cut, then EIO, then short
/// write.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileFaultPlan {
    /// The nth `sync` call fails with EIO. fsyncgate semantics: the dirty
    /// data it covered is silently dropped, and *later* syncs succeed —
    /// so a caller that retries the fsync would wrongly conclude the lost
    /// writes are durable.
    pub fail_sync_at: Option<u64>,
    /// The nth write fails with EIO; nothing of it persists.
    pub eio_write_at: Option<u64>,
    /// The nth write persists only a sector-aligned prefix, then errors.
    pub short_write_at: Option<u64>,
    /// From the nth write on, the device is gone: that write persists a
    /// sector-aligned prefix, every later write is accepted but dropped,
    /// and every later sync fails.
    pub power_cut_at: Option<u64>,
}

impl FileFaultPlan {
    /// Derive a one-fault plan from a seed: `splitmix64` picks the fault
    /// kind and a small 1-based ordinal, so a seeded sweep covers all four
    /// fault kinds at varying points.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let h = crate::fault::splitmix64(seed);
        let ordinal = 1 + (h >> 8) % 8;
        let mut plan = Self::default();
        match h % 4 {
            0 => plan.fail_sync_at = Some(1 + (h >> 8) % 4),
            1 => plan.eio_write_at = Some(ordinal),
            2 => plan.short_write_at = Some(ordinal),
            _ => plan.power_cut_at = Some(ordinal),
        }
        plan
    }
}

/// The sector-aligned prefix length of a buffer (counted from the write's
/// own start): what a torn write persists.
pub fn sector_floor(len: usize) -> usize {
    len - (len % SECTOR_SIZE)
}

/// A [`RawFile`] wrapper injecting the [`FileFaultPlan`]'s failures.
/// Counters use `SeqCst` (BX019) and the wrapper is as `Send + Sync` as
/// its inner file, so it can sit under the same locks.
pub struct FaultFile<F> {
    inner: F,
    plan: FileFaultPlan,
    writes: AtomicU64,
    syncs: AtomicU64,
    cut: AtomicBool,
}

impl<F: RawFile> FaultFile<F> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: F, plan: FileFaultPlan) -> Self {
        Self {
            inner,
            plan,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            cut: AtomicBool::new(false),
        }
    }

    /// Total write calls observed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Total sync calls observed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Whether the simulated power cut has fired.
    pub fn power_cut(&self) -> bool {
        self.cut.load(Ordering::SeqCst)
    }

    fn eio(what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }
}

impl<F: RawFile> RawFile for FaultFile<F> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.inner.read_at(buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        if self.cut.load(Ordering::SeqCst) {
            // Device gone: the write is accepted (the caller's buffered
            // model advances) but nothing reaches the media.
            return Ok(());
        }
        let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.power_cut_at == Some(n) {
            self.cut.store(true, Ordering::SeqCst);
            let keep = sector_floor(buf.len());
            if keep > 0 {
                self.inner.write_all_at(&buf[..keep], offset)?;
            }
            return Ok(());
        }
        if self.plan.eio_write_at == Some(n) {
            return Err(Self::eio("EIO on write"));
        }
        if self.plan.short_write_at == Some(n) {
            let keep = sector_floor(buf.len());
            if keep > 0 {
                self.inner.write_all_at(&buf[..keep], offset)?;
            }
            return Err(Self::eio("short write (sector-aligned prefix persisted)"));
        }
        self.inner.write_all_at(buf, offset)
    }

    fn sync(&self) -> io::Result<()> {
        if self.cut.load(Ordering::SeqCst) {
            return Err(Self::eio("sync after power cut"));
        }
        let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.fail_sync_at == Some(n) {
            // fsyncgate: report the failure once and drop the dirty state.
            // The inner sync is NOT called — whatever the OS cache held is
            // in an unknowable state, which we model as "lost". A caller
            // that retried would see the *next* sync succeed and wrongly
            // believe the lost writes are durable.
            return Err(Self::eio("fsync failure (dirty pages dropped)"));
        }
        self.inner.sync()
    }

    fn file_len(&self) -> io::Result<u64> {
        self.inner.file_len()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::fs::File {
        let mut p = std::env::temp_dir();
        p.push(format!("boxes-vfs-test-{name}-{}", std::process::id()));
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&p)
            .expect("temp file");
        std::fs::remove_file(&p).ok();
        f
    }

    #[test]
    fn positioned_io_roundtrips_without_a_cursor() {
        let f = temp_file("roundtrip");
        f.write_all_at(b"hello", 100).expect("write");
        f.write_all_at(b"world", 0).expect("write");
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 100).expect("read");
        assert_eq!(&buf, b"hello");
        f.read_exact_at(&mut buf, 0).expect("read");
        assert_eq!(&buf, b"world");
        assert_eq!(f.file_len().expect("len"), 105);
    }

    #[test]
    fn short_read_at_eof_is_typed() {
        let f = temp_file("eof");
        f.write_all_at(b"abc", 0).expect("write");
        let mut buf = [0u8; 8];
        let err = f.read_exact_at(&mut buf, 0).expect_err("past EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fail_sync_fires_once_then_later_syncs_succeed() {
        let f = FaultFile::new(
            temp_file("fsyncgate"),
            FileFaultPlan {
                fail_sync_at: Some(2),
                ..Default::default()
            },
        );
        f.write_all_at(b"a", 0).expect("write");
        f.sync().expect("sync 1 ok");
        f.sync().expect_err("sync 2 injected failure");
        // The fsyncgate trap: the third sync succeeds even though the
        // second one's window is gone.
        f.sync().expect("sync 3 ok");
        assert_eq!(f.syncs(), 3);
    }

    #[test]
    fn short_write_persists_a_sector_aligned_prefix() {
        let f = FaultFile::new(
            temp_file("short"),
            FileFaultPlan {
                short_write_at: Some(1),
                ..Default::default()
            },
        );
        let buf = vec![7u8; SECTOR_SIZE + 100];
        f.write_all_at(&buf, 0).expect_err("short write errors");
        assert_eq!(f.file_len().expect("len"), SECTOR_SIZE as u64);
    }

    #[test]
    fn power_cut_drops_later_writes_and_fails_later_syncs() {
        let f = FaultFile::new(
            temp_file("cut"),
            FileFaultPlan {
                power_cut_at: Some(2),
                ..Default::default()
            },
        );
        f.write_all_at(&[1u8; SECTOR_SIZE], 0).expect("write 1");
        // Write 2 trips the cut: shorter than a sector, nothing persists.
        f.write_all_at(&[2u8; 10], SECTOR_SIZE as u64)
            .expect("accepted but dropped");
        f.write_all_at(&[3u8; SECTOR_SIZE], SECTOR_SIZE as u64)
            .expect("accepted but dropped");
        assert!(f.power_cut());
        assert_eq!(f.file_len().expect("len"), SECTOR_SIZE as u64);
        f.sync().expect_err("device gone");
    }

    #[test]
    fn seeded_plans_cover_every_fault_kind() {
        let mut kinds = [false; 4];
        for seed in 0..64u64 {
            let plan = FileFaultPlan::from_seed(seed);
            if plan.fail_sync_at.is_some() {
                kinds[0] = true;
            }
            if plan.eio_write_at.is_some() {
                kinds[1] = true;
            }
            if plan.short_write_at.is_some() {
                kinds[2] = true;
            }
            if plan.power_cut_at.is_some() {
                kinds[3] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "all four kinds reachable");
    }
}
