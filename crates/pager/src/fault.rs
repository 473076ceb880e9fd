//! Deterministic faulty-disk modelling: seeded fault plans for the pager's
//! [`FaultInjector`](crate::FaultInjector) seam.
//!
//! PR 3's crash injection killed the process at a chosen block write; this
//! module generalizes that seam into a *fault plan* for disks that misbehave
//! without dying: transient and persistent `EIO`, short writes, latency
//! stalls, and silent bit rot. Every decision is a pure function of the plan
//! seed and the attempt counter (the same SplitMix64 mixer the WAL's
//! [`CrashClock`] uses), so a chaos sweep replays bit-for-bit — no wall
//! clock, no OS entropy.
//!
//! The fault taxonomy:
//!
//! | Fault | Site | Duration | Pager response |
//! |-------|------|----------|----------------|
//! | `TransientError` | read/write | `transient_streak` attempts | bounded retries with tick backoff |
//! | `PersistentError` | read/write | forever | read: WAL repair; write: degraded mode |
//! | `ShortWrite` | write | one attempt | prefix persists (stale checksum), retry rewrites |
//! | `BitFlip` | read | permanent media damage | checksum detects, WAL read-repair |
//! | `Latency` | read/write | one attempt | deterministic stall ticks, then proceed |
//!
//! `CrashClock`: [`boxes-wal`](../../boxes_wal/crashpoint/struct.CrashClock.html)

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec;
use crate::{lock_unpoisoned, BlockId, FaultInjector, WriteFault};

/// SplitMix64 — the workspace's standard seeded mixer (shared with the WAL's
/// crash clock so fault plans and crash points draw from one family).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decision returned by a [`FaultInjector`](crate::FaultInjector) for one
/// backend block read attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFault {
    /// Perform the read normally.
    Proceed,
    /// This attempt fails with a transient I/O error; a retry may succeed.
    TransientError,
    /// Every attempt fails: the sector is gone. The pager must reconstruct
    /// the block from the durable log or give up loudly.
    PersistentError,
    /// Media corruption: flip `mask` into the stored byte at `offset`
    /// *before* the read, leaving the stored checksum stale. Models silent
    /// bit rot; the per-block checksum turns it into a detected fault.
    BitFlip {
        /// Byte offset within the block.
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// The read succeeds after a deterministic stall of this many ticks.
    Latency(u64),
}

/// Which I/O path a fault event hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A backend block read attempt.
    Read,
    /// A backend block write attempt.
    Write,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Read => write!(f, "read"),
            FaultSite::Write => write!(f, "write"),
        }
    }
}

/// One injected fault, recorded in the plan's transcript. The chaos pass
/// uploads the transcript as a CI artifact so a failing seed can be replayed
/// from the exact fault history.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// 1-based attempt counter at the fault's site.
    pub attempt: u64,
    /// Read or write path.
    pub site: FaultSite,
    /// The block the attempt addressed.
    pub block: BlockId,
    /// Short fault-kind label (`"transient-eio"`, `"bit-flip"`, …).
    pub kind: &'static str,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} attempt {} block {:?}: {}",
            self.site, self.attempt, self.block, self.kind
        )
    }
}

/// Tuning for a [`FaultPlan`]. All rates are per-65536 probabilities drawn
/// against the seeded hash of each attempt, so `rate = 655` ≈ 1 %.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlanConfig {
    /// Seed for every decision this plan makes.
    pub seed: u64,
    /// Block size of the pager under test (bounds bit-flip offsets).
    pub block_size: usize,
    /// Per-65536 chance that a read attempt hits a transient `EIO`.
    pub read_error_rate: u16,
    /// Per-65536 chance that a write attempt hits a transient `EIO`.
    pub write_error_rate: u16,
    /// Per-65536 chance that a write persists only a prefix (short write).
    pub short_write_rate: u16,
    /// Per-65536 chance that a read finds a freshly flipped bit on media.
    pub bit_flip_rate: u16,
    /// Per-65536 chance of a latency stall on either site.
    pub latency_rate: u16,
    /// Stall length, in deterministic ticks.
    pub latency_ticks: u64,
    /// How many consecutive attempts a transient error lasts before the
    /// sector recovers. A streak within the pager's retry budget is
    /// invisible to callers; past it the fault is effectively persistent.
    pub transient_streak: u32,
}

impl FaultPlanConfig {
    /// A quiet plan (no probabilistic faults) with the given seed — the
    /// starting point for targeted persistent-fault scenarios.
    #[must_use]
    pub fn quiet(seed: u64, block_size: usize) -> Self {
        Self {
            seed,
            block_size,
            read_error_rate: 0,
            write_error_rate: 0,
            short_write_rate: 0,
            bit_flip_rate: 0,
            latency_rate: 0,
            latency_ticks: 3,
            transient_streak: 1,
        }
    }
}

/// A deterministic faulty-disk plan implementing [`FaultInjector`] for both
/// I/O sites. Probabilistic faults are drawn from the seed; persistent
/// faults are scheduled explicitly with [`FaultPlan::fail_writes_to`],
/// [`FaultPlan::fail_all_writes_after`] and [`FaultPlan::fail_reads_of`].
/// Every injected fault is recorded in a transcript for the chaos artifact.
pub struct FaultPlan {
    config: FaultPlanConfig,
    reads_seen: AtomicU64,
    writes_seen: AtomicU64,
    /// Remaining failures of in-progress transient streaks, keyed by
    /// (site, block).
    streaks: Mutex<BTreeMap<(u8, u32), u32>>,
    persistent_write_blocks: Mutex<BTreeSet<u32>>,
    persistent_read_blocks: Mutex<BTreeSet<u32>>,
    /// Write-attempt count past which every write fails persistently;
    /// `u64::MAX` means "never" (disarmed).
    fail_all_writes_after: AtomicU64,
    transcript: Mutex<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// Build a plan from `config`.
    pub fn new(config: FaultPlanConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            reads_seen: AtomicU64::new(0),
            writes_seen: AtomicU64::new(0),
            streaks: Mutex::new(BTreeMap::new()),
            persistent_write_blocks: Mutex::new(BTreeSet::new()),
            persistent_read_blocks: Mutex::new(BTreeSet::new()),
            fail_all_writes_after: AtomicU64::new(u64::MAX),
            transcript: Mutex::new(Vec::new()),
        })
    }

    /// Every write to `id` fails persistently from now on.
    pub fn fail_writes_to(&self, id: BlockId) {
        lock_unpoisoned(&self.persistent_write_blocks).insert(id.0);
    }

    /// Every read of `id` fails persistently from now on.
    pub fn fail_reads_of(&self, id: BlockId) {
        lock_unpoisoned(&self.persistent_read_blocks).insert(id.0);
    }

    /// Schedule a transient streak: the next `attempts` writes to `id` fail
    /// with `TransientError`, then the sector recovers — the targeted way to
    /// exercise the retry path without probabilistic rates.
    pub fn stumble_writes_to(&self, id: BlockId, attempts: u32) {
        lock_unpoisoned(&self.streaks).insert((1u8, id.0), attempts);
    }

    /// Like [`FaultPlan::stumble_writes_to`] for the read site.
    pub fn stumble_reads_of(&self, id: BlockId, attempts: u32) {
        lock_unpoisoned(&self.streaks).insert((0u8, id.0), attempts);
    }

    /// After `n` more write attempts, *all* writes fail persistently — the
    /// disk's write path dies mid-workload (the degraded-mode trigger).
    pub fn fail_all_writes_after(&self, n: u64) {
        self.fail_all_writes_after.store(
            self.writes_seen.load(Ordering::SeqCst) + n,
            Ordering::SeqCst,
        );
    }

    /// Lift every scheduled persistent fault (the "disk replaced" event for
    /// resume scenarios). Probabilistic rates keep applying.
    pub fn heal(&self) {
        lock_unpoisoned(&self.persistent_write_blocks).clear();
        lock_unpoisoned(&self.persistent_read_blocks).clear();
        self.fail_all_writes_after.store(u64::MAX, Ordering::SeqCst);
        lock_unpoisoned(&self.streaks).clear();
    }

    /// Copy of the fault transcript so far.
    #[must_use]
    pub fn events(&self) -> Vec<FaultEvent> {
        lock_unpoisoned(&self.transcript).clone()
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> usize {
        lock_unpoisoned(&self.transcript).len()
    }

    fn record(&self, attempt: u64, site: FaultSite, block: BlockId, kind: &'static str) {
        lock_unpoisoned(&self.transcript).push(FaultEvent {
            attempt,
            site,
            block,
            kind,
        });
    }

    /// Deterministic hash for one attempt at one site.
    fn mix(&self, site: FaultSite, attempt: u64) -> u64 {
        let salt = match site {
            FaultSite::Read => 0x5245_4144u64,
            FaultSite::Write => 0x5752_4954u64,
        };
        splitmix64(self.config.seed ^ salt ^ attempt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Begin (or continue) a transient streak for (site, block). Returns
    /// `true` while the streak has failures left.
    fn streak_active(&self, site: FaultSite, block: BlockId, fresh: bool) -> bool {
        let key = (
            match site {
                FaultSite::Read => 0u8,
                FaultSite::Write => 1u8,
            },
            block.0,
        );
        let mut streaks = lock_unpoisoned(&self.streaks);
        if fresh {
            streaks.insert(key, self.config.transient_streak);
        }
        match streaks.get_mut(&key) {
            Some(remaining) if *remaining > 0 => {
                *remaining -= 1;
                if *remaining == 0 {
                    streaks.remove(&key);
                }
                true
            }
            _ => {
                streaks.remove(&key);
                false
            }
        }
    }
}

impl FaultInjector for FaultPlan {
    fn on_block_write(&self, id: BlockId) -> WriteFault {
        let attempt = self.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let all_dead = attempt > self.fail_all_writes_after.load(Ordering::SeqCst);
        if all_dead || lock_unpoisoned(&self.persistent_write_blocks).contains(&id.0) {
            self.record(attempt, FaultSite::Write, id, "persistent-eio");
            return WriteFault::PersistentError;
        }
        if self.streak_active(FaultSite::Write, id, false) {
            self.record(attempt, FaultSite::Write, id, "transient-eio");
            return WriteFault::TransientError;
        }
        let hash = self.mix(FaultSite::Write, attempt);
        let roll = hash & 0xFFFF;
        let transient = u64::from(self.config.write_error_rate);
        let short = transient + u64::from(self.config.short_write_rate);
        let latency = short + u64::from(self.config.latency_rate);
        if roll < transient {
            self.record(attempt, FaultSite::Write, id, "transient-eio");
            self.streak_active(FaultSite::Write, id, true);
            return WriteFault::TransientError;
        }
        if roll < short {
            // A strict prefix, so the stored checksum is guaranteed stale.
            let prefix =
                codec::u64_to_index((hash >> 16) % codec::usize_to_u64(self.config.block_size));
            self.record(attempt, FaultSite::Write, id, "short-write");
            return WriteFault::ShortWrite(prefix);
        }
        if roll < latency {
            self.record(attempt, FaultSite::Write, id, "latency");
            return WriteFault::Latency(self.config.latency_ticks);
        }
        WriteFault::Proceed
    }

    fn on_block_read(&self, id: BlockId) -> ReadFault {
        let attempt = self.reads_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if lock_unpoisoned(&self.persistent_read_blocks).contains(&id.0) {
            self.record(attempt, FaultSite::Read, id, "persistent-eio");
            return ReadFault::PersistentError;
        }
        if self.streak_active(FaultSite::Read, id, false) {
            self.record(attempt, FaultSite::Read, id, "transient-eio");
            return ReadFault::TransientError;
        }
        let hash = self.mix(FaultSite::Read, attempt);
        let roll = hash & 0xFFFF;
        let transient = u64::from(self.config.read_error_rate);
        let flip = transient + u64::from(self.config.bit_flip_rate);
        let latency = flip + u64::from(self.config.latency_rate);
        if roll < transient {
            self.record(attempt, FaultSite::Read, id, "transient-eio");
            self.streak_active(FaultSite::Read, id, true);
            return ReadFault::TransientError;
        }
        if roll < flip {
            let offset =
                codec::u64_to_index((hash >> 16) % codec::usize_to_u64(self.config.block_size));
            // Mask is one of the 8 single-bit patterns — never zero.
            let mask = 1u8 << ((hash >> 56) & 7);
            self.record(attempt, FaultSite::Read, id, "bit-flip");
            return ReadFault::BitFlip { offset, mask };
        }
        if roll < latency {
            self.record(attempt, FaultSite::Read, id, "latency");
            return ReadFault::Latency(self.config.latency_ticks);
        }
        ReadFault::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(config: FaultPlanConfig) -> Arc<FaultPlan> {
        FaultPlan::new(config)
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = plan(FaultPlanConfig::quiet(1, 64));
        for i in 0..200 {
            assert_eq!(p.on_block_write(BlockId(i)), WriteFault::Proceed);
            assert_eq!(p.on_block_read(BlockId(i)), ReadFault::Proceed);
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = |seed: u64| {
            let mut cfg = FaultPlanConfig::quiet(seed, 64);
            cfg.read_error_rate = 8000;
            cfg.write_error_rate = 8000;
            cfg.bit_flip_rate = 4000;
            cfg.short_write_rate = 4000;
            let p = plan(cfg);
            let mut out = Vec::new();
            for i in 0..100 {
                out.push(format!("{:?}", p.on_block_write(BlockId(i % 7))));
                out.push(format!("{:?}", p.on_block_read(BlockId(i % 7))));
            }
            out
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn transient_streak_fails_exactly_n_consecutive_attempts() {
        let mut cfg = FaultPlanConfig::quiet(7, 64);
        cfg.write_error_rate = u16::MAX; // first roll always starts a streak
        cfg.transient_streak = 3;
        let p = plan(cfg);
        let b = BlockId(5);
        assert_eq!(p.on_block_write(b), WriteFault::TransientError);
        // The streak was seeded with 3 and consumed 1 above; the next two
        // attempts consume the rest without rolling new faults.
        assert_eq!(p.on_block_write(b), WriteFault::TransientError);
        assert_eq!(p.on_block_write(b), WriteFault::TransientError);
        assert_eq!(p.events().len(), 3);
    }

    #[test]
    fn scheduled_persistent_faults_fire_and_heal() {
        let p = plan(FaultPlanConfig::quiet(9, 64));
        let b = BlockId(2);
        p.fail_writes_to(b);
        p.fail_reads_of(b);
        assert_eq!(p.on_block_write(b), WriteFault::PersistentError);
        assert_eq!(p.on_block_write(BlockId(3)), WriteFault::Proceed);
        assert_eq!(p.on_block_read(b), ReadFault::PersistentError);
        p.heal();
        assert_eq!(p.on_block_write(b), WriteFault::Proceed);
        assert_eq!(p.on_block_read(b), ReadFault::Proceed);
    }

    #[test]
    fn fail_all_writes_after_kills_the_write_path() {
        let p = plan(FaultPlanConfig::quiet(11, 64));
        p.fail_all_writes_after(2);
        assert_eq!(p.on_block_write(BlockId(0)), WriteFault::Proceed);
        assert_eq!(p.on_block_write(BlockId(1)), WriteFault::Proceed);
        assert_eq!(p.on_block_write(BlockId(2)), WriteFault::PersistentError);
        assert_eq!(p.on_block_write(BlockId(3)), WriteFault::PersistentError);
    }

    #[test]
    fn bit_flip_masks_are_single_nonzero_bits() {
        let mut cfg = FaultPlanConfig::quiet(13, 64);
        cfg.bit_flip_rate = u16::MAX;
        let p = plan(cfg);
        for i in 0..50 {
            match p.on_block_read(BlockId(i)) {
                ReadFault::BitFlip { offset, mask } => {
                    assert!(offset < 64);
                    assert_eq!(mask.count_ones(), 1);
                }
                other => panic!("expected BitFlip, got {other:?}"),
            }
        }
    }

    #[test]
    fn transcript_records_every_injection() {
        let p = plan(FaultPlanConfig::quiet(15, 64));
        p.fail_writes_to(BlockId(4));
        let _ = p.on_block_write(BlockId(4));
        let events = p.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].site, FaultSite::Write);
        assert_eq!(events[0].block, BlockId(4));
        assert_eq!(events[0].kind, "persistent-eio");
        assert!(format!("{}", events[0]).contains("persistent-eio"));
    }
}
