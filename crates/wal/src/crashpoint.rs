//! Deterministic, seeded crash injection.
//!
//! A [`CrashClock`] counts *crash points*: WAL record appends, durability
//! barriers, checkpoint rotations (ticked by [`Wal`](crate::Wal)) and every
//! applied backend block write (ticked via [`ClockFault`], the pager's
//! [`FaultInjector`]). Arming the clock at tick `t` stops the disk and the
//! log at the `t`-th crash point through the engine's own fault paths: a
//! fired WAL tick poisons the log, and the fired block write and every
//! later one fail, so the pager parks its frames and degrades. Nothing
//! unwinds: the workload returns, the harness reads [`CrashClock::fired`]
//! and recovers from the surviving disk image plus the durable log.
//!
//! The fired block write either *tears* (a prefix persists with a stale
//! checksum) or is lost cleanly, decided deterministically from the seed
//! and the tick number, so a sweep over all ticks exercises both shapes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxes_pager::codec;
// One mixer family across crash clocks and fault plans: crash points and
// disk faults drawn for the same seed never accidentally correlate by
// using different generators.
use boxes_pager::{splitmix64, BlockId, FaultInjector, WriteFault};

/// Counts crash points and stops the write path at an armed tick.
///
/// Tick and target counters are atomics (`SeqCst` — crash sweeps care about
/// determinism, not throughput), so clocks can be shared across threads
/// behind an [`Arc`] like every other storage-core handle.
pub struct CrashClock {
    seed: u64,
    ticks: AtomicU64,
    /// Armed crash tick; `u64::MAX` means disarmed (ticks never get there).
    target: AtomicU64,
}

/// Sentinel for a disarmed [`CrashClock`] target.
const DISARMED: u64 = u64::MAX;

impl CrashClock {
    /// New clock; disarmed (counting only) until [`CrashClock::arm`].
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            seed,
            ticks: AtomicU64::new(0),
            target: AtomicU64::new(DISARMED),
        })
    }

    /// Crash at the `target`-th crash point from now (1-based, counting
    /// continues from the current tick).
    pub fn arm(&self, target: u64) {
        self.target
            .store(self.ticks.load(Ordering::SeqCst) + target, Ordering::SeqCst);
    }

    /// Crash points seen so far. Run a workload once disarmed to learn the
    /// sweep bound, then re-run armed at each tick `1..=ticks()`.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }

    /// Whether the armed crash point has been reached. A fired clock stays
    /// fired: the modeled process is dead from that tick on.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.ticks() >= self.target.load(Ordering::SeqCst)
    }

    /// Count one crash point, returning its 1-based number.
    fn advance(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Count one crash point; returns whether the clock has fired, at this
    /// tick or an earlier one.
    pub fn tick(&self) -> bool {
        self.advance() >= self.target.load(Ordering::SeqCst)
    }

    /// Deterministic per-tick hash, for tear decisions.
    fn mix(&self, tick: u64) -> u64 {
        splitmix64(self.seed ^ tick.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Adapter exposing a [`CrashClock`] as the pager's [`FaultInjector`]: each
/// applied block write is one crash point. The fired write tears the block
/// (odd hash: a [`WriteFault::ShortWrite`] of a strict prefix) or is lost
/// cleanly (even hash: [`WriteFault::PersistentError`]); every later write
/// fails too, so the pager's retries run out and it parks the frames.
pub struct ClockFault {
    clock: Arc<CrashClock>,
    block_size: usize,
}

impl ClockFault {
    /// Wrap `clock` for a pager with the given block size.
    pub fn new(clock: Arc<CrashClock>, block_size: usize) -> Arc<Self> {
        Arc::new(Self { clock, block_size })
    }
}

impl FaultInjector for ClockFault {
    fn on_block_write(&self, _id: BlockId) -> WriteFault {
        let now = self.clock.advance();
        let target = self.clock.target.load(Ordering::SeqCst);
        if now < target {
            return WriteFault::Proceed;
        }
        let hash = self.clock.mix(now);
        if now > target || hash & 1 == 0 {
            return WriteFault::PersistentError;
        }
        // Tear a strict prefix: at least 1 byte short of the full block so
        // the stored checksum is guaranteed stale.
        WriteFault::ShortWrite(codec::u64_to_index(
            (hash >> 1) % codec::usize_to_u64(self.block_size),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_clock_only_counts() {
        let clock = CrashClock::new(7);
        assert!(!clock.tick());
        assert!(!clock.tick());
        assert_eq!(clock.ticks(), 2);
        assert!(!clock.fired());
    }

    #[test]
    fn armed_clock_crashes_at_exact_tick() {
        let clock = CrashClock::new(7);
        assert!(!clock.tick());
        clock.arm(2); // two ticks from now
        assert!(!clock.tick());
        assert!(!clock.fired());
        assert!(clock.tick(), "third tick must fire");
        assert_eq!(clock.ticks(), 3);
        assert!(clock.fired());
    }

    #[test]
    fn fired_clock_stays_fired() {
        let clock = CrashClock::new(7);
        clock.arm(1);
        assert!(clock.tick(), "the armed tick fires");
        assert!(clock.tick(), "the tick after it reports the crash too");
        assert!(clock.fired());
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let decide = |seed: u64, target: u64| {
            let clock = CrashClock::new(seed);
            clock.arm(target);
            let fault = ClockFault::new(clock, 64);
            let mut out = Vec::new();
            for _ in 0..=target {
                out.push(fault.on_block_write(BlockId(0)));
            }
            out
        };
        assert_eq!(decide(11, 5), decide(11, 5));
        let run = decide(11, 5);
        assert!(run[..4].iter().all(|f| *f == WriteFault::Proceed));
        assert!(matches!(
            run[4],
            WriteFault::PersistentError | WriteFault::ShortWrite(_)
        ));
        if let WriteFault::ShortWrite(prefix) = run[4] {
            assert!(prefix < 64);
        }
        assert_eq!(
            run[5],
            WriteFault::PersistentError,
            "every write after the fired one fails"
        );
    }
}
