//! Deterministic, seeded crash injection.
//!
//! A [`CrashClock`] counts *crash points*: WAL record appends, durability
//! barriers, checkpoint rotations (ticked by [`Wal`](crate::Wal)) and every
//! applied backend block write (ticked via [`ClockFault`], the pager's
//! [`FaultInjector`]). Arming the clock at tick `t` kills the write path at
//! exactly the `t`-th crash point by raising
//! [`CrashSignal`](boxes_pager::CrashSignal); harnesses catch it with
//! `std::panic::catch_unwind` and then recover from the surviving disk
//! image plus the durable log.
//!
//! At a block-write crash point the clock also decides — deterministically
//! from its seed and the tick number — whether the in-flight write *tears*
//! (a prefix of the block persists with a stale checksum) or is lost
//! cleanly, so a sweep over all ticks exercises both failure shapes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxes_pager::codec;
// One mixer family across crash clocks and fault plans: crash points and
// disk faults drawn for the same seed never accidentally correlate by
// using different generators.
use boxes_pager::{splitmix64, BlockId, FaultInjector, WriteFault};

/// Counts crash points and kills the write path at an armed tick.
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

    /// Stop crashing; the clock keeps counting.
    pub fn disarm(&self) {
        self.target.store(DISARMED, Ordering::SeqCst);
    }

    /// Crash points seen so far. Run a workload once disarmed to learn the
    /// sweep bound, then re-run armed at each tick `1..=ticks()`.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }

    /// Count one crash point, returning its 1-based number.
    fn advance(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Whether the clock is armed to crash at crash point `now`.
    fn armed_at(&self, now: u64) -> bool {
        self.target.load(Ordering::SeqCst) == now
    }

    /// Count one crash point; raises the crash panic when armed for it.
    #[expect(
        clippy::panic,
        reason = "the crash simulator models process death by raising CrashSignal, which run_to_crash catches"
    )]
    pub fn tick(&self) {
        let now = self.advance();
        if self.armed_at(now) {
            std::panic::panic_any(boxes_pager::CrashSignal);
        }
    }

    /// Deterministic per-tick hash, for tear decisions.
    fn mix(&self, tick: u64) -> u64 {
        splitmix64(self.seed ^ tick.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Adapter exposing a [`CrashClock`] as the pager's [`FaultInjector`]: each
/// applied block write is one crash point, and an armed hit tears the block
/// (odd hash) or drops the write cleanly (even hash).
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
        if !self.clock.armed_at(now) {
            return WriteFault::Proceed;
        }
        let hash = self.clock.mix(now);
        if hash & 1 == 0 {
            WriteFault::Crash
        } else {
            // Tear a strict prefix: at least 1 byte short of the full block
            // so the stored checksum is guaranteed stale.
            let prefix = codec::u64_to_index((hash >> 1) % codec::usize_to_u64(self.block_size));
            WriteFault::TearAndCrash(prefix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_clock_only_counts() {
        let clock = CrashClock::new(7);
        clock.tick();
        clock.tick();
        assert_eq!(clock.ticks(), 2);
    }

    #[test]
    fn armed_clock_crashes_at_exact_tick() {
        let clock = CrashClock::new(7);
        clock.tick();
        clock.arm(2); // two ticks from now
        clock.tick();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clock.tick()));
        assert!(result.is_err(), "third tick must crash");
        assert_eq!(clock.ticks(), 3);
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let decide = |seed: u64, target: u64| {
            let clock = CrashClock::new(seed);
            clock.arm(target);
            let fault = ClockFault::new(clock, 64);
            let mut out = Vec::new();
            for _ in 0..target {
                out.push(fault.on_block_write(BlockId(0)));
            }
            out
        };
        assert_eq!(decide(11, 5), decide(11, 5));
        let last = *decide(11, 5).last().expect("nonempty");
        assert!(matches!(
            last,
            WriteFault::Crash | WriteFault::TearAndCrash(_)
        ));
        if let WriteFault::TearAndCrash(prefix) = last {
            assert!(prefix < 64);
        }
    }
}
