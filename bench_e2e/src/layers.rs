//! Outside-in layer timers for traced runs (`--trace 1`).
//!
//! Nothing here reaches inside the library: the timers wrap the seams the
//! storage stack already exposes. [`TimedJournal`] stands between the
//! pager and its [`Wal`] (the pager's `Journal` hook), and [`TimedStore`]
//! stands between the [`Wal`] and its byte store. The store is wrapped
//! rather than the raw file because `FileLogStore::rotate` swaps in a
//! fresh, unwrapped file handle at every checkpoint. Untraced runs build
//! the same stack without these wrappers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use boxes_core::pager::{BlockId, Journal, JournalAck, TxnRecord};
use boxes_core::wal::{LogStore, StoreError, Wal};

/// Busy time and call count of one call site. Relaxed atomics: the values
/// are statistics that publish no other data, read after the timed thread
/// is joined or between its operations.
#[derive(Default)]
pub struct Timer {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Timer {
    /// Run `f`, charging its wall time to this timer.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Totals so far.
    pub fn read(&self) -> Tally {
        Tally {
            nanos: self.nanos.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// A [`Timer`] reading; subtract two to cost a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Wall time in nanoseconds.
    pub nanos: u64,
    /// Timed calls.
    pub calls: u64,
}

impl Tally {
    fn since(self, earlier: Tally) -> Tally {
        Tally {
            nanos: self.nanos - earlier.nanos,
            calls: self.calls - earlier.calls,
        }
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            nanos: self.nanos + other.nanos,
            calls: self.calls + other.calls,
        }
    }
}

/// Timers for the WAL layer: the journal calls the pager makes and the
/// store calls the WAL makes.
#[derive(Default)]
pub struct WalClock {
    commit: Timer,
    applied: Timer,
    barrier: Timer,
    append: Timer,
    sync: Timer,
    rotate: Timer,
}

/// A reading of every [`WalClock`] timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalTally {
    /// `Journal::commit`: encode, CRC, append, and the group-commit sync.
    pub commit: Tally,
    /// `Journal::applied`: checkpoint fold and rotation.
    pub applied: Tally,
    /// `Journal::barrier`: the publish-time durability barrier.
    pub barrier: Tally,
    /// `LogStore::append`.
    pub append: Tally,
    /// `LogStore::sync` (an fsync on the file store).
    pub sync: Tally,
    /// `LogStore::rotate` (checkpoint rewrite of the log).
    pub rotate: Tally,
}

impl WalTally {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &WalTally) -> WalTally {
        WalTally {
            commit: self.commit.since(earlier.commit),
            applied: self.applied.since(earlier.applied),
            barrier: self.barrier.since(earlier.barrier),
            append: self.append.since(earlier.append),
            sync: self.sync.since(earlier.sync),
            rotate: self.rotate.since(earlier.rotate),
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &WalTally) -> WalTally {
        WalTally {
            commit: self.commit.plus(other.commit),
            applied: self.applied.plus(other.applied),
            barrier: self.barrier.plus(other.barrier),
            append: self.append.plus(other.append),
            sync: self.sync.plus(other.sync),
            rotate: self.rotate.plus(other.rotate),
        }
    }

    /// Time the pager spent inside the journal.
    pub fn journal_nanos(&self) -> u64 {
        self.commit.nanos + self.applied.nanos + self.barrier.nanos
    }

    /// Time the WAL spent inside its byte store.
    pub fn store_nanos(&self) -> u64 {
        self.append.nanos + self.sync.nanos + self.rotate.nanos
    }
}

impl WalClock {
    /// Read every timer.
    pub fn read(&self) -> WalTally {
        WalTally {
            commit: self.commit.read(),
            applied: self.applied.read(),
            barrier: self.barrier.read(),
            append: self.append.read(),
            sync: self.sync.read(),
            rotate: self.rotate.read(),
        }
    }
}

/// The pager's journal hook, timed: forwards every call to the wrapped
/// [`Wal`].
pub struct TimedJournal {
    wal: Arc<Wal>,
    clock: Arc<WalClock>,
}

impl TimedJournal {
    /// Wrap `wal`, charging to `clock`.
    pub fn new(wal: Arc<Wal>, clock: Arc<WalClock>) -> TimedJournal {
        TimedJournal { wal, clock }
    }
}

impl Journal for TimedJournal {
    fn commit(&self, record: &TxnRecord) -> JournalAck {
        self.clock.commit.time(|| self.wal.commit(record))
    }

    fn applied(&self) {
        self.clock.applied.time(|| self.wal.applied());
    }

    fn repair_image(&self, id: BlockId) -> Option<Box<[u8]>> {
        self.wal.repair_image(id)
    }

    fn barrier(&self) -> JournalAck {
        self.clock.barrier.time(|| self.wal.barrier())
    }

    fn healthy(&self) -> bool {
        self.wal.healthy()
    }
}

/// A WAL byte store, timed: forwards every call to the wrapped store.
pub struct TimedStore {
    inner: Box<dyn LogStore>,
    clock: Arc<WalClock>,
}

impl TimedStore {
    /// Wrap `inner`, charging to `clock`.
    pub fn new(inner: Box<dyn LogStore>, clock: Arc<WalClock>) -> TimedStore {
        TimedStore { inner, clock }
    }
}

impl LogStore for TimedStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.clock.append.time(|| self.inner.append(bytes))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.clock.sync.time(|| self.inner.sync())
    }

    fn durable(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.durable()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn pending_len(&self) -> u64 {
        self.inner.pending_len()
    }

    fn rotate(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.clock.rotate.time(|| self.inner.rotate(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_core::wal::{MemLogStore, WalConfig};

    #[test]
    fn timed_stack_counts_every_layer_call() {
        let clock = Arc::new(WalClock::default());
        let store = TimedStore::new(Box::new(MemLogStore::new()), Arc::clone(&clock));
        let config = WalConfig {
            sync_every: 2,
            checkpoint_every: 1,
        };
        let wal = Wal::with_store(64, config, None, Box::new(store));
        let journal = TimedJournal::new(Arc::clone(&wal), Arc::clone(&clock));
        let record = TxnRecord::default();
        assert_eq!(journal.commit(&record), JournalAck::Deferred);
        assert_eq!(journal.commit(&record), JournalAck::Durable);
        journal.applied();
        let t = clock.read();
        assert_eq!(t.commit.calls, 2);
        assert_eq!(t.append.calls, 2);
        assert_eq!(t.sync.calls, 1);
        assert_eq!(t.applied.calls, 1);
        assert_eq!(t.rotate.calls, 1, "checkpoint_every = 1 rotates at once");
        assert_eq!(wal.stats().checkpoints, 1);
        let later = clock.read();
        assert_eq!(later.since(&t), WalTally::default());
    }
}
