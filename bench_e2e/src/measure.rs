//! The timed region: per-operation latency, I/O and WAL time, collected by
//! one [`Log`] per client thread.

use std::time::Instant;

use boxes_core::pager::{IoStats, Pager, PagerError};

use crate::layers::{WalClock, WalTally};

/// The two operation classes, kept apart so a gain on one cannot hide a
/// loss on the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A read: one ancestry check (four label lookups).
    Query = 0,
    /// A write: one element insert or delete.
    Update = 1,
}

/// Length of the slices the timed phase is cut into; the timing metrics
/// are medians over slices, so a burst of outside load moves one slice,
/// not the result.
pub const SLICE_S: f64 = 1.0;

/// Everything one client thread measured.
pub struct Log {
    /// Operations whose I/O counts toward the exact `io_per_op`: a fixed
    /// prefix, so the count repeats exactly for a seed however long the
    /// run lasts.
    window: usize,
    /// Start of the timed phase, shared by every thread's log.
    start: Instant,
    /// Operations done by [`Kind`] at the end of each complete slice.
    pub marks: Vec<[usize; 2]>,
    /// Latencies in microseconds, by [`Kind`], in completion order.
    pub lat_us: [Vec<f64>; 2],
    /// Block I/O by [`Kind`].
    pub io: [IoStats; 2],
    /// Block I/O of the first `window` operations.
    pub window_io: IoStats,
    /// WAL timer deltas inside operations, by [`Kind`] (traced runs).
    pub wal: [WalTally; 2],
    /// Operations that returned an error.
    pub failed: u64,
    /// Answers that disagreed with the generator's tree.
    pub wrong: u64,
    /// The first few wrong answers, described.
    pub wrong_examples: Vec<String>,
    /// FNV-1a digest of the inputs of the operations in the exact window
    /// (the seeded op stream; later operations depend on the time).
    pub digest: u64,
}

impl Log {
    /// Empty log for a phase that began at `start`, whose first `window`
    /// operations form the exact I/O window.
    pub fn new(window: usize, start: Instant) -> Log {
        Log {
            window,
            start,
            marks: Vec::new(),
            lat_us: [Vec::new(), Vec::new()],
            io: [IoStats::default(); 2],
            window_io: IoStats::default(),
            wal: [WalTally::default(); 2],
            failed: 0,
            wrong: 0,
            wrong_examples: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Operations done so far.
    pub fn ops(&self) -> usize {
        self.lat_us[0].len() + self.lat_us[1].len()
    }

    /// Operations in the exact I/O window.
    pub fn window_ops(&self) -> usize {
        self.ops().min(self.window)
    }

    /// True right after the operation that closes the exact window.
    pub fn window_just_closed(&self) -> bool {
        self.ops() == self.window
    }

    /// Whether the exact window is complete.
    pub fn window_full(&self) -> bool {
        self.ops() >= self.window
    }

    /// Seconds since the timed phase began.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Mix the next operation's input `value` into the op-stream digest.
    pub fn note(&mut self, value: u64) {
        if self.window_full() {
            return;
        }
        for byte in value.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Run one operation `f` against `pager`'s stack and record its
    /// latency, I/O and (with `clock`) WAL time. `None` when it failed.
    pub fn op<T>(
        &mut self,
        kind: Kind,
        pager: &Pager,
        clock: Option<&WalClock>,
        f: impl FnOnce() -> Result<T, PagerError>,
    ) -> Option<T> {
        let in_window = !self.window_full();
        let io_before = pager.stats();
        let wal_before = clock.map(WalClock::read);
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        let io = pager.stats().since(&io_before);
        let k = kind as usize;
        self.lat_us[k].push(us);
        let now = self.elapsed_s();
        while now >= (self.marks.len() + 1) as f64 * SLICE_S {
            self.marks
                .push([self.lat_us[0].len(), self.lat_us[1].len()]);
        }
        self.io[k] = self.io[k] + io;
        if in_window {
            self.window_io = self.window_io + io;
        }
        if let (Some(clock), Some(before)) = (clock, wal_before) {
            self.wal[k] = self.wal[k].plus(&clock.read().since(&before));
        }
        match out {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Record a wrong answer (the first few are kept verbatim).
    pub fn record_wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 4 {
            self.wrong_examples.push(what);
        }
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`:
/// the high-water mark less the file-backed pages resident now. Those are
/// mostly this executable's code, and how much of it is mapped depends on
/// the page cache, not on the program.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")) * 1024.0 / 1e6
}
