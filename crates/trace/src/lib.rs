//! Deterministic per-operation observability for the BOXes stack.
//!
//! The paper's claims are I/O *cost bounds* — W-BOX O(1) lookup and
//! O(log_B N) amortized insert, B-BOX O(log_B N) lookup and O(1) amortized
//! update — so the unit of observation here is the logical operation, not
//! wall-clock time. This crate provides:
//!
//! * [`Trace`]: one pager's trace. Each `Pager` owns one, and its spans,
//!   its I/O events and its attached WAL's events all land there, so two
//!   pagers in one process never see each other's accounting.
//! * [`OpSpan`]: an RAII span on a [`Trace`], carrying a scheme tag
//!   ("W-BOX", "B-BOX", …) and an op or phase label ("insert", "split",
//!   "lidf", …). Spans nest; the innermost open span owns every counter
//!   event recorded while it is open, and folds its totals into its parent
//!   when it closes.
//! * [`Counter`]: the event vocabulary — block reads/writes/allocs/frees,
//!   retries/repairs/backoff ticks, buffer-pool cache hits, WAL
//!   appends/syncs/checkpoints and log-image replays.
//! * Per-(scheme, op) and per-(scheme, phase) aggregates with log2 I/O
//!   histograms.
//! * [`TraceReport`]: a snapshot with human ([`TraceReport::render_text`])
//!   and JSON ([`TraceReport::to_json`]) export. `cargo xtask analyze
//!   --profile-only` writes one per traced pager to
//!   `target/trace-report.json`.
//!
//! # Determinism
//!
//! There is no wall clock anywhere (library code cannot name `Instant` or
//! `SystemTime`; see `clippy.toml`): time is a logical tick counter,
//! advanced once per recorded event and span transition, so two runs of
//! the same seeded workload produce byte-identical reports. Within one
//! trace, span stacks are *per-thread by key, not thread-local by
//! storage*: the trace's mutex-guarded state keys each stack by
//! `ThreadId`, so a span opened on one thread attributes only events
//! recorded on that thread. Threads may share a trace (lookups take
//! `&self`, so readers can share one scheme). A snapshot view is its own
//! pager with its own trace, so its I/O is attributed there whatever
//! thread runs it. This crate deliberately has zero dependencies so the
//! pager can sit above it.
//!
//! # Accounting identity
//!
//! Instrumented call sites mirror every `IoStats` increment with a
//! [`Trace::record`] call on the pager's own trace, so for any interval:
//!
//! ```text
//! trace.attributed() + trace.unattributed() == pager.stats().since(before)
//! ```
//!
//! holds counter-by-counter, and `unattributed()` stays zero as long as
//! every pager touch happens under an open span. The `--profile-only`
//! analyze pass checks this pager by pager, and fails if scheme hot paths
//! leak unattributed I/O.

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

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

/// Number of distinct [`Counter`] kinds.
pub const COUNTER_KINDS: usize = 12;

/// One kind of recorded event. The first seven mirror
/// `boxes_pager::IoStats` field-for-field (that pairing is what the
/// accounting identity is checked against); the rest cover the buffer
/// pool and the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A charged pager block read (`IoStats::reads`).
    BlockRead,
    /// A charged pager block write (`IoStats::writes`).
    BlockWrite,
    /// A pager block allocation (`IoStats::allocs`).
    Alloc,
    /// A pager block free (`IoStats::frees`).
    Free,
    /// A retried backend I/O attempt (`IoStats::retries`).
    Retry,
    /// A journal read-repair of a corrupt block (`IoStats::repairs`).
    Repair,
    /// Deterministic backoff/latency ticks (`IoStats::backoff_ticks`).
    BackoffTicks,
    /// A read served by the buffer pool without a charged I/O.
    CacheHit,
    /// A WAL commit record appended to the log.
    WalAppend,
    /// A WAL sync barrier (group-commit flush).
    WalSync,
    /// A WAL checkpoint (log rotation onto a fold record).
    WalCheckpoint,
    /// A block image reconstructed by replaying the WAL (read-repair
    /// source, i.e. a log replay).
    WalReplay,
}

impl Counter {
    /// Stable snake_case name used in JSON keys and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::BlockRead => "reads",
            Counter::BlockWrite => "writes",
            Counter::Alloc => "allocs",
            Counter::Free => "frees",
            Counter::Retry => "retries",
            Counter::Repair => "repairs",
            Counter::BackoffTicks => "backoff_ticks",
            Counter::CacheHit => "cache_hits",
            Counter::WalAppend => "wal_appends",
            Counter::WalSync => "wal_syncs",
            Counter::WalCheckpoint => "wal_checkpoints",
            Counter::WalReplay => "wal_replays",
        }
    }

    /// All counter kinds in report order.
    #[must_use]
    pub fn all() -> [Counter; COUNTER_KINDS] {
        [
            Counter::BlockRead,
            Counter::BlockWrite,
            Counter::Alloc,
            Counter::Free,
            Counter::Retry,
            Counter::Repair,
            Counter::BackoffTicks,
            Counter::CacheHit,
            Counter::WalAppend,
            Counter::WalSync,
            Counter::WalCheckpoint,
            Counter::WalReplay,
        ]
    }
}

/// A bundle of per-kind event totals. Field order mirrors [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Charged pager block reads.
    pub reads: u64,
    /// Charged pager block writes.
    pub writes: u64,
    /// Pager block allocations.
    pub allocs: u64,
    /// Pager block frees.
    pub frees: u64,
    /// Retried backend I/O attempts.
    pub retries: u64,
    /// Journal read-repairs.
    pub repairs: u64,
    /// Deterministic backoff/latency ticks.
    pub backoff_ticks: u64,
    /// Buffer-pool hits (reads served without a charged I/O).
    pub cache_hits: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL sync barriers.
    pub wal_syncs: u64,
    /// WAL checkpoints.
    pub wal_checkpoints: u64,
    /// WAL log-image replays (read-repair reconstructions).
    pub wal_replays: u64,
}

impl TraceCounters {
    /// Value of one counter kind.
    #[must_use]
    pub fn get(&self, kind: Counter) -> u64 {
        match kind {
            Counter::BlockRead => self.reads,
            Counter::BlockWrite => self.writes,
            Counter::Alloc => self.allocs,
            Counter::Free => self.frees,
            Counter::Retry => self.retries,
            Counter::Repair => self.repairs,
            Counter::BackoffTicks => self.backoff_ticks,
            Counter::CacheHit => self.cache_hits,
            Counter::WalAppend => self.wal_appends,
            Counter::WalSync => self.wal_syncs,
            Counter::WalCheckpoint => self.wal_checkpoints,
            Counter::WalReplay => self.wal_replays,
        }
    }

    fn bump(&mut self, kind: Counter, n: u64) {
        let slot = match kind {
            Counter::BlockRead => &mut self.reads,
            Counter::BlockWrite => &mut self.writes,
            Counter::Alloc => &mut self.allocs,
            Counter::Free => &mut self.frees,
            Counter::Retry => &mut self.retries,
            Counter::Repair => &mut self.repairs,
            Counter::BackoffTicks => &mut self.backoff_ticks,
            Counter::CacheHit => &mut self.cache_hits,
            Counter::WalAppend => &mut self.wal_appends,
            Counter::WalSync => &mut self.wal_syncs,
            Counter::WalCheckpoint => &mut self.wal_checkpoints,
            Counter::WalReplay => &mut self.wal_replays,
        };
        *slot = slot.saturating_add(n);
    }

    /// Fold another bundle into this one (saturating).
    pub fn merge(&mut self, other: &TraceCounters) {
        for kind in Counter::all() {
            self.bump(kind, other.get(kind));
        }
    }

    /// Charged block I/O total: reads + writes. This is the quantity the
    /// paper's theorems bound and the one the histograms bucket.
    #[must_use]
    pub fn io_total(&self) -> u64 {
        self.reads.saturating_add(self.writes)
    }

    /// Counter-wise difference against an earlier snapshot (saturating, so
    /// a reset between snapshots yields zeros rather than wrapping).
    #[must_use]
    pub fn since(&self, earlier: &TraceCounters) -> TraceCounters {
        let mut out = TraceCounters::default();
        for kind in Counter::all() {
            out.bump(kind, self.get(kind).saturating_sub(earlier.get(kind)));
        }
        out
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == TraceCounters::default()
    }

    fn json_into(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for kind in Counter::all() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(kind.name());
            out.push_str("\":");
            out.push_str(&self.get(kind).to_string());
        }
        out.push('}');
    }
}

/// Number of log2 buckets in a per-op I/O histogram: bucket `i` counts ops
/// whose charged I/O total `t` satisfies `floor(log2(max(t,1))) == i`,
/// with the last bucket absorbing everything larger.
pub const HIST_BUCKETS: usize = 16;

/// Aggregate over every closed span sharing a (scheme, label) pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpAgg {
    /// Closed spans folded in.
    pub count: u64,
    /// Counter totals across those spans (children included).
    pub totals: TraceCounters,
    /// Largest single-span charged I/O total.
    pub max_io: u64,
    /// log2 histogram of per-span charged I/O totals.
    pub hist: [u64; HIST_BUCKETS],
}

impl OpAgg {
    fn absorb(&mut self, c: &TraceCounters) {
        self.count = self.count.saturating_add(1);
        self.totals.merge(c);
        let io = c.io_total();
        self.max_io = self.max_io.max(io);
        let bucket = log2_bucket(io).min(HIST_BUCKETS - 1);
        self.hist[bucket] = self.hist[bucket].saturating_add(1);
    }
}

fn log2_bucket(v: u64) -> usize {
    let mut b = 0usize;
    let mut x = v;
    while x > 1 {
        x >>= 1;
        b += 1;
    }
    b
}

#[derive(Debug)]
struct Frame {
    id: u64,
    scheme: &'static str,
    label: &'static str,
    phase: bool,
    counters: TraceCounters,
}

/// The state behind one [`Trace`]'s lock. Span stacks are keyed by
/// `ThreadId` rather than living in `thread_local!` storage (a disallowed
/// macro in library code), so the tracer is a single `Sync` value.
#[derive(Debug, Default)]
struct Tracer {
    next_id: u64,
    ticks: u64,
    open_spans: u64,
    attributed: TraceCounters,
    unattributed: TraceCounters,
    ops: BTreeMap<(&'static str, &'static str), OpAgg>,
    phases: BTreeMap<(&'static str, &'static str), OpAgg>,
    out_of_order_closes: u64,
    /// Per-thread span stacks; an entry is removed when its stack drains.
    stacks: HashMap<ThreadId, Vec<Frame>>,
}

impl Tracer {
    fn tick(&mut self) -> u64 {
        self.ticks = self.ticks.saturating_add(1);
        self.ticks
    }

    fn open(&mut self, scheme: &'static str, label: &'static str, phase: bool) -> u64 {
        let tid = std::thread::current().id();
        // Phase sub-spans inherit the scheme tag they run under.
        let scheme = match self.stacks.get(&tid).and_then(|s| s.last()) {
            Some(top) if phase && scheme.is_empty() => top.scheme,
            _ => scheme,
        };
        self.tick();
        self.next_id = self.next_id.saturating_add(1);
        self.open_spans = self.open_spans.saturating_add(1);
        let id = self.next_id;
        self.stacks.entry(tid).or_default().push(Frame {
            id,
            scheme,
            label,
            phase,
            counters: TraceCounters::default(),
        });
        id
    }

    fn close(&mut self, id: u64) {
        // Spans close LIFO in correct code; tolerate (and count) an
        // out-of-order close rather than corrupting the stack. A close for a
        // frame this thread does not own (never possible through the RAII
        // handle) is ignored.
        let tid = std::thread::current().id();
        let Some(stack) = self.stacks.get_mut(&tid) else {
            return;
        };
        let Some(pos) = stack.iter().rposition(|f| f.id == id) else {
            return;
        };
        let out_of_order = pos != stack.len() - 1;
        let frame = stack.remove(pos);
        if let Some(parent) = stack.last_mut() {
            parent.counters.merge(&frame.counters);
        }
        if stack.is_empty() {
            self.stacks.remove(&tid);
        }
        self.tick();
        self.open_spans = self.open_spans.saturating_sub(1);
        if out_of_order {
            self.out_of_order_closes = self.out_of_order_closes.saturating_add(1);
        }
        let map = if frame.phase {
            &mut self.phases
        } else {
            &mut self.ops
        };
        map.entry((frame.scheme, frame.label))
            .or_default()
            .absorb(&frame.counters);
    }

    fn record(&mut self, kind: Counter, n: u64) {
        self.tick();
        let tid = std::thread::current().id();
        match self.stacks.get_mut(&tid).and_then(|s| s.last_mut()) {
            Some(top) => {
                top.counters.bump(kind, n);
                self.attributed.bump(kind, n);
            }
            None => self.unattributed.bump(kind, n),
        }
    }
}

/// One pager's trace: span stacks, attribution tallies, and per-(scheme,
/// op) and per-phase aggregates. Each `Pager` owns
/// one (shared as `Arc<Trace>` with the spans opened on it and with an
/// attached WAL), so concurrent pagers never see each other's events.
///
/// Its lock is a leaf: no method calls out while holding it.
#[derive(Debug, Default)]
pub struct Trace {
    inner: Mutex<Tracer>,
}

impl Trace {
    /// A fresh, empty trace.
    #[must_use]
    pub fn new() -> Arc<Trace> {
        Arc::default()
    }

    /// Acquire the tracer state. Nothing panics while the guard is held
    /// (every update is saturating arithmetic or a map or stack edit), so
    /// the lock is never poisoned in practice; were it poisoned, the
    /// counters would still be whole, so the guard is recovered instead of
    /// turning a trace into a panic.
    fn lock(&self) -> MutexGuard<'_, Tracer> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record `n` events of `kind` against the innermost span open on the
    /// calling thread, or the unattributed tally when none is. The pager
    /// and the WAL call this at the same sites that bump their own stats.
    pub fn record(&self, kind: Counter, n: u64) {
        if n == 0 {
            return;
        }
        self.lock().record(kind, n);
    }

    /// Totals recorded while some span was open.
    #[must_use]
    pub fn attributed(&self) -> TraceCounters {
        self.lock().attributed
    }

    /// Totals recorded with no span open.
    #[must_use]
    pub fn unattributed(&self) -> TraceCounters {
        self.lock().unattributed
    }

    /// Number of currently open spans, across all threads.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        usize::try_from(self.lock().open_spans).unwrap_or(usize::MAX)
    }

    /// Take a [`TraceReport`] snapshot.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let t = self.lock();
        TraceReport {
            ticks: t.ticks,
            open_spans: t.open_spans,
            out_of_order_closes: t.out_of_order_closes,
            attributed: t.attributed,
            unattributed: t.unattributed,
            ops: t
                .ops
                .iter()
                .map(|(&(s, l), agg)| ((s.to_string(), l.to_string()), agg.clone()))
                .collect(),
            phases: t
                .phases
                .iter()
                .map(|(&(s, l), agg)| ((s.to_string(), l.to_string()), agg.clone()))
                .collect(),
        }
    }
}

/// RAII span: open at construction, closed (and folded into its parent)
/// on drop. Bind it to a named local — `let _span = OpSpan::op(...)` —
/// so it lives for the scope; binding to `_` or leaking it defeats
/// attribution (library code denies `clippy::let_underscore_must_use` and
/// `clippy::mem_forget`). The span holds its own handle on the trace, so
/// it borrows nothing from the structure that opened it.
#[derive(Debug)]
#[must_use = "an unbound span closes immediately and attributes nothing"]
pub struct OpSpan {
    trace: Arc<Trace>,
    id: u64,
}

impl OpSpan {
    /// Open a top-level operation span on `trace`: `scheme` tags which
    /// labeling scheme runs the primitive, `op` names it ("lookup",
    /// "insert", "delete", "bulk_load", …).
    pub fn op(trace: &Arc<Trace>, scheme: &'static str, op: &'static str) -> OpSpan {
        OpSpan {
            id: trace.lock().open(scheme, op, false),
            trace: Arc::clone(trace),
        }
    }

    /// Open a phase sub-span on `trace` ("split", "merge", "respace",
    /// "relabel", "rebuild", "lidf", …). The scheme tag is inherited from
    /// the enclosing span.
    pub fn phase(trace: &Arc<Trace>, name: &'static str) -> OpSpan {
        OpSpan {
            id: trace.lock().open("", name, true),
            trace: Arc::clone(trace),
        }
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        self.trace.lock().close(self.id);
    }
}

/// Immutable snapshot of one trace: aggregates and attribution tallies.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Logical tick at snapshot time.
    pub ticks: u64,
    /// Spans still open when the snapshot was taken.
    pub open_spans: u64,
    /// Spans that closed out of LIFO order (should stay 0).
    pub out_of_order_closes: u64,
    /// Totals recorded under some span.
    pub attributed: TraceCounters,
    /// Totals recorded with no span open.
    pub unattributed: TraceCounters,
    /// Per-(scheme, op) aggregates over top-level op spans.
    pub ops: Vec<((String, String), OpAgg)>,
    /// Per-(scheme, phase) aggregates over phase sub-spans.
    pub phases: Vec<((String, String), OpAgg)>,
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                out.push_str("\\u00");
                let v = u32::from(c);
                let hi = (v >> 4) & 0xf;
                let lo = v & 0xf;
                for d in [hi, lo] {
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

fn agg_json_into(scheme: &str, label: &str, agg: &OpAgg, out: &mut String) {
    out.push_str("{\"scheme\":\"");
    json_escape_into(scheme, out);
    out.push_str("\",\"label\":\"");
    json_escape_into(label, out);
    out.push_str("\",\"count\":");
    out.push_str(&agg.count.to_string());
    out.push_str(",\"io_total\":");
    out.push_str(&agg.totals.io_total().to_string());
    out.push_str(",\"max_io\":");
    out.push_str(&agg.max_io.to_string());
    out.push_str(",\"counters\":");
    agg.totals.json_into(out);
    out.push_str(",\"io_hist_log2\":[");
    for (i, v) in agg.hist.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str("]}");
}

impl TraceReport {
    /// Serialize the report as a stable single-line JSON object. The
    /// profile gate writes one per traced pager into the `boxes-trace/4`
    /// document documented in DESIGN.md ("Observability & tracing").
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"ticks\":");
        out.push_str(&self.ticks.to_string());
        out.push_str(",\"open_spans\":");
        out.push_str(&self.open_spans.to_string());
        out.push_str(",\"out_of_order_closes\":");
        out.push_str(&self.out_of_order_closes.to_string());
        out.push_str(",\"attributed\":");
        self.attributed.json_into(&mut out);
        out.push_str(",\"unattributed\":");
        self.unattributed.json_into(&mut out);
        out.push_str(",\"ops\":[");
        for (i, ((s, l), agg)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            agg_json_into(s, l, agg, &mut out);
        }
        out.push_str("],\"phases\":[");
        for (i, ((s, l), agg)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            agg_json_into(s, l, agg, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Render a short human-readable table of the op aggregates.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} ticks, {} open span(s), attributed io {}, unattributed io {}\n",
            self.ticks,
            self.open_spans,
            self.attributed.io_total(),
            self.unattributed.io_total()
        ));
        out.push_str("scheme            op              count   io/op     max  reads  writes\n");
        for ((scheme, label), agg) in &self.ops {
            let per_op = if agg.count == 0 {
                0.0
            } else {
                to_f64(agg.totals.io_total()) / to_f64(agg.count)
            };
            out.push_str(&format!(
                "{scheme:<17} {label:<15} {:>6} {per_op:>7.2} {:>7} {:>6} {:>7}\n",
                agg.count, agg.max_io, agg.totals.reads, agg.totals.writes
            ));
        }
        out
    }
}

#[expect(
    clippy::as_conversions,
    reason = "report rendering only; precision loss above 2^53 is irrelevant"
)]
fn to_f64(v: u64) -> f64 {
    v as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(reads: u64, writes: u64) -> TraceCounters {
        TraceCounters {
            reads,
            writes,
            ..TraceCounters::default()
        }
    }

    #[test]
    fn unattributed_without_span() {
        let trace = Trace::new();
        trace.record(Counter::BlockRead, 2);
        assert_eq!(trace.unattributed(), io(2, 0));
        assert!(trace.attributed().is_zero());
    }

    #[test]
    fn innermost_span_owns_events_and_folds_into_parent() {
        let trace = Trace::new();
        {
            let _op = OpSpan::op(&trace, "W-BOX", "insert");
            trace.record(Counter::BlockRead, 1);
            {
                let _p = OpSpan::phase(&trace, "split");
                trace.record(Counter::BlockWrite, 3);
            }
            trace.record(Counter::BlockWrite, 1);
        }
        let r = trace.report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(trace.attributed(), io(1, 4));
        assert!(trace.unattributed().is_zero());
        // The op aggregate includes the folded-in phase counters.
        let (_, op_agg) = &r.ops[0];
        assert_eq!(op_agg.totals, io(1, 4));
        // The phase shows up under the inherited scheme tag.
        let ((scheme, label), p_agg) = &r.phases[0];
        assert_eq!((scheme.as_str(), label.as_str()), ("W-BOX", "split"));
        assert_eq!(p_agg.totals, io(0, 3));
    }

    #[test]
    fn nested_phases_fold_into_every_ancestor() {
        let trace = Trace::new();
        {
            let _op = OpSpan::op(&trace, "B-BOX", "insert");
            let _outer = OpSpan::phase(&trace, "split");
            trace.record(Counter::BlockRead, 1);
            {
                let _inner = OpSpan::phase(&trace, "relabel");
                trace.record(Counter::BlockWrite, 2);
            }
        }
        let r = trace.report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(r.out_of_order_closes, 0);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.ops[0].1.totals, io(1, 2));
        // Both phases inherit the op's scheme; the outer one holds the
        // inner one's counters too.
        let phase = |label: &str| {
            r.phases
                .iter()
                .find(|((_, l), _)| l == label)
                .map(|((s, _), agg)| (s.clone(), agg.totals))
        };
        assert_eq!(phase("split"), Some(("B-BOX".to_string(), io(1, 2))));
        assert_eq!(phase("relabel"), Some(("B-BOX".to_string(), io(0, 2))));
    }

    #[test]
    fn identity_attributed_plus_unattributed() {
        let trace = Trace::new();
        trace.record(Counter::Alloc, 1);
        {
            let _op = OpSpan::op(&trace, "B-BOX", "delete");
            trace.record(Counter::BlockRead, 5);
            trace.record(Counter::Retry, 2);
        }
        let mut total = trace.attributed();
        total.merge(&trace.unattributed());
        assert_eq!(total.allocs, 1);
        assert_eq!(total.reads, 5);
        assert_eq!(total.retries, 2);
        assert_eq!(
            trace.attributed().allocs,
            0,
            "the alloc ran outside any span"
        );
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(1 << 15), 15);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let trace = Trace::new();
        {
            let _op = OpSpan::op(&trace, "W-BOX", "lookup");
            trace.record(Counter::BlockRead, 2);
            trace.record(Counter::CacheHit, 1);
        }
        let a = trace.report().to_json();
        let b = trace.report().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"ticks\":"));
        assert!(a.contains("\"scheme\":\"W-BOX\""));
        assert!(a.contains("\"cache_hits\":1"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn traces_are_independent_across_threads() {
        let (a, b) = (Trace::new(), Trace::new());
        let _outer = OpSpan::op(&a, "W-BOX", "insert");
        a.record(Counter::BlockWrite, 4);
        let other = Arc::clone(&b);
        std::thread::spawn(move || {
            let _op = OpSpan::op(&other, "W-BOX", "lookup");
            other.record(Counter::BlockRead, 2);
        })
        .join()
        .expect("reader thread");
        // A span open on this thread in `a` attributes nothing in `b`.
        b.record(Counter::BlockRead, 1);
        assert_eq!(a.attributed(), io(0, 4));
        assert_eq!(a.open_spans(), 1);
        assert_eq!(b.attributed(), io(2, 0));
        assert_eq!(b.unattributed(), io(1, 0));
        assert_eq!(b.open_spans(), 0);
    }

    #[test]
    fn out_of_order_close_is_tolerated() {
        let trace = Trace::new();
        let a = OpSpan::op(&trace, "W-BOX", "a");
        let b = OpSpan::op(&trace, "W-BOX", "b");
        trace.record(Counter::BlockRead, 1);
        drop(a);
        trace.record(Counter::BlockWrite, 1);
        drop(b);
        let r = trace.report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(r.out_of_order_closes, 1);
        assert_eq!(trace.attributed(), io(1, 1));
    }
}
