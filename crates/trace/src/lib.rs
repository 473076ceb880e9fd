//! Deterministic per-operation observability for the BOXes stack.
//!
//! The paper's claims are I/O *cost bounds* — W-BOX O(1) lookup and
//! O(log_B N) amortized insert, B-BOX O(log_B N) lookup and O(1) amortized
//! update — so the unit of observation here is the logical operation, not
//! wall-clock time. This crate provides:
//!
//! * [`OpSpan`]: an RAII span carrying a scheme tag ("W-BOX", "B-BOX", …)
//!   and an op or phase label ("insert", "split", "lidf", …). Spans nest;
//!   the innermost open span owns every counter event recorded while it is
//!   open, and folds its totals into its parent when it closes.
//! * [`Counter`]: the event vocabulary — block reads/writes/allocs/frees,
//!   retries/repairs/backoff ticks, buffer-pool cache hits, WAL
//!   appends/syncs/checkpoints and log-image replays.
//! * A bounded ring buffer of [`SpanEvent`]s (closed spans) plus
//!   per-(scheme, op) aggregates with log2 I/O histograms.
//! * [`TraceReport`]: a snapshot with human ([`TraceReport::render_text`])
//!   and JSON ([`TraceReport::to_json`]) export. The JSON string is what
//!   `cargo xtask analyze --profile-only` writes to
//!   `target/trace-report.json`.
//!
//! # Determinism
//!
//! There is no wall clock anywhere (lint rule BX007): time is a logical
//! tick counter advanced once per recorded event and span transition, so
//! two runs of the same seeded workload produce byte-identical reports.
//! Span stacks are *per-thread by key, not thread-local by storage*: the
//! mutex-guarded registry keys each stack by `ThreadId`, so a span opened
//! on one thread attributes only events recorded on that thread, while
//! every tally, aggregate, and the event ring live in the same global —
//! a report taken on the main thread accounts for reader threads too and
//! the identity below holds across threads. Single-threaded runs see the
//! exact same tick sequence as the old thread-local tracer. On top of the
//! stacks sits *session attribution*: a [`TraceSession`] handle binds a
//! thread to a session id, root spans opened on a bound thread inherit
//! it, and every recorded event is tallied per session — this is what
//! lets `boxes-session` prove each snapshot's logical I/O separately
//! while the global identity still closes. This crate deliberately has
//! zero dependencies so the pager can sit above it.
//!
//! # Accounting identity
//!
//! Instrumented call sites mirror every `IoStats` increment with a
//! [`record`] call, so for any interval:
//!
//! ```text
//! attributed() + unattributed() == IoStats::since(before) delta
//! ```
//!
//! holds counter-by-counter, and `unattributed()` stays zero as long as
//! every pager touch happens under an open span. The `--profile-only`
//! analyze pass fails if scheme hot paths leak unattributed I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
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

/// A closed span, as captured in the bounded event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span at open time, or 0 for a root span.
    pub parent: u64,
    /// Nesting depth at open time (0 = root).
    pub depth: u64,
    /// Scheme tag ("W-BOX", "B-BOX", "LIDF", …); phases inherit the
    /// enclosing span's tag.
    pub scheme: &'static str,
    /// Op or phase label ("insert", "split", "lidf", …).
    pub label: &'static str,
    /// Whether this was a phase sub-span rather than a top-level op.
    pub phase: bool,
    /// Logical tick at open.
    pub start_tick: u64,
    /// Logical tick at close.
    pub end_tick: u64,
    /// Counter totals attributed to this span (children folded in).
    pub counters: TraceCounters,
}

struct Frame {
    id: u64,
    parent: u64,
    depth: u64,
    scheme: &'static str,
    label: &'static str,
    phase: bool,
    start_tick: u64,
    /// Owning session id (0 = unbound). Root frames take the opening
    /// thread's binding; child frames inherit their parent's.
    session: u64,
    counters: TraceCounters,
}

/// Per-session tally: label, totals, and whether the RAII handle is
/// still alive.
#[derive(Debug, Clone)]
struct SessionStat {
    label: &'static str,
    open: bool,
    counters: TraceCounters,
}

/// Default bound on the ring buffer of closed-span events.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// The shared registry, span stacks included: stacks are keyed by
/// `ThreadId` inside the one mutex-guarded global rather than living in
/// `thread_local!` storage, so the whole tracer is a single `Sync` value
/// (sync-readiness rule BX018) and session tallies can be bumped in the
/// same critical section that attributes an event to a frame.
#[derive(Default)]
struct Tracer {
    next_id: u64,
    ticks: u64,
    open_spans: u64,
    attributed: TraceCounters,
    unattributed: TraceCounters,
    events: VecDeque<SpanEvent>,
    event_capacity: usize,
    dropped_events: u64,
    ops: BTreeMap<(&'static str, &'static str), OpAgg>,
    phases: BTreeMap<(&'static str, &'static str), OpAgg>,
    out_of_order_closes: u64,
    /// Per-thread span stacks; an entry is removed when its stack drains.
    stacks: HashMap<ThreadId, Vec<Frame>>,
    /// Thread → session binding installed by [`TraceSession`].
    bindings: HashMap<ThreadId, u64>,
    /// Per-session tallies, keyed by session id (ids are 1-based).
    sessions: BTreeMap<u64, SessionStat>,
    next_session: u64,
}

impl Tracer {
    fn tick(&mut self) -> u64 {
        self.ticks = self.ticks.saturating_add(1);
        self.ticks
    }
}

static TRACER: OnceLock<Mutex<Tracer>> = OnceLock::new();

fn with_tracer<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    let tracer = TRACER.get_or_init(|| {
        Mutex::new(Tracer {
            event_capacity: DEFAULT_EVENT_CAPACITY,
            ..Tracer::default()
        })
    });
    // Recover from poisoning: crash injection panics mid-workload by
    // design, and the registry's counters stay internally consistent (every
    // mutation completes before the panic sites in pager/wal code run).
    let mut guard = match tracer.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

fn open_span(scheme: &'static str, label: &'static str, phase: bool) -> u64 {
    with_tracer(|t| {
        let tid = std::thread::current().id();
        let (parent, depth, scheme, session) = match t.stacks.get(&tid).and_then(|s| s.last()) {
            Some(top) => {
                // Phase sub-spans inherit the scheme tag they run under;
                // every child inherits its parent's session.
                let s = if phase && scheme.is_empty() {
                    top.scheme
                } else {
                    scheme
                };
                (top.id, top.depth.saturating_add(1), s, top.session)
            }
            // Root spans take the opening thread's session binding.
            None => (0, 0, scheme, t.bindings.get(&tid).copied().unwrap_or(0)),
        };
        let start_tick = t.tick();
        t.next_id = t.next_id.saturating_add(1);
        t.open_spans = t.open_spans.saturating_add(1);
        let id = t.next_id;
        t.stacks.entry(tid).or_default().push(Frame {
            id,
            parent,
            depth,
            scheme,
            label,
            phase,
            start_tick,
            session,
            counters: TraceCounters::default(),
        });
        id
    })
}

fn close_span(id: u64) {
    // Spans close LIFO in correct code; tolerate (and count) an
    // out-of-order close rather than corrupting the stack. A close for a
    // frame this thread does not own (never possible through the RAII
    // handle) is ignored.
    with_tracer(|t| {
        let tid = std::thread::current().id();
        let Some(stack) = t.stacks.get_mut(&tid) else {
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
        let drained = stack.is_empty();
        if drained {
            t.stacks.remove(&tid);
        }
        let end_tick = t.tick();
        t.open_spans = t.open_spans.saturating_sub(1);
        if out_of_order {
            t.out_of_order_closes = t.out_of_order_closes.saturating_add(1);
        }
        let map = if frame.phase {
            &mut t.phases
        } else {
            &mut t.ops
        };
        map.entry((frame.scheme, frame.label))
            .or_default()
            .absorb(&frame.counters);
        if t.event_capacity > 0 {
            if t.events.len() >= t.event_capacity {
                t.events.pop_front();
                t.dropped_events = t.dropped_events.saturating_add(1);
            }
            t.events.push_back(SpanEvent {
                id: frame.id,
                parent: frame.parent,
                depth: frame.depth,
                scheme: frame.scheme,
                label: frame.label,
                phase: frame.phase,
                start_tick: frame.start_tick,
                end_tick,
                counters: frame.counters,
            });
        }
    });
}

/// RAII span: open at construction, closed (and folded into its parent)
/// on drop. Bind it to a named local — `let _span = OpSpan::op(...)` —
/// so it lives for the scope; binding to `_` or leaking it defeats
/// attribution (lint rule BX009).
#[derive(Debug)]
#[must_use = "an unbound span closes immediately and attributes nothing"]
pub struct OpSpan {
    id: u64,
}

impl OpSpan {
    /// Open a top-level operation span: `scheme` tags which labeling
    /// scheme runs the primitive, `op` names it ("lookup", "insert",
    /// "delete", "bulk_load", …).
    pub fn op(scheme: &'static str, op: &'static str) -> OpSpan {
        OpSpan {
            id: open_span(scheme, op, false),
        }
    }

    /// Open a phase sub-span ("split", "merge", "respace", "relabel",
    /// "rebuild", "lidf", …). The scheme tag is inherited from the
    /// enclosing span.
    pub fn phase(name: &'static str) -> OpSpan {
        OpSpan {
            id: open_span("", name, true),
        }
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        close_span(self.id);
    }
}

/// Record `n` events of `kind` against the innermost span open *on this
/// thread* (or the global unattributed tally when none is). Called by the
/// pager and the WAL at the same sites that bump their own stats. The
/// owning session — the frame's inherited session, or the bare thread
/// binding when no span is open — is tallied in the same critical
/// section.
pub fn record(kind: Counter, n: u64) {
    if n == 0 {
        return;
    }
    with_tracer(|t| {
        t.tick();
        let tid = std::thread::current().id();
        let session = match t.stacks.get_mut(&tid).and_then(|s| s.last_mut()) {
            Some(top) => {
                top.counters.bump(kind, n);
                t.attributed.bump(kind, n);
                top.session
            }
            None => {
                t.unattributed.bump(kind, n);
                t.bindings.get(&tid).copied().unwrap_or(0)
            }
        };
        if session != 0 {
            if let Some(s) = t.sessions.get_mut(&session) {
                s.counters.bump(kind, n);
            }
        }
    });
}

/// Reset the global registry to empty (counters, aggregates, events,
/// ticks). Open spans survive but their already-recorded counts are gone;
/// reset between spans — on a single thread, with no reader threads mid-op
/// — not inside one.
pub fn reset() {
    with_tracer(|t| {
        let capacity = t.event_capacity;
        let next_id = t.next_id;
        let open = t.open_spans;
        let next_session = t.next_session;
        // Keep live frames so RAII drops of pre-reset spans stay sound,
        // but zero their partial counts. Bindings and still-open sessions
        // survive (zeroed) so live TraceSession handles stay meaningful;
        // closed sessions are dropped with the rest of the tallies.
        let mut stacks = std::mem::take(&mut t.stacks);
        for stack in stacks.values_mut() {
            for f in stack.iter_mut() {
                f.counters = TraceCounters::default();
                f.start_tick = 0;
            }
        }
        let bindings = std::mem::take(&mut t.bindings);
        let mut sessions = std::mem::take(&mut t.sessions);
        sessions.retain(|_, s| s.open);
        for s in sessions.values_mut() {
            s.counters = TraceCounters::default();
        }
        *t = Tracer {
            event_capacity: capacity,
            next_id,
            open_spans: open,
            next_session,
            stacks,
            bindings,
            sessions,
            ..Tracer::default()
        };
    });
}

/// Totals recorded while some span was open.
#[must_use]
pub fn attributed() -> TraceCounters {
    with_tracer(|t| t.attributed)
}

/// Totals recorded with no span open.
#[must_use]
pub fn unattributed() -> TraceCounters {
    with_tracer(|t| t.unattributed)
}

/// Everything recorded: attributed + unattributed. For any interval this
/// equals the pager's `IoStats::since` delta on the seven shared fields.
#[must_use]
pub fn observed() -> TraceCounters {
    with_tracer(|t| {
        let mut all = t.attributed;
        all.merge(&t.unattributed);
        all
    })
}

/// Current logical tick.
#[must_use]
pub fn ticks() -> u64 {
    with_tracer(|t| t.ticks)
}

/// Number of currently open spans, across all threads.
#[must_use]
pub fn open_spans() -> usize {
    with_tracer(|t| usize::try_from(t.open_spans).unwrap_or(usize::MAX))
}

/// Replace the bound on the closed-span event ring (0 disables event
/// capture; aggregates still accumulate).
pub fn set_event_capacity(capacity: usize) {
    with_tracer(|t| {
        t.event_capacity = capacity;
        while t.events.len() > capacity {
            t.events.pop_front();
            t.dropped_events = t.dropped_events.saturating_add(1);
        }
    });
}

/// RAII per-session attribution handle.
///
/// `begin` allocates a fresh session id, starts a tally for it, and binds
/// the *current thread* to it: root spans opened on a bound thread (and
/// every event they attribute) are tallied against the session, as are
/// span-less events recorded on the thread. A session follows work across
/// threads via [`TraceSession::bind_current_thread`]. Dropping the handle
/// marks the session closed and removes its thread bindings; the tally
/// itself survives in [`report`]s until the next [`reset`].
///
/// One session per thread at a time: binding a thread overwrites any
/// previous binding, so interleave sessions across threads, not within
/// one.
#[derive(Debug)]
#[must_use = "dropping a session immediately unbinds its threads"]
pub struct TraceSession {
    id: u64,
}

impl TraceSession {
    /// Start a session and bind the current thread to it.
    pub fn begin(label: &'static str) -> TraceSession {
        with_tracer(|t| {
            t.next_session = t.next_session.saturating_add(1);
            let id = t.next_session;
            t.sessions.insert(
                id,
                SessionStat {
                    label,
                    open: true,
                    counters: TraceCounters::default(),
                },
            );
            t.bindings.insert(std::thread::current().id(), id);
            TraceSession { id }
        })
    }

    /// The session id (1-based, allocation order; 0 means "no session").
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Bind the calling thread to this session (for work handed across
    /// threads). Replaces the thread's previous binding, if any.
    pub fn bind_current_thread(&self) {
        let id = self.id;
        with_tracer(|t| {
            t.bindings.insert(std::thread::current().id(), id);
        });
    }

    /// This session's tally so far.
    #[must_use]
    pub fn counters(&self) -> TraceCounters {
        session_counters(self.id).unwrap_or_default()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        let id = self.id;
        with_tracer(|t| {
            if let Some(s) = t.sessions.get_mut(&id) {
                s.open = false;
            }
            t.bindings.retain(|_, bound| *bound != id);
        });
    }
}

/// Tally of one session by id, if it exists (i.e. began after the last
/// [`reset`], or was still open across it).
#[must_use]
pub fn session_counters(id: u64) -> Option<TraceCounters> {
    with_tracer(|t| t.sessions.get(&id).map(|s| s.counters))
}

/// One session's row in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTally {
    /// Session id (1-based, allocation order).
    pub id: u64,
    /// Label given to [`TraceSession::begin`].
    pub label: String,
    /// Whether the RAII handle was still alive at snapshot time.
    pub open: bool,
    /// Counter totals attributed to the session.
    pub counters: TraceCounters,
}

/// Immutable snapshot of the tracer: aggregates, global tallies, and the
/// ring of recent closed spans.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Logical tick at snapshot time.
    pub ticks: u64,
    /// Spans still open when the snapshot was taken.
    pub open_spans: u64,
    /// Spans that closed out of LIFO order (should stay 0).
    pub out_of_order_closes: u64,
    /// Ring events discarded because the buffer was full.
    pub dropped_events: u64,
    /// Totals recorded under some span.
    pub attributed: TraceCounters,
    /// Totals recorded with no span open.
    pub unattributed: TraceCounters,
    /// Per-(scheme, op) aggregates over top-level op spans.
    pub ops: Vec<((String, String), OpAgg)>,
    /// Per-(scheme, phase) aggregates over phase sub-spans.
    pub phases: Vec<((String, String), OpAgg)>,
    /// Per-session tallies, in session-id order.
    pub sessions: Vec<SessionTally>,
    /// Most recent closed spans, oldest first.
    pub events: Vec<SpanEvent>,
}

/// Take a [`TraceReport`] snapshot of the global registry.
#[must_use]
pub fn report() -> TraceReport {
    with_tracer(|t| TraceReport {
        ticks: t.ticks,
        open_spans: t.open_spans,
        out_of_order_closes: t.out_of_order_closes,
        dropped_events: t.dropped_events,
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
        sessions: t
            .sessions
            .iter()
            .map(|(&id, s)| SessionTally {
                id,
                label: s.label.to_string(),
                open: s.open,
                counters: s.counters,
            })
            .collect(),
        events: t.events.iter().cloned().collect(),
    })
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
    /// Serialize the report as a stable single-line JSON document. The
    /// schema is documented in DESIGN.md ("Observability & tracing").
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"boxes-trace/2\",\"ticks\":");
        out.push_str(&self.ticks.to_string());
        out.push_str(",\"open_spans\":");
        out.push_str(&self.open_spans.to_string());
        out.push_str(",\"out_of_order_closes\":");
        out.push_str(&self.out_of_order_closes.to_string());
        out.push_str(",\"dropped_events\":");
        out.push_str(&self.dropped_events.to_string());
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
        out.push_str("],\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            out.push_str(&s.id.to_string());
            out.push_str(",\"label\":\"");
            json_escape_into(&s.label, &mut out);
            out.push_str("\",\"open\":");
            out.push_str(if s.open { "true" } else { "false" });
            out.push_str(",\"counters\":");
            s.counters.json_into(&mut out);
            out.push('}');
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            out.push_str(&e.id.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&e.parent.to_string());
            out.push_str(",\"depth\":");
            out.push_str(&e.depth.to_string());
            out.push_str(",\"scheme\":\"");
            json_escape_into(e.scheme, &mut out);
            out.push_str("\",\"label\":\"");
            json_escape_into(e.label, &mut out);
            out.push_str("\",\"phase\":");
            out.push_str(if e.phase { "true" } else { "false" });
            out.push_str(",\"start_tick\":");
            out.push_str(&e.start_tick.to_string());
            out.push_str(",\"end_tick\":");
            out.push_str(&e.end_tick.to_string());
            out.push_str(",\"counters\":");
            e.counters.json_into(&mut out);
            out.push('}');
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

fn to_f64(v: u64) -> f64 {
    // Report rendering only; precision loss above 2^53 is irrelevant, and
    // a float target keeps this outside the BX004 integer-cast rule.
    v as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is global now, so tests that reset and then assert on
    /// its tallies must not interleave. Each test holds this lock for its
    /// whole body (poison-recovering: a failed test must not wedge the
    /// rest of the suite).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn io(reads: u64, writes: u64) -> TraceCounters {
        TraceCounters {
            reads,
            writes,
            ..TraceCounters::default()
        }
    }

    #[test]
    fn unattributed_without_span() {
        let _guard = serial();
        reset();
        record(Counter::BlockRead, 2);
        assert_eq!(unattributed(), io(2, 0));
        assert!(attributed().is_zero());
    }

    #[test]
    fn innermost_span_owns_events_and_folds_into_parent() {
        let _guard = serial();
        reset();
        {
            let _op = OpSpan::op("W-BOX", "insert");
            record(Counter::BlockRead, 1);
            {
                let _p = OpSpan::phase("split");
                record(Counter::BlockWrite, 3);
            }
            record(Counter::BlockWrite, 1);
        }
        let r = report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(attributed(), io(1, 4));
        assert!(unattributed().is_zero());
        // The op aggregate includes the folded-in phase counters.
        let (_, op_agg) = &r.ops[0];
        assert_eq!(op_agg.totals, io(1, 4));
        // The phase shows up under the inherited scheme tag.
        let ((scheme, label), p_agg) = &r.phases[0];
        assert_eq!((scheme.as_str(), label.as_str()), ("W-BOX", "split"));
        assert_eq!(p_agg.totals, io(0, 3));
        // Two closed spans in the ring, child first.
        assert_eq!(r.events.len(), 2);
        assert!(r.events[0].phase && !r.events[1].phase);
        assert!(r.events[0].end_tick < r.events[1].end_tick);
    }

    #[test]
    fn identity_attributed_plus_unattributed() {
        let _guard = serial();
        reset();
        record(Counter::Alloc, 1);
        {
            let _op = OpSpan::op("B-BOX", "delete");
            record(Counter::BlockRead, 5);
            record(Counter::Retry, 2);
        }
        let mut total = attributed();
        total.merge(&unattributed());
        assert_eq!(total, observed());
        assert_eq!(total.allocs, 1);
        assert_eq!(total.reads, 5);
        assert_eq!(total.retries, 2);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let _guard = serial();
        reset();
        set_event_capacity(4);
        for _ in 0..10 {
            let _s = OpSpan::op("LIDF", "read");
        }
        let r = report();
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.dropped_events, 6);
        set_event_capacity(DEFAULT_EVENT_CAPACITY);
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
        let _guard = serial();
        reset();
        {
            let _op = OpSpan::op("W-BOX", "lookup");
            record(Counter::BlockRead, 2);
            record(Counter::CacheHit, 1);
        }
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"boxes-trace/2\""));
        assert!(a.contains("\"scheme\":\"W-BOX\""));
        assert!(a.contains("\"cache_hits\":1"));
        assert!(a.contains("\"sessions\":["));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn session_owns_spans_and_bare_events_on_its_thread() {
        let _guard = serial();
        reset();
        let counters = {
            let session = TraceSession::begin("reader");
            assert!(session.id() > 0);
            {
                let _op = OpSpan::op("W-BOX", "lookup");
                record(Counter::BlockRead, 3);
                {
                    let _p = OpSpan::phase("descend");
                    record(Counter::CacheHit, 2);
                }
            }
            // Span-less events on a bound thread still land in the
            // session (and in the global unattributed tally).
            record(Counter::WalSync, 1);
            session.counters()
        };
        assert_eq!(counters.reads, 3);
        assert_eq!(counters.cache_hits, 2);
        assert_eq!(counters.wal_syncs, 1);
        assert_eq!(unattributed().wal_syncs, 1);
        let r = report();
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].label, "reader");
        assert!(!r.sessions[0].open);
        assert_eq!(r.sessions[0].counters, counters);
    }

    #[test]
    fn sessions_partition_events_across_threads() {
        let _guard = serial();
        reset();
        let a = TraceSession::begin("writer");
        {
            let _op = OpSpan::op("W-BOX", "insert");
            record(Counter::BlockWrite, 4);
        }
        let b_id = std::thread::spawn(|| {
            let b = TraceSession::begin("reader");
            let _op = OpSpan::op("W-BOX", "lookup");
            record(Counter::BlockRead, 2);
            b.id()
        })
        .join()
        .expect("reader thread");
        assert_eq!(a.counters(), io(0, 4));
        assert_eq!(session_counters(b_id), Some(io(2, 0)));
        // Global identity still closes across both sessions.
        assert_eq!(observed(), io(2, 4));
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn unbound_threads_tally_to_no_session() {
        let _guard = serial();
        reset();
        {
            let _op = OpSpan::op("LIDF", "read");
            record(Counter::BlockRead, 1);
        }
        let r = report();
        assert!(r.sessions.is_empty());
        assert_eq!(attributed(), io(1, 0));
    }

    #[test]
    fn out_of_order_close_is_tolerated() {
        let _guard = serial();
        reset();
        let a = OpSpan::op("W-BOX", "a");
        let b = OpSpan::op("W-BOX", "b");
        record(Counter::BlockRead, 1);
        drop(a);
        record(Counter::BlockWrite, 1);
        drop(b);
        let r = report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(r.out_of_order_closes, 1);
        assert_eq!(observed(), io(1, 1));
    }
}
