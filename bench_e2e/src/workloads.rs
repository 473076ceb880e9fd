//! The four workloads. Each builds its storage stack from the repository's
//! public APIs, times several set-ups, runs a closed loop of seeded
//! operations for the requested time, then checks every answer and the
//! final structure against the generator's tree.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use boxes_audit::Auditable;
use boxes_core::bbox::BBoxConfig;
use boxes_core::lidf::Lid;
use boxes_core::pager::{IoStats, Pager, PagerConfig, SharedPager};
use boxes_core::wal::{FileLogStore, LogStore, MemLogStore, Wal, WalConfig, WalStats};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::generate::{two_level, xmark};
use boxes_core::xml::tree::ElementId;
use boxes_core::{BBoxScheme, LabelingScheme, WBoxScheme};

use crate::doc::{is_ancestor, Anchor, Doc, LoadPlan, Pool};
use crate::layers::{Tally, TimedJournal, TimedStore, Timer, WalClock, WalTally};
use crate::measure::{peak_rss_mb, Kind, Log, SLICE_S};
use crate::report::Metric;
use crate::stats::{median, percentile, sorted, Rng};

/// Block size of every stack (the paper's 8 KiB blocks).
pub const BLOCK_SIZE: usize = 8192;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Adjacent tag pairs checked for document order after the run.
const ORDER_SAMPLES: usize = 2_000;
/// Snapshot readers re-open their view after this many checks.
const REOPEN_EVERY: usize = 1_000;
/// The snapshot writer publishes an epoch after this many inserts.
const PUBLISH_EVERY: usize = 32;
/// Seed streams: op choices, the final order sample, the reader's checks.
const STREAM_OPS: u64 = 1;
const STREAM_VERIFY: u64 = 2;
const STREAM_READER: u64 = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// W-BOX, unjournaled memory pager, pure ancestry checks.
    AncestryQuery,
    /// B-BOX, memory pager plus in-memory WAL, checks/inserts/deletes with
    /// a hot window.
    EditorMix,
    /// W-BOX on real files (pager file plus file WAL), the paper's
    /// concentrated insert stream.
    ConcentratedFile,
    /// W-BOX, one writer plus one snapshot reader thread.
    SnapshotReaders,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::AncestryQuery,
        Workload::EditorMix,
        Workload::ConcentratedFile,
        Workload::SnapshotReaders,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AncestryQuery => "ancestry-query",
            Workload::EditorMix => "editor-mix",
            Workload::ConcentratedFile => "concentrated-file",
            Workload::SnapshotReaders => "snapshot-readers",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` for measurements, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small documents and short minimum runs.
    Tiny,
}

impl Size {
    fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Drives the document generator and every op choice.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Build the stack with the layer timers and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// What one run produced.
pub struct Run {
    /// Every answer matched the generator and every final check passed.
    pub correct: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Operations run in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Digest of the op stream (equal seeds give equal streams).
    pub digest: u64,
    /// The benchmark's end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-class breakdown of the end-to-end metrics (printed only).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// Run `workload` once.
pub fn run(workload: Workload, cfg: &Config) -> Result<Run, String> {
    let scratch = Scratch::create(workload)?;
    match workload {
        Workload::AncestryQuery => ancestry_query(cfg, &scratch.0),
        Workload::EditorMix => editor_mix(cfg, &scratch.0),
        Workload::ConcentratedFile => concentrated_file(cfg, &scratch.0),
        Workload::SnapshotReaders => snapshot_readers(cfg, &scratch.0),
    }
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// A per-run directory under `target/bench/` for database and log files,
/// removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: Workload) -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new("target/bench").join(format!(
            "tmp-{}-{}-{n}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which storage stack a workload runs on.
struct StackSpec {
    /// Pager blocks and WAL in files instead of memory.
    file: bool,
    /// Attach a WAL with this configuration.
    wal: Option<WalConfig>,
}

/// A scheme over its pager, WAL and (on traced runs) WAL timers.
struct Stack<S> {
    scheme: S,
    pager: SharedPager,
    wal: Option<Arc<Wal>>,
    clock: Option<Arc<WalClock>>,
}

fn open_stack<S>(
    spec: &StackSpec,
    dir: &Path,
    trace: bool,
    make: &impl Fn(SharedPager) -> S,
) -> Result<Stack<S>, String> {
    let config = PagerConfig::with_block_size(BLOCK_SIZE);
    let pager = if spec.file {
        Pager::new(config.backed_by_file(dir.join("blocks.db")))
    } else {
        Pager::new(config)
    };
    let (wal, clock) = match spec.wal {
        None => (None, None),
        Some(wal_config) => {
            let store: Box<dyn LogStore> = if spec.file {
                let path = dir.join("wal.log");
                Box::new(
                    FileLogStore::create(&path, BLOCK_SIZE)
                        .map_err(|e| format!("create {}: {e}", path.display()))?,
                )
            } else {
                Box::new(MemLogStore::new())
            };
            let clock = trace.then(|| Arc::new(WalClock::default()));
            let store: Box<dyn LogStore> = match &clock {
                Some(c) => Box::new(TimedStore::new(store, Arc::clone(c))),
                None => store,
            };
            let wal = Wal::with_store(BLOCK_SIZE, wal_config, None, store);
            match &clock {
                Some(c) => pager
                    .attach_journal(Arc::new(TimedJournal::new(Arc::clone(&wal), Arc::clone(c)))),
                None => pager.attach_journal(wal.clone()),
            }
            (Some(wal), clock)
        }
    };
    Ok(Stack {
        scheme: make(Arc::clone(&pager)),
        pager,
        wal,
        clock,
    })
}

/// Build the stack and bulk-load the document `SETUPS` times; keep the
/// last and return the median set-up time. A journaled load is published
/// (made durable and visible to snapshots) as part of its set-up.
fn set_up<S: LabelingScheme>(
    cfg: &Config,
    spec: &StackSpec,
    dir: &Path,
    plan: &LoadPlan,
    make: impl Fn(SharedPager) -> S,
) -> Result<(Stack<S>, Vec<Lid>, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        let mut stack = open_stack(spec, dir, cfg.trace, &make)?;
        let lids = plan.load(&mut stack.scheme);
        if stack.wal.is_some() {
            stack.pager.publish_barrier();
        }
        times.push(start.elapsed().as_secs_f64());
        built = Some((stack, lids));
    }
    let (stack, lids) = built.ok_or("no set-up ran")?;
    Ok((stack, lids, median(&times)))
}

fn wbox(pager: SharedPager) -> WBoxScheme {
    WBoxScheme::new(pager, WBoxConfig::from_block_size(BLOCK_SIZE))
}

fn bbox(pager: SharedPager) -> BBoxScheme {
    BBoxScheme::new(pager, BBoxConfig::from_block_size(BLOCK_SIZE))
}

/// Whether the timed phase should go on: until both the time and the
/// exact window are reached.
fn keep_going(log: &Log, cfg: &Config) -> bool {
    !log.window_full() || log.elapsed_s() < cfg.seconds
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// One ancestry check of `desc` against its parent (half the time) or a
/// random element of `others`, verified against the tree.
#[allow(clippy::too_many_arguments)]
fn query<S: LabelingScheme>(
    doc: &Doc,
    desc: ElementId,
    others: &Pool,
    scheme: &S,
    pager: &Pager,
    rng: &mut Rng,
    log: &mut Log,
    lookups: Option<&Timer>,
) {
    let anc = if rng.chance(50) {
        doc.tree.parent(desc).expect("pools exclude the root")
    } else {
        others.pick(rng)
    };
    log.note(u64::from(anc.0) << 32 | u64::from(desc.0));
    let expected = doc.tree.is_ancestor(anc, desc);
    let (a, d) = (doc.lids(anc), doc.lids(desc));
    if let Some(got) = log.op(Kind::Query, pager, None, || {
        is_ancestor(scheme, a, d, lookups)
    }) {
        if got != expected {
            log.record_wrong(format!("is_ancestor({anc:?}, {desc:?}) = {got}"));
        }
    }
}

/// Insert a new element at `anchor` and mirror it; returns it on success.
fn insert<S: LabelingScheme>(
    doc: &mut Doc,
    anchor: Anchor,
    stack: &mut Stack<S>,
    log: &mut Log,
) -> Option<ElementId> {
    let lid = doc.anchor_lid(anchor);
    let (scheme, clock) = (&mut stack.scheme, stack.clock.as_deref());
    let pair = log.op(Kind::Update, &stack.pager, clock, || {
        scheme.try_insert_element_before(lid)
    })?;
    Some(doc.record_insert(anchor, pair))
}

/// Delete element `e` (both tags) and mirror it.
fn delete<S: LabelingScheme>(doc: &mut Doc, e: ElementId, stack: &mut Stack<S>, log: &mut Log) {
    let (start, end) = doc.lids(e);
    let (scheme, clock) = (&mut stack.scheme, stack.clock.as_deref());
    let done = log.op(Kind::Update, &stack.pager, clock, || {
        scheme.try_delete(start)?;
        scheme.try_delete(end)
    });
    if done.is_some() {
        doc.record_delete(e);
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

fn ancestry_query(cfg: &Config, dir: &Path) -> Result<Run, String> {
    let min_ops = cfg.size.pick(2_000, 200);
    let tree = xmark(cfg.size.pick(200_000, 2_000), cfg.seed);
    let plan = LoadPlan::new(&tree);
    let spec = StackSpec {
        file: false,
        wal: None,
    };
    let (stack, lids, setup_s) = set_up(cfg, &spec, dir, &plan, wbox)?;
    let doc = Doc::new(tree, &lids);
    let all = Pool::of(doc.tree.document_order().into_iter().skip(1));
    let mut rng = Rng::new(cfg.seed, STREAM_OPS);
    let lookups = Timer::default();
    let mut phase = Phase::begin(&stack);
    let mut log = Log::new(min_ops, phase.start);
    while keep_going(&log, cfg) {
        let desc = all.pick(&mut rng);
        let timer = cfg.trace.then_some(&lookups);
        query(
            &doc,
            desc,
            &all,
            &stack.scheme,
            &stack.pager,
            &mut rng,
            &mut log,
            timer,
        );
        phase.at_window(&log, &stack);
    }
    let end = phase.end(&stack, setup_s);
    finish(cfg, &doc, &stack, end, vec![log], lookups.read())
}

fn editor_mix(cfg: &Config, dir: &Path) -> Result<Run, String> {
    let min_ops = cfg.size.pick(2_000, 300);
    let tree = xmark(cfg.size.pick(100_000, 2_000), cfg.seed);
    let plan = LoadPlan::new(&tree);
    let spec = StackSpec {
        file: false,
        wal: Some(WalConfig {
            sync_every: 16,
            checkpoint_every: 64,
        }),
    };
    let (mut stack, lids, setup_s) = set_up(cfg, &spec, dir, &plan, bbox)?;
    let mut doc = Doc::new(tree, &lids);
    let mut rng = Rng::new(cfg.seed, STREAM_OPS);
    // The hot window: 1% of the document, contiguous in document order.
    let order: Vec<ElementId> = doc.tree.document_order().into_iter().skip(1).collect();
    let width = (order.len() / 100).max(1);
    let from = rng.below(order.len() - width + 1);
    let mut hot = Pool::of(order[from..from + width].iter().copied());
    let mut all = Pool::of(order);
    let lookups = Timer::default();
    let mut phase = Phase::begin(&stack);
    let mut log = Log::new(min_ops, phase.start);
    while keep_going(&log, cfg) {
        let roll = rng.below(100);
        let in_hot = rng.chance(80) && hot.len() > 0;
        let target = if in_hot {
            hot.pick(&mut rng)
        } else {
            all.pick(&mut rng)
        };
        log.note((roll as u64) << 32 | u64::from(target.0));
        if roll < 50 {
            let timer = cfg.trace.then_some(&lookups);
            query(
                &doc,
                target,
                &all,
                &stack.scheme,
                &stack.pager,
                &mut rng,
                &mut log,
                timer,
            );
        } else if roll < 85 {
            let anchor = if rng.chance(50) {
                Anchor::Before(target)
            } else {
                Anchor::LastChildOf(target)
            };
            if let Some(e) = insert(&mut doc, anchor, &mut stack, &mut log) {
                all.add(e);
                if hot.contains(target) {
                    hot.add(e);
                }
            }
        } else {
            delete(&mut doc, target, &mut stack, &mut log);
            all.remove(target);
            hot.remove(target);
        }
        phase.at_window(&log, &stack);
    }
    let end = phase.end(&stack, setup_s);
    finish(cfg, &doc, &stack, end, vec![log], lookups.read())
}

fn concentrated_file(cfg: &Config, dir: &Path) -> Result<Run, String> {
    let min_ops = cfg.size.pick(1_000, 200);
    let tree = two_level(cfg.size.pick(100_000, 2_000));
    let plan = LoadPlan::new(&tree);
    let spec = StackSpec {
        file: true,
        wal: Some(WalConfig {
            sync_every: 4,
            checkpoint_every: 64,
        }),
    };
    let (mut stack, lids, setup_s) = set_up(cfg, &spec, dir, &plan, wbox)?;
    let mut doc = Doc::new(tree, &lids);
    let mut rng = Rng::new(cfg.seed, STREAM_OPS);
    // Fig. 5's stream: a new subtree root among the base children, then
    // its children, each pair squeezed into the centre of the growing
    // child list. The seed picks where the subtree goes.
    let base = doc.tree.children(doc.tree.root()).to_vec();
    let before = base[rng.below(base.len())];
    let mut phase = Phase::begin(&stack);
    let mut log = Log::new(min_ops, phase.start);
    log.note(u64::from(before.0));
    let subtree = insert(&mut doc, Anchor::Before(before), &mut stack, &mut log)
        .ok_or("inserting the subtree root failed")?;
    let mut frontier = None;
    let mut i = 0usize;
    while keep_going(&log, cfg) {
        let anchor = match frontier {
            Some(f) if i >= 2 => Anchor::Before(f),
            _ => Anchor::LastChildOf(subtree),
        };
        let e = insert(&mut doc, anchor, &mut stack, &mut log);
        log.note(e.map_or(u64::MAX, |e| u64::from(e.0)));
        if i % 2 == 1 {
            frontier = e.or(frontier);
        }
        i += 1;
        phase.at_window(&log, &stack);
    }
    let end = phase.end(&stack, setup_s);
    finish(cfg, &doc, &stack, end, vec![log], Tally::default())
}

/// One precomputed snapshot-reader check.
struct Check {
    anc: (Lid, Lid),
    desc: (Lid, Lid),
    expected: bool,
}

/// What the snapshot reader thread hands back.
struct Reader {
    log: Log,
    lookups: Tally,
    opens: Tally,
}

fn snapshot_readers(cfg: &Config, dir: &Path) -> Result<Run, String> {
    let writer_min = cfg.size.pick(500, 64);
    let reader_min = REOPEN_EVERY;
    let tree = xmark(cfg.size.pick(100_000, 2_000), cfg.seed);
    let plan = LoadPlan::new(&tree);
    let spec = StackSpec {
        file: false,
        wal: Some(WalConfig {
            sync_every: 8,
            checkpoint_every: 64,
        }),
    };
    let (mut stack, lids, setup_s) = set_up(cfg, &spec, dir, &plan, wbox)?;
    let mut doc = Doc::new(tree, &lids);
    let base = Pool::of(doc.tree.document_order().into_iter().skip(1));
    // The reader checks base elements only: inserting siblings never
    // changes their ancestry, so the answers hold at every epoch.
    let mut reader_rng = Rng::new(cfg.seed, STREAM_READER);
    let checks: Vec<Check> = (0..4_096)
        .map(|_| {
            let desc = base.pick(&mut reader_rng);
            let anc = if reader_rng.chance(50) {
                doc.tree.parent(desc).expect("base pool excludes the root")
            } else {
                base.pick(&mut reader_rng)
            };
            Check {
                anc: doc.lids(anc),
                desc: doc.lids(desc),
                expected: doc.tree.is_ancestor(anc, desc),
            }
        })
        .collect();
    let mut rng = Rng::new(cfg.seed, STREAM_OPS);
    let publish = Timer::default();
    let writer_done = AtomicBool::new(false);
    let mut phase = Phase::begin(&stack);
    let mut log = Log::new(writer_min, phase.start);
    let (base_pager, start) = (Arc::clone(&stack.pager), phase.start);
    let (reader, frozen_versions_end) = std::thread::scope(|s| {
        let (checks, done) = (&checks, &writer_done);
        let reader = s.spawn(move || {
            read_snapshots(&base_pager, checks, done, Log::new(reader_min, start), cfg)
        });
        // Release the reader even if the writer panics.
        let _release = SetOnDrop(&writer_done);
        while keep_going(&log, cfg) {
            let target = base.pick(&mut rng);
            log.note(u64::from(target.0));
            insert(&mut doc, Anchor::Before(target), &mut stack, &mut log);
            if log.ops().is_multiple_of(PUBLISH_EVERY) {
                publish.time(|| stack.pager.publish_barrier());
            }
            phase.at_window(&log, &stack);
        }
        let frozen: usize = stack.pager.shard_stats().iter().map(|s| s.versions).sum();
        writer_done.store(true, Ordering::SeqCst);
        (reader.join(), frozen)
    });
    let reader = reader.map_err(|_| "snapshot reader thread panicked".to_string())??;
    let mut end = phase.end(&stack, setup_s);
    end.frozen_versions_end = frozen_versions_end;
    end.opens = reader.opens;
    end.publishes = publish.read();
    let lookups = reader.lookups;
    finish(cfg, &doc, &stack, end, vec![log, reader.log], lookups)
}

/// Sets the flag when dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The reader thread: ancestry checks through a snapshot view and a
/// re-opened W-BOX, re-opening every `REOPEN_EVERY` checks, until the
/// writer is done and the reader's exact window is full.
fn read_snapshots(
    base: &SharedPager,
    checks: &[Check],
    writer_done: &AtomicBool,
    mut log: Log,
    cfg: &Config,
) -> Result<Reader, String> {
    let (lookups, opens) = (Timer::default(), Timer::default());
    let mut next = 0usize;
    loop {
        let (view, scheme) = opens.time(|| {
            let (view, metas) = base.snapshot_view();
            let meta = |name: &str| {
                metas
                    .get(name)
                    .cloned()
                    .ok_or(format!("snapshot has no {name:?} state"))
            };
            let scheme = WBoxScheme::reopen(
                Arc::clone(&view),
                WBoxConfig::from_block_size(BLOCK_SIZE),
                &meta("wbox")?,
                &meta("lidf")?,
            );
            Ok::<_, String>((view, scheme))
        })?;
        for _ in 0..REOPEN_EVERY {
            let check = &checks[next % checks.len()];
            next += 1;
            log.note(check.anc.0 .0 << 32 ^ check.desc.0 .0);
            let timer = cfg.trace.then_some(&lookups);
            if let Some(got) = log.op(Kind::Query, &view, None, || {
                is_ancestor(&scheme, check.anc, check.desc, timer)
            }) {
                if got != check.expected {
                    log.record_wrong(format!("snapshot check {next} answered {got}"));
                }
            }
        }
        if writer_done.load(Ordering::SeqCst) && log.window_full() {
            break;
        }
    }
    Ok(Reader {
        log,
        lookups: lookups.read(),
        opens: opens.read(),
    })
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Counters at the start of the timed phase.
struct Phase {
    start: Instant,
    io: IoStats,
    wal: WalStats,
    shards: (u64, u64),
    /// Allocated bytes per live label when the exact window closed.
    space_bytes_per_label: f64,
    /// Peak resident memory when the exact window closed.
    peak_rss_mb: f64,
}

/// Allocated bytes per live label.
fn space_per_label<S: LabelingScheme>(stack: &Stack<S>) -> f64 {
    stack.pager.allocated_bytes() as f64 / stack.scheme.len().max(1) as f64
}

/// The timed phase's totals outside the per-thread logs.
struct PhaseEnd {
    setup_s: f64,
    elapsed_s: f64,
    io: IoStats,
    wal: WalStats,
    /// Shard lock acquisitions and contended acquisitions.
    shards: (u64, u64),
    blocks_allocated: usize,
    space_bytes_per_label: f64,
    peak_rss_mb: f64,
    frozen_versions_end: usize,
    opens: Tally,
    publishes: Tally,
}

fn shard_totals(pager: &Pager) -> (u64, u64) {
    pager
        .shard_stats()
        .iter()
        .fold((0, 0), |(a, c), s| (a + s.acquisitions, c + s.contended))
}

fn wal_stats<S>(stack: &Stack<S>) -> WalStats {
    stack.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
}

impl Phase {
    fn begin<S: LabelingScheme>(stack: &Stack<S>) -> Phase {
        Phase {
            io: stack.pager.stats(),
            wal: wal_stats(stack),
            shards: shard_totals(&stack.pager),
            space_bytes_per_label: space_per_label(stack),
            peak_rss_mb: peak_rss_mb(),
            start: Instant::now(),
        }
    }

    /// Sample the state-dependent metrics once `log`'s exact window
    /// closes, so they do not depend on how many operations the time
    /// allowed.
    fn at_window<S: LabelingScheme>(&mut self, log: &Log, stack: &Stack<S>) {
        if log.window_just_closed() {
            self.space_bytes_per_label = space_per_label(stack);
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    fn end<S: LabelingScheme>(self, stack: &Stack<S>, setup_s: f64) -> PhaseEnd {
        let elapsed_s = self.start.elapsed().as_secs_f64();
        let wal = wal_stats(stack);
        let shards = shard_totals(&stack.pager);
        PhaseEnd {
            setup_s,
            elapsed_s,
            io: stack.pager.stats().since(&self.io),
            wal: WalStats {
                records: wal.records - self.wal.records,
                frames: wal.frames - self.wal.frames,
                appended_bytes: wal.appended_bytes - self.wal.appended_bytes,
                syncs: wal.syncs - self.wal.syncs,
                barriers: wal.barriers - self.wal.barriers,
                checkpoints: wal.checkpoints - self.wal.checkpoints,
                sync_failures: wal.sync_failures - self.wal.sync_failures,
            },
            shards: (shards.0 - self.shards.0, shards.1 - self.shards.1),
            blocks_allocated: stack.pager.allocated_blocks(),
            space_bytes_per_label: self.space_bytes_per_label,
            peak_rss_mb: self.peak_rss_mb,
            frozen_versions_end: 0,
            opens: Tally::default(),
            publishes: Tally::default(),
        }
    }
}

/// Check the final state and turn the logs into metrics.
fn finish<S: LabelingScheme + Auditable>(
    cfg: &Config,
    doc: &Doc,
    stack: &Stack<S>,
    end: PhaseEnd,
    logs: Vec<Log>,
    lookups: Tally,
) -> Result<Run, String> {
    let mut problems = Vec::new();
    for log in &logs {
        if log.wrong > 0 {
            problems.push(format!(
                "{} wrong ancestry answer(s), e.g. {}",
                log.wrong,
                log.wrong_examples.join("; ")
            ));
        }
    }
    if stack.scheme.len() != 2 * doc.tree.len() as u64 {
        problems.push(format!(
            "scheme holds {} labels, the document has {} tags",
            stack.scheme.len(),
            2 * doc.tree.len()
        ));
    }
    for (what, report) in [
        ("scheme", stack.scheme.audit()),
        ("pager", stack.pager.audit()),
    ] {
        if let Some(first) = report.violations().first() {
            problems.push(format!(
                "{what} audit: {} violation(s), first {first}",
                report.len()
            ));
        }
    }
    let mut rng = Rng::new(cfg.seed, STREAM_VERIFY);
    if let Err(e) = doc.check_order_sample(&stack.scheme, &mut rng, ORDER_SAMPLES) {
        problems.push(e);
    }
    let m = Measured::new(&logs, lookups);
    Ok(Run {
        correct: problems.is_empty(),
        problems,
        attempted: m.ops as u64,
        failed: m.failed,
        digest: logs.iter().fold(0, |d, l| d ^ l.digest.rotate_left(17)),
        end_to_end: m.end_to_end(&end),
        detail: m.detail(&end),
        layers: if cfg.trace {
            m.layers(&end)
        } else {
            Vec::new()
        },
    })
}

/// Totals over every log of a run.
struct Measured {
    ops: usize,
    failed: u64,
    /// Latencies by kind over the whole phase.
    lat: [Vec<f64>; 2],
    /// Latencies by kind in each complete slice, across every log.
    slices: Vec<[Vec<f64>; 2]>,
    io: [IoStats; 2],
    window_io: u64,
    window_ops: usize,
    wal: [WalTally; 2],
    lookups: Tally,
}

/// Operations per second of `lat` over `seconds`.
fn throughput(lat: &[f64], seconds: f64) -> f64 {
    ratio(lat.len() as f64, seconds)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Measured {
    fn new(logs: &[Log], lookups: Tally) -> Measured {
        let collect = |k: usize| logs.iter().flat_map(|l| l.lat_us[k].clone()).collect();
        let complete = logs.iter().map(|l| l.marks.len()).min().unwrap_or(0);
        let slices = (0..complete)
            .map(|i| {
                let mut slice = [Vec::new(), Vec::new()];
                for log in logs {
                    for (k, lat) in slice.iter_mut().enumerate() {
                        let from = if i == 0 { 0 } else { log.marks[i - 1][k] };
                        lat.extend_from_slice(&log.lat_us[k][from..log.marks[i][k]]);
                    }
                }
                slice
            })
            .collect();
        let sum_io = |k: usize| logs.iter().fold(IoStats::default(), |a, l| a + l.io[k]);
        let sum_wal = |k: usize| {
            logs.iter()
                .fold(WalTally::default(), |a, l| a.plus(&l.wal[k]))
        };
        Measured {
            ops: logs.iter().map(Log::ops).sum(),
            failed: logs.iter().map(|l| l.failed).sum(),
            lat: [collect(0), collect(1)],
            slices,
            io: [sum_io(0), sum_io(1)],
            window_io: logs.iter().map(|l| l.window_io.total()).sum(),
            window_ops: logs.iter().map(Log::window_ops).sum(),
            wal: [sum_wal(0), sum_wal(1)],
            lookups,
        }
    }

    /// A timing statistic `f(sorted latencies, seconds)` of the `kinds`
    /// operations: its median over the complete slices, or its value over
    /// the whole phase when no slice completed.
    fn timing(&self, kinds: &[Kind], elapsed_s: f64, f: impl Fn(&[f64], f64) -> f64) -> f64 {
        let pick = |lat: &[Vec<f64>; 2]| {
            sorted(
                kinds
                    .iter()
                    .flat_map(|&k| lat[k as usize].iter().copied())
                    .collect(),
            )
        };
        if self.slices.is_empty() {
            return f(&pick(&self.lat), elapsed_s);
        }
        let per_slice: Vec<f64> = self.slices.iter().map(|s| f(&pick(s), SLICE_S)).collect();
        median(&per_slice)
    }

    fn count(&self, k: Kind) -> f64 {
        self.lat[k as usize].len() as f64
    }

    fn busy_us(&self, k: Kind) -> f64 {
        self.lat[k as usize].iter().sum()
    }

    fn end_to_end(&self, end: &PhaseEnd) -> Vec<Metric> {
        let all = [Kind::Query, Kind::Update];
        let t = end.elapsed_s;
        vec![
            Metric::new("setup_s", end.setup_s, "s"),
            Metric::new(
                "op_p50_us",
                self.timing(&all, t, |v, _| percentile(v, 50.0)),
                "us",
            ),
            Metric::new(
                "op_p99_us",
                self.timing(&all, t, |v, _| percentile(v, 99.0)),
                "us",
            ),
            Metric::new("ops_per_s", self.timing(&all, t, throughput), "1/s"),
            Metric::new(
                "io_per_op",
                ratio(self.window_io as f64, self.window_ops as f64),
                "count",
            ),
            Metric::new("space_bytes_per_label", end.space_bytes_per_label, "B"),
            Metric::new("peak_rss_mb", end.peak_rss_mb, "MB"),
        ]
    }

    fn detail(&self, end: &PhaseEnd) -> Vec<Metric> {
        let (q, u) = (Kind::Query as usize, Kind::Update as usize);
        let t = end.elapsed_s;
        let p = |kind: Kind, pct: f64| self.timing(&[kind], t, |v, _| percentile(v, pct));
        vec![
            Metric::new("query_p50_us", p(Kind::Query, 50.0), "us"),
            Metric::new("query_p99_us", p(Kind::Query, 99.0), "us"),
            Metric::new("update_p50_us", p(Kind::Update, 50.0), "us"),
            Metric::new("update_p99_us", p(Kind::Update, 99.0), "us"),
            Metric::new(
                "queries_per_s",
                self.timing(&[Kind::Query], t, throughput),
                "1/s",
            ),
            Metric::new(
                "updates_per_s",
                self.timing(&[Kind::Update], t, throughput),
                "1/s",
            ),
            Metric::new(
                "io_per_query",
                ratio(self.io[q].total() as f64, self.count(Kind::Query)),
                "count",
            ),
            Metric::new(
                "io_per_update",
                ratio(self.io[u].total() as f64, self.count(Kind::Update)),
                "count",
            ),
            Metric::new(
                "wal_bytes_per_update",
                ratio(end.wal.appended_bytes as f64, self.count(Kind::Update)),
                "B",
            ),
            Metric::new(
                "failed_ops_ratio",
                ratio(self.failed as f64, self.ops as f64),
                "ratio",
            ),
        ]
    }

    fn layers(&self, end: &PhaseEnd) -> Vec<Metric> {
        let (q, u) = (Kind::Query as usize, Kind::Update as usize);
        let updates = self.count(Kind::Update);
        let per_update = |nanos: u64| ratio(nanos as f64 / 1e3, updates);
        let per_call = |t: Tally| ratio(t.nanos as f64 / 1e3, t.calls as f64);
        let wal_u = self.wal[u];
        let wal_all = self.wal[q].plus(&wal_u);
        let busy_us = self.busy_us(Kind::Query) + self.busy_us(Kind::Update);
        let wal_us = wal_all.journal_nanos() as f64 / 1e3;
        vec![
            Metric::new(
                "wal.commit_us_per_update",
                per_update(wal_u.commit.nanos),
                "us",
            ),
            Metric::new(
                "wal.applied_us_per_update",
                per_update(wal_u.applied.nanos),
                "us",
            ),
            Metric::new(
                "wal.store_append_us_per_update",
                per_update(wal_u.append.nanos),
                "us",
            ),
            Metric::new("wal.store_sync_us_per_sync", per_call(wal_all.sync), "us"),
            Metric::new(
                "wal.store_rotate_us_per_checkpoint",
                per_call(wal_all.rotate),
                "us",
            ),
            Metric::new(
                "wal.self_us_per_update",
                per_update(wal_u.journal_nanos() - wal_u.store_nanos()),
                "us",
            ),
            Metric::new("wal.busy_share", ratio(wal_us, busy_us), "ratio"),
            Metric::new(
                "wal.frames_per_commit",
                ratio(end.wal.frames as f64, end.wal.records as f64),
                "count",
            ),
            Metric::new(
                "wal.bytes_per_update",
                ratio(end.wal.appended_bytes as f64, updates),
                "B",
            ),
            Metric::new("wal.syncs", end.wal.syncs as f64, "count"),
            Metric::new("wal.checkpoints", end.wal.checkpoints as f64, "count"),
            Metric::new("scheme.us_per_lookup", per_call(self.lookups), "us"),
            Metric::new(
                "scheme.self_us_per_update",
                ratio(
                    self.busy_us(Kind::Update) - wal_u.journal_nanos() as f64 / 1e3,
                    updates,
                ),
                "us",
            ),
            Metric::new(
                "scheme.busy_share",
                ratio(busy_us - wal_us, busy_us),
                "ratio",
            ),
            Metric::new(
                "pager.reads_per_query",
                ratio(self.io[q].reads as f64, self.count(Kind::Query)),
                "count",
            ),
            Metric::new(
                "pager.reads_per_update",
                ratio(self.io[u].reads as f64, updates),
                "count",
            ),
            Metric::new(
                "pager.writes_per_update",
                ratio(self.io[u].writes as f64, updates),
                "count",
            ),
            Metric::new(
                "pager.allocs_per_update",
                ratio(self.io[u].allocs as f64, updates),
                "count",
            ),
            Metric::new(
                "pager.frees_per_update",
                ratio(self.io[u].frees as f64, updates),
                "count",
            ),
            Metric::new(
                "pager.blocks_allocated",
                end.blocks_allocated as f64,
                "count",
            ),
            Metric::new("pager.retries", end.io.retries as f64, "count"),
            Metric::new("pager.repairs", end.io.repairs as f64, "count"),
            Metric::new(
                "pager.shard_contended_ratio",
                ratio(end.shards.1 as f64, end.shards.0 as f64),
                "ratio",
            ),
            Metric::new(
                "pager.frozen_versions_end",
                end.frozen_versions_end as f64,
                "count",
            ),
            Metric::new("pager.snapshot_open_us", per_call(end.opens), "us"),
            Metric::new("pager.publish_us", per_call(end.publishes), "us"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.0,
            trace: false,
            size: Size::Tiny,
        }
    }

    fn io_per_op(run: &Run) -> f64 {
        run.end_to_end
            .iter()
            .find(|m| m.name == "io_per_op")
            .expect("io_per_op is reported")
            .value
    }

    #[test]
    fn tiny_smoke_run_of_every_workload() {
        let mut smoke_s = 0.0;
        for w in Workload::ALL {
            let start = Instant::now();
            let first = run(w, &tiny(7)).expect("tiny run");
            smoke_s += start.elapsed().as_secs_f64();
            let again = run(w, &tiny(7)).expect("tiny run");
            let other = run(w, &tiny(8)).expect("tiny run");
            for r in [&first, &again, &other] {
                assert!(r.correct, "{}: {:?}", w.name(), r.problems);
                assert_eq!(r.failed, 0, "{}: no operation fails", w.name());
            }
            assert_eq!(
                first.digest,
                again.digest,
                "{}: same seed, same ops",
                w.name()
            );
            assert_ne!(
                first.digest,
                other.digest,
                "{}: new seed, new ops",
                w.name()
            );
            assert_eq!(
                io_per_op(&first),
                io_per_op(&again),
                "{}: exact I/O repeats",
                w.name()
            );
            assert!(io_per_op(&first) > 0.0);
        }
        assert!(smoke_s < 5.0, "smoke run took {smoke_s:.1} s");
    }

    #[test]
    fn traced_run_reports_every_layer() {
        let cfg = Config {
            trace: true,
            ..tiny(3)
        };
        let r = run(Workload::ConcentratedFile, &cfg).expect("tiny run");
        assert!(r.correct, "{:?}", r.problems);
        let get = |name: &str| {
            r.layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert!(get("wal.busy_share") > 0.0 && get("wal.busy_share") < 1.0);
        assert!(get("wal.syncs") > 0.0);
        assert_eq!(r.layers.len(), 26);
        let reads = run(
            Workload::AncestryQuery,
            &Config {
                trace: true,
                ..tiny(3)
            },
        )
        .expect("tiny run");
        let share = reads.layers.iter().find(|m| m.name == "wal.busy_share");
        assert_eq!(share.map(|m| m.value), Some(0.0), "no WAL on the read path");
    }
}
