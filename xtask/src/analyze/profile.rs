//! The profile/attribution pass: replay seeded workloads through every
//! scheme with the `boxes-trace` layer live and enforce the **accounting
//! identity** pager by pager — every block read/write/alloc/free (and
//! every fault-service retry, repair and backoff tick) a pager counted
//! must be attributed to some span open on that pager's own trace. An
//! unattributed I/O means a scheme hot path reached the pager outside any
//! span, i.e. the observability wiring has a hole; the gate fails.
//!
//! The identity is also enforced with **concurrent sessions**: eight
//! snapshot readers perform fixed lookups while the writer streams. The
//! base pager and each reader's snapshot view are checked separately,
//! each against its own trace.
//!
//! The pass also writes two deterministic artifacts:
//!
//! * `target/trace-report.json` — the `boxes-trace/3` document: one
//!   span/counter report per traced pager, labelled by leg and role
//!   (per-op I/O histograms, phase totals, the attribution split);
//! * `target/BENCH_boxes.json` — the `boxes-bench/2` perf trajectory for a
//!   reduced lineup (per-op distributions, amortized windows, and the
//!   multithreaded `concurrent_lookup` scaling rows).

use std::path::Path;
use std::sync::{Arc, Barrier};

use boxes_bench::report::{bench_json_full, write_bench_json, ConcurrentLeg, JsonWorkload};
use boxes_bench::{run_schemes, SchemeKind};
use boxes_core::bbox::BBoxConfig;
use boxes_core::lidf::{BlockPtrRecord, Lidf};
use boxes_core::naive::NaiveConfig;
use boxes_core::pager::{
    BlockId, FaultPlan, FaultPlanConfig, IoStats, Pager, PagerConfig, PagerError, RetryPolicy,
    SharedPager,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::{concentrated, scattered, UpdateStream};
use boxes_core::{BBoxScheme, DocumentDriver, LabelingScheme, NaiveScheme, WBoxScheme};
use boxes_session::{SessionManager, SessionScheme};
use boxes_trace::{TraceCounters, TraceReport};

/// Retry budget for the faulty leg — generous, so in-budget noise never
/// surfaces as an operation failure.
const BUDGET: u32 = 8;

/// One traced pager's final report, for `target/trace-report.json`.
struct Traced {
    leg: String,
    role: String,
    report: TraceReport,
}

impl Traced {
    fn of(leg: &str, role: impl Into<String>, pager: &Pager) -> Traced {
        Traced {
            leg: leg.into(),
            role: role.into(),
            report: pager.trace().report(),
        }
    }
}

/// Both sides of one pager's identity at a point in time. The default is
/// a pager's birth: its trace and its stats both start at zero.
#[derive(Default)]
struct Mark {
    attributed: TraceCounters,
    unattributed: TraceCounters,
    stats: IoStats,
}

fn mark(pager: &Pager) -> Mark {
    Mark {
        attributed: pager.trace().attributed(),
        unattributed: pager.trace().unattributed(),
        stats: pager.stats(),
    }
}

/// Enforce the identity for one pager: between `before` and now,
///
/// 1. nothing was recorded outside a span (`unattributed` did not move);
/// 2. the attributed counters agree field-for-field with the pager's own
///    [`IoStats`] delta on the seven shared counters;
/// 3. every span on the pager's trace was closed (RAII discipline — no
///    leaks).
///
/// The pager must also have done real work: a zero delta would make the
/// identity vacuous, so it fails too.
fn check_identity(label: &str, pager: &Pager, before: &Mark) -> Result<(), String> {
    let trace = pager.trace();
    let delta = pager.stats().since(&before.stats);
    if delta.total() == 0 {
        return Err(format!("{label}: leg did no I/O — identity check vacuous"));
    }
    let un = trace.unattributed().since(&before.unattributed);
    if !un.is_zero() {
        return Err(format!(
            "{label}: unattributed I/O (hot path outside any span): {un:?}"
        ));
    }
    let attr = trace.attributed().since(&before.attributed);
    let pairs: [(&str, u64, u64); 7] = [
        ("reads", attr.reads, delta.reads),
        ("writes", attr.writes, delta.writes),
        ("allocs", attr.allocs, delta.allocs),
        ("frees", attr.frees, delta.frees),
        ("retries", attr.retries, delta.retries),
        ("repairs", attr.repairs, delta.repairs),
        ("backoff_ticks", attr.backoff_ticks, delta.backoff_ticks),
    ];
    for (name, traced, counted) in pairs {
        if traced != counted {
            return Err(format!(
                "{label}: accounting identity broken on `{name}`: \
                 trace attributed {traced}, pager counted {counted}"
            ));
        }
    }
    let open = trace.open_spans();
    if open != 0 {
        return Err(format!(
            "{label}: {open} span(s) left open after the leg (RAII leak)"
        ));
    }
    Ok(())
}

/// Build a scheme on `pager`, replay `stream` through the document driver,
/// and check the identity over the pager's whole life (construction +
/// bulk load + every update op).
fn profile_stream<S: LabelingScheme>(
    leg: &str,
    pager: SharedPager,
    scheme: S,
    stream: &UpdateStream,
    traced: &mut Vec<Traced>,
) -> Result<(), String> {
    let io = |e: PagerError| format!("{leg}: {e}");
    let mut driver = DocumentDriver::load(scheme, &stream.base).map_err(io)?;
    for op in &stream.ops {
        driver.apply(op).map_err(io)?;
    }
    traced.push(Traced::of(leg, "pager", &pager));
    check_identity(leg, &pager, &Mark::default())
}

/// Journaled pager for the profiled legs (WAL attached so commit/sync and
/// read-repair activity shows up in the WAL counters too).
fn journaled_pager(block_size: usize) -> SharedPager {
    let pager = Pager::new(PagerConfig::with_block_size(block_size));
    pager.attach_journal(Wal::new(
        block_size,
        WalConfig {
            sync_every: 4,
            checkpoint_every: 8,
        },
    ));
    pager
}

/// Standalone LIDF leg: the allocator's own phase spans must attribute all
/// of its I/O even when no scheme-level op span is open.
fn profile_lidf(seed: u64, traced: &mut Vec<Traced>) -> Result<(), String> {
    const LEG: &str = "lidf/standalone";
    let pager = Pager::new(PagerConfig::with_block_size(256).with_pool(4));
    let mut lidf: Lidf<BlockPtrRecord> = Lidf::new(pager.clone());
    let mut lids = Vec::new();
    let mut state = seed;
    let io = |e: PagerError| format!("{LEG}: {e}");
    for i in 0..200u64 {
        let r = boxes_core::pager::splitmix64(state ^ i);
        state = r;
        if i % 5 == 4 && lids.len() > 8 {
            let victim = lids.swap_remove(usize::try_from(r).unwrap_or(0) % lids.len());
            lidf.free(victim).map_err(io)?;
        } else {
            let block = BlockId(u32::try_from(r & 0xffff).unwrap_or(0));
            lids.push(lidf.alloc(BlockPtrRecord::new(block)).map_err(io)?);
        }
    }
    for lid in &lids {
        lidf.read(*lid).map_err(io)?;
        lidf.is_live(*lid).map_err(io)?;
    }
    let mut n = 0u64;
    lidf.scan(|_, _| n += 1).map_err(io)?;
    traced.push(Traced::of(LEG, "pager", &pager));
    if n != lids.len() as u64 {
        return Err(format!(
            "{LEG}: scan saw {n} live records, expected {}",
            lids.len()
        ));
    }
    check_identity(LEG, &pager, &Mark::default())
}

/// Faulty leg: in-budget transient errors, latency stalls and bit rot over
/// a journaled W-BOX workload. The retries, repairs and backoff ticks the
/// fault service generates must be attributed to the operation span that
/// was open when the fault fired — fault-service I/O is not exempt from
/// the identity.
fn profile_faulty(seed: u64, traced: &mut Vec<Traced>) -> Result<(), String> {
    const LEG: &str = "faulty/wbox";
    let block_size = 1024;
    for derivation in 0..8u64 {
        let pager = journaled_pager(block_size);
        let plan = FaultPlan::new(FaultPlanConfig {
            read_error_rate: 3000,
            write_error_rate: 3000,
            bit_flip_rate: 1200,
            latency_rate: 1500,
            ..FaultPlanConfig::quiet(
                seed.wrapping_add(derivation.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                block_size,
            )
        });
        pager.attach_fault_injector(plan.clone());
        pager.set_retry_policy(RetryPolicy {
            budget: BUDGET,
            ..RetryPolicy::default()
        });
        let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(block_size));
        let stream = scattered(120, 80);
        let io = |e: PagerError| format!("{LEG}: derivation {derivation}: {e}");
        let mut driver = DocumentDriver::load(scheme, &stream.base).map_err(io)?;
        for op in &stream.ops {
            driver.apply(op).map_err(io)?;
        }
        traced.push(Traced::of(LEG, format!("derivation-{derivation}"), &pager));
        check_identity(LEG, &pager, &Mark::default())?;
        // The leg is only meaningful if the plan actually made the fault
        // counters move; a quiet roll retries with a derived seed.
        let stats = pager.stats();
        if stats.retries > 0 && stats.repairs > 0 {
            return Ok(());
        }
    }
    Err(format!(
        "{LEG}: no derivation produced both retries and repairs"
    ))
}

/// Concurrent-session leg: eight reader threads each open a snapshot
/// session, all before the writer starts streaming, then perform a fixed
/// lookup batch concurrently with the writer's inserts on this thread.
/// The identity must hold for the base pager (over the leg) and for each
/// reader's snapshot view (over its whole life), each against its own
/// trace. Per-pager traces keep every report byte-stable however the
/// threads interleave.
fn profile_sessions(traced: &mut Vec<Traced>) -> Result<(), String> {
    const LEG: &str = "sessions/wbox-readers";
    const READERS: usize = 8;
    const ROUNDS: usize = 5;
    const BATCH: usize = 8; // lookups per reader per round
    let block_size = 1024;
    let io = |e: PagerError| format!("{LEG}: {e}");
    let base = journaled_pager(block_size);
    // From before set-up: the bootstrap commit must land in a span too.
    let before = mark(&base);
    let config = WBoxConfig::from_block_size(block_size);
    let manager = SessionManager::<WBoxScheme>::create(Arc::clone(&base), config).map_err(io)?;
    let manager = Arc::new(manager);
    let lids = {
        let mut writer = manager.writer().map_err(|e| e.to_string())?;
        let partner: Vec<usize> = (0..32).map(|i| i ^ 1).collect();
        let lids = writer.try_bulk_load_document(&partner).map_err(io)?;
        writer.publish();
        lids
    };

    let mut writer = manager.writer().map_err(|e| e.to_string())?;
    let opened = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let manager = Arc::clone(&manager);
            let opened = Arc::clone(&opened);
            let lids = lids.clone();
            std::thread::spawn(move || -> Result<SharedPager, String> {
                let snap = manager.snapshot().map_err(|e| e.to_string());
                // Wait even on error, or the writer would wait forever.
                opened.wait();
                let snap = snap?;
                for _ in 0..ROUNDS {
                    for i in 0..BATCH {
                        snap.try_lookup(lids[(i * 5 + r) % lids.len()])
                            .map_err(|e| e.to_string())?;
                    }
                }
                Ok(Arc::clone(snap.pager()))
            })
        })
        .collect();

    // The writer streams self-journaling ops, so every commit lands
    // inside the op's span.
    opened.wait();
    for round in 1..=ROUNDS {
        for i in 0..3 {
            writer
                .try_insert_element_before(lids[(round * 3 + i) % lids.len()])
                .map_err(io)?;
        }
    }
    writer.publish();
    drop(writer);

    let mut views = Vec::new();
    for handle in readers {
        views.push(
            handle
                .join()
                .map_err(|_| "reader thread panicked".to_string())??,
        );
    }
    traced.push(Traced::of(LEG, "base", &base));
    for (r, view) in views.iter().enumerate() {
        traced.push(Traced::of(LEG, format!("reader-{r}"), view));
    }
    check_identity(&format!("{LEG}/base"), &base, &before)?;
    for (r, view) in views.iter().enumerate() {
        check_identity(&format!("{LEG}/reader-{r}"), view, &Mark::default())?;
    }
    Ok(())
}

/// Deterministic multithreaded snapshot-lookup legs for the trajectory:
/// for each thread count, that many reader sessions open concurrently and
/// each performs a fixed lookup batch. Throughput is lookups per
/// critical-path logical I/O (the busiest single session) — wall-clock
/// free, so the rows are byte-stable. Readers share no I/O, so the
/// aggregate must scale: the 4-reader leg is required to beat the
/// 1-reader leg by more than 2x.
fn concurrent_legs<S>(name: &str, config: S::Config) -> Result<Vec<ConcurrentLeg>, String>
where
    S: SessionScheme + 'static,
    S::Config: 'static,
{
    const LOOKUPS: u64 = 64;
    let mut legs = Vec::new();
    for threads in [1usize, 4, 8, 16] {
        let io = |e: PagerError| format!("{name}: {e}");
        let manager = SessionManager::<S>::create(journaled_pager(1024), config.clone());
        let manager = Arc::new(manager.map_err(io)?);
        let lids = {
            let mut writer = manager.writer().map_err(|e| e.to_string())?;
            let partner: Vec<usize> = (0..64).map(|i| i ^ 1).collect();
            let lids = writer.try_bulk_load_document(&partner).map_err(io)?;
            writer.publish();
            lids
        };
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let barrier = Arc::clone(&barrier);
                let lids = lids.clone();
                std::thread::spawn(move || -> Result<u64, String> {
                    let snap = manager.snapshot().map_err(|e| e.to_string())?;
                    barrier.wait();
                    let io0 = snap.io().total();
                    for i in 0..usize::try_from(LOOKUPS).unwrap_or(0) {
                        snap.try_lookup(lids[(i * 7 + t) % lids.len()])
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(snap.io().total() - io0)
                })
            })
            .collect();
        let mut ios = Vec::new();
        for handle in handles {
            ios.push(
                handle
                    .join()
                    .map_err(|_| "reader thread panicked".to_string())??,
            );
        }
        let max_session_io = ios.iter().copied().max().unwrap_or(0).max(1);
        let total_io: u64 = ios.iter().sum();
        legs.push(ConcurrentLeg {
            scheme: name.into(),
            threads,
            lookups_per_thread: LOOKUPS,
            max_session_io,
            total_io,
            throughput_per_io: (threads as u64 * LOOKUPS) as f64 / max_session_io as f64,
        });
    }
    let (t1, t4) = (legs[0].throughput_per_io, legs[1].throughput_per_io);
    if t4 <= 2.0 * t1 {
        return Err(format!(
            "{name}: 4-reader aggregate throughput {t4:.2}/io is not >2x \
             the 1-reader leg {t1:.2}/io"
        ));
    }
    Ok(legs)
}

/// Write `target/trace-report.json`: the `boxes-trace/3` document, one
/// report per traced pager labelled by leg and role.
fn write_trace_report(root: &Path, traced: &[Traced]) -> Result<(), String> {
    let mut json = String::from("{\"schema\":\"boxes-trace/3\",\"reports\":[");
    for (i, t) in traced.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"leg\":\"{}\",\"role\":\"{}\",\"trace\":{}}}",
            t.leg,
            t.role,
            t.report.to_json()
        ));
    }
    json.push_str("]}");
    let path = root.join("target").join("trace-report.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  profile: wrote {}", path.display());
    Ok(())
}

/// Write `target/BENCH_boxes.json`: the reduced-lineup perf trajectory
/// plus the multithreaded `concurrent_lookup` scaling rows.
fn write_bench_trajectory(root: &Path) -> Result<(), String> {
    let lineup = [
        SchemeKind::WBox,
        SchemeKind::WBoxO,
        SchemeKind::BBox,
        SchemeKind::Naive(8),
    ];
    let block_size = 1024;
    let conc = concentrated(1200, 400);
    let scat = scattered(1200, 300);
    let conc_results = run_schemes(&lineup, &conc, block_size);
    let scat_results = run_schemes(&lineup, &scat, block_size);
    let workloads = [
        JsonWorkload {
            name: "concentrated",
            results: &conc_results,
        },
        JsonWorkload {
            name: "scattered",
            results: &scat_results,
        },
    ];
    let mut concurrent = concurrent_legs::<WBoxScheme>("W-BOX", WBoxConfig::from_block_size(1024))?;
    concurrent.extend(concurrent_legs::<BBoxScheme>(
        "B-BOX",
        BBoxConfig::from_block_size(1024),
    )?);
    let json = bench_json_full(block_size, &workloads, &concurrent);
    let path = root.join("target").join("BENCH_boxes.json");
    write_bench_json(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  profile: wrote {}", path.display());
    Ok(())
}

/// Run every attribution leg; prints one line per leg and returns overall
/// success.
pub(crate) fn profile_lint(seed: u64, root: &Path) -> bool {
    let mut checks: Vec<(String, Result<(), String>)> = Vec::new();
    let mut traced = Vec::new();

    // Every scheme variant over a seeded stream, journaled.
    let stream_c = concentrated(160, 90);
    let stream_s = scattered(200, 70);

    let p = journaled_pager(1024);
    checks.push((
        "wbox/concentrated".into(),
        profile_stream(
            "wbox/concentrated",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size(1024)),
            &stream_c,
            &mut traced,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "wbox-pair/scattered".into(),
        profile_stream(
            "wbox-pair/scattered",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size_paired(1024)),
            &stream_s,
            &mut traced,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "wbox-ordinal/concentrated".into(),
        profile_stream(
            "wbox-ordinal/concentrated",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size(1024).with_ordinal()),
            &stream_c,
            &mut traced,
        ),
    ));
    let p = journaled_pager(256);
    checks.push((
        "bbox/concentrated".into(),
        profile_stream(
            "bbox/concentrated",
            p.clone(),
            BBoxScheme::new(p.clone(), BBoxConfig::from_block_size(256)),
            &stream_c,
            &mut traced,
        ),
    ));
    let p = journaled_pager(256);
    checks.push((
        "bbox-ordinal/scattered".into(),
        profile_stream(
            "bbox-ordinal/scattered",
            p.clone(),
            BBoxScheme::new(p.clone(), BBoxConfig::from_block_size(256).with_ordinal()),
            &stream_s,
            &mut traced,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "naive-8/scattered".into(),
        profile_stream(
            "naive-8/scattered",
            p.clone(),
            NaiveScheme::new(p.clone(), NaiveConfig { extra_bits: 8 }),
            &stream_s,
            &mut traced,
        ),
    ));

    // Allocator and fault-service legs.
    checks.push(("lidf/standalone".into(), profile_lidf(seed, &mut traced)));
    checks.push(("faulty/wbox".into(), profile_faulty(seed, &mut traced)));

    // Concurrent sessions: the identity with eight live snapshot readers.
    checks.push((
        "sessions/wbox-readers".into(),
        profile_sessions(&mut traced),
    ));

    let mut ok = true;
    for (name, result) in checks {
        match result {
            Ok(()) => println!("  profile: {name:<28} ok"),
            Err(msg) => {
                eprintln!("  profile: {name:<28} FAILED\n    {msg}");
                ok = false;
            }
        }
    }

    // Artifacts: one span/counter report per pager profiled above, then
    // the bench trajectory (run last — it is not identity-checked).
    if let Err(msg) = write_trace_report(root, &traced) {
        eprintln!("  profile: trace-report FAILED: {msg}");
        ok = false;
    }
    if let Err(msg) = write_bench_trajectory(root) {
        eprintln!("  profile: bench trajectory FAILED: {msg}");
        ok = false;
    }
    ok
}
