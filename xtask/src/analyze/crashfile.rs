//! The process-kill crash matrix: real files, real kills.
//!
//! The in-process sweeps in [`crash`](super::crash) prove the WAL protocol
//! against *simulated* crashes (a disk and log that stop changing at the
//! fired tick, in-memory byte buffers). This pass removes both simulations.
//! A child process (`cargo xtask crash-child`, re-entered via
//! `current_exe`) runs the same deterministic workload against a
//! file-backed pager and a file-backed WAL in a scratch directory, with a
//! crash clock armed at one tick; once the clock has fired the child stops
//! the workload and calls [`std::process::abort`] — no destructors, no
//! flushes, the kernel reclaims the process. The parent then plays coroner:
//! it reads the dead process's files cold ([`FileLogStore::read_log`] +
//! [`recover_image`]), recovers, and holds the result to the same
//! committed-prefix oracle and structure audits as the in-process sweeps,
//! plus a durability floor: every operation whose group-commit fsync was
//! observed by the child **before** the kill must be present after recovery.
//!
//! Each configuration runs twice: once recovering the files exactly as the
//! dead process left them (a process kill preserves the OS page cache, so
//! unsynced-but-complete appends may legitimately survive), and once after
//! *shredding* — truncating the log to a 512-byte sector boundary, modeling
//! a power loss that tears the final in-flight sector. Shredding never cuts
//! below the fsync-covered prefix (real sectors don't lose acknowledged
//! writes; they lose in-flight ones).
//!
//! The pass ends with the fsyncgate negative control: a fault-wrapped log
//! file whose nth fsync fails must poison the WAL, degrade the pager, and
//! provably never ack the failed operation — recovery yields exactly the
//! pre-fault prefix. The machine-readable summary lands in
//! `target/crash-file-report.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use boxes_audit::Auditable;
use boxes_core::bbox::BBoxConfig;
use boxes_core::durable::{reopen_bbox, reopen_wbox};
use boxes_core::pager::{
    codec, recover_image, sector_floor, FaultFile, FileFaultPlan, IoResult, Pager, PagerConfig,
    PagerError, RawFile, SharedPager,
};
use boxes_core::wal::crashpoint::{ClockFault, CrashClock};
use boxes_core::wal::store::{FileLogStore, HEADER_SIZE};
use boxes_core::wal::{recover, Recovered, Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{BBoxScheme, LabelingScheme, WBoxScheme};

use super::crash::{apply_op, committed_ops, verify_recovered, DocState, OPS};

/// Group commit width for the matrix: wide enough that kills land between
/// an op's append and its batch's fsync.
const SYNC_EVERY: u64 = 2;
/// Checkpoint cadence: low enough that kills land inside a file rotation.
const CHECKPOINT_EVERY: u64 = 2;

fn block_size_of(scheme: &str) -> Option<usize> {
    match scheme {
        "wbox" => Some(1024),
        "bbox" => Some(256),
        _ => None,
    }
}

/// The child's workload: identical op stream and harness meta to the
/// in-process sweeps (so the parent can reuse their oracle), plus the
/// durability-floor progress file — whenever the WAL's fsync counter
/// advances after op `i`, ops `0..=i` are on the medium, and the child
/// records that floor where the parent's post-mortem can read it. The
/// process is dead from the fired tick on, so once `clock` has fired the
/// workload stops before it records anything more.
fn child_workload<S: LabelingScheme>(
    build: impl FnOnce(SharedPager) -> S,
    pager: &SharedPager,
    wal: &Wal,
    clock: &CrashClock,
    progress: &Path,
) -> IoResult<()> {
    let mut s = build(pager.clone());
    let mut st = DocState::default();
    let mut syncs = wal.stats().syncs;
    for i in 0..=OPS {
        let txn = pager.txn()?;
        apply_op(&mut s, i, &mut st)?;
        pager.txn_meta("harness", || {
            let mut w = boxes_core::pager::VecWriter::new();
            w.u64(i + 1);
            w.into_bytes()
        });
        txn.commit();
        if clock.fired() {
            return Ok(());
        }
        let now = wal.stats().syncs;
        if now > syncs {
            syncs = now;
            // Plain write, no fsync: a process kill keeps the page cache,
            // which is exactly the durability class this file needs.
            let _ = std::fs::write(progress, format!("{} {}", i + 1, wal.durable_len()));
        }
    }
    Ok(())
}

/// Entry point of the `crash-child` xtask mode. Arguments:
/// `<dir> <scheme> <seed> <kill_tick>`; `kill_tick` 0 runs to completion
/// and prints `TICKS <n>` (the tick-counting pass), any other value arms
/// the crash clock at that tick and **aborts the process** once it fires.
pub(crate) fn crash_child(args: &[String]) -> i32 {
    let parsed = (|| -> Option<(PathBuf, String, u64, u64)> {
        let [dir, scheme, seed, kill] = args else {
            return None;
        };
        Some((
            PathBuf::from(dir),
            scheme.clone(),
            seed.parse().ok()?,
            kill.parse().ok()?,
        ))
    })();
    let Some((dir, scheme, seed, kill)) = parsed else {
        eprintln!("usage: xtask crash-child <dir> <scheme> <seed> <kill_tick>");
        return 2;
    };
    let Some(bs) = block_size_of(&scheme) else {
        eprintln!("crash-child: unknown scheme `{scheme}`");
        return 2;
    };
    let pager = Pager::new(PagerConfig::with_block_size(bs).backed_by_file(dir.join("db.bin")));
    let store = match FileLogStore::create(&dir.join("wal.bin"), bs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("crash-child: creating the log: {e}");
            return 3;
        }
    };
    let clock = CrashClock::new(seed);
    let config = WalConfig {
        sync_every: SYNC_EVERY,
        checkpoint_every: CHECKPOINT_EVERY,
    };
    let wal = Wal::with_store(bs, config, Some(clock.clone()), Box::new(store));
    pager.attach_journal(wal.clone());
    pager.attach_fault_injector(ClockFault::new(clock.clone(), bs));
    if kill > 0 {
        clock.arm(kill);
    }
    let progress = dir.join("progress.txt");
    let outcome = match scheme.as_str() {
        "wbox" => child_workload(
            |p| WBoxScheme::new(p, WBoxConfig::from_block_size(1024)),
            &pager,
            &wal,
            &clock,
            &progress,
        ),
        "bbox" => child_workload(
            |p| BBoxScheme::new(p, BBoxConfig::from_block_size(256)),
            &pager,
            &wal,
            &clock,
            &progress,
        ),
        _ => unreachable!("scheme validated above"),
    };
    if clock.fired() {
        // The point of the exercise: die the way a kill -9 dies. No
        // unwinding, no Drop impls, no flushes.
        std::process::abort();
    }
    match outcome {
        Ok(()) => {
            println!("TICKS {}", clock.ticks());
            0
        }
        Err(e) => {
            eprintln!("crash-child: workload failed: {e}");
            4
        }
    }
}

/// Truncate a dead process's log the way a power cut would: down to a
/// sector boundary, but never below the fsync-acknowledged prefix (the
/// durability floor the child recorded) — acknowledged sectors are stable,
/// only the in-flight tail tears.
fn shred_log(path: &Path, durable_payload: u64) -> Result<(), String> {
    let len = std::fs::metadata(path)
        .map_err(|e| format!("shred: stat {}: {e}", path.display()))?
        .len();
    let floor = codec::usize_to_u64(sector_floor(codec::u64_to_index(len)));
    let keep = (HEADER_SIZE + durable_payload).max(floor).min(len);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("shred: open {}: {e}", path.display()))?;
    file.set_len(keep)
        .map_err(|e| format!("shred: truncate {}: {e}", path.display()))
}

/// `(committed_ops_floor, durable_payload_bytes)` the child last recorded,
/// or zeros when it died before the first group-commit fsync.
fn read_progress(dir: &Path) -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string(dir.join("progress.txt")) else {
        return (0, 0);
    };
    let mut it = text.split_whitespace();
    let ops = it.next().and_then(|t| t.parse().ok()).unwrap_or(0);
    let dlen = it.next().and_then(|t| t.parse().ok()).unwrap_or(0);
    (ops, dlen)
}

/// Recover the child's remains and verify against the oracle + audits.
fn verify_scheme(scheme: &str, label: &str, target: u64, rec: &Recovered) -> Result<(), String> {
    match scheme {
        "wbox" => {
            let fresh = || WBoxScheme::with_block_size(1024);
            let reopen = |r: &Recovered| Ok(reopen_wbox(r, WBoxConfig::from_block_size(1024)));
            let audit = |s: &WBoxScheme| {
                let report = s.inner().audit();
                report
                    .is_clean()
                    .then_some(())
                    .ok_or_else(|| report.to_string())
            };
            verify_recovered(label, target, rec, &reopen, &fresh, &audit)
        }
        "bbox" => {
            let fresh = || {
                BBoxScheme::new(
                    Pager::new(PagerConfig::with_block_size(256)),
                    BBoxConfig::from_block_size(256),
                )
            };
            let reopen = |r: &Recovered| Ok(reopen_bbox(r, BBoxConfig::from_block_size(256)));
            let audit = |s: &BBoxScheme| {
                let report = s.inner().audit();
                report
                    .is_clean()
                    .then_some(())
                    .ok_or_else(|| report.to_string())
            };
            verify_recovered(label, target, rec, &reopen, &fresh, &audit)
        }
        _ => Err(format!("{label}: unknown scheme `{scheme}`")),
    }
}

/// One matrix cell's aggregate, for the JSON report.
struct MatrixEntry {
    scheme: String,
    seed: u64,
    shred: bool,
    ticks: u64,
    kills: u64,
    min_committed: u64,
    max_committed: u64,
}

fn prep_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn child_command(exe: &Path, dir: &Path, scheme: &str, seed: u64, kill: u64) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("crash-child")
        .arg(dir)
        .arg(scheme)
        .arg(seed.to_string())
        .arg(kill.to_string());
    cmd
}

/// Sweep every kill point of one (scheme, seed, shred) configuration.
fn sweep_one(
    exe: &Path,
    base: &Path,
    scheme: &str,
    seed: u64,
    shred: bool,
) -> Result<MatrixEntry, String> {
    let mode = if shred { "shred" } else { "noshred" };
    let label = format!("{scheme}/{seed:#x}/{mode}");
    let bs = block_size_of(scheme).ok_or_else(|| format!("unknown scheme `{scheme}`"))?;
    let dir = base.join(format!("{scheme}-{seed:x}-{mode}"));

    // Pass 1: run the child to completion to count the kill points.
    prep_dir(&dir)?;
    let out = child_command(exe, &dir, scheme, seed, 0)
        .output()
        .map_err(|e| format!("{label}: spawning tick-count child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{label}: tick-count child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ticks: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("TICKS ")?.trim().parse().ok())
        .ok_or_else(|| format!("{label}: child printed no tick count: {stdout:?}"))?;
    if ticks < 20 {
        return Err(format!(
            "{label}: only {ticks} kill points — workload too small to be meaningful"
        ));
    }

    // Pass 2: kill the child at every one of them, recover the remains.
    let mut entry = MatrixEntry {
        scheme: scheme.into(),
        seed,
        shred,
        ticks,
        kills: 0,
        min_committed: u64::MAX,
        max_committed: 0,
    };
    for target in 1..=ticks {
        prep_dir(&dir)?;
        let status = child_command(exe, &dir, scheme, seed, target)
            .output()
            .map_err(|e| format!("{label}: spawning kill child: {e}"))?
            .status;
        if status.success() {
            return Err(format!("{label}: tick {target} did not kill the child"));
        }
        entry.kills += 1;
        let (floor_ops, floor_bytes) = read_progress(&dir);
        let log_path = dir.join("wal.bin");
        if shred {
            shred_log(&log_path, floor_bytes)?;
        }
        let bytes = FileLogStore::read_log(&log_path, bs)
            .map_err(|e| format!("{label}: tick {target}: reading the dead log: {e}"))?;
        let image = recover_image(&dir.join("db.bin"), bs)
            .map_err(|e| format!("{label}: tick {target}: reading the dead image: {e}"))?;
        let rec = recover(&bytes, image)
            .map_err(|e| format!("{label}: tick {target}: recovery failed: {e}"))?;
        let committed = committed_ops(&rec);
        if committed < floor_ops {
            return Err(format!(
                "{label}: tick {target}: durability floor violated — the child saw \
                 {floor_ops} op(s) fsync-acknowledged but recovery kept {committed}"
            ));
        }
        verify_scheme(scheme, &label, target, &rec)?;
        entry.min_committed = entry.min_committed.min(committed);
        entry.max_committed = entry.max_committed.max(committed);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(entry)
}

/// Aggregate of the fsyncgate negative control, for the JSON report.
struct NegativeControl {
    acked_before_fault: u64,
    recovered_committed: u64,
    sync_failures: u64,
    degraded_entries: u64,
}

/// The fsyncgate negative control: a log file whose 4th fsync fails
/// (header, scheme construction, op 0; op 1's barrier dies). The WAL must
/// poison, the pager must degrade, no post-fault op may ever be acked, and
/// recovery must yield exactly the pre-fault prefix.
fn fsync_negative_control(base: &Path) -> Result<NegativeControl, String> {
    const BS: usize = 1024;
    let dir = base.join("fsync-control");
    prep_dir(&dir)?;
    let plan = FileFaultPlan {
        fail_sync_at: Some(4),
        ..FileFaultPlan::default()
    };
    let store = FileLogStore::create_with(&dir.join("wal.bin"), BS, |f| -> Box<dyn RawFile> {
        Box::new(FaultFile::new(f, plan))
    })
    .map_err(|e| format!("fsync-control: creating the log: {e}"))?;
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let wal = Wal::with_store(BS, WalConfig::default(), None, Box::new(store));
    pager.attach_journal(wal.clone());
    let mut s = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(BS));
    let mut st = DocState::default();
    let mut acked = 0u64;
    // Run real ops until the injected fsync failure poisons the log. The
    // faulted op itself must be *absorbed* (degraded entry, no panic, no
    // ack), so no iteration here may unwind.
    for i in 0..=OPS {
        if wal.poisoned() {
            break;
        }
        let txn = pager
            .txn()
            .map_err(|e| format!("fsync-control: op {i} rejected before the fault: {e}"))?;
        apply_op(&mut s, i, &mut st).map_err(|e| format!("fsync-control: op {i} failed: {e}"))?;
        pager.txn_meta("harness", || {
            let mut w = boxes_core::pager::VecWriter::new();
            w.u64(i + 1);
            w.into_bytes()
        });
        txn.commit();
        if !wal.poisoned() {
            acked = i + 1;
        }
    }
    if !wal.poisoned() {
        return Err("fsync-control: the injected fsync failure never fired".into());
    }
    if acked != 1 {
        return Err(format!(
            "fsync-control: expected exactly op 0 acknowledged before the fault, got {acked}"
        ));
    }
    // Every later mutation must be rejected with the typed degraded error —
    // repeatedly, because FaultFile lets later fsyncs succeed (the
    // fsyncgate trap a retrying implementation would fall into). The probe
    // goes straight to `Pager::write`, which checks the degraded gate
    // before any allocation checks.
    let mut denied = 0u64;
    let probe = vec![0u8; BS];
    for _ in 0..3 {
        match pager.write(boxes_core::pager::BlockId(0), &probe) {
            Ok(()) => {
                return Err("fsync-control: degraded pager accepted a mutation".into());
            }
            Err(PagerError::Degraded(_)) => denied += 1,
            Err(other) => {
                return Err(format!(
                    "fsync-control: expected a typed degraded rejection, got {other:?}"
                ));
            }
        }
    }
    if denied != 3 {
        return Err(format!(
            "fsync-control: degraded mode rejected {denied} mutations, expected 3"
        ));
    }
    let stats = wal.stats();
    if stats.sync_failures != 1 {
        return Err(format!(
            "fsync-control: {} sync failures recorded — the fsync was retried",
            stats.sync_failures
        ));
    }
    if pager.health().is_ok() {
        return Err("fsync-control: pager did not enter degraded mode".into());
    }
    if pager.try_resume().is_ok() {
        return Err("fsync-control: resume must be refused while the journal is poisoned".into());
    }
    let rec = recover(&wal.durable_bytes(), pager.disk_image())
        .map_err(|e| format!("fsync-control: recovery failed: {e}"))?;
    let committed = committed_ops(&rec);
    if committed != acked {
        return Err(format!(
            "fsync-control: recovery kept {committed} op(s) but only {acked} was ever \
             fsync-acknowledged — a lost commit was acked"
        ));
    }
    verify_scheme("wbox", "fsync-control", 0, &rec)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(NegativeControl {
        acked_before_fault: acked,
        recovered_committed: committed,
        sync_failures: stats.sync_failures,
        degraded_entries: pager.degraded_entries(),
    })
}

/// Render `crash-file-report.json` (schema `boxes-crash-file/1`).
fn render_report(entries: &[MatrixEntry], control: &NegativeControl) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"boxes-crash-file/1\",\"sync_every\":");
    out.push_str(&SYNC_EVERY.to_string());
    out.push_str(",\"checkpoint_every\":");
    out.push_str(&CHECKPOINT_EVERY.to_string());
    out.push_str(",\"matrix\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"scheme\":\"");
        out.push_str(&e.scheme);
        out.push_str("\",\"seed\":");
        out.push_str(&e.seed.to_string());
        out.push_str(",\"shred\":");
        out.push_str(if e.shred { "true" } else { "false" });
        out.push_str(",\"kill_points\":");
        out.push_str(&e.ticks.to_string());
        out.push_str(",\"kills\":");
        out.push_str(&e.kills.to_string());
        out.push_str(",\"min_committed\":");
        out.push_str(&e.min_committed.to_string());
        out.push_str(",\"max_committed\":");
        out.push_str(&e.max_committed.to_string());
        out.push('}');
    }
    out.push_str("],\"fsync_control\":{\"acked_before_fault\":");
    out.push_str(&control.acked_before_fault.to_string());
    out.push_str(",\"recovered_committed\":");
    out.push_str(&control.recovered_committed.to_string());
    out.push_str(",\"sync_failures\":");
    out.push_str(&control.sync_failures.to_string());
    out.push_str(",\"degraded_entries\":");
    out.push_str(&control.degraded_entries.to_string());
    out.push_str("}}\n");
    out
}

/// Run the full process-kill crash matrix; prints one line per cell and
/// writes `target/crash-file-report.json`. Returns overall success.
pub(crate) fn crash_file_lint(seed: u64, root: &Path) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("  crash-file: cannot locate own executable: {e}");
            return false;
        }
    };
    let base = root.join("target").join("crash-file");
    let mut entries = Vec::new();
    let mut ok = true;
    for scheme in ["wbox", "bbox"] {
        for s in [seed, seed ^ 0x9e37_79b9] {
            for shred in [false, true] {
                match sweep_one(&exe, &base, scheme, s, shred) {
                    Ok(e) => {
                        println!(
                            "  crash-file: {scheme}/{s:#x}/{:<8} ok ({} kills, committed {}..={})",
                            if shred { "shred" } else { "noshred" },
                            e.kills,
                            e.min_committed,
                            e.max_committed
                        );
                        entries.push(e);
                    }
                    Err(msg) => {
                        eprintln!(
                            "  crash-file: {scheme}/{s:#x}/{:<8} FAILED\n{msg}",
                            if shred { "shred" } else { "noshred" }
                        );
                        ok = false;
                    }
                }
            }
        }
    }
    let control = match fsync_negative_control(&base) {
        Ok(c) => {
            println!(
                "  crash-file: fsync-negative-control ok ({} acked, {} recovered)",
                c.acked_before_fault, c.recovered_committed
            );
            Some(c)
        }
        Err(msg) => {
            eprintln!("  crash-file: fsync-negative-control FAILED\n{msg}");
            ok = false;
            None
        }
    };
    if let Some(control) = control {
        let report = render_report(&entries, &control);
        let path = root.join("target").join("crash-file-report.json");
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("  crash-file: writing {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}
