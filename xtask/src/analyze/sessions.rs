//! The session stress pass: eight snapshot readers racing one streaming
//! writer under fixed seeds. Readers 0–3 each hold a *disjoint* quarter of
//! the document (their probe lids never overlap, so their reads land on
//! mostly-disjoint page-table shards); readers 4–7 probe the *full* range,
//! overlapping each other and the disjoint group on the same shards. Each
//! reader holds one *long-lived* snapshot for the whole run (its labels
//! must never move, however many epochs the writer publishes over it)
//! while also churning short-lived snapshots (whose epochs must be
//! monotone and never torn). The pass ends with a pager audit — dropping
//! every session must leave no pinned epoch, no frozen version, and no
//! pinned pool frame behind — and writes the machine-readable
//! `target/session-report.json` artifact (schema `boxes-session/2`,
//! including the per-seed shard-latch tallies).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use boxes_audit::Auditable;
use boxes_core::pager::{splitmix64, Pager, PagerConfig, PagerError, SharedPager};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{LabelingScheme, WBoxScheme};
use boxes_session::SessionManager;

/// Reader threads per seed: the first `DISJOINT_READERS` probe disjoint
/// lid quarters, the rest probe the full overlapping range.
const READERS: usize = 8;
/// Readers pinned to disjoint quarters of the document.
const DISJOINT_READERS: usize = 4;
/// Writer operations per seed (beyond the bulk load).
const OPS: usize = 80;
/// The fixed stress seeds (CI runs exactly these).
const STRESS_SEEDS: [u64; 2] = [0x5e55_1001, 0xbeef];

/// What one reader thread observed.
struct ReaderStats {
    snapshots: u64,
    last_epoch: u64,
    reads: u64,
}

/// One seed's outcome.
struct SeedStats {
    seed: u64,
    final_epoch: u64,
    readers: Vec<ReaderStats>,
    /// Page-table shard latch acquisitions across the whole run.
    shard_acquisitions: u64,
    /// How many of those found the shard mutex already held.
    shard_contended: u64,
}

fn journaled_pager(block_size: usize) -> SharedPager {
    let pager = Pager::new(PagerConfig::with_block_size(block_size));
    pager.attach_journal(Wal::new(
        block_size,
        WalConfig {
            sync_every: 4,
            checkpoint_every: 0,
        },
    ));
    pager
}

/// Run the stress for one seed; returns the per-seed stats or a
/// description of the first violated invariant.
fn stress(seed: u64) -> Result<SeedStats, String> {
    let block_size = 1024;
    let io = |e: PagerError| e.to_string();
    let config = WBoxConfig::from_block_size(block_size);
    let manager = SessionManager::<WBoxScheme>::create(journaled_pager(block_size), config);
    let manager = Arc::new(manager.map_err(io)?);

    // Bulk load a flat 8-element document and publish it so every reader
    // has a committed epoch from the start.
    let lids = {
        let mut writer = manager.writer().map_err(|e| e.to_string())?;
        let txn = manager.pager().txn().map_err(io)?;
        let partner: Vec<usize> = (0..16).map(|i| i ^ 1).collect();
        let lids = writer.try_bulk_load_document(&partner).map_err(io)?;
        txn.commit();
        if !writer.publish() {
            return Err("bulk load did not publish an epoch".into());
        }
        lids
    };

    let done = Arc::new(AtomicBool::new(false));
    // Open every long-lived snapshot *at the baseline epoch*, before the
    // writer streams: all probe lids are alive there, and the pager must
    // keep frozen pre-images of every block the writer later touches until
    // the owning thread exits.
    let mut helds = Vec::new();
    for _ in 0..READERS {
        helds.push(manager.snapshot().map_err(|e| e.to_string())?);
    }
    let readers: Vec<_> = helds
        .into_iter()
        .enumerate()
        .map(|(r, held)| {
            let manager = Arc::clone(&manager);
            let done = Arc::clone(&done);
            // Disjoint quarters for readers 0–3; the full overlapping
            // range for 4–7 — both shard-access patterns stay covered.
            let quarter = lids.len() / DISJOINT_READERS;
            let probes: Vec<_> = if r < DISJOINT_READERS {
                lids[r * quarter..(r + 1) * quarter].to_vec()
            } else {
                lids.clone()
            };
            std::thread::spawn(move || -> Result<ReaderStats, String> {
                let frozen = probes
                    .iter()
                    .map(|&p| held.try_lookup(p))
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|e| e.to_string())?;
                let held_len = held.len();
                let mut last_epoch = 0u64;
                let mut snapshots = 0u64;
                let mut reads = 0u64;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = manager.snapshot().map_err(|e| e.to_string())?;
                    if snap.epoch() < last_epoch {
                        return Err(format!(
                            "epoch went backwards: {} after {last_epoch}",
                            snap.epoch()
                        ));
                    }
                    if snap.len() % 2 != 0 {
                        return Err(format!(
                            "epoch {}: odd live-tag count {} (torn element pair)",
                            snap.epoch(),
                            snap.len()
                        ));
                    }
                    last_epoch = snap.epoch();
                    snapshots += 1;
                    reads += snap.io().reads;
                    drop(snap);
                    let now = probes
                        .iter()
                        .map(|&p| held.try_lookup(p))
                        .collect::<Result<Vec<u64>, _>>()
                        .map_err(|e| e.to_string())?;
                    if now != frozen || held.len() != held_len {
                        return Err(format!(
                            "held snapshot (epoch {}) moved under the writer",
                            held.epoch()
                        ));
                    }
                    if finished {
                        break;
                    }
                }
                reads += held.io().reads;
                Ok(ReaderStats {
                    snapshots,
                    last_epoch,
                    reads,
                })
            })
        })
        .collect();

    // The writer streams a seeded insert/delete mix through the journaled
    // path; element pairs stay adjacent so live snapshots are always whole
    // documents.
    {
        let mut writer = manager.writer().map_err(|e| e.to_string())?;
        let mut elements: Vec<(boxes_core::lidf::Lid, boxes_core::lidf::Lid)> =
            lids.chunks(2).map(|c| (c[0], c[1])).collect();
        let mut state = seed;
        for _ in 0..OPS {
            state = splitmix64(state);
            let pick = usize::try_from(state >> 8).unwrap_or(0);
            if state % 10 < 7 || elements.len() <= 4 {
                let anchor = elements[pick % elements.len()].0;
                let txn = manager.pager().txn().map_err(io)?;
                let pair = writer.try_insert_element_before(anchor).map_err(io)?;
                txn.commit();
                elements.push(pair);
            } else {
                let (start, end) = elements.remove(pick % elements.len());
                let txn = manager.pager().txn().map_err(io)?;
                writer.try_delete_subtree(start, end).map_err(io)?;
                txn.commit();
            }
        }
        writer.publish();
    }
    done.store(true, Ordering::SeqCst);

    let mut stats = Vec::new();
    for handle in readers {
        stats.push(
            handle
                .join()
                .map_err(|_| "reader thread panicked".to_string())??,
        );
    }

    // Every session is gone: the pager must be pin- and version-clean.
    let report = manager.pager().audit();
    if !report.is_clean() {
        return Err(format!(
            "pager audit after all sessions closed: {} violation(s): {:?}",
            report.violations().len(),
            report.violations().first()
        ));
    }
    let (shard_acquisitions, shard_contended) = manager
        .shard_stats()
        .iter()
        .fold((0, 0), |(a, c), s| (a + s.acquisitions, c + s.contended));
    Ok(SeedStats {
        seed,
        final_epoch: manager.pager().published_epoch(),
        readers: stats,
        shard_acquisitions,
        shard_contended,
    })
}

/// Render `session-report.json` (schema `boxes-session/2`). Snapshot and
/// latch counts are timing-dependent by design — the artifact records what
/// the stress actually exercised, not a deterministic trajectory.
fn render_report(seeds: &[SeedStats]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"boxes-session/2\",\"scheme\":\"W-BOX\",\"readers\":");
    out.push_str(&READERS.to_string());
    out.push_str(",\"disjoint_readers\":");
    out.push_str(&DISJOINT_READERS.to_string());
    out.push_str(",\"writer_ops\":");
    out.push_str(&OPS.to_string());
    out.push_str(",\"seeds\":[");
    for (si, s) in seeds.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push_str("{\"seed\":");
        out.push_str(&s.seed.to_string());
        out.push_str(",\"final_epoch\":");
        out.push_str(&s.final_epoch.to_string());
        out.push_str(",\"shard_acquisitions\":");
        out.push_str(&s.shard_acquisitions.to_string());
        out.push_str(",\"shard_contended\":");
        out.push_str(&s.shard_contended.to_string());
        out.push_str(",\"readers\":[");
        for (ri, r) in s.readers.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str("{\"snapshots\":");
            out.push_str(&r.snapshots.to_string());
            out.push_str(",\"last_epoch\":");
            out.push_str(&r.last_epoch.to_string());
            out.push_str(",\"reads\":");
            out.push_str(&r.reads.to_string());
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Run the stress under every fixed seed, write the report artifact, and
/// return overall success.
pub(crate) fn sessions_lint(root: &Path) -> bool {
    let mut ok = true;
    let mut seeds = Vec::new();
    for seed in STRESS_SEEDS {
        match stress(seed) {
            Ok(stats) => {
                let validated: u64 = stats.readers.iter().map(|r| r.snapshots).sum();
                println!(
                    "  sessions: seed {seed:#x} ok ({validated} snapshots validated, \
                     final epoch {})",
                    stats.final_epoch
                );
                seeds.push(stats);
            }
            Err(msg) => {
                eprintln!("  sessions: seed {seed:#x} FAILED\n    {msg}");
                ok = false;
            }
        }
    }
    let path = root.join("target").join("session-report.json");
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("  sessions: mkdir {}: {e}", parent.display());
            return false;
        }
    }
    if let Err(e) = std::fs::write(&path, render_report(&seeds)) {
        eprintln!("  sessions: write {}: {e}", path.display());
        return false;
    }
    println!("  sessions: wrote {}", path.display());
    ok
}
