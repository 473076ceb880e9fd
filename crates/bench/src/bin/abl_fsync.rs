//! **A7 — ablation**: what real durability costs. The same group-commit
//! sweep as A5, but with the log on a real file (`FileLogStore`: positioned
//! appends + fsync per group commit) next to the in-memory log, and the
//! pager's blocks on a real file too. Reported per variant: replay wall
//! time, sustained ops/s, fsync count, the durable log left behind, and a
//! *cold* recovery — the store and log are re-read from disk the way the
//! crash matrix reads a dead process's files — timed end to end.

use std::path::PathBuf;
use std::time::Instant;

use boxes_bench::{Scale, Table};
use boxes_core::pager::{recover_image, Pager, PagerConfig};
use boxes_core::wal::store::FileLogStore;
use boxes_core::wal::{recover, Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{DocumentDriver, WBoxScheme};

/// One sweep point: log placement x group-commit width.
struct Variant {
    name: &'static str,
    on_file: bool,
    config: WalConfig,
}

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("boxes-abl-fsync-{tag}-{}", std::process::id()));
    p
}

fn main() {
    let (scale, bs) = Scale::from_args();
    let stream =
        boxes_core::xml::workload::concentrated(scale.base_elements / 2, scale.insert_elements / 2);
    let sweep = [
        ("mem sync=1", false, 1, 0),
        ("mem sync=4", false, 4, 0),
        ("mem sync=16", false, 16, 0),
        ("file sync=1", true, 1, 0),
        ("file sync=4", true, 4, 0),
        ("file sync=16", true, 16, 0),
        ("file sync=1 ckpt=256", true, 1, 256),
    ];
    let variants: Vec<Variant> = sweep
        .iter()
        .map(|&(name, on_file, sync_every, checkpoint_every)| Variant {
            name,
            on_file,
            config: WalConfig {
                sync_every,
                checkpoint_every,
            },
        })
        .collect();
    let mut table = Table::new(
        "Ablation: fsync and file-backed durability (W-BOX, concentrated)",
        &[
            "log",
            "replay ms",
            "ops/s",
            "fsyncs",
            "durable log KB",
            "cold recover ms",
            "redone commits",
        ],
    );
    let ops = stream.ops.len();
    for v in &variants {
        let db = temp_path(&format!("db-{}", v.name.replace([' ', '='], "_")));
        let log = temp_path(&format!("log-{}", v.name.replace([' ', '='], "_")));
        let pager = if v.on_file {
            Pager::new(PagerConfig::with_block_size(bs).backed_by_file(&db))
        } else {
            Pager::new(PagerConfig::with_block_size(bs))
        };
        let wal = if v.on_file {
            Wal::create_file(&log, bs, v.config).expect("file log creates")
        } else {
            Wal::new(bs, v.config)
        };
        pager.attach_journal(wal.clone());
        eprint!("  {} ...", v.name);
        let start = Instant::now();
        let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(bs));
        let mut driver = DocumentDriver::load(scheme, &stream.base).unwrap();
        driver.replay(&stream.ops).unwrap();
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(" {replay_ms:.0} ms");
        let stats = wal.stats();

        // Cold recovery: re-read both files from disk, the way the crash
        // matrix autopsies a killed process; the in-memory variant recovers
        // from its live buffers (its floor, with deserialization for free).
        let t = Instant::now();
        let recovered = if v.on_file {
            let image = recover_image(&db, bs).expect("db file scans");
            let bytes = FileLogStore::read_log(&log, bs).expect("log file reads");
            recover(&bytes, image).expect("cold log recovers")
        } else {
            recover(&wal.durable_bytes(), pager.disk_image()).expect("clean log recovers")
        };
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        let log_kb = wal.durable_len() as f64 / 1024.0;
        table.row(vec![
            v.name.into(),
            format!("{replay_ms:.1}"),
            format!("{:.0}", ops as f64 / (replay_ms / 1e3)),
            stats.syncs.to_string(),
            format!("{log_kb:.1}"),
            format!("{recover_ms:.2}"),
            recovered.commits.to_string(),
        ]);
        drop(driver);
        drop(pager);
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&log).ok();
    }
    table.print();
}
