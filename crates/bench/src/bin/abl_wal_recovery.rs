//! **A5 — ablation**: write-ahead-logging overhead and recovery cost.
//!
//! The paper's experiments assume a fault-free run; `boxes-wal` adds
//! crash consistency. This ablation quantifies what that costs on E1's
//! concentrated insertion workload (W-BOX): replay wall time with the WAL
//! off vs on at several group-commit batch sizes, the durable log length
//! each configuration leaves behind, and how long `recover()` takes to
//! redo it — including a checkpointed configuration whose truncated log
//! recovers near-instantly regardless of workload length.

use std::time::Instant;

use boxes_bench::{Scale, Table};
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wal::{recover, Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{DocumentDriver, WBoxScheme};

/// One WAL configuration of the sweep; `None` = journaling disabled.
struct Variant {
    name: &'static str,
    config: Option<WalConfig>,
}

fn main() {
    let (scale, bs) = Scale::from_args();
    let stream =
        boxes_core::xml::workload::concentrated(scale.base_elements / 2, scale.insert_elements / 2);
    let variants = [
        Variant {
            name: "off",
            config: None,
        },
        Variant {
            name: "sync=1",
            config: Some(WalConfig {
                sync_every: 1,
                checkpoint_every: 0,
            }),
        },
        Variant {
            name: "sync=4",
            config: Some(WalConfig {
                sync_every: 4,
                checkpoint_every: 0,
            }),
        },
        Variant {
            name: "sync=16",
            config: Some(WalConfig {
                sync_every: 16,
                checkpoint_every: 0,
            }),
        },
        Variant {
            name: "sync=1 ckpt=256",
            config: Some(WalConfig {
                sync_every: 1,
                checkpoint_every: 256,
            }),
        },
    ];
    let mut table = Table::new(
        "Ablation: WAL group commit and recovery (W-BOX, concentrated)",
        &[
            "wal",
            "replay ms",
            "appended MB",
            "syncs",
            "durable log KB",
            "recover ms",
            "redone commits",
        ],
    );
    for v in &variants {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let wal = v.config.map(|config| {
            let wal = Wal::new(bs, config);
            pager.attach_journal(wal.clone());
            wal
        });
        eprint!("  wal {} ...", v.name);
        let start = Instant::now();
        let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(bs));
        let mut driver = DocumentDriver::load(scheme, &stream.base).unwrap();
        driver.replay(&stream.ops).unwrap();
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(" {replay_ms:.0} ms");
        let row = match &wal {
            None => vec![
                v.name.into(),
                format!("{replay_ms:.1}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            Some(wal) => {
                let stats = wal.stats();
                let log = wal.durable_bytes();
                let t = Instant::now();
                let recovered = recover(&log, pager.disk_image()).expect("clean log recovers");
                let recover_ms = t.elapsed().as_secs_f64() * 1e3;
                vec![
                    v.name.into(),
                    format!("{replay_ms:.1}"),
                    format!("{:.2}", stats.appended_bytes as f64 / (1 << 20) as f64),
                    stats.syncs.to_string(),
                    format!("{:.1}", log.len() as f64 / 1024.0),
                    format!("{recover_ms:.2}"),
                    recovered.commits.to_string(),
                ]
            }
        };
        table.row(row);
    }
    table.print();
}
