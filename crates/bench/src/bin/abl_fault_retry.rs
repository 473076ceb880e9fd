//! **A6 — ablation**: retry budget under a deterministically faulty disk.
//!
//! The chaos gate (`cargo xtask analyze`) proves correctness under
//! injected faults; this ablation quantifies the *cost* of surviving
//! them. A W-BOX document is bulk-loaded on a healthy WAL-journaled
//! pager, then a seeded fault plan starts rolling transient read/write
//! errors, short writes, and media bit-flips against the insertion
//! workload. The sweep crosses fault rate (per 65536 attempts) with the
//! pager's retry budget: with no budget the first fault that outlives a
//! single attempt fails the run within a handful of ops; with a budget
//! covering the worst-case effective streak every op completes, paying
//! only retries, WAL read-repairs, and deterministic backoff ticks.

use std::time::Instant;

use boxes_bench::{Scale, Table};
use boxes_core::pager::{
    splitmix64, FaultPlan, FaultPlanConfig, Pager, PagerConfig, PagerError, RetryPolicy,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{LabelingScheme, WBoxScheme};

const SEED: u64 = 0xAB06_FA57;

/// One cell of the sweep: a fault rate (per 65536 I/O attempts; 0 = the
/// fault-free baseline) crossed with a retry budget.
struct Variant {
    rate: u16,
    budget: u32,
}

fn main() {
    let (scale, bs) = Scale::from_args();
    let base: Vec<usize> = (0..2 * scale.base_elements).map(|i| i ^ 1).collect();
    let variants = [
        Variant { rate: 0, budget: 8 },
        Variant {
            rate: 655,
            budget: 0,
        },
        Variant {
            rate: 655,
            budget: 2,
        },
        Variant {
            rate: 655,
            budget: 8,
        },
        Variant {
            rate: 2621,
            budget: 0,
        },
        Variant {
            rate: 2621,
            budget: 2,
        },
        Variant {
            rate: 2621,
            budget: 8,
        },
    ];
    let mut table = Table::new(
        "Ablation: retry budget under a faulty disk (W-BOX, WAL sync=1 ckpt=256)",
        &[
            "fault/64Ki",
            "budget",
            "ops done",
            "replay ms",
            "injected",
            "retries",
            "repairs",
            "backoff",
            "degraded",
            "outcome",
        ],
    );
    for v in &variants {
        // Healthy bulk load first: the ablation measures the maintenance
        // workload under faults, not construction.
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        // Checkpointing bounds the durable log, which bounds what a WAL
        // read-repair has to scan — without it every repaired bit-flip
        // pays an O(log length) scan and the faulty rows crawl.
        let wal = Wal::new(
            bs,
            WalConfig {
                sync_every: 1,
                checkpoint_every: 256,
            },
        );
        pager.attach_journal(wal);
        let mut scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(bs));
        let mut lids = scheme.bulk_load_document(&base);

        // The disk turns hostile: transient EIO on both sites, short
        // writes, and media bit-flips, each lasting a 2-attempt streak.
        let mut cfg = FaultPlanConfig::quiet(SEED ^ u64::from(v.rate), bs);
        cfg.read_error_rate = v.rate;
        cfg.write_error_rate = v.rate;
        cfg.short_write_rate = v.rate / 2;
        cfg.bit_flip_rate = v.rate / 2;
        cfg.transient_streak = 2;
        let plan = FaultPlan::new(cfg);
        pager.attach_fault_injector(plan.clone());
        pager.set_retry_policy(RetryPolicy {
            budget: v.budget,
            ..RetryPolicy::default()
        });

        eprint!("  rate {} budget {} ...", v.rate, v.budget);
        let start = Instant::now();
        let mut completed = 0usize;
        let mut outcome = String::from("completed");
        for i in 0..scale.insert_elements {
            let h = splitmix64(SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let anchor = lids[(h as usize) % lids.len()];
            match scheme.try_insert_element_before(anchor) {
                Ok((open, close)) => {
                    lids.push(open);
                    lids.push(close);
                    completed += 1;
                }
                Err(PagerError::Degraded(_)) => {
                    outcome = format!("degraded at op {i}");
                    break;
                }
                Err(_) => {
                    outcome = format!("failed at op {i}");
                    break;
                }
            }
        }
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(" {replay_ms:.0} ms, {completed} ops");
        let stats = pager.stats();
        table.row(vec![
            v.rate.to_string(),
            v.budget.to_string(),
            completed.to_string(),
            format!("{replay_ms:.1}"),
            plan.injected().to_string(),
            stats.retries.to_string(),
            stats.repairs.to_string(),
            stats.backoff_ticks.to_string(),
            pager.degraded_entries().to_string(),
            outcome,
        ]);
    }
    table.print();
}
