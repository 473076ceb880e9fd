//! Property test of the `boxes-trace` accounting identity: under arbitrary
//! operation sequences — with and without an injected fault plan — a
//! pager's own trace must agree field-for-field (attributed plus
//! unattributed) with that pager's [`IoStats`] delta, and nothing a
//! scheme hot path does may land unattributed (every public entry point
//! opens a span, so the innermost-span rule attributes everything,
//! including the retries, repairs and backoff ticks the fault service
//! generates mid-operation). The identity is per pager, so it holds
//! however many tests or threads drive other pagers at the same time.

use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::pager::{
    FaultPlan, FaultPlanConfig, IoStats, Pager, PagerConfig, RetryPolicy, SharedPager,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::{WBox, WBoxConfig};
use boxes_trace as trace;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

const BS: usize = 512;

/// One scripted update primitive; indices are reduced modulo the live set.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Delete(usize),
    Lookup(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>()).prop_map(Op::Insert),
            (any::<usize>()).prop_map(Op::Delete),
            (any::<usize>()).prop_map(Op::Lookup),
        ],
        1..80,
    )
}

/// Snapshot of both sides of the identity.
struct Mark {
    attributed: trace::TraceCounters,
    unattributed: trace::TraceCounters,
    stats: IoStats,
}

fn mark(pager: &SharedPager) -> Mark {
    Mark {
        attributed: pager.trace().attributed(),
        unattributed: pager.trace().unattributed(),
        stats: pager.stats(),
    }
}

/// The identity proper: between `before` and now, (attributed delta) ==
/// (pager stats delta) on the seven shared counters and the unattributed
/// side did not move.
fn check(label: &str, pager: &SharedPager, before: &Mark) {
    let un = pager.trace().unattributed().since(&before.unattributed);
    assert!(
        un.is_zero(),
        "{label}: scheme hot path recorded I/O outside any span: {un:?}"
    );
    let attr = pager.trace().attributed().since(&before.attributed);
    let delta = pager.stats().since(&before.stats);
    let pairs = [
        ("reads", attr.reads, delta.reads),
        ("writes", attr.writes, delta.writes),
        ("allocs", attr.allocs, delta.allocs),
        ("frees", attr.frees, delta.frees),
        ("retries", attr.retries, delta.retries),
        ("repairs", attr.repairs, delta.repairs),
        ("backoff_ticks", attr.backoff_ticks, delta.backoff_ticks),
    ];
    for (name, traced, counted) in pairs {
        assert_eq!(
            traced, counted,
            "{label}: identity broken on `{name}` (trace {traced} vs pager {counted})"
        );
    }
    assert_eq!(pager.trace().open_spans(), 0, "{label}: leaked spans");
}

/// Run a script against a W-BOX on `pager`, checking the identity after
/// every single operation (not just at the end): an attribution hole that
/// a later op's counters would mask still fails.
fn run_wbox(pager: SharedPager, script: &[Op]) {
    let before = mark(&pager);
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    let mut lids = w.bulk_load(60).unwrap();
    check("wbox/bulk_load", &pager, &before);
    for op in script {
        let before = mark(&pager);
        match *op {
            Op::Insert(raw) => {
                let anchor = lids[raw % lids.len()];
                lids.push(w.insert_before(anchor).unwrap());
            }
            Op::Delete(raw) => {
                if lids.len() > 4 {
                    let lid = lids.swap_remove(raw % lids.len());
                    w.delete(lid).unwrap();
                }
            }
            Op::Lookup(raw) => {
                w.lookup(lids[raw % lids.len()]).unwrap();
            }
        }
        check("wbox/op", &pager, &before);
    }
}

proptest! {
    #[test]
    fn identity_holds_without_faults(script in ops()) {
        run_wbox(Pager::new(PagerConfig::with_block_size(BS)), &script);
    }
}

// Pool hits bypass the disk (no IoStats movement) but are traced as
// cache hits — the identity on the seven disk counters must still close
// exactly.
proptest! {
    #[test]
    fn identity_holds_with_buffer_pool(script in ops()) {
        run_wbox(
            Pager::new(PagerConfig::with_block_size(BS).with_pool(4)),
            &script,
        );
    }
}

// In-budget transient errors, latency stalls and bit rot: the fault
// service's retries/repairs/backoff run *inside* the operation that
// tripped them, so they must be attributed to that operation's span.
proptest! {
    #[test]
    fn identity_holds_under_faults(script in ops(), seed in any::<u64>()) {
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        pager.attach_journal(Wal::new(BS, WalConfig { sync_every: 2, checkpoint_every: 6 }));
        let plan = FaultPlan::new(FaultPlanConfig {
            read_error_rate: 2500,
            write_error_rate: 2500,
            bit_flip_rate: 1000,
            latency_rate: 1200,
            ..FaultPlanConfig::quiet(seed, BS)
        });
        pager.attach_fault_injector(plan);
        pager.set_retry_policy(RetryPolicy { budget: 8, ..RetryPolicy::default() });
        run_wbox(pager, &script);
    }
}

proptest! {
    #[test]
    fn identity_holds_for_bbox(script in ops()) {
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let before = mark(&pager);
        let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
        let mut lids = b.bulk_load(60).unwrap();
        check("bbox/bulk_load", &pager, &before);
        for op in &script {
            let before = mark(&pager);
            match *op {
                Op::Insert(raw) => {
                    let anchor = lids[raw % lids.len()];
                    lids.push(b.insert_before(anchor).unwrap());
                }
                Op::Delete(raw) => {
                    if lids.len() > 4 {
                        let lid = lids.swap_remove(raw % lids.len());
                        b.delete(lid).unwrap();
                    }
                }
                Op::Lookup(raw) => {
                    b.lookup(lids[raw % lids.len()]).unwrap();
                }
            }
            check("bbox/op", &pager, &before);
        }
    }
}

// Two threads, each driving a W-BOX on its own pager in lockstep: both
// ops run between both threads' marks and checks, so an identity scoped
// wider than the pager would count the other thread's I/O.
#[test]
fn identity_is_per_pager_across_threads() {
    const OPS: usize = 30;
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2usize)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let pager = Pager::new(PagerConfig::with_block_size(BS));
                let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
                let mut lids = w.bulk_load(60).unwrap();
                for i in 0..OPS {
                    let before = mark(&pager);
                    barrier.wait();
                    let anchor = lids[(i * 7 + t) % lids.len()];
                    lids.push(w.insert_before(anchor).unwrap());
                    w.lookup(lids[(i * 3 + t) % lids.len()]).unwrap();
                    barrier.wait();
                    check("wbox/threaded", &pager, &before);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker thread");
    }
}
