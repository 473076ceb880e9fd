//! Free-list round-trip under interleaved disk faults: a file-backed pager
//! driven through arbitrary alloc/write/free/reopen interleavings — with a
//! seeded fault plan injecting transient errors, short writes, and latency
//! on every attempt — must agree with a shadow model, rebuild its free list
//! from the per-slot trailers on every reopen, and recycle reclaimed slots
//! first (the paper assumes a compact LIDF).
//!
//! Transient faults are tuned inside the default retry budget, so they must
//! be *semantically invisible*: same answers, same allocation behavior, just
//! extra retries and backoff ticks in the I/O accounting.

use boxes_pager::{BlockId, FaultPlan, FaultPlanConfig, Pager, SharedPager};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

const BS: usize = 64;

#[derive(Clone, Debug)]
enum Op {
    Alloc(u8),
    Write(usize, u8),
    Free(usize),
    Reopen,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => any::<u8>().prop_map(Op::Alloc),
            3 => (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
            2 => any::<usize>().prop_map(Op::Free),
            1 => Just(Op::Reopen),
        ],
        1..60,
    )
}

fn unique_path() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("boxes-freelist-faults-{}-{n}", std::process::id()));
    p
}

/// A plan whose probabilistic faults all stay within the default retry
/// budget: transient streaks of 1, short writes (retried), latency stalls.
/// No bit flips — without a journal there is no repair source, and this
/// test is about the free list, not degraded mode.
fn noisy_plan(seed: u64) -> std::sync::Arc<FaultPlan> {
    FaultPlan::new(FaultPlanConfig {
        read_error_rate: 3000,  // ~4.6 % of read attempts
        write_error_rate: 3000, // ~4.6 % of write attempts
        short_write_rate: 2000, // ~3 % of write attempts
        latency_rate: 2000,
        ..FaultPlanConfig::quiet(seed, BS)
    })
}

fn open(path: &std::path::Path, plan: &std::sync::Arc<FaultPlan>) -> SharedPager {
    let pager = Pager::open_file(path, BS).expect("open file-backed pager");
    pager.attach_fault_injector(plan.clone());
    // A generous budget: each attempt re-rolls the plan's rates, so a run of
    // independent transients longer than the budget — vanishingly rare at 8,
    // merely unlikely at the default 4 — would flake the suite.
    pager.set_retry_policy(boxes_pager::RetryPolicy {
        budget: 8,
        ..boxes_pager::RetryPolicy::default()
    });
    pager
}

fn run(seed: u64, script: Vec<Op>) {
    let path = unique_path();
    let plan = noisy_plan(seed);
    let mut pager = open(&path, &plan);
    let mut shadow: HashMap<BlockId, Vec<u8>> = HashMap::new();
    let mut live: Vec<BlockId> = Vec::new();
    let mut freed: Vec<BlockId> = Vec::new();
    for op in script {
        match op {
            Op::Alloc(byte) => {
                let id = pager.alloc().unwrap();
                // Free-list round-trip: reclaimed slots are recycled before
                // the file grows — across reopens too, because the free
                // list is rebuilt from the per-slot trailers.
                if let Some(pos) = freed.iter().position(|&f| f == id) {
                    freed.swap_remove(pos);
                } else {
                    assert!(
                        freed.is_empty(),
                        "grew the file while {freed:?} were reclaimable"
                    );
                }
                let mut data = vec![0u8; BS];
                data[0] = byte;
                pager.write(id, &data).unwrap();
                shadow.insert(id, data);
                live.push(id);
            }
            Op::Write(raw, byte) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[raw % live.len()];
                let data = shadow.get_mut(&id).expect("live block shadowed");
                data[0] = byte;
                data[BS - 1] = byte ^ 0xFF;
                pager.write(id, data).unwrap();
            }
            Op::Free(raw) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(raw % live.len());
                shadow.remove(&id);
                pager.free(id).unwrap();
                freed.push(id);
            }
            Op::Reopen => {
                drop(pager);
                pager = open(&path, &plan);
            }
        }
        assert_eq!(pager.allocated_blocks(), live.len());
        assert!(
            pager.health().is_ok(),
            "within-budget transients must never degrade"
        );
    }
    // Final sweep after one more reopen: every surviving block reads back,
    // and the rebuilt free list still covers exactly the reclaimed slots.
    drop(pager);
    let pager = open(&path, &plan);
    assert_eq!(pager.allocated_blocks(), live.len());
    for (&id, data) in &shadow {
        assert_eq!(
            &*pager.read(id).unwrap(),
            data.as_slice(),
            "block {id:?} after reopen"
        );
    }
    for _ in 0..freed.len() {
        let id = pager.alloc().unwrap();
        assert!(
            freed.contains(&id),
            "alloc returned fresh {id:?} while {freed:?} were reclaimable"
        );
    }
    drop(pager);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn freelist_roundtrips_under_interleaved_faults(seed in any::<u64>(), script in ops()) {
        run(seed, script);
    }

    #[test]
    fn faults_are_semantically_invisible_within_budget(seed in any::<u64>(), script in ops()) {
        // The same script under a noisy plan and under no plan must agree on
        // logical I/O counts (reads/writes/allocs/frees) — only the fault
        // service counters (retries, backoff) may differ.
        let quiet = {
            let path = unique_path();
            let plan = FaultPlan::new(FaultPlanConfig::quiet(seed, BS));
            run_counting(&path, &plan, &script)
        };
        let noisy = {
            let path = unique_path();
            let plan = noisy_plan(seed);
            run_counting(&path, &plan, &script)
        };
        prop_assert_eq!(quiet.reads, noisy.reads);
        prop_assert_eq!(quiet.writes, noisy.writes);
        prop_assert_eq!(quiet.allocs, noisy.allocs);
        prop_assert_eq!(quiet.frees, noisy.frees);
        prop_assert_eq!(quiet.repairs, 0);
        prop_assert_eq!(quiet.retries, 0);
    }
}

/// Guard against the fault plumbing being silently disconnected: a fixed
/// seed and a long enough workload must actually inject faults and charge
/// retries, or the proptests above are vacuously green.
#[test]
fn noisy_plan_actually_injects_on_this_workload() {
    let path = unique_path();
    let plan = noisy_plan(42);
    let pager = open(&path, &plan);
    let mut live = Vec::new();
    for i in 0..200u8 {
        live.push(pager.alloc().unwrap());
        pager
            .write(live[usize::from(i) % live.len()], &[i; BS])
            .unwrap();
    }
    for &id in &live {
        pager.read(id).unwrap();
    }
    assert!(plan.injected() > 0, "no faults injected in 600+ attempts");
    assert!(pager.stats().retries > 0, "no retries charged");
    assert!(pager.health().is_ok());
    drop(pager);
    std::fs::remove_file(&path).ok();
}

fn run_counting(
    path: &std::path::Path,
    plan: &std::sync::Arc<FaultPlan>,
    script: &[Op],
) -> boxes_pager::IoStats {
    let pager = open(path, plan);
    let mut live: Vec<BlockId> = Vec::new();
    for op in script {
        match op {
            Op::Alloc(byte) => {
                let id = pager.alloc().unwrap();
                let mut data = vec![0u8; BS];
                data[0] = *byte;
                pager.write(id, &data).unwrap();
                live.push(id);
            }
            Op::Write(raw, byte) => {
                if !live.is_empty() {
                    let id = live[raw % live.len()];
                    let mut data = pager.read(id).unwrap().to_vec();
                    data[0] = *byte;
                    pager.write(id, &data).unwrap();
                }
            }
            Op::Free(raw) => {
                if !live.is_empty() {
                    pager.free(live.swap_remove(raw % live.len())).unwrap();
                }
            }
            // Reopen resets the stats; skip it in the counting variant so
            // both runs accumulate over the whole script.
            Op::Reopen => {}
        }
    }
    let stats = pager.stats();
    drop(pager);
    std::fs::remove_file(path).ok();
    stats
}
