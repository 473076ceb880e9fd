//! Degraded read-only mode: survive a dying disk, then resume after repair.
//!
//! ```text
//! cargo run --example degraded_mode
//! ```
//!
//! Builds a W-BOX document on a WAL-journaled pager whose disk is governed
//! by a deterministic fault plan, then kills the write path mid-session.
//! The pager retries with tick backoff, gives up when the fault outlives
//! the budget, parks the unwritten frames in its volatile overlay, and
//! degrades to read-only: every lookup keeps answering committed state
//! while mutations fail fast with a typed reason. After the "disk" is
//! replaced (the plan heals), `try_resume` re-applies the parked frames and
//! the session continues as if nothing happened.

use boxes_audit::Auditable;
use boxes_core::pager::{
    DegradedReason, FaultPlan, FaultPlanConfig, Health, Pager, PagerConfig, PagerError,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{LabelingScheme, WBoxScheme};

const BLOCK_SIZE: usize = 1024;
const SEED: u64 = 0xD15C_FA11;

/// 10 empty sibling elements: tag 2i pairs with tag 2i+1.
fn base_partners() -> Vec<usize> {
    (0..20).map(|i| i ^ 1).collect()
}

fn main() {
    // A journaled pager whose disk obeys a deterministic fault plan (quiet
    // for now — no probabilistic noise, only the scheduled failure below).
    let pager = Pager::new(PagerConfig::with_block_size(BLOCK_SIZE));
    let wal = Wal::new(BLOCK_SIZE, WalConfig::default());
    pager.attach_journal(wal);
    let plan = FaultPlan::new(FaultPlanConfig::quiet(SEED, BLOCK_SIZE));
    pager.attach_fault_injector(plan.clone());

    let mut scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(BLOCK_SIZE));
    let lids = scheme.bulk_load_document(&base_partners());
    println!("healthy: {} labels bulk-loaded", scheme.len());

    // The disk's write path dies. The next mutation discovers it: the
    // commit record is durable in the log, but the frames cannot reach the
    // media — after the retry budget is spent they are parked in the
    // volatile overlay and the pager degrades. The discovering operation
    // itself still returns Ok: nothing committed was lost.
    plan.fail_all_writes_after(0);
    scheme
        .try_insert_element_before(lids[8])
        .expect("the degrading op committed durably before the apply failed");
    let Health::Degraded(reason) = pager.health() else {
        unreachable!("a dead write path must degrade the pager");
    };
    println!(
        "write path died: pager degraded ({reason:?}) after {} retries, {} backoff ticks",
        pager.stats().retries,
        pager.stats().backoff_ticks,
    );

    // Mutations now fail fast with the typed reason — no partial writes, no
    // silent drift between memory and disk.
    match scheme.try_insert_element_before(lids[2]) {
        Err(PagerError::Degraded(DegradedReason::WriteFault { block })) => {
            println!("insert rejected: write to {block:?} exhausted the retry budget");
        }
        other => unreachable!("degraded mutations must be rejected, got {other:?}"),
    }

    // Lookups keep answering committed state — the parked frames are
    // consulted before the dead media, so even the degrading insert is
    // visible and the document order is intact.
    let labels: Vec<u64> = lids
        .iter()
        .map(|&lid| scheme.try_lookup(lid).expect("reads survive degradation"))
        .collect();
    assert!(
        labels.windows(2).all(|w| w[0] < w[1]),
        "bulk-loaded tags must still be in document order"
    );
    println!(
        "degraded reads: all {} committed labels answered, order intact",
        labels.len()
    );

    // The faulty disk is replaced: the plan heals and `try_resume`
    // re-applies the parked overlay frames to the media.
    plan.heal();
    pager
        .try_resume()
        .expect("resume applies the parked frames");
    assert!(pager.health().is_ok(), "resume restores write service");
    scheme
        .try_insert_element_before(lids[2])
        .expect("mutations resume after repair");
    println!(
        "resumed: write service restored, {} labels live",
        scheme.len()
    );

    let report = scheme.audit();
    assert!(
        report.is_clean(),
        "post-resume audit must be clean:\n{report}"
    );
    println!(
        "structure audit clean; the outage cost {} degraded entry and zero labels",
        pager.degraded_entries()
    );
}
