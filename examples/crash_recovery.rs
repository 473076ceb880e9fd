//! Crash recovery: kill a document build mid-insert, then pick up where
//! the log left off.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```
//!
//! Builds a W-BOX document inside a WAL-journaled environment, injects a
//! deterministic crash in the middle of a subtree insertion, recovers from
//! the surviving disk image plus durable log, and verifies that every
//! committed label is intact while the torn insertion vanished atomically.

use boxes_audit::Auditable;
use boxes_core::pager::{IoResult, PagerError};
use boxes_core::wal::WalConfig;
use boxes_core::wbox::WBoxConfig;
use boxes_core::{reopen_wbox, DurableEnv, LabelingScheme, WBoxScheme};

const BLOCK_SIZE: usize = 1024;
const SEED: u64 = 0x0DD_BA11;

/// 10 empty sibling elements: tag 2i pairs with tag 2i+1.
fn base_partners() -> Vec<usize> {
    (0..20).map(|i| i ^ 1).collect()
}

/// The session: build the base document, then insert a subtree into it.
fn session(env: &DurableEnv) -> IoResult<()> {
    let mut scheme = WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(BLOCK_SIZE));
    let lids = scheme.try_bulk_load_document(&base_partners())?;
    scheme.try_insert_subtree_before(lids[6], &[1, 0, 3, 2, 5, 4])?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Rehearsal with a disarmed crash clock: learn how many crash points
    // (WAL appends, sync barriers, applied block writes) the session has
    // and record the labels that will be committed before the fatal op.
    let (committed_labels, ticks_before_insert) = {
        let env = DurableEnv::new(BLOCK_SIZE, WalConfig::default(), SEED);
        let mut scheme =
            WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(BLOCK_SIZE));
        let lids = scheme.try_bulk_load_document(&base_partners())?;
        let labels = lids
            .iter()
            .map(|&l| scheme.try_lookup(l))
            .collect::<IoResult<Vec<u64>>>()?;
        let before = env.clock().ticks();
        scheme.try_insert_subtree_before(lids[6], &[1, 0, 3, 2, 5, 4])?;
        let total = env.clock().ticks();
        println!("rehearsal: {total} crash points; the subtree insertion starts after #{before}");
        assert!(total > before, "the insertion must cross crash points");
        (labels, before)
    };

    // The real run: same seed, same workload, but the clock is armed to
    // crash while the subtree insertion commits to the log. From that tick
    // on the log and the disk stop changing, as if the process had died.
    let env = DurableEnv::new(BLOCK_SIZE, WalConfig::default(), SEED);
    env.clock().arm(ticks_before_insert + 1);
    let outcome = session(&env);
    assert!(env.clock().fired(), "the workload must have crashed");
    assert!(
        matches!(outcome, Ok(()) | Err(PagerError::Degraded(_))),
        "the crash only stops the disk and the log: {outcome:?}"
    );
    println!("crash injected mid-insert; in-memory state is gone");

    // Recovery: redo the committed log over the surviving disk image and
    // reopen the W-BOX from its recovered meta snapshot.
    let recovered = env.recover()?;
    println!(
        "recovered {} committed operations from {} bytes of durable log",
        recovered.commits,
        env.wal().durable_len(),
    );
    let scheme = reopen_wbox(&recovered, WBoxConfig::from_block_size(BLOCK_SIZE))
        .expect("committed state includes the W-BOX snapshot");

    // The structure is internally consistent ...
    let report = scheme.audit();
    assert!(
        report.is_clean(),
        "recovered audit must be clean:\n{report}"
    );

    // ... every committed label survived verbatim ...
    assert_eq!(scheme.len(), committed_labels.len() as u64);
    let mut fresh = WBoxScheme::new(
        boxes_core::pager::Pager::new(boxes_core::pager::PagerConfig::with_block_size(BLOCK_SIZE)),
        WBoxConfig::from_block_size(BLOCK_SIZE),
    );
    let lids = fresh.try_bulk_load_document(&base_partners())?;
    for (&lid, &label) in lids.iter().zip(&committed_labels) {
        assert_eq!(
            scheme.try_lookup(lid)?,
            label,
            "committed label must survive"
        );
    }

    // ... and the half-done subtree insertion left no trace: its WAL
    // record never became durable, so recovery rolled it back atomically.
    println!(
        "all {} committed labels intact; the torn subtree insertion vanished atomically",
        scheme.len()
    );
    Ok(())
}
