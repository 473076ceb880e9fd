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
use boxes_core::wal::WalConfig;
use boxes_core::wbox::WBoxConfig;
use boxes_core::{reopen_wbox, DurableEnv, LabelingScheme, WBoxScheme};

const BLOCK_SIZE: usize = 1024;
const SEED: u64 = 0x0DD_BA11;

/// 10 empty sibling elements: tag 2i pairs with tag 2i+1.
fn base_partners() -> Vec<usize> {
    (0..20).map(|i| i ^ 1).collect()
}

fn main() {
    // Injected crashes unwind with `CrashSignal`; keep the default hook
    // for real panics but don't let the simulated power cut spam stderr.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<boxes_core::pager::CrashSignal>() {
            prev(info);
        }
    }));

    // Rehearsal with a disarmed crash clock: learn how many crash points
    // (WAL appends, sync barriers, applied block writes) the session has
    // and record the labels that will be committed before the fatal op.
    let (committed_labels, ticks_before_insert) = {
        let env = DurableEnv::new(BLOCK_SIZE, WalConfig::default(), SEED);
        let mut scheme =
            WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(BLOCK_SIZE));
        let lids = scheme.bulk_load_document(&base_partners());
        let labels: Vec<u64> = lids
            .iter()
            .map(|&l| scheme.try_lookup(l).unwrap())
            .collect();
        let before = env.clock().ticks();
        scheme
            .try_insert_subtree_before(lids[6], &[1, 0, 3, 2, 5, 4])
            .unwrap();
        let total = env.clock().ticks();
        println!("rehearsal: {total} crash points; the subtree insertion starts after #{before}");
        assert!(total > before, "the insertion must cross crash points");
        (labels, before)
    };

    // The real run: same seed, same workload, but the clock is armed to
    // raise a crash while the subtree insertion commits to the log.
    let env = DurableEnv::new(BLOCK_SIZE, WalConfig::default(), SEED);
    env.clock().arm(ticks_before_insert + 1);
    let outcome = env.run_to_crash(|| {
        let mut scheme =
            WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(BLOCK_SIZE));
        let lids = scheme.bulk_load_document(&base_partners());
        scheme
            .try_insert_subtree_before(lids[6], &[1, 0, 3, 2, 5, 4])
            .unwrap();
        unreachable!("the armed crash fires inside insert_subtree_before");
    });
    assert!(outcome.is_none(), "the workload must have crashed");
    println!("crash injected mid-insert; in-memory state is gone");

    // Recovery: redo the committed log over the surviving disk image and
    // reopen the W-BOX from its recovered meta snapshot.
    let recovered = env.recover().expect("durable log decodes cleanly");
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
    let lids = fresh.bulk_load_document(&base_partners());
    for (&lid, &label) in lids.iter().zip(&committed_labels) {
        assert_eq!(
            scheme.try_lookup(lid).unwrap(),
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
}
