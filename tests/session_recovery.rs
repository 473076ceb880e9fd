//! Crashpoint leg for snapshot epochs: recovery never loses a *published*
//! epoch and never resurrects state no epoch could have exposed.
//!
//! With group commit (`sync_every = 4`) the writer streams commits whose
//! tail is volatile until the next barrier; epochs publish exactly at
//! barriers. Crashing at seeded ticks and recovering must yield the state
//! of some committed prefix that is **at least** the last published epoch —
//! the unsynced (never-published) suffix may die, published epochs may not.

use boxes_core::durable::{reopen_wbox, DurableEnv};
use boxes_core::{LabelingScheme, WBoxScheme};
use boxes_lidf::Lid;
use boxes_pager::{IoResult, PagerError};
use boxes_session::SessionManager;
use boxes_wal::WalConfig;
use boxes_wbox::WBoxConfig;

const BS: usize = 1024;
const OPS: usize = 20;
const SEEDS: [u64; 2] = [7, 0xBEEF];

fn config() -> WalConfig {
    WalConfig {
        sync_every: 4,
        checkpoint_every: 0,
    }
}

/// Deterministic insert-only workload (inserts keep the prefix states
/// strictly growing, so prefixes are distinguishable by length alone).
/// Records after every commit: the live lid/label state and whether that
/// commit's epoch has been published yet.
struct Trace {
    /// Per committed op: (published epoch at commit time, live labels).
    after: Vec<(u64, Vec<(Lid, u64)>)>,
}

fn run_workload(env: &DurableEnv, seed: u64) -> IoResult<Trace> {
    let manager =
        SessionManager::<WBoxScheme>::create(env.pager().clone(), WBoxConfig::from_block_size(BS))?;
    let mut writer = manager.writer().expect("writer");
    let mut trace = Trace { after: Vec::new() };
    let mut lids = {
        let txn = env.pager().txn()?;
        let l = writer.try_bulk_load_document(&[1, 0, 3, 2])?;
        txn.commit();
        l
    };
    let record = |w: &WBoxScheme, lids: &[Lid], epoch: u64| -> IoResult<_> {
        let mut sorted = lids.to_vec();
        sorted.sort();
        let labels = sorted
            .iter()
            .map(|&l| Ok((l, w.try_lookup(l)?)))
            .collect::<IoResult<Vec<_>>>()?;
        Ok((epoch, labels))
    };
    let snap = record(&writer, &lids, env.pager().published_epoch())?;
    trace.after.push(snap);
    let mut state = seed;
    for _ in 0..OPS {
        state = boxes_pager::splitmix64(state);
        let anchor = lids[usize::try_from(state >> 8).expect("small") % lids.len()];
        let txn = env.pager().txn()?;
        let (s, e) = writer.try_insert_element_before(anchor)?;
        txn.commit();
        lids.push(s);
        lids.push(e);
        let snap = record(&writer, &lids, env.pager().published_epoch())?;
        trace.after.push(snap);
    }
    Ok(trace)
}

#[test]
fn recovery_keeps_every_published_epoch_and_only_committed_prefixes() {
    for seed in SEEDS {
        // Disarmed pass: count crash points and capture the full trace.
        let reference = DurableEnv::new(BS, config(), seed);
        let trace = run_workload(&reference, seed).unwrap();
        let total_ticks = reference.clock().ticks();
        assert!(total_ticks > 10, "workload crosses many crash points");

        // Spread 12 crash targets across the run (a full sweep is the
        // chaos harness's job; this leg checks the epoch contract).
        let step = (total_ticks / 12).max(1);
        for target in (1..=total_ticks).step_by(usize::try_from(step).expect("small")) {
            let env = DurableEnv::new(BS, config(), seed);
            env.clock().arm(target);
            let outcome = run_workload(&env, seed);
            assert!(env.clock().fired(), "tick {target} must crash");
            assert!(
                matches!(outcome, Ok(_) | Err(PagerError::Degraded(_))),
                "tick {target}: the crash degrades the pager, got {:?}",
                outcome.err()
            );
            // What the dying process had published is the floor recovery
            // must reach; find the newest recorded state at that epoch.
            let published = env.pager().published_epoch();
            let recovered = env.recover().expect("recovery clean");
            let Some(scheme) = reopen_wbox(&recovered, WBoxConfig::from_block_size(BS)) else {
                // Nothing durable at all — only legal if nothing was ever
                // published (the whole tail died before its first barrier).
                assert_eq!(published, 0, "tick {target}: published epoch lost entirely");
                continue;
            };
            let matched = trace.after.iter().enumerate().find(|(_, (_, labels))| {
                scheme.len() == u64::try_from(labels.len()).expect("small")
                    && labels
                        .iter()
                        .all(|(lid, label)| scheme.try_lookup(*lid).unwrap() == *label)
            });
            let Some((idx, _)) = matched else {
                panic!("tick {target}: recovered state is not any committed prefix");
            };
            // Floor: the op at which publication last advanced (the first
            // record carrying the crashed run's published-epoch count) is
            // the newest op guaranteed durable — recovery may only drop
            // ops from the unpublished tail after it.
            let floor = trace
                .after
                .iter()
                .position(|(e, _)| *e == published)
                .unwrap_or(0);
            assert!(
                idx >= floor,
                "tick {target}: recovery dropped a published epoch \
                 (recovered prefix {idx}, published floor {floor})"
            );
        }
    }
}
