//! Concurrent snapshot-isolation oracle.
//!
//! Phase 1 replays a seeded writer workload single-threaded and records,
//! after every committed operation, the published epoch and the exact
//! `(lid, label)` set of the live document. Phase 2 replays the identical
//! workload on a fresh environment with one writer thread and four reader
//! threads opening snapshots as fast as they can: every snapshot's entire
//! label set must equal the single-threaded replay of its epoch's committed
//! prefix — a reader can never observe a torn, future, or non-prefix state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use boxes_audit::Auditable;
use boxes_bbox::BBoxConfig;
use boxes_core::{BBoxScheme, WBoxScheme};
use boxes_lidf::Lid;
use boxes_pager::{splitmix64, Pager, PagerConfig, SharedPager};
use boxes_session::{SessionError, SessionManager, SessionScheme};
use boxes_wal::{Wal, WalConfig};
use boxes_wbox::WBoxConfig;

const BS: usize = 1024;
const OPS: usize = 59; // plus the bulk load = 60 committed operations
const READERS: usize = 4;
const SEEDS: [u64; 2] = [0xC0FFEE, 42];

fn journaled_pager() -> SharedPager {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    pager.attach_journal(Wal::new(
        BS,
        WalConfig {
            sync_every: 1, // every commit is a group-commit boundary
            checkpoint_every: 0,
        },
    ));
    pager
}

/// The seeded workload, deterministic given `seed`: grows/shrinks a flat
/// element list, always inserting before a live start tag so element pairs
/// stay adjacent. Calls `committed` after every logical commit.
fn stream_ops<S: SessionScheme>(
    manager: &SessionManager<S>,
    seed: u64,
    mut committed: impl FnMut(&S, &[(Lid, Lid)]),
) {
    let mut writer = manager.writer().expect("single writer");
    // The bootstrap `create` commit published its own (empty) epoch —
    // readers can pin it before the bulk load lands.
    committed(&writer, &[]);
    let mut elements: Vec<(Lid, Lid)> = {
        // 8 flat elements: tags 0..16, partner = i ^ 1.
        let partner: Vec<usize> = (0..16).map(|i| i ^ 1).collect();
        let txn = manager.pager().txn().unwrap();
        let lids = writer.bulk_load_document(&partner);
        txn.commit();
        lids.chunks(2).map(|c| (c[0], c[1])).collect()
    };
    committed(&writer, &elements);
    let mut state = seed;
    for _ in 0..OPS {
        state = splitmix64(state);
        let choice = state % 10;
        if choice < 7 || elements.len() <= 4 {
            let anchor = elements[usize::try_from(state >> 8).expect("small") % elements.len()].0;
            let txn = manager.pager().txn().unwrap();
            let pair = writer.try_insert_element_before(anchor).unwrap();
            txn.commit();
            elements.push(pair);
        } else {
            let victim = usize::try_from(state >> 8).expect("small") % elements.len();
            let (start, end) = elements.remove(victim);
            let txn = manager.pager().txn().unwrap();
            writer.try_delete_subtree(start, end).unwrap();
            txn.commit();
        }
        committed(&writer, &elements);
    }
}

fn live_labels<S: SessionScheme>(scheme: &S, elements: &[(Lid, Lid)]) -> Vec<(Lid, S::Label)> {
    let mut lids: Vec<Lid> = elements.iter().flat_map(|&(s, e)| [s, e]).collect();
    lids.sort();
    lids.into_iter()
        .map(|lid| (lid, scheme.try_lookup(lid).unwrap()))
        .collect()
}

fn oracle<S: SessionScheme + 'static>(config: S::Config, seed: u64)
where
    S::Label: Send + Sync,
    S::Config: 'static,
{
    // Phase 1: single-threaded reference — expected state per epoch.
    let mut expected: HashMap<u64, Vec<(Lid, S::Label)>> = HashMap::new();
    let reference = SessionManager::<S>::create(journaled_pager(), config.clone()).unwrap();
    stream_ops(&reference, seed, |scheme, elements| {
        expected.insert(
            reference.pager().published_epoch(),
            live_labels(scheme, elements),
        );
    });
    let expected = Arc::new(expected);
    let final_epoch = reference.pager().published_epoch();
    assert!(
        u64::try_from(OPS).expect("small") < final_epoch,
        "every commit published an epoch"
    );

    // Phase 2: same workload, four concurrent snapshot readers.
    let manager = Arc::new(SessionManager::<S>::create(journaled_pager(), config).unwrap());
    let done = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let manager = Arc::clone(&manager);
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            let checks = Arc::clone(&checks);
            std::thread::spawn(move || loop {
                let finished = done.load(Ordering::SeqCst);
                match manager.snapshot() {
                    Ok(snap) => {
                        let want = expected
                            .get(&snap.epoch())
                            .unwrap_or_else(|| panic!("unknown epoch {}", snap.epoch()));
                        assert_eq!(
                            snap.len(),
                            u64::try_from(want.len()).expect("small"),
                            "snapshot live-count matches its committed prefix"
                        );
                        for (lid, label) in want {
                            assert_eq!(
                                snap.try_lookup(*lid).unwrap(),
                                label.clone(),
                                "epoch {}: lid {lid:?} label diverged from the \
                                 single-threaded replay",
                                snap.epoch()
                            );
                        }
                        checks.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(SessionError::NoCommittedState { .. }) => {}
                    Err(e) => panic!("snapshot failed: {e}"),
                }
                if finished {
                    break;
                }
            })
        })
        .collect();
    stream_ops(&manager, seed, |_, _| {});
    done.store(true, Ordering::SeqCst);
    for reader in readers {
        reader.join().expect("reader thread clean");
    }
    assert!(
        checks.load(Ordering::SeqCst) >= u64::try_from(READERS).expect("small"),
        "every reader validated at least one snapshot"
    );
    assert_eq!(
        manager.pager().published_epoch(),
        final_epoch,
        "concurrent run published the same epochs as the reference"
    );
    // Every session closed: no pinned epochs, no frozen versions leak.
    manager.pager().audit().assert_clean("pager");
}

#[test]
fn wbox_readers_always_observe_a_committed_prefix() {
    for seed in SEEDS {
        oracle::<WBoxScheme>(WBoxConfig::from_block_size(BS), seed);
    }
}

#[test]
fn bbox_readers_always_observe_a_committed_prefix() {
    for seed in SEEDS {
        oracle::<BBoxScheme>(BBoxConfig::from_block_size(BS), seed);
    }
}
