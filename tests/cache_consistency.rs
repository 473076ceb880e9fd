//! §6 caching layer correctness: a cached lookup must ALWAYS equal the
//! direct lookup, no matter how updates interleave with reads, for every
//! effect algebra (flat W-BOX labels, B-BOX path labels, ordinal labels)
//! and every log size, including the degenerate k = 0.

use boxes_audit::Auditable;
use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::cache::CachedRef;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::{WBox, WBoxConfig};
use boxes_core::{CachedBBox, CachedOrdinal, CachedWBox, WBoxScheme};
use proptest::prelude::*;

/// Interleaved action script: updates at (wrapped) positions and reads of
/// (wrapped) probe references.
#[derive(Clone, Debug)]
enum Action {
    Insert(usize),
    Delete(usize),
    Read(usize),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..1_000).prop_map(Action::Insert),
            (0usize..1_000).prop_map(Action::Delete),
            (0usize..1_000).prop_map(Action::Read),
        ],
        1..80,
    )
}

const PROBES: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_wbox_always_agrees(k in 0usize..20, script in actions()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut wbox = WBox::new(pager, WBoxConfig::small_for_tests()).unwrap();
        let mut order = wbox.bulk_load(120).unwrap();
        let mut cached = CachedWBox::new(wbox, k);
        // Anchor a spread of references so the per-action audit exercises
        // the §6 replay-equivalence check, not just log FIFO order.
        let anchors: Vec<_> = order.iter().copied().step_by(17).collect();
        cached.checkpoint(&anchors).unwrap();
        let mut refs: Vec<CachedRef<u64>> = (0..PROBES).map(|_| CachedRef::new()).collect();
        for action in script {
            match action {
                Action::Insert(raw) => {
                    let at = raw % order.len();
                    let new = cached.insert_before(order[at]).unwrap();
                    order.insert(at, new);
                }
                Action::Delete(raw) => {
                    if order.len() > PROBES + 2 {
                        let at = raw % order.len();
                        // Keep probe anchors alive: probes address by index
                        // into `order`, so deletion just shrinks the pool.
                        let lid = order.remove(at);
                        // A deleted lid may still be cached in some ref;
                        // clear any ref probing that exact index range by
                        // simply re-probing lazily below.
                        cached.delete(lid).unwrap();
                    }
                }
                Action::Read(raw) => {
                    let probe = raw % PROBES;
                    let at = (raw * 31) % order.len();
                    let lid = order[at];
                    // Each ref may be reused for different lids over time —
                    // clear it when switching targets (an application would
                    // hold one ref per reference site).
                    let mut r = std::mem::take(&mut refs[probe]);
                    r.clear();
                    let got = cached.lookup(lid, &mut r).unwrap();
                    prop_assert_eq!(got, cached.wbox.lookup(lid).unwrap());
                    // Read again without clearing: replay path.
                    let again = cached.lookup(lid, &mut r).unwrap();
                    prop_assert_eq!(again, cached.wbox.lookup(lid).unwrap());
                    refs[probe] = r;
                }
            }
            let report = cached.audit();
            prop_assert!(report.is_clean(), "dirty after {:?}:\n{}", action, report);
        }
    }

    #[test]
    fn cached_bbox_always_agrees(k in 0usize..20, script in actions()) {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        let mut bbox = BBox::new(pager, BBoxConfig::from_block_size(128)).unwrap();
        let mut order = bbox.bulk_load(120).unwrap();
        let mut cached = CachedBBox::new(bbox, k);
        let anchors: Vec<_> = order.iter().copied().step_by(17).collect();
        cached.checkpoint(&anchors).unwrap();
        let mut refs: Vec<CachedRef<Vec<u32>>> =
            (0..PROBES).map(|_| CachedRef::new()).collect();
        for action in script {
            match action {
                Action::Insert(raw) => {
                    let at = raw % order.len();
                    let new = cached.insert_before(order[at]).unwrap();
                    order.insert(at, new);
                }
                Action::Delete(raw) => {
                    if order.len() > PROBES + 2 {
                        let at = raw % order.len();
                        let lid = order.remove(at);
                        cached.delete(lid).unwrap();
                    }
                }
                Action::Read(raw) => {
                    let probe = raw % PROBES;
                    let at = (raw * 31) % order.len();
                    let lid = order[at];
                    let mut r = std::mem::take(&mut refs[probe]);
                    r.clear();
                    let got = cached.lookup(lid, &mut r).unwrap();
                    prop_assert_eq!(&got, &cached.bbox.lookup(lid).unwrap().0);
                    let again = cached.lookup(lid, &mut r).unwrap();
                    prop_assert_eq!(&again, &cached.bbox.lookup(lid).unwrap().0);
                    refs[probe] = r;
                }
            }
            let report = cached.audit();
            prop_assert!(report.is_clean(), "dirty after {:?}:\n{}", action, report);
        }
    }

    #[test]
    fn cached_ordinal_always_agrees(k in 0usize..20, script in actions()) {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let scheme = WBoxScheme::new(
            pager,
            WBoxConfig::small_for_tests().with_ordinal(),
        );
        let mut cached = CachedOrdinal::new(scheme, k);
        let mut order = cached
            .scheme
            .bulk_load_document(&(0..120).map(|i| i ^ 1).collect::<Vec<_>>());
        let anchors: Vec<_> = order.iter().copied().step_by(17).collect();
        cached.checkpoint(&anchors).unwrap();
        let mut refs: Vec<CachedRef<u64>> = (0..PROBES).map(|_| CachedRef::new()).collect();
        for action in script {
            match action {
                Action::Insert(raw) => {
                    let at = raw % order.len();
                    let new = cached.insert_before(order[at]).unwrap();
                    order.insert(at, new);
                }
                Action::Delete(raw) => {
                    if order.len() > PROBES + 2 {
                        let at = raw % order.len();
                        let lid = order.remove(at);
                        cached.delete(lid).unwrap();
                    }
                }
                Action::Read(raw) => {
                    let probe = raw % PROBES;
                    let at = (raw * 31) % order.len();
                    let lid = order[at];
                    let mut r = std::mem::take(&mut refs[probe]);
                    r.clear();
                    let got = cached.ordinal_of(lid, &mut r).unwrap();
                    prop_assert_eq!(got, at as u64, "ordinal = live position");
                    let again = cached.ordinal_of(lid, &mut r).unwrap();
                    prop_assert_eq!(again, at as u64);
                    refs[probe] = r;
                }
            }
            let report = cached.audit();
            prop_assert!(report.is_clean(), "dirty after {:?}:\n{}", action, report);
        }
    }
}

use boxes_core::LabelingScheme;

/// The k-fold claim, deterministically: with log size k, a reference can
/// sit out exactly k updates and still replay; the (k+1)-st forces a full
/// lookup.
#[test]
fn log_covers_exactly_k_updates() {
    for k in [1usize, 2, 5, 16] {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut wbox = WBox::new(pager, WBoxConfig::small_for_tests()).unwrap();
        let order = wbox.bulk_load(500).unwrap();
        // Pre-split the anchor's leaf so updates are single-leaf shifts.
        let anchor = order[250];
        let far = order[10];
        let mut cached = CachedWBox::new(wbox, k);
        cached.insert_before(anchor).unwrap();

        // Warm a reference far from the action.
        let mut r = CachedRef::new();
        cached.lookup(far, &mut r).unwrap();
        cached.stats = Default::default();
        for _ in 0..k {
            cached.insert_before(anchor).unwrap();
        }
        cached.lookup(far, &mut r).unwrap();
        assert_eq!(cached.stats.full, 0, "k={k}: k updates still replayable");
        cached.stats = Default::default();
        for _ in 0..(k + 1) {
            cached.insert_before(anchor).unwrap();
        }
        cached.lookup(far, &mut r).unwrap();
        assert_eq!(cached.stats.full, 1, "k={k}: k+1 updates overflow the log");
    }
}
