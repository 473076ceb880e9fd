//! Windowed amortized-cost conformance tests for the paper's update
//! theorems. The existing `paper_claims` suite checks the *global* means;
//! here the same claims are held over **windows** of the operation
//! sequence, which is the form the amortization argument actually makes:
//! expensive structural events (splits, respaces, global rebuilds) may
//! spike an individual operation, but their cost is prepaid by the cheap
//! operations around them, so every sufficiently large window of the
//! sequence must still average out to the theorem's bound.
//!
//! * Theorem 4.6 — W-BOX insertion is O(log_B N) amortized, deletion O(1)
//!   amortized.
//! * Theorem 5.3 — B-BOX update (insert or delete) is O(1) amortized.
//!
//! Both concentrated (fixed anchor) and scattered (striding anchor)
//! insertion patterns are exercised; windows are both tumbling and
//! sliding. The constants are generous multiples of the measured steady
//! state — they exist to catch regressions that break the *shape* of the
//! amortization (e.g. a respace whose cost is no longer prepaid), not to
//! pin exact I/O counts.

use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::pager::{Pager, PagerConfig, SharedPager};
use boxes_core::wbox::{WBox, WBoxConfig};

const BS: usize = 4096;
const N: usize = 50_000;

/// Per-op I/O costs of `rounds` applications of `op`, measured through the
/// pager's own counters.
fn measure(pager: &SharedPager, rounds: usize, mut op: impl FnMut(usize)) -> Vec<u64> {
    let mut costs = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let before = pager.stats();
        op(i);
        costs.push(pager.stats().since(&before).total());
    }
    costs
}

/// Means of consecutive (tumbling) windows; the final partial window is
/// dropped so every mean covers a full `window` ops.
fn tumbling_means(costs: &[u64], window: usize) -> Vec<f64> {
    costs
        .chunks_exact(window)
        .map(|c| c.iter().sum::<u64>() as f64 / window as f64)
        .collect()
}

/// Means of sliding windows advancing by `stride`.
fn sliding_means(costs: &[u64], window: usize, stride: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut start = 0;
    while start + window <= costs.len() {
        let sum: u64 = costs[start..start + window].iter().sum();
        out.push(sum as f64 / window as f64);
        start += stride;
    }
    out
}

/// Assert every window mean (tumbling and sliding) stays below `bound`.
fn assert_windows_below(label: &str, costs: &[u64], window: usize, bound: f64) {
    let tumbling = tumbling_means(costs, window);
    assert!(!tumbling.is_empty(), "{label}: no full window measured");
    for (i, mean) in tumbling.iter().enumerate() {
        assert!(
            *mean < bound,
            "{label}: tumbling window {i} mean {mean:.2} I/Os exceeds bound {bound:.2} \
             (all windows: {tumbling:.2?})"
        );
    }
    // Sliding windows at half-window stride catch a spike that a tumbling
    // boundary would split across two windows.
    for (i, mean) in sliding_means(costs, window, window / 2).iter().enumerate() {
        assert!(
            *mean < bound,
            "{label}: sliding window {i} mean {mean:.2} I/Os exceeds bound {bound:.2}"
        );
    }
}

/// log_B N as the theorems use it: the W-BOX tree height scale, with B the
/// leaf capacity the block size induces.
fn log_b_n(leaf_capacity: usize, n: usize) -> f64 {
    (n as f64).log(leaf_capacity as f64).max(1.0)
}

#[test]
fn theorem_4_6_wbox_insert_windows_concentrated() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    let anchor = lids[N / 2];
    w.insert_before(anchor).unwrap(); // absorb the full-bulk-leaf split
    let rounds = 10_000;
    let costs = measure(&pager, rounds, |_| {
        w.insert_before(anchor).unwrap();
    });
    // c · log_B N with a generous constant: every insert pays the leaf
    // write-back plus amortized split/respace work.
    let bound = 16.0 * log_b_n(w.config().leaf_capacity(), N + rounds);
    assert_windows_below("wbox-insert/concentrated", &costs, 500, bound);
}

#[test]
fn theorem_4_6_wbox_insert_windows_scattered() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    let rounds = 10_000;
    let costs = measure(&pager, rounds, |i| {
        w.insert_before(lids[(i * 37) % lids.len()]).unwrap();
    });
    let bound = 16.0 * log_b_n(w.config().leaf_capacity(), N + rounds);
    assert_windows_below("wbox-insert/scattered", &costs, 500, bound);
}

#[test]
fn theorem_4_6_wbox_delete_windows_constant() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    w.bulk_load(N).unwrap();
    let all = w.iter_lids().unwrap();
    let rounds = N / 2;
    let costs = measure(&pager, rounds, |i| {
        w.delete(all[i]).unwrap();
    });
    // O(1) amortized: tombstone write + the prepaid share of the global
    // rebuild. The window must span at least one rebuild's prepay period,
    // so it is sized in fractions of N rather than a fixed op count.
    assert_windows_below("wbox-delete", &costs, rounds / 8, 10.0);
}

#[test]
fn theorem_5_3_bbox_insert_windows_concentrated() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    let anchor = lids[N / 2];
    b.insert_before(anchor).unwrap();
    let rounds = 10_000;
    let costs = measure(&pager, rounds, |_| {
        b.insert_before(anchor).unwrap();
    });
    // O(1) amortized, independent of N: leaf read/write plus rare splits.
    assert_windows_below("bbox-insert/concentrated", &costs, 500, 10.0);
}

#[test]
fn theorem_5_3_bbox_insert_windows_scattered() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    let rounds = 10_000;
    let costs = measure(&pager, rounds, |i| {
        b.insert_before(lids[(i * 37) % lids.len()]).unwrap();
    });
    // Scattered anchors touch a different root-to-leaf path every time, so
    // the constant includes the O(log_B N) descent — still independent of
    // the insert count, which is what the windows certify.
    let descent = 2.0 + b.height() as f64;
    assert_windows_below("bbox-insert/scattered", &costs, 500, 8.0 + 2.0 * descent);
}

#[test]
fn theorem_5_3_bbox_delete_windows_constant() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    let rounds = N / 2;
    let costs = measure(&pager, rounds, |i| {
        b.delete(lids[i * 2]).unwrap();
    });
    let descent = 2.0 + b.height() as f64;
    assert_windows_below("bbox-delete", &costs, rounds / 8, 8.0 + 2.0 * descent);
}

#[test]
fn window_helpers_are_sound() {
    let costs = vec![2, 4, 6, 8, 10, 12];
    assert_eq!(tumbling_means(&costs, 2), vec![3.0, 7.0, 11.0]);
    assert_eq!(sliding_means(&costs, 4, 2), vec![5.0, 9.0]);
    assert_eq!(sliding_means(&costs, 6, 3), vec![7.0]);
}
