//! The paper's headline analytical claims, checked empirically at moderate
//! scale: lookup costs (Theorems 4.5 and 5.2), amortized update costs
//! (Theorems 4.6 and 5.3), space (O(N/B)), and label lengths (Theorems 4.4
//! and 5.1).

use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::{WBox, WBoxConfig};

const BS: usize = 8192;
const N: usize = 200_000;

/// Theorem 4.5 at one block size: a W-BOX lookup is exactly two I/Os (the
/// LIDF hop plus one leaf read), independent of the tree height the block
/// size induces.
fn wbox_lookup_is_two_ios_at(bs: usize) {
    let pager = Pager::new(PagerConfig::with_block_size(bs));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(bs)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    // Grow the tree with adversarial inserts first.
    for _ in 0..2_000 {
        w.insert_before(lids[N / 2]).unwrap();
    }
    for probe in [0, 1, N / 3, N / 2, N - 1] {
        let before = pager.stats();
        w.lookup(lids[probe]).unwrap();
        assert_eq!(
            pager.stats().since(&before).total(),
            2,
            "bs={bs}: LIDF hop + exactly one leaf read, independent of tree height"
        );
    }
}

#[test]
fn theorem_4_5_wbox_lookup_is_two_ios() {
    wbox_lookup_is_two_ios_at(BS);
}

#[test]
fn theorem_4_5_wbox_lookup_is_two_ios_4k() {
    wbox_lookup_is_two_ios_at(4096);
}

/// Theorem 5.2 at one block size: a B-BOX lookup costs exactly the tree
/// height plus the LIDF hop. The expected height is derived from the
/// block-size-dependent config (fan-out ⌈B/2⌉ per level at minimum), so a
/// smaller block size must produce the taller tree this test predicts.
fn bbox_lookup_is_height_plus_lidf_at(bs: usize) {
    let pager = Pager::new(PagerConfig::with_block_size(bs));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(bs)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    let h = b.height() as u64;
    // Sanity-bound the measured height from the config: bulk load fills
    // leaves/internals to at least half capacity, so height is at most
    // ⌈log_{cap/2}⌉-ish; and it is at least ⌈log_{cap}⌉ of the leaf count.
    let leaf_cap = b.config().leaf_capacity as f64;
    let int_cap = b.config().internal_capacity as f64;
    let leaves = (N as f64 / leaf_cap).ceil();
    let min_h = 1.0 + leaves.log(int_cap).ceil();
    let max_h = 1.0 + (leaves * 2.0).log(int_cap / 2.0).ceil();
    assert!(
        (h as f64) >= min_h.min(2.0) && (h as f64) <= max_h + 1.0,
        "bs={bs}: measured height {h} outside config-derived [{min_h:.0}, {max_h:.0}+1]"
    );
    for probe in [0, N / 3, N - 1] {
        let before = pager.stats();
        b.lookup(lids[probe]).unwrap();
        assert_eq!(
            pager.stats().since(&before).total(),
            h + 1,
            "bs={bs}: lookup must cost height {h} + 1 LIDF hop"
        );
    }
}

#[test]
fn theorem_5_2_bbox_lookup_is_height_plus_lidf() {
    bbox_lookup_is_height_plus_lidf_at(BS);
}

#[test]
fn theorem_5_2_bbox_lookup_is_height_plus_lidf_4k() {
    bbox_lookup_is_height_plus_lidf_at(4096);
}

#[test]
fn theorem_5_3_bbox_amortized_constant_updates() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    let anchor = lids[N / 2];
    b.insert_before(anchor).unwrap(); // absorb the full-bulk-leaf split
    let before = pager.stats();
    let rounds = 20_000u64;
    for _ in 0..rounds {
        b.insert_before(anchor).unwrap();
    }
    let avg = pager.stats().since(&before).total() as f64 / rounds as f64;
    // O(1) amortized: a handful of I/Os (LIDF alloc + leaf rw + rare splits).
    assert!(avg < 8.0, "B-BOX amortized insert = {avg:.2} I/Os");
}

#[test]
fn theorem_4_6_wbox_amortized_logarithmic_updates() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    let anchor = lids[N / 2];
    w.insert_before(anchor).unwrap();
    let before = pager.stats();
    let rounds = 20_000u64;
    for _ in 0..rounds {
        w.insert_before(anchor).unwrap();
    }
    let avg = pager.stats().since(&before).total() as f64 / rounds as f64;
    // O(log_B N) with log_B N ≈ 2 here; relabeling adds amortized O(1).
    assert!(avg < 30.0, "W-BOX amortized insert = {avg:.2} I/Os");
    // And deletions are O(1) amortized (tombstones + global rebuilding).
    let all = w.iter_lids().unwrap();
    let before = pager.stats();
    let deletes = (N / 4) as u64;
    for &lid in all.iter().take(N / 4) {
        w.delete(lid).unwrap();
    }
    let avg = pager.stats().since(&before).total() as f64 / deletes as f64;
    assert!(avg < 8.0, "W-BOX amortized delete = {avg:.2} I/Os");
}

#[test]
fn space_is_linear_in_n_over_b() {
    for (n, label) in [(50_000usize, "50k"), (200_000, "200k")] {
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
        w.bulk_load(n).unwrap();
        let blocks = pager.allocated_blocks();
        // Records are 9 B (LIDF) + 8 B (leaf entry) ≈ 17 B; with headers
        // and internal nodes the structure must stay within ~4x raw size.
        let raw_blocks = n * 17 / BS;
        assert!(
            blocks < raw_blocks * 4 + 16,
            "{label}: {blocks} blocks for {raw_blocks} raw"
        );
    }
}

#[test]
fn theorem_4_4_wbox_label_bits() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size(BS)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    for i in 0..30_000usize {
        w.insert_before(lids[(i * 7) % lids.len()]).unwrap();
    }
    let c = *w.config();
    let n = w.len() as f64;
    let bound = n.log2()
        + 1.0
        + ((2.0 + 4.0 / c.a as f64).log2() * (n / c.k as f64).log(c.a as f64)
            + (c.b as f64).log2())
        .ceil();
    assert!(
        (w.label_bits() as f64) <= bound + 1.0,
        "bits {} vs Theorem 4.4 bound {bound:.1}",
        w.label_bits()
    );
    // Far below a 32-bit machine word at this scale.
    assert!(w.label_bits() <= 32);
}

#[test]
fn theorem_5_1_bbox_label_bits() {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(BS)).unwrap();
    let lids = b.bulk_load(N).unwrap();
    for i in 0..30_000usize {
        b.insert_before(lids[(i * 7) % lids.len()]).unwrap();
    }
    let n = b.len() as f64;
    let log_b = (b.config().internal_capacity as f64).log2();
    let bound = n.log2() + 1.0 + ((n.log2() - 1.0) / (log_b - 1.0)).floor();
    assert!(
        (b.label_bits().unwrap() as f64) <= bound + 1.0,
        "bits {} vs Theorem 5.1 bound {bound:.1}",
        b.label_bits().unwrap()
    );
    assert!(b.label_bits().unwrap() <= 32);
}

#[test]
fn lemma_4_2_split_rate_is_low() {
    // After a split, Ω(w(u)) inserts must pass through a node before it
    // splits again — so total splits over M inserts stay near-linear in
    // M / leaf-capacity, not in M.
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let mut w = WBox::new(pager, WBoxConfig::from_block_size(BS)).unwrap();
    let lids = w.bulk_load(N).unwrap();
    let inserts = 30_000u64;
    for _ in 0..inserts {
        w.insert_before(lids[N / 2]).unwrap();
    }
    let c = w.counters();
    let leaf_cap = w.config().leaf_capacity() as u64;
    let expected_leaf_splits = inserts / (leaf_cap / 2);
    assert!(
        c.leaf_splits <= expected_leaf_splits * 3 + 10,
        "leaf splits {} vs expected ~{expected_leaf_splits}",
        c.leaf_splits
    );
    assert!(
        c.internal_splits <= c.leaf_splits / 10 + 5,
        "internal splits are an order rarer: {} vs {}",
        c.internal_splits,
        c.leaf_splits
    );
}

#[test]
fn wbox_o_insert_cost_tracks_document_depth() {
    // Theorem 4.7: W-BOX-O insertion is O(D + log_B N) because shifting the
    // enclosing end tags forces end-cache refreshes on up to D start
    // records outside the shifted range. Our implementation groups those
    // refreshes by block, so the observable extra cost is the number of
    // *blocks* holding affected start records — still monotone in D.
    //
    // Insert as the last child of the innermost element of a deep chain:
    // every enclosing end tag shifts on each insert.
    let run = |depth: usize| -> f64 {
        let total = 4_000usize;
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let mut w = WBox::new(pager.clone(), WBoxConfig::from_block_size_paired(BS)).unwrap();
        // Document: `depth` nested elements, then flat siblings inside the
        // innermost to reach `total` elements.
        let mut partner = vec![0usize; 2 * total];
        let tags = 2 * total;
        for d in 0..depth {
            partner[d] = tags - 1 - d;
            partner[tags - 1 - d] = d;
        }
        let flat = total - depth;
        for i in 0..flat {
            let s = depth + 2 * i;
            partner[s] = s + 1;
            partner[s + 1] = s;
        }
        let lids = w.bulk_load_pairs(&partner).unwrap();
        // Anchor: the innermost element's end tag — inserting before it
        // makes the new element its last child and shifts all `depth`
        // enclosing end tags (they sit in the suffix of the same leaves).
        let anchor = lids[tags - depth];
        let before = pager.stats();
        let rounds = 400;
        for _ in 0..rounds {
            w.insert_element_before(anchor).unwrap();
        }
        pager.stats().since(&before).total() as f64 / rounds as f64
    };
    let shallow = run(2);
    let deep = run(1_500); // start records span several blocks
    assert!(
        deep > shallow + 1.5,
        "deep nesting must cost measurably more per insert: {shallow:.2} vs {deep:.2}"
    );
}
