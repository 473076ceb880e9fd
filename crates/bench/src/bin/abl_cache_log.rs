//! **A3 — ablation**: effectiveness of the §6 caching + logging layer as a
//! function of the log size k and the read:update ratio.
//!
//! A pool of references is warmed, then a read-heavy workload interleaves
//! lookups with updates; we report the fraction of lookups that avoided
//! I/O (cache hit or log replay). k = 0 is the basic single-timestamp
//! approach; the paper predicts "roughly a k-fold boost".

use boxes_bench::{Scale, Table};
use boxes_core::cache::CachedRef;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBox;
use boxes_core::wbox::WBoxConfig;
use boxes_core::CachedWBox;

fn main() {
    let (scale, bs) = Scale::from_args();
    let n_labels = (scale.base_elements * 2).max(10_000);
    let refs_count = 200;
    let rounds = 2_000;

    let mut table = Table::new(
        "Ablation: §6 cache effectiveness vs log size k (W-BOX, non-ordinal labels)",
        &[
            "log size k",
            "reads per update",
            "avoid-I/O rate",
            "hits",
            "replays",
            "full",
        ],
    );
    for k in [0usize, 1, 4, 16, 64, 256] {
        for reads_per_update in [1usize, 10, 100] {
            let pager = Pager::new(PagerConfig::with_block_size(bs));
            let mut wbox = WBox::new(pager, WBoxConfig::from_block_size(bs)).unwrap();
            let lids = wbox.bulk_load(n_labels).unwrap();
            let mut cached = CachedWBox::new(wbox, k);
            let mut refs: Vec<CachedRef<u64>> = (0..refs_count).map(|_| CachedRef::new()).collect();
            let probes: Vec<_> = (0..refs_count)
                .map(|i| lids[(i * 131) % lids.len()])
                .collect();
            for (r, &lid) in refs.iter_mut().zip(&probes) {
                cached.lookup(lid, r).unwrap();
            }
            cached.stats = Default::default();
            let mut ri = 0usize;
            for round in 0..rounds {
                cached
                    .insert_before(lids[(round * 37 + 5) % lids.len()])
                    .unwrap();
                for _ in 0..reads_per_update {
                    let i = ri % refs_count;
                    ri += 1;
                    let lid = probes[i];
                    let r = &mut refs[i];
                    cached.lookup(lid, r).unwrap();
                }
            }
            let s = cached.stats;
            table.row(vec![
                k.to_string(),
                reads_per_update.to_string(),
                format!("{:.3}", s.avoidance_rate()),
                s.hits.to_string(),
                s.replays.to_string(),
                s.full.to_string(),
            ]);
        }
        eprintln!("  k={k} done");
    }
    table.print();
}
