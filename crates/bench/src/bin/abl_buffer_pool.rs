//! **A4 — ablation**: CLOCK buffer pool on/off (§7: "our structures perform
//! better with caching, especially because the root tends to be cached at
//! all times" — all headline numbers are measured with caching off).

use boxes_bench::report::fmt_f;
use boxes_bench::{Scale, Table};
use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::concentrated;
use boxes_core::{BBoxScheme, DocumentDriver, WBoxScheme};

fn main() {
    let (scale, bs) = Scale::from_args();
    let stream = concentrated(scale.base_elements / 2, scale.insert_elements / 2);
    let mut table = Table::new(
        "Ablation: CLOCK buffer pool size vs amortized update cost (concentrated)",
        &[
            "scheme",
            "pool blocks",
            "avg I/Os per element insert",
            "pool hit rate",
        ],
    );
    for pool in [0usize, 4, 64, 1024] {
        for which in ["W-BOX", "B-BOX"] {
            let pager = Pager::new(PagerConfig::with_block_size(bs).with_pool(pool));
            eprint!("  {which} pool={pool} ...");
            let (avg, hits) = if which == "W-BOX" {
                let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(bs));
                let mut d = DocumentDriver::load(scheme, &stream.base);
                let costs = d.replay(&stream.ops);
                pager.flush();
                let s = pager.pool_stats();
                (
                    costs.iter().sum::<u64>() as f64 / costs.len() as f64,
                    s.hits as f64 / (s.hits + s.misses).max(1) as f64,
                )
            } else {
                let scheme = BBoxScheme::new(pager.clone(), BBoxConfig::from_block_size(bs));
                let mut d = DocumentDriver::load(scheme, &stream.base);
                let costs = d.replay(&stream.ops);
                pager.flush();
                let s = pager.pool_stats();
                (
                    costs.iter().sum::<u64>() as f64 / costs.len() as f64,
                    s.hits as f64 / (s.hits + s.misses).max(1) as f64,
                )
            };
            eprintln!(" avg {avg:.2}");
            table.row(vec![
                which.into(),
                pool.to_string(),
                fmt_f(avg),
                format!("{hits:.3}"),
            ]);
        }
    }
    table.print();
}
