//! **A2 — ablation**: B-BOX minimum-fill policy B/2 vs B/4 under mixed
//! insert/delete churn (§5: "The standard B-tree minimum fan-out of B/2 is
//! susceptible to frequent splits and merges caused by repeatedly inserting
//! an entry into a full leaf and then deleting the same entry").

use boxes_bench::report::fmt_f;
use boxes_bench::{Scale, Table};
use boxes_core::bbox::{BBoxConfig, FillPolicy};
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::xml::workload::insert_delete_churn;
use boxes_core::{BBoxScheme, DocumentDriver};

fn main() {
    let (scale, bs) = Scale::from_args();
    let rounds = scale.insert_elements;
    let stream = insert_delete_churn(scale.base_elements / 10, rounds);
    eprintln!("B-BOX fill-policy churn: {} insert+delete rounds", rounds);

    let mut table = Table::new(
        "Ablation: B-BOX minimum fill under insert/delete churn at one spot",
        &[
            "policy",
            "avg I/Os per op",
            "max",
            "leaf splits",
            "merges",
            "borrows",
        ],
    );
    for (name, fill) in [
        ("B/2 (Half)", FillPolicy::Half),
        ("B/4 (Quarter)", FillPolicy::Quarter),
    ] {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let scheme = BBoxScheme::new(pager, BBoxConfig::from_block_size(bs).with_fill(fill));
        eprint!("  {name} ...");
        let mut driver = DocumentDriver::load(scheme, &stream.base).unwrap();
        let costs = driver.replay(&stream.ops).unwrap();
        let avg = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        let c = driver.scheme.inner().counters();
        eprintln!(" avg {avg:.2}, counters {c:?}");
        table.row(vec![
            name.into(),
            fmt_f(avg),
            costs.iter().max().copied().unwrap_or(0).to_string(),
            c.leaf_splits.to_string(),
            c.merges.to_string(),
            c.borrows.to_string(),
        ]);
    }
    table.print();
}
