//! **A1 — ablation**: W-BOX (a, k) parameter sweep on the concentrated
//! adversary. The paper fixes a = b/2 − 2 and 2k − 1 = leaf capacity; this
//! sweep shows what other choices cost.

use boxes_bench::report::fmt_f;
use boxes_bench::{Scale, Table};
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::concentrated;
use boxes_core::{DocumentDriver, WBoxScheme};

fn main() {
    let (scale, bs) = Scale::from_args();
    let stream = concentrated(scale.base_elements / 2, scale.insert_elements / 2);
    let derived = WBoxConfig::from_block_size(bs);
    eprintln!(
        "W-BOX parameter sweep (derived: a={}, k={}, b={})",
        derived.a, derived.k, derived.b
    );
    let mut table = Table::new(
        "Ablation: W-BOX branching (a) and leaf (k) parameters, concentrated workload",
        &["a", "k", "b", "avg I/Os", "max", "label bits", "blocks"],
    );
    let sweeps: Vec<(usize, usize, usize)> = vec![
        (8, derived.k, 21),
        (16, derived.k, 36),
        (64, derived.k, 132),
        (derived.a, derived.k, derived.b),
        (derived.a, derived.k / 8, derived.b),
        (derived.a, derived.k / 2, derived.b),
        (16, 64, 36),
        (64, 64, 132),
    ];
    for (a, k, b) in sweeps {
        let config = WBoxConfig {
            a,
            k,
            b,
            ordinal: false,
            pair: false,
        };
        config.validate();
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let scheme = WBoxScheme::new(pager, config);
        eprint!("  a={a:<4} k={k:<5} b={b:<4} ...");
        let mut driver = DocumentDriver::load(scheme, &stream.base).unwrap();
        let costs = driver.replay(&stream.ops).unwrap();
        let avg = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        eprintln!(" avg {avg:.2}");
        table.row(vec![
            a.to_string(),
            k.to_string(),
            b.to_string(),
            fmt_f(avg),
            costs.iter().max().copied().unwrap_or(0).to_string(),
            {
                use boxes_core::LabelingScheme;
                driver.scheme.label_bits().unwrap().to_string()
            },
            {
                use boxes_core::LabelingScheme;
                driver.scheme.pager().allocated_blocks().to_string()
            },
        ]);
    }
    table.print();
}
