//! **E6 — "Query performance"** (§7, narrative → table).
//!
//! After a concentrated build-up, measure per-scheme lookup costs: single
//! label, start/end pair, and (where supported) ordinal label — with the
//! LIDF indirection included, caching off, exactly as the paper reports
//! ("W-BOX always looks up a label in two I/Os … B-BOX 3–4 counting the
//! indirection … W-BOX-O can do a pair in two I/Os total").

use boxes_bench::report::fmt_f;
use boxes_bench::{Scale, Table};
use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::{concentrated, ElemRef};
use boxes_core::{BBoxScheme, DocumentDriver, LabelingScheme, NaiveScheme, WBoxScheme};

struct Row {
    scheme: String,
    single: f64,
    pair: f64,
    ordinal: Option<f64>,
}

#[allow(clippy::type_complexity)]
fn measure<S: LabelingScheme>(
    scheme: S,
    scale: &Scale,
    pair_lookup: impl Fn(&S, boxes_core::lidf::Lid, boxes_core::lidf::Lid),
    ordinal: Option<&dyn Fn(&S, boxes_core::lidf::Lid)>,
) -> Row {
    let stream = concentrated(scale.base_elements, scale.insert_elements);
    let mut driver = DocumentDriver::load(scheme, &stream.base).unwrap();
    driver.replay(&stream.ops).unwrap();
    let pager = driver.scheme.pager().clone();
    let n = driver.element_count();
    let probes: Vec<usize> = (0..200).map(|i| (i * 997) % n).collect();

    let before = pager.stats();
    for &p in &probes {
        let (s, _) = driver.element(ElemRef(p)).expect("no deletes");
        driver.scheme.try_lookup(s).unwrap();
    }
    let single = pager.stats().since(&before).total() as f64 / probes.len() as f64;

    let before = pager.stats();
    for &p in &probes {
        let (s, e) = driver.element(ElemRef(p)).expect("no deletes");
        pair_lookup(&driver.scheme, s, e);
    }
    let pair = pager.stats().since(&before).total() as f64 / probes.len() as f64;

    let ordinal = ordinal.map(|f| {
        let before = pager.stats();
        for &p in &probes {
            let (s, _) = driver.element(ElemRef(p)).expect("no deletes");
            f(&driver.scheme, s);
        }
        pager.stats().since(&before).total() as f64 / probes.len() as f64
    });

    Row {
        scheme: driver.scheme.name(),
        single,
        pair,
        ordinal,
    }
}

fn main() {
    let (scale, bs) = Scale::from_args();
    eprintln!(
        "Query-cost table after concentrated build ({} scale)",
        scale.name
    );
    let mut rows = Vec::new();

    // W-BOX: plain pair lookup = two separate lookups.
    {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let s = WBoxScheme::new(pager, WBoxConfig::from_block_size(bs));
        rows.push(measure(
            s,
            &scale,
            |s, a, b| {
                s.try_lookup(a).unwrap();
                s.try_lookup(b).unwrap();
            },
            None,
        ));
    }
    // W-BOX ordinal.
    {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let s = WBoxScheme::new(pager, WBoxConfig::from_block_size(bs).with_ordinal());
        rows.push(measure(
            s,
            &scale,
            |s, a, b| {
                s.try_lookup(a).unwrap();
                s.try_lookup(b).unwrap();
            },
            Some(&|s: &WBoxScheme, lid| {
                use boxes_core::OrdinalScheme;
                s.ordinal_of(lid).unwrap();
            }),
        ));
    }
    // W-BOX-O: pair from the start record alone.
    {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let s = WBoxScheme::new(pager, WBoxConfig::from_block_size_paired(bs));
        rows.push(measure(
            s,
            &scale,
            |s, a, _| {
                s.inner().pair_lookup(a).unwrap();
            },
            None,
        ));
    }
    // B-BOX.
    {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let s = BBoxScheme::new(pager, BBoxConfig::from_block_size(bs));
        rows.push(measure(
            s,
            &scale,
            |s, a, b| {
                s.try_lookup(a).unwrap();
                s.try_lookup(b).unwrap();
            },
            None,
        ));
    }
    // B-BOX-O (ordinal).
    {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let s = BBoxScheme::new(pager, BBoxConfig::from_block_size(bs).with_ordinal());
        rows.push(measure(
            s,
            &scale,
            |s, a, b| {
                s.try_lookup(a).unwrap();
                s.try_lookup(b).unwrap();
            },
            Some(&|s: &BBoxScheme, lid| {
                use boxes_core::OrdinalScheme;
                s.ordinal_of(lid).unwrap();
            }),
        ));
    }
    // naive-64.
    {
        let s = NaiveScheme::with_block_size(bs, 64);
        rows.push(measure(
            s,
            &scale,
            |s, a, b| {
                s.try_lookup(a).unwrap();
                s.try_lookup(b).unwrap();
            },
            None,
        ));
    }

    let mut table = Table::new(
        format!(
            "Query performance ({} scale): avg I/Os per lookup, LIDF hop included",
            scale.name
        ),
        &["scheme", "single label", "start+end pair", "ordinal label"],
    );
    for r in &rows {
        table.row(vec![
            r.scheme.clone(),
            fmt_f(r.single),
            fmt_f(r.pair),
            r.ordinal.map(fmt_f).unwrap_or_else(|| "-".into()),
        ]);
    }
    table.print();
}
