//! Cross-scheme agreement: every scheme replaying the same XML update
//! stream must induce the same relative order on the same tags, and the
//! ordinal-capable schemes must agree on exact positions.

use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::generate::xmark;
use boxes_core::xml::workload::{concentrated, document_order, scattered, UpdateStream};
use boxes_core::{
    BBoxScheme, DocumentDriver, LabelingScheme, NaiveScheme, OrdinalScheme, WBoxScheme,
};

/// Rank of every live element's tags under a scheme: element slot →
/// (rank of start label, rank of end label) in global label order.
fn ranks<S: LabelingScheme>(driver: &DocumentDriver<S>) -> Vec<Option<(usize, usize)>> {
    let n = driver.element_count();
    let mut labels: Vec<(S::Label, usize, bool)> = Vec::new();
    let mut live = vec![false; n];
    for (i, alive) in live.iter_mut().enumerate() {
        let r = boxes_core::xml::workload::ElemRef(i);
        if let Some((s, e)) = driver.element(r) {
            *alive = true;
            labels.push((driver.scheme.try_lookup(s).unwrap(), i, true));
            labels.push((driver.scheme.try_lookup(e).unwrap(), i, false));
        }
    }
    labels.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = vec![None; n];
    let mut starts = vec![usize::MAX; n];
    for (rank, (_, elem, is_start)) in labels.iter().enumerate() {
        if *is_start {
            starts[*elem] = rank;
        } else {
            out[*elem] = Some((starts[*elem], rank));
        }
    }
    out
}

fn assert_streams_agree(stream: &UpdateStream) {
    let w = {
        let pager = Pager::new(PagerConfig::with_block_size(1024));
        let mut d = DocumentDriver::load(
            WBoxScheme::new(pager, WBoxConfig::from_block_size(1024)),
            &stream.base,
        )
        .unwrap();
        d.replay(&stream.ops).unwrap();
        d.verify_document_order().unwrap();
        ranks(&d)
    };
    let b = {
        let pager = Pager::new(PagerConfig::with_block_size(256));
        let mut d = DocumentDriver::load(
            BBoxScheme::new(pager, BBoxConfig::from_block_size(256)),
            &stream.base,
        )
        .unwrap();
        d.replay(&stream.ops).unwrap();
        d.verify_document_order().unwrap();
        ranks(&d)
    };
    let n = {
        let mut d =
            DocumentDriver::load(NaiveScheme::with_block_size(512, 4), &stream.base).unwrap();
        d.replay(&stream.ops).unwrap();
        d.verify_document_order().unwrap();
        ranks(&d)
    };
    assert_eq!(w, b, "W-BOX and B-BOX disagree on tag order");
    assert_eq!(w, n, "W-BOX and naive-4 disagree on tag order");
}

#[test]
fn concentrated_stream_all_schemes_agree() {
    assert_streams_agree(&concentrated(150, 80));
}

#[test]
fn scattered_stream_all_schemes_agree() {
    assert_streams_agree(&scattered(300, 90));
}

#[test]
fn xmark_stream_all_schemes_agree() {
    let doc = xmark(800, 21);
    assert_streams_agree(&document_order(&doc, 0));
}

#[test]
fn ordinal_schemes_agree_exactly() {
    let doc = xmark(600, 5);
    let stream = document_order(&doc, 0);

    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut dw = DocumentDriver::load(
        WBoxScheme::new(pager, WBoxConfig::from_block_size(1024).with_ordinal()),
        &stream.base,
    )
    .unwrap();
    dw.replay(&stream.ops).unwrap();

    let pager = Pager::new(PagerConfig::with_block_size(256));
    let mut db = DocumentDriver::load(
        BBoxScheme::new(pager, BBoxConfig::from_block_size(256).with_ordinal()),
        &stream.base,
    )
    .unwrap();
    db.replay(&stream.ops).unwrap();

    for i in (0..dw.element_count()).step_by(13) {
        let r = boxes_core::xml::workload::ElemRef(i);
        let (ws, we) = dw.element(r).expect("insert-only stream");
        let (bs, be) = db.element(r).expect("insert-only stream");
        assert_eq!(
            dw.scheme.ordinal_of(ws).unwrap(),
            db.scheme.ordinal_of(bs).unwrap(),
            "start ordinal of element {i}"
        );
        assert_eq!(
            dw.scheme.ordinal_of(we).unwrap(),
            db.scheme.ordinal_of(be).unwrap(),
            "end ordinal of element {i}"
        );
    }
}

#[test]
fn pair_optimized_wbox_agrees_with_plain() {
    let stream = concentrated(200, 120);

    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut plain = DocumentDriver::load(
        WBoxScheme::new(pager, WBoxConfig::from_block_size(1024)),
        &stream.base,
    )
    .unwrap();
    plain.replay(&stream.ops).unwrap();

    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut paired = DocumentDriver::load(
        WBoxScheme::new(pager, WBoxConfig::from_block_size_paired(1024)),
        &stream.base,
    )
    .unwrap();
    paired.replay(&stream.ops).unwrap();
    paired.scheme.inner().validate(); // includes pair-cache validation

    assert_eq!(ranks(&plain), ranks(&paired));

    // And the cached end labels answer pair lookups correctly everywhere.
    for i in (0..paired.element_count()).step_by(7) {
        let r = boxes_core::xml::workload::ElemRef(i);
        let (s, e) = paired.element(r).expect("insert-only stream");
        let (ls, le) = paired.scheme.inner().pair_lookup(s).unwrap();
        assert_eq!(ls, paired.scheme.try_lookup(s).unwrap());
        assert_eq!(le, paired.scheme.try_lookup(e).unwrap());
    }
}

#[test]
fn pair_optimized_wbox_survives_deletes_and_churn() {
    use boxes_xml::workload::insert_delete_churn_with_prefill;
    let stream = insert_delete_churn_with_prefill(150, 120, 60);
    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut driver = DocumentDriver::load(
        WBoxScheme::new(pager, WBoxConfig::from_block_size_paired(1024)),
        &stream.base,
    )
    .unwrap();
    driver.replay(&stream.ops).unwrap();
    driver.verify_document_order().unwrap();
    // Pair caches and partner links must be fully consistent afterwards.
    driver.scheme.inner().validate();
    // And pair lookups still answer in 2 I/Os with fresh values.
    let pager = driver.scheme.pager().clone();
    for i in (0..driver.element_count()).step_by(17) {
        let r = boxes_core::xml::workload::ElemRef(i);
        let Some((s, e)) = driver.element(r) else {
            continue; // deleted by the churn
        };
        let before = pager.stats();
        let (ls, le) = driver.scheme.inner().pair_lookup(s).unwrap();
        assert_eq!(pager.stats().since(&before).total(), 2);
        assert_eq!(ls, driver.scheme.try_lookup(s).unwrap());
        assert_eq!(le, driver.scheme.try_lookup(e).unwrap());
    }
}

#[test]
fn subtree_stream_equivalence_across_schemes() {
    use boxes_xml::generate::two_level;
    use boxes_xml::workload::{Anchor, ElemRef, Op, UpdateStream};
    // A stream mixing bulk subtree inserts/deletes with single ops.
    let mut ops = vec![
        Op::InsertSubtree {
            anchor: Anchor::BeforeEnd(ElemRef(0)),
            tree: two_level(40),
        },
        Op::InsertElement {
            anchor: Anchor::BeforeStart(ElemRef(50)),
        },
        Op::DeleteSubtree {
            elem: ElemRef(101), // the subtree root inserted above
            removed: (101..142).map(ElemRef).collect(),
        },
        Op::InsertSubtree {
            anchor: Anchor::BeforeStart(ElemRef(20)),
            tree: two_level(25),
        },
    ];
    ops.push(Op::DeleteElement { elem: ElemRef(100) });
    let stream = UpdateStream {
        base: two_level(100),
        ops,
        measure_from: 0,
    };
    assert_streams_agree(&stream);
}
