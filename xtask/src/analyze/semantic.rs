//! The semantic lint: replay randomized update streams through every
//! scheme, auditing invariants after each operation, plus a corruption
//! negative control that proves the auditors can still see damage.

use boxes_audit::Auditable;
use boxes_core::bbox::{BBox, BBoxConfig};
use boxes_core::driver::partner_map;
use boxes_core::pager::{BlockId, Pager, PagerConfig, PagerError};
use boxes_core::wbox::{WBox, WBoxConfig};
use boxes_core::xml::generate::{two_level, xmark};
use boxes_core::xml::workload::{
    concentrated, document_order, insert_delete_churn_with_prefill, scattered, UpdateStream,
};
use boxes_core::{BBoxScheme, CachedBBox, CachedOrdinal, CachedWBox, DocumentDriver, WBoxScheme};
use boxes_core::{LabelingScheme, OrdinalScheme};

/// splitmix64: cheap deterministic stream of sub-seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Describe a pager error that interrupted `what`.
fn io_err(what: &str) -> impl Fn(PagerError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Replay `stream` on `scheme`, auditing after every operation; returns an
/// error description naming the first op whose audit was not clean.
fn drive_with_audit<S: LabelingScheme + Auditable>(
    label: &str,
    scheme: S,
    stream: &UpdateStream,
) -> Result<(), String> {
    let report = scheme.audit();
    if !report.is_clean() {
        return Err(format!("{label}: dirty before load:\n{report}"));
    }
    let mut driver = DocumentDriver::load(scheme, &stream.base).map_err(io_err(label))?;
    let report = driver.scheme.audit();
    if !report.is_clean() {
        return Err(format!("{label}: dirty after bulk load:\n{report}"));
    }
    for (i, op) in stream.ops.iter().enumerate() {
        driver.apply(op).map_err(io_err(label))?;
        let report = driver.scheme.audit();
        if !report.is_clean() {
            return Err(format!("{label}: dirty after op {i}:\n{report}"));
        }
    }
    driver.verify_document_order().map_err(io_err(label))
}

/// Negative control: corrupt one allocated block behind the auditor's back
/// and demand a reported violation. A clean report means the auditor has
/// gone blind, which must itself fail the gate.
fn corruption_control() -> Result<(), String> {
    let audit_must_flag = |what: &str, report: boxes_audit::AuditReport| {
        if report.is_clean() {
            Err(format!("{what} auditor missed a garbage-filled block"))
        } else {
            Ok(())
        }
    };

    // W-BOX: trash an allocated block with garbage bytes.
    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut wbox =
        WBox::new(pager.clone(), WBoxConfig::from_block_size(1024)).map_err(io_err("W-BOX"))?;
    let _lids = wbox.bulk_load(500).map_err(io_err("W-BOX"))?;
    let victim = (0..u32::MAX)
        .map(BlockId)
        .find(|id| pager.is_allocated(*id))
        .expect("a 500-record W-BOX allocates blocks");
    let garbage = vec![0xA5u8; 1024];
    pager.write(victim, &garbage).map_err(io_err("W-BOX"))?;
    audit_must_flag("W-BOX", wbox.audit())?;

    // B-BOX: same, through its own pager.
    let pager = Pager::new(PagerConfig::with_block_size(256));
    let mut bbox =
        BBox::new(pager.clone(), BBoxConfig::from_block_size(256)).map_err(io_err("B-BOX"))?;
    let _lids = bbox.bulk_load(500).map_err(io_err("B-BOX"))?;
    let victim = (0..u32::MAX)
        .map(BlockId)
        .find(|id| pager.is_allocated(*id))
        .expect("a 500-record B-BOX allocates blocks");
    let garbage = vec![0x5Au8; 256];
    pager.write(victim, &garbage).map_err(io_err("B-BOX"))?;
    audit_must_flag("B-BOX", bbox.audit())
}

/// Drive every §6 cached wrapper with checkpointed anchors, auditing the
/// replay consistency after each mutation.
fn cached_wrapper_lint(seed: u64) -> Result<(), String> {
    let mut state = seed;

    // CachedWBox over flat labels.
    let err = io_err("cached-wbox");
    let pager = Pager::new(PagerConfig::with_block_size(1024));
    let mut wbox = WBox::new(pager, WBoxConfig::from_block_size(1024)).map_err(&err)?;
    let lids = wbox.bulk_load(200).map_err(&err)?;
    let mut cached = CachedWBox::new(wbox, 16);
    let anchors: Vec<_> = lids.iter().step_by(23).copied().collect();
    cached.checkpoint(&anchors).map_err(&err)?;
    let mut cursors: Vec<_> = lids.iter().step_by(11).copied().collect();
    for i in 0..120 {
        let r = splitmix64(&mut state) as usize;
        if i % 3 == 2 && cursors.len() > 4 {
            let victim = cursors.swap_remove(r % cursors.len());
            cached.delete(victim).map_err(&err)?;
        } else {
            let at = cursors[r % cursors.len()];
            cursors.push(cached.insert_before(at).map_err(&err)?);
        }
        let report = cached.audit();
        if !report.is_clean() {
            return Err(format!("cached-wbox: dirty after mutation {i}:\n{report}"));
        }
    }

    // CachedBBox over path labels.
    let err = io_err("cached-bbox");
    let pager = Pager::new(PagerConfig::with_block_size(256));
    let mut bbox = BBox::new(pager, BBoxConfig::from_block_size(256)).map_err(&err)?;
    let lids = bbox.bulk_load(200).map_err(&err)?;
    let mut cached = CachedBBox::new(bbox, 16);
    let anchors: Vec<_> = lids.iter().step_by(19).copied().collect();
    cached.checkpoint(&anchors).map_err(&err)?;
    let mut cursors: Vec<_> = lids.iter().step_by(7).copied().collect();
    for i in 0..120 {
        let r = splitmix64(&mut state) as usize;
        if i % 4 == 3 && cursors.len() > 4 {
            let victim = cursors.swap_remove(r % cursors.len());
            cached.delete(victim).map_err(&err)?;
        } else {
            let at = cursors[r % cursors.len()];
            cursors.push(cached.insert_before(at).map_err(&err)?);
        }
        let report = cached.audit();
        if !report.is_clean() {
            return Err(format!("cached-bbox: dirty after mutation {i}:\n{report}"));
        }
    }

    // CachedOrdinal over both ordinal-capable schemes.
    cached_ordinal_lint(
        "cached-ordinal/wbox",
        WBoxScheme::new(
            Pager::new(PagerConfig::with_block_size(1024)),
            WBoxConfig::from_block_size(1024).with_ordinal(),
        ),
        &mut state,
    )?;
    cached_ordinal_lint(
        "cached-ordinal/bbox",
        BBoxScheme::new(
            Pager::new(PagerConfig::with_block_size(256)),
            BBoxConfig::from_block_size(256).with_ordinal(),
        ),
        &mut state,
    )
}

fn cached_ordinal_lint<S: OrdinalScheme + Auditable>(
    label: &str,
    mut scheme: S,
    state: &mut u64,
) -> Result<(), String> {
    let err = io_err(label);
    let lids = scheme
        .try_bulk_load_document(&partner_map(&two_level(75)))
        .map_err(&err)?;
    let mut cached = CachedOrdinal::new(scheme, 12);
    let anchors: Vec<_> = lids.iter().step_by(17).copied().collect();
    cached.checkpoint(&anchors).map_err(&err)?;
    let mut cursors: Vec<_> = lids.iter().step_by(5).copied().collect();
    for i in 0..100 {
        let r = splitmix64(state) as usize;
        if i % 5 == 4 && cursors.len() > 4 {
            let victim = cursors.swap_remove(r % cursors.len());
            cached.delete(victim).map_err(&err)?;
        } else {
            let at = cursors[r % cursors.len()];
            cursors.push(cached.insert_before(at).map_err(&err)?);
        }
        let report = cached.audit();
        if !report.is_clean() {
            return Err(format!("{label}: dirty after mutation {i}:\n{report}"));
        }
    }
    Ok(())
}

/// Run every semantic check; prints one line per check and returns overall
/// success.
pub(crate) fn semantic_lint(seed: u64) -> bool {
    let mut state = seed;
    let jitter = |state: &mut u64, lo: usize, span: usize| lo + (splitmix64(state) as usize) % span;

    let mut checks: Vec<(String, Result<(), String>)> = Vec::new();

    // W-BOX, plain labels, scattered single inserts.
    let (base, ins) = (jitter(&mut state, 250, 100), jitter(&mut state, 80, 40));
    checks.push((
        format!("wbox/scattered({base},{ins})"),
        drive_with_audit(
            "wbox/scattered",
            WBoxScheme::with_block_size(1024),
            &scattered(base, ins),
        ),
    ));

    // W-BOX with the pair optimization, concentrated subtree growth.
    let (base, sub) = (jitter(&mut state, 150, 80), jitter(&mut state, 60, 40));
    checks.push((
        format!("wbox-pair/concentrated({base},{sub})"),
        drive_with_audit(
            "wbox-pair/concentrated",
            WBoxScheme::new(
                Pager::new(PagerConfig::with_block_size(1024)),
                WBoxConfig::from_block_size_paired(1024),
            ),
            &concentrated(base, sub),
        ),
    ));

    // W-BOX-O under insert/delete churn (exercises tombstones + rebuild).
    let rounds = jitter(&mut state, 80, 60);
    checks.push((
        format!("wbox-ordinal/churn({rounds})"),
        drive_with_audit(
            "wbox-ordinal/churn",
            WBoxScheme::new(
                Pager::new(PagerConfig::with_block_size(1024)),
                WBoxConfig::from_block_size(1024).with_ordinal(),
            ),
            &insert_delete_churn_with_prefill(120, rounds, 40),
        ),
    ));

    // B-BOX over a randomized XMark document replayed in document order.
    let doc_seed = splitmix64(&mut state);
    let doc = xmark(jitter(&mut state, 500, 300), doc_seed);
    checks.push((
        format!("bbox/xmark(seed={doc_seed:#x})"),
        drive_with_audit(
            "bbox/xmark",
            BBoxScheme::with_block_size(256),
            &document_order(&doc, 0),
        ),
    ));

    // B-BOX-O under churn (exercises borrow/merge + size maintenance).
    let rounds = jitter(&mut state, 80, 60);
    checks.push((
        format!("bbox-ordinal/churn({rounds})"),
        drive_with_audit(
            "bbox-ordinal/churn",
            BBoxScheme::new(
                Pager::new(PagerConfig::with_block_size(256)),
                BBoxConfig::from_block_size(256).with_ordinal(),
            ),
            &insert_delete_churn_with_prefill(120, rounds, 40),
        ),
    ));

    // §6 cached wrappers with checkpointed replay consistency.
    checks.push((
        "cached-wrappers".into(),
        cached_wrapper_lint(splitmix64(&mut state)),
    ));

    // The auditors themselves must still see deliberate corruption.
    checks.push(("corruption-control".into(), corruption_control()));

    let mut ok = true;
    for (name, result) in checks {
        match result {
            Ok(()) => println!("  semantic: {name:<40} ok"),
            Err(msg) => {
                eprintln!("  semantic: {name:<40} FAILED\n{msg}");
                ok = false;
            }
        }
    }
    ok
}
