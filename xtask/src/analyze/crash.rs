//! The crash-recovery semantic pass: for every scheme, sweep an injected
//! crash over *every* WAL/page-write boundary of a mixed workload, recover
//! from the surviving disk image + durable log, and demand (a) clean
//! structure audits and (b) label-for-label agreement with an oracle that
//! replays exactly the committed operation prefix. Two negative controls
//! prove the recovery machinery itself can still see damage: a truncated
//! final WAL record must be rolled back silently, and a corrupted record
//! checksum must fail recovery loudly.

use std::collections::BTreeSet;

use boxes_audit::Auditable;
use boxes_core::bbox::BBoxConfig;
use boxes_core::durable::{reopen_bbox, reopen_lidf, reopen_naive, reopen_wbox, DurableEnv};
use boxes_core::lidf::{BlockPtrRecord, Lid, Lidf};
use boxes_core::naive::NaiveConfig;
use boxes_core::pager::{codec, BlockId, IoResult, Pager, PagerConfig, PagerError, SharedPager};
use boxes_core::wal::{recover, Recovered, WalConfig, WalError};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{BBoxScheme, LabelingScheme, NaiveScheme, WBoxScheme};

/// Number of element pairs in the bulk-loaded base document.
const BASE: usize = 8;
/// Mutating operations after the bulk load (op indices 1..=OPS; the bulk
/// load is op 0).
pub(crate) const OPS: u64 = 8;

/// Judge an armed run: the clock must have fired, and the workload must
/// have finished or stopped at the degraded pager the crash left behind.
/// Any other error is a real fault the sweep must not swallow.
fn check_crashed<T>(
    label: &str,
    target: u64,
    env: &DurableEnv,
    outcome: IoResult<T>,
) -> Result<(), String> {
    if !env.clock().fired() {
        return Err(format!("{label}: tick {target} did not crash"));
    }
    match outcome {
        Ok(_) | Err(PagerError::Degraded(_)) => Ok(()),
        Err(e) => Err(format!("{label}: tick {target}: workload failed: {e}")),
    }
}

/// Live-document bookkeeping shared by the crashing run and the oracle.
#[derive(Default)]
pub(crate) struct DocState {
    lids: Vec<Lid>,
    dead: BTreeSet<Lid>,
    last_pair: Option<(Lid, Lid)>,
}

impl DocState {
    pub(crate) fn live(&self) -> Vec<Lid> {
        self.lids
            .iter()
            .copied()
            .filter(|l| !self.dead.contains(l))
            .collect()
    }
}

/// Apply operation `i` of the deterministic mixed workload: bulk load,
/// element inserts, a 2-element subtree insert, and deletion of the element
/// inserted by the preceding op (both tags in one atomic operation).
pub(crate) fn apply_op<S: LabelingScheme>(s: &mut S, i: u64, st: &mut DocState) -> IoResult<()> {
    if i == 0 {
        let partner_of: Vec<usize> = (0..2 * BASE).map(|t| t ^ 1).collect();
        st.lids = s.try_bulk_load_document(&partner_of)?;
        return Ok(());
    }
    let live = st.live();
    let anchor = live[codec::u64_to_index(i * 7) % live.len()];
    match i % 4 {
        0 => {
            // Ops with i % 4 == 3 inserted an element; it is still empty
            // (nothing was inserted between its tags since), so deleting
            // both tags removes exactly that element.
            let (a, b) = st.last_pair.take().expect("op i-1 inserted a pair");
            s.try_delete(a)?;
            s.try_delete(b)?;
            st.dead.insert(a);
            st.dead.insert(b);
        }
        2 => {
            let new = s.try_insert_subtree_before(anchor, &[1, 0, 3, 2])?;
            st.lids.extend(new);
        }
        _ => {
            let (start, end) = s.try_insert_element_before(anchor)?;
            st.lids.push(start);
            st.lids.push(end);
            st.last_pair = Some((start, end));
        }
    }
    Ok(())
}

/// Run ops `0..=upto`; when `journal` is given, each op is wrapped in an
/// outer transaction scope carrying a progress meta (folded into the same
/// atomic WAL record as the scheme's own nested transaction).
pub(crate) fn run_ops<S: LabelingScheme>(
    s: &mut S,
    journal: Option<&SharedPager>,
    upto: u64,
) -> IoResult<DocState> {
    let mut st = DocState::default();
    for i in 0..=upto {
        match journal {
            Some(pager) => {
                let txn = pager.txn()?;
                apply_op(s, i, &mut st)?;
                pager.txn_meta("harness", || {
                    let mut w = boxes_core::pager::VecWriter::new();
                    w.u64(i + 1); // ops committed so far, bulk load included
                    w.into_bytes()
                });
                txn.commit();
            }
            None => apply_op(s, i, &mut st)?,
        }
    }
    Ok(st)
}

pub(crate) fn committed_ops(rec: &Recovered) -> u64 {
    rec.meta("harness")
        .map(|m| boxes_core::pager::Reader::new(m).u64())
        .unwrap_or(0)
}

/// Recover, reopen, audit, and compare against the committed-prefix oracle.
pub(crate) fn verify_recovered<S: LabelingScheme>(
    label: &str,
    target: u64,
    rec: &Recovered,
    reopen: &impl Fn(&Recovered) -> IoResult<Option<S>>,
    fresh: &impl Fn() -> S,
    audit: &impl Fn(&S) -> Result<(), String>,
) -> Result<(), String> {
    let committed = committed_ops(rec);
    if committed == 0 && rec.records == 0 {
        if rec.pager.allocated_blocks() != 0 {
            return Err(format!(
                "{label}: tick {target}: nothing committed yet recovery kept blocks"
            ));
        }
        return Ok(());
    }
    let reopened =
        reopen(rec).map_err(|e| format!("{label}: tick {target}: reopen failed: {e}"))?;
    let Some(scheme) = reopened else {
        return Err(format!(
            "{label}: tick {target}: committed state lacks the scheme meta"
        ));
    };
    audit(&scheme).map_err(|msg| format!("{label}: tick {target}: recovered audit: {msg}"))?;
    if committed == 0 {
        // The scheme's own construction record is durable but no harness op
        // committed: the recovered structure must be an intact empty scheme.
        if scheme.len() != 0 {
            return Err(format!(
                "{label}: tick {target}: no ops committed yet {} labels recovered",
                scheme.len()
            ));
        }
        return Ok(());
    }
    let mut oracle = fresh();
    let st = run_ops(&mut oracle, None, committed - 1)
        .map_err(|e| format!("{label}: tick {target}: oracle run failed: {e}"))?;
    if scheme.len() != oracle.len() {
        return Err(format!(
            "{label}: tick {target}: recovered len {} vs oracle {}",
            scheme.len(),
            oracle.len()
        ));
    }
    for lid in st.live() {
        let got = scheme.try_lookup(lid);
        let want = oracle.try_lookup(lid);
        if got != want {
            return Err(format!(
                "{label}: tick {target}: label of {lid:?} diverges: {got:?} vs oracle {want:?}"
            ));
        }
    }
    Ok(())
}

/// Sweep every crash point of the workload for one scheme configuration.
fn crash_sweep<S: LabelingScheme>(
    label: &str,
    block_size: usize,
    wal_config: WalConfig,
    seed: u64,
    build: impl Fn(SharedPager) -> S,
    reopen: impl Fn(&Recovered) -> IoResult<Option<S>>,
    audit: impl Fn(&S) -> Result<(), String>,
) -> Result<(), String> {
    let fresh = || build(Pager::new(PagerConfig::with_block_size(block_size)));
    // Pass 1: count the workload's crash points with a disarmed clock.
    let total_ticks = {
        let env = DurableEnv::new(block_size, wal_config, seed);
        let mut s = build(env.pager().clone());
        run_ops(&mut s, Some(env.pager()), OPS)
            .map_err(|e| format!("{label}: disarmed run failed: {e}"))?;
        env.clock().ticks()
    };
    if total_ticks < 20 {
        return Err(format!(
            "{label}: only {total_ticks} crash points — workload too small to be meaningful"
        ));
    }
    // Pass 2: crash at every single one of them.
    for target in 1..=total_ticks {
        let env = DurableEnv::new(block_size, wal_config, seed);
        env.clock().arm(target);
        let mut s = build(env.pager().clone());
        let outcome = run_ops(&mut s, Some(env.pager()), OPS);
        check_crashed(label, target, &env, outcome)?;
        let rec = env
            .recover()
            .map_err(|e| format!("{label}: tick {target}: recovery failed: {e}"))?;
        verify_recovered(label, target, &rec, &reopen, &fresh, &audit)?;
    }
    Ok(())
}

/// The standalone-LIDF sweep: alloc/write/free churn on a raw
/// [`Lidf<BlockPtrRecord>`], same two-pass structure as the schemes.
fn lidf_sweep(seed: u64) -> Result<(), String> {
    const BS: usize = 256;
    let run = |pager: SharedPager,
               journal: bool,
               upto: u64|
     -> IoResult<(Lidf<BlockPtrRecord>, Vec<Lid>)> {
        let mut live: Vec<Lid> = Vec::new();
        let mut l: Option<Lidf<BlockPtrRecord>> = None;
        for i in 0..=upto {
            let txn = journal.then(|| pager.txn()).transpose()?;
            match &mut l {
                None => {
                    let mut lidf = Lidf::new(pager.clone());
                    let recs: Vec<_> = (0..30u32)
                        .map(|r| BlockPtrRecord::new(BlockId(r)))
                        .collect();
                    live = lidf.bulk_append(&recs)?;
                    l = Some(lidf);
                }
                Some(lidf) => {
                    let r = codec::u64_to_index(i * 13);
                    match i % 3 {
                        0 => {
                            let victim = live.remove(r % live.len());
                            lidf.free(victim)?;
                        }
                        1 => live.push(lidf.alloc(BlockPtrRecord::new(BlockId(1000 + r as u32)))?),
                        _ => {
                            let lid = live[r % live.len()];
                            lidf.write(lid, BlockPtrRecord::new(BlockId(2000 + r as u32)))?;
                        }
                    }
                }
            }
            if let Some(txn) = txn {
                pager.txn_meta("harness", || {
                    let mut w = boxes_core::pager::VecWriter::new();
                    w.u64(i + 1);
                    w.into_bytes()
                });
                txn.commit();
            }
        }
        Ok((l.expect("op 0 builds the lidf"), live))
    };
    let total_ticks = {
        let env = DurableEnv::new(BS, WalConfig::default(), seed);
        run(env.pager().clone(), true, OPS).map_err(|e| format!("lidf: disarmed run: {e}"))?;
        env.clock().ticks()
    };
    for target in 1..=total_ticks {
        let env = DurableEnv::new(BS, WalConfig::default(), seed);
        env.clock().arm(target);
        let outcome = run(env.pager().clone(), true, OPS);
        check_crashed("lidf", target, &env, outcome)?;
        let rec = env
            .recover()
            .map_err(|e| format!("lidf: tick {target}: recovery failed: {e}"))?;
        let committed = committed_ops(&rec);
        if committed == 0 {
            continue;
        }
        let Some(lidf) = reopen_lidf::<BlockPtrRecord>(&rec) else {
            return Err(format!(
                "lidf: tick {target}: committed state lacks the lidf meta"
            ));
        };
        let report = lidf.audit();
        if !report.is_clean() {
            return Err(format!("lidf: tick {target}: recovered audit:\n{report}"));
        }
        let (oracle, live) = run(
            Pager::new(PagerConfig::with_block_size(BS)),
            false,
            committed - 1,
        )
        .map_err(|e| format!("lidf: tick {target}: oracle run failed: {e}"))?;
        if lidf.len() != oracle.len() {
            return Err(format!(
                "lidf: tick {target}: recovered len {} vs oracle {}",
                lidf.len(),
                oracle.len()
            ));
        }
        for &lid in &live {
            let (got, want) = (lidf.read(lid), oracle.read(lid));
            if got.map(|r| r.block) != want.map(|r| r.block) {
                return Err(format!(
                    "lidf: tick {target}: record {lid:?} diverges: {got:?} vs {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Negative control 1: a WAL whose final record is cut short must recover
/// cleanly *minus that record* and report the rolled-back tail.
fn torn_tail_control(seed: u64) -> Result<(), String> {
    let env = DurableEnv::new(1024, WalConfig::default(), seed);
    let mut s = WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(1024));
    run_ops(&mut s, Some(env.pager()), OPS).map_err(|e| format!("torn-tail: run failed: {e}"))?;
    let full = env.wal().durable_bytes();
    let rec = recover(&full[..full.len() - 7], env.pager().disk_image())
        .map_err(|e| format!("torn-tail: recovery failed: {e}"))?;
    if !rec.rolled_back_tail {
        return Err("torn-tail: truncated final record not reported as rolled back".into());
    }
    // OPS + 2 records were written (scheme construction + bulk load + OPS
    // harness ops); the cut final one rolls back.
    if rec.commits != OPS + 1 {
        return Err(format!(
            "torn-tail: expected {} surviving commits, got {}",
            OPS + 1,
            rec.commits
        ));
    }
    if committed_ops(&rec) != OPS {
        return Err("torn-tail: progress meta still reflects the rolled-back op".into());
    }
    let fresh = || WBoxScheme::with_block_size(1024);
    let reopen = |r: &Recovered| Ok(reopen_wbox(r, WBoxConfig::from_block_size(1024)));
    let audit = |s: &WBoxScheme| {
        let report = s.inner().audit();
        report
            .is_clean()
            .then_some(())
            .ok_or_else(|| report.to_string())
    };
    verify_recovered("torn-tail", 0, &rec, &reopen, &fresh, &audit)
}

/// Negative control 2: a bit flip inside a full-length record must fail
/// recovery loudly — never be silently rolled back or replayed.
fn corrupt_record_control(seed: u64) -> Result<(), String> {
    let env = DurableEnv::new(1024, WalConfig::default(), seed);
    let mut s = WBoxScheme::new(env.pager().clone(), WBoxConfig::from_block_size(1024));
    run_ops(&mut s, Some(env.pager()), OPS)
        .map_err(|e| format!("corrupt-record: run failed: {e}"))?;
    let mut log = env.wal().durable_bytes();
    // Deep inside the first record's body: damage that only the record
    // checksum can see. (Avoids the header length field, whose corruption
    // legitimately presents as a torn tail.)
    log[24] ^= 0x20;
    match recover(&log, env.pager().disk_image()) {
        Err(WalError::Corrupt { .. }) => Ok(()),
        Ok(_) => Err("corrupt-record: damaged log recovered without complaint".into()),
        Err(other) => Err(format!("corrupt-record: expected Corrupt, got {other}")),
    }
}

/// Run the full crash-recovery pass; prints one line per check and returns
/// overall success.
pub(crate) fn crash_recovery_lint(seed: u64) -> bool {
    let wbox_audit = |s: &WBoxScheme| {
        let report = s.inner().audit();
        report
            .is_clean()
            .then_some(())
            .ok_or_else(|| report.to_string())
    };
    let bbox_audit = |s: &BBoxScheme| {
        let report = s.inner().audit();
        report
            .is_clean()
            .then_some(())
            .ok_or_else(|| report.to_string())
    };
    // naive-k has no structural auditor; the oracle label comparison is the
    // behavioral equivalent.
    let naive_audit = |_: &NaiveScheme| Ok(());

    let checks: Vec<(&str, Result<(), String>)> = vec![
        (
            "wbox",
            crash_sweep(
                "wbox",
                1024,
                WalConfig::default(),
                seed,
                |p| WBoxScheme::new(p, WBoxConfig::from_block_size(1024)),
                |r| Ok(reopen_wbox(r, WBoxConfig::from_block_size(1024))),
                wbox_audit,
            ),
        ),
        (
            "wbox-pair/group-commit",
            crash_sweep(
                "wbox-pair/group-commit",
                1024,
                WalConfig {
                    sync_every: 3,
                    checkpoint_every: 2,
                },
                seed ^ 0x1,
                |p| WBoxScheme::new(p, WBoxConfig::from_block_size_paired(1024)),
                |r| Ok(reopen_wbox(r, WBoxConfig::from_block_size_paired(1024))),
                wbox_audit,
            ),
        ),
        (
            "bbox",
            crash_sweep(
                "bbox",
                256,
                WalConfig::default(),
                seed ^ 0x2,
                |p| BBoxScheme::new(p, BBoxConfig::from_block_size(256)),
                |r| Ok(reopen_bbox(r, BBoxConfig::from_block_size(256))),
                bbox_audit,
            ),
        ),
        (
            "naive-8",
            crash_sweep(
                "naive-8",
                256,
                WalConfig::default(),
                seed ^ 0x3,
                |p| NaiveScheme::new(p, NaiveConfig { extra_bits: 8 }),
                |r| reopen_naive(r, NaiveConfig { extra_bits: 8 }),
                naive_audit,
            ),
        ),
        ("lidf", lidf_sweep(seed ^ 0x4)),
        ("torn-tail-control", torn_tail_control(seed ^ 0x5)),
        ("corrupt-record-control", corrupt_record_control(seed ^ 0x6)),
    ];

    let mut ok = true;
    for (name, result) in checks {
        match result {
            Ok(()) => println!("  crash: {name:<40} ok"),
            Err(msg) => {
                eprintln!("  crash: {name:<40} FAILED\n{msg}");
                ok = false;
            }
        }
    }
    ok
}
