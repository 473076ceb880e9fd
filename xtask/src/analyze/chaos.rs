//! The chaos semantic pass: seeded faulty-disk sweeps over randomized
//! labeling workloads. Where [`crash`](super::crash) kills the process at
//! every WAL boundary, this pass runs disks that misbehave *without* dying —
//! transient and persistent `EIO`, short writes, latency stalls, silent bit
//! rot — and demands that:
//!
//! * in-budget noise is semantically invisible: every workload completes,
//!   structure audits come back clean, and every label agrees with a
//!   fault-free oracle replaying the same operations;
//! * injected bit rot is detected by the per-block checksum and repaired
//!   from the journal (`IoStats::repairs` must move), including across
//!   group-commit batches and checkpoint rotations;
//! * a write path that dies mid-workload degrades the pager to read-only
//!   exactly once — lookups keep answering committed state, mutations are
//!   rejected with a typed error, and a heal + resume re-applies the parked
//!   frames and lets the workload finish;
//! * the negative control holds: an unrepairable flip (no journal to repair
//!   from) must surface as a typed checksum fault and a degraded pager,
//!   never as a clean audit.
//!
//! Every fault plan's transcript is written to `target/chaos-transcript.txt`
//! so a failing seed can be replayed from the exact fault history.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use boxes_audit::Auditable;
use boxes_core::bbox::BBoxConfig;
use boxes_core::lidf::{BlockPtrRecord, Lid, Lidf};
use boxes_core::naive::NaiveConfig;
use boxes_core::pager::{
    codec, splitmix64, BlockId, DegradedReason, FaultPlan, FaultPlanConfig, Health, IoResult,
    IoStats, Pager, PagerConfig, PagerError, RetryPolicy, SharedPager,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{BBoxScheme, LabelingScheme, NaiveScheme, WBoxScheme};

/// Number of element pairs in the bulk-loaded base document.
const BASE: usize = 8;
/// Mutating operations after the bulk load (op indices 1..=OPS).
const OPS: u64 = 24;
/// Retry budget for every chaos pager: generous enough that independent
/// per-attempt fault rolls cannot plausibly exhaust it, so any budget
/// exhaustion under probabilistic noise is a real retry-logic bug.
const BUDGET: u32 = 8;
/// Per-65536 rate (~6 %) for the probabilistic fault cells.
const RATE: u16 = 4000;
/// Per-65536 bit-rot rate (~2 %): every hit forces a journal read-repair.
const FLIP_RATE: u16 = 1500;

/// One successfully applied workload primitive, logged by the faulty run so
/// the fault-free oracle can replay *exactly* the operations that took
/// effect (under a dying disk an op may be cut short mid-element).
#[derive(Clone, Copy)]
enum Prim {
    /// The op-0 bulk load of the `BASE`-pair base document.
    Bulk,
    /// `insert_element_before(anchor)`.
    InsertElement(Lid),
    /// `insert_subtree_before(anchor, ..)` of the fixed 2-element batch.
    InsertSubtree(Lid),
    /// `delete(lid)` of one tag.
    Delete(Lid),
}

/// Live-document bookkeeping for the seeded workload.
#[derive(Default)]
struct Doc {
    lids: Vec<Lid>,
    dead: BTreeSet<Lid>,
    last_pair: Option<(Lid, Lid)>,
}

impl Doc {
    fn live(&self) -> Vec<Lid> {
        self.lids
            .iter()
            .copied()
            .filter(|l| !self.dead.contains(l))
            .collect()
    }
}

/// Apply op `i` of the seeded workload through the fallible scheme surface.
/// The op mix (element insert / 2-element subtree insert / deletion of the
/// most recent still-empty element) and every anchor are pure functions of
/// `(seed, i)`, so a fault-free replay of the logged primitives reproduces
/// the exact same LIDF allocations and labels. `st` and `log` record only
/// the primitives that actually succeeded — on a typed error the structure
/// was left untouched by the pager's degraded-mode transaction gate.
fn drive_op<S: LabelingScheme>(
    s: &mut S,
    seed: u64,
    i: u64,
    st: &mut Doc,
    log: &mut Vec<Prim>,
) -> IoResult<()> {
    if i == 0 {
        let partner_of: Vec<usize> = (0..2 * BASE).map(|t| t ^ 1).collect();
        st.lids = s.try_bulk_load_document(&partner_of)?;
        log.push(Prim::Bulk);
        return Ok(());
    }
    let live = st.live();
    let h = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match h % 4 {
        0 if st.last_pair.is_some() => {
            let (a, b) = st.last_pair.take().expect("checked is_some");
            s.try_delete(a)?;
            st.dead.insert(a);
            log.push(Prim::Delete(a));
            s.try_delete(b)?;
            st.dead.insert(b);
            log.push(Prim::Delete(b));
        }
        1 => {
            let anchor = live[codec::u64_to_index(h >> 8) % live.len()];
            let new = s.try_insert_subtree_before(anchor, &[1, 0, 3, 2])?;
            st.lids.extend(new);
            log.push(Prim::InsertSubtree(anchor));
        }
        _ => {
            let anchor = live[codec::u64_to_index(h >> 8) % live.len()];
            let (start, end) = s.try_insert_element_before(anchor)?;
            st.lids.push(start);
            st.lids.push(end);
            st.last_pair = Some((start, end));
            log.push(Prim::InsertElement(anchor));
        }
    }
    Ok(())
}

/// Replay logged primitives on a fault-free scheme. Anchors are replayed by
/// Lid: allocation order is deterministic, so the oracle mints the same Lids
/// the faulty run did.
fn replay<S: LabelingScheme>(s: &mut S, log: &[Prim]) -> IoResult<()> {
    for p in log {
        match *p {
            Prim::Bulk => {
                let partner_of: Vec<usize> = (0..2 * BASE).map(|t| t ^ 1).collect();
                s.try_bulk_load_document(&partner_of)?;
            }
            Prim::InsertElement(anchor) => {
                s.try_insert_element_before(anchor)?;
            }
            Prim::InsertSubtree(anchor) => {
                s.try_insert_subtree_before(anchor, &[1, 0, 3, 2])?;
            }
            Prim::Delete(lid) => s.try_delete(lid)?,
        }
    }
    Ok(())
}

/// Audit the faulty-run scheme and compare it label-for-label against a
/// fault-free oracle that replays the successful-primitive log.
fn verify_against_oracle<S: LabelingScheme>(
    label: &str,
    s: &S,
    st: &Doc,
    log: &[Prim],
    fresh: impl FnOnce() -> S,
    audit: &impl Fn(&S) -> Result<(), String>,
) -> Result<(), String> {
    audit(s).map_err(|msg| format!("{label}: audit under faults: {msg}"))?;
    let mut oracle = fresh();
    replay(&mut oracle, log).map_err(|e| format!("{label}: fault-free oracle replay: {e}"))?;
    if s.len() != oracle.len() {
        return Err(format!(
            "{label}: len {} vs fault-free oracle {}",
            s.len(),
            oracle.len()
        ));
    }
    for lid in st.live() {
        let got = s
            .try_lookup(lid)
            .map_err(|e| format!("{label}: lookup of {lid:?} under faults: {e}"))?;
        let want = oracle
            .try_lookup(lid)
            .map_err(|e| format!("{label}: oracle lookup of {lid:?}: {e}"))?;
        if got != want {
            return Err(format!(
                "{label}: label of {lid:?} diverges under faults: {got:?} vs oracle {want:?}"
            ));
        }
    }
    Ok(())
}

/// One chaos scenario's fixed parameters.
#[derive(Clone, Copy)]
struct Setup<'a> {
    label: &'a str,
    block_size: usize,
    wal: WalConfig,
    cfg: FaultPlanConfig,
    /// Workload seed (independent of the fault plan's `cfg.seed`).
    seed: u64,
}

/// Journaled pager + attached fault plan, retry budget raised to `BUDGET`.
fn chaos_pager(setup: &Setup<'_>) -> (SharedPager, Arc<FaultPlan>) {
    let pager = Pager::new(PagerConfig::with_block_size(setup.block_size));
    let wal = Wal::new(setup.block_size, setup.wal);
    pager.attach_journal(wal);
    let plan = FaultPlan::new(setup.cfg);
    pager.attach_fault_injector(plan.clone());
    pager.set_retry_policy(RetryPolicy {
        budget: BUDGET,
        ..RetryPolicy::default()
    });
    (pager, plan)
}

/// Append one scenario's fault-plan transcript section.
fn append_transcript(t: &mut String, label: &str, plan: &FaultPlan) {
    let _ = writeln!(t, "## {label}: {} fault(s) injected", plan.injected());
    for e in plan.events() {
        let _ = writeln!(t, "{e}");
    }
    let _ = writeln!(t);
}

/// Run the full workload under a probabilistic (in-budget) fault plan and
/// demand the faults were both *real* (the plan injected, the expected
/// `IoStats` counter moved) and *invisible* (no degradation, clean audits,
/// oracle agreement).
///
/// A probabilistic plan can legitimately roll a run where the cell's fault
/// kind never fires (the workload only issues so many attempts), so derived
/// plan seeds are tried until the expected counter moves — the correctness
/// assertions stay hard on every attempt; only the vacuity retry is soft.
fn noisy_one<S: LabelingScheme>(
    setup: Setup<'_>,
    build: impl Fn(SharedPager) -> S,
    audit: impl Fn(&S) -> Result<(), String>,
    stat_check: impl Fn(IoStats) -> Result<(), String>,
    transcript: &mut String,
) -> Result<(), String> {
    let label = setup.label;
    let mut last_miss = String::new();
    for derivation in 0..8u64 {
        let mut attempt = setup;
        attempt.cfg.seed = setup
            .cfg
            .seed
            .wrapping_add(derivation.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (pager, plan) = chaos_pager(&attempt);
        let mut s = build(pager.clone());
        let mut st = Doc::default();
        let mut log = Vec::new();
        for i in 0..=OPS {
            drive_op(&mut s, attempt.seed, i, &mut st, &mut log)
                .map_err(|e| format!("{label}: op {i} failed under in-budget noise: {e}"))?;
        }
        if !pager.health().is_ok() || pager.degraded_entries() != 0 {
            return Err(format!(
                "{label}: in-budget noise must never degrade the pager (health {:?})",
                pager.health()
            ));
        }
        let fresh = || build(Pager::new(PagerConfig::with_block_size(attempt.block_size)));
        verify_against_oracle(label, &s, &st, &log, fresh, &audit)?;
        if plan.injected() > 0 {
            if let Err(miss) = stat_check(pager.stats()) {
                last_miss = miss;
                continue;
            }
            append_transcript(transcript, label, &plan);
            return Ok(());
        }
        last_miss = "the plan injected nothing".into();
    }
    Err(format!(
        "{label}: vacuous across 8 derived plan seeds — {last_miss}"
    ))
}

/// Assert one `IoStats` counter moved — proof the scenario exercised the
/// pager response it was built for.
#[must_use = "the returned check must be handed to a scenario runner"]
fn moved(
    what: &'static str,
    get: impl Fn(IoStats) -> u64,
) -> impl Fn(IoStats) -> Result<(), String> {
    move |stats| {
        if get(stats) > 0 {
            Ok(())
        } else {
            Err(format!("expected {what} > 0, stats {stats:?}"))
        }
    }
}

fn wbox_audit(s: &WBoxScheme) -> Result<(), String> {
    let report = s.inner().audit();
    report
        .is_clean()
        .then_some(())
        .ok_or_else(|| report.to_string())
}

fn bbox_audit(s: &BBoxScheme) -> Result<(), String> {
    let report = s.inner().audit();
    report
        .is_clean()
        .then_some(())
        .ok_or_else(|| report.to_string())
}

/// The fault site × kind grid on W-BOX: one cell per taxonomy row, plus a
/// mixed cell, each asserting the matching pager response fired.
fn grid(seed: u64, transcript: &mut String) -> Result<(), String> {
    const WBS: usize = 1024;
    let cell = |label: &'static str,
                plan_seed: u64,
                tweak: &dyn Fn(&mut FaultPlanConfig),
                check: &dyn Fn(IoStats) -> Result<(), String>,
                transcript: &mut String|
     -> Result<(), String> {
        let mut cfg = FaultPlanConfig::quiet(plan_seed, WBS);
        tweak(&mut cfg);
        noisy_one(
            Setup {
                label,
                block_size: WBS,
                wal: WalConfig::default(),
                cfg,
                seed: plan_seed ^ 0xD0C,
            },
            |p| WBoxScheme::new(p, WBoxConfig::from_block_size(WBS)),
            wbox_audit,
            check,
            transcript,
        )
    };
    cell(
        "grid/read-transient",
        seed ^ 0x21,
        &|c| {
            c.read_error_rate = RATE;
            c.transient_streak = 3;
        },
        &moved("retries", |s| s.retries),
        transcript,
    )?;
    cell(
        "grid/write-transient",
        seed ^ 0x22,
        &|c| {
            c.write_error_rate = RATE;
            c.transient_streak = 3;
        },
        &moved("retries", |s| s.retries),
        transcript,
    )?;
    cell(
        "grid/write-short",
        seed ^ 0x23,
        &|c| c.short_write_rate = RATE,
        &moved("retries", |s| s.retries),
        transcript,
    )?;
    cell(
        "grid/latency-both-sites",
        seed ^ 0x24,
        &|c| c.latency_rate = RATE,
        &moved("backoff_ticks", |s| s.backoff_ticks),
        transcript,
    )?;
    cell(
        "grid/read-bit-flip",
        seed ^ 0x25,
        &|c| c.bit_flip_rate = FLIP_RATE,
        &moved("repairs", |s| s.repairs),
        transcript,
    )?;
    cell(
        "grid/mixed",
        seed ^ 0x26,
        &|c| {
            c.read_error_rate = RATE;
            c.write_error_rate = RATE;
            c.short_write_rate = RATE / 2;
            c.latency_rate = RATE / 2;
            c.bit_flip_rate = FLIP_RATE;
            c.transient_streak = 2;
        },
        &|stats| {
            moved("retries", |s: IoStats| s.retries)(stats)?;
            moved("repairs", |s: IoStats| s.repairs)(stats)
        },
        transcript,
    )
}

/// The mixed-noise plan on the remaining schemes (the grid covered W-BOX).
fn all_schemes_mixed(seed: u64, transcript: &mut String) -> Result<(), String> {
    let mixed = |plan_seed: u64, block_size: usize| {
        let mut cfg = FaultPlanConfig::quiet(plan_seed, block_size);
        cfg.read_error_rate = RATE;
        cfg.write_error_rate = RATE;
        cfg.short_write_rate = RATE / 2;
        cfg.latency_rate = RATE / 2;
        cfg.bit_flip_rate = FLIP_RATE;
        cfg.transient_streak = 2;
        cfg
    };
    noisy_one(
        Setup {
            label: "mixed/wbox-pair",
            block_size: 1024,
            wal: WalConfig::default(),
            cfg: mixed(seed ^ 0x31, 1024),
            seed: seed ^ 0x41,
        },
        |p| WBoxScheme::new(p, WBoxConfig::from_block_size_paired(1024)),
        wbox_audit,
        moved("retries", |s| s.retries),
        transcript,
    )?;
    noisy_one(
        Setup {
            label: "mixed/bbox",
            block_size: 256,
            wal: WalConfig::default(),
            cfg: mixed(seed ^ 0x32, 256),
            seed: seed ^ 0x42,
        },
        |p| BBoxScheme::new(p, BBoxConfig::from_block_size(256)),
        bbox_audit,
        moved("retries", |s| s.retries),
        transcript,
    )?;
    // naive-k has no structural auditor; the oracle comparison is the
    // behavioral equivalent.
    noisy_one(
        Setup {
            label: "mixed/naive-8",
            block_size: 256,
            wal: WalConfig::default(),
            cfg: mixed(seed ^ 0x33, 256),
            seed: seed ^ 0x43,
        },
        |p| NaiveScheme::new(p, NaiveConfig { extra_bits: 8 }),
        |_| Ok(()),
        moved("retries", |s| s.retries),
        transcript,
    )
}

/// Bit rot under group commit + checkpoint rotation: repairs must come from
/// checkpoint images + redo replay, not just the tail of a never-rotated
/// log.
fn checkpointed_bit_rot(seed: u64, transcript: &mut String) -> Result<(), String> {
    let mut cfg = FaultPlanConfig::quiet(seed ^ 0x51, 1024);
    cfg.bit_flip_rate = FLIP_RATE * 2;
    noisy_one(
        Setup {
            label: "bit-rot/group-commit+checkpoints",
            block_size: 1024,
            wal: WalConfig {
                sync_every: 3,
                checkpoint_every: 2,
            },
            cfg,
            seed: seed ^ 0x52,
        },
        |p| WBoxScheme::new(p, WBoxConfig::from_block_size_paired(1024)),
        wbox_audit,
        moved("repairs", |s| s.repairs),
        transcript,
    )
}

/// Kill the write path mid-workload: the pager must degrade to read-only
/// exactly once, keep answering committed labels, reject every further
/// mutation with a typed error, and fully resume after heal + `try_resume`.
fn degraded_scenario<S: LabelingScheme>(
    setup: Setup<'_>,
    build: impl Fn(SharedPager) -> S,
    audit: impl Fn(&S) -> Result<(), String>,
    transcript: &mut String,
) -> Result<(), String> {
    const HALF: u64 = OPS / 2;
    let label = setup.label;
    let (pager, plan) = chaos_pager(&setup);
    let mut s = build(pager.clone());
    let mut st = Doc::default();
    let mut log = Vec::new();
    for i in 0..=HALF {
        drive_op(&mut s, setup.seed, i, &mut st, &mut log)
            .map_err(|e| format!("{label}: healthy op {i} failed: {e}"))?;
    }
    plan.fail_all_writes_after(0);
    // The op whose commit first hits the dead write path still returns Ok —
    // its record is durable and its frames are parked in the overlay. Every
    // op after that must be rejected up front with the typed reason.
    let mut rejected = 0u64;
    for i in HALF + 1..=OPS {
        match drive_op(&mut s, setup.seed, i, &mut st, &mut log) {
            Ok(()) => {}
            Err(PagerError::Degraded(DegradedReason::WriteFault { .. })) => rejected += 1,
            Err(other) => {
                return Err(format!(
                    "{label}: op {i}: expected a WriteFault rejection, got {other}"
                ));
            }
        }
    }
    match pager.health() {
        Health::Degraded(DegradedReason::WriteFault { .. }) => {}
        h => {
            return Err(format!(
                "{label}: write-path death did not degrade the pager (health {h:?})"
            ));
        }
    }
    if pager.degraded_entries() != 1 {
        return Err(format!(
            "{label}: degraded entered {} times, expected exactly once",
            pager.degraded_entries()
        ));
    }
    if rejected == 0 {
        return Err(format!(
            "{label}: every op kept succeeding with a dead write path"
        ));
    }
    // Read service while degraded: audits clean, every committed label
    // answered and agreeing with the fault-free oracle.
    audit(&s).map_err(|msg| format!("{label}: degraded audit: {msg}"))?;
    let fresh = || build(Pager::new(PagerConfig::with_block_size(setup.block_size)));
    let mut oracle = fresh();
    replay(&mut oracle, &log).map_err(|e| format!("{label}: fault-free oracle replay: {e}"))?;
    for lid in st.live() {
        let got = s
            .try_lookup(lid)
            .map_err(|e| format!("{label}: degraded lookup of {lid:?} failed: {e}"))?;
        let want = oracle
            .try_lookup(lid)
            .map_err(|e| format!("{label}: oracle lookup of {lid:?}: {e}"))?;
        if got != want {
            return Err(format!(
                "{label}: degraded label of {lid:?} diverges: {got:?} vs oracle {want:?}"
            ));
        }
    }
    // Disk replaced: parked frames re-apply, mutations resume, and the
    // finished workload still agrees with the oracle end to end.
    plan.heal();
    pager
        .try_resume()
        .map_err(|e| format!("{label}: resume after heal failed: {e}"))?;
    if !pager.health().is_ok() {
        return Err(format!("{label}: still degraded after a clean resume"));
    }
    for i in OPS + 1..=OPS + 6 {
        drive_op(&mut s, setup.seed, i, &mut st, &mut log)
            .map_err(|e| format!("{label}: post-resume op {i} failed: {e}"))?;
    }
    if pager.degraded_entries() != 1 {
        return Err(format!("{label}: resume re-entered degraded mode"));
    }
    append_transcript(transcript, label, &plan);
    verify_against_oracle(label, &s, &st, &log, fresh, &audit)
}

/// The standalone-LIDF degraded drill: allocation churn, write-path death,
/// read service, typed rejections, heal + resume.
fn lidf_degraded(seed: u64, transcript: &mut String) -> Result<(), String> {
    const BS: usize = 256;
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let plan = FaultPlan::new(FaultPlanConfig::quiet(seed, BS));
    pager.attach_fault_injector(plan.clone());
    let mut l: Lidf<BlockPtrRecord> = Lidf::new(pager.clone());
    let mut lids = Vec::new();
    for i in 0..12u32 {
        let lid = l
            .alloc(BlockPtrRecord::new(BlockId(100 + i)))
            .map_err(|e| format!("lidf: healthy alloc {i} failed: {e}"))?;
        lids.push(lid);
    }
    plan.fail_all_writes_after(0);
    match l.write(lids[0], BlockPtrRecord::new(BlockId(999))) {
        Err(PagerError::Degraded(DegradedReason::WriteFault { .. })) => {}
        other => {
            return Err(format!(
                "lidf: write on a dead disk must degrade, got {other:?}"
            ));
        }
    }
    if pager.health().is_ok() || pager.degraded_entries() != 1 {
        return Err("lidf: write-path death did not degrade the pager".into());
    }
    // Reads keep answering; untouched records still hold their values.
    for (i, &lid) in lids.iter().enumerate().skip(1) {
        let got = l
            .read(lid)
            .map_err(|e| format!("lidf: degraded read of {lid:?} failed: {e}"))?;
        if got.block != BlockId(100 + codec::usize_to_u32(i).unwrap_or(u32::MAX)) {
            return Err(format!("lidf: degraded read of {lid:?} returned {got:?}"));
        }
    }
    if !matches!(
        l.alloc(BlockPtrRecord::new(BlockId(7))),
        Err(PagerError::Degraded(_))
    ) || !matches!(l.free(lids[1]), Err(PagerError::Degraded(_)))
    {
        return Err("lidf: degraded mutations must be rejected with the typed reason".into());
    }
    plan.heal();
    pager
        .try_resume()
        .map_err(|e| format!("lidf: resume after heal failed: {e}"))?;
    l.write(lids[0], BlockPtrRecord::new(BlockId(999)))
        .map_err(|e| format!("lidf: post-resume write failed: {e}"))?;
    let report = l.audit();
    if !report.is_clean() {
        return Err(format!("lidf: post-resume audit: {report}"));
    }
    append_transcript(transcript, "lidf/degraded", &plan);
    Ok(())
}

/// Negative control: a flipped byte with *no* journal to repair from must be
/// detected loudly — a typed checksum fault and an `Unrepairable` degraded
/// pager — and must never pass a structure audit as clean.
fn unrepairable_flip_control(seed: u64, transcript: &mut String) -> Result<(), String> {
    const WBS: usize = 1024;
    let pager = Pager::new(PagerConfig::with_block_size(WBS));
    let mut s = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(WBS));
    let partner_of: Vec<usize> = (0..2 * BASE).map(|t| t ^ 1).collect();
    s.try_bulk_load_document(&partner_of)
        .map_err(|e| format!("flip-control: healthy bulk load failed: {e}"))?;
    // Pick a seeded victim among the allocated blocks and rot one bit
    // behind the pager's back.
    let mut victims = Vec::new();
    let mut raw = 0u32;
    while victims.len() < pager.allocated_blocks() && raw < 100_000 {
        if pager.is_allocated(BlockId(raw)) {
            victims.push(BlockId(raw));
        }
        raw += 1;
    }
    if victims.is_empty() {
        return Err("flip-control: bulk load allocated no blocks".into());
    }
    let victim = victims[codec::u64_to_index(splitmix64(seed)) % victims.len()];
    let offset = codec::u64_to_index(splitmix64(seed ^ 1)) % WBS;
    let mask = 1u8 << (splitmix64(seed ^ 2) & 7);
    pager.corrupt_block(victim, offset, mask);
    let _ = writeln!(
        transcript,
        "## flip-control: planted unrepairable flip at {victim:?} offset {offset} mask {mask:#04x}\n"
    );
    match pager.read(victim) {
        Err(PagerError::Corrupt { block }) if block == victim => {}
        other => {
            return Err(format!(
                "flip-control: read of the rotted block must fail typed, got {other:?}"
            ));
        }
    }
    match pager.health() {
        Health::Degraded(DegradedReason::Unrepairable { block }) if block == victim => {}
        h => {
            return Err(format!(
                "flip-control: expected Unrepairable degradation, health {h:?}"
            ));
        }
    }
    // The louder end-to-end form: a full structure audit over the damaged
    // store must not come back clean.
    if s.inner().audit().is_clean() {
        return Err(
            "flip-control: unrepairable flip audited CLEAN — corruption passed undetected".into(),
        );
    }
    Ok(())
}

/// Run the full chaos pass; prints one line per scenario, writes the
/// fault-plan transcript artifact, and returns overall success.
pub(crate) fn chaos_lint(seed: u64, root: &Path) -> bool {
    let mut transcript = format!("# chaos fault-plan transcript (seed {seed:#x})\n\n");
    let mut checks: Vec<(&str, Result<(), String>)> = Vec::new();
    let r = grid(seed, &mut transcript);
    checks.push(("site-kind grid (wbox)", r));
    let r = all_schemes_mixed(seed ^ 0x100, &mut transcript);
    checks.push(("mixed noise (all schemes)", r));
    let r = checkpointed_bit_rot(seed ^ 0x200, &mut transcript);
    checks.push(("bit-rot repair across checkpoints", r));
    let r = degraded_scenario(
        Setup {
            label: "degraded/wbox",
            block_size: 1024,
            wal: WalConfig::default(),
            cfg: FaultPlanConfig::quiet(seed ^ 0x301, 1024),
            seed: seed ^ 0x311,
        },
        |p| WBoxScheme::new(p, WBoxConfig::from_block_size(1024)),
        wbox_audit,
        &mut transcript,
    );
    checks.push(("degraded read-only (wbox)", r));
    let r = degraded_scenario(
        Setup {
            label: "degraded/wbox-pair",
            block_size: 1024,
            wal: WalConfig::default(),
            cfg: FaultPlanConfig::quiet(seed ^ 0x302, 1024),
            seed: seed ^ 0x312,
        },
        |p| WBoxScheme::new(p, WBoxConfig::from_block_size_paired(1024)),
        wbox_audit,
        &mut transcript,
    );
    checks.push(("degraded read-only (wbox-pair)", r));
    let r = degraded_scenario(
        Setup {
            label: "degraded/bbox",
            block_size: 256,
            wal: WalConfig::default(),
            cfg: FaultPlanConfig::quiet(seed ^ 0x303, 256),
            seed: seed ^ 0x313,
        },
        |p| BBoxScheme::new(p, BBoxConfig::from_block_size(256)),
        bbox_audit,
        &mut transcript,
    );
    checks.push(("degraded read-only (bbox)", r));
    let r = degraded_scenario(
        Setup {
            label: "degraded/naive-8",
            block_size: 256,
            wal: WalConfig::default(),
            cfg: FaultPlanConfig::quiet(seed ^ 0x304, 256),
            seed: seed ^ 0x314,
        },
        |p| NaiveScheme::new(p, NaiveConfig { extra_bits: 8 }),
        |_| Ok(()),
        &mut transcript,
    );
    checks.push(("degraded read-only (naive-8)", r));
    let r = lidf_degraded(seed ^ 0x400, &mut transcript);
    checks.push(("degraded read-only (lidf)", r));
    let r = unrepairable_flip_control(seed ^ 0x500, &mut transcript);
    checks.push(("unrepairable-flip control", r));

    let mut ok = true;
    for (name, result) in checks {
        match result {
            Ok(()) => println!("  chaos: {name:<40} ok"),
            Err(msg) => {
                eprintln!("  chaos: {name:<40} FAILED\n{msg}");
                ok = false;
            }
        }
    }

    let dir = root.join("target");
    let path = dir.join("chaos-transcript.txt");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &transcript)) {
        Ok(()) => println!("  chaos: transcript written to {}", path.display()),
        Err(e) => {
            eprintln!(
                "  chaos: could not write transcript {}: {e}",
                path.display()
            );
            ok = false;
        }
    }
    ok
}
