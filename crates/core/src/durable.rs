//! Crash-consistent environments: a WAL-journaled pager with deterministic
//! crash injection, plus post-recovery scheme reopening.
//!
//! This is the glue between [`boxes_wal`] and the labeling schemes:
//!
//! 1. [`DurableEnv::new`] builds a pager whose every logical operation is
//!    journaled through a [`Wal`], with a shared [`CrashClock`] ticking at
//!    every WAL append, sync barrier, checkpoint rotation and applied block
//!    write (where a hit may also *tear* the in-flight block).
//! 2. The harness runs a workload once disarmed to count crash points, then
//!    re-runs it with the clock armed at each tick. From the fired tick on
//!    the log is poisoned and block writes fail, so the pager degrades and
//!    the workload returns (usually with
//!    [`PagerError::Degraded`](boxes_pager::PagerError::Degraded)); the
//!    harness checks [`CrashClock::fired`].
//! 3. [`DurableEnv::recover`] replays the durable log over the surviving
//!    disk image, and the `reopen_*` helpers reattach each scheme to its
//!    recovered structure-state meta blob.
//!
//! Operations the schemes journal themselves (their mutators open a
//! [`TxnScope`](boxes_pager::TxnScope) internally). A harness that needs its
//! own committed-operation bookkeeping wraps each call in an *outer* scope
//! and attaches a meta blob; nested scopes fold into the same atomic WAL
//! record:
//!
//! ```ignore
//! let txn = env.pager().txn()?;
//! scheme.try_insert_element_before(anchor)?;
//! env.pager().txn_meta("harness", || encode_progress(i));
//! txn.commit();
//! ```
//!
//! The same pattern aligns the §6 cache layer with recovery: persist the
//! [`ModLog`](boxes_cache::ModLog) clock alongside each committed operation,
//! and resume with [`ModLog::with_clock`](boxes_cache::ModLog::with_clock)
//! after recovery — surviving cached references stamped at the recovered
//! clock still hit, while anything staler correctly falls back to a full
//! lookup (the effect entries died with the process).

use std::sync::Arc;

use boxes_bbox::BBoxConfig;
use boxes_lidf::{Lidf, Record};
use boxes_naive::NaiveConfig;
use boxes_pager::{IoResult, Pager, PagerConfig, SharedPager};
use boxes_wal::crashpoint::{ClockFault, CrashClock};
use boxes_wal::{Recovered, Wal, WalConfig, WalError};
use boxes_wbox::WBoxConfig;

use crate::scheme::{BBoxScheme, NaiveScheme, WBoxScheme};

/// A pager + WAL + crash clock bundle: everything a crash-injection harness
/// needs to run one (attempted) workload and recover from its remains.
pub struct DurableEnv {
    pager: SharedPager,
    wal: Arc<Wal>,
    clock: Arc<CrashClock>,
}

impl DurableEnv {
    /// Fresh journaled pager with `block_size` blocks, WAL tuning `config`,
    /// and a crash clock seeded with `seed` (disarmed: counting only).
    pub fn new(block_size: usize, config: WalConfig, seed: u64) -> Self {
        let pager = Pager::new(PagerConfig::with_block_size(block_size));
        let clock = CrashClock::new(seed);
        let wal = Wal::with_crash_clock(block_size, config, clock.clone());
        pager.attach_journal(wal.clone());
        pager.attach_fault_injector(ClockFault::new(clock.clone(), block_size));
        DurableEnv { pager, wal, clock }
    }

    /// The journaled pager; build schemes on it via their `new(pager, …)`
    /// constructors.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// The write-ahead log (stats, durable bytes).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The crash clock: run disarmed to count crash points, then `arm` one
    /// and read [`CrashClock::fired`] once the workload returns.
    pub fn clock(&self) -> &Arc<CrashClock> {
        &self.clock
    }

    /// Recover the committed state from what survives right now: the
    /// durable log bytes plus the crash-consistent disk image.
    pub fn recover(&self) -> Result<Recovered, WalError> {
        boxes_wal::recover(&self.wal.durable_bytes(), self.pager.disk_image())
    }
}

/// Reattach a W-BOX to its recovered state. `None` when the log held no
/// committed W-BOX (nothing durable: start fresh instead).
pub fn reopen_wbox(rec: &Recovered, config: WBoxConfig) -> Option<WBoxScheme> {
    Some(WBoxScheme::reopen(
        rec.pager.clone(),
        config,
        rec.meta("wbox")?,
        rec.meta("lidf")?,
    ))
}

/// Reattach a B-BOX to its recovered state. `None` when the log held no
/// committed B-BOX.
pub fn reopen_bbox(rec: &Recovered, config: BBoxConfig) -> Option<BBoxScheme> {
    Some(BBoxScheme::reopen(
        rec.pager.clone(),
        config,
        rec.meta("bbox")?,
        rec.meta("lidf")?,
    ))
}

/// Reattach a naive-k structure to its recovered state. `None` when the log
/// held no committed naive structure.
pub fn reopen_naive(rec: &Recovered, config: NaiveConfig) -> IoResult<Option<NaiveScheme>> {
    let Some(state) = rec.meta("naive") else {
        return Ok(None);
    };
    NaiveScheme::reopen(rec.pager.clone(), config, state).map(Some)
}

/// Reattach a standalone LIDF to its recovered state. `None` when the log
/// held no committed LIDF.
pub fn reopen_lidf<R: Record>(rec: &Recovered) -> Option<Lidf<R>> {
    Some(Lidf::reopen(rec.pager.clone(), rec.meta("lidf")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::LabelingScheme;
    use boxes_audit::Auditable;
    use boxes_cache::{CachedRef, Lookup, ModLog};
    use boxes_lidf::Lid;
    use boxes_pager::codec;

    const BS: usize = 256;
    /// W-BOX needs a branching parameter ≥ 6, hence bigger blocks.
    const WBS: usize = 1024;
    const SEED: u64 = 0xB0C5;

    /// Deterministic element-tag document: 2·n tags, partner pairs nested
    /// two levels deep like the scheme tests.
    fn flat_pairs(n: usize) -> Vec<usize> {
        (0..2 * n).map(|i| i ^ 1).collect()
    }

    /// One harness-journaled operation: an outer scope folding the scheme's
    /// nested transaction plus the harness progress meta into one record.
    fn journaled_op<T>(
        pager: &SharedPager,
        op_index: u64,
        modlog_ts: u64,
        op: impl FnOnce() -> IoResult<T>,
    ) -> IoResult<T> {
        let txn = pager.txn()?;
        let out = op()?;
        pager.txn_meta("harness", || {
            let mut w = boxes_pager::VecWriter::new();
            w.u64(op_index + 1); // committed op count
            w.u64(modlog_ts);
            w.into_bytes()
        });
        txn.commit();
        Ok(out)
    }

    fn decode_harness(meta: &[u8]) -> (u64, u64) {
        let mut r = boxes_pager::Reader::new(meta);
        (r.u64(), r.u64())
    }

    /// The committed-prefix oracle: replay the first `ops` operations of the
    /// same deterministic workload on a fresh unjournaled scheme.
    fn wbox_oracle(ops: u64, base: usize) -> (WBoxScheme, Vec<Lid>) {
        let mut s = WBoxScheme::with_block_size(WBS);
        let mut lids = s.bulk_load_document(&flat_pairs(base));
        for i in 0..codec::u64_to_index(ops) {
            let anchor = lids[(i * 7) % lids.len()];
            let (st, en) = s.try_insert_element_before(anchor).unwrap();
            lids.push(st);
            lids.push(en);
        }
        (s, lids)
    }

    #[test]
    fn crash_sweep_recovers_committed_prefix_with_label_agreement() {
        const BASE: usize = 12;
        const OPS: u64 = 6;
        let workload = |env: &DurableEnv| -> IoResult<()> {
            let pager = env.pager().clone();
            let mut s = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(WBS));
            let mut lids =
                journaled_op(&pager, 0, 0, || s.try_bulk_load_document(&flat_pairs(BASE)))?;
            for i in 1..=OPS {
                let anchor = lids[(codec::u64_to_index(i - 1) * 7) % lids.len()];
                let (st, en) = journaled_op(&pager, i, i, || s.try_insert_element_before(anchor))?;
                lids.push(st);
                lids.push(en);
            }
            Ok(())
        };
        // Pass 1: count crash points.
        let total_ticks = {
            let env = DurableEnv::new(WBS, WalConfig::default(), SEED);
            workload(&env).unwrap();
            env.clock().ticks()
        };
        assert!(
            total_ticks > 20,
            "workload too small for a meaningful sweep"
        );
        // Pass 2: crash at a spread of ticks (full sweeps live in xtask).
        for target in (1..=total_ticks).step_by(5) {
            let env = DurableEnv::new(WBS, WalConfig::default(), SEED);
            env.clock().arm(target);
            let outcome = workload(&env);
            assert!(env.clock().fired(), "tick {target} must crash");
            assert!(
                matches!(outcome, Ok(()) | Err(boxes_pager::PagerError::Degraded(_))),
                "tick {target}: the crash degrades the pager, got {outcome:?}"
            );
            let rec = env
                .recover()
                .unwrap_or_else(|e| panic!("tick {target}: {e}"));
            let Some((committed, _)) = rec.meta("harness").map(decode_harness) else {
                assert_eq!(
                    rec.records, 0,
                    "tick {target}: metas only vanish with the log"
                );
                continue; // crashed before the bulk load committed
            };
            let s = reopen_wbox(&rec, WBoxConfig::from_block_size(WBS))
                .unwrap_or_else(|| panic!("tick {target}: wbox meta missing"));
            let report = s.inner().audit();
            assert!(report.is_clean(), "tick {target}: {report}");
            // Label-for-label agreement with the committed-prefix oracle.
            let (oracle, lids) = wbox_oracle(committed - 1, BASE);
            assert_eq!(s.len(), oracle.len(), "tick {target}");
            for &lid in &lids {
                assert_eq!(
                    s.try_lookup(lid).unwrap(),
                    oracle.try_lookup(lid).unwrap(),
                    "tick {target}: label of {lid:?} diverges after recovery"
                );
            }
        }
    }

    #[test]
    fn recovered_modlog_clock_alignment() {
        // §6 caches after a crash: the persisted clock lets stale references
        // fall back to full lookups while the freshest one still hits.
        let env = DurableEnv::new(WBS, WalConfig::default(), SEED);
        let pager = env.pager().clone();
        let mut cached = crate::cached::CachedWBox::new(
            boxes_wbox::WBox::new(pager.clone(), WBoxConfig::from_block_size(WBS)).unwrap(),
            8,
        );
        let lids = journaled_op(&pager, 0, 0, || cached.wbox.bulk_load(40)).unwrap();
        let mut stale_ref = CachedRef::new();
        let stale_label = cached.lookup(lids[30], &mut stale_ref).unwrap();
        for i in 1..=4u64 {
            let anchor = lids[codec::u64_to_index(i) * 3];
            let ts_after = cached.log.last_modified() + 1;
            journaled_op(&pager, i, ts_after, || cached.insert_before(anchor)).unwrap();
            assert_eq!(cached.log.last_modified(), ts_after);
        }
        let mut fresh_ref = CachedRef::new();
        let fresh_label = cached.lookup(lids[30], &mut fresh_ref).unwrap();
        assert!(fresh_label > stale_label, "inserts shifted the label");

        // "Crash" (no arming needed — just abandon the in-memory state) and
        // recover; resume the mod-log at the committed clock.
        let rec = env.recover().expect("recover");
        let (committed, modlog_ts) = decode_harness(rec.meta("harness").expect("harness meta"));
        assert_eq!(committed, 5);
        let s = reopen_wbox(&rec, WBoxConfig::from_block_size(WBS)).expect("wbox meta");
        let mut resumed = crate::cached::CachedWBox::new(s.into_inner(), 8);
        resumed.log = ModLog::with_clock(8, modlog_ts);

        // The stale reference (stamped before the last committed op) must
        // not trust its cache: the effect entries died with the process.
        let wbox = &resumed.wbox;
        let got = stale_ref.resolve(&resumed.log, || wbox.lookup(lids[30]));
        assert_eq!(got, Ok(Lookup::Full(fresh_label)));
        // The freshest reference is stamped exactly at the recovered clock:
        // its cached value is committed state and may be served directly.
        assert_eq!(
            fresh_ref.resolve(&resumed.log, || -> IoResult<u64> { unreachable!() }),
            Ok(Lookup::Hit(fresh_label))
        );
        let report = resumed.audit();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn all_schemes_reopen_from_recovery() {
        // B-BOX, naive and standalone LIDF through the same door.
        let env = DurableEnv::new(BS, WalConfig::default(), SEED ^ 1);
        let pager = env.pager().clone();
        let mut b = BBoxScheme::new(pager.clone(), BBoxConfig::from_block_size(BS));
        let mut n = NaiveScheme::new(pager.clone(), NaiveConfig { extra_bits: 8 });
        let b_lids = b.bulk_load_document(&flat_pairs(10));
        let n_lids = n.bulk_load_document(&flat_pairs(10));
        b.try_insert_element_before(b_lids[7]).unwrap();
        n.try_insert_element_before(n_lids[7]).unwrap();
        let rec = env.recover().expect("recover");
        let rb = reopen_bbox(&rec, BBoxConfig::from_block_size(BS)).expect("bbox meta");
        let rn = reopen_naive(&rec, NaiveConfig { extra_bits: 8 })
            .unwrap()
            .expect("naive meta");
        let rl: Lidf<boxes_lidf::BlockPtrRecord> = reopen_lidf(&rec).expect("lidf meta");
        assert_eq!(rb.len(), 22);
        assert_eq!(rn.len(), 22);
        assert!(rb.inner().audit().is_clean());
        assert!(rl.audit().is_clean());
        for &lid in &b_lids {
            assert_eq!(rb.try_lookup(lid).unwrap(), b.try_lookup(lid).unwrap());
        }
        for &lid in &n_lids {
            assert_eq!(rn.try_lookup(lid).unwrap(), n.try_lookup(lid).unwrap());
        }
    }
}
