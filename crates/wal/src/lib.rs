#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::as_conversions,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::mem_forget,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
//! Crash-consistent durability for the BOXes storage stack.
//!
//! The paper measures *maintenance* of order labels under updates; this
//! crate makes that maintenance survive process death. It implements the
//! pager's [`Journal`](boxes_pager::Journal) hook as a physical write-ahead
//! log ([`Wal`]): every logical operation's dirty blocks arrive as one
//! [`TxnRecord`](boxes_pager::TxnRecord) (a W-BOX respace or B-BOX rip is
//! one atomic record, however many blocks it rewrites), are encoded as
//! checksummed frames of `{block id, after-image}` ([`frame`]), and are
//! made durable at explicit sync barriers before the pager applies anything
//! to the backend — the write-ahead invariant. Nothing uncommitted ever
//! reaches the backend (no-steal), so recovery is redo-only and the log
//! carries no before-images.
//!
//! [`crashpoint`] provides deterministic seeded crash injection at every
//! WAL/page write boundary (including torn block writes), and [`recover`]
//! replays the durable log over the surviving
//! [`DiskImage`](boxes_pager::DiskImage): redo of committed records,
//! rollback of the torn tail, loud failure on corruption, and a final
//! checksum audit so no torn page survives silently.

/// Deterministic seeded crash injection: the tick clock and fault injector.
pub mod crashpoint;
/// Checksummed WAL record encoding and the incremental decoder.
pub mod frame;
mod log;
mod recover;
/// Read-repair: latest durable block images folded from the log.
pub mod repair;
/// Where the log bytes live: in-memory and file-backed byte stores.
pub mod store;

pub use frame::WalError;
pub use log::{Wal, WalConfig, WalStats};
pub use recover::{recover, Recovered};
pub use store::{FileLogStore, LogStore, MemLogStore, StoreError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crashpoint::{ClockFault, CrashClock};
    use boxes_pager::{
        BlockId, DegradedReason, Health, IoResult, Pager, PagerConfig, PagerError, SharedPager,
    };
    use std::sync::Arc;

    const BS: usize = 64;

    fn journaled_pager(config: WalConfig) -> (SharedPager, Arc<Wal>) {
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let wal = Wal::new(BS, config);
        pager.attach_journal(wal.clone());
        (pager, wal)
    }

    /// Run `ops` journaled operations, each writing a recognizable pattern.
    fn run_ops(pager: &SharedPager, ops: u8) -> IoResult<Vec<BlockId>> {
        let mut ids = Vec::new();
        for i in 0..ops {
            let txn = pager.txn()?;
            let id = pager.alloc()?;
            pager.write(id, &[i + 1; BS])?;
            pager.txn_meta("test", || vec![i]);
            txn.commit();
            ids.push(id);
        }
        Ok(ids)
    }

    #[test]
    fn recover_replays_committed_operations() {
        let (pager, wal) = journaled_pager(WalConfig::default());
        let ids = run_ops(&pager, 3).unwrap();
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 3);
        assert!(!recovered.rolled_back_tail);
        assert_eq!(recovered.meta("test"), Some(&[2u8][..]));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1
            );
        }
    }

    #[test]
    fn empty_log_recovers_to_empty_database() {
        let (pager, wal) = journaled_pager(WalConfig::default());
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 0);
        assert_eq!(recovered.pager.allocated_blocks(), 0);
    }

    #[test]
    fn truncated_tail_record_is_rolled_back() {
        let (pager, wal) = journaled_pager(WalConfig::default());
        run_ops(&pager, 3).unwrap();
        let full = wal.durable_bytes();
        // Cut into the last record: recovery must keep exactly 2 commits.
        let cut = full.len() - 7;
        let recovered = recover(&full[..cut], pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 2);
        assert!(recovered.rolled_back_tail);
        // The rolled-back op's block is past the committed length: gone.
        assert_eq!(recovered.pager.allocated_blocks(), 2);
    }

    #[test]
    fn corrupted_record_fails_recovery_loudly() {
        let (pager, wal) = journaled_pager(WalConfig::default());
        run_ops(&pager, 3).unwrap();
        let mut log = wal.durable_bytes();
        let mid = log.len() / 2;
        log[mid] ^= 0x10;
        match recover(&log, pager.disk_image()) {
            Err(WalError::Corrupt { .. }) => {}
            Ok(_) => panic!("corrupted log must not recover"),
            Err(other) => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn explicit_barriers_are_counted_separately_from_syncs() {
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 4,
            checkpoint_every: 0,
        });
        run_ops(&pager, 2).unwrap(); // both deferred: no sync yet
        assert_eq!(wal.stats().barriers, 0);
        assert!(pager.publish_barrier(), "overlay was dirty");
        let stats = wal.stats();
        assert_eq!(stats.barriers, 1, "one explicit barrier request");
        assert_eq!(stats.syncs, 1, "the barrier forced exactly one fsync");
        // An idle barrier is counted as a request but needs no fsync.
        assert!(!pager.publish_barrier(), "nothing left to publish");
        let stats = wal.stats();
        assert_eq!(stats.barriers, 2);
        assert_eq!(stats.syncs, 1);
    }

    #[test]
    fn group_commit_loses_at_most_the_unsynced_batch() {
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 4,
            checkpoint_every: 0,
        });
        run_ops(&pager, 6).unwrap(); // one sync at op 4; ops 5,6 pending
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 4, "unsynced tail ops lost consistently");
        assert_eq!(recovered.pager.allocated_blocks(), 4);
        assert_eq!(wal.stats().syncs, 1);
    }

    #[test]
    fn publish_barrier_syncs_the_pending_tail() {
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 4,
            checkpoint_every: 0,
        });
        run_ops(&pager, 2).unwrap(); // both commits pending, nothing durable yet
        assert_eq!(pager.published_epoch(), 0);
        assert!(pager.publish_barrier(), "pending tail forces a real fsync");
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(pager.published_epoch(), 1);
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 2, "barrier made both commits durable");
        // Idempotent: an already-synced log charges no second fsync.
        assert!(!pager.publish_barrier(), "nothing left to publish");
        assert_eq!(wal.stats().syncs, 1);
    }

    #[test]
    fn checkpoint_truncates_log_and_preserves_state() {
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 1,
            checkpoint_every: 4,
        });
        let ids = run_ops(&pager, 9).unwrap();
        assert_eq!(wal.stats().checkpoints, 2);
        let log = wal.durable_bytes();
        let recovered = recover(&log, pager.disk_image()).expect("recover");
        // Commits since the last checkpoint only — state comes from the
        // checkpoint's meta fold plus the one trailing record.
        assert_eq!(recovered.commits, 1);
        assert_eq!(recovered.meta("test"), Some(&[8u8][..]));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1,
                "pre-checkpoint data reachable through the surviving image"
            );
        }
    }

    #[test]
    fn checkpoint_only_log_recovers_full_state() {
        // 8 ops with checkpoint_every = 4: the second checkpoint rotates
        // the log down to a single checkpoint record. Crashing right there
        // must recover everything from the image + meta fold, not return an
        // empty database.
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 1,
            checkpoint_every: 4,
        });
        let ids = run_ops(&pager, 8).unwrap();
        assert_eq!(wal.stats().checkpoints, 2);
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 0, "no commit records since rotation");
        assert_eq!(recovered.records, 1, "the checkpoint record itself");
        assert_eq!(recovered.pager.allocated_blocks(), 8);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1
            );
        }
    }

    #[test]
    fn bit_rot_is_read_repaired_across_checkpoints() {
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 1,
            checkpoint_every: 2,
        });
        let ids = run_ops(&pager, 5).unwrap();
        assert_eq!(wal.stats().checkpoints, 2);
        // Rot a block whose commit record was rotated away: its only repair
        // source is the image the checkpoint carried forward.
        pager.corrupt_block(ids[0], 3, 0x20);
        assert_eq!(
            pager.read(ids[0]).unwrap()[0],
            1,
            "repaired, not wrong or fatal"
        );
        assert_eq!(pager.stats().repairs, 1);
        assert!(pager.health().is_ok());
        // The rewrite fixed the media in place: the next read is clean.
        assert_eq!(pager.read(ids[0]).unwrap()[0], 1);
        assert_eq!(pager.stats().repairs, 1, "no second repair needed");
    }

    #[test]
    fn checkpoint_rotated_log_still_recovers_after_tail_corruption() {
        // The negative control's complement: checkpoint images make the log
        // self-contained, so recovery from just the rotated log plus a
        // *zeroed* backend reproduces every label-carrying block.
        let (pager, wal) = journaled_pager(WalConfig {
            sync_every: 1,
            checkpoint_every: 4,
        });
        let ids = run_ops(&pager, 4).unwrap();
        let blank = Pager::new(PagerConfig::with_block_size(BS));
        for _ in 0..ids.len() {
            blank.alloc().unwrap();
        }
        let recovered = recover(&wal.durable_bytes(), blank.disk_image()).expect("recover");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1,
                "checkpoint images replay onto a blank disk"
            );
        }
    }

    #[test]
    fn crash_clock_sweep_never_loses_committed_ops() {
        // Count crash points of a fixed workload, then crash at each one
        // and verify recovery yields a committed prefix.
        let total_ticks = {
            let pager = Pager::new(PagerConfig::with_block_size(BS));
            let clock = CrashClock::new(99);
            let wal = Wal::with_crash_clock(BS, WalConfig::default(), clock.clone());
            pager.attach_journal(wal);
            pager.attach_fault_injector(ClockFault::new(clock.clone(), BS));
            run_ops(&pager, 4).unwrap();
            clock.ticks()
        };
        assert!(total_ticks > 8, "workload must cross many crash points");
        for target in 1..=total_ticks {
            let pager = Pager::new(PagerConfig::with_block_size(BS));
            let clock = CrashClock::new(99);
            let wal = Wal::with_crash_clock(BS, WalConfig::default(), clock.clone());
            pager.attach_journal(wal.clone());
            pager.attach_fault_injector(ClockFault::new(clock.clone(), BS));
            clock.arm(target);
            let outcome = run_ops(&pager, 4);
            assert!(clock.fired(), "tick {target} must crash");
            assert!(
                matches!(outcome, Ok(_) | Err(PagerError::Degraded(_))),
                "tick {target}: the crash degrades the pager, got {outcome:?}"
            );
            let recovered =
                recover(&wal.durable_bytes(), pager.disk_image()).expect("recovery clean");
            assert!(recovered.commits <= 4);
            assert_eq!(
                recovered.pager.allocated_blocks(),
                usize::try_from(recovered.commits).expect("small"),
                "tick {target}: exactly the committed ops' blocks survive"
            );
            for i in 0..recovered.commits {
                let id = BlockId(u32::try_from(i).expect("small"));
                assert_eq!(
                    recovered.pager.read(id).unwrap()[0],
                    u8::try_from(i).expect("small") + 1,
                    "tick {target}: committed op {i} intact"
                );
            }
        }
    }

    #[test]
    fn crash_at_an_apply_write_parks_the_rest_and_degrades() {
        let (mut torn, mut clean) = (0, 0);
        for seed in 0..8 {
            let pager = Pager::new(PagerConfig::with_block_size(BS));
            let clock = CrashClock::new(seed);
            pager.attach_journal(Wal::with_crash_clock(
                BS,
                WalConfig::default(),
                clock.clone(),
            ));
            pager.attach_fault_injector(ClockFault::new(clock.clone(), BS));
            let txn = pager.txn().unwrap();
            let (a, b) = (pager.alloc().unwrap(), pager.alloc().unwrap());
            pager.write(a, &[1; BS]).unwrap();
            pager.write(b, &[2; BS]).unwrap();
            txn.commit();
            // The next commit ticks at its append, its sync and its two
            // applied block writes: crash at the second block write.
            clock.arm(4);
            let txn = pager.txn().unwrap();
            pager.write(a, &[11; BS]).unwrap();
            pager.write(b, &[12; BS]).unwrap();
            txn.commit();
            assert_eq!(
                pager.health(),
                Health::Degraded(DegradedReason::WriteFault { block: b })
            );
            let image = pager.disk_image();
            let first = image.blocks[a.index()].as_ref().expect("allocated");
            assert!(first.intact());
            assert_eq!(first.data[..], [11; BS], "the first write was applied");
            let second = image.blocks[b.index()].as_ref().expect("allocated");
            if second.intact() {
                clean += 1;
                assert_eq!(second.data[..], [2; BS], "a lost write keeps the pre-image");
            } else {
                torn += 1;
                let prefix = second.data.iter().take_while(|&&x| x == 12).count();
                assert!(prefix < BS, "a tear persists a strict prefix");
                assert!(second.data[prefix..].iter().all(|&x| x == 2));
            }
            assert!(matches!(pager.txn(), Err(PagerError::Degraded(_))));
            assert_eq!(pager.read(a).unwrap()[..], [11; BS]);
            assert_eq!(
                pager.read(b).unwrap()[..],
                [12; BS],
                "served from the parked frame"
            );
        }
        assert!(torn > 0 && clean > 0, "the seeds cover both failure shapes");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("boxes-wal-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn file_backed_stack_recovers_from_real_files() {
        // Full real-file stack: pager backend and WAL both on disk. Drop
        // every live object, then rebuild state purely from what the files
        // hold — the kill-matrix recovery path in miniature.
        let db = temp_path("stack-db");
        let log = temp_path("stack-log");
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&log);
        let ids = {
            let pager = Pager::new(PagerConfig::with_block_size(BS).backed_by_file(&db));
            let wal = Wal::create_file(&log, BS, WalConfig::default()).expect("create log");
            pager.attach_journal(wal.clone());
            run_ops(&pager, 3).unwrap()
        };
        let bytes = store::FileLogStore::read_log(&log, BS).expect("read log");
        let image = boxes_pager::recover_image(&db, BS).expect("read image");
        let recovered = recover(&bytes, image).expect("recover");
        assert_eq!(recovered.commits, 3);
        assert_eq!(recovered.meta("test"), Some(&[2u8][..]));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1
            );
        }
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn file_backed_checkpoint_rotation_survives_reopen() {
        let log = temp_path("rotate-log");
        let _ = std::fs::remove_file(&log);
        let (ids, pre_rotation_len) = {
            let pager = Pager::new(PagerConfig::with_block_size(BS));
            let wal = Wal::create_file(
                &log,
                BS,
                WalConfig {
                    sync_every: 1,
                    checkpoint_every: 4,
                },
            )
            .expect("create log");
            pager.attach_journal(wal.clone());
            let ids = run_ops(&pager, 7).unwrap();
            assert_eq!(wal.stats().checkpoints, 1);
            (ids, wal.durable_len())
        };
        let bytes = store::FileLogStore::read_log(&log, BS).expect("read log");
        assert_eq!(
            bytes.len(),
            pre_rotation_len,
            "on-disk log matches live view"
        );
        // The rotated file must decode standalone: checkpoint images replay
        // every pre-rotation block onto a blank backend.
        let blank = Pager::new(PagerConfig::with_block_size(BS));
        for _ in 0..ids.len() {
            blank.alloc().unwrap();
        }
        let recovered = recover(&bytes, blank.disk_image()).expect("recover");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                recovered.pager.read(id).unwrap()[0],
                u8::try_from(i).expect("small") + 1,
                "block {i} reachable through the rotated log"
            );
        }
        // The side file from the rename-based rotation must be gone.
        assert!(!log.with_extension("rotate").exists());
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn failed_fsync_poisons_log_and_degrades_pager() {
        use boxes_pager::{DegradedReason, FaultFile, FileFaultPlan, Health, RawFile};
        let log = temp_path("fsyncgate-log");
        let _ = std::fs::remove_file(&log);
        // Sync ordinal 1 is the header sync in `create`; ordinal 2 is op 1's
        // commit barrier; ordinal 3 — op 2's barrier — fails.
        let plan = FileFaultPlan {
            fail_sync_at: Some(3),
            ..FileFaultPlan::default()
        };
        let store = store::FileLogStore::create_with(&log, BS, |f| -> Box<dyn RawFile> {
            Box::new(FaultFile::new(f, plan))
        })
        .expect("create log");
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let wal = Wal::with_store(BS, WalConfig::default(), None, Box::new(store));
        pager.attach_journal(wal.clone());
        // Op 1 syncs fine; op 2's barrier fails. The failing op itself must
        // not unwind — the pager absorbs the Lost ack as a degraded-mode
        // entry, never an ack to the caller.
        run_ops(&pager, 2).unwrap();
        // Once degraded, the next mutation fails fast with the typed error.
        assert!(matches!(
            pager.txn(),
            Err(boxes_pager::PagerError::Degraded(_))
        ));
        assert!(wal.poisoned());
        assert_eq!(wal.stats().sync_failures, 1, "fsync is never retried");
        assert!(matches!(
            pager.health(),
            Health::Degraded(DegradedReason::JournalFault)
        ));
        assert_eq!(pager.degraded_entries(), 1);
        // Resume is refused while the journal is poisoned: replaying parked
        // frames would put unlogged after-images on the backend.
        assert!(pager.try_resume().is_err());
        // Negative control: the lost window's op is NOT in the durable log —
        // recovery yields exactly the pre-failure committed prefix.
        let recovered = recover(&wal.durable_bytes(), pager.disk_image()).expect("recover");
        assert_eq!(recovered.commits, 1, "only the op acked before the fault");
        assert_eq!(recovered.pager.allocated_blocks(), 1);
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn poisoned_log_answers_lost_to_every_later_commit() {
        use boxes_pager::{FaultFile, FileFaultPlan, Journal, JournalAck, RawFile, TxnRecord};
        let log = temp_path("poison-log");
        let _ = std::fs::remove_file(&log);
        let plan = FileFaultPlan {
            fail_sync_at: Some(2),
            ..FileFaultPlan::default()
        };
        let store = store::FileLogStore::create_with(&log, BS, |f| -> Box<dyn RawFile> {
            Box::new(FaultFile::new(f, plan))
        })
        .expect("create log");
        let wal = Wal::with_store(BS, WalConfig::default(), None, Box::new(store));
        let record = TxnRecord::default();
        assert_eq!(wal.commit(&record), JournalAck::Lost, "first barrier fails");
        // FaultFile lets *later* syncs succeed (the fsyncgate trap): the
        // poisoned WAL must still refuse to ack anything.
        assert_eq!(wal.commit(&record), JournalAck::Lost);
        assert_eq!(wal.barrier(), JournalAck::Lost);
        assert!(!wal.healthy());
        assert_eq!(
            wal.stats().sync_failures,
            1,
            "no retry ever reached the file"
        );
        let _ = std::fs::remove_file(&log);
    }
}
