//! Concurrent reader sessions over a streaming writer.
//!
//! ```text
//! cargo run --example concurrent_sessions
//! ```
//!
//! Bulk-loads an XMark-like document into a WAL-journaled W-BOX, then runs
//! one writer streaming element inserts while four reader threads open
//! snapshot sessions. Each snapshot sees one *published epoch*: its labels
//! never move while the writer works, fresh snapshots see newer epochs, and
//! every session's I/O is attributed separately.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use boxes_core::driver::partner_map;
use boxes_core::{LabelingScheme, WBoxScheme};
use boxes_pager::{Pager, PagerConfig};
use boxes_session::SessionManager;
use boxes_wal::{Wal, WalConfig};
use boxes_wbox::WBoxConfig;
use boxes_xml::generate::xmark;

const BLOCK_SIZE: usize = 1024;
const READERS: usize = 4;
const WRITER_OPS: usize = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A journaled pager: group-commit barriers define the epochs snapshots
    // pin (sync_every = 8 → one published epoch per 8 committed ops).
    let pager = Pager::new(PagerConfig::with_block_size(BLOCK_SIZE));
    pager.attach_journal(Wal::new(
        BLOCK_SIZE,
        WalConfig {
            sync_every: 8,
            checkpoint_every: 0,
        },
    ));
    let manager = Arc::new(SessionManager::<WBoxScheme>::create(
        pager.clone(),
        WBoxConfig::from_block_size(BLOCK_SIZE),
    )?);

    // The writer session loads the document and publishes the first epoch.
    let doc = xmark(400, 7);
    let lids = {
        let mut writer = manager.writer()?;
        let txn = pager.txn()?;
        let lids = writer.try_bulk_load_document(&partner_map(&doc))?;
        txn.commit();
        assert!(writer.publish(), "make the load visible to snapshots");
        lids
    };
    println!(
        "loaded {} tags ({} elements), published epoch {}",
        lids.len(),
        doc.len(),
        manager.published_epoch()
    );

    // Four readers each pin a snapshot and repeatedly verify it is frozen:
    // the same lid always answers the same label, however far the writer
    // has moved on.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let manager = Arc::clone(&manager);
            let done = Arc::clone(&done);
            let probe = lids[r * 7 % lids.len()];
            std::thread::spawn(move || {
                let snap = manager.snapshot().expect("published state");
                let frozen = snap.try_lookup(probe).expect("snapshot read");
                let mut rounds = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let label = snap.try_lookup(probe).expect("snapshot read");
                    assert_eq!(label, frozen, "snapshot labels never move");
                    rounds += 1;
                }
                (snap.epoch(), rounds, snap.io().reads)
            })
        })
        .collect();

    // Meanwhile the writer streams inserts through the journaled path.
    {
        let mut writer = manager.writer()?;
        for i in 0..WRITER_OPS {
            let anchor = lids[(i * 13) % lids.len()];
            writer.try_insert_element_before(anchor)?;
        }
        writer.publish();
    }
    done.store(true, Ordering::SeqCst);
    for handle in readers {
        let (epoch, rounds, reads) = handle.join().expect("reader clean");
        println!("reader: epoch {epoch}, {rounds} stable rounds, {reads} attributed reads");
    }

    // Readers are gone; a fresh snapshot observes the post-stream epoch.
    let fresh = manager.snapshot()?;
    println!(
        "writer streamed {WRITER_OPS} inserts; fresh snapshot: epoch {}, {} labels",
        fresh.epoch(),
        fresh.len()
    );
    assert_eq!(fresh.len(), u64::try_from(lids.len() + 2 * WRITER_OPS)?);
    Ok(())
}
