//! Property test for the real-file durability seam: arbitrary
//! alloc/free/write sequences against a file-backed pager must survive a
//! reopen exactly, and a tampered tail — truncation at any byte, or a
//! single flipped bit — must never *silently* decode. The oracle is the
//! checksum contract: a slot whose stored crc validates always carries
//! exactly the bytes that were durable on disk; damage may surface as a
//! typed error or a stale checksum, never as a valid-but-wrong block.

use boxes_pager::{recover_image, BlockId, Pager, PagerConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const BS: usize = 64;
/// Pager-file header bytes before the first slot (see `file.rs` layout).
const HEADER: usize = 16;
/// Bytes per slot on disk: block + crc32 + alloc flag + padding.
const SLOT: usize = BS + 8;

#[derive(Clone, Debug)]
enum Op {
    Alloc,
    Free(usize),
    Write(usize, u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            2 => Just(Op::Alloc),
            1 => (any::<usize>()).prop_map(Op::Free),
            3 => (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        ],
        1..80,
    )
}

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let mut p = std::env::temp_dir();
    p.push(format!("boxes-pager-prop-{tag}-{}-{n}", std::process::id()));
    p
}

/// Replay `script` against a file-backed pager; returns the durable shadow:
/// slot index → last written content for live slots (freed slots absent).
fn build_file(path: &PathBuf, script: &[Op]) -> HashMap<u32, Vec<u8>> {
    let pager = Pager::new(PagerConfig::with_block_size(BS).backed_by_file(path));
    let mut shadow: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut live: Vec<BlockId> = Vec::new();
    for op in script {
        match op {
            Op::Alloc => {
                let id = pager.alloc().unwrap();
                shadow.insert(id.0, vec![0u8; BS]);
                live.push(id);
            }
            Op::Free(raw) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(raw % live.len());
                shadow.remove(&id.0);
                pager.free(id).unwrap();
            }
            Op::Write(raw, byte) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[raw % live.len()];
                let mut data = vec![*byte; BS];
                data[0] = id.0 as u8; // make slots distinguishable
                data[BS - 1] = byte.wrapping_add(1);
                pager.write(id, &data).unwrap();
                shadow.insert(id.0, data);
            }
        }
    }
    shadow
}

/// The original data bytes of slot `idx` as they sit in `file_bytes`.
fn slot_data(file_bytes: &[u8], idx: usize) -> &[u8] {
    let start = HEADER + idx * SLOT;
    &file_bytes[start..start + BS]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clean_reopen_restores_exactly_the_shadow(script in ops()) {
        let path = temp_path("reopen");
        let shadow = build_file(&path, &script);

        // Pager-level reopen: the allocation bitmap and every live block
        // come back exactly; holes stay holes.
        let reopened = Pager::open_file(&path, BS).expect("clean file reopens");
        prop_assert_eq!(reopened.allocated_blocks(), shadow.len());
        for (&slot, data) in &shadow {
            let got = reopened.read(BlockId(slot)).expect("live slot reads");
            prop_assert_eq!(&*got, data.as_slice());
        }
        drop(reopened);

        // Image-level reopen: every surviving block checksums and matches.
        let image = recover_image(&path, BS).expect("clean file scans");
        for (idx, block) in image.blocks.iter().enumerate() {
            let idx32 = u32::try_from(idx).expect("slot fits u32");
            match block {
                None => prop_assert!(!shadow.contains_key(&idx32)),
                Some(b) => {
                    prop_assert!(b.intact(), "clean slot {idx} fails its checksum");
                    prop_assert_eq!(
                        &*b.data,
                        shadow[&idx32].as_slice(),
                        "slot {} decoded to different bytes than were written",
                        idx
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_never_silently_decodes(script in ops(), cut_raw in any::<u64>()) {
        let path = temp_path("trunc");
        build_file(&path, &script);
        let orig = std::fs::read(&path).expect("file readable");
        std::fs::remove_file(&path).ok();
        if orig.len() == HEADER {
            return Ok(()); // every op was a no-op: nothing to truncate
        }

        // Cut anywhere strictly inside the payload: a power loss that tore
        // the final write(s) off the file.
        let cut = HEADER + usize::try_from(cut_raw).unwrap_or(0)
            % (orig.len() - HEADER);
        let tpath = temp_path("trunc-cut");
        std::fs::write(&tpath, &orig[..cut]).expect("write truncated copy");

        // A strict reopen accepts only whole slots: a mid-slot cut is a
        // typed error, never a half-read block.
        let rem = (cut - HEADER) % SLOT;
        match Pager::open_file(&tpath, BS) {
            Ok(_) => prop_assert_eq!(rem, 0, "reopen accepted a torn trailing slot"),
            Err(_) => prop_assert!(rem != 0, "reopen rejected a well-formed prefix"),
        }

        // The crash-tolerant scan classifies instead of rejecting — but a
        // slot it reports as intact must still carry the original bytes.
        let image = recover_image(&tpath, BS).expect("post-mortem scan runs");
        for (idx, block) in image.blocks.iter().enumerate() {
            if let Some(b) = block {
                if b.intact() {
                    prop_assert_eq!(
                        &*b.data,
                        slot_data(&orig, idx),
                        "slot {} validated its checksum over bytes that differ \
                         from what was durable",
                        idx
                    );
                }
            }
        }
        std::fs::remove_file(&tpath).ok();
    }

    #[test]
    fn bit_flip_never_silently_decodes(script in ops(), pos_raw in any::<u64>(), bit in 0u8..8) {
        let path = temp_path("flip");
        build_file(&path, &script);
        let orig = std::fs::read(&path).expect("file readable");
        if orig.len() == HEADER {
            std::fs::remove_file(&path).ok();
            return Ok(()); // every op was a no-op: nothing to rot
        }

        // Flip one bit anywhere in the payload (data, checksum, alloc flag,
        // or padding — latent media rot does not respect field boundaries).
        let pos = HEADER + usize::try_from(pos_raw).unwrap_or(0) % (orig.len() - HEADER);
        let mut rotted = orig.clone();
        rotted[pos] ^= 1 << bit;
        std::fs::write(&path, &rotted).expect("write rotted copy");

        let image = recover_image(&path, BS).expect("post-mortem scan runs");
        for (idx, block) in image.blocks.iter().enumerate() {
            if let Some(b) = block {
                if b.intact() {
                    prop_assert_eq!(
                        &*b.data,
                        slot_data(&orig, idx),
                        "slot {} validated its checksum over rotted bytes",
                        idx
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
