//! WAL record format: checksummed, length-prefixed, self-delimiting.
//!
//! ```text
//! record := magic u32 | lsn u64 | body_len u32 | body | crc32 u32
//! body   := n_frames u32 | frame*  | n_freed u32 | u32*  | n_metas u32 | meta*
//! frame  := block u32 | after: block_size
//! meta   := name_len u16 | name | data_len u32 | data
//! ```
//!
//! A frame holds only the block's after-image: the log is no-steal (nothing
//! uncommitted ever reaches the backend) and redo-only, so there is nothing
//! to undo and no before-image to keep.
//!
//! The CRC covers everything from the magic through the end of the body, so
//! a record is only accepted when completely and correctly on "disk". Two
//! failure shapes are deliberately distinguished:
//!
//! * the log ends before `body_len + 4` bytes are present — a **torn
//!   tail**, the normal result of crashing mid-append; recovery rolls it
//!   back silently;
//! * the full length is present but the CRC mismatches — **corruption**,
//!   which fails recovery loudly with [`WalError::Corrupt`].

use boxes_pager::codec::{self, VecWriter};
use boxes_pager::{BlockId, TxnFrame};

/// Magic opening a commit record (one logical operation's dirty blocks).
pub const MAGIC_COMMIT: u32 = 0x5743_4D54; // "WCMT"
/// Magic opening a checkpoint record (full image and meta fold).
pub const MAGIC_CKPT: u32 = 0x5743_4B50; // "WCKP"
/// Bytes of record header before the body: magic + lsn + body_len.
pub const HEADER_SIZE: usize = 16;

/// What kind of record a log entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// One committed logical operation: frames + frees + changed metas.
    Commit,
    /// Checkpoint: the complete image and meta fold at a point where the
    /// backend had every earlier record applied; earlier log content is
    /// truncated away.
    Checkpoint,
}

/// A decoded WAL record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Commit or checkpoint.
    pub kind: RecordKind,
    /// Log sequence number, strictly increasing across both kinds.
    pub lsn: u64,
    /// After-images of the blocks this operation dirtied.
    pub frames: Vec<TxnFrame>,
    /// Blocks the operation freed.
    pub freed: Vec<BlockId>,
    /// Structure-state blobs changed by this operation (full fold for
    /// checkpoints).
    pub metas: Vec<(String, Vec<u8>)>,
}

/// Typed failure of WAL decoding or recovery.
#[derive(Debug)]
pub enum WalError {
    /// A full-length record is present but damaged — corruption, not a torn
    /// tail. Recovery must stop loudly rather than guess.
    Corrupt {
        /// Byte offset of the offending record in the log.
        offset: usize,
        /// What exactly failed.
        reason: String,
    },
    /// The committed state references a structure-state blob that is not in
    /// the log (e.g. the pager's own allocator meta).
    MetaMissing(&'static str),
    /// After redo, an allocated block's stored checksum still mismatches —
    /// a torn page no committed record repairs, i.e. external corruption.
    TornPage(BlockId),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Corrupt { offset, reason } => {
                write!(f, "corrupt WAL record at byte {offset}: {reason}")
            }
            WalError::MetaMissing(name) => {
                write!(f, "committed state lacks required meta blob {name:?}")
            }
            WalError::TornPage(id) => write!(
                f,
                "torn page {id:?} not repaired by any committed record — external corruption"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Result of decoding one position in the log.
#[derive(Debug)]
pub enum DecodeStep {
    /// Clean end of log.
    End,
    /// A complete, checksum-verified record plus the next read position.
    Complete(Record, usize),
    /// The log ends inside a record — the torn tail to roll back.
    TornTail,
}

/// Encode one record for appending to the log, straight from the caller's
/// borrowed parts: header, body and CRC go into a single buffer sized up
/// front, so no after-image is copied more than once.
pub fn encode(
    kind: RecordKind,
    lsn: u64,
    frames: &[TxnFrame],
    freed: &[BlockId],
    metas: &[(&str, &[u8])],
    block_size: usize,
) -> Vec<u8> {
    let frames_len: usize = frames.iter().map(|f| 4 + f.after.len()).sum();
    let metas_len: usize = metas
        .iter()
        .map(|(name, data)| 2 + name.len() + 4 + data.len())
        .sum();
    let body_len = 4 + frames_len + 4 + 4 * freed.len() + 4 + metas_len;
    let mut out = VecWriter::with_capacity(HEADER_SIZE + body_len + 4);
    out.u32(match kind {
        RecordKind::Commit => MAGIC_COMMIT,
        RecordKind::Checkpoint => MAGIC_CKPT,
    });
    out.u64(lsn);
    out.u32(codec::usize_to_u32(body_len).unwrap_or(u32::MAX));
    out.u32(codec::usize_to_u32(frames.len()).unwrap_or(u32::MAX));
    for frame in frames {
        debug_assert_eq!(frame.after.len(), block_size);
        out.u32(frame.block.0);
        out.bytes(&frame.after);
    }
    out.u32(codec::usize_to_u32(freed.len()).unwrap_or(u32::MAX));
    for id in freed {
        out.u32(id.0);
    }
    out.u32(codec::usize_to_u32(metas.len()).unwrap_or(u32::MAX));
    for (name, data) in metas {
        out.u16(codec::usize_to_u16(name.len()).unwrap_or(u16::MAX));
        out.bytes(name.as_bytes());
        out.u32(codec::usize_to_u32(data.len()).unwrap_or(u32::MAX));
        out.bytes(data);
    }
    let mut out = out.into_bytes();
    debug_assert_eq!(out.len(), HEADER_SIZE + body_len);
    let crc = codec::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Fallible little-endian cursor — unlike `codec::Reader`, a short read is a
/// typed decode failure, never a panic, because recovery input is by
/// definition untrusted.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("offset overflow")?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| format!("body underrun at offset {}", self.pos))?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// Decode the record starting at `pos`, distinguishing clean end, complete
/// record, torn tail, and loud corruption (see module docs).
pub fn decode_at(log: &[u8], pos: usize, block_size: usize) -> Result<DecodeStep, WalError> {
    let remaining = log.len().saturating_sub(pos);
    if remaining == 0 {
        return Ok(DecodeStep::End);
    }
    if remaining < HEADER_SIZE {
        return Ok(DecodeStep::TornTail);
    }
    let corrupt = |reason: String| WalError::Corrupt {
        offset: pos,
        reason,
    };
    let mut rd = Rd { buf: log, pos };
    let magic = rd.u32().map_err(&corrupt)?;
    let kind = match magic {
        MAGIC_COMMIT => RecordKind::Commit,
        MAGIC_CKPT => RecordKind::Checkpoint,
        other => {
            return Err(corrupt(format!("unknown record magic {other:#010x}")));
        }
    };
    let lsn = rd.u64().map_err(&corrupt)?;
    let body_len = codec::u32_to_usize(rd.u32().map_err(&corrupt)?);
    let total = HEADER_SIZE
        .checked_add(body_len)
        .and_then(|t| t.checked_add(4))
        .ok_or_else(|| corrupt("record length overflow".to_string()))?;
    if remaining < total {
        return Ok(DecodeStep::TornTail);
    }
    let payload = &log[pos..pos + HEADER_SIZE + body_len];
    let stored_crc = {
        let b = &log[pos + HEADER_SIZE + body_len..pos + total];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    if codec::crc32(payload) != stored_crc {
        return Err(corrupt("record checksum mismatch".to_string()));
    }
    // Body parse. The CRC already verified the bytes, so any structural
    // failure below is still corruption, just caught at a finer grain.
    let n_frames = codec::u32_to_usize(rd.u32().map_err(&corrupt)?);
    let mut frames = Vec::with_capacity(n_frames.min(1024));
    for _ in 0..n_frames {
        let block = BlockId(rd.u32().map_err(&corrupt)?);
        let after = rd
            .take(block_size)
            .map_err(&corrupt)?
            .to_vec()
            .into_boxed_slice();
        frames.push(TxnFrame { block, after });
    }
    let n_freed = codec::u32_to_usize(rd.u32().map_err(&corrupt)?);
    let mut freed = Vec::with_capacity(n_freed.min(1024));
    for _ in 0..n_freed {
        freed.push(BlockId(rd.u32().map_err(&corrupt)?));
    }
    let n_metas = codec::u32_to_usize(rd.u32().map_err(&corrupt)?);
    let mut metas = Vec::with_capacity(n_metas.min(64));
    for _ in 0..n_metas {
        let name_len = codec::u32_to_usize(u32::from(rd.u16().map_err(&corrupt)?));
        let name = String::from_utf8(rd.take(name_len).map_err(&corrupt)?.to_vec())
            .map_err(|e| corrupt(format!("meta name not utf-8: {e}")))?;
        let data_len = codec::u32_to_usize(rd.u32().map_err(&corrupt)?);
        let data = rd.take(data_len).map_err(&corrupt)?.to_vec();
        metas.push((name, data));
    }
    if rd.pos != pos + HEADER_SIZE + body_len {
        return Err(corrupt(format!(
            "body length mismatch: declared {body_len}, parsed {}",
            rd.pos - pos - HEADER_SIZE
        )));
    }
    Ok(DecodeStep::Complete(
        Record {
            kind,
            lsn,
            frames,
            freed,
            metas,
        },
        pos + total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(block_size: usize) -> Record {
        Record {
            kind: RecordKind::Commit,
            lsn: 42,
            frames: vec![
                TxnFrame {
                    block: BlockId(3),
                    after: vec![2u8; block_size].into_boxed_slice(),
                },
                TxnFrame {
                    block: BlockId(9),
                    after: vec![7u8; block_size].into_boxed_slice(),
                },
            ],
            freed: vec![BlockId(5)],
            metas: vec![("lidf".to_string(), vec![9, 9, 9])],
        }
    }

    fn encode_record(rec: &Record, block_size: usize) -> Vec<u8> {
        let metas: Vec<(&str, &[u8])> = rec
            .metas
            .iter()
            .map(|(name, data)| (name.as_str(), data.as_slice()))
            .collect();
        encode(
            rec.kind,
            rec.lsn,
            &rec.frames,
            &rec.freed,
            &metas,
            block_size,
        )
    }

    #[test]
    fn roundtrip() {
        let rec = sample(32);
        let bytes = encode_record(&rec, 32);
        match decode_at(&bytes, 0, 32).expect("decode") {
            DecodeStep::Complete(out, next) => {
                assert_eq!(next, bytes.len());
                assert_eq!(out.kind, RecordKind::Commit);
                assert_eq!(out.lsn, 42);
                assert_eq!(out.frames.len(), 2);
                assert_eq!(out.frames[0].block, BlockId(3));
                assert_eq!(out.frames[0].after, rec.frames[0].after);
                assert_eq!(out.frames[1].after, rec.frames[1].after);
                assert_eq!(out.freed, vec![BlockId(5)]);
                assert_eq!(out.metas, rec.metas);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn commit_is_exactly_header_after_images_frees_metas_and_crc() {
        let mut rec = sample(32);
        rec.metas.push(("pager".to_string(), vec![1; 12]));
        for (block_size, frames) in [(32usize, 2usize), (64, 0), (64, 5)] {
            rec.frames = (0..frames)
                .map(|i| TxnFrame {
                    block: BlockId(u32::try_from(i).expect("small")),
                    after: vec![1u8; block_size].into_boxed_slice(),
                })
                .collect();
            let metas: usize = rec
                .metas
                .iter()
                .map(|(name, data)| 2 + name.len() + 4 + data.len())
                .sum();
            let expected = HEADER_SIZE
                + 4
                + frames * (4 + block_size)
                + 4
                + 4 * rec.freed.len()
                + 4
                + metas
                + 4;
            assert_eq!(encode_record(&rec, block_size).len(), expected);
        }
    }

    #[test]
    fn every_truncation_point_is_a_torn_tail_not_corruption() {
        let bytes = encode_record(&sample(32), 32);
        for cut in 1..bytes.len() {
            match decode_at(&bytes[..cut], 0, 32) {
                Ok(DecodeStep::TornTail) => {}
                other => panic!("cut at {cut}: expected TornTail, got {other:?}"),
            }
        }
    }

    #[test]
    fn full_length_bitflip_is_loud_corruption() {
        let clean = encode_record(&sample(32), 32);
        for &victim in &[0usize, 5, HEADER_SIZE + 3, clean.len() - 5] {
            let mut bytes = clean.clone();
            bytes[victim] ^= 0x40;
            match decode_at(&bytes, 0, 32) {
                Err(WalError::Corrupt { .. }) => {}
                other => panic!("flip at {victim}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_end_and_chained_records() {
        let a = encode_record(&sample(16), 16);
        let mut b_rec = sample(16);
        b_rec.kind = RecordKind::Checkpoint;
        b_rec.lsn = 43;
        let b = encode_record(&b_rec, 16);
        let mut log = a.clone();
        log.extend_from_slice(&b);
        let DecodeStep::Complete(_, next) = decode_at(&log, 0, 16).expect("first") else {
            panic!("first record incomplete")
        };
        let DecodeStep::Complete(second, end) = decode_at(&log, next, 16).expect("second") else {
            panic!("second record incomplete")
        };
        assert_eq!(second.kind, RecordKind::Checkpoint);
        assert!(matches!(
            decode_at(&log, end, 16).expect("end"),
            DecodeStep::End
        ));
    }
}
