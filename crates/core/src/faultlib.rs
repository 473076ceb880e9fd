//! Reusable corruption primitives for robustness tests and the chaos sweep.
//!
//! Three corruption shapes, at three detection depths:
//!
//! | Helper | Checksum-valid? | Who catches it |
//! |--------|-----------------|----------------|
//! | [`flip_byte`] | no (media flip under the CRC) | pager read path: repair or degrade |
//! | [`stamp_byte`], [`tear_slot`] | yes (written through the pager) | structural audits |
//! | [`redirect_lidf_slot`] | yes | cross-structure audits (`LidfMismatch`) |
//!
//! The split matters: checksums catch *media* damage, but a logically wrong
//! block written through the normal path is indistinguishable from valid
//! data at the pager layer — only the scheme-level invariant audits can see
//! it. Chaos harnesses use [`flip_byte`] to exercise read-repair and the
//! others as negative controls proving the audits are not vacuous.

use boxes_pager::{BlockId, IoResult, SharedPager};

/// Flip one media byte *under* the block checksum: the next read of `block`
/// sees a CRC mismatch and must read-repair from the WAL or degrade.
pub fn flip_byte(pager: &SharedPager, block: BlockId, offset: usize, mask: u8) {
    pager.corrupt_block(block, offset, mask);
}

/// Overwrite one byte *through* the pager (checksum-valid): simulates
/// logically wrong but well-formed data that only a structural audit can
/// catch — e.g. stamping a bogus node-kind tag onto a tree block.
pub fn stamp_byte(pager: &SharedPager, block: BlockId, offset: usize, value: u8) -> IoResult<()> {
    let mut buf = pager.read(block)?;
    buf[offset] = value;
    pager.write(block, &buf)
}

/// Zero the tail of a fixed-size slot (checksum-valid): models a torn
/// in-slot update where only a prefix of the new record landed. `keep`
/// bytes of the slot survive; the rest are zeroed.
pub fn tear_slot(
    pager: &SharedPager,
    block: BlockId,
    slot_offset: usize,
    slot_size: usize,
    keep: usize,
) -> IoResult<()> {
    assert!(keep <= slot_size, "torn prefix exceeds the slot");
    let mut buf = pager.read(block)?;
    for b in &mut buf[slot_offset + keep..slot_offset + slot_size] {
        *b = 0;
    }
    pager.write(block, &buf)
}

/// Copy LIDF slot `src`'s payload over slot `dst`'s (checksum-valid): a
/// dangling-pointer corruption where `dst`'s record now points at a leaf
/// that does not hold it. Slots are `slot_size` bytes (liveness tag + payload);
/// the tag byte is preserved so both slots still read as live.
pub fn redirect_lidf_slot(
    pager: &SharedPager,
    lidf_block: BlockId,
    slot_size: usize,
    src: usize,
    dst: usize,
) -> IoResult<()> {
    let buf = pager.read(lidf_block)?;
    let mut out = buf.clone();
    out[dst * slot_size + 1..(dst + 1) * slot_size]
        .copy_from_slice(&buf[src * slot_size + 1..(src + 1) * slot_size]);
    pager.write(lidf_block, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_pager::{Pager, PagerConfig, PagerError};

    #[test]
    fn flip_byte_is_caught_by_the_checksum() {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        let id = pager.alloc().unwrap();
        pager.write(id, &[7u8; 64]).unwrap();
        flip_byte(&pager, id, 3, 0x40);
        // No journal to repair from: the read must fail typed, not return
        // the rotted byte.
        match pager.read(id) {
            Err(PagerError::Corrupt { block }) => assert_eq!(block, id),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn stamp_and_tear_are_checksum_valid() {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        let id = pager.alloc().unwrap();
        pager.write(id, &[7u8; 64]).unwrap();
        stamp_byte(&pager, id, 0, 0xEE).unwrap();
        tear_slot(&pager, id, 8, 8, 3).unwrap();
        let buf = pager.read(id).unwrap(); // no checksum complaint
        assert_eq!(buf[0], 0xEE);
        assert_eq!(&buf[8..16], &[7, 7, 7, 0, 0, 0, 0, 0]);
    }
}
