//! Failure-injection tests: the structures must *detect* corruption and
//! misuse loudly rather than silently returning wrong labels. (Module is
//! test-only; it exists so the checks live close to the public API.)

#[cfg(test)]
mod tests {
    use crate::bbox::{BBox, BBoxConfig};
    use crate::pager::{Pager, PagerConfig};
    use crate::wbox::{WBox, WBoxConfig};
    use boxes_audit::{Auditable, ViolationKind};

    #[test]
    fn bbox_detects_corrupted_node_kind() {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        let mut b = BBox::new(pager.clone(), BBoxConfig::from_block_size(128)).unwrap();
        let _lids = b.bulk_load(50).unwrap();
        // Stamp a bogus node-kind byte onto a structure block behind the
        // tree's back; the audit must *report* the damage as a typed
        // violation — it must not panic, and not come back clean.
        crate::faultlib::stamp_byte(&pager, crate::pager::BlockId(0), 0, 0xEE).unwrap();
        let report = b.audit();
        assert!(
            report.has(ViolationKind::CorruptNode),
            "expected a CorruptNode violation, got:\n{report}"
        );
    }

    #[test]
    fn wbox_detects_dangling_lidf_pointer() {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut w = WBox::new(pager.clone(), WBoxConfig::small_for_tests()).unwrap();
        let lids = w.bulk_load(50).unwrap();
        // Simulate a torn LIDF update: point lids[0]'s record at lids[45]'s
        // leaf by copying the raw LIDF slot bytes. Allocation order: block 0
        // is the pre-bulk root (freed), blocks 1–8 the eight leaves of 50
        // records at capacity 7, block 9 the first LIDF block.
        assert_ne!(
            w.lookup(lids[0]).unwrap() / 7,
            w.lookup(lids[45]).unwrap() / 7,
            "test premise: the two lids live in different leaves"
        );
        // slot size = 9 (tag + 8B payload); copy slot 45's payload into
        // slot 0's payload.
        crate::faultlib::redirect_lidf_slot(&pager, crate::pager::BlockId(9), 9, 45, 0).unwrap();
        // The audit reports the mismatch as a typed violation (the leaf
        // holding lids[0] no longer agrees with the LIDF), without panicking.
        let report = w.audit();
        assert!(
            report.has(ViolationKind::LidfMismatch),
            "expected a LidfMismatch violation, got:\n{report}"
        );
    }

    #[test]
    #[should_panic]
    fn deleted_label_cannot_be_looked_up() {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut w = WBox::new(pager, WBoxConfig::small_for_tests()).unwrap();
        let lids = w.bulk_load(10).unwrap();
        w.delete(lids[3]).unwrap();
        let _ = w.lookup(lids[3]).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_lid_is_rejected() {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut w = WBox::new(pager, WBoxConfig::small_for_tests()).unwrap();
        w.bulk_load(10).unwrap();
        let _ = w.lookup(crate::lidf::Lid(99_999)).unwrap();
    }

    #[test]
    #[should_panic(expected = "endpoints out of order")]
    fn inverted_subtree_range_is_rejected() {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        let mut w = WBox::new(pager, WBoxConfig::small_for_tests()).unwrap();
        let lids = w.bulk_load(20).unwrap();
        w.delete_subtree(lids[10], lids[2]).unwrap();
    }
}
