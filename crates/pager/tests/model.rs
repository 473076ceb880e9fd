//! Model-checking the pager: a shadow HashMap must agree with the simulated
//! disk under arbitrary alloc/free/read/write interleavings, with and
//! without the buffer pool, and the I/O accounting must obey its contract.

use boxes_pager::{BlockId, Pager, PagerConfig};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Alloc,
    Free(usize),
    Write(usize, u8),
    Read(usize),
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::Alloc),
            (any::<usize>()).prop_map(Op::Free),
            (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
            (any::<usize>()).prop_map(Op::Read),
            Just(Op::Flush),
        ],
        1..120,
    )
}

fn run_model(pool: usize, script: Vec<Op>) {
    let bs = 64;
    let pager = Pager::new(PagerConfig::with_block_size(bs).with_pool(pool));
    let mut shadow: HashMap<BlockId, Vec<u8>> = HashMap::new();
    let mut live: Vec<BlockId> = Vec::new();
    for op in script {
        match op {
            Op::Alloc => {
                let id = pager.alloc().unwrap();
                shadow.insert(id, vec![0u8; bs]);
                live.push(id);
            }
            Op::Free(raw) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(raw % live.len());
                shadow.remove(&id);
                pager.free(id).unwrap();
            }
            Op::Write(raw, byte) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[raw % live.len()];
                let data = shadow.get_mut(&id).unwrap();
                data[0] = byte;
                data[bs - 1] = byte ^ 0xFF;
                pager.write(id, data).unwrap();
            }
            Op::Read(raw) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[raw % live.len()];
                assert_eq!(&*pager.read(id).unwrap(), shadow[&id].as_slice());
            }
            Op::Flush => pager.flush().unwrap(),
        }
        assert_eq!(pager.allocated_blocks(), live.len());
    }
    // Final sweep: everything must match after a flush.
    pager.clear_pool().unwrap();
    for (&id, data) in &shadow {
        assert_eq!(&*pager.read(id).unwrap(), data.as_slice());
    }
}

proptest! {
    #[test]
    fn pager_matches_shadow_without_pool(script in ops()) {
        run_model(0, script);
    }

    #[test]
    fn pager_matches_shadow_with_small_pool(script in ops()) {
        run_model(3, script);
    }

    #[test]
    fn pager_matches_shadow_with_large_pool(script in ops()) {
        run_model(64, script);
    }

    #[test]
    fn caching_never_increases_io(script in ops()) {
        // Replaying the same script with a pool must never cost more I/Os
        // than without (for this write-through-on-evict design).
        let count = |pool: usize, script: &[Op]| -> u64 {
            let bs = 64;
            let pager = Pager::new(PagerConfig::with_block_size(bs).with_pool(pool));
            let mut live: Vec<BlockId> = Vec::new();
            for op in script {
                match op {
                    Op::Alloc => live.push(pager.alloc().unwrap()),
                    Op::Free(raw) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(raw % live.len());
                            pager.free(id).unwrap();
                        }
                    }
                    Op::Write(raw, byte) => {
                        if !live.is_empty() {
                            let id = live[raw % live.len()];
                            let mut data = vec![0u8; bs];
                            data[0] = *byte;
                            pager.write(id, &data).unwrap();
                        }
                    }
                    Op::Read(raw) => {
                        if !live.is_empty() {
                            pager.read(live[raw % live.len()]).unwrap();
                        }
                    }
                    Op::Flush => pager.flush().unwrap(),
                }
            }
            pager.flush().unwrap();
            pager.stats().total()
        };
        let without = count(0, &script);
        let with = count(16, &script);
        prop_assert!(with <= without, "pool made it worse: {with} > {without}");
    }
}
