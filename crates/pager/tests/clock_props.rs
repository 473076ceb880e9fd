//! Property tests: the CLOCK pool agrees with a naive second-chance model.
//!
//! The reference model below is the textbook algorithm written with zero
//! cleverness — a ring of `(id, referenced, pinned)` entries and a hand —
//! and the property drives both it and [`BufferPool`] through the same
//! random access trace (inserts, repeat touches, pins/unpins) over
//! capacities 2–64, asserting:
//!
//! * **every eviction victim matches**, trace step by trace step;
//! * a **pinned frame is never the victim** (checked on both sides — in
//!   the pool it is structurally impossible, in the model it is an
//!   explicit skip);
//! * residency (which blocks sit in the pool) matches after every step.

use std::collections::HashSet;

use boxes_pager::{BlockId, BufferPool};
use proptest::prelude::*;

/// Naive second-chance simulation: what `pool.rs` must behave like.
struct NaiveClock {
    capacity: usize,
    /// `(block, referenced, pinned)` in ring order.
    ring: Vec<(u32, bool, bool)>,
    hand: usize,
}

impl NaiveClock {
    fn new(capacity: usize) -> Self {
        NaiveClock {
            capacity,
            ring: Vec::new(),
            hand: 0,
        }
    }

    fn resident(&self, id: u32) -> bool {
        self.ring.iter().any(|(b, _, _)| *b == id)
    }

    /// Touch a resident block (a hit or an in-place update): set its
    /// reference bit. No-op when absent.
    fn touch(&mut self, id: u32) {
        for entry in &mut self.ring {
            if entry.0 == id {
                entry.1 = true;
            }
        }
    }

    fn set_pinned(&mut self, id: u32, pinned: bool) {
        for entry in &mut self.ring {
            if entry.0 == id {
                entry.2 = pinned;
            }
        }
    }

    /// Insert a new block, returning the evicted victim if the ring was
    /// full, or `Err(())` when every frame is pinned.
    fn insert(&mut self, id: u32) -> Result<Option<u32>, ()> {
        if self.resident(id) {
            self.touch(id);
            return Ok(None);
        }
        if self.ring.len() < self.capacity {
            // New frames start unreferenced (scan resistance).
            self.ring.push((id, false, false));
            return Ok(None);
        }
        if self.ring.iter().all(|(_, _, pinned)| *pinned) {
            return Err(());
        }
        loop {
            let slot = self.hand % self.ring.len();
            let (victim, referenced, pinned) = self.ring[slot];
            if pinned {
                // A pin is stronger than a reference: skip without
                // clearing the bit.
                self.hand = (slot + 1) % self.ring.len();
                continue;
            }
            if referenced {
                // Second chance: clear and move on.
                self.ring[slot].1 = false;
                self.hand = (slot + 1) % self.ring.len();
                continue;
            }
            // Evict: replace in place, park the hand just past the slot.
            self.ring[slot] = (id, false, false);
            self.hand = (slot + 1) % self.ring.len();
            return Ok(Some(victim));
        }
    }
}

/// One step of the random access trace.
#[derive(Clone, Debug)]
enum Step {
    /// Insert (or re-touch) block `id`; dirty flag exercises both insert
    /// entry points.
    Insert { id: u32, dirty: bool },
    /// `get` on block `id` — sets the reference bit on a hit.
    Touch { id: u32 },
    /// Pin block `id` if resident.
    Pin { id: u32 },
    /// Unpin block `id` if resident.
    Unpin { id: u32 },
}

fn step_strategy(universe: u32) -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0..universe, any::<bool>()).prop_map(|(id, dirty)| Step::Insert { id, dirty }),
        3 => (0..universe).prop_map(|id| Step::Touch { id }),
        1 => (0..universe).prop_map(|id| Step::Pin { id }),
        1 => (0..universe).prop_map(|id| Step::Unpin { id }),
    ]
}

fn block(id: u32) -> Box<[u8]> {
    vec![u8::try_from(id % 251).unwrap_or(0); 8].into_boxed_slice()
}

/// Drive pool and model through one trace, asserting victim agreement,
/// residency agreement, and the pinned-victim impossibility at every step.
fn run_trace(capacity: usize, steps: &[Step]) {
    let mut pool = BufferPool::new(capacity);
    let mut model = NaiveClock::new(capacity);
    // Pins the model believes are held (mirrors pool pin/unpin returns).
    let mut pinned: HashSet<u32> = HashSet::new();

    for (step_no, step) in steps.iter().enumerate() {
        match *step {
            Step::Insert { id, dirty } => {
                let result = if dirty {
                    pool.insert_dirty(BlockId(id), block(id))
                } else {
                    pool.insert_clean(BlockId(id), block(id))
                };
                let expect = model.insert(id);
                match (result, expect) {
                    (Ok(evicted), Ok(model_victim)) => {
                        let victim = evicted.map(|(vid, _)| vid.0);
                        // Dirty-tracking means the pool only *returns*
                        // dirty victims; residency (below) pins down clean
                        // evictions, and a returned victim must match.
                        if let Some(vid) = victim {
                            assert_eq!(
                                Some(vid),
                                model_victim,
                                "step {step_no}: pool evicted {vid}, model \
                                 evicted {model_victim:?} (cap {capacity})"
                            );
                            assert!(
                                !pinned.contains(&vid),
                                "step {step_no}: pool evicted pinned block {vid}"
                            );
                        }
                        if let Some(mv) = model_victim {
                            assert!(
                                !pinned.contains(&mv),
                                "step {step_no}: model evicted pinned block {mv}"
                            );
                        }
                    }
                    (Err(_), Err(())) => {
                        // Both sides agree: everything pinned, no victim.
                    }
                    (got, want) => panic!(
                        "step {step_no}: pool said {got:?}, model said \
                         {want:?} (cap {capacity})"
                    ),
                }
            }
            Step::Touch { id } => {
                let hit = pool.get(BlockId(id)).is_some();
                assert_eq!(
                    hit,
                    model.resident(id),
                    "step {step_no}: residency of {id} diverged on touch"
                );
                model.touch(id);
            }
            Step::Pin { id } => {
                // At most one pin per block: the model tracks a boolean, so
                // a second pool pin (a counter) would diverge on unpin.
                if !pinned.contains(&id) {
                    let did = pool.pin(BlockId(id));
                    assert_eq!(
                        did,
                        model.resident(id),
                        "step {step_no}: pin residency of {id} diverged"
                    );
                    if did {
                        model.set_pinned(id, true);
                        pinned.insert(id);
                    }
                }
            }
            Step::Unpin { id } => {
                if pinned.remove(&id) {
                    assert!(pool.unpin(BlockId(id)), "unpin of pinned {id}");
                    model.set_pinned(id, false);
                }
            }
        }
        // Residency must agree exactly after every step — this catches
        // clean (non-returned) evictions the victim check cannot see.
        let mut in_pool: Vec<u32> = pool.frame_ids().iter().map(|id| id.0).collect();
        let mut in_model: Vec<u32> = model.ring.iter().map(|(b, _, _)| *b).collect();
        in_pool.sort_unstable();
        in_model.sort_unstable();
        assert_eq!(
            in_pool, in_model,
            "step {step_no}: resident sets diverged (cap {capacity})"
        );
        assert!(in_pool.len() <= capacity, "pool overflowed its capacity");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random traces over capacities 2–64 and a block universe a bit
    /// larger than the biggest capacity (so eviction pressure is real).
    #[test]
    fn clock_pool_matches_naive_second_chance(
        capacity in 2usize..=64,
        steps in proptest::collection::vec(step_strategy(96), 1..200),
    ) {
        run_trace(capacity, &steps);
    }

    /// Pin-heavy traces: small capacity, tiny universe, lots of pins — the
    /// regime where a buggy sweep would evict a pinned frame or spin.
    #[test]
    fn clock_pool_never_evicts_pinned_frames_under_pressure(
        capacity in 2usize..=6,
        steps in proptest::collection::vec(step_strategy(8), 1..120),
    ) {
        run_trace(capacity, &steps);
    }
}
