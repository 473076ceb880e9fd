//! Seeded logical-tick scheduler for deterministic interleaving tests.
//!
//! The latch-per-frame pager is proven by *replaying* concurrency instead
//! of hoping for it: a [`Scheduler`] owns a seeded script — a shuffled
//! multiset of actor ids, one entry per operation each actor will
//! perform — and grants turns strictly in script order. Every
//! actor thread brackets each logical operation with
//! [`Scheduler::wait_turn`] / [`Scheduler::step_done`], so the schedule
//! *is* the serialization order: the interleaving rig can assert the
//! sharded pager's results against a serial model replayed in the same
//! order, for hundreds of seeds, bit-for-bit reproducibly (no wall clock,
//! no OS-scheduler dependence).
//!
//! An actor that finishes early (fewer ops than scripted, or an aborted
//! leg) calls [`Scheduler::retire`]; its remaining scripted turns are
//! skipped so the other actors never deadlock waiting on it.
//!
//! The scheduler's own mutex (`boxes-core::Scheduler.state`) is a leaf in
//! the BX015 lock-order graph: actors call into it only *between* pager
//! operations, never while holding a pager, shard, or frame lock.

use boxes_pager::{codec, lock_unpoisoned, splitmix64};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Script progress guarded by the scheduler mutex.
struct SchedState {
    /// Actor id per scripted step, in grant order.
    script: Vec<usize>,
    /// Next script position to grant.
    pos: usize,
    /// Actors whose remaining turns are skipped.
    retired: Vec<bool>,
}

/// Turn-based scheduler: one actor runs at a time, in seeded script order.
pub struct Scheduler {
    state: Mutex<SchedState>,
    turns: Condvar,
}

impl Scheduler {
    /// Build a scheduler for `ops_per_actor.len()` actors, where actor `i`
    /// is granted exactly `ops_per_actor[i]` turns, in an order shuffled
    /// deterministically from `seed` (Fisher–Yates over a splitmix64
    /// stream).
    #[must_use]
    pub fn seeded(seed: u64, ops_per_actor: &[usize]) -> Arc<Scheduler> {
        let mut script = Vec::new();
        for (actor, &ops) in ops_per_actor.iter().enumerate() {
            for _ in 0..ops {
                script.push(actor);
            }
        }
        let mut stream = seed;
        for i in (1..script.len()).rev() {
            stream = splitmix64(stream);
            let j = codec::u64_to_index(stream % codec::usize_to_u64(i + 1));
            script.swap(i, j);
        }
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                script,
                pos: 0,
                retired: vec![false; ops_per_actor.len()],
            }),
            turns: Condvar::new(),
        })
    }

    /// Total scripted steps (all actors).
    #[must_use]
    pub fn script_len(&self) -> usize {
        let state = self.state_guard();
        state.script.len()
    }

    /// Block until it is `actor`'s turn. Returns `false` when the script
    /// is exhausted (no more turns will ever be granted to anyone) — the
    /// actor should finish without performing further scheduled work.
    pub fn wait_turn(&self, actor: usize) -> bool {
        let mut state = self.state_guard();
        loop {
            while state.pos < state.script.len() {
                let head = state.script[state.pos];
                if state.retired.get(head).copied().unwrap_or(false) {
                    state.pos += 1;
                } else {
                    break;
                }
            }
            if state.pos >= state.script.len() {
                self.turns.notify_all();
                return false;
            }
            if state.script[state.pos] == actor {
                return true;
            }
            state = match self.turns.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Mark `actor`'s current turn complete and wake the next scripted
    /// actor. A call out of turn (defensive) changes nothing but still
    /// wakes waiters.
    pub fn step_done(&self, actor: usize) {
        let mut state = self.state_guard();
        if state.pos < state.script.len() && state.script[state.pos] == actor {
            state.pos += 1;
        }
        self.turns.notify_all();
    }

    /// Retire `actor`: skip all of its remaining scripted turns so other
    /// actors never wait on a finished thread.
    pub fn retire(&self, actor: usize) {
        let mut state = self.state_guard();
        if let Some(slot) = state.retired.get_mut(actor) {
            *slot = true;
        }
        self.turns.notify_all();
    }

    /// Acquire the scheduler mutex (poison-recovering: an actor that
    /// panics mid-turn — e.g. an injected crash — must not wedge the
    /// remaining actors).
    fn state_guard(&self) -> MutexGuard<'_, SchedState> {
        lock_unpoisoned(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_seeded_permutation_of_the_op_multiset() {
        let s1 = Scheduler::seeded(42, &[3, 2, 4]);
        let s2 = Scheduler::seeded(42, &[3, 2, 4]);
        let s3 = Scheduler::seeded(43, &[3, 2, 4]);
        assert_eq!(s1.script_len(), 9);
        let snap = |s: &Scheduler| {
            let st = s.state_guard();
            st.script.clone()
        };
        assert_eq!(snap(&s1), snap(&s2), "same seed, same schedule");
        assert_ne!(snap(&s1), snap(&s3), "different seed, different shuffle");
        let mut counts = [0usize; 3];
        for actor in snap(&s1) {
            counts[actor] += 1;
        }
        assert_eq!(counts, [3, 2, 4], "every op of every actor is scheduled");
    }

    #[test]
    fn turns_serialize_actors_in_script_order() {
        let sched = Scheduler::seeded(7, &[5, 5, 5]);
        let order: Vec<usize> = {
            let st = sched.state_guard();
            st.script.clone()
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for actor in 0..3usize {
            let sched = Arc::clone(&sched);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                while sched.wait_turn(actor) {
                    lock_unpoisoned(&log).push(actor);
                    sched.step_done(actor);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock_unpoisoned(&log), order, "log replays the script");
    }

    #[test]
    fn retired_actors_are_skipped() {
        let sched = Scheduler::seeded(9, &[4, 4]);
        sched.retire(1);
        let mut granted = 0;
        while sched.wait_turn(0) {
            granted += 1;
            sched.step_done(0);
        }
        assert_eq!(granted, 4, "actor 0 runs all its turns, none of actor 1's");
        assert!(
            !sched.wait_turn(1),
            "script exhausted for the retired actor"
        );
    }
}
