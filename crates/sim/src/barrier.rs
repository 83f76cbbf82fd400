//! The delivery barrier both engines share.
//!
//! A BSP superstep and a QSM phase end the same way. Injections are
//! resolved onto slots; the fault hook's stall and crash windows decide
//! which processors keep their undrained inbox and which lose it; every
//! payload that lands is counted into the next arena and then placed in the
//! canonical order; and payloads the network holds back (delays, duplicate
//! copies) wait in a late-arrival queue for a later barrier. This module is
//! the one copy of each of those pieces:
//!
//! * [`resolve_slots_into`] — the slot resolver;
//! * [`FaultMasks`] — the stall/crash step: mask fill, ledger charges, and
//!   retention of each stalled, live processor's undrained inbox;
//! * [`LateQueue`] — the late-arrival queue with its recycled level
//!   buffers, which also counts and lands the arrivals due at a barrier.
//!
//! What differs between the engines stays in them: the closure passes,
//! BSP's unhooked per-sender tally and fate application, QSM's contention
//! audit, serve loop and write arbitration.

use std::collections::VecDeque;

use crate::arena::MsgArena;
use crate::hook::{DeliveryHook, FaultStats};
use crate::{Pid, SimError};
use pbw_models::FrontierMask;
use pbw_trace::FaultCounters;

/// Assign injection slots to one processor's requests, refilling the
/// recycled `slots` buffer: explicit claims are honoured, and each auto
/// request takes the earliest slot no claim holds. `claims` yields each
/// request's claim in posting order; `explicit` says whether any is `Some`.
///
/// Without claims the slots are simply `0..n`, and when no consumer reads
/// individual slots (`materialize` false) they are not even written — the
/// empty buffer is the marker BSP's tally aggregates such senders on.
/// With claims, two claims of one slot are rejected, naming the lowest
/// duplicated slot.
///
/// Allocation-free once `slots` has warmed up: the claim set is a sorted
/// scratch prefix of `slots` itself (drained off before returning), and
/// autos merge against it with one monotone cursor, so a steady stream of
/// explicit-slot traffic — the sample-sort exchange, staggered QSM
/// requests — touches the heap zero times per step.
pub(crate) fn resolve_slots_into<I>(
    pid: Pid,
    claims: I,
    explicit: bool,
    slots: &mut Vec<u64>,
    materialize: bool,
) -> Result<(), SimError>
where
    I: ExactSizeIterator<Item = Option<u64>> + Clone,
{
    slots.clear();
    let n = claims.len();
    if !explicit {
        if materialize {
            slots.extend(0..n as u64);
        }
        return Ok(());
    }
    slots.extend(claims.clone().flatten());
    let claimed = slots.len();
    slots.sort_unstable();
    if let Some(w) = slots.windows(2).find(|w| w[0] == w[1]) {
        return Err(SimError::DuplicateSlot { pid, slot: w[0] });
    }
    slots.reserve(n);
    let mut next_auto = 0u64;
    let mut cursor = 0usize;
    for claim in claims {
        match claim {
            Some(s) => slots.push(s),
            None => {
                while cursor < claimed && slots[cursor] <= next_auto {
                    if slots[cursor] == next_auto {
                        next_auto += 1;
                    }
                    cursor += 1;
                }
                slots.push(next_auto);
                next_auto += 1;
            }
        }
    }
    slots.drain(..claimed);
    Ok(())
}

/// The stall/crash step. A stalled processor skips its closure and sees
/// its inbox again at the next step; a crashed one skips its closure, keeps
/// nothing, and loses every payload whose custody would transfer to it.
/// Crash overrides stall. The masks are only meaningful on hooked steps,
/// which fill them first; unhooked steps never read them.
#[derive(Debug)]
pub(crate) struct FaultMasks {
    /// Stalled processors this step.
    pub(crate) stalled: FrontierMask,
    /// Crash-stopped processors this step.
    pub(crate) crashed: FrontierMask,
}

impl FaultMasks {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            stalled: FrontierMask::new(p),
            crashed: FrontierMask::new(p),
        }
    }

    /// Clear both masks (O(1) epoch bumps) and let `hook` fill them for
    /// `step` in one call — a hook that knows its fault windows in closed
    /// form inserts O(windows) bits instead of answering p queries.
    pub(crate) fn fill(&mut self, hook: &dyn DeliveryHook, step: u64) {
        self.stalled.clear();
        self.crashed.clear();
        hook.fill_fault_masks(step, &mut self.stalled, &mut self.crashed);
    }

    /// Whether `pid` skips its closure this step.
    #[inline]
    pub(crate) fn skips(&self, pid: Pid) -> bool {
        self.stalled.contains(pid) || self.crashed.contains(pid)
    }

    /// Charge the step's outages to the ledger and the trace counters —
    /// one crash step per crashed processor, one stalled step per stalled,
    /// live one — and count each stalled, live processor's undrained inbox
    /// (`spare`) into the arena being filled. Walks the masks word at a
    /// time: O(fault-words), not O(p).
    pub(crate) fn charge_and_count_retained<M>(
        &self,
        spare: &MsgArena<M>,
        fill: &mut MsgArena<M>,
        stats: &mut FaultStats,
        counters: &mut FaultCounters,
    ) {
        let down = self.crashed.count() as u64;
        stats.crash_steps += down;
        counters.crashed_procs += down;
        for (leaf, word) in self.stalled.words() {
            let live = word & !self.crashed.word(leaf);
            let retained = u64::from(live.count_ones());
            stats.stalled_steps += retained;
            counters.stalled_procs += retained;
            for pid in bits(leaf, live) {
                fill.count(pid, spare.len(pid));
            }
        }
    }

    /// Place the inboxes counted by [`FaultMasks::charge_and_count_retained`],
    /// ahead of the step's own deliveries. They were counted delivered at
    /// the barrier that first landed them, so the ledger is not touched.
    pub(crate) fn place_retained<M: Clone>(&self, spare: &MsgArena<M>, fill: &mut MsgArena<M>) {
        for (leaf, word) in self.stalled.words() {
            for pid in bits(leaf, word & !self.crashed.word(leaf)) {
                for msg in spare.inbox(pid) {
                    fill.place(pid, msg.clone());
                }
            }
        }
    }

    /// How many payloads of `pid`'s freshly filled segment it retained
    /// from `spare` (0 unless `pid` is stalled and live).
    #[inline]
    pub(crate) fn retained<M>(&self, spare: &MsgArena<M>, pid: Pid) -> usize {
        if self.stalled.contains(pid) && !self.crashed.contains(pid) {
            spare.len(pid)
        } else {
            0
        }
    }
}

/// The pids of one mask leaf word, ascending.
fn bits(leaf: usize, mut word: u64) -> impl Iterator<Item = Pid> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            leaf * 64 + bit
        })
    })
}

/// Payloads the network releases at a later barrier: delayed messages and
/// responses, and duplicate copies. `levels[k]` holds those due `k + 1`
/// barriers from now, as `(destination, payload)` in queueing order.
/// Drained level buffers are kept (up to [`LateQueue::POOL_CAP`]) and
/// reused, so a steady fault schedule stops allocating.
#[derive(Debug)]
pub(crate) struct LateQueue<T> {
    levels: VecDeque<Vec<(Pid, T)>>,
    pool: Vec<Vec<(Pid, T)>>,
}

impl<T> Default for LateQueue<T> {
    fn default() -> Self {
        Self {
            levels: VecDeque::new(),
            pool: Vec::new(),
        }
    }
}

impl<T> LateQueue<T> {
    /// How many drained level buffers the queue keeps for reuse.
    const POOL_CAP: usize = 16;

    /// Queue `payload` for `dest`, due `k ≥ 1` barriers from now (a 0 is
    /// taken as 1), and charge it to the ledger's `in_flight`.
    pub(crate) fn push(&mut self, k: u32, dest: Pid, payload: T, stats: &mut FaultStats) {
        let idx = (k.max(1) - 1) as usize;
        while self.levels.len() <= idx {
            self.levels.push_back(self.pool.pop().unwrap_or_default());
        }
        self.levels[idx].push((dest, payload));
        stats.in_flight += 1;
    }

    /// Take the level due at this barrier (empty when nothing is).
    pub(crate) fn pop_due(&mut self) -> Vec<(Pid, T)> {
        self.levels.pop_front().unwrap_or_default()
    }

    /// Count the due arrivals that will land into the arena being filled:
    /// every one whose destination is not crashed (`masks` is `None` on an
    /// unhooked step, where nobody is down).
    pub(crate) fn count_due(due: &[(Pid, T)], masks: Option<&FaultMasks>, fill: &mut MsgArena<T>) {
        for &(dest, _) in due {
            if !masks.is_some_and(|m| m.crashed.contains(dest)) {
                fill.count(dest, 1);
            }
        }
    }

    /// Land the due arrivals after the step's on-time deliveries, in
    /// queueing order, and recycle the level buffer. An arrival whose
    /// destination is down *now* dies in the network, charged `crashed`:
    /// its delay only deferred the custody transfer. Returns the number
    /// landed.
    pub(crate) fn land_due(
        &mut self,
        mut due: Vec<(Pid, T)>,
        masks: Option<&FaultMasks>,
        fill: &mut MsgArena<T>,
        stats: &mut FaultStats,
        counters: &mut FaultCounters,
    ) -> u64 {
        let mut landed = 0u64;
        for (dest, payload) in due.drain(..) {
            stats.in_flight -= 1;
            if masks.is_some_and(|m| m.crashed.contains(dest)) {
                stats.crashed += 1;
                counters.crashed += 1;
                continue;
            }
            fill.place(dest, payload);
            stats.delivered += 1;
            counters.late_arrivals += 1;
            landed += 1;
        }
        self.recycle(due);
        landed
    }

    /// Keep an emptied level buffer for reuse, unless the pool is full or
    /// the buffer never allocated.
    fn recycle(&mut self, mut level: Vec<(Pid, T)>) {
        level.clear();
        if level.capacity() > 0 && self.pool.len() < Self::POOL_CAP {
            self.pool.push(level);
        }
    }

    /// The pending levels, soonest first.
    pub(crate) fn levels(&self) -> &VecDeque<Vec<(Pid, T)>> {
        &self.levels
    }

    /// Replace the pending levels with copies of `levels`, recycling the
    /// current ones.
    pub(crate) fn load(&mut self, levels: &[Vec<(Pid, T)>])
    where
        T: Clone,
    {
        while let Some(level) = self.levels.pop_front() {
            self.recycle(level);
        }
        for level in levels {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.extend(level.iter().cloned());
            self.levels.push_back(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_queue_releases_levels_in_order() {
        let mut q: LateQueue<u8> = LateQueue::default();
        let mut stats = FaultStats::default();
        q.push(2, 1, 20, &mut stats);
        q.push(1, 3, 10, &mut stats);
        q.push(0, 2, 11, &mut stats);
        assert_eq!(stats.in_flight, 3);
        assert_eq!(q.levels().len(), 2);
        assert_eq!(q.pop_due(), vec![(3, 10), (2, 11)]);
        assert_eq!(q.pop_due(), vec![(1, 20)]);
        assert!(q.pop_due().is_empty());
    }
}
