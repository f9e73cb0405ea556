//! Hierarchical timing wheel backing the [`EventQueue`](crate::EventQueue).
//!
//! Six levels of 64 slots each cover the nanosecond clock: level 0 buckets
//! 2^16 ns (~65 µs) and spans ~4.2 ms, and each coarser level covers 64×
//! the span of the one below (shifts 16/22/28/34/40/46: level 1 spans
//! ~268 ms, level 2 ~17 s, the top level ≈ 52 days). The geometry follows
//! the cluster model's own delays (see [`SHIFTS`]): a per-request hop or
//! handshake is placed straight into level 0, and the periodic cycles park
//! one level up and cascade once. Events beyond the top level park in an
//! overflow list and redistribute when the clock nears them.
//!
//! Determinism contract (the reason this exists instead of `BinaryHeap`):
//!
//! * **Pop order** is exactly `(at, seq)` — the same total order the heap
//!   implementation used. Events ahead of the cursor live in wheel slots;
//!   the slot with the smallest start time is drained next, and a drained
//!   fine slot is sorted by `(at, seq)` into the `front` run before
//!   anything pops. Slot starts at every level are multiples of the fine
//!   granularity, so no coarser slot can start strictly inside the fine
//!   slot being drained — the minimum-start scan never skips an event.
//!   `seq` is normally the schedule order, or a rank reserved earlier
//!   (see [`EventQueue::reserve_ranks`](crate::EventQueue::reserve_ranks));
//!   a late insert into the drained window is placed by `(at, seq)` too.
//! * **Cascades terminate**: when a coarse slot (level *l* > 0) wins the
//!   scan, the cursor first advances to that slot's start; adjacent levels
//!   differ by 6 bits of shift, so every event in the slot then lands at
//!   level ≤ *l* − 1. Each event re-places through strictly finer levels
//!   until it reaches level 0.
//! * **Liveness** is the same generational [`Slab`] discipline the heap
//!   used, with identical insert/remove ordering — so the handles
//!   ([`SlabKey`]s, packed into `EventId`s) a run hands out are identical
//!   to what the heap implementation would have produced.
//!
//! Cancellation stays O(1): remove the slab entry and leave the stored
//! record behind as a tombstone; tombstones are dropped when their slot
//! drains or cascades, and a compaction sweep prunes them early if they
//! come to dominate storage.

use std::collections::VecDeque;

use gage_collections::{Slab, SlabKey};

/// Number of wheel levels.
const LEVELS: usize = 6;
/// Slots per level (fixed 64 so occupancy fits one `u64` bitmap).
const SLOTS: usize = 64;
const SLOT_MASK: u64 = 63;
/// Bit shift from nanoseconds to slot index, per level. Adjacent levels
/// differ by exactly 6 bits (= log2 SLOTS), which is what guarantees a
/// cascading event always lands at a strictly finer level.
///
/// A wheel is cheap only when level 0 spans the common timer intervals:
/// an event placed there is drained without ever cascading. The cluster
/// model's delays set the geometry:
///
/// * a level-0 slot (2^16 ns ≈ 65 µs) stays below the 100 µs hop, so a
///   drained slot holds less than one hop's worth of events to sort;
/// * level 0 (≈ 4.2 ms) covers the per-request delays — the hop and the
///   300 µs three-hop handshake — so they never cascade;
/// * level 1 (≈ 268 ms) covers both periodic cycles, the 10 ms
///   scheduling tick and the 100 ms accounting tick, so each cascades
///   exactly once.
///
/// Measured cascades per simulated second, perfbench `--seconds 1
/// --trace 1 --seed 7`: `regime` 2,422 with level-0 shift 10 (65 µs
/// span: nearly every event parked at level 1), 603 with shift 14, 218
/// with this geometry; `sharded` 5,720 / 917 / 238.
#[doc(hidden)]
pub const SHIFTS: [u32; LEVELS] = [16, 22, 28, 34, 40, 46];
/// Span of one level-0 slot in nanoseconds.
const GRANULARITY: u64 = 1 << SHIFTS[0];

/// Operational counters for the event queue, exposed through the gage-obs
/// registry and `tracedump --stats` so wheel behavior is visible in the
/// existing observability output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Pending (scheduled, not yet fired or cancelled) events.
    pub depth: u64,
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events cancelled before firing.
    pub cancelled: u64,
    /// Coarse-slot redistributions (including overflow redistributions).
    pub cascades: u64,
    /// Tombstone compaction sweeps.
    pub compactions: u64,
}

#[derive(Debug)]
struct Entry<E> {
    /// Firing time in nanoseconds.
    at: u64,
    /// Monotonic schedule order, the deterministic FIFO tie-break.
    seq: u64,
    /// Liveness handle; a key that no longer resolves marks a tombstone.
    key: SlabKey,
    event: E,
}

#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// Bit *i* set ⇔ `slots[i]` is non-empty.
    occ: u64,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: 0,
        }
    }
}

/// The wheel proper. [`EventQueue`](crate::EventQueue) wraps this with the
/// `SimTime`/`EventId` surface.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    levels: Vec<Level<E>>,
    /// Sorted `(at, seq)` run of events that fire before `cursor`; pops
    /// come from here. Refilled by draining the next occupied slot.
    front: VecDeque<Entry<E>>,
    /// Events beyond the top level's horizon.
    overflow: Vec<Entry<E>>,
    overflow_min: u64,
    /// Wheel time floor: every stored (non-front) event fires at or after
    /// this instant. Always a multiple of [`GRANULARITY`].
    cursor: u64,
    /// One live marker per pending event; same insert/remove ordering as
    /// the old heap implementation, so handles are bit-identical.
    live: Slab<()>,
    /// Tombstones currently buried in storage.
    tombs: usize,
    /// Entry records currently held across front/slots/overflow. Kept
    /// exactly equal to [`stored_entries`](Self::stored_entries) so the
    /// compaction trigger is O(1) per cancel instead of a 384-slot walk.
    stored: usize,
    /// Recycled slot buffer: drains swap a slot's `Vec` against this so
    /// neither side ever gives its capacity back to the allocator.
    scratch: Vec<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    cascades: u64,
    compactions: u64,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            front: VecDeque::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cursor: 0,
            live: Slab::new(),
            tombs: 0,
            stored: 0,
            scratch: Vec::new(),
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            cascades: 0,
            compactions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub(crate) fn stats(&self) -> QueueStats {
        debug_assert_eq!(self.stored, self.stored_entries());
        QueueStats {
            depth: self.live.len() as u64,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            cascades: self.cascades,
            compactions: self.compactions,
        }
    }

    /// Stored records including tombstones — what compaction bounds.
    pub(crate) fn stored_entries(&self) -> usize {
        self.front.len()
            + self.overflow.len()
            + self
                .levels
                .iter()
                .map(|l| l.slots.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>()
    }

    pub(crate) fn schedule(&mut self, at: u64, event: E) -> SlabKey {
        let seq = self.reserve(1);
        self.schedule_ranked(at, seq, event)
    }

    /// Reserves `n` consecutive tie-break ranks and returns the first. A
    /// rank handed out here orders exactly like the `seq` a plain
    /// [`schedule`](Self::schedule) at this point would have taken.
    pub(crate) fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules with a rank from [`reserve`](Self::reserve) instead of the
    /// next sequence number.
    pub(crate) fn schedule_ranked(&mut self, at: u64, seq: u64, event: E) -> SlabKey {
        debug_assert!(seq < self.next_seq, "rank {seq} was never reserved");
        self.scheduled_total += 1;
        let key = self.live.insert(());
        self.place(Entry {
            at,
            seq,
            key,
            event,
        });
        key
    }

    pub(crate) fn cancel(&mut self, key: SlabKey) -> bool {
        if self.live.remove(key).is_none() {
            return false;
        }
        self.tombs += 1;
        self.cancelled_total += 1;
        self.maybe_compact();
        true
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, SlabKey, E)> {
        loop {
            if let Some(e) = self.front.pop_front() {
                self.stored -= 1;
                if self.live.remove(e.key).is_some() {
                    return Some((e.at, e.key, e.event));
                }
                self.tombs = self.tombs.saturating_sub(1);
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    pub(crate) fn peek(&mut self) -> Option<u64> {
        loop {
            if let Some(e) = self.front.front() {
                if self.live.contains(e.key) {
                    return Some(e.at);
                }
                self.front.pop_front();
                self.stored -= 1;
                self.tombs = self.tombs.saturating_sub(1);
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Routes an entry to the front run, a wheel slot, or overflow.
    fn place(&mut self, e: Entry<E>) {
        self.stored += 1;
        if e.at < self.cursor {
            // Late insert (schedule into the already-drained window, e.g.
            // at the current instant after its slot was drained): keep the
            // front run sorted by `(at, seq)`. A reserved rank can be older
            // than equal-time siblings already in the run, so `at` alone
            // is not enough to place it.
            let pos = self
                .front
                .partition_point(|f| (f.at, f.seq) < (e.at, e.seq));
            self.front.insert(pos, e);
            return;
        }
        for (l, &shift) in SHIFTS.iter().enumerate() {
            if (e.at >> shift) - (self.cursor >> shift) < SLOTS as u64 {
                let idx = ((e.at >> shift) & SLOT_MASK) as usize;
                let level = &mut self.levels[l];
                level.slots[idx].push(e);
                level.occ |= 1 << idx;
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(e.at);
        self.overflow.push(e);
    }

    /// Drains or cascades the occupied slot with the smallest start time.
    /// Returns `false` when nothing is stored anywhere (queue exhausted).
    fn advance(&mut self) -> bool {
        // Find the minimum slot start across all levels. On a tie, the
        // COARSER level must go first: its slot spans the finer one, so
        // its events may fire inside the finer slot's window and have to
        // redistribute before that window is drained and sealed. Levels
        // are scanned fine to coarse, so a later equal start replaces the
        // earlier one (`<`, not `<=`); overflow is coarsest of all.
        let mut best: Option<(u64, usize)> = None;
        for (l, level) in self.levels.iter().enumerate() {
            if level.occ == 0 {
                continue;
            }
            let shift = SHIFTS[l];
            let base = (self.cursor >> shift) & SLOT_MASK;
            let dist = level.occ.rotate_right(base as u32).trailing_zeros() as u64;
            let start = ((self.cursor >> shift) + dist) << shift;
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, l)),
            }
        }
        if !self.overflow.is_empty() {
            let start = self.overflow_min & !(GRANULARITY - 1);
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, LEVELS)),
            }
        }
        let Some((start, l)) = best else {
            return false;
        };

        // Every branch swaps the drained store against `scratch` instead of
        // `std::mem::take`-ing it, so slot buffers keep their capacity and a
        // steady-state run stops touching the allocator entirely.
        let mut batch = std::mem::take(&mut self.scratch);
        if l == LEVELS {
            // Overflow redistribution: the clock has caught up with the
            // parked horizon. The earliest parked event now fits the top
            // level (the cursor's high bits match its own), so this makes
            // progress even if most of the list parks again.
            self.cascades += 1;
            self.cursor = self.cursor.max(start);
            std::mem::swap(&mut batch, &mut self.overflow);
            self.overflow_min = u64::MAX;
            self.stored -= batch.len();
            self.replace_live(&mut batch);
        } else if l > 0 {
            // Coarse slot: advance the cursor to the slot start, then
            // redistribute. With the cursor at the slot start every event
            // in it is within 64 slots of the cursor at level l−1, so each
            // lands at a strictly finer level — the cascade terminates.
            self.cascades += 1;
            self.cursor = self.cursor.max(start);
            let idx = ((start >> SHIFTS[l]) & SLOT_MASK) as usize;
            if let Some(level) = self.levels.get_mut(l) {
                std::mem::swap(&mut batch, &mut level.slots[idx]);
                level.occ &= !(1 << idx);
            }
            self.stored -= batch.len();
            self.replace_live(&mut batch);
        } else {
            // Fine slot: everything in [start, start + GRANULARITY) fires
            // before anything still stored (no coarser slot can start
            // inside this window — all slot starts are multiples of the
            // fine granularity). Sort by (at, seq) and seal the window.
            let idx = ((start / GRANULARITY) & SLOT_MASK) as usize;
            self.cursor = self.cursor.max(start + GRANULARITY);
            if let Some(fine) = self.levels.first_mut() {
                std::mem::swap(&mut batch, &mut fine.slots[idx]);
                fine.occ &= !(1 << idx);
            }
            batch.retain(|e| {
                let alive = self.live.contains(e.key);
                if !alive {
                    self.tombs = self.tombs.saturating_sub(1);
                    self.stored -= 1;
                }
                alive
            });
            batch.sort_unstable_by_key(|e| (e.at, e.seq));
            self.front.extend(batch.drain(..));
        }
        self.scratch = batch;
        true
    }

    /// Re-places a drained batch, dropping tombstones on the way. Drains in
    /// place so the caller keeps the buffer's capacity for reuse.
    fn replace_live(&mut self, entries: &mut Vec<Entry<E>>) {
        for e in entries.drain(..) {
            if self.live.contains(e.key) {
                self.place(e);
            } else {
                self.tombs = self.tombs.saturating_sub(1);
            }
        }
    }

    /// Prunes tombstones from every store once they dominate it, so a
    /// cancel-heavy workload (timers disarmed by ACKs) cannot grow storage
    /// past a small multiple of the live event count. Relative order within
    /// each store is preserved, so pop order is unaffected.
    fn maybe_compact(&mut self) {
        if self.tombs <= 64 || self.tombs * 2 <= self.stored {
            return;
        }
        let live = &self.live;
        self.front.retain(|e| live.contains(e.key));
        self.overflow.retain(|e| live.contains(e.key));
        self.overflow_min = self.overflow.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
        for level in &mut self.levels {
            if level.occ == 0 {
                continue;
            }
            let mut occ = 0u64;
            for (i, slot) in level.slots.iter_mut().enumerate() {
                slot.retain(|e| live.contains(e.key));
                if !slot.is_empty() {
                    occ |= 1 << i;
                }
            }
            level.occ = occ;
        }
        self.tombs = 0;
        self.stored = self.stored_entries();
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(at, _, ev)| (at, ev))).collect()
    }

    /// The level whose slots hold the entry firing at `at` (`LEVELS` for
    /// the overflow list), or `None` if no stored slot holds it.
    fn level_of(w: &TimingWheel<u64>, at: u64) -> Option<usize> {
        if w.overflow.iter().any(|e| e.at == at) {
            return Some(LEVELS);
        }
        w.levels
            .iter()
            .position(|l| l.slots.iter().flatten().any(|e| e.at == at))
    }

    #[test]
    fn multi_level_placement_and_cascade() {
        let mut w = TimingWheel::new();
        // From the cursor at 0: one event 32 slots into each level (past
        // the 64-slot span of the level below), one at the very end of the
        // top span, and one just beyond it, in overflow.
        let top = SHIFTS[LEVELS - 1] + 6;
        let mut times: Vec<(u64, usize)> = SHIFTS
            .iter()
            .enumerate()
            .map(|(l, &shift)| (1u64 << (shift + 5), l))
            .collect();
        times.push(((1 << top) - 1, LEVELS - 1));
        times.push((1 << top, LEVELS));
        for (i, &(t, _)) in times.iter().enumerate() {
            w.schedule(t, i as u64);
        }
        for &(t, level) in &times {
            assert_eq!(level_of(&w, t), Some(level), "event at {t} ns");
        }
        let popped = drain(&mut w);
        let ats: Vec<u64> = popped.iter().map(|&(at, _)| at).collect();
        let want: Vec<u64> = times.iter().map(|&(t, _)| t).collect();
        assert_eq!(ats, want, "cascades must preserve time order");
        assert!(w.stats().cascades > 0);
    }

    /// The geometry's reason: the cluster model's per-request delays (a
    /// 100 µs hop, the 300 µs three-hop handshake) land at level 0 and so
    /// never cascade; the 10 ms scheduling and 100 ms accounting cycles
    /// park at level 1 and cascade once each.
    #[test]
    fn model_delays_place_at_the_level_that_drains_them() {
        let mut w = TimingWheel::new();
        // Move the cursor to a point that is not slot-aligned.
        let now = 7_777_777;
        w.schedule(now, 0);
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(now));
        let before = w.stats().cascades;
        let hop = now + 100_000;
        let handshake = now + 300_000;
        let cycle = now + 10_000_000;
        let acct = now + 100_000_000;
        w.schedule(hop, 1);
        w.schedule(handshake, 2);
        w.schedule(cycle, 3);
        w.schedule(acct, 4);
        assert_eq!(level_of(&w, hop), Some(0));
        assert_eq!(level_of(&w, handshake), Some(0));
        assert_eq!(level_of(&w, cycle), Some(1));
        assert_eq!(level_of(&w, acct), Some(1));
        assert_eq!(
            drain(&mut w),
            vec![(hop, 1), (handshake, 2), (cycle, 3), (acct, 4)]
        );
        assert_eq!(w.stats().cascades - before, 2, "only the cycles cascade");
    }

    #[test]
    fn same_fine_slot_sorts_by_time_then_seq() {
        let mut w = TimingWheel::new();
        // All inside one level-0 slot, scheduled out of order.
        w.schedule(900, 2);
        w.schedule(100, 0);
        w.schedule(900, 3);
        w.schedule(500, 1);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
    }

    #[test]
    fn late_insert_lands_in_sorted_front() {
        let mut w = TimingWheel::new();
        w.schedule(10, 0);
        w.schedule(2_000_000, 9);
        // Peeking drains slot 0 into the front and advances the cursor.
        assert_eq!(w.peek(), Some(10));
        // A schedule behind the cursor must still pop in time order.
        w.schedule(5, 100);
        w.schedule(10, 1);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, vec![100, 0, 1, 9]);
    }

    #[test]
    fn late_ranked_insert_sorts_by_time_then_seq() {
        let mut w = TimingWheel::new();
        let rank = w.reserve(1);
        w.schedule(10, 1);
        w.schedule(10, 2);
        // Drains slot 0 into the front: the cursor is past instant 10.
        assert_eq!(w.peek(), Some(10));
        // The reserved rank predates both siblings at the same instant, so
        // it must pop before them, not after.
        w.schedule_ranked(10, rank, 0);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, vec![0, 1, 2]);
    }

    #[test]
    fn coarse_slot_cascades_before_a_fine_slot_with_the_same_start() {
        let mut w = TimingWheel::new();
        let fine = 1u64 << SHIFTS[0];
        let coarse = 1u64 << SHIFTS[1];
        // 64 fine slots ahead of the cursor: parked at level 1, in the
        // first fine window [coarse, coarse + fine) of level-1 slot 1.
        let parked = coarse + 14;
        let early = coarse / 8 * 5;
        w.schedule(parked, 1);
        w.schedule(early, 0);
        assert_eq!(level_of(&w, parked), Some(1));
        assert_eq!(level_of(&w, early), Some(0));
        assert_eq!(w.pop().map(|(at, _, e)| (at, e)), Some((early, 0)));
        // The cursor moved on, so the same window now fits level 0: both
        // levels hold a slot starting at `coarse`.
        let late = coarse + 64;
        assert!(late < coarse + fine);
        w.schedule(late, 2);
        assert_eq!(level_of(&w, late), Some(0));
        assert_eq!(level_of(&w, parked), Some(1));
        assert_eq!(drain(&mut w), vec![(parked, 1), (late, 2)]);
    }

    #[test]
    fn overflow_redistributes_when_clock_catches_up() {
        let mut w = TimingWheel::new();
        // Just beyond the top level's span from the cursor at 0.
        let far = 1u64 << (SHIFTS[LEVELS - 1] + 6);
        w.schedule(far, 1);
        w.schedule(far + 5, 2);
        w.schedule(3, 0);
        assert_eq!(level_of(&w, far), Some(LEVELS));
        let popped = drain(&mut w);
        assert_eq!(popped, vec![(3, 0), (far, 1), (far + 5, 2)]);
        assert!(w.overflow.is_empty());
    }

    #[test]
    fn compaction_prunes_all_stores() {
        let mut w = TimingWheel::new();
        let mut keys = Vec::new();
        // Spread across levels and overflow (4× the top span).
        let horizon = 1u64 << (SHIFTS[LEVELS - 1] + 8);
        for i in 0..5_000u64 {
            keys.push(w.schedule(i * 1_000_003 % horizon, i));
        }
        for k in keys {
            assert!(w.cancel(k));
        }
        assert!(w.is_empty());
        assert!(
            w.stored_entries() < 200,
            "compaction left {} tombstones",
            w.stored_entries()
        );
        assert!(w.stats().compactions > 0);
        w.schedule(7, 42);
        assert_eq!(w.pop().map(|(_, _, e)| e), Some((7, 42)).map(|x| x.1));
    }
}
