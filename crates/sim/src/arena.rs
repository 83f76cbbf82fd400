//! Flat per-destination message arena for the superstep delivery path.
//!
//! A [`MsgArena`] replaces the `Vec<Vec<M>>` inbox-of-inboxes: one backing
//! `Vec<M>` holds every message delivered at a superstep boundary, and a
//! per-destination segment table marks each destination's contiguous slice.
//! The engines keep two arenas and *swap* them every superstep (read last
//! boundary's deliveries from one, fill the other), so at steady state the
//! backing storage is reused and a superstep performs no inbox allocations
//! at all, however many messages it moves.
//!
//! Filling is a two-pass protocol:
//!
//! 1. **Counting pass** — the engine walks its outboxes (and fault fates,
//!    retained inboxes and due late arrivals) once, accumulating the exact
//!    number of payloads each destination will receive — either straight
//!    into the segment table ([`MsgArena::count`], opened by
//!    [`MsgArena::begin_counted`]) or into an epoch-stamped table opened by
//!    [`MsgArena::begin_sparse`]. Both lay the segments out by prefix sum
//!    and arm one write cursor per counted destination.
//! 2. **Placement pass** — the engine replays its *sequential delivery
//!    order* (source pid, then send order, then due arrivals), calling
//!    [`MsgArena::place`] for each payload. Because segment `d` is written
//!    only by deliveries to `d`, and those deliveries occur in the same
//!    relative order as the replay, each destination's slice ends up in
//!    exactly the order the old per-destination `Vec::push` produced — the
//!    order the fault ledger, pending queue, and byte-identical trace
//!    contract are defined by. [`MsgArena::finish`] then asserts every
//!    reserved slot was filled and publishes the segments.
//!
//! ## Epoch-stamped segments
//!
//! Segment validity is tracked by an epoch stamp per destination instead of
//! a dense offset table zeroed every superstep: a destination's segment is
//! meaningful only if its stamp equals the arena's current epoch, and both
//! [`MsgArena::clear`] and [`MsgArena::begin_sparse`] reset the arena by
//! bumping the epoch — O(1), never an O(p) `fill(0)`. Both fills lay out
//! segments for *only the counted destinations*, so a whole fill costs
//! O(touched + messages) regardless of `p`. Unstamped
//! destinations read as empty. The arena also publishes the list of
//! destinations that received at least one message ([`MsgArena::touched`]),
//! which is how the sparse engines seed the next superstep's frontier
//! without scanning all `p` inboxes. Segments are laid out in first-touch
//! (counting) order, which is deterministic because the counting pass is
//! sequential; the layout order is unobservable anyway — `inbox(d)` content
//! and order depend only on the placement replay.
//!
//! ## Safety
//!
//! During a fill the backing vector's length stays 0 while `place` writes
//! initialized payloads into reserved capacity through raw pointers; the
//! cursor bound check (a hard assert, not a debug assert) keeps every write
//! inside its destination's segment and therefore inside the reservation.
//! If the engine panics mid-fill, already-placed payloads are leaked — never
//! double-dropped — because the vector still reports length 0. `finish`
//! publishes the length only after checking that the number of placements
//! equals the reserved total, so no uninitialized slot is ever readable.

use pbw_models::{EpochCounts, FrontierMask};

/// One destination's segment metadata, interleaved so the layout pass, the
/// placement cursor bump, and the inbox read each touch a single cache line
/// per destination instead of one line in each of four parallel arrays.
/// All four fields are `u32` — 16 bytes per destination, four per cache
/// line — which halves the memory traffic of the counting and layout
/// sweeps. A fill is capped at `u32::MAX` payloads (enforced in the layout
/// passes); any larger superstep would hold tens of gigabytes of envelopes
/// in memory before ever reaching the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    /// Start of the segment (valid iff `stamp` equals the arena epoch).
    start: u32,
    /// One-past-the-end of the segment (same validity rule). Doubles as the
    /// count accumulator between [`MsgArena::count`] and
    /// [`MsgArena::begin_counted`].
    end: u32,
    /// Next write index during a fill.
    cursor: u32,
    /// Epoch at which this segment was last laid out.
    stamp: u32,
}

/// A reusable flat message store with one contiguous segment per
/// destination and O(1) reset.
#[derive(Debug)]
pub(crate) struct MsgArena<M> {
    /// Backing storage; `len()` is 0 while a fill is open, the segment total
    /// once published.
    data: Vec<M>,
    /// Per-destination segment table.
    segs: Vec<Seg>,
    /// Current epoch; bumped by `clear` and `begin_sparse`. A `u32`
    /// can wrap within a very long run, so the bump hard-resets every stamp
    /// when it does (once per ~4G resets) — stale stamps never alias.
    epoch: u32,
    /// Destinations holding at least one message this fill, as a bitset
    /// mask (cleared by an O(1) epoch bump alongside the arena's own).
    touched: FrontierMask,
    /// Total payloads reserved by the open (or last published) fill.
    total: usize,
    /// Payloads placed since `begin`.
    placed: usize,
    /// Whether a fill is open (`begin` called, `finish` not yet).
    filling: bool,
}

impl<M> MsgArena<M> {
    /// An empty arena with `p` destinations: every segment is empty.
    pub(crate) fn new(p: usize) -> Self {
        Self {
            data: Vec::new(),
            // Stamps start below the first epoch, so every destination is
            // unstamped (empty) until a fill lays it out.
            segs: vec![Seg::default(); p],
            epoch: 1,
            touched: FrontierMask::new(p),
            total: 0,
            placed: 0,
            filling: false,
        }
    }

    /// Number of destinations.
    pub(crate) fn dests(&self) -> usize {
        self.segs.len()
    }

    /// Drop all stored payloads and reset every segment to empty, in O(1):
    /// the epoch bump invalidates every stamp at once. Keeps the backing
    /// capacity.
    pub(crate) fn clear(&mut self) {
        debug_assert!(!self.filling, "clear during an open fill");
        self.data.clear();
        self.bump_epoch();
        self.touched.clear();
        self.total = 0;
        self.placed = 0;
        self.filling = false;
    }

    /// Invalidate every stamp by bumping the epoch. On the (once per ~4G
    /// resets) wrap, hard-reset every stamp instead, so a stale segment can
    /// never alias the restarted counter.
    #[inline]
    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            for seg in &mut self.segs {
                seg.stamp = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Open a fill from an epoch-stamped count table, laying out segments
    /// for *only the counted destinations* — O(touched), not O(p). Every
    /// other destination reads as empty (its stamp stays stale). Segments
    /// are laid out in ascending destination order (the counts' mask
    /// iteration order); the layout order is unobservable — `inbox(d)`
    /// addresses each segment through its own start/end, never through its
    /// neighbours.
    ///
    /// Returns the largest single segment laid out (0 when none): the
    /// layout walk reads every count anyway, and on the unhooked path that
    /// maximum *is* the superstep's max receive count, which saves the
    /// engine a second sweep over the touched set.
    ///
    /// # Panics
    /// Panics if `counts.len() != dests()` or a fill is already open.
    pub(crate) fn begin_sparse(&mut self, counts: &EpochCounts) -> u64 {
        assert_eq!(
            counts.len(),
            self.dests(),
            "count table must cover every destination"
        );
        assert!(!self.filling, "begin while a fill is already open");
        self.data.clear();
        self.bump_epoch();
        self.touched.clear();
        let mut total = 0usize;
        let mut max_seg = 0usize;
        // Walk the dirty mask one leaf word at a time, accumulating the
        // non-empty destinations of each block into a word OR'd in with one
        // `insert_word` — the per-destination two-level `insert` was a
        // measurable cost at high message rates.
        for (leaf, word) in counts.touched().words() {
            let mut bits = word;
            let mut nonempty = 0u64;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let d = leaf * 64 + bit as usize;
                let c = counts.get(d) as usize;
                let seg = &mut self.segs[d];
                seg.stamp = self.epoch;
                seg.start = total as u32;
                seg.cursor = total as u32;
                total += c;
                seg.end = total as u32;
                max_seg = max_seg.max(c);
                nonempty |= u64::from(c > 0) << bit;
            }
            self.touched.insert_word(leaf, nonempty);
        }
        assert!(
            total <= u32::MAX as usize,
            "fill exceeds u32 payload indexing"
        );
        self.data.reserve(total);
        self.total = total;
        self.placed = 0;
        self.filling = true;
        max_seg as u64
    }

    /// Counting-phase alternative to an external count table: accumulate
    /// `n` payloads for `dest` directly into the segment table (`end`
    /// doubles as the count accumulator until [`MsgArena::begin_counted`]
    /// converts the counts to offsets by prefix sum). Must run between
    /// [`MsgArena::clear`] and `begin_counted`. A zero increment on a
    /// never-counted destination is a no-op: the destination stays
    /// unstamped and reads as empty, exactly as if it were laid out with an
    /// empty segment.
    #[inline]
    pub(crate) fn count(&mut self, dest: usize, n: usize) {
        debug_assert!(!self.filling, "count during an open fill");
        if n == 0 {
            return;
        }
        let seg = &mut self.segs[dest];
        if seg.stamp != self.epoch {
            seg.stamp = self.epoch;
            seg.end = n as u32;
            self.touched.insert(dest);
        } else {
            seg.end += n as u32;
        }
    }

    /// Count one payload for every destination in `dests` — the batched
    /// form of [`MsgArena::count`]`(d, 1)`, with the epoch hoisted. This is
    /// the unhooked sparse path's per-sender counting kernel.
    pub(crate) fn count_ones(&mut self, dests: &[usize]) {
        debug_assert!(!self.filling, "count during an open fill");
        let epoch = self.epoch;
        // Newly touched destinations are accumulated one leaf word at a
        // time and flushed with a single `insert_word` per run — for the
        // (typical) ascending destination lanes this replaces a two-level
        // mask insert per destination with one per 64. `insert_word` ORs,
        // so revisiting a leaf after a non-monotonic jump still lands every
        // bit.
        let mut cur_leaf = usize::MAX;
        let mut cur_bits = 0u64;
        for &d in dests {
            let seg = &mut self.segs[d];
            if seg.stamp != epoch {
                seg.stamp = epoch;
                seg.end = 1;
                let leaf = d / 64;
                if leaf != cur_leaf {
                    if cur_bits != 0 {
                        self.touched.insert_word(cur_leaf, cur_bits);
                    }
                    cur_leaf = leaf;
                    cur_bits = 0;
                }
                cur_bits |= 1u64 << (d % 64);
            } else {
                seg.end += 1;
            }
        }
        if cur_bits != 0 {
            self.touched.insert_word(cur_leaf, cur_bits);
        }
    }

    /// Open a fill from the counts accumulated by [`MsgArena::count`] /
    /// [`MsgArena::count_ones`]: one in-place prefix-sum walk over the
    /// touched mask turns each count into its segment bounds. The epoch is
    /// *not* bumped (the accumulated stamps must stay valid) — the
    /// counterpart of [`MsgArena::begin_sparse`] without the external count
    /// table, saving a second per-destination tally structure and the
    /// read-back walk over it.
    ///
    /// Returns the largest single segment laid out (0 when none), as
    /// [`MsgArena::begin_sparse`] does.
    ///
    /// # Panics
    /// Panics if a fill is already open.
    pub(crate) fn begin_counted(&mut self) -> u64 {
        assert!(!self.filling, "begin while a fill is already open");
        self.data.clear();
        let mut total = 0usize;
        let mut max_seg = 0usize;
        let Self {
            ref touched,
            ref mut segs,
            ..
        } = *self;
        for (leaf, word) in touched.words() {
            let base = leaf * 64;
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let seg = &mut segs[base + bit as usize];
                let c = seg.end as usize;
                seg.start = total as u32;
                seg.cursor = total as u32;
                total += c;
                seg.end = total as u32;
                max_seg = max_seg.max(c);
            }
        }
        assert!(
            total <= u32::MAX as usize,
            "fill exceeds u32 payload indexing"
        );
        self.data.reserve(total);
        self.total = total;
        self.placed = 0;
        self.filling = true;
        max_seg as u64
    }

    /// Place the next payload for `dest`, in delivery order.
    ///
    /// # Panics
    /// Panics if no fill is open, `dest` was never counted by this fill, or
    /// `dest`'s segment is already full (either of which would mean the
    /// counting pass and the delivery replay disagree).
    #[inline]
    pub(crate) fn place(&mut self, dest: usize, payload: M) {
        assert!(self.filling, "place outside an open fill");
        let seg = &mut self.segs[dest];
        assert!(
            seg.stamp == self.epoch,
            "delivery to destination {dest}, which the counting pass never counted"
        );
        let cursor = seg.cursor;
        assert!(
            cursor < seg.end,
            "delivery overflows destination {dest}'s counted segment"
        );
        seg.cursor = cursor + 1;
        // SAFETY: `begin`/`begin_sparse` reserved capacity for the segment
        // total; the stamp assert proves `seg.end` belongs to this fill's
        // layout, and the cursor assert keeps the write strictly inside it
        // (hence inside the reservation). The length is still 0, so this
        // writes an initialized value into reserved, unobservable capacity
        // (leaked, not double-dropped, on panic).
        unsafe { self.data.as_mut_ptr().add(cursor as usize).write(payload) };
        self.placed += 1;
    }

    /// Close the fill and publish the segments.
    ///
    /// # Panics
    /// Panics if the number of placements differs from the reserved total —
    /// every counted slot must have been filled.
    pub(crate) fn finish(&mut self) {
        assert!(self.filling, "finish without an open fill");
        assert_eq!(
            self.placed, self.total,
            "counting pass and delivery replay disagree"
        );
        // SAFETY: exactly `total` slots were initialized by `place` (one per
        // placement, each at a distinct index by the per-destination cursor
        // discipline) into capacity reserved when the fill was opened.
        unsafe { self.data.set_len(self.total) };
        self.filling = false;
    }

    /// Destination `d`'s messages, in delivery order. Unstamped
    /// destinations (never counted by the last fill, or cleared) are empty.
    ///
    /// # Panics
    /// Panics if a fill is open.
    #[inline]
    pub(crate) fn inbox(&self, d: usize) -> &[M] {
        assert!(!self.filling, "inbox read during an open fill");
        let seg = &self.segs[d];
        if seg.stamp == self.epoch {
            &self.data[seg.start as usize..seg.end as usize]
        } else {
            &[]
        }
    }

    /// Number of messages stored for destination `d`.
    #[inline]
    pub(crate) fn len(&self, d: usize) -> usize {
        let seg = &self.segs[d];
        if seg.stamp == self.epoch {
            (seg.end - seg.start) as usize
        } else {
            0
        }
    }

    /// Destinations holding at least one message in the current fill, as a
    /// bitset. The sparse engines union this mask into the next superstep's
    /// frontier word-at-a-time, without scanning all `p` inboxes — and
    /// without the sort the old first-touch-ordered list forced on them.
    #[inline]
    pub(crate) fn touched(&self) -> &FrontierMask {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open a fill from a dense count table (one entry per destination)
    /// through the engines' count/`begin_counted` protocol.
    fn begin_dense<M>(a: &mut MsgArena<M>, counts: &[usize]) {
        a.clear();
        for (d, &c) in counts.iter().enumerate() {
            a.count(d, c);
        }
        a.begin_counted();
    }

    #[test]
    fn fresh_arena_has_empty_inboxes() {
        let a: MsgArena<u32> = MsgArena::new(4);
        assert_eq!(a.dests(), 4);
        for d in 0..4 {
            assert!(a.inbox(d).is_empty());
            assert_eq!(a.len(d), 0);
        }
        assert!(a.touched().is_empty());
    }

    #[test]
    fn fill_preserves_interleaved_delivery_order() {
        let mut a: MsgArena<u32> = MsgArena::new(3);
        begin_dense(&mut a, &[2, 0, 3]);
        // Delivery order interleaves destinations, as the engines' replay
        // does.
        a.place(2, 20);
        a.place(0, 1);
        a.place(2, 21);
        a.place(0, 2);
        a.place(2, 22);
        a.finish();
        assert_eq!(a.inbox(0), &[1, 2]);
        assert_eq!(a.inbox(1), &[] as &[u32]);
        assert_eq!(a.inbox(2), &[20, 21, 22]);
        assert_eq!(a.touched().iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn refill_reuses_without_stale_contents() {
        let mut a: MsgArena<String> = MsgArena::new(2);
        begin_dense(&mut a, &[1, 1]);
        a.place(0, "a".into());
        a.place(1, "b".into());
        a.finish();
        begin_dense(&mut a, &[0, 2]);
        a.place(1, "c".into());
        a.place(1, "d".into());
        a.finish();
        assert!(a.inbox(0).is_empty());
        assert_eq!(a.inbox(1), &["c".to_string(), "d".to_string()]);
    }

    #[test]
    fn clear_empties_every_segment() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        begin_dense(&mut a, &[1, 1]);
        a.place(0, 1);
        a.place(1, 2);
        a.finish();
        a.clear();
        assert!(a.inbox(0).is_empty());
        assert!(a.inbox(1).is_empty());
        assert!(a.touched().is_empty());
    }

    #[test]
    fn sparse_fill_lays_out_only_counted_destinations() {
        let mut counts = EpochCounts::new(8);
        counts.add(6, 2);
        counts.add(1, 1);
        counts.add(4, 0); // counted but empty: enumerable, holds nothing
        let mut a: MsgArena<u32> = MsgArena::new(8);
        a.begin_sparse(&counts);
        a.place(6, 60);
        a.place(1, 10);
        a.place(6, 61);
        a.finish();
        assert_eq!(a.inbox(6), &[60, 61]);
        assert_eq!(a.inbox(1), &[10]);
        assert!(a.inbox(4).is_empty());
        // Never-counted destinations read as empty through the stale stamp.
        assert!(a.inbox(0).is_empty());
        assert_eq!(a.len(0), 0);
        // Only message-holding destinations are published as touched.
        assert_eq!(a.touched().iter().collect::<Vec<_>>(), vec![1, 6]);
    }

    #[test]
    fn sparse_refill_invalidates_previous_segments() {
        let mut counts = EpochCounts::new(4);
        counts.add(2, 1);
        let mut a: MsgArena<u8> = MsgArena::new(4);
        a.begin_sparse(&counts);
        a.place(2, 9);
        a.finish();
        assert_eq!(a.inbox(2), &[9]);
        counts.reset();
        counts.add(0, 1);
        a.begin_sparse(&counts);
        a.place(0, 7);
        a.finish();
        // Destination 2's old segment is stale, not re-served.
        assert!(a.inbox(2).is_empty());
        assert_eq!(a.inbox(0), &[7]);
    }

    #[test]
    #[should_panic(expected = "never counted")]
    fn placing_to_an_uncounted_destination_panics() {
        let mut counts = EpochCounts::new(4);
        counts.add(1, 1);
        let mut a: MsgArena<u8> = MsgArena::new(4);
        a.begin_sparse(&counts);
        a.place(3, 1);
    }

    #[test]
    #[should_panic(expected = "counted segment")]
    fn overflowing_a_segment_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(2);
        begin_dense(&mut a, &[1, 0]);
        a.place(0, 1);
        a.place(0, 2);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn underfilling_panics_at_finish() {
        let mut a: MsgArena<u8> = MsgArena::new(1);
        begin_dense(&mut a, &[2]);
        a.place(0, 1);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "open fill")]
    fn inbox_read_during_fill_panics() {
        let mut a: MsgArena<u8> = MsgArena::new(1);
        begin_dense(&mut a, &[1]);
        let _ = a.inbox(0);
    }

    #[test]
    fn steady_state_refill_does_not_grow() {
        let mut a: MsgArena<u64> = MsgArena::new(8);
        let counts = [4usize; 8];
        for round in 0..3 {
            begin_dense(&mut a, &counts);
            for d in 0..8 {
                for k in 0..4 {
                    a.place(d, (round * 100 + d * 10 + k) as u64);
                }
            }
            a.finish();
        }
        let cap_after_warmup = a.data.capacity();
        for round in 3..10 {
            begin_dense(&mut a, &counts);
            for d in 0..8 {
                for k in 0..4 {
                    a.place(d, (round * 100 + d * 10 + k) as u64);
                }
            }
            a.finish();
        }
        assert_eq!(a.data.capacity(), cap_after_warmup);
        assert_eq!(a.inbox(7)[3], 973);
    }

    #[test]
    fn dense_and_sparse_fills_serve_identical_inboxes() {
        let mut dense: MsgArena<u32> = MsgArena::new(6);
        begin_dense(&mut dense, &[0, 2, 0, 0, 1, 0]);
        dense.place(4, 40);
        dense.place(1, 11);
        dense.place(1, 12);
        dense.finish();
        let mut counts = EpochCounts::new(6);
        counts.add(4, 1);
        counts.add(1, 2);
        let mut sparse: MsgArena<u32> = MsgArena::new(6);
        sparse.begin_sparse(&counts);
        sparse.place(4, 40);
        sparse.place(1, 11);
        sparse.place(1, 12);
        sparse.finish();
        for d in 0..6 {
            assert_eq!(dense.inbox(d), sparse.inbox(d), "dest {d}");
            assert_eq!(dense.len(d), sparse.len(d), "dest {d}");
        }
    }
}
