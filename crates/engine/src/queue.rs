//! A deterministic event calendar.
//!
//! The queue is a *bucketed calendar*: events scheduled within the near
//! future land in a ring of per-cycle buckets (finding the earliest one
//! is a bitmap scan), while far-future events wait in a small sorted
//! overflow heap and migrate into the ring as the window advances.
//!
//! A bucket is a chain of fixed-size blocks holding its `(key, event)`
//! entries by value in push order, so a push is an O(1) append with no
//! comparison. When a timestamp becomes current, the pop copies that
//! bucket's entries into a `ready` batch, frees its blocks, sorts the
//! batch once by key, and serves the following pops from it. A push at
//! the current timestamp always lands one wave after the batch being
//! served (see below), so it waits in the bucket for the *next* batch at
//! that timestamp: a batch holds exactly one wave and is never
//! re-sorted. Nothing allocates once the block pool has reached its
//! peak.
//!
//! Equal-time events are ordered by a caller-supplied **content key**
//! rather than insertion order: the pop order is `(time, wave, key)`,
//! where `wave` counts same-cycle re-push generations (see the
//! [`EventQueue`] docs). The order depends on what the events are, not
//! on when they were pushed, and it is the order the simulator's golden
//! cycle counts pin.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::Cycle;

/// Width of the near-future window, in cycles. Power of two so the
/// bucket index is a mask. One bucket per cycle: every bucket holds
/// events of exactly one timestamp, so bucket order *is* time order.
const WINDOW: usize = 1024;
/// Bucket-index mask (`at & MASK` is `at % WINDOW`).
const MASK: u64 = WINDOW as u64 - 1;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = WINDOW / 64;
/// Entries per pooled block.
const BLOCK: usize = 8;
/// Null link in the block chains and the freelist.
const NIL: u32 = u32::MAX;

/// One far-future entry, ordered by `(time, key)`. Far-future pushes
/// always carry wave 0: a nonzero wave is only assigned to a push at
/// the *current* cycle, which by definition lies inside the window.
struct Overflow<E> {
    at: Cycle,
    key: u64,
    event: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}

impl<E> Eq for Overflow<E> {}

impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest key)
        // comes out first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// One timestamp's pending entries: a chain of pooled blocks, every one
/// full but the last. All entries of a bucket share one wave: those
/// pushed before its timestamp became current carry 0, those pushed
/// while it is current carry the wave after the batch being served.
#[derive(Clone, Copy)]
struct Bucket {
    /// First block of the chain, `NIL` when the bucket is empty.
    head: u32,
    /// Last block of the chain.
    tail: u32,
    /// Entries in the last block.
    tail_len: u32,
    /// The wave every entry shares.
    wave: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    tail_len: 0,
    wave: 0,
};

/// A time-ordered queue of simulation events with a content-keyed
/// tie-break.
///
/// Events popped from the queue come out in nondecreasing timestamp
/// order; events scheduled for the *same* cycle come out ordered by
/// `(wave, key)`:
///
/// * `key` is a caller-supplied content identity (e.g. a warp or
///   request id). Among the events pending at any instant keys must be
///   unique per timestamp, or the relative order of equal keys is
///   unspecified.
/// * `wave` is assigned internally: a push at exactly the timestamp of
///   the most recently popped event lands one wave *after* that event
///   (`last_wave + 1`), so same-cycle continuations — a retiring warp
///   admitting its successor, a completing load waking its waiters —
///   run after the remaining events of the current wave, exactly as
///   they would if pushed at a strictly later time. Any push at a
///   different (necessarily later) timestamp carries wave 0.
///
/// The wave of a push depends only on the entry most recently popped,
/// so the pop order is a function of the pushed `(time, key)` pairs and
/// the pop sequence alone; [`EventQueue::sync_to`] resets it at a
/// synchronization point.
///
/// A push costs O(1). The pop that makes a timestamp current copies
/// and sorts that timestamp's pending wave once, O(n log n) in its size
/// (linear when it arrived in key order); every other pop is O(1).
/// Events are small `Copy` values held by value throughout. Neither
/// operation allocates once the block pool has reached its peak.
///
/// # Example
///
/// ```
/// use mcm_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(5), 2, "late-high");
/// q.push(Cycle::new(1), 9, "early");
/// q.push(Cycle::new(5), 1, "late-low");
/// // Equal times pop in key order, regardless of push order.
/// assert_eq!(q.pop(), Some((Cycle::new(1), "early")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "late-low")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "late-high")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// One block chain per bucket.
    buckets: Box<[Bucket; WINDOW]>,
    /// One bit per bucket: set iff the bucket is nonempty. Popping
    /// scans this, 64 buckets per word.
    occupied: [u64; BITMAP_WORDS],
    /// The block pool: block `b` holds `slots[b * BLOCK..(b + 1) *
    /// BLOCK]`.
    slots: Vec<(u64, E)>,
    /// Per block, the next block of its chain or of the freelist.
    links: Vec<u32>,
    /// Freelist head into the block pool.
    free: u32,
    /// The batch being served: the rest of the wave popped last, at
    /// `last_popped`, sorted by descending key, so the next pop is the
    /// last element. Capacity tracks the block pool's, so loading a
    /// batch never allocates.
    ready: Vec<(u64, E)>,
    /// Far-future events (at ≥ window end), ordered by (time, key).
    overflow: BinaryHeap<Overflow<E>>,
    /// Total pending events (buckets, ready batch and overflow).
    len: usize,
    /// The current time. Every bucketed timestamp lies in
    /// `[last_popped, last_popped + WINDOW)`.
    last_popped: Cycle,
    /// Wave of the most recently popped entry (reset by [`EventQueue::sync_to`]).
    last_wave: u32,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("ready", &self.ready.len())
            .field("overflow", &self.overflow.len())
            .field("last_popped", &self.last_popped)
            .field("last_wave", &self.last_wave)
            .finish_non_exhaustive()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: Box::new([EMPTY; WINDOW]),
            occupied: [0; BITMAP_WORDS],
            slots: Vec::new(),
            links: Vec::new(),
            free: NIL,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            last_popped: Cycle::ZERO,
            last_wave: 0,
        }
    }

    /// Creates an empty queue pre-sized for `capacity` pending events,
    /// however they spread over the window's buckets (each nonempty
    /// bucket may hold one partly filled block).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        let blocks = capacity.div_ceil(BLOCK) + capacity.min(WINDOW);
        q.slots.reserve_exact(blocks * BLOCK);
        q.links.reserve_exact(blocks);
        q.ready.reserve_exact(q.slots.capacity());
        q
    }

    /// End of the near-future window (exclusive): events at or past it
    /// go to the overflow heap.
    #[inline]
    fn window_end(&self) -> u64 {
        self.last_popped.as_u64().saturating_add(WINDOW as u64)
    }

    /// Whether any pending event sits in a bucket; all of them follow
    /// the ready batch and precede every overflow event.
    #[inline]
    fn bucketed(&self) -> bool {
        self.len > self.ready.len() + self.overflow.len()
    }

    /// Takes a block from the freelist, or grows the pool by one block
    /// (filled with `entry` as a placeholder).
    #[inline]
    fn alloc_block(&mut self, entry: (u64, E)) -> u32 {
        if self.free != NIL {
            let block = self.free;
            self.free = self.links[block as usize];
            return block;
        }
        let block = self.links.len() as u32;
        self.links.push(NIL);
        self.slots.extend_from_slice(&[entry; BLOCK]);
        // The batch never holds more entries than the pool has slots:
        // growing it only here, with the pool, means loading a batch
        // never allocates.
        let cap = self.slots.capacity();
        if self.ready.capacity() < cap {
            self.ready.reserve_exact(cap - self.ready.len());
        }
        block
    }

    /// Files `event` under time `at` (which must lie inside the
    /// near-future window) by appending it to the bucket's chain.
    #[inline]
    fn bucket_insert(&mut self, at: Cycle, wave: u32, key: u64, event: E) {
        debug_assert!(at >= self.last_popped && at.as_u64() < self.window_end());
        let b = (at.as_u64() & MASK) as usize;
        let mut bucket = self.buckets[b];
        if bucket.head == NIL {
            let block = self.alloc_block((key, event));
            bucket = Bucket {
                head: block,
                tail: block,
                tail_len: 0,
                wave,
            };
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            debug_assert_eq!(bucket.wave, wave, "a bucket holds one wave");
            if bucket.tail_len == BLOCK as u32 {
                let block = self.alloc_block((key, event));
                self.links[bucket.tail as usize] = block;
                bucket.tail = block;
                bucket.tail_len = 0;
            }
        }
        self.slots[bucket.tail as usize * BLOCK + bucket.tail_len as usize] = (key, event);
        bucket.tail_len += 1;
        self.buckets[b] = bucket;
    }

    /// The earliest bucketed timestamp. Requires a bucketed event.
    ///
    /// Scans the occupancy bitmap forward from `last_popped`'s bucket;
    /// because every bucketed timestamp lies in `[last_popped,
    /// last_popped + WINDOW)`, the ring offset recovers the absolute
    /// time.
    fn earliest_bucket_time(&self) -> Cycle {
        debug_assert!(self.bucketed());
        let start = self.last_popped.as_u64();
        let i0 = (start & MASK) as usize;
        let mut word = i0 / 64;
        let mut mask = !0u64 << (i0 % 64);
        for _ in 0..=BITMAP_WORDS {
            let bits = self.occupied[word] & mask;
            if bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                let delta = (b.wrapping_sub(i0) as u64) & MASK;
                return Cycle::new(start + delta);
            }
            word = (word + 1) % BITMAP_WORDS;
            mask = !0;
        }
        unreachable!("bucketed events pending but no occupied bucket found");
    }

    /// Schedules `event` to fire at absolute time `at` under content
    /// key `key`.
    ///
    /// A push at the current cycle (the last popped timestamp) is
    /// assigned the next wave after the entry being processed; any
    /// later timestamp gets wave 0. Scheduling in the past (before the
    /// last popped timestamp) is a simulation logic error; it is
    /// tolerated in release builds (the event is clamped to fire "now")
    /// but trips a debug assertion.
    pub fn push(&mut self, at: Cycle, key: u64, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled at {at} which is before current time {}",
            self.last_popped
        );
        // Release builds honour the documented "fires now" contract:
        // without the clamp a stale timestamp would pop out of order
        // and regress `now()`.
        let at = at.max(self.last_popped);
        let wave = if at == self.last_popped {
            self.last_wave + 1
        } else {
            0
        };
        if at.as_u64() < self.window_end() {
            self.bucket_insert(at, wave, key, event);
        } else {
            debug_assert_eq!(wave, 0, "far-future pushes are never same-cycle");
            self.overflow.push(Overflow { at, key, event });
        }
        self.len += 1;
    }

    /// Makes the earliest pending timestamp current and copies its
    /// bucket into `ready`, sorted, freeing the bucket's blocks.
    /// Requires an empty batch and a pending event.
    fn load_batch(&mut self) {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        // Bucketed events always precede overflow ones: the window
        // holds times below its end, the overflow at or above it.
        let at = if self.bucketed() {
            self.earliest_bucket_time()
        } else {
            self.overflow.peek().expect("len > 0 with empty buckets").at
        };
        self.last_popped = at;
        // The window just advanced: migrate every overflow entry it now
        // covers into the buckets (all carry wave 0).
        let wend = self.window_end();
        while let Some(head) = self.overflow.peek() {
            if head.at.as_u64() >= wend {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            self.bucket_insert(entry.at, 0, entry.key, entry.event);
        }
        // `at`'s bucket is nonempty now: either it supplied `at`, or the
        // first migrated entry (the overflow minimum) carried time `at`.
        let b = (at.as_u64() & MASK) as usize;
        let bucket = std::mem::replace(&mut self.buckets[b], EMPTY);
        debug_assert_ne!(bucket.head, NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        let mut block = bucket.head;
        loop {
            let start = block as usize * BLOCK;
            let last = block == bucket.tail;
            let n = if last {
                bucket.tail_len as usize
            } else {
                BLOCK
            };
            self.ready.extend_from_slice(&self.slots[start..start + n]);
            let next = self.links[block as usize];
            self.links[block as usize] = self.free;
            self.free = block;
            if last {
                break;
            }
            block = next;
        }
        // One wave, so the key alone orders the batch. Descending, so
        // pops take from the end; chains keep push order, so a burst
        // pushed in key order arrives exactly reversed, which the sort
        // detects and undoes in one linear pass.
        self.ready.sort_unstable_by_key(|&(key, _)| Reverse(key));
        self.last_wave = bucket.wave;
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.load_batch();
        }
        let (_, event) = self.ready.pop().expect("a loaded batch is nonempty");
        self.len -= 1;
        Some((self.last_popped, event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if !self.ready.is_empty() {
            Some(self.last_popped)
        } else if self.bucketed() {
            Some(self.earliest_bucket_time())
        } else {
            self.overflow.peek().map(|e| e.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the most recently popped event — the simulation's
    /// notion of "now".
    pub fn now(&self) -> Cycle {
        self.last_popped
    }

    /// Re-anchors the queue's clock and wave state at `now`, as if an
    /// entry `(now, wave 0)` had just been popped.
    ///
    /// Callers invoke this at synchronization points where event
    /// streams restart from a known instant (e.g. a kernel launch
    /// boundary), so that the pushes that follow get the same waves
    /// whatever the queue's earlier history was. The queue must be
    /// empty and `now` must not precede the current time.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending.
    pub fn sync_to(&mut self, now: Cycle) {
        assert!(self.is_empty(), "sync_to on a non-empty queue");
        debug_assert!(now >= self.last_popped, "sync_to would rewind the clock");
        self.last_popped = now.max(self.last_popped);
        self.last_wave = 0;
    }

    /// Drops all pending events, keeping the current time.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.occupied = [0; BITMAP_WORDS];
        self.slots.clear();
        self.links.clear();
        self.free = NIL;
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 3, 7, 4, 1, 100] {
            q.push(Cycle::new(t), t, t);
        }
        let mut out = Vec::new();
        while let Some((at, ev)) = q.pop() {
            assert_eq!(at.as_u64(), ev);
            out.push(ev);
        }
        assert_eq!(out, vec![1, 3, 4, 7, 9, 100]);
    }

    #[test]
    fn simultaneous_events_pop_in_key_order() {
        let mut q = EventQueue::new();
        // Push keys in a scrambled order; pops come out sorted by key,
        // independent of push order.
        for i in 0..100u64 {
            let key = (i * 37) % 100;
            q.push(Cycle::new(42), key, key);
        }
        for want in 0..100u64 {
            assert_eq!(q.pop(), Some((Cycle::new(42), want)));
        }
    }

    #[test]
    fn same_cycle_repush_lands_in_the_next_wave() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 10, "w0-k10");
        q.push(Cycle::new(5), 20, "w0-k20");
        assert_eq!(q.pop(), Some((Cycle::new(5), "w0-k10")));
        // Pushed at the current cycle with a *smaller* key: it still
        // runs after the remaining wave-0 entry.
        q.push(Cycle::new(5), 1, "w1-k1");
        assert_eq!(q.pop(), Some((Cycle::new(5), "w0-k20")));
        // Now last_wave is 0 again (we popped a wave-0 entry)... no:
        // (5, wave 1, key 1) is still pending and pops next.
        assert_eq!(q.pop(), Some((Cycle::new(5), "w1-k1")));
        // A push during a wave-1 entry's processing lands in wave 2.
        q.push(Cycle::new(5), 0, "w2-k0");
        q.push(Cycle::new(6), 0, "t6");
        assert_eq!(q.pop(), Some((Cycle::new(5), "w2-k0")));
        assert_eq!(q.pop(), Some((Cycle::new(6), "t6")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.push(Cycle::new(10), 0, ());
        q.pop();
        assert_eq!(q.now(), Cycle::new(10));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(2), 0, 'a');
        q.push(Cycle::new(1), 1, 'b');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // The pool survives a clear and keeps working.
        q.push(Cycle::new(3), 0, 'c');
        assert_eq!(q.pop(), Some((Cycle::new(3), 'c')));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(1), 1, 1u64);
        q.push(Cycle::new(5), 5, 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Cycle::new(3), 3, 3);
        q.push(Cycle::new(4), 4, 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn far_future_events_cross_the_window() {
        // Events far beyond the near-future window take the overflow
        // path and must still pop in (time, key) order.
        let w = WINDOW as u64;
        let mut q = EventQueue::new();
        q.push(Cycle::new(5 * w), 50, 50u64);
        q.push(Cycle::new(2), 2, 2);
        q.push(Cycle::new(5 * w), 51, 51);
        q.push(Cycle::new(3 * w + 7), 30, 30);
        assert_eq!(q.pop(), Some((Cycle::new(2), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(3 * w + 7), 30)));
        // A direct push at the same cycle as migrated overflow entries
        // sorts among them purely by key — here *before* both, despite
        // being pushed last.
        q.push(Cycle::new(5 * w), 49, 49);
        assert_eq!(q.pop(), Some((Cycle::new(5 * w), 49)));
        assert_eq!(q.pop(), Some((Cycle::new(5 * w), 50)));
        assert_eq!(q.pop(), Some((Cycle::new(5 * w), 51)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_bucket_different_epochs_do_not_mix() {
        // Times t and t + WINDOW share a bucket index; the window
        // machinery must keep their epochs ordered.
        let w = WINDOW as u64;
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 1, 1u64);
        q.push(Cycle::new(10 + w), 2, 2);
        q.push(Cycle::new(10 + 2 * w), 3, 3);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(10 + w), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(10 + 2 * w), 3)));
    }

    /// The `(time, wave, key)` contract in its plainest form: the
    /// pending coordinates in an ordered set, waves assigned by the
    /// documented rule.
    #[derive(Default)]
    struct Reference {
        pending: std::collections::BTreeSet<(u64, u32, u64)>,
        now: u64,
        last_wave: u32,
    }

    impl Reference {
        fn push(&mut self, at: u64, key: u64) {
            let wave = if at == self.now {
                self.last_wave + 1
            } else {
                0
            };
            assert!(self.pending.insert((at, wave, key)), "duplicate coordinate");
        }

        fn pop(&mut self) -> Option<(u64, u32, u64)> {
            let first = self.pending.pop_first()?;
            (self.now, self.last_wave) = (first.0, first.1);
            Some(first)
        }

        fn peek_time(&self) -> Option<u64> {
            self.pending.first().map(|c| c.0)
        }

        fn sync_to(&mut self, now: u64) {
            assert!(self.pending.is_empty());
            (self.now, self.last_wave) = (now, 0);
        }
    }

    /// The block pool's invariants: every block is either free or in
    /// exactly one bucket's chain; chains are full but for their tail
    /// and hold exactly the bucketed entries; the bitmap marks exactly
    /// the nonempty buckets; the ready batch is in strictly descending
    /// key order, and has room for every pooled slot.
    fn assert_batch_invariants<E: Copy>(q: &EventQueue<E>) {
        assert!(
            q.ready.capacity() >= q.slots.capacity(),
            "ready capacity {} below the pool's {}",
            q.ready.capacity(),
            q.slots.capacity()
        );
        assert_eq!(q.slots.len(), q.links.len() * BLOCK);
        for pair in q.ready.windows(2) {
            assert!(pair[0].0 > pair[1].0, "batch not in descending key order");
        }
        let mut owner = vec![false; q.links.len()];
        let mut claim = |block: u32| {
            assert!(!owner[block as usize], "block {block} linked twice");
            owner[block as usize] = true;
        };
        let mut block = q.free;
        while block != NIL {
            claim(block);
            block = q.links[block as usize];
        }
        let mut bucketed = 0;
        for (b, bucket) in q.buckets.iter().enumerate() {
            let marked = q.occupied[b / 64] & (1 << (b % 64)) != 0;
            assert_eq!(marked, bucket.head != NIL, "bitmap disagrees at bucket {b}");
            if bucket.head == NIL {
                continue;
            }
            assert!((1..=BLOCK as u32).contains(&bucket.tail_len));
            let mut block = bucket.head;
            while block != bucket.tail {
                claim(block);
                bucketed += BLOCK;
                block = q.links[block as usize];
            }
            claim(bucket.tail);
            bucketed += bucket.tail_len as usize;
        }
        assert!(owner.iter().all(|&o| o), "a block leaked from the pool");
        assert_eq!(q.len, q.ready.len() + bucketed + q.overflow.len());
    }

    /// Pushes `(at, key)` into both queues; the payload is the key.
    fn push_both(cal: &mut EventQueue<u64>, reference: &mut Reference, at: u64, key: u64) {
        cal.push(Cycle::new(at), key, key);
        reference.push(at, key);
    }

    /// Pops one event whose payload is its key, returning its `(time,
    /// wave, key)` coordinate. The wave is the queue's own: a batch
    /// holds one wave, so `last_wave` is the popped entry's.
    fn pop_coord(q: &mut EventQueue<u64>) -> Option<(u64, u32, u64)> {
        q.pop().map(|(t, key)| (t.as_u64(), q.last_wave, key))
    }

    /// Pops one entry from both queues, demanding the same coordinate,
    /// the same `peek_time` beforehand, and the batch invariants
    /// afterwards.
    fn pop_both(cal: &mut EventQueue<u64>, reference: &mut Reference) -> Option<(u64, u32, u64)> {
        assert_eq!(
            cal.peek_time().map(Cycle::as_u64),
            reference.peek_time(),
            "peek mismatch"
        );
        let got = pop_coord(cal);
        let want = reference.pop();
        assert_eq!(got, want, "pop mismatch");
        assert_eq!(cal.len(), reference.pending.len());
        assert_batch_invariants(cal);
        want
    }

    fn drain_both(cal: &mut EventQueue<u64>, reference: &mut Reference) {
        while pop_both(cal, reference).is_some() {}
        assert!(cal.is_empty());
    }

    /// Generated, shrinking scripts against the reference: single
    /// pushes at the current cycle (same-cycle re-pushes), near, at the
    /// window edge and far enough to migrate through the overflow;
    /// same-cycle bursts in random key order; pops; drains followed by
    /// `sync_to`; and `clear`.
    #[test]
    fn matches_the_reference_over_generated_scripts() {
        use mcm_testkit::prelude::*;
        let w = WINDOW as u64;
        check(
            "event_queue_matches_reference",
            &vecs((u8s(0..8), u64s(0..4 * w), any_u64(), u64s(1..64)), 1..300),
            |script| {
                let mut cal = EventQueue::new();
                let mut reference = Reference::default();
                for (step, &(op, off, salt, n)) in script.iter().enumerate() {
                    // Unique per (step, i) in the low bits; the salted
                    // high bits scramble a burst's key order.
                    let key = |i: u64| {
                        let scramble = salt.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        ((scramble >> 40) << 24) | ((step as u64) << 6) | i
                    };
                    let now = reference.now;
                    match op {
                        0 | 1 => {
                            let at = now
                                + match off % 4 {
                                    0 => 0,
                                    1 => off % 64,
                                    2 => w - 2 + off % 4,
                                    _ => off,
                                };
                            push_both(&mut cal, &mut reference, at, key(0));
                        }
                        2 => {
                            for i in 0..n {
                                push_both(&mut cal, &mut reference, now + off % 3, key(i));
                            }
                        }
                        3 | 4 => {
                            pop_both(&mut cal, &mut reference);
                        }
                        5 => {
                            for _ in 0..n {
                                pop_both(&mut cal, &mut reference);
                            }
                        }
                        6 => {
                            drain_both(&mut cal, &mut reference);
                            let to = reference.now + off % 3;
                            cal.sync_to(Cycle::new(to));
                            reference.sync_to(to);
                        }
                        _ => {
                            cal.clear();
                            reference.pending.clear();
                            assert_eq!(cal.peek_time(), None);
                        }
                    }
                }
                drain_both(&mut cal, &mut reference);
            },
        );
    }

    #[test]
    fn matches_a_reference_sorted_queue() {
        // Drive calendar and reference implementations with the same
        // deterministic push/pop script and demand identical outputs.
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::new(0xCAFE);
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for step in 0..20_000u64 {
            if !rng.next_u64().is_multiple_of(3) || reference.pending.is_empty() {
                // Mix of same-cycle, near, boundary, and far-future
                // offsets. Keys are unique (derived from the step).
                let off = match rng.next_u64() % 10 {
                    0..=1 => 0,
                    2..=5 => rng.next_u64() % 64,
                    6..=7 => WINDOW as u64 - 2 + rng.next_u64() % 4,
                    _ => rng.next_u64() % (4 * WINDOW as u64),
                };
                let key = step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let at = reference.now + off;
                push_both(&mut cal, &mut reference, at, key);
            } else {
                pop_both(&mut cal, &mut reference);
            }
        }
        drain_both(&mut cal, &mut reference);
    }

    /// Keys in the order a distributed-scheduler launch admits warps:
    /// SMs visited module-interleaved, each module drawing CTAs from its
    /// own contiguous chunk, so consecutive keys jump between chunks.
    fn module_interleaved_keys(modules: u64, ctas: u64, warps: u64) -> Vec<u64> {
        let chunk = ctas / modules;
        let mut keys = Vec::with_capacity((ctas * warps) as usize);
        for round in 0..chunk {
            for m in 0..modules {
                let cta = m * chunk + round;
                keys.extend((0..warps).map(|w| cta * warps + w));
            }
        }
        keys
    }

    #[test]
    fn same_cycle_burst_in_module_interleaved_order() {
        // 8192 warps placed at one timestamp, as a launch does, then a
        // second burst at a later cycle while the first drains.
        let keys = module_interleaved_keys(4, 1024, 8);
        assert_eq!(keys.len(), 8192);
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for &key in &keys {
            push_both(&mut cal, &mut reference, 7, key);
        }
        pop_both(&mut cal, &mut reference);
        assert_eq!(cal.ready.len(), keys.len() - 1, "one batch per wave");
        for _ in 1..keys.len() / 2 {
            pop_both(&mut cal, &mut reference);
        }
        for &key in keys.iter().rev() {
            push_both(&mut cal, &mut reference, 9, key);
        }
        drain_both(&mut cal, &mut reference);
        assert!(cal.ready.capacity() >= cal.slots.capacity());
    }

    #[test]
    fn same_cycle_repushes_sort_below_pending_entries() {
        // Every pop re-pushes at the current cycle (wave + 1) with keys
        // that undercut entries already pending in that wave, plus the
        // odd push one cycle ahead.
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::new(0x5A3E);
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for key in 0..64 {
            push_both(&mut cal, &mut reference, 5, 1000 - key);
        }
        let mut next_key = 10_000u64;
        for _ in 0..4000 {
            let Some((now, _, _)) = pop_both(&mut cal, &mut reference) else {
                break;
            };
            for _ in 0..rng.next_range(3) {
                next_key += 1;
                let key = next_key ^ (rng.next_u64() & 0xFF_F000);
                let at = if rng.chance(0.1) { now + 1 } else { now };
                push_both(&mut cal, &mut reference, at, key);
            }
        }
        drain_both(&mut cal, &mut reference);
    }

    #[test]
    fn migrated_overflow_joins_the_batch_of_direct_pushes() {
        // Overflow entries migrate into an empty bucket; direct pushes
        // at that time then join the same wave-0 batch while more
        // overflow at the next epoch's same bucket waits. Same-cycle
        // pushes during the batch wait for the next one.
        let w = WINDOW as u64;
        let t = 3 * w + 11;
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for key in [40, 10, 30, 20] {
            push_both(&mut cal, &mut reference, t, key);
            push_both(&mut cal, &mut reference, t + w, key);
        }
        push_both(&mut cal, &mut reference, 2 * w + 100, 0);
        pop_both(&mut cal, &mut reference); // t enters the window
        for key in [35, 5, 25, 15, 45] {
            push_both(&mut cal, &mut reference, t, key);
        }
        pop_both(&mut cal, &mut reference); // now == t: waves begin
        assert_eq!(
            cal.ready.len(),
            8,
            "migrated and direct entries share a batch"
        );
        for key in [1, 2] {
            push_both(&mut cal, &mut reference, t, key);
        }
        assert_eq!(cal.ready.len(), 8, "wave-1 pushes wait in the bucket");
        drain_both(&mut cal, &mut reference);
    }

    #[test]
    fn peek_time_reports_the_batch_being_served() {
        // Once a timestamp's batch loads, its bucket is empty and the
        // bitmap no longer sees it. Peeks (also checked by `pop_both`)
        // must still report the batch's time, before and after a later
        // bucket fills, and the next wave's time once it drains.
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for key in [0, 1000].into_iter().chain((1..100).rev()) {
            push_both(&mut cal, &mut reference, 20, key);
        }
        pop_both(&mut cal, &mut reference);
        assert_eq!(cal.ready.len(), 100);
        assert_eq!(cal.occupied, [0; BITMAP_WORDS]);
        assert_eq!(cal.peek_time(), Some(Cycle::new(20)));
        push_both(&mut cal, &mut reference, 30, 0);
        assert_eq!(cal.peek_time(), Some(Cycle::new(20)));
        push_both(&mut cal, &mut reference, 20, 5000); // wave 1
        while !cal.ready.is_empty() {
            pop_both(&mut cal, &mut reference);
        }
        assert_eq!(cal.peek_time(), Some(Cycle::new(20)));
        drain_both(&mut cal, &mut reference);
    }

    #[test]
    fn clear_drops_the_batch_the_buckets_and_the_overflow() {
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for key in [0, 100].into_iter().chain(1..50) {
            push_both(&mut cal, &mut reference, 4, key);
        }
        pop_both(&mut cal, &mut reference);
        assert_eq!(cal.ready.len(), 50);
        push_both(&mut cal, &mut reference, 4, 1); // wave 1, bucketed
        push_both(&mut cal, &mut reference, 9, 1);
        push_both(&mut cal, &mut reference, 4 * WINDOW as u64, 1);
        cal.clear();
        reference.pending.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
        assert_eq!(cal.pop(), None);
        // Nothing stale resurfaces once the pool is reused.
        for key in [7, 3, 9, 1] {
            push_both(&mut cal, &mut reference, 4, key);
        }
        drain_both(&mut cal, &mut reference);
    }

    #[test]
    fn steady_state_recycles_blocks() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.push(Cycle::new(round + 1), 0, round);
            q.push(Cycle::new(round + 2), 1, round);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        // Two live buckets at a time: the pool never needed more
        // blocks.
        assert!(q.links.len() <= 2, "pool grew to {} blocks", q.links.len());
    }

    #[test]
    fn long_buckets_chain_blocks_in_push_order() {
        // Several blocks' worth at one timestamp, pushed in ascending
        // key order (the reverse of the batch's), next to a one-entry
        // bucket; then again after the pool has recycled.
        let mut cal = EventQueue::new();
        let mut reference = Reference::default();
        for round in 0..3 {
            let base = round * 1000;
            for key in 0..5 * BLOCK as u64 + 3 {
                push_both(&mut cal, &mut reference, base + 5, key);
            }
            push_both(&mut cal, &mut reference, base + 6, 0);
            assert_batch_invariants(&cal);
            drain_both(&mut cal, &mut reference);
        }
        assert!(
            cal.links.len() <= 7,
            "pool grew to {} blocks",
            cal.links.len()
        );
    }

    #[test]
    fn sync_to_restarts_wave_numbering() {
        // Two queues with different histories, synced to the same
        // instant, order an identical push script identically — the
        // kernel-boundary contract: a launch's placement events do not
        // depend on how the previous kernel's tail drained.
        let mut a = EventQueue::new();
        a.push(Cycle::new(3), 7, 7u64);
        a.pop();
        a.push(Cycle::new(3), 8, 8); // wave 1 entry
        a.pop();
        let mut b = EventQueue::new();
        b.push(Cycle::new(2), 9, 9u64);
        b.pop();
        a.sync_to(Cycle::new(10));
        b.sync_to(Cycle::new(10));
        for q in [&mut a, &mut b] {
            q.push(Cycle::new(10), 5, 5);
            q.push(Cycle::new(10), 4, 4);
            q.push(Cycle::new(11), 1, 1);
        }
        loop {
            let x = pop_coord(&mut a);
            let y = pop_coord(&mut b);
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty queue")]
    fn sync_to_rejects_pending_events() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 0, ());
        q.sync_to(Cycle::new(10));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before current time")]
    fn past_push_trips_debug_assertion() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 0, ());
        q.pop();
        q.push(Cycle::new(5), 0, ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_push_clamps_to_now_in_release() {
        // Satellite regression: a stale timestamp must not pop
        // out-of-order or regress `now()`.
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 0, 0u64);
        q.pop();
        q.push(Cycle::new(5), 1, 1); // in the past: fires "now" (t=10)
        q.push(Cycle::new(10), 2, 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.now(), Cycle::new(10));
        assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
        assert_eq!(q.now(), Cycle::new(10));
    }

    #[test]
    fn pop_monotonicity_holds_across_window_sizes() {
        // Regression for the push-clamp bug: times handed out by `pop`
        // never decrease, whatever the push pattern.
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::new(0xBEEF);
        let mut q = EventQueue::new();
        let mut now = Cycle::ZERO;
        let mut last = Cycle::ZERO;
        for i in 0..5000u64 {
            let off = rng.next_u64() % (2 * WINDOW as u64);
            q.push(Cycle::new(now.as_u64() + off), i, i);
            if i % 2 == 1 {
                let (at, _) = q.pop().expect("pushed more than popped");
                assert!(at >= last, "pop regressed: {at} after {last}");
                last = at;
                now = at;
            }
        }
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
    }
}
