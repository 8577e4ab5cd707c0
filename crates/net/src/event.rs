//! Deterministic discrete-event queue.
//!
//! Events pop in `(time, insertion order)`: FIFO among events
//! scheduled for the same instant, a strict requirement for
//! reproducible experiments.
//!
//! Each event is parked once, on push, in a free-listed slab and stays
//! there until pop takes it out. What the queue orders are 24-byte keys
//! `(time, seq, slot)`, where `seq` is a monotonic push counter (the
//! tie-break) and `slot` names the event's slab entry.
//!
//! The keys are spread over a calendar of `nbuckets` (a power of two)
//! buckets: a key at tick `t` lives in bucket
//! `(t >> width_bits) & (nbuckets - 1)`, and each bucket is a binary
//! min-heap, so a bucket's smallest key is always at its top and a pop
//! never scans a bucket. Pop walks at most one calendar "year" of
//! bucket tops from a lower-bound hint; the first top that falls in
//! the year being walked is the global minimum, and a year with
//! nothing due takes the smallest of the bucket tops. A single heap is
//! popped directly.
//!
//! The calendar is sized for `BUCKET_KEYS` (256) keys per bucket on
//! average, so every queue the simulator builds sits in one heap or a
//! few. It doubles when the average passes twice that and halves when
//! it falls below a quarter of it; the band is wide enough that a
//! queue filling and draining in waves rebuilds a few times per wave,
//! not every few dozen pops. A rebuild re-derives the bucket width
//! from the span of pending times so one year covers the pending set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use genie_machine::SimTime;

/// Average keys per bucket the calendar is sized for.
const BUCKET_KEYS: usize = 256;
/// Initial log2 of the bucket width in ticks (1 µs = 2^20 ticks ≈ us).
const INITIAL_WIDTH_BITS: u32 = 20;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Calendar buckets, each a min-heap of keys.
    buckets: Vec<BinaryHeap<Reverse<Key>>>,
    /// log2 of the bucket width in ticks.
    width_bits: u32,
    /// Parked events, indexed by `Key::slot`; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Total pending events.
    len: usize,
    /// Monotonic push counter breaking same-instant ties FIFO.
    seq: u64,
    /// Lower bound on the virtual bucket index of every pending event.
    floor_vidx: u64,
    /// Largest number of events ever pending at once.
    peak_len: usize,
}

/// A pending event's place in the order: `(time, seq)`. `seq` is
/// unique, so two keys never tie and `slot` takes no part.
#[derive(Clone, Copy, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() <= 24);

impl Key {
    /// `(time, seq)` as one integer, so a comparison is a single
    /// branch-free 128-bit compare.
    #[inline]
    fn order(&self) -> u128 {
        (u128::from(self.time.0) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![BinaryHeap::new()],
            width_bits: INITIAL_WIDTH_BITS,
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            seq: 0,
            floor_vidx: 0,
            peak_len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    /// Virtual bucket index of a tick value.
    #[inline]
    fn vidx(&self, time: SimTime) -> u64 {
        time.0 >> self.width_bits
    }

    /// Schedules `event` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        if self.len >= 2 * BUCKET_KEYS * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(event));
                slot
            }
        };
        let key = Key {
            time,
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        let v = self.vidx(time);
        if self.len == 0 || v < self.floor_vidx {
            self.floor_vidx = v;
        }
        let bucket = (v & self.mask()) as usize;
        self.buckets[bucket].push(Reverse(key));
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Pops the earliest event (FIFO among ties).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // A single heap needs no walk, and its floor hint stays a
        // valid lower bound without upkeep (a resize recomputes it).
        let bucket = if self.buckets.len() == 1 {
            0
        } else {
            let (bucket, vmin) = self.locate_min()?;
            self.floor_vidx = vmin;
            bucket
        };
        let Reverse(key) = self.buckets[bucket].pop()?;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("every pending key owns a parked event");
        self.free.push(key.slot);
        self.len -= 1;
        let n = self.buckets.len();
        if n > 1 && self.len < BUCKET_KEYS * n / 4 {
            self.resize(n / 2);
        }
        Some((key.time, event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let (bucket, _) = self.locate_min()?;
        self.buckets[bucket].peek().map(|Reverse(k)| k.time)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Largest number of events ever pending at once (the queue's
    /// high-water mark).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Finds the bucket whose top is the minimum `(time, seq)` key:
    /// `(bucket index, virtual bucket index of that key)`. Walks one
    /// calendar year of bucket tops from the floor hint; a year with
    /// nothing due takes the smallest top.
    fn locate_min(&self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        // The first virtual bucket (in calendar order from the floor)
        // whose top falls in it holds the global minimum: the floor is
        // a true lower bound, so no bucket walked earlier holds a key
        // due before it.
        for i in 0..=mask {
            let Some(v) = self.floor_vidx.checked_add(i) else {
                break; // virtual index overflow: take the smallest top
            };
            let bucket = (v & mask) as usize;
            if let Some(Reverse(top)) = self.buckets[bucket].peek() {
                if self.vidx(top.time) == v {
                    return Some((bucket, v));
                }
            }
        }
        let (bucket, Reverse(top)) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, heap)| heap.peek().map(|top| (b, top)))
            .max_by_key(|&(_, top)| top)?;
        Some((bucket, self.vidx(top.time)))
    }

    /// Rebuilds the calendar at `new_n` buckets (a power of two),
    /// re-deriving the bucket width from the span of pending times so
    /// one calendar year roughly covers the pending set. Events stay
    /// where they are in the slab; only keys move. Kept out of line so
    /// `push` and `pop` stay small enough to inline into their callers.
    #[cold]
    #[inline(never)]
    fn resize(&mut self, new_n: usize) {
        let mut keys: Vec<Reverse<Key>> = Vec::with_capacity(self.len);
        for heap in self.buckets.drain(..) {
            keys.extend(heap.into_vec());
        }
        let (lo, hi) = keys.iter().fold((u64::MAX, 0u64), |(lo, hi), Reverse(k)| {
            (lo.min(k.time.0), hi.max(k.time.0))
        });
        if lo <= hi {
            // Width = pow2 ceiling of span / new_n, clamped so the
            // shift stays meaningful.
            let span = (hi - lo).max(1);
            let per_bucket = (span / new_n as u64).max(1);
            self.width_bits = (64 - per_bucket.leading_zeros()).min(40);
            self.floor_vidx = lo >> self.width_bits;
        }
        let mask = new_n as u64 - 1;
        let mut spread: Vec<Vec<Reverse<Key>>> = (0..new_n)
            .map(|_| Vec::with_capacity(2 * self.len / new_n + 1))
            .collect();
        for key in keys {
            spread[((key.0.time.0 >> self.width_bits) & mask) as usize].push(key);
        }
        self.buckets = spread.into_iter().map(BinaryHeap::from).collect();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(3.0), "c");
        q.push(SimTime::from_us(1.0), "a");
        q.push(SimTime::from_us(2.0), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_us(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// The plain binary-heap queue the calendar replaced, kept as the
    /// ordering oracle for the equivalence tests below.
    mod reference {
        use super::SimTime;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Reverse<Entry<E>>>,
            seq: u64,
        }

        struct Entry<E> {
            time: SimTime,
            seq: u64,
            event: E,
        }

        impl<E> PartialEq for Entry<E> {
            fn eq(&self, other: &Self) -> bool {
                self.time == other.time && self.seq == other.seq
            }
        }
        impl<E> Eq for Entry<E> {}
        impl<E> PartialOrd for Entry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<E> Ord for Entry<E> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.time, self.seq).cmp(&(other.time, other.seq))
            }
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                HeapQueue {
                    heap: BinaryHeap::new(),
                    seq: 0,
                }
            }
            pub fn push(&mut self, time: SimTime, event: E) {
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Reverse(Entry { time, seq, event }));
            }
            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                self.heap.pop().map(|Reverse(e)| (e.time, e.event))
            }
            pub fn peek_time(&self) -> Option<SimTime> {
                self.heap.peek().map(|Reverse(e)| e.time)
            }
            pub fn len(&self) -> usize {
                self.heap.len()
            }
        }
    }

    fn xorshift64(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Drives the old binary heap and the calendar queue with an
    /// identical schedule — bursts of same-instant events, scattered
    /// far-future times, interleaved pops — and demands identical pop
    /// order throughout (including the drain).
    #[test]
    fn equivalent_to_binary_heap_on_identical_schedules() {
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut heap = reference::HeapQueue::new();
            let mut cal = EventQueue::new();
            let mut id = 0u32;
            for step in 0..4000 {
                let r = xorshift64(&mut rng);
                match r % 5 {
                    // Single push at a pseudo-random time (mix of
                    // near-zero, microsecond-scale, and far-future).
                    0 | 1 => {
                        let t = match r % 3 {
                            0 => SimTime(r % 1_000),
                            1 => SimTime(r % 100_000_000),
                            _ => SimTime(r % 10_000_000_000_000),
                        };
                        heap.push(t, id);
                        cal.push(t, id);
                        id += 1;
                    }
                    // Same-instant burst: FIFO among ties must hold.
                    2 => {
                        let t = SimTime(r % 50_000_000);
                        for _ in 0..(r % 7 + 2) {
                            heap.push(t, id);
                            cal.push(t, id);
                            id += 1;
                        }
                    }
                    // Pop from both, demand identical results.
                    _ => {
                        assert_eq!(heap.pop(), cal.pop(), "seed {seed} step {step}");
                    }
                }
            }
            loop {
                let (h, c) = (heap.pop(), cal.pop());
                assert_eq!(h, c, "seed {seed} drain");
                if h.is_none() {
                    break;
                }
            }
        }
    }

    fn push_both(
        heap: &mut reference::HeapQueue<u32>,
        cal: &mut EventQueue<u32>,
        t: SimTime,
        id: &mut u32,
        peak: &mut usize,
    ) {
        heap.push(t, *id);
        cal.push(t, *id);
        *id += 1;
        *peak = (*peak).max(heap.len());
        assert_eq!(cal.peek_time(), heap.peek_time());
    }

    fn pop_both(
        heap: &mut reference::HeapQueue<u32>,
        cal: &mut EventQueue<u32>,
    ) -> Option<(SimTime, u32)> {
        let got = cal.pop();
        assert_eq!(got, heap.pop());
        assert_eq!(cal.peek_time(), heap.peek_time());
        got
    }

    /// Fan-in waves, the traffic a switched star gives the queue and
    /// the randomized schedule above never produces: each wave pushes
    /// ten same-instant bursts of 63 events (one per spoke of a 64-host
    /// star) with a few pops between bursts, then drains to empty while
    /// a third of the pops schedule a follow-up, a short hop later or,
    /// one time in eight, earlier than the instant just popped. Every
    /// wave fills past the grow threshold and drains below the shrink
    /// threshold; pop order and `peek_time` must match the reference
    /// heap after every operation, and `peak_len` its high-water mark.
    #[test]
    fn equivalent_to_binary_heap_on_fanin_waves() {
        let mut heap = reference::HeapQueue::new();
        let mut cal = EventQueue::new();
        let mut rng = 0x5eed_fa11_u64;
        let (mut id, mut peak, mut last_pop) = (0u32, 0usize, 0u64);
        for wave in 0..24 {
            let start = last_pop + 50_000_000;
            for burst in 0..10u64 {
                let t = SimTime(start + burst * 2_000_000);
                for _ in 0..63 {
                    push_both(&mut heap, &mut cal, t, &mut id, &mut peak);
                }
                for _ in 0..xorshift64(&mut rng) % 4 {
                    if let Some((t, _)) = pop_both(&mut heap, &mut cal) {
                        last_pop = t.0;
                    }
                }
            }
            assert!(cal.buckets.len() > 1, "wave {wave} never grew the calendar");
            while let Some((t, _)) = pop_both(&mut heap, &mut cal) {
                last_pop = t.0;
                let r = xorshift64(&mut rng);
                if r.is_multiple_of(3) {
                    let at = if r.is_multiple_of(8) {
                        t.0.saturating_sub(r % 3_000_000)
                    } else {
                        t.0 + r % 1_000_000 + 1
                    };
                    push_both(&mut heap, &mut cal, SimTime(at), &mut id, &mut peak);
                }
            }
            assert_eq!(cal.buckets.len(), 1, "wave {wave} left the calendar grown");
        }
        assert_eq!(cal.peak_len(), peak);
        assert_eq!(cal.slab.len(), peak, "freed slab slots are reused");
    }

    /// Pushing earlier than an already-popped instant must still pop
    /// correctly (the floor hint has to move backwards).
    #[test]
    fn push_earlier_than_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(1_000_000), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime(10), "early");
        q.push(SimTime(2_000_000), "later");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Exercise growth well past several resize thresholds and verify
    /// a fully sorted drain; the high-water mark survives the drain.
    #[test]
    fn resize_churn_preserves_order() {
        let mut q = EventQueue::new();
        let mut rng = 42u64;
        let mut times = Vec::new();
        for _ in 0..5000 {
            let t = SimTime(xorshift64(&mut rng) % 1_000_000_000);
            times.push(t);
            q.push(t, t.0);
        }
        times.sort();
        for t in times {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
        }
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 5000);
    }
}
