//! Deterministic discrete-event queue.
//!
//! A bucketed **calendar queue** keyed by [`SimTime`], with FIFO
//! ordering among events scheduled for the same instant (a strict
//! requirement for reproducible experiments).
//!
//! Layout: `nbuckets` (a power of two) buckets, each a flat `Vec` of
//! entries; an event at tick `t` lives in bucket
//! `(t >> width_bits) & (nbuckets - 1)`, i.e. bucket width is a power
//! of two in SimTime ticks. Ordering is by `(time, seq)` where `seq`
//! is a monotonic push counter, so events pushed for the same instant
//! pop in push order — exactly the order the previous binary-heap
//! implementation produced.
//!
//! Pop walks at most one calendar "year" (one lap over the buckets)
//! from a maintained lower-bound bucket hint; if the whole year is
//! empty it falls back to a direct scan for the global minimum and
//! jumps the hint there (the standard calendar-queue sparse-event
//! escape). The queue resizes lazily: when occupancy leaves the
//! `[nbuckets/4, 2*nbuckets]` band the bucket array doubles or halves
//! and the bucket width is re-derived from the span of pending times,
//! keeping the expected cost of push and pop O(1).

use genie_machine::SimTime;

/// Initial bucket count (power of two).
const MIN_BUCKETS: usize = 4;
/// Initial log2 of the bucket width in ticks (1 µs = 2^20 ticks ≈ us).
const INITIAL_WIDTH_BITS: u32 = 20;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// log2 of the bucket width in ticks.
    width_bits: u32,
    /// Total pending events.
    len: usize,
    /// Monotonic push counter breaking same-instant ties FIFO.
    seq: u64,
    /// Lower bound on the virtual bucket index of every pending event.
    floor_vidx: u64,
    /// Largest number of events ever pending at once.
    peak_len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_bits: INITIAL_WIDTH_BITS,
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
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        if self.len + 1 > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        let v = self.vidx(time);
        if self.len == 0 || v < self.floor_vidx {
            self.floor_vidx = v;
        }
        let idx = (v & self.mask()) as usize;
        self.buckets[idx].push(Entry { time, seq, event });
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (bucket, pos, vmin) = self.locate_min()?;
        self.floor_vidx = vmin;
        let e = self.buckets[bucket].swap_remove(pos);
        self.len -= 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.locate_min()
            .map(|(bucket, pos, _)| self.buckets[bucket][pos].time)
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

    /// Finds the minimum `(time, seq)` entry: `(bucket index, position
    /// in bucket, virtual bucket index)`. Walks one calendar year from
    /// the floor hint; on a fully empty year, falls back to a direct
    /// scan of every bucket.
    fn locate_min(&self) -> Option<(usize, usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        let mask = self.mask();
        // One lap: the first virtual bucket (in calendar order from the
        // floor) that owns an entry contains the global minimum,
        // because the floor is a true lower bound.
        for i in 0..n {
            let Some(v) = self.floor_vidx.checked_add(i) else {
                break; // virtual index overflow: use the direct scan
            };
            let bucket = (v & mask) as usize;
            let mut best: Option<usize> = None;
            for (pos, e) in self.buckets[bucket].iter().enumerate() {
                if self.vidx(e.time) == v
                    && best.is_none_or(|b| {
                        let cur = &self.buckets[bucket][b];
                        (e.time, e.seq) < (cur.time, cur.seq)
                    })
                {
                    best = Some(pos);
                }
            }
            if let Some(pos) = best {
                return Some((bucket, pos, v));
            }
        }
        // Sparse year: direct search for the global minimum.
        let mut best: Option<(usize, usize)> = None;
        for (bucket, entries) in self.buckets.iter().enumerate() {
            for (pos, e) in entries.iter().enumerate() {
                if best.is_none_or(|(bb, bp)| {
                    let cur = &self.buckets[bb][bp];
                    (e.time, e.seq) < (cur.time, cur.seq)
                }) {
                    best = Some((bucket, pos));
                }
            }
        }
        best.map(|(bucket, pos)| {
            let v = self.vidx(self.buckets[bucket][pos].time);
            (bucket, pos, v)
        })
    }

    /// Rebuilds the bucket array at `new_n` buckets (a power of two),
    /// re-deriving the bucket width from the span of pending times so
    /// one calendar year roughly covers the pending set.
    fn resize(&mut self, new_n: usize) {
        let new_n = new_n.max(MIN_BUCKETS);
        let old = std::mem::take(&mut self.buckets);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in old.iter().flatten() {
            lo = lo.min(e.time.0);
            hi = hi.max(e.time.0);
        }
        if lo <= hi {
            // Width = pow2 ceiling of span / new_n, clamped so the
            // shift stays meaningful.
            let span = (hi - lo).max(1);
            let per_bucket = (span / new_n as u64).max(1);
            self.width_bits = (64 - per_bucket.leading_zeros()).min(40);
        }
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        let mask = self.mask();
        let mut floor = u64::MAX;
        for e in old.into_iter().flatten() {
            let v = self.vidx(e.time);
            floor = floor.min(v);
            self.buckets[(v & mask) as usize].push(e);
        }
        self.floor_vidx = if floor == u64::MAX { 0 } else { floor };
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

    /// The binary-heap queue this calendar queue replaced, kept as the
    /// ordering oracle for the equivalence test below.
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
