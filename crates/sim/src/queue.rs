//! The simulator's virtual-time event queue: a calendar ring of per-tick
//! FIFO buckets for near-future events, with a binary heap for the rest.
//!
//! Events pop in `(at, seq)` order, where `seq` is the queue's own push
//! counter — the same total order a `BinaryHeap<Reverse<(at, seq)>>`
//! gives, at O(1) per push and pop for events due within [`RING`] ticks
//! of the last pop.

use crate::time::VirtualTime;
use dbac_graph::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Ring width in ticks; a power of two so a tick's bucket is a mask.
///
/// 32 covers the delays the workspace's schedules draw, `[1, 15]` random
/// delays plus the sweeps' 8-tick reorder window, and keeps the occupancy
/// mask in one `u32`, so finding the earliest bucket is one rotate and
/// one trailing-zero count. Longer delays, `EdgeDelay` overrides and
/// `FAR_FUTURE` go to the overflow heap.
const RING: usize = 32;

/// One bit per ring bucket: set iff the bucket is non-empty.
type Occupancy = u32;
const _: () = assert!(RING.is_power_of_two() && RING == Occupancy::BITS as usize);

/// A queued delivery.
pub(crate) struct QueuedEvent<M> {
    pub(crate) at: VirtualTime,
    seq: u64,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

impl<M> QueuedEvent<M> {
    fn key(&self) -> (VirtualTime, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Pending deliveries, popped in `(at, seq)` order.
///
/// Bucket `t % RING` holds the events due at tick `t` for every `t` in
/// `[base, base + RING)`; every other event sits in `overflow`. A bucket
/// is in `seq` order because `seq` grows with every push, so the ring's
/// minimum is the head of its first occupied bucket, and `pop_due` takes
/// the smaller of that head and the heap's minimum. `base` only moves
/// forward, to the time of an event being popped: that event is the
/// global minimum, so every ring event stays inside the window.
///
/// Buckets are linked lists threaded through one pool of slots, so the
/// ring holds as much memory as the most events it ever held at once, as
/// the heap did. (A `VecDeque` per bucket keeps each bucket's own peak,
/// which raised a 192-cell sweep's peak RSS by a tenth.)
pub(crate) struct EventQueue<M> {
    slots: Vec<Slot<M>>,
    /// First free slot, chained through `Slot::next`.
    free: usize,
    heads: [usize; RING],
    tails: [usize; RING],
    occupied: Occupancy,
    base: u64,
    ring_len: usize,
    overflow: BinaryHeap<Reverse<QueuedEvent<M>>>,
    seq: u64,
}

/// End of a bucket or of the free list.
const NIL: usize = usize::MAX;

/// A pool entry: a queued event, or `None` while on the free list.
struct Slot<M> {
    event: Option<QueuedEvent<M>>,
    next: usize,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heads: [NIL; RING],
            tails: [NIL; RING],
            occupied: 0,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Queues `msg` for delivery at `at`, after everything already queued
    /// for the same tick.
    pub(crate) fn push(&mut self, at: VirtualTime, from: NodeId, to: NodeId, msg: M) {
        self.seq += 1;
        let ev = QueuedEvent { at, seq: self.seq, from, to, msg };
        // Times before `base` wrap to a huge offset and overflow too.
        if at.ticks().wrapping_sub(self.base) < RING as u64 {
            let bucket = at.ticks() as usize & (RING - 1);
            let slot = Slot { event: Some(ev), next: NIL };
            let idx = if self.free == NIL {
                self.slots.push(slot);
                self.slots.len() - 1
            } else {
                let idx = self.free;
                self.free = self.slots[idx].next;
                self.slots[idx] = slot;
                idx
            };
            match self.tails[bucket] {
                NIL => self.heads[bucket] = idx,
                tail => self.slots[tail].next = idx,
            }
            self.tails[bucket] = idx;
            self.occupied |= 1 << bucket;
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `horizon`; `None` when the queue is empty or the earliest event is
    /// later (it then stays queued).
    pub(crate) fn pop_due(&mut self, horizon: VirtualTime) -> Option<QueuedEvent<M>> {
        let ring = self.first_occupied().map(|bucket| {
            let head = self.slots[self.heads[bucket]].event.as_ref().expect("queued slot");
            (bucket, head.key())
        });
        let heap = self.overflow.peek().map(|Reverse(ev)| ev.key());
        let (at, ring_bucket) = match (ring, heap) {
            (Some((b, r)), Some(h)) if r < h => (r.0, Some(b)),
            (Some((b, r)), None) => (r.0, Some(b)),
            (_, Some(h)) => (h.0, None),
            (None, None) => return None,
        };
        if at > horizon {
            return None;
        }
        let ev = match ring_bucket {
            Some(bucket) => {
                let idx = self.heads[bucket];
                let slot = &mut self.slots[idx];
                let ev = slot.event.take().expect("queued slot");
                self.heads[bucket] = slot.next;
                slot.next = self.free;
                self.free = idx;
                if self.heads[bucket] == NIL {
                    self.tails[bucket] = NIL;
                    self.occupied &= !(1 << bucket);
                }
                self.ring_len -= 1;
                ev
            }
            None => self.overflow.pop().expect("heap minimum").0,
        };
        self.base = self.base.max(at.ticks());
        Some(ev)
    }

    /// The bucket holding the ring's earliest tick, if any: the first
    /// occupied bucket at or after `base`'s, cyclically.
    fn first_occupied(&self) -> Option<usize> {
        if self.occupied == 0 {
            return None;
        }
        let start = self.base as usize & (RING - 1);
        let offset = self.occupied.rotate_right(start as u32).trailing_zeros() as usize;
        Some((start + offset) & (RING - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The order the queue must reproduce: a plain binary heap on
    /// `(at, seq)` with the same push counter.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(VirtualTime, u64)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: VirtualTime) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq)));
            self.seq
        }

        fn pop_due(&mut self, horizon: VirtualTime) -> Option<(VirtualTime, u64)> {
            match self.heap.peek() {
                Some(Reverse((at, _))) if *at <= horizon => self.heap.pop().map(|r| r.0),
                _ => None,
            }
        }
    }

    /// A delay mix that lands in the ring, past it, exactly on its edge,
    /// and at `FAR_FUTURE`.
    fn delay(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0..10u32) {
            0..=4 => rng.gen_range(0..RING as u64),
            5 => RING as u64 - 1 + rng.gen_range(0..3u64),
            6 | 7 => rng.gen_range(RING as u64..8 * RING as u64),
            8 => rng.gen_range(0..4u64),
            _ => VirtualTime::FAR_FUTURE.ticks(),
        }
    }

    /// Seeded random interleavings of push and pop against the reference
    /// heap: same pop order, same length throughout. Most pushes are at or
    /// after the last popped time, as the simulator's are; one in twenty
    /// lands before it and must still pop first. Popping a `FAR_FUTURE`
    /// event moves the window up to the saturated end of time, where later
    /// pushes pile onto one tick.
    #[test]
    fn matches_binary_heap_reference() {
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut reference = Reference::default();
            let mut now = VirtualTime::ZERO;
            let end = VirtualTime::new(u64::MAX);
            for step in 0..4_000u64 {
                if rng.gen_range(0..100u32) < 55 {
                    let at = if rng.gen_range(0..20u32) == 0 {
                        VirtualTime::new(
                            now.ticks().saturating_sub(rng.gen_range(1..2 * RING as u64)),
                        )
                    } else {
                        now.after(delay(&mut rng))
                    };
                    let seq = reference.push(at);
                    queue.push(at, id(seq as usize % 7), id(3), seq);
                } else {
                    let want = reference.pop_due(end);
                    let got = queue.pop_due(end);
                    assert_eq!(got.as_ref().map(QueuedEvent::key), want, "seed {seed} step {step}");
                    if let Some(ev) = got {
                        assert_eq!(ev.msg, ev.seq, "payload travels with its key");
                        now = ev.at;
                    }
                }
                assert_eq!(queue.len(), reference.heap.len(), "seed {seed} step {step}");
            }
            while let Some(want) = reference.pop_due(end) {
                assert_eq!(queue.pop_due(end).map(|e| e.key()), Some(want));
            }
            assert!(queue.pop_due(end).is_none());
            assert_eq!(queue.len(), 0);
        }
    }

    /// Events at one tick split between the ring and the heap (pushed
    /// while the tick was past the window, then again once it is inside)
    /// still pop in push order.
    #[test]
    fn same_tick_ties_across_ring_and_heap() {
        let mut queue = EventQueue::new();
        let mut reference = Reference::default();
        let tick = VirtualTime::new(RING as u64 + 5);
        for _ in 0..3 {
            let seq = reference.push(tick);
            queue.push(tick, id(0), id(1), seq);
        }
        // Move `base` up so `tick` falls inside the window.
        let early = VirtualTime::new(10);
        let seq = reference.push(early);
        queue.push(early, id(0), id(1), seq);
        assert_eq!(
            queue.pop_due(VirtualTime::FAR_FUTURE).map(|e| e.key()),
            reference.pop_due(VirtualTime::FAR_FUTURE)
        );
        for _ in 0..3 {
            let seq = reference.push(tick);
            queue.push(tick, id(0), id(1), seq);
        }
        assert!(!queue.overflow.is_empty() && queue.ring_len == 3);
        let order: Vec<u64> =
            std::iter::from_fn(|| queue.pop_due(VirtualTime::FAR_FUTURE)).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 5, 6, 7]);
    }

    /// A horizon stop leaves the late events queued and counted, exactly
    /// as the reference does, and later pushes still interleave correctly.
    #[test]
    fn horizon_stop_keeps_late_events() {
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(1_000 + seed);
            let mut queue = EventQueue::new();
            let mut reference = Reference::default();
            let horizon = VirtualTime::new(rng.gen_range(0..6 * RING as u64));
            let mut now = VirtualTime::ZERO;
            for _ in 0..500 {
                let at = now.after(delay(&mut rng));
                let seq = reference.push(at);
                queue.push(at, id(0), id(1), seq);
                if rng.gen_bool(0.5) {
                    let want = reference.pop_due(horizon);
                    let got = queue.pop_due(horizon).map(|e| e.key());
                    assert_eq!(got, want, "seed {seed}");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            loop {
                let want = reference.pop_due(horizon);
                assert_eq!(queue.pop_due(horizon).map(|e| e.key()), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
            assert_eq!(queue.len(), reference.heap.len(), "seed {seed}");
            assert!(queue.len() > 0, "FAR_FUTURE draws outlive every horizon");
        }
    }
}
