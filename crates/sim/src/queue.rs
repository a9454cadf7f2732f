//! The discrete-event queue.
//!
//! A binary heap of compact `(time, sequence, slot)` keys over a slab of
//! events.  Events scheduled for the same instant are delivered in
//! insertion order, which keeps simulations reproducible regardless of heap
//! internals.  The heap moves only its 24-byte keys as it sifts; each event
//! stays in its slab slot from `push` to delivery, and a delivered event's
//! slot is reused by the next `push`.
//!
//! Events known in advance and already in time order, such as an open-loop
//! arrival trace, need not enter the heap at all.  The caller takes a block
//! of sequence numbers for them with [`EventQueue::reserve`], keeps them in
//! its own list, and delivers each one through [`EventQueue::pop_before`],
//! which hands back every queued event that precedes it by (time,
//! sequence) first.  The delivery order is then the one pushing them would
//! have given, while the heap holds only the events scheduled as the run
//! goes.  [`EventQueue::len`] and [`EventQueue::extract`] see queued events
//! only, never the caller's list.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event's place in the delivery order: its time, its insertion
/// sequence (the tie-break), and the slab slot holding the event.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion sequence for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list keyed by [`SimTime`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// The pending events, each in the slot its key names; `None` slots
    /// are listed in `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time: an event in
    /// the past indicates a logic error in the calling state machine.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (now={:?}, at={:?})",
            self.now,
            at
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Key {
            at,
            seq: self.next_seq,
            slot,
        });
        self.next_seq += 1;
    }

    /// Moves the event out of `key`'s slot and frees the slot for reuse.
    fn take(&mut self, key: Key) -> (SimTime, E) {
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(key.slot);
        (key.at, event)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        self.now = key.at;
        Some(self.take(key))
    }

    /// Reserves `count` consecutive insertion sequence numbers for events
    /// the caller keeps outside the queue and returns the first of them.
    /// Each one orders against queued events as a `push` made now would:
    /// after every event pushed before this call, before every event pushed
    /// after it.  Deliver the reserved events with
    /// [`EventQueue::pop_before`].
    pub fn reserve(&mut self, count: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += count;
        first
    }

    /// Delivery step for an event held outside the queue at time `at` under
    /// the reserved sequence number `seq`.  If the queued head precedes it
    /// by (time, sequence), pops and returns the head, advancing the clock
    /// to its timestamp; call again until this returns `None`.  Otherwise
    /// leaves the queue untouched, advances the clock to `at` (the caller
    /// now delivers its event) and returns `None`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time.
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(head) if (head.at, head.seq) < (at, seq) => self.pop(),
            _ => {
                assert!(
                    at >= self.now,
                    "cannot deliver an event in the past (now={:?}, at={:?})",
                    self.now,
                    at
                );
                self.now = at;
                None
            }
        }
    }

    /// Timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| key.at)
    }

    /// Current simulation time (timestamp of the last event delivered by
    /// [`EventQueue::pop`] or [`EventQueue::pop_before`]).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Removes every pending event matching `predicate` (which sees the
    /// event's scheduled time and payload) and returns them in delivery
    /// order (time, then insertion sequence), without advancing the clock.
    /// Failure injection uses this to cancel the in-flight work of a
    /// crashed node deterministically — the extraction order is exactly the
    /// order the events would have popped in — and to discard out-of-scope
    /// events without letting them advance the clock when popped.
    pub fn extract(&mut self, mut predicate: impl FnMut(SimTime, &E) -> bool) -> Vec<(SimTime, E)> {
        let slab = &self.slab;
        let mut extracted: Vec<Key> = Vec::new();
        self.heap.retain(|key| {
            let event = slab[key.slot as usize]
                .as_ref()
                .expect("a pending key owns its slot");
            let matched = predicate(key.at, event);
            if matched {
                extracted.push(*key);
            }
            !matched
        });
        extracted.sort_unstable_by_key(|key| (key.at, key.seq));
        extracted.into_iter().map(|key| self.take(key)).collect()
    }

    /// Number of queued events (events held outside the queue under
    /// [`EventQueue::reserve`]d sequence numbers are not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_millis(5), ());
        q.push(SimTime::from_millis(9), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(9));
        assert!(q.is_empty());
    }

    #[test]
    fn extract_removes_matching_events_in_delivery_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 30);
        q.push(SimTime::from_millis(10), 10);
        q.push(SimTime::from_millis(20), 21);
        q.push(SimTime::from_millis(20), 20);
        let odd = q.extract(|_, e| e % 2 == 1);
        assert_eq!(odd, vec![(SimTime::from_millis(20), 21)]);
        // The survivors still pop in order, clock untouched.
        assert_eq!(q.now(), SimTime::ZERO);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![10, 20, 30]);
        // Same-instant extractions preserve insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..6 {
            q.push(t, i);
        }
        let all = q.extract(|_, _| true);
        assert_eq!(
            all.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(q.is_empty());
        // Time-based predicates see each event's scheduled instant.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(9), "late");
        let late = q.extract(|at, _| at > SimTime::from_secs(5));
        assert_eq!(late, vec![(SimTime::from_secs(9), "late")]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn push_while_draining_interleaves_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, ev)) = q.pop() {
            seen.push(ev);
            if ev < 4 {
                q.push(t + SimDuration::from_millis(1), ev + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    /// The model the queue is checked against: pending events in a plain
    /// `Vec`, delivered by (time, insertion sequence).
    #[derive(Default)]
    struct Reference {
        pending: Vec<(SimTime, u64, u32)>,
        next_seq: u64,
        now: SimTime,
    }

    impl Reference {
        fn push(&mut self, at: SimTime, event: u32) {
            self.pending.push((at, self.next_seq, event));
            self.next_seq += 1;
        }

        fn next_index(&self) -> Option<usize> {
            (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let (at, _, event) = self.pending.remove(self.next_index()?);
            self.now = at;
            Some((at, event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.next_index().map(|i| self.pending[i].0)
        }

        fn extract(&mut self, predicate: impl Fn(SimTime, &u32) -> bool) -> Vec<(SimTime, u32)> {
            let mut extracted = Vec::new();
            self.pending.retain(|&(at, seq, event)| {
                let matched = predicate(at, &event);
                if matched {
                    extracted.push((at, seq, event));
                }
                !matched
            });
            extracted.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            extracted
                .into_iter()
                .map(|(at, _, event)| (at, event))
                .collect()
        }
    }

    /// One random extraction predicate, decoded from a draw.
    fn predicate(raw: u64, now: SimTime) -> impl Fn(SimTime, &u32) -> bool {
        let kind = raw % 3;
        let modulus = 2 + (raw >> 2) % 3;
        let residue = (raw >> 4) % modulus;
        let cutoff = now + SimDuration::from_millis((raw >> 6) % 4);
        move |at, event| match kind {
            0 => u64::from(*event) % modulus == residue,
            1 => at <= cutoff,
            _ => at > cutoff,
        }
    }

    proptest! {
        #[test]
        fn queue_matches_a_sorted_vec_model(draws in proptest::collection::vec(0u64..u64::MAX, 1..300)) {
            // Random interleavings of push (in bursts at one instant, half
            // of them at the current instant, so ties are common), pop,
            // extract and the delivery of a batch held outside the queue.
            // Pops and extractions free slab slots that later pushes reuse.
            let mut q = EventQueue::new();
            let mut model = Reference::default();
            let mut next_event = 0u32;
            for (step, raw) in draws.into_iter().enumerate() {
                match raw % 9 {
                    0..=3 => {
                        // 1–3 events at one instant 0, 1 or 3 ms ahead.
                        let ahead = [0, 0, 0, 1, 1, 3][((raw >> 3) % 6) as usize];
                        let at = q.now() + SimDuration::from_millis(ahead);
                        for _ in 0..1 + (raw >> 6) % 3 {
                            q.push(at, next_event);
                            model.push(at, next_event);
                            next_event += 1;
                        }
                    }
                    4..=6 => {
                        let (popped, expected) = (q.pop(), model.pop());
                        prop_assert!(popped == expected, "step {step}: popped {popped:?}, model {expected:?}");
                    }
                    7 => {
                        let extracted = q.extract(predicate(raw >> 3, q.now()));
                        let expected = model.extract(predicate(raw >> 3, model.now));
                        prop_assert!(
                            extracted == expected,
                            "step {step}: extracted {extracted:?}, model {expected:?}"
                        );
                    }
                    _ => {
                        // A sorted batch of 1–4 events 0, 1 or 3 ms ahead,
                        // held outside the queue under reserved sequence
                        // numbers and delivered through `pop_before`; the
                        // model pushes it.  After some deliveries a
                        // follow-up is pushed at the delivered instant, so
                        // it ties with the rest of the batch and must come
                        // after it.
                        let mut batch: Vec<(SimTime, u32)> = (0..1 + (raw >> 4) % 4)
                            .map(|i| {
                                let ahead = [0, 0, 1, 3][((raw >> (6 + 2 * i)) % 4) as usize];
                                (q.now() + SimDuration::from_millis(ahead), next_event + i as u32)
                            })
                            .collect();
                        batch.sort_by_key(|&(at, _)| at);
                        next_event += batch.len() as u32;
                        let first_seq = q.reserve(batch.len() as u64);
                        for &(at, event) in &batch {
                            model.push(at, event);
                        }
                        for (offset, &(at, event)) in batch.iter().enumerate() {
                            while let Some(popped) = q.pop_before(at, first_seq + offset as u64) {
                                let expected = model.pop();
                                prop_assert!(
                                    Some(popped) == expected,
                                    "step {step}: popped {popped:?} before the batch, model {expected:?}"
                                );
                            }
                            let expected = model.pop();
                            prop_assert!(
                                Some((at, event)) == expected,
                                "step {step}: delivered {:?} from the batch, model {expected:?}",
                                (at, event)
                            );
                            prop_assert!(q.now() == at, "step {step}: now after a batch delivery");
                            if (raw >> (16 + offset)) & 1 == 1 {
                                q.push(at, next_event);
                                model.push(at, next_event);
                                next_event += 1;
                            }
                        }
                    }
                }
                prop_assert!(q.len() == model.pending.len(), "step {step}: len");
                prop_assert!(q.peek_time() == model.peek_time(), "step {step}: peek_time");
                prop_assert!(q.now() == model.now, "step {step}: now");
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
            prop_assert_eq!(rest, expected);
        }

        #[test]
        fn popped_timestamps_are_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }
    }
}
