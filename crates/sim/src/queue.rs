//! The discrete-event queue.
//!
//! A thin, deterministic wrapper over a binary heap: events scheduled for the
//! same instant are delivered in insertion order, which keeps simulations
//! reproducible regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion sequence for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list keyed by [`SimTime`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Current simulation time (timestamp of the last popped event).
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
        let mut kept = BinaryHeap::with_capacity(self.heap.len());
        let mut extracted: Vec<Entry<E>> = Vec::new();
        for entry in self.heap.drain() {
            if predicate(entry.at, &entry.event) {
                extracted.push(entry);
            } else {
                kept.push(entry);
            }
        }
        self.heap = kept;
        extracted.sort_unstable_by_key(|a| (a.at, a.seq));
        extracted.into_iter().map(|e| (e.at, e.event)).collect()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
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

    proptest! {
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
