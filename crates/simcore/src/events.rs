//! Discrete-event scheduling.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic
//! FIFO tie-breaking: events scheduled for the same instant pop in the
//! order they were pushed. For simulations that need an event order
//! *independent of push order*, [`EventQueue::push_keyed`] attaches a
//! canonical `u64` key that breaks same-time ties before the FIFO
//! sequence number — the pop order then depends only on `(time, key)`
//! for distinct keys, no matter how the pushes were interleaved. The
//! payload type is generic so each layer of the simulator can define
//! its own event enum.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, then
        // lowest-key-first, then lowest-sequence-first for FIFO ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue.
///
/// ```
/// use escra_simcore::{events::EventQueue, time::SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(20), "b");
/// q.push(SimTime::from_millis(10), "a");
/// q.push(SimTime::from_millis(20), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time` with key 0 (pure FIFO among ties).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(time, 0, event);
    }

    /// Schedules `event` at `time` with a canonical tie-breaking `key`.
    ///
    /// Among events due at the same instant, lower keys pop first; equal
    /// keys fall back to push-order FIFO. Schedulers that assign each
    /// event a unique `(time, key)` therefore observe a pop order that is
    /// a pure function of the schedule, independent of push interleaving.
    ///
    /// ```
    /// use escra_simcore::{events::EventQueue, time::SimTime};
    /// let t = SimTime::from_millis(4);
    /// let mut q = EventQueue::new();
    /// q.push_keyed(t, 2, "second");
    /// q.push_keyed(t, 1, "first");
    /// assert_eq!(q.pop(), Some((t, "first")));
    /// assert_eq!(q.pop(), Some((t, "second")));
    /// ```
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The earliest pending event and its time, without removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Pops the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 1);
        q.push(SimTime::from_millis(1), 2);
        q.push(SimTime::from_millis(5), 3);
        q.push(SimTime::from_millis(3), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "x");
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(
            q.pop_due(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), "x"))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_millis(i), i);
        }
        assert_eq!(q.len(), 10);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn keys_break_ties_before_fifo() {
        let t = SimTime::from_millis(7);
        let mut q = EventQueue::new();
        q.push_keyed(t, 3, "c");
        q.push_keyed(t, 1, "a");
        q.push_keyed(t, 2, "b");
        q.push_keyed(SimTime::from_millis(6), 9, "early");
        assert_eq!(q.peek(), Some((SimTime::from_millis(6), &"early")));
        assert_eq!(q.len(), 4, "peek removes nothing");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "a", "b", "c"]);
    }

    #[test]
    fn keyed_order_is_push_order_independent() {
        // Any permutation of pushes with distinct (time, key) pairs pops
        // in exactly the same order.
        let mut items: Vec<(u64, u64)> = Vec::new();
        for ms in 0..5u64 {
            for key in 0..4u64 {
                items.push((ms, key));
            }
        }
        let mut rng = crate::rng::SimRng::new(77);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for _ in 0..10 {
            // Fisher–Yates shuffle of the push order.
            for i in (1..items.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                items.swap(i, j);
            }
            let mut q = EventQueue::new();
            for &(ms, key) in &items {
                q.push_keyed(SimTime::from_millis(ms), key, (ms, key));
            }
            let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            match &reference {
                None => reference = Some(order),
                Some(r) => assert_eq!(&order, r),
            }
        }
    }

    #[test]
    fn plain_push_keeps_fifo_within_key_zero() {
        let t = SimTime::from_millis(1);
        let mut q = EventQueue::new();
        q.push(t, "first");
        q.push(t, "second");
        q.push_keyed(t, 0, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn large_interleaving_stays_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::SimRng::new(5);
        for i in 0..5000u64 {
            q.push(SimTime::from_micros(rng.next_below(1000)), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
