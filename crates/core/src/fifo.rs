//! A hardware-style bounded FIFO.
//!
//! Decouples the register and memory streams of each SSR/ISSR lane
//! (five data stages in the paper's configuration). Push/pop model the
//! valid/ready handshake: callers must check capacity first, as the RTL
//! would assert back-pressure.

use crate::lane::IDX_FIFO_DEPTH;
use std::collections::VecDeque;

/// Bounded FIFO with occupancy statistics.
#[derive(Clone, Debug)]
pub struct Fifo<T> {
    slots: VecDeque<T>,
    capacity: usize,
    /// Total elements ever pushed.
    pub pushes: u64,
    /// Total elements ever popped.
    pub pops: u64,
}

impl<T> Fifo<T> {
    /// Creates an empty FIFO with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive"); // gate-allow: host-API construction precondition
        Self { slots: VecDeque::with_capacity(capacity), capacity, pushes: 0, pops: 0 }
    }

    /// Maximum number of elements.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the FIFO holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the FIFO is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    /// Free slots remaining.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.slots.len()
    }

    /// Pushes an element.
    ///
    /// # Panics
    /// Panics if the FIFO is full — the caller models back-pressure and
    /// must check [`Self::is_full`] first.
    pub fn push(&mut self, value: T) {
        assert!(!self.is_full(), "FIFO overflow"); // gate-allow: documented precondition; callers model back-pressure via is_full
        self.slots.push_back(value);
        self.pushes += 1;
    }

    /// Pops the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.slots.pop_front();
        if v.is_some() {
            self.pops += 1;
        }
        v
    }

    /// Peeks at the oldest element.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.slots.front()
    }

    /// Discards all buffered elements (the stream-fault squash path —
    /// counted as pops so the push/pop statistics stay balanced).
    pub fn clear(&mut self) {
        self.pops += self.slots.len() as u64;
        self.slots.clear();
    }
}

/// The index-word FIFO of an indirection unit, joiner or SpAcc feed:
/// [`IDX_FIFO_DEPTH`] words stored inline, so launching a job does not
/// touch the heap.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdxFifo {
    words: [u64; IDX_FIFO_DEPTH],
    head: usize,
    len: usize,
}

impl IdxFifo {
    /// Current number of words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the FIFO holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots remaining.
    #[must_use]
    pub fn free(&self) -> usize {
        IDX_FIFO_DEPTH - self.len
    }

    /// Pushes a word.
    ///
    /// # Panics
    /// Panics if the FIFO is full — callers reserve a slot (via
    /// [`Self::free`]) before requesting the word.
    pub fn push(&mut self, word: u64) {
        assert!(self.len < IDX_FIFO_DEPTH, "index FIFO overflow"); // gate-allow: documented precondition; callers reserve a slot via free()
        self.words[(self.head + self.len) % IDX_FIFO_DEPTH] = word;
        self.len += 1;
    }

    /// Pops the oldest word, if any.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let word = self.words[self.head];
        self.head = (self.head + 1) % IDX_FIFO_DEPTH;
        self.len -= 1;
        Some(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_capacity() {
        let mut f = Fifo::new(3);
        f.push(1);
        f.push(2);
        f.push(3);
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(1));
        f.push(4);
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), None);
        assert_eq!(f.pushes, 4);
        assert_eq!(f.pops, 4);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut f = Fifo::new(1);
        f.push(1);
        f.push(2);
    }

    #[test]
    fn idx_fifo_wraps_in_order() {
        let mut f = IdxFifo::default();
        for round in 0..3u64 {
            for k in 0..IDX_FIFO_DEPTH as u64 {
                f.push(round * 10 + k);
            }
            assert_eq!(f.free(), 0);
            assert_eq!(f.pop(), Some(round * 10));
            f.push(99);
            for k in 1..IDX_FIFO_DEPTH as u64 {
                assert_eq!(f.pop(), Some(round * 10 + k));
            }
            assert_eq!(f.pop(), Some(99));
            assert!(f.is_empty() && f.pop().is_none());
        }
    }

    #[test]
    fn front_does_not_consume() {
        let mut f = Fifo::new(2);
        f.push(7);
        assert_eq!(f.front(), Some(&7));
        assert_eq!(f.len(), 1);
    }
}
