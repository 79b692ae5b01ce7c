//! The bounded admission queue between connection handlers and the
//! micro-batcher: reject-on-full (load shedding) on the producer side,
//! batch-draining with a bounded linger on the consumer side.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity. The request was *not* enqueued;
    /// the caller should tell its client to back off (the wire layer
    /// answers `Busy`). Shedding at the door keeps queueing delay bounded
    /// at roughly `capacity / drain-rate` instead of growing without limit.
    Overloaded,
    /// The queue has been closed for shutdown; no new work is admitted
    /// (work already queued is still drained).
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full (overloaded)"),
            SubmitError::ShutDown => write!(f, "serving pipeline is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPSC queue: any thread may [`BoundedQueue::push`]
/// (failing fast when full), one consumer drains via
/// [`BoundedQueue::pop_batch`].
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<QueueInner<T>>,
    /// Signalled on push and on close.
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (pending, not yet popped).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, or refuses it when the queue is full or closed.
    /// Never blocks.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] at capacity, [`SubmitError::ShutDown`]
    /// after close. The item is dropped in both cases.
    pub fn push(&self, item: T) -> Result<(), SubmitError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(SubmitError::ShutDown);
        }
        if inner.items.len() >= self.capacity {
            return Err(SubmitError::Overloaded);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available (or the queue is closed),
    /// then drains up to `max` items into `out` — lingering at most
    /// `max_wait` after the first item in the hope of filling the batch.
    /// Returns `false` only when the queue is closed *and* fully drained
    /// (`out` is left empty in that case); a close with items still queued
    /// keeps returning batches until empty, which is what makes shutdown
    /// drain in-flight work.
    pub fn pop_batch(&self, max: usize, max_wait: Duration, out: &mut Vec<T>) -> bool {
        let max = max.max(1);
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("admission queue lock poisoned");
        }
        while out.len() < max {
            match inner.items.pop_front() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        if out.len() >= max || max_wait.is_zero() {
            return true;
        }
        // Adaptive linger: the batch is open — wait (bounded) for stragglers
        // so a trickle of traffic still forms batches, but a lone request
        // never waits longer than `max_wait`.
        let deadline = Instant::now() + max_wait;
        loop {
            if inner.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(inner, deadline - now)
                .expect("admission queue lock poisoned");
            inner = guard;
            while out.len() < max {
                match inner.items.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
            if out.len() >= max {
                break;
            }
        }
        true
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`SubmitError::ShutDown`], and the consumer keeps draining what is
    /// already queued before [`BoundedQueue::pop_batch`] reports exhaustion.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().expect("admission queue lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_fills_to_capacity_then_sheds() {
        let queue = BoundedQueue::new(3);
        assert_eq!(queue.capacity(), 3);
        for i in 0..3 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.push(99), Err(SubmitError::Overloaded));
        assert_eq!(queue.len(), 3);
        // Draining makes room again.
        let mut out = Vec::new();
        assert!(queue.pop_batch(2, Duration::ZERO, &mut out));
        assert_eq!(out, vec![0, 1]);
        queue.push(3).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn pop_batch_preserves_fifo_order() {
        let queue = BoundedQueue::new(16);
        for i in 0..10 {
            queue.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(queue.pop_batch(4, Duration::ZERO, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        assert!(queue.pop_batch(100, Duration::ZERO, &mut out));
        assert_eq!(out, (4..10).collect::<Vec<_>>());
    }

    #[test]
    fn linger_collects_stragglers_up_to_max_batch() {
        let queue = std::sync::Arc::new(BoundedQueue::new(16));
        queue.push(0).unwrap();
        let producer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.push(1).unwrap();
                queue.push(2).unwrap();
            })
        };
        let mut out = Vec::new();
        assert!(queue.pop_batch(3, Duration::from_millis(500), &mut out));
        producer.join().unwrap();
        // The batch filled (3 items) well before the 500ms linger expired.
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn close_drains_then_reports_exhaustion() {
        let queue = BoundedQueue::new(8);
        queue.push('a').unwrap();
        queue.push('b').unwrap();
        queue.close();
        assert_eq!(queue.push('c'), Err(SubmitError::ShutDown));
        let mut out = Vec::new();
        assert!(queue.pop_batch(1, Duration::ZERO, &mut out));
        assert_eq!(out, vec!['a']);
        out.clear();
        assert!(queue.pop_batch(1, Duration::from_millis(50), &mut out));
        assert_eq!(out, vec!['b']);
        out.clear();
        assert!(!queue.pop_batch(1, Duration::ZERO, &mut out));
        assert!(out.is_empty());
        assert!(queue.lock().closed);
    }

    #[test]
    fn pop_batch_wakes_on_close_while_waiting() {
        let queue = std::sync::Arc::new(BoundedQueue::<u8>::new(4));
        let closer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.close();
            })
        };
        let mut out = Vec::new();
        // Blocks empty, then the close wakes it with `false`.
        assert!(!queue.pop_batch(4, Duration::from_secs(5), &mut out));
        closer.join().unwrap();
    }
}
