//! Lock-free queues: the subset of `crossbeam::queue` the engine's mailboxes
//! need.
//!
//! [`SegQueue`] is an unbounded queue with **lock-free multi-producer push**
//! (one atomic swap per enqueue) and a single-consumer pop discipline
//! (Vyukov's intrusive MPSC algorithm). Concurrent poppers are tolerated —
//! a consumer token serializes them — but the intended shape is the engine's
//! mailbox topology: many producer threads, exactly one owner draining.
//!
//! It drops any queued elements when the queue itself is dropped — the
//! "drop-on-shutdown" semantics the executor relies on for graceful teardown.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Linked node of a [`SegQueue`]. `value` is `None` only in the stub node.
struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

impl<T> Node<T> {
    fn boxed(value: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node { next: AtomicPtr::new(ptr::null_mut()), value }))
    }
}

/// An unbounded queue with lock-free multi-producer push and single-consumer
/// pop (Vyukov's intrusive MPSC queue behind a consumer token).
///
/// `push` is wait-free apart from one allocation: the producer swaps the tail
/// pointer and links its node — no CAS loops, no locks, no contention between
/// producers beyond the swap itself. `pop` is intended for a single owner; if
/// several threads race to pop, an internal token serializes them (they spin on
/// a CAS, they never block).
pub struct SegQueue<T> {
    /// Consumer side: the node *before* the next value (Vyukov's stub dance).
    head: AtomicPtr<Node<T>>,
    /// Producer side: the most recently pushed node.
    tail: AtomicPtr<Node<T>>,
    /// 0 = free, 1 = a consumer is inside `pop`.
    consumer: AtomicUsize,
    len: AtomicUsize,
}

unsafe impl<T: Send> Send for SegQueue<T> {}
unsafe impl<T: Send> Sync for SegQueue<T> {}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let stub = Node::boxed(None);
        SegQueue {
            head: AtomicPtr::new(stub),
            tail: AtomicPtr::new(stub),
            consumer: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues `value`. Never blocks and never fails.
    pub fn push(&self, value: T) {
        let node = Node::boxed(Some(value));
        // Swap ourselves in as the tail, then link the predecessor to us. A
        // consumer that observes the swap before the link sees a transiently
        // "inconsistent" queue and treats it as empty; the caller's wakeup
        // (event/condvar) fires after `push` returns, so nothing is lost.
        let prev = self.tail.swap(node, Ordering::AcqRel);
        unsafe { (*prev).next.store(node, Ordering::Release) };
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Dequeues the oldest value, or `None` if the queue is empty (or mid-push:
    /// a producer has reserved the slot but not linked it yet — retry after the
    /// producer's wakeup).
    pub fn pop(&self) -> Option<T> {
        // Serialize concurrent consumers; the engine runs one consumer per
        // queue, so this CAS is uncontended in practice.
        while self.consumer.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            std::hint::spin_loop();
        }
        let result = unsafe { self.pop_inner() };
        self.consumer.store(0, Ordering::Release);
        result
    }

    /// # Safety
    /// Must only run under the consumer token: it mutates `head` and frees the
    /// popped node, which no producer ever dereferences after linking.
    unsafe fn pop_inner(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let next = (*head).next.load(Ordering::Acquire);
        if next.is_null() {
            return None;
        }
        // The old head (a consumed node or the stub) retires; `next` becomes
        // the new stub after we take its value.
        let value = (*next).value.take();
        self.head.store(next, Ordering::Relaxed);
        drop(Box::from_raw(head));
        self.len.fetch_sub(1, Ordering::Release);
        value
    }

    /// Approximate number of queued elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the queue is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SegQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the list, dropping queued values and nodes.
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            let mut boxed = unsafe { Box::from_raw(node) };
            node = *boxed.next.get_mut();
            drop(boxed.value.take());
        }
    }
}

impl<T> std::fmt::Debug for SegQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegQueue").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn seg_queue_fifo_single_thread() {
        let queue = SegQueue::new();
        for i in 0..100 {
            queue.push(i);
        }
        assert_eq!(queue.len(), 100);
        for i in 0..100 {
            assert_eq!(queue.pop(), Some(i));
        }
        assert_eq!(queue.pop(), None);
        assert!(queue.is_empty());
    }

    /// MPSC ordering: items from each producer arrive in that producer's push
    /// order, and nothing is lost or duplicated.
    #[test]
    fn seg_queue_mpsc_preserves_per_producer_order() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        let queue = Arc::new(SegQueue::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        queue.push((producer, i));
                    }
                })
            })
            .collect();

        let mut last_seen = [None::<u64>; PRODUCERS as usize];
        let mut received = 0u64;
        while received < PRODUCERS * PER_PRODUCER {
            if let Some((producer, i)) = queue.pop() {
                let last = &mut last_seen[producer as usize];
                assert!(last.map_or(i == 0, |prev| i == prev + 1), "per-producer FIFO violated");
                *last = Some(i);
                received += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(queue.pop(), None);
    }

    struct CountsDrops(Arc<AtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Dropping a queue drops everything still inside it — the shutdown path
    /// must not leak undelivered mailbox messages.
    #[test]
    fn seg_queue_drops_queued_items_on_shutdown() {
        let drops = Arc::new(AtomicUsize::new(0));
        let queue = SegQueue::new();
        for _ in 0..10 {
            queue.push(CountsDrops(Arc::clone(&drops)));
        }
        let _ = queue.pop(); // one consumed...
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(queue); // ...nine dropped with the queue
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }
}
