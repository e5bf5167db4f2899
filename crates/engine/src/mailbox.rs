//! Mailboxes with blocking wakeups.
//!
//! Every engine thread (router or shard worker) owns one [`Signal`] and parks
//! on it when idle; every queue feeding that thread shares the signal. A queue
//! is a `VecDeque` under a `std::sync::Mutex`, and a lock is enough because
//! every critical section is O(1): a producer holds it for one `push_back`,
//! the consumer for one swap of the queue's buffer with its own empty one (or
//! one `pop_front`). The wakeup comes after the lock is released: a push holds
//! the lock for one store and then, only when the consumer might be parked,
//! takes the signal's lock to notify it. Both buffers keep their capacity, so
//! a steady stream of hand-offs allocates nothing. Mailboxes are unbounded;
//! what bounds a node is the [`Gate`] in front of client submissions, which
//! counts commands from `submit` until an engine thread dequeues them and
//! parks submitters beyond its limit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A consumer's wakeup latch: set by producers, consumed by one parked thread.
///
/// The latch (not the condvar alone) is what makes wakeups race-free: a
/// producer that pushes between the consumer's drain and its park leaves the
/// latch set, so the park returns immediately instead of sleeping a full
/// timeout with work pending.
#[derive(Debug, Default)]
pub struct Signal {
    /// Fast-path flag checked without the mutex; mirrors `state`.
    pending: AtomicBool,
    state: Mutex<bool>,
    ready: Condvar,
}

impl Signal {
    /// Creates an unsignalled latch.
    pub fn new() -> Self {
        Signal::default()
    }

    /// Sets the latch and wakes the consumer if it is parked.
    pub fn notify(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            // Already signalled: the consumer will observe it; skip the lock.
            return;
        }
        let mut state = self.state.lock().unwrap();
        *state = true;
        drop(state);
        self.ready.notify_one();
    }

    /// Parks until the latch is set or `timeout` elapses, then clears it.
    /// Returns immediately when the latch is already set.
    pub fn wait_timeout(&self, timeout: Duration) {
        let state = self.state.lock().expect("signal lock poisoned");
        let (state, _) = self
            .ready
            .wait_timeout_while(state, timeout, |set| !*set)
            .expect("signal lock poisoned");
        self.clear(state);
    }

    /// Parks until the latch is set, then clears it — for consumers with no
    /// timer to serve, which would only wake from a timed park to find nothing
    /// to do. Returns immediately when the latch is already set.
    pub fn wait(&self) {
        let state = self.state.lock().expect("signal lock poisoned");
        let state = self.ready.wait_while(state, |set| !*set).expect("signal lock poisoned");
        self.clear(state);
    }

    /// Consumes the latch. `pending` is cleared with a read-modify-write, not
    /// a store: a producer whose `notify` found `pending` still set skips the
    /// lock, so the only thing ordering its push before the consumer's next
    /// drain is this swap reading from that producer's swap. A plain store
    /// reads from nothing — the drain's loads could be satisfied first, miss
    /// the push, and the consumer would park on a latch nobody will set
    /// again: a millisecond lost under a timed park, a hang under
    /// [`Signal::wait`].
    fn clear(&self, mut state: MutexGuard<'_, bool>) {
        *state = false;
        drop(state);
        self.pending.swap(false, Ordering::AcqRel);
    }
}

/// An unbounded MPSC mailbox: a locked `VecDeque` plus the consumer's shared
/// [`Signal`]. Items from one producer arrive in the order it pushed them.
#[derive(Debug)]
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    signal: Arc<Signal>,
}

impl<T> Mailbox<T> {
    /// Creates a mailbox whose pushes wake `signal`'s owner.
    pub fn new(signal: Arc<Signal>) -> Self {
        Mailbox { queue: Mutex::new(VecDeque::new()), signal }
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().expect("mailbox lock poisoned")
    }

    /// Enqueues `item` and wakes the consumer.
    pub fn push(&self, item: T) {
        self.queue().push_back(item);
        self.signal.notify();
    }

    /// Moves every queued item to the back of `buf`; returns how many were
    /// moved. An empty `buf` trades buffers with the queue, so the items are
    /// not copied and both buffers keep their capacity.
    pub fn drain_into(&self, buf: &mut VecDeque<T>) -> usize {
        let mut queue = self.queue();
        let moved = queue.len();
        if buf.is_empty() {
            std::mem::swap(&mut *queue, buf);
        } else {
            buf.append(&mut queue);
        }
        moved
    }

    /// Dequeues one item if one is ready.
    pub fn try_pop(&self) -> Option<T> {
        self.queue().pop_front()
    }

    /// Whether the mailbox is currently empty.
    pub fn is_empty(&self) -> bool {
        self.queue().is_empty()
    }
}

/// A counting admission gate: at most `limit` holders at a time. A full gate
/// pushes back on the caller — [`Gate::acquire`] parks on a condvar until a
/// holder releases — so clients cannot outrun the engine unboundedly, and a
/// blocked caller costs no CPU while it waits. The uncontended path on both
/// sides is one atomic read-modify-write.
///
/// The park/unpark handshake is race-free without any timeout: a caller
/// re-tries *while holding* `lock` before it waits, and the release that takes
/// the count off the limit takes that same lock between freeing the slot and
/// notifying. That release therefore either (a) freed the slot before the
/// caller's locked re-try, which then succeeds and never waits, or (b) freed
/// it after, in which case its lock acquisition is ordered after the caller's
/// `wait` released the lock — so the `notify_all` cannot land in the gap
/// between re-try and park. The count never exceeds `limit`, so a caller only
/// ever waits while the count *is* the limit, and every release from there
/// notifies.
#[derive(Debug)]
pub struct Gate {
    limit: usize,
    held: AtomicUsize,
    /// Parking lot for callers blocked on a full gate; see the type docs for
    /// the lock ordering that makes the untimed wait safe.
    lock: Mutex<()>,
    freed: Condvar,
}

impl Gate {
    /// Creates a gate admitting `limit` concurrent holders.
    pub fn new(limit: usize) -> Self {
        Gate { limit, held: AtomicUsize::new(0), lock: Mutex::new(()), freed: Condvar::new() }
    }

    /// Takes a slot if one is free, without blocking.
    fn try_acquire(&self) -> bool {
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < self.limit).then_some(held + 1)
            })
            .is_ok()
    }

    /// Takes a slot, parking the calling thread while the gate is full.
    pub fn acquire(&self) {
        if self.try_acquire() {
            return;
        }
        let mut guard = self.lock.lock().expect("gate lock poisoned");
        while !self.try_acquire() {
            guard = self.freed.wait(guard).expect("gate lock poisoned");
        }
    }

    /// Returns a slot, waking parked callers if the gate was full.
    pub fn release(&self) {
        if self.held.fetch_sub(1, Ordering::AcqRel) == self.limit {
            drop(self.lock.lock().expect("gate lock poisoned"));
            self.freed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// One thread's pushes come back in push order, by single pops and by a
    /// drain behind items already in the consumer's buffer.
    #[test]
    fn one_thread_pops_in_push_order() {
        let mailbox = Mailbox::new(Arc::new(Signal::new()));
        for i in 0..100 {
            mailbox.push(i);
        }
        for i in 0..50 {
            assert_eq!(mailbox.try_pop(), Some(i));
        }
        let mut buf = VecDeque::from([-1]);
        assert_eq!(mailbox.drain_into(&mut buf), 50);
        assert_eq!(buf, [-1].into_iter().chain(50..100).collect::<VecDeque<_>>());
        assert_eq!(mailbox.try_pop(), None);
        assert!(mailbox.is_empty());
    }

    /// Per-producer FIFO, which the engine relies on (an `Adopt` ahead of its
    /// shard's traffic, an `Install` ahead of the new assignment's, a shard's
    /// frames in arrival order): four producers race a consumer that
    /// alternates whole drains with single pops, and every item arrives
    /// exactly once, in its producer's order.
    #[test]
    fn racing_producers_keep_their_order() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let signal = Arc::new(Signal::new());
        let mailbox = Arc::new(Mailbox::new(Arc::clone(&signal)));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let mailbox = Arc::clone(&mailbox);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        mailbox.push((producer, i));
                    }
                })
            })
            .collect();
        let mut next = [0u64; PRODUCERS as usize];
        let mut accept = |(producer, i): (u64, u64)| {
            let expected = &mut next[producer as usize];
            assert_eq!(i, *expected, "producer {producer}'s items out of order");
            *expected += 1;
        };
        let total = PRODUCERS * PER_PRODUCER;
        let mut buf = VecDeque::new();
        let mut received = 0;
        for round in 0u64.. {
            if received == total {
                break;
            }
            let taken: Vec<_> = match round % 3 {
                // One item at a time.
                0 => mailbox.try_pop().into_iter().collect(),
                // A drain into an empty buffer (the swap), one item held back...
                1 => {
                    mailbox.drain_into(&mut buf);
                    buf.drain(..buf.len().saturating_sub(1)).collect()
                }
                // ...so that the next drain lands behind it (the append).
                _ => {
                    mailbox.drain_into(&mut buf);
                    buf.drain(..).collect()
                }
            };
            received += taken.len() as u64;
            taken.into_iter().for_each(&mut accept);
        }
        for producer in producers {
            producer.join().unwrap();
        }
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
        assert!(mailbox.is_empty());
    }

    struct CountsDrops(Arc<AtomicUsize>);

    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Dropping a mailbox drops what is still queued in it: a node's shutdown
    /// leaks no undelivered message.
    #[test]
    fn queued_items_drop_with_the_mailbox() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mailbox = Mailbox::new(Arc::new(Signal::new()));
        for _ in 0..10 {
            mailbox.push(CountsDrops(Arc::clone(&drops)));
        }
        drop(mailbox.try_pop());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(mailbox);
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn signal_wakes_parked_consumer() {
        let signal = Arc::new(Signal::new());
        let mailbox = Arc::new(Mailbox::new(Arc::clone(&signal)));
        let consumer = {
            let signal = Arc::clone(&signal);
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || {
                let mut buf = VecDeque::new();
                while buf.is_empty() {
                    mailbox.drain_into(&mut buf);
                    if buf.is_empty() {
                        // Untimed: a lost wakeup hangs the test.
                        signal.wait();
                    }
                }
                buf
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        mailbox.push(42u64);
        assert_eq!(consumer.join().unwrap(), vec![42]);
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        let signal = Signal::new();
        signal.notify();
        let start = Instant::now();
        signal.wait_timeout(Duration::from_secs(5));
        // The pre-set latch must make the wait return without sleeping.
        assert!(start.elapsed() < Duration::from_secs(1));
        signal.notify();
        signal.wait();
    }

    #[test]
    fn gate_applies_backpressure() {
        let gate = Arc::new(Gate::new(2));
        gate.acquire();
        gate.acquire();
        assert!(!gate.try_acquire());
        // A blocked acquire completes once a holder releases.
        let blocked = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire())
        };
        std::thread::sleep(Duration::from_millis(5));
        assert!(!blocked.is_finished());
        gate.release();
        blocked.join().unwrap();
        assert!(!gate.try_acquire());
    }

    /// The park/unpark stress for the untimed wait: a one-slot gate forces
    /// every producer through the slow path thousands of times. There is no
    /// timeout to paper over a missed notify — losing one hangs the test. The
    /// consumer parks between empty polls, so the producer → consumer `Signal`
    /// edge is stressed in the same run, untimed as well.
    #[test]
    fn blocked_callers_are_released_by_wakeups_alone() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 512;
        let signal = Arc::new(Signal::new());
        let mailbox = Arc::new(Mailbox::new(Arc::clone(&signal)));
        let gate = Arc::new(Gate::new(1));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|base| {
                let (mailbox, gate) = (Arc::clone(&mailbox), Arc::clone(&gate));
                std::thread::spawn(move || {
                    for offset in 0..PER_PRODUCER {
                        gate.acquire();
                        mailbox.push(base * PER_PRODUCER + offset);
                    }
                })
            })
            .collect();
        let total = (PRODUCERS * PER_PRODUCER) as usize;
        let mut buf = Vec::new();
        while buf.len() < total {
            match mailbox.try_pop() {
                Some(item) => {
                    buf.push(item);
                    gate.release();
                }
                None => signal.wait(),
            }
        }
        for producer in producers {
            producer.join().unwrap();
        }
        buf.sort_unstable();
        assert_eq!(buf, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }
}
