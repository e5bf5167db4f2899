//! Async synchronization primitives: unbounded mpsc channels (the subset used
//! by this workspace).
//!
//! The channel is waker-correct: a pending receive parks its waker under the
//! channel lock, so a racing `send` cannot miss it. Nothing spins.

use std::collections::VecDeque;
use std::future::poll_fn;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

pub mod mpsc {
    //! Unbounded multi-producer single-consumer channels.

    use super::*;

    struct Inner<T> {
        queue: VecDeque<T>,
        /// The receiver's parked waker. Stored and taken under the same lock
        /// as the queue, so a send between the empty check and the park is
        /// impossible.
        recv_waker: Option<Waker>,
    }

    struct Shared<T> {
        inner: std::sync::Mutex<Inner<T>>,
        senders: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn wake_receiver(&self) {
            let waker = self.inner.lock().unwrap().recv_waker.take();
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    /// Error returned when the receiver has been dropped.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("channel closed")
        }
    }

    /// Sending half of an unbounded channel.
    pub struct UnboundedSender<T> {
        shared: Arc<Shared<T>>,
        receiver_alive: Arc<AtomicBool>,
    }

    /// Receiving half of an unbounded channel.
    pub struct UnboundedReceiver<T> {
        shared: Arc<Shared<T>>,
        receiver_alive: Arc<AtomicBool>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded_channel<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
        let shared = Arc::new(Shared {
            inner: std::sync::Mutex::new(Inner { queue: VecDeque::new(), recv_waker: None }),
            senders: AtomicUsize::new(1),
        });
        let receiver_alive = Arc::new(AtomicBool::new(true));
        (
            UnboundedSender {
                shared: Arc::clone(&shared),
                receiver_alive: Arc::clone(&receiver_alive),
            },
            UnboundedReceiver { shared, receiver_alive },
        )
    }

    impl<T> UnboundedSender<T> {
        /// Enqueues a message and wakes the receiver; fails if the receiver
        /// is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if !self.receiver_alive.load(Ordering::Acquire) {
                return Err(SendError(value));
            }
            let waker = {
                let mut inner = self.shared.inner.lock().unwrap();
                inner.queue.push_back(value);
                inner.recv_waker.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
            Ok(())
        }
    }

    impl<T> UnboundedReceiver<T> {
        /// Waits for the next message; `None` once all senders are dropped
        /// and the queue is drained.
        pub async fn recv(&mut self) -> Option<T> {
            poll_fn(|cx| self.poll_recv(cx)).await
        }

        /// Takes the next message if one is queued; otherwise parks `cx`'s
        /// waker (replacing any parked before) and returns `Pending`, or
        /// `Ready(None)` once all senders are dropped and the queue is
        /// drained. A message is taken only by a `Ready` poll, so a receive
        /// abandoned while pending loses nothing.
        pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(value) = inner.queue.pop_front() {
                return Poll::Ready(Some(value));
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Poll::Ready(None);
            }
            inner.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    impl<T> Clone for UnboundedSender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            UnboundedSender {
                shared: Arc::clone(&self.shared),
                receiver_alive: Arc::clone(&self.receiver_alive),
            }
        }
    }

    impl<T> Drop for UnboundedSender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: a parked receiver must wake to observe `None`.
                self.shared.wake_receiver();
            }
        }
    }

    impl<T> Drop for UnboundedReceiver<T> {
        fn drop(&mut self) {
            self.receiver_alive.store(false, Ordering::Release);
        }
    }

    impl<T> std::fmt::Debug for UnboundedSender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("UnboundedSender")
        }
    }

    impl<T> std::fmt::Debug for UnboundedReceiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("UnboundedReceiver")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::block_on;

    #[test]
    fn channel_delivers_in_order() {
        block_on(async {
            let (tx, mut rx) = mpsc::unbounded_channel();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, Some(2));
            drop(tx);
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn recv_parks_until_a_cross_thread_send() {
        let (tx, mut rx) = mpsc::unbounded_channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(7u32).unwrap();
        });
        assert_eq!(block_on(rx.recv()), Some(7));
        sender.join().unwrap();
    }
}
