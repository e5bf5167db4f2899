//! Cross-module tests for the readiness path: sockets, reactor, and executor
//! together. These live in the crate (not `tests/`) so they can read the
//! reactor's `poll(2)` syscall counter, which is not public API.

use std::future::Future;
use std::io::Write;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::io::{AsyncReadExt, AsyncWriteExt};
use crate::net::{TcpListener, TcpStream};
use crate::reactor::Reactor;
use crate::runtime::block_on;

/// Counts how many times the wrapped future is polled.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Arc<AtomicU64>,
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.inner.as_mut().poll(cx)
    }
}

async fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).await.unwrap();
    let (server, _) = listener.accept().await.unwrap();
    (client, server)
}

/// The no-busy-spin guarantee, executor side: a task blocked on a quiet socket
/// is polled only when something actually happens. Under the old spin-polling
/// runtime this read would be re-polled thousands of times over 200ms; here it
/// must wake exactly twice (registration, then readiness). The count is the
/// task's own, so sibling tests on the shared runtime cannot move it.
#[test]
fn pending_read_is_not_repolled_while_blocked() {
    block_on(async {
        let (mut client, mut server) = loopback_pair().await;
        let polls = Arc::new(AtomicU64::new(0));
        let reader = crate::spawn(CountPolls {
            polls: Arc::clone(&polls),
            inner: Box::pin(async move {
                let mut buf = [0u8; 4];
                client.read_exact(&mut buf).await.unwrap();
                buf
            }),
        });

        std::thread::sleep(Duration::from_millis(200));
        server.write_all(b"ping").await.unwrap();
        assert_eq!(&reader.await.unwrap(), b"ping");

        let task_polls = polls.load(Ordering::Relaxed);
        assert!(task_polls <= 4, "reader task polled {task_polls} times while blocked");
    });
}

/// Counts its wake-ups; stands in for a parked task.
struct CountWakes(AtomicU64);

impl Wake for CountWakes {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The no-busy-spin guarantee, reactor side: with a quiet socket registered the
/// reactor sleeps in its wait syscall instead of cycling. The process-wide
/// reactor's syscall counter moves with every socket of every test running
/// beside this one, so the test starts a reactor of its own: the only fd it
/// watches is the one registered here, and the count is exact — the wait that
/// absorbs the registration's self-wake, then nothing for the whole window.
#[test]
fn quiet_registration_parks_the_reactor() {
    let reactor = Reactor::start();
    let (quiet, mut peer) = UnixStream::pair().unwrap();
    let wakes = Arc::new(CountWakes(AtomicU64::new(0)));
    reactor.register_read(quiet.as_raw_fd(), &Waker::from(Arc::clone(&wakes)));

    let syscalls_before = reactor.poll_syscalls();
    std::thread::sleep(Duration::from_millis(200));
    let syscalls_while_idle = reactor.poll_syscalls() - syscalls_before;
    assert!(
        syscalls_while_idle <= 2,
        "reactor issued {syscalls_while_idle} wait syscalls over an idle 200ms window"
    );
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0, "woken with nothing to read");

    // Readiness still gets through, exactly once (registrations are one-shot).
    peer.write_all(b"x").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while wakes.0.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "one registration, one wake-up");
    reactor.deregister(quiet.as_raw_fd());
}

/// Readiness wakeups must never be lost: 200 strict request/response rounds
/// where each side blocks on the other. A single dropped wakeup deadlocks the
/// exchange, which the watchdog branch converts into a test failure.
#[test]
fn ping_pong_never_loses_a_wakeup() {
    block_on(async {
        let (mut client, mut server) = loopback_pair().await;
        let echo = crate::spawn(async move {
            let mut buf = [0u8; 1];
            for _ in 0..200 {
                server.read_exact(&mut buf).await.unwrap();
                server.write_all(&buf).await.unwrap();
            }
        });
        let rounds = async move {
            let mut buf = [0u8; 1];
            for round in 0..200u8 {
                client.write_all(&[round]).await.unwrap();
                client.read_exact(&mut buf).await.unwrap();
                assert_eq!(buf[0], round);
            }
        };
        let completed = crate::select! {
            _ = rounds => { true }
            _ = crate::time::sleep(Duration::from_secs(30)) => { false }
        };
        assert!(completed, "ping-pong stalled: a readiness wakeup was lost");
        echo.await.unwrap();
    });
}

/// The reactor and executor must sustain hundreds of concurrent sockets —
/// far more connections than worker threads.
#[test]
fn smoke_256_concurrent_sockets() {
    block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = crate::spawn(async move {
            for _ in 0..256 {
                let (mut stream, _) = listener.accept().await.unwrap();
                crate::spawn(async move {
                    let mut buf = [0u8; 4];
                    stream.read_exact(&mut buf).await.unwrap();
                    stream.write_all(&buf).await.unwrap();
                });
            }
        });
        let clients: Vec<_> = (0..256u32)
            .map(|index| {
                crate::spawn(async move {
                    let mut stream = TcpStream::connect(addr).await.unwrap();
                    stream.write_all(&index.to_le_bytes()).await.unwrap();
                    let mut buf = [0u8; 4];
                    stream.read_exact(&mut buf).await.unwrap();
                    u32::from_le_bytes(buf)
                })
            })
            .collect();
        let mut total = 0u64;
        for client in clients {
            total += u64::from(client.await.unwrap());
        }
        assert_eq!(total, (0..256).sum::<u64>());
        server.await.unwrap();
    });
}

/// Partial reads and writes: a multi-megabyte transfer against a slow reader
/// forces the writer through repeated short writes and write-readiness
/// parks; every byte must still arrive in order.
#[test]
fn partial_reads_and_writes_preserve_the_stream() {
    const LEN: usize = 4 << 20;
    block_on(async {
        let (mut client, mut server) = loopback_pair().await;
        let writer = crate::spawn(async move {
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            client.write_all(&payload).await.unwrap();
        });
        let mut received = 0usize;
        let mut chunk = vec![0u8; 1024];
        while received < LEN {
            let n = server.read(&mut chunk).await.unwrap();
            assert!(n > 0, "stream closed early at {received} bytes");
            for (offset, &byte) in chunk[..n].iter().enumerate() {
                assert_eq!(byte, ((received + offset) % 251) as u8);
            }
            received += n;
            // Stall periodically so the kernel buffers fill and the writer
            // experiences genuine short writes.
            if received % (256 << 10) < 1024 {
                crate::time::sleep(Duration::from_millis(2)).await;
            }
        }
        writer.await.unwrap();
    });
}
