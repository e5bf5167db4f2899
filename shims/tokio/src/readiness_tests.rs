//! Cross-module tests for the readiness path: sockets, driver, and executor
//! together. These live in the crate (not `tests/`) so they can start a
//! runtime of their own and read its `epoll_wait` and wake-up counters, which
//! are not public API. A test that asserts on an interleaving forces it — a
//! one-worker runtime whose worker is held on a channel — instead of sleeping
//! and hoping.

use std::future::Future;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc as std_mpsc, Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::io::{AsyncReadExt, AsyncWriteExt};
use crate::net::{TcpListener, TcpStream};
use crate::reactor::{Direction, Registration};
use crate::runtime::{block_on, Executor};
use crate::sync::mpsc;

/// What a test waits for a hung runtime before it fails.
const WATCHDOG: Duration = Duration::from_secs(30);

/// `epoll_wait` calls `runtime` has made.
fn waits(runtime: &Executor) -> u64 {
    runtime.driver.waits.load(Ordering::Relaxed)
}

/// (slot runs, condvar notifies, eventfd kicks) of `runtime` so far.
fn wakeups(runtime: &'static Executor) -> (u64, u64, u64) {
    (
        runtime.slot_runs.load(Ordering::Relaxed),
        runtime.notifies.load(Ordering::Relaxed),
        runtime.driver.kicks.load(Ordering::Relaxed),
    )
}

/// Returns once `runtime` is fast asleep: one of its `workers` in (or
/// committed to) a blocking `epoll_wait`, the rest parked on the condvar.
fn settle(runtime: &'static Executor, workers: usize) {
    let deadline = Instant::now() + WATCHDOG;
    let asleep = || {
        let parked = runtime.driver.parked.load(Ordering::SeqCst);
        runtime.queue.lock().unwrap().idle + usize::from(parked)
    };
    while asleep() != workers {
        assert!(Instant::now() < deadline, "the runtime never went to sleep");
        std::thread::yield_now();
    }
}

/// Counts how many times the wrapped future is polled.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Arc<AtomicU64>,
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.fetch_add(1, Ordering::SeqCst);
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

/// A blocking client and the runtime's end of one loopback connection,
/// accepted on `runtime` so that its driver watches the socket.
fn accept_on(runtime: &'static Executor) -> (std::net::TcpStream, TcpStream) {
    let (addr_tx, addr_rx) = std_mpsc::channel();
    let accepted = runtime.spawn(async move {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        addr_tx.send(listener.local_addr().unwrap()).unwrap();
        listener.accept().await.unwrap().0
    });
    let client = std::net::TcpStream::connect(addr_rx.recv_timeout(WATCHDOG).unwrap()).unwrap();
    client.set_nodelay(true).unwrap();
    (client, block_on(accepted).unwrap())
}

/// Occupies one worker of `runtime` until the returned sender is used or
/// dropped, and returns once the worker is held.
fn hold_a_worker(runtime: &'static Executor) -> std_mpsc::Sender<()> {
    let (release, released) = std_mpsc::channel::<()>();
    let (held_tx, held) = std_mpsc::channel();
    runtime.spawn(async move {
        held_tx.send(()).unwrap();
        let _ = released.recv();
    });
    held.recv_timeout(WATCHDOG).expect("the worker picked the blocking task up");
    release
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

        let task_polls = polls.load(Ordering::SeqCst);
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

/// The no-busy-spin guarantee, driver side: with a quiet socket registered an
/// idle runtime sleeps in one untimed `epoll_wait` instead of cycling. The
/// process-wide runtime's counter moves with every socket of every test
/// running beside this one, so the test starts a runtime of its own: the only
/// fd its driver watches is the one registered here, and the count is exact.
#[test]
fn quiet_registration_parks_the_reactor() {
    let runtime = Executor::start(2);
    let (mut quiet, mut peer) = UnixStream::pair().unwrap();
    quiet.set_nonblocking(true).unwrap();
    let io = Registration::new(&runtime.driver, quiet.as_raw_fd()).unwrap();
    // A new socket counts as ready until an attempt says otherwise.
    let mut buf = [0u8; 8];
    let blocked = io.try_io(Direction::Read, || quiet.read(&mut buf), |_| false).unwrap_err();
    assert_eq!(blocked.kind(), std::io::ErrorKind::WouldBlock);
    let wakes = Arc::new(CountWakes(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&wakes));
    assert!(io.poll_ready(Direction::Read, &mut Context::from_waker(&waker)).is_pending());

    settle(runtime, 2);
    let waits_before = waits(runtime);
    std::thread::sleep(Duration::from_millis(200));
    let waits_while_idle = waits(runtime) - waits_before;
    assert!(
        waits_while_idle <= 2,
        "the runtime made {waits_while_idle} epoll_waits over an idle 200ms window"
    );
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0, "woken with nothing to read");

    // Readiness still gets through, exactly once (the waker is taken).
    peer.write_all(b"x").unwrap();
    let deadline = Instant::now() + WATCHDOG;
    while wakes.0.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    peer.write_all(b"y").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "one parked waker, one wake-up");
    assert!(io.poll_ready(Direction::Read, &mut Context::from_waker(&waker)).is_ready());
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
            _ = crate::time::sleep(WATCHDOG) => { false }
        };
        assert!(completed, "ping-pong stalled: a readiness wakeup was lost");
        echo.await.unwrap();
    });
}

/// The driver and executor must sustain hundreds of concurrent sockets —
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

/// Hang-up is sticky. The reader is parked when the peer's last bytes and its
/// FIN arrive, and the only worker is held until both are in: the driver
/// reports them as one edge. The read that follows is short, which would
/// mark the socket drained — and with no further edge to come, a reader that
/// parked again would never see the end of the stream.
#[test]
fn eof_arrives_with_the_last_short_read() {
    let runtime = Executor::start(1);
    let (mut client, mut server) = accept_on(runtime);
    let polls = Arc::new(AtomicU64::new(0));
    let (seen_tx, seen) = std_mpsc::channel();
    runtime.spawn(CountPolls {
        polls: Arc::clone(&polls),
        inner: Box::pin(async move {
            let mut buf = [0u8; 64];
            loop {
                let count = server.read(&mut buf).await.unwrap();
                seen_tx.send(buf[..count].to_vec()).unwrap();
                if count == 0 {
                    return;
                }
            }
        }),
    });
    // One worker: once it runs the blocking task, the reader's first poll
    // (an empty socket, so it parked) is over.
    while polls.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let release = hold_a_worker(runtime);
    client.write_all(b"last").unwrap();
    drop(client);
    // Loopback delivers both before `close` returns; the pause is slack.
    std::thread::sleep(Duration::from_millis(20));
    drop(release);

    assert_eq!(seen.recv_timeout(WATCHDOG).unwrap(), b"last");
    let end = seen.recv_timeout(WATCHDOG).expect("the reader parked on a closed socket");
    assert!(end.is_empty());
}

/// A wake-up from a thread the runtime does not own reaches a runtime that is
/// fast asleep: with one worker it must interrupt the `epoll_wait` (an
/// `eventfd` kick), with two the worker parked on the condvar is notified and
/// the one in `epoll_wait` is left alone.
#[test]
fn wake_from_a_plain_thread_reaches_a_parked_runtime() {
    for workers in [1, 2] {
        let runtime = Executor::start(workers);
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let (got_tx, got) = std_mpsc::channel();
        runtime.spawn(async move {
            while let Some(value) = rx.recv().await {
                got_tx.send(value).unwrap();
            }
        });
        for round in 0..20 {
            settle(runtime, workers);
            let (_, notifies, kicks) = wakeups(runtime);
            tx.send(round).unwrap();
            let received = got.recv_timeout(WATCHDOG);
            assert_eq!(received, Ok(round), "a parked runtime slept through a wake-up");
            let (_, notifies_after, kicks_after) = wakeups(runtime);
            assert!(
                notifies_after + kicks_after > notifies + kicks,
                "{workers} worker(s): the task ran with nobody woken"
            );
            if workers == 1 {
                assert_eq!(notifies_after, notifies, "nobody waits on the condvar");
            }
        }
    }
}

/// A timer registered while a worker is blocked in an untimed `epoll_wait`
/// must shorten that wait: the task that sleeps is polled by the *other*
/// worker, which then finds the turn taken and parks.
#[test]
fn timer_registered_during_an_untimed_wait_fires_on_time() {
    let runtime = Executor::start(2);
    settle(runtime, 2);
    let (fired_tx, fired) = std_mpsc::channel();
    let started = Instant::now();
    runtime.spawn(async move {
        crate::time::sleep(Duration::from_millis(5)).await;
        fired_tx.send(started.elapsed()).unwrap();
    });
    let elapsed = fired.recv_timeout(WATCHDOG).expect("the timer never fired");
    assert!(elapsed >= Duration::from_millis(5));
    assert!(elapsed < Duration::from_millis(50), "a 5 ms sleep took {elapsed:?}");
}

/// The slot cannot starve the shared queue: two tasks waking each other run
/// through the only worker's slot, and a third, queued behind them, still
/// gets its poll (and ends the game).
#[test]
fn slot_ping_pong_does_not_starve_the_shared_queue() {
    let runtime = Executor::start(1);
    let stop = Arc::new(AtomicBool::new(false));
    let (to_pong, mut pong_rx) = mpsc::unbounded_channel::<()>();
    let (to_ping, mut ping_rx) = mpsc::unbounded_channel::<()>();
    let ping_stop = Arc::clone(&stop);
    let ping = runtime.spawn(async move {
        let mut rounds = 0u64;
        while !ping_stop.load(Ordering::SeqCst) {
            to_pong.send(()).unwrap();
            ping_rx.recv().await.unwrap();
            rounds += 1;
        }
        rounds
    });
    let pong = runtime.spawn(async move {
        while pong_rx.recv().await.is_some() {
            to_ping.send(()).unwrap();
        }
    });
    // Let the game reach the slot before the third task queues up behind it.
    let deadline = Instant::now() + WATCHDOG;
    while wakeups(runtime).0 < 10 {
        assert!(Instant::now() < deadline, "the ping-pong never used the slot");
        std::thread::yield_now();
    }
    let third = runtime.spawn(async move { stop.store(true, Ordering::SeqCst) });
    let finished = block_on(async {
        crate::select! {
            _ = third => { true }
            _ = crate::time::sleep(WATCHDOG) => { false }
        }
    });
    assert!(finished, "a task on the shared queue starved behind the slot");
    assert!(block_on(ping).unwrap() > 0);
    block_on(pong).unwrap();
}

/// A task that wakes itself goes to the back of the shared queue: a task
/// already there runs before the self-woken one resumes. One worker, held
/// until both tasks are queued, so the order is the queue's and nothing
/// else's.
#[test]
fn a_self_waking_task_lets_a_queued_task_run_first() {
    let runtime = Executor::start(1);
    let release = hold_a_worker(runtime);
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    let yielder = runtime.spawn(async move {
        log.lock().unwrap().push("yielder starts");
        let mut woken = false;
        std::future::poll_fn(|cx| {
            if std::mem::replace(&mut woken, true) {
                return Poll::Ready(());
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        })
        .await;
        log.lock().unwrap().push("yielder resumes");
    });
    let log = Arc::clone(&order);
    let queued = runtime.spawn(async move { log.lock().unwrap().push("queued runs") });
    drop(release);
    block_on(yielder).unwrap();
    block_on(queued).unwrap();
    assert_eq!(*order.lock().unwrap(), ["yielder starts", "queued runs", "yielder resumes"]);
}

/// The point of the design: a frame that arrives on a sleeping runtime costs
/// the one wake-up the kernel delivers. The worker that returns from
/// `epoll_wait` runs the echo task itself (from its slot), the reply is
/// written from that poll, and the next read parks without a syscall — no
/// worker is notified and the driver is never kicked.
#[test]
fn an_echo_round_wakes_nobody_but_the_waiter() {
    const ROUNDS: u64 = 100;
    let runtime = Executor::start(2);
    let (mut client, mut server) = accept_on(runtime);
    runtime.spawn(async move {
        let mut buf = [0u8; 1];
        while server.read_exact(&mut buf).await.is_ok() {
            server.write_all(&buf).await.unwrap();
        }
    });
    let mut round_trip = |byte: u8| {
        let mut buf = [0u8; 1];
        client.write_all(&[byte]).unwrap();
        client.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], byte);
    };
    round_trip(0);
    settle(runtime, 2);

    let (slot_runs, notifies, kicks) = wakeups(runtime);
    let waits_before = waits(runtime);
    for round in 0..ROUNDS {
        round_trip(round as u8);
    }
    let (slot_runs_after, notifies_after, kicks_after) = wakeups(runtime);
    assert_eq!(notifies_after - notifies, 0, "a worker was notified");
    assert_eq!(kicks_after - kicks, 0, "the driver was kicked");
    // One edge per frame, each waking the echo task into the slot; a frame
    // the task read while still running from the previous one finds it awake.
    let slot_runs = slot_runs_after - slot_runs;
    assert!((1..=ROUNDS).contains(&slot_runs), "{slot_runs} slot runs for {ROUNDS} frames");
    let waits = waits(runtime) - waits_before;
    assert!(waits <= ROUNDS + 1, "{waits} epoll_waits for {ROUNDS} frames");
}
