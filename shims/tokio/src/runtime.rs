//! Waker-driven executor: `block_on`, `spawn`, and `JoinHandle`.
//!
//! Tasks are `Arc`-backed futures run by a small pool of worker threads, and
//! polled only when something wakes them. There is no I/O thread: a worker
//! with nothing to run takes the **turn** at the reactor's `Driver` and blocks in
//! `epoll_wait` itself, the others park on a condvar, and the worker that
//! returns with events runs the tasks it woke (ARCHITECTURE.md, "The network
//! runtime"). Three rules keep that sound:
//!
//! * **The slot cannot starve or spin.** A task woken *from* a worker goes
//!   into that worker's one-deep slot, with no lock and no futex — unless it
//!   wakes *itself* (a task that yields: back of the shared queue), the slot is
//!   taken, or the worker has polled `SLOT_STREAK` slot tasks in a row.
//! * **Nobody sleeps on a queued task.** A worker announces a blocking wait,
//!   re-checks the shared queue, and only then waits; whoever pushes wakes a
//!   worker parked on the condvar, else interrupts the blocking wait, and
//!   does neither when every worker is busy (each looks before it sleeps).
//! * **A busy pool still polls**, every `DRIVER_INTERVAL` task polls.
//!
//! `block_on` runs on the calling thread, which is not a worker: whatever
//! first touches the runtime (`current()`) starts the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Wake, Waker};

use crate::reactor::Driver;

type BoxedFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Slot polls in a row after which a worker's next wake goes to the shared
/// queue: two tasks handing a token back and forth must not keep a third
/// waiting there.
const SLOT_STREAK: u32 = 3;

/// Task polls between a busy worker's non-blocking turns at the driver
/// (upstream tokio's event interval).
const DRIVER_INTERVAL: u32 = 61;

/// One spawned task: the future, its scheduling state, and the waker of the
/// `JoinHandle` awaiting it (if any).
struct Task {
    executor: &'static Executor,
    /// `None` once the future has completed or been aborted.
    future: Mutex<Option<BoxedFuture>>,
    /// Guards against double-queueing: set when the task is put in a slot or
    /// on the shared queue, cleared immediately before the poll so wakes that
    /// land *during* the poll queue the task for another pass.
    queued: AtomicBool,
    aborted: AtomicBool,
    join_waker: Mutex<Option<Waker>>,
}

impl Task {
    /// Polls the future once, on a worker.
    fn run(self: Arc<Self>) {
        // Clear before polling so a wake that races the poll re-queues.
        self.queued.store(false, Ordering::Release);
        if self.aborted.load(Ordering::Acquire) {
            return self.finish();
        }
        let mut slot = self.future.lock().unwrap();
        let Some(future) = slot.as_mut() else { return };
        let waker = Waker::from(Arc::clone(&self));
        let mut context = Context::from_waker(&waker);
        RUNNING.set(Arc::as_ptr(&self));
        // A panicking task ends like an aborted one (the hook has printed the
        // message); it must not take with it a worker the turn depends on.
        let polled = catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut context)));
        RUNNING.set(std::ptr::null());
        if !matches!(polled, Ok(Poll::Pending)) {
            drop(slot);
            self.finish();
        }
    }

    /// Drops the future (completing or cancelling it) and wakes the joiner.
    fn finish(&self) {
        *self.future.lock().unwrap() = None;
        if let Some(waker) = self.join_waker.lock().unwrap().take() {
            waker.wake();
        }
    }

    /// Makes the task runnable: in the waking worker's slot if it will take
    /// it, on the shared queue otherwise.
    fn schedule(self: Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        let executor = self.executor;
        let own_wake = std::ptr::eq(RUNNING.get(), Arc::as_ptr(&self));
        let own_worker = EXECUTOR.get().is_some_and(|own| std::ptr::eq(own, executor));
        if own_worker && !own_wake && STREAK.get() < SLOT_STREAK {
            match SLOT.take() {
                None => return SLOT.set(Some(self)),
                occupant => SLOT.set(occupant),
            }
        }
        // A worker that yields looks at the queue as soon as this poll
        // returns: it needs no wake-up to find itself there.
        executor.push(self, !own_wake);
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
}

thread_local! {
    /// The pool this thread works for; `None` on every other thread, where
    /// the rest are unused (so only a live worker ever touches `SLOT`).
    static EXECUTOR: Cell<Option<&'static Executor>> = const { Cell::new(None) };
    /// The task this worker runs next, ahead of the shared queue.
    static SLOT: Cell<Option<Arc<Task>>> = const { Cell::new(None) };
    /// The task being polled (null between polls): how a wake tells a yield.
    static RUNNING: Cell<*const Task> = const { Cell::new(std::ptr::null()) };
    /// Consecutive polls served from the slot.
    static STREAK: Cell<u32> = const { Cell::new(0) };
}

#[derive(Default)]
pub(crate) struct RunQueue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on [`Executor::ready`].
    pub(crate) idle: usize,
}

/// A worker pool and the driver its workers take turns at.
pub(crate) struct Executor {
    pub(crate) queue: Mutex<RunQueue>,
    ready: Condvar,
    /// Held by the worker inside [`Driver::wait`].
    turn: Mutex<()>,
    pub(crate) driver: Driver,
    /// Tasks run from a slot, and workers notified on the condvar: with
    /// [`Driver::kicks`], every wake-up the runtime causes itself.
    pub(crate) slot_runs: AtomicU64,
    pub(crate) notifies: AtomicU64,
}

impl Executor {
    /// Starts a pool of `workers` threads around a driver of its own and
    /// leaks both: a runtime lives as long as the process. Only tests start
    /// more than the one behind [`current`], to have its counters to themselves.
    pub(crate) fn start(workers: usize) -> &'static Executor {
        let executor: &'static Executor = Box::leak(Box::new(Executor {
            queue: Mutex::new(RunQueue::default()),
            ready: Condvar::new(),
            turn: Mutex::new(()),
            driver: Driver::new().expect("create the epoll driver"),
            slot_runs: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
        }));
        for index in 0..workers {
            std::thread::Builder::new()
                .name(format!("tokio-worker-{index}"))
                .spawn(move || executor.work())
                .expect("spawn executor worker");
        }
        executor
    }

    /// Appends to the shared queue and, if `wake`, makes sure a worker that
    /// would otherwise sleep on it does not.
    fn push(&self, task: Arc<Task>, wake: bool) {
        let idle = {
            let mut queue = self.queue.lock().unwrap();
            queue.tasks.push_back(task);
            queue.idle > 0
        };
        if !wake {
            return;
        }
        if idle {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.ready.notify_one();
        } else {
            self.driver.unpark();
        }
    }

    fn work(&'static self) {
        EXECUTOR.set(Some(self));
        let mut wakers = Vec::new();
        // Task polls since this worker last looked at the driver.
        let mut polls = 0u32;
        loop {
            if polls == DRIVER_INTERVAL {
                polls = 0;
                self.drive(&mut wakers, false);
            }
            let task = match SLOT.take() {
                Some(task) => {
                    STREAK.set(STREAK.get() + 1);
                    self.slot_runs.fetch_add(1, Ordering::Relaxed);
                    Some(task)
                }
                None => {
                    STREAK.set(0);
                    self.queue.lock().unwrap().tasks.pop_front()
                }
            };
            if let Some(task) = task {
                polls += 1;
                task.run();
            } else if self.drive(&mut wakers, true) {
                polls = 0;
            } else {
                self.park();
            }
        }
    }

    /// Takes a turn at the driver and wakes what it made runnable; `false`
    /// when another worker has the turn. A blocking turn is skipped (and
    /// reported as taken) when the shared queue turns out not to be empty.
    fn drive(&self, wakers: &mut Vec<Waker>, block: bool) -> bool {
        let Ok(turn) = self.turn.try_lock() else { return false };
        if block {
            self.driver.parked.store(true, Ordering::SeqCst);
            if !self.queue.lock().unwrap().tasks.is_empty() {
                self.driver.parked.store(false, Ordering::SeqCst);
                return true;
            }
        }
        self.driver.wait(wakers, block);
        drop(turn);
        wakers.drain(..).for_each(Waker::wake);
        true
    }

    /// Sleeps until a task is pushed (the worker with the turn watches the
    /// sockets and timers meanwhile).
    fn park(&self) {
        let mut queue = self.queue.lock().unwrap();
        if queue.tasks.is_empty() {
            queue.idle += 1;
            queue = self.ready.wait(queue).unwrap();
            queue.idle -= 1;
        }
    }

    /// Called by a task about to make a blocking syscall: if this worker was
    /// the last to hold the turn, the sockets and timers need another to take
    /// it while this one is away.
    pub(crate) fn before_blocking(&self) {
        if self.queue.lock().unwrap().idle > 0 {
            self.ready.notify_one();
        }
    }

    /// Spawns a future onto this pool.
    pub(crate) fn spawn<F>(&'static self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (result_tx, result_rx) = mpsc::channel();
        // The result sender lives inside the future: dropping the future
        // (abort) disconnects the channel, which is how `JoinError` reaches
        // the handle.
        let future: BoxedFuture = Box::pin(async move {
            let _ = result_tx.send(future.await);
        });
        let task = Arc::new(Task {
            executor: self,
            future: Mutex::new(Some(future)),
            queued: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            join_waker: Mutex::new(None),
        });
        Arc::clone(&task).schedule();
        JoinHandle { result: Mutex::new(result_rx), task }
    }
}

/// The process-wide runtime, once something has started it.
pub(crate) static GLOBAL: OnceLock<&'static Executor> = OnceLock::new();

/// The runtime of the calling thread: its own pool on a worker, the lazily
/// started process-wide one everywhere else. A handful of workers suffices:
/// runnable tasks are the scarce resource, not parked ones.
pub(crate) fn current() -> &'static Executor {
    EXECUTOR.get().unwrap_or_else(|| {
        GLOBAL.get_or_init(|| {
            let workers =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(4, 8);
            Executor::start(workers)
        })
    })
}

/// Wakes `block_on`'s calling thread. `unpark` carries a token, so a wake
/// delivered between the final `Pending` and the `park` is never lost.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Runs a future to completion on the current thread, parking between
/// wakeups.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut context = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut context) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Error returned by awaiting a [`JoinHandle`] whose task was aborted.
#[derive(Debug)]
pub struct JoinError;

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task was aborted or panicked")
    }
}

impl std::error::Error for JoinError {}

/// Handle to a spawned task.
pub struct JoinHandle<T> {
    /// Locked so the handle is `Sync` (like upstream); polls are the only
    /// reader, so the lock is never contended.
    result: Mutex<mpsc::Receiver<T>>,
    task: Arc<Task>,
}

impl<T> JoinHandle<T> {
    /// Cancels the task: its future is dropped at the next scheduling point
    /// (releasing everything it owns, including registered timers and
    /// sockets) and awaiting the handle yields [`JoinError`].
    pub fn abort(&self) {
        self.task.aborted.store(true, Ordering::Release);
        Arc::clone(&self.task).schedule();
    }

    /// Whether the task has finished: completed, aborted or panicked. Never
    /// waits: a task being polled right now has not.
    pub fn is_finished(&self) -> bool {
        self.task.future.try_lock().is_ok_and(|future| future.is_none())
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle(..)")
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let result = self.result.lock().unwrap();
        match result.try_recv() {
            Ok(value) => return Poll::Ready(Ok(value)),
            Err(mpsc::TryRecvError::Disconnected) => return Poll::Ready(Err(JoinError)),
            Err(mpsc::TryRecvError::Empty) => {}
        }
        *self.task.join_waker.lock().unwrap() = Some(cx.waker().clone());
        // Re-check under the parked waker: completion between the first
        // try_recv and the store would otherwise never wake us.
        match result.try_recv() {
            Ok(value) => Poll::Ready(Ok(value)),
            Err(mpsc::TryRecvError::Disconnected) => Poll::Ready(Err(JoinError)),
            Err(mpsc::TryRecvError::Empty) => Poll::Pending,
        }
    }
}

/// Spawns a future onto the calling thread's worker pool.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    current().spawn(future)
}

/// Outcome carrier for two-branch [`crate::select!`].
#[doc(hidden)]
pub enum Select2<A, B> {
    C0(A),
    C1(B),
}

/// Outcome carrier for three-branch [`crate::select!`].
#[doc(hidden)]
pub enum Select3<A, B, C> {
    C0(A),
    C1(B),
    C2(C),
}

/// Outcome carrier for four-branch [`crate::select!`].
#[doc(hidden)]
pub enum Select4<A, B, C, D> {
    C0(A),
    C1(B),
    C2(C),
    C3(D),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn block_on_and_spawn_round_trip() {
        let handle = spawn(async { 2 + 3 });
        let value = block_on(async move { handle.await.unwrap() });
        assert_eq!(value, 5);
    }

    #[test]
    fn aborted_tasks_report_join_error() {
        let handle = spawn(async {
            crate::time::sleep(Duration::from_secs(60)).await;
            1
        });
        handle.abort();
        assert!(block_on(handle).is_err());
    }

    #[test]
    fn an_aborted_task_is_finished_once_its_future_is_dropped() {
        let handle = spawn(crate::time::sleep(Duration::from_secs(60)));
        assert!(!handle.is_finished());
        handle.abort();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(std::time::Instant::now() < deadline, "the aborted task never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn many_tasks_share_the_worker_pool() {
        // Far more tasks than worker threads: all must complete, which only
        // works if pending tasks park instead of pinning a thread each.
        let handles: Vec<_> = (0..256)
            .map(|i| {
                spawn(async move {
                    crate::time::sleep(Duration::from_millis(20)).await;
                    i
                })
            })
            .collect();
        let total: u64 = block_on(async move {
            let mut total = 0;
            for handle in handles {
                total += handle.await.unwrap();
            }
            total
        });
        assert_eq!(total, (0..256).sum());
    }
}
