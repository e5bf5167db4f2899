//! The I/O and timer driver: one `epoll(7)` set and a timer map, with no
//! thread of its own. Executor workers take turns blocking in
//! [`Driver::wait`] (see [`runtime`](crate::runtime)); the worker that
//! returns with events marks the sockets ready and hands back the wakers of
//! the tasks parked on them. Nothing sleeps on a fixed interval.
//!
//! * **Register once, edge-triggered.** A socket joins the set when it is
//!   created, keyed by a token that is never reused, and leaves it before it
//!   is closed; in between the kernel is told nothing. Each direction keeps
//!   `{ready, closed, tick, waker}` under a lock: the driver sets `ready` on
//!   an edge, and an I/O attempt that meets `WouldBlock` (or a short
//!   transfer: the kernel buffer is drained) clears it and parks its waker
//!   with no syscall and no wake-up.
//! * **Readiness is never lost.** The driver bumps `tick` with every edge; an
//!   attempt samples it before the syscall and clears `ready` only if it is
//!   unchanged. Hang-up and error are sticky (`closed`): `ready` is never
//!   cleared again, so "data + FIN in one edge, short read" still reads EOF.
//! * **Events name tokens, not fds**: one for a deregistered token is
//!   skipped, and a recycled fd number inherits nothing.
//! * **Waking the waiter**: see [`Driver::unpark`]. Its `eventfd` is
//!   edge-triggered too — every write is an edge — so it is never read.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

mod sys {
    //! The five syscalls the driver makes, declared here because `std` links
    //! libc anyway and this workspace vendors every dependency.

    use std::io;
    use std::os::fd::RawFd;

    /// One kernel readiness record; `data` carries the registration's token.
    /// Packed on x86_64 only — the kernel ABI quirk every libc mirrors.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `EPOLL_CLOEXEC` and `EFD_CLOEXEC` alike.
    const CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer shutdown of its write half: the reader must wake to see EOF.
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn checked(ret: i32) -> io::Result<i32> {
        (ret >= 0).then_some(ret).ok_or_else(io::Error::last_os_error)
    }

    pub fn create_epoll() -> io::Result<RawFd> {
        // SAFETY: plain syscall; a negative return means no fd was created.
        checked(unsafe { epoll_create1(CLOEXEC) })
    }

    pub fn create_eventfd() -> io::Result<RawFd> {
        // SAFETY: plain syscall; a negative return means no fd was created.
        checked(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) })
    }

    pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` outlives the call; the kernel copies it (and
        // ignores it for `EPOLL_CTL_DEL`).
        checked(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(drop)
    }

    /// Number of events written to the front of `events`; 0 on a timeout or
    /// an interrupted wait.
    pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        let capacity = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is a valid, exclusively borrowed array of at least
        // `capacity` records for the duration of the call.
        let ready = unsafe { epoll_wait(epfd, events.as_mut_ptr(), capacity, timeout_ms) };
        usize::try_from(ready).unwrap_or(0)
    }

    /// Adds one to the `eventfd`'s counter. Failure means the counter is
    /// full, in which case the fd is readable already.
    pub fn signal(eventfd: RawFd) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is a valid 8-byte buffer for the duration of the call.
        unsafe { write(eventfd, one.as_ptr(), one.len()) };
    }
}

/// Token of the `eventfd`; socket tokens count up from 0 and never reach it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Which half of a socket an operation uses.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Read,
    Write,
}

#[derive(Debug)]
struct Readiness {
    /// Not known to be blocked: the next I/O attempt should make the syscall.
    ready: bool,
    /// Hang-up or error was reported; `ready` is never cleared again.
    closed: bool,
    /// Bumped with every edge the driver reports.
    tick: u64,
    waker: Option<Waker>,
}

/// The driver's view of one registered socket: its two directions.
#[derive(Debug)]
struct Source([Mutex<Readiness>; 2]);

impl Source {
    /// A new socket counts as ready both ways until a `WouldBlock` says not.
    fn new() -> Source {
        let fresh = || Mutex::new(Readiness { ready: true, closed: false, tick: 0, waker: None });
        Source([fresh(), fresh()])
    }

    fn state(&self, direction: Direction) -> std::sync::MutexGuard<'_, Readiness> {
        self.0[direction as usize].lock().expect("readiness lock poisoned")
    }

    /// Records one edge: ready, a new tick, and the parked waker handed over.
    fn set_ready(&self, direction: Direction, closed: bool, wakers: &mut Vec<Waker>) {
        let mut state = self.state(direction);
        state.ready = true;
        state.closed |= closed;
        state.tick += 1;
        wakers.extend(state.waker.take());
    }
}

/// One epoll set with its registrations and timers. Lives as long as the
/// process (its two fds are never closed).
#[derive(Debug)]
pub(crate) struct Driver {
    epfd: RawFd,
    eventfd: RawFd,
    sources: Mutex<HashMap<u64, Arc<Source>>>,
    timers: Mutex<BTreeMap<(Instant, u64), Waker>>,
    /// Allocator for socket tokens and timer ids.
    next_id: AtomicU64,
    /// A worker is in, or about to enter, a blocking wait. Set by that worker
    /// *before* it re-checks the run queue and computes its timeout, so
    /// whoever adds to either afterwards sees it and calls [`Driver::unpark`].
    pub(crate) parked: AtomicBool,
    /// `epoll_wait` calls and `eventfd` writes so far.
    pub(crate) waits: AtomicU64,
    pub(crate) kicks: AtomicU64,
}

impl Driver {
    pub(crate) fn new() -> io::Result<Driver> {
        let epfd = sys::create_epoll()?;
        let eventfd = sys::create_eventfd()?;
        sys::ctl(epfd, sys::EPOLL_CTL_ADD, eventfd, sys::EPOLLIN | sys::EPOLLET, WAKE_TOKEN)?;
        Ok(Driver {
            epfd,
            eventfd,
            sources: Mutex::new(HashMap::new()),
            timers: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            waits: AtomicU64::new(0),
            kicks: AtomicU64::new(0),
        })
    }

    /// Interrupts the blocking wait, if there is one: for whoever queues a
    /// task nobody will look at, or registers the earliest timer.
    pub(crate) fn unpark(&self) {
        if self.parked.load(Ordering::SeqCst) {
            self.kicks.fetch_add(1, Ordering::Relaxed);
            sys::signal(self.eventfd);
        }
    }

    /// One `epoll_wait`: until an event or the earliest timer when `block`
    /// (the caller has set `parked`; this clears it), not at all otherwise.
    /// Marks the reported sockets ready and collects the wakers parked on
    /// them, then those of the due timers, into `wakers` — the caller's
    /// buffer, reused from wait to wait — for it to wake once it has let go
    /// of the turn. Events beyond the record buffer wait for the next call.
    pub(crate) fn wait(&self, wakers: &mut Vec<Waker>, block: bool) {
        let mut records = [sys::EpollEvent::default(); 256];
        let timeout = if block { self.timer_timeout_ms() } else { 0 };
        self.waits.fetch_add(1, Ordering::Relaxed);
        let ready = sys::wait(self.epfd, &mut records, timeout);
        self.parked.store(false, Ordering::SeqCst);

        let sources = self.sources.lock().expect("source table poisoned");
        for record in &records[..ready] {
            // Copy out of the (possibly packed) record before use.
            let (bits, token) = (record.events, record.data);
            // An unknown token is the eventfd or a socket deregistered since.
            let Some(source) = sources.get(&token) else { continue };
            // Errors wake both directions so that the parked I/O attempt
            // observes them. A peer's half-close ends reads only: writes may
            // still meet a full buffer and must be able to park.
            let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            let hung_up = failed || bits & sys::EPOLLRDHUP != 0;
            if hung_up || bits & sys::EPOLLIN != 0 {
                source.set_ready(Direction::Read, hung_up, wakers);
            }
            if failed || bits & sys::EPOLLOUT != 0 {
                source.set_ready(Direction::Write, failed, wakers);
            }
        }
        drop(sources);

        let now = Instant::now();
        let mut timers = self.timers.lock().expect("timer map poisoned");
        while let Some(entry) = timers.first_entry() {
            if entry.key().0 > now {
                break;
            }
            wakers.push(entry.remove());
        }
    }

    /// Milliseconds until the earliest timer (rounded up), or -1 for "block
    /// indefinitely".
    fn timer_timeout_ms(&self) -> i32 {
        match self.timers.lock().expect("timer map poisoned").keys().next() {
            // Round up: a sub-millisecond remainder must sleep one more
            // millisecond, not spin through zero-timeouts.
            Some(&(deadline, _)) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                i32::try_from(remaining.as_millis().saturating_add(1)).unwrap_or(i32::MAX)
            }
            None => -1,
        }
    }

    /// A number handed out once: a socket's token, or the id a timer future
    /// keeps (equal deadlines stay distinct; a re-poll replaces its entry).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks `waker` until `deadline`. Re-registering the same `(deadline,
    /// id)` replaces the stored waker.
    pub(crate) fn register_timer(&self, deadline: Instant, id: u64, waker: &Waker) {
        let mut timers = self.timers.lock().expect("timer map poisoned");
        let new = timers.insert((deadline, id), waker.clone()).is_none();
        let earliest = timers.keys().next() == Some(&(deadline, id));
        drop(timers);
        // A blocked wait computed its timeout without this timer.
        if new && earliest {
            self.unpark();
        }
    }

    /// Removes a parked timer (dropped `Sleep` futures cancel themselves).
    pub(crate) fn cancel_timer(&self, deadline: Instant, id: u64) {
        self.timers.lock().expect("timer map poisoned").remove(&(deadline, id));
    }
}

/// A socket's membership of a driver's epoll set, from creation to just
/// before `close`. Declared before the socket in its owner, so that it drops
/// (deregisters) first.
#[derive(Debug)]
pub(crate) struct Registration {
    driver: &'static Driver,
    source: Arc<Source>,
    token: u64,
    fd: RawFd,
}

impl Registration {
    /// Adds `fd`, which must stay open until this registration drops.
    pub(crate) fn new(driver: &'static Driver, fd: RawFd) -> io::Result<Registration> {
        let token = driver.next_id();
        let source = Arc::new(Source::new());
        // In the table first: the kernel may report an event at once.
        driver.sources.lock().expect("source table poisoned").insert(token, Arc::clone(&source));
        let registration = Registration { driver, source, token, fd };
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        sys::ctl(driver.epfd, sys::EPOLL_CTL_ADD, fd, interest, token)?;
        Ok(registration)
    }

    /// `Ready` while `direction` is not known to be blocked; parks the
    /// task's waker otherwise.
    pub(crate) fn poll_ready(&self, direction: Direction, cx: &mut Context<'_>) -> Poll<()> {
        let mut state = self.source.state(direction);
        if state.ready {
            return Poll::Ready(());
        }
        if !state.waker.as_ref().is_some_and(|parked| parked.will_wake(cx.waker())) {
            state.waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }

    /// Runs the non-blocking `op` if `direction` is ready. `WouldBlock`
    /// (from `op`, or without calling it) means it is not; so does a result
    /// that `drained` recognises as a short transfer, which saves the syscall
    /// that would only have said so.
    pub(crate) fn try_io<T>(
        &self,
        direction: Direction,
        mut op: impl FnMut() -> io::Result<T>,
        drained: impl FnOnce(&T) -> bool,
    ) -> io::Result<T> {
        let tick = {
            let state = self.source.state(direction);
            if !state.ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            state.tick
        };
        let result = loop {
            match op() {
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                result => break result,
            }
        };
        let blocked = match &result {
            Ok(value) => drained(value),
            Err(err) => err.kind() == io::ErrorKind::WouldBlock,
        };
        if blocked {
            let mut state = self.source.state(direction);
            // An edge since the sample may have come after the syscall.
            if state.tick == tick && !state.closed {
                state.ready = false;
            }
        }
        result
    }

    /// [`Registration::try_io`] for a task: parks the waker instead of
    /// returning `WouldBlock`.
    pub(crate) fn poll_io<T>(
        &self,
        direction: Direction,
        cx: &mut Context<'_>,
        mut op: impl FnMut() -> io::Result<T>,
        drained: impl Fn(&T) -> bool,
    ) -> Poll<io::Result<T>> {
        loop {
            if self.poll_ready(direction, cx).is_pending() {
                return Poll::Pending;
            }
            match self.try_io(direction, &mut op, &drained) {
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => continue,
                result => return Poll::Ready(result),
            }
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Ok(mut sources) = self.driver.sources.lock() {
            sources.remove(&self.token);
        }
        // Failure means the fd was never added: exactly the goal.
        let _ = sys::ctl(self.driver.epfd, sys::EPOLL_CTL_DEL, self.fd, 0, 0);
    }
}
