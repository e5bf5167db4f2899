//! The readiness reactor: one process-wide event-loop thread that owns every
//! registered socket interest and timer.
//!
//! Futures that hit `WouldBlock` register their fd and waker here and return
//! `Poll::Pending`; the reactor thread sits in a single readiness syscall
//! until some registered fd becomes ready (or the earliest timer is due) and
//! wakes exactly the parked tasks. Nothing on the async I/O path sleeps on a
//! fixed interval — between readiness events the whole runtime is idle in the
//! kernel.
//!
//! Two backends share the registration table and differ only in the syscall
//! loop:
//!
//! * **`epoll(7)` (default on Linux)** — the kernel holds the interest set,
//!   so a wait costs O(ready) instead of O(registered). Each fd is armed
//!   one-shot (`EPOLLONESHOT`): delivery disarms it in the kernel, and the
//!   reactor re-arms with `EPOLL_CTL_MOD` only when a fresh waker parks. An
//!   fd-indexed slab mirrors what the kernel has armed, so the sync step per
//!   iteration touches only fds whose desired interest changed. The wake
//!   pipe is the one persistent, level-triggered registration.
//! * **`poll(2)` (fallback)** — the interest set is rebuilt from the
//!   registration table on every iteration, which keeps the reactor stateless
//!   with respect to the kernel. O(fds) per wait, but `struct pollfd` is
//!   plain POSIX and the scan is cheap at small fleet sizes.
//!
//! Set `CRDT_PAXOS_REACTOR=poll` to force the fallback (the default on
//! non-Linux targets, and the automatic fallback if `epoll_create1` fails).
//! Both backends are syscall-level only: registration, wakeups, timers, and
//! the self-wake protocol are byte-for-byte the same code.
//!
//! Shared design notes:
//!
//! * **One-shot interest** — an fd is armed only while a waker is parked on
//!   it, and the waker is taken (fired once) when readiness is reported. A
//!   future that still gets `WouldBlock` after waking simply re-registers.
//!   Readiness is reported level-triggered, so there is no register/ready
//!   race: if the fd was already readable when the waker was parked, the very
//!   next wait returns immediately.
//! * **Self-wake pipe** — registrations land while the reactor is blocked on
//!   the *previous* interest set, so every mutation writes one byte to a
//!   socketpair the reactor always watches. Bytes coalesce: a full pipe means
//!   a wakeup is already pending.
//! * **Timers** — `time::sleep`/`interval` park `(deadline, id, waker)`
//!   entries in an ordered map; the earliest deadline bounds the wait timeout
//!   (rounded up to the next millisecond so the reactor never spins on a
//!   sub-millisecond remainder).

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::task::Waker;
use std::time::Instant;

// `std` links the platform libc; declaring the few syscall wrappers we need
// avoids an external dependency (this workspace vendors all deps as shims).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
/// Error conditions (`POLLERR | POLLHUP | POLLNVAL`) are delivered regardless
/// of the requested events; they must wake both directions so the parked I/O
/// attempt can observe the failure.
const POLLERR_ANY: i16 = 0x008 | 0x010 | 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

#[cfg(target_os = "linux")]
mod sys_epoll {
    //! Raw `epoll(7)` bindings. `epoll_event` is packed on x86_64 only — the
    //! kernel ABI quirk every libc mirrors.

    /// One kernel readiness record; `data` carries the fd it refers to.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer shutdown of the write half: wakes parked readers so they observe
    /// EOF instead of sleeping forever.
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// Which syscall loop the reactor thread runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Backend {
    Epoll,
    Poll,
}

/// Reads the backend switch once: `CRDT_PAXOS_REACTOR=poll` forces the
/// portable fallback; everything else selects `epoll` where it exists.
fn selected_backend() -> Backend {
    match std::env::var("CRDT_PAXOS_REACTOR") {
        Ok(value) if value.eq_ignore_ascii_case("poll") => Backend::Poll,
        _ if cfg!(target_os = "linux") => Backend::Epoll,
        _ => Backend::Poll,
    }
}

#[derive(Default)]
struct Interest {
    read: Option<Waker>,
    write: Option<Waker>,
}

#[derive(Default)]
struct Registrations {
    sockets: HashMap<RawFd, Interest>,
    /// Deregistered fds whose kernel-side epoll registration (if any) must be
    /// dropped before the fd number can be trusted again — closing a socket
    /// returns its fd to the kernel's allocator, and a recycled fd must not
    /// inherit the old registration's armed state. The poll backend rebuilds
    /// its set from scratch each iteration and just clears this list.
    retired: Vec<RawFd>,
    timers: BTreeMap<(Instant, u64), Waker>,
}

impl Registrations {
    /// Fires every timer whose deadline has passed.
    fn fire_due_timers(&mut self, now: Instant) {
        while let Some(&key) = self.timers.keys().next() {
            if key.0 > now {
                break;
            }
            if let Some(waker) = self.timers.remove(&key) {
                waker.wake();
            }
        }
    }

    /// Milliseconds until the earliest timer (rounded up), or -1 for "block
    /// indefinitely" — the wait-timeout argument both backends share.
    fn timer_timeout_ms(&self) -> i32 {
        match self.timers.keys().next() {
            // Round up: a sub-millisecond remainder must sleep one more
            // millisecond, not spin through zero-timeouts.
            Some(&(deadline, _)) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                i32::try_from(remaining.as_millis().saturating_add(1)).unwrap_or(i32::MAX)
            }
            None => -1,
        }
    }
}

/// The fd-indexed slab mirroring what the epoll backend has armed in the
/// kernel: `slots[fd]` is the event mask currently armed ([`ArmedSlab::GONE`]
/// when the fd is not in the epoll set at all, `0` when it is registered but
/// disarmed by a one-shot delivery). Fd numbers are small dense integers, so
/// a flat vector beats a hash map on both lookup cost and iteration-free
/// resync.
#[cfg(target_os = "linux")]
#[derive(Default)]
struct ArmedSlab {
    slots: Vec<u32>,
}

#[cfg(target_os = "linux")]
impl ArmedSlab {
    const GONE: u32 = u32::MAX;

    fn get(&self, fd: RawFd) -> Option<u32> {
        match self.slots.get(fd as usize) {
            Some(&mask) if mask != Self::GONE => Some(mask),
            _ => None,
        }
    }

    fn set(&mut self, fd: RawFd, mask: u32) {
        let index = fd as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, Self::GONE);
        }
        self.slots[index] = mask;
    }

    /// Forgets `fd`; returns whether it was present (i.e. a kernel
    /// registration may exist and needs an `EPOLL_CTL_DEL`).
    fn remove(&mut self, fd: RawFd) -> bool {
        match self.slots.get_mut(fd as usize) {
            Some(slot) if *slot != Self::GONE => {
                *slot = Self::GONE;
                true
            }
            _ => false,
        }
    }
}

/// The process-wide reactor. Obtain it with [`reactor()`].
pub(crate) struct Reactor {
    state: Mutex<Registrations>,
    /// Write half of the self-wake socketpair.
    wake_tx: UnixStream,
    /// Counts readiness syscalls (`epoll_wait` or `poll`) — exposed so tests
    /// can assert the runtime blocks on readiness instead of busy-spinning.
    polls: AtomicU64,
    /// Allocator for timer ids (disambiguates equal deadlines).
    timer_ids: AtomicU64,
    /// The backend actually running: 1 = epoll, 0 = poll. Set at startup and
    /// downgraded if `epoll_create1` fails at runtime.
    backend: AtomicU8,
}

impl Reactor {
    /// Parks `waker` until `fd` is readable. One-shot: fired wakers are
    /// consumed and must be re-registered on the next `WouldBlock`.
    pub(crate) fn register_read(&self, fd: RawFd, waker: &Waker) {
        let mut state = self.state.lock().unwrap();
        state.sockets.entry(fd).or_default().read = Some(waker.clone());
        drop(state);
        self.wake();
    }

    /// Parks `waker` until `fd` is writable.
    pub(crate) fn register_write(&self, fd: RawFd, waker: &Waker) {
        let mut state = self.state.lock().unwrap();
        state.sockets.entry(fd).or_default().write = Some(waker.clone());
        drop(state);
        self.wake();
    }

    /// Drops every interest parked on `fd` (called when the socket closes).
    /// Parked wakers are fired so their tasks observe the closed socket
    /// instead of sleeping forever; a spurious wake is harmless by contract.
    pub(crate) fn deregister(&self, fd: RawFd) {
        let mut state = self.state.lock().unwrap();
        let interest = state.sockets.remove(&fd);
        state.retired.push(fd);
        drop(state);
        if let Some(interest) = interest {
            if let Some(waker) = interest.read {
                waker.wake();
            }
            if let Some(waker) = interest.write {
                waker.wake();
            }
        }
        self.wake();
    }

    /// Allocates a timer id; each timer future owns one for its lifetime so
    /// re-polls replace (not duplicate) its parked entry.
    pub(crate) fn next_timer_id(&self) -> u64 {
        self.timer_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks `waker` until `deadline`. Re-registering the same `(deadline,
    /// id)` replaces the stored waker.
    pub(crate) fn register_timer(&self, deadline: Instant, id: u64, waker: &Waker) {
        self.state.lock().unwrap().timers.insert((deadline, id), waker.clone());
        self.wake();
    }

    /// Removes a parked timer (dropped `Sleep` futures cancel themselves).
    pub(crate) fn cancel_timer(&self, deadline: Instant, id: u64) {
        self.state.lock().unwrap().timers.remove(&(deadline, id));
    }

    /// Number of readiness syscalls issued so far. Consumed by the
    /// busy-spin regression test and exported through
    /// [`crate::reactor_stats`].
    pub(crate) fn poll_syscalls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// The backend the reactor thread is running ("epoll" or "poll").
    pub(crate) fn backend_name(&self) -> &'static str {
        if self.backend.load(Ordering::Relaxed) == 1 {
            "epoll"
        } else {
            "poll"
        }
    }

    /// Interrupts an in-flight wait so the next iteration sees fresh
    /// registrations. A full pipe means a wakeup is already pending.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn run(&self, wake_rx: UnixStream) {
        #[cfg(target_os = "linux")]
        if self.backend.load(Ordering::Relaxed) == 1 {
            self.run_epoll(wake_rx);
            return;
        }
        self.run_poll(wake_rx);
    }

    /// The `epoll(7)` loop: the kernel retains the interest set between
    /// waits; the sync step issues `epoll_ctl` only for fds whose desired
    /// interest diverged from the [`ArmedSlab`] mirror.
    #[cfg(target_os = "linux")]
    fn run_epoll(&self, mut wake_rx: UnixStream) {
        use sys_epoll::*;

        // SAFETY: plain syscall; a negative return means no fd was created.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            self.backend.store(0, Ordering::Relaxed);
            return self.run_poll(wake_rx);
        }
        let wake_fd = wake_rx.as_raw_fd();
        // The wake pipe is the one persistent, level-triggered registration:
        // it must fire on every wait while bytes are pending, with no re-arm.
        let mut wake_event = EpollEvent { events: EPOLLIN, data: wake_fd as u64 };
        // SAFETY: `wake_event` outlives the call; epoll copies it.
        if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wake_fd, &mut wake_event) } < 0 {
            self.backend.store(0, Ordering::Relaxed);
            return self.run_poll(wake_rx);
        }

        let mut armed = ArmedSlab::default();
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        let mut drain = [0u8; 64];
        loop {
            // Sync the kernel set with the registration table.
            let timeout = {
                let mut state = self.state.lock().unwrap();
                for fd in std::mem::take(&mut state.retired) {
                    if armed.remove(fd) {
                        // The fd is usually already closed (kernel auto-drops
                        // the registration with it); an explicit DEL covers
                        // deregistration of still-open sockets. Failure means
                        // it was already gone — exactly the goal.
                        // SAFETY: plain syscall; DEL takes no event payload.
                        unsafe { epoll_ctl(epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
                    }
                }
                for (&fd, interest) in &state.sockets {
                    let mut want = 0;
                    if interest.read.is_some() {
                        want |= EPOLLIN | EPOLLRDHUP;
                    }
                    if interest.write.is_some() {
                        want |= EPOLLOUT;
                    }
                    if want == 0 {
                        continue;
                    }
                    let mut event = EpollEvent { events: want | EPOLLONESHOT, data: fd as u64 };
                    match armed.get(fd) {
                        Some(current) if current == want => {}
                        // Registered (possibly one-shot-disarmed): re-arm.
                        // MOD can race a close+recycle of the fd number —
                        // the kernel then reports ENOENT and a fresh ADD
                        // installs the recycled fd's registration.
                        // SAFETY: `event` outlives the calls; epoll copies it.
                        Some(_) => unsafe {
                            if epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &mut event) == 0
                                || epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut event) == 0
                            {
                                armed.set(fd, want);
                            }
                        },
                        // SAFETY: as above.
                        None => unsafe {
                            if epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut event) == 0
                                || epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &mut event) == 0
                            {
                                armed.set(fd, want);
                            }
                        },
                    }
                }
                state.timer_timeout_ms()
            };

            self.polls.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `events` is a valid, exclusively borrowed array of
            // `maxevents` epoll_event structs for the duration of the call.
            let ready =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout) };
            if ready < 0 {
                // EINTR: retry with a resynced set.
                continue;
            }

            let now = Instant::now();
            let mut state = self.state.lock().unwrap();
            state.fire_due_timers(now);
            for event in &events[..ready as usize] {
                // Copy out of the (possibly packed) record before use.
                let revents = event.events;
                let fd = event.data as RawFd;
                if fd == wake_fd {
                    // Drain coalesced self-wake bytes.
                    while matches!(wake_rx.read(&mut drain), Ok(n) if n > 0) {}
                    continue;
                }
                // Delivery disarmed the one-shot registration; record that so
                // the next sync re-arms (via MOD) if interest remains.
                armed.set(fd, 0);
                let Some(interest) = state.sockets.get_mut(&fd) else { continue };
                let error = revents & (EPOLLERR | EPOLLHUP) != 0;
                if error || revents & (EPOLLIN | EPOLLRDHUP) != 0 {
                    if let Some(waker) = interest.read.take() {
                        waker.wake();
                    }
                }
                if error || revents & EPOLLOUT != 0 {
                    if let Some(waker) = interest.write.take() {
                        waker.wake();
                    }
                }
                if interest.read.is_none() && interest.write.is_none() {
                    state.sockets.remove(&fd);
                }
            }
        }
    }

    /// The `poll(2)` loop: stateless with respect to the kernel — the
    /// interest set is rebuilt from the registration table on every
    /// iteration, so there is no add/modify/delete bookkeeping and no stale
    /// registration after an fd closes.
    fn run_poll(&self, mut wake_rx: UnixStream) {
        let wake_fd = wake_rx.as_raw_fd();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut drain = [0u8; 64];
        loop {
            // Rebuild the interest set and compute the timer-bounded timeout.
            fds.clear();
            fds.push(PollFd { fd: wake_fd, events: POLLIN, revents: 0 });
            let timeout = {
                let mut state = self.state.lock().unwrap();
                // Nothing kernel-side to clean up; just forget retirements.
                state.retired.clear();
                for (&fd, interest) in &state.sockets {
                    let mut events = 0;
                    if interest.read.is_some() {
                        events |= POLLIN;
                    }
                    if interest.write.is_some() {
                        events |= POLLOUT;
                    }
                    if events != 0 {
                        fds.push(PollFd { fd, events, revents: 0 });
                    }
                }
                state.timer_timeout_ms()
            };

            self.polls.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `fds` is a valid, exclusively borrowed array of
            // `nfds` pollfd structs for the duration of the call.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout) };
            if ready < 0 {
                // EINTR: retry with a rebuilt set.
                continue;
            }

            if fds[0].revents != 0 {
                // Drain coalesced self-wake bytes.
                while matches!(wake_rx.read(&mut drain), Ok(n) if n > 0) {}
            }

            let now = Instant::now();
            let mut state = self.state.lock().unwrap();
            state.fire_due_timers(now);
            // Fire readiness wakers (one-shot: taken, not retained).
            for entry in &fds[1..] {
                if entry.revents == 0 {
                    continue;
                }
                let Some(interest) = state.sockets.get_mut(&entry.fd) else { continue };
                if entry.revents & (POLLIN | POLLERR_ANY) != 0 {
                    if let Some(waker) = interest.read.take() {
                        waker.wake();
                    }
                }
                if entry.revents & (POLLOUT | POLLERR_ANY) != 0 {
                    if let Some(waker) = interest.write.take() {
                        waker.wake();
                    }
                }
                if interest.read.is_none() && interest.write.is_none() {
                    state.sockets.remove(&entry.fd);
                }
            }
        }
    }
}

impl Reactor {
    /// Starts a reactor on a thread of its own and leaks both: a reactor lives
    /// as long as the process. The runtime uses the one behind [`reactor()`];
    /// a test that counts syscalls starts its own, so that no sibling test's
    /// sockets wake the loop it is counting.
    pub(crate) fn start() -> &'static Reactor {
        let (wake_rx, wake_tx) = UnixStream::pair().expect("reactor wake pipe");
        wake_rx.set_nonblocking(true).expect("nonblocking wake pipe");
        wake_tx.set_nonblocking(true).expect("nonblocking wake pipe");
        let backend = selected_backend();
        let reactor: &'static Reactor = Box::leak(Box::new(Reactor {
            state: Mutex::new(Registrations::default()),
            wake_tx,
            polls: AtomicU64::new(0),
            timer_ids: AtomicU64::new(0),
            backend: AtomicU8::new(u8::from(backend == Backend::Epoll)),
        }));
        std::thread::Builder::new()
            .name("tokio-reactor".into())
            .spawn(move || reactor.run(wake_rx))
            .expect("spawn reactor thread");
        reactor
    }
}

/// The lazily started process-wide reactor.
pub(crate) fn reactor() -> &'static Reactor {
    static REACTOR: OnceLock<&'static Reactor> = OnceLock::new();
    REACTOR.get_or_init(Reactor::start)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backend honours the environment switch: `CRDT_PAXOS_REACTOR=poll`
    /// selects the portable loop, anything else the platform default. The
    /// reactor is process-wide (`OnceLock`), so this asserts against the
    /// environment the test process was started with — CI runs the suite
    /// once per backend.
    #[test]
    fn backend_selection_honours_environment() {
        let forced_poll = std::env::var("CRDT_PAXOS_REACTOR")
            .map(|value| value.eq_ignore_ascii_case("poll"))
            .unwrap_or(false);
        let expected = if forced_poll || !cfg!(target_os = "linux") { "poll" } else { "epoll" };
        assert_eq!(reactor().backend_name(), expected);
    }
}
