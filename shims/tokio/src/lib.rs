//! Minimal `tokio` stand-in with a readiness-based runtime.
//!
//! Futures run on a small worker pool ([`runtime`]) and are polled only when
//! woken. There is no I/O thread: an idle worker blocks in `epoll_wait`
//! itself (the `reactor` module: every socket registered once,
//! edge-triggered, and every timer) and runs the tasks the events woke.
//! `TcpStream`/`TcpListener` wrap non-blocking `std::net` sockets whose
//! `WouldBlock` results park the task's waker with no syscall — there is no
//! fixed-interval re-polling anywhere on the async path, so a thousand idle
//! connections cost one sleeping syscall, not a thousand spinning threads.
//! Dependency-free by design: the API surface is the subset of upstream
//! `tokio` this workspace uses. Linux only (`epoll(7)`, `eventfd(2)`).

#[cfg(not(target_os = "linux"))]
compile_error!("the tokio shim drives sockets with epoll(7) and eventfd(2): Linux only");

pub mod io;
pub mod net;
mod reactor;
#[cfg(test)]
mod readiness_tests;
pub mod runtime;
pub mod sync;
pub mod time;

use std::sync::atomic::Ordering::Relaxed;

pub use runtime::{spawn, JoinHandle};

pub use tokio_macros::{main, test};

/// Process-wide driver introspection: how many `epoll_wait` calls the
/// runtime's workers have made so far, and the mechanism (always `"epoll"`).
/// Intended for benchmark reports that account for wakeup efficiency
/// (syscalls per operation). A program that never touches the runtime reads
/// 0; asking does not start it.
pub fn reactor_stats() -> (u64, &'static str) {
    let waits = runtime::GLOBAL.get().map_or(0, |runtime| runtime.driver.waits.load(Relaxed));
    (waits, "epoll")
}

/// Polls several futures, running the handler of whichever finishes first.
///
/// Subset of upstream `tokio::select!`: up to four `pattern = future => block`
/// arms, biased in declaration order. A branch whose pattern fails to match is
/// disabled and the remaining branches keep racing, like upstream.
#[macro_export]
macro_rules! select {
    ($p0:pat = $e0:expr => $b0:block $(,)?) => {
        $crate::select_internal!(@run
            ($p0, $e0, $b0)
        )
    };
    ($p0:pat = $e0:expr => $b0:block $(,)? $p1:pat = $e1:expr => $b1:block $(,)?) => {
        $crate::select_internal!(@run
            ($p0, $e0, $b0) ($p1, $e1, $b1)
        )
    };
    ($p0:pat = $e0:expr => $b0:block $(,)? $p1:pat = $e1:expr => $b1:block $(,)?
     $p2:pat = $e2:expr => $b2:block $(,)?) => {
        $crate::select_internal!(@run
            ($p0, $e0, $b0) ($p1, $e1, $b1) ($p2, $e2, $b2)
        )
    };
    ($p0:pat = $e0:expr => $b0:block $(,)? $p1:pat = $e1:expr => $b1:block $(,)?
     $p2:pat = $e2:expr => $b2:block $(,)? $p3:pat = $e3:expr => $b3:block $(,)?) => {
        $crate::select_internal!(@run
            ($p0, $e0, $b0) ($p1, $e1, $b1) ($p2, $e2, $b2) ($p3, $e3, $b3)
        )
    };
}

/// Implementation detail of [`select!`].
#[doc(hidden)]
#[macro_export]
macro_rules! select_internal {
    (@run ($p0:pat, $e0:expr, $b0:block)) => {{
        let __v = $e0.await;
        #[allow(unreachable_patterns, clippy::redundant_pattern_matching)]
        match __v {
            $p0 => $b0,
            _ => panic!("all branches of select! are disabled"),
        }
    }};
    (@run ($p0:pat, $e0:expr, $b0:block) ($p1:pat, $e1:expr, $b1:block)) => {{
        let mut __f0 = ::std::pin::pin!($e0);
        let mut __f1 = ::std::pin::pin!($e1);
        let mut __done = [false; 2];
        loop {
            let __choice = ::std::future::poll_fn(|__cx| {
                use ::std::future::Future as _;
                if !__done[0] {
                    if let ::std::task::Poll::Ready(v) = __f0.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select2::C0(v));
                    }
                }
                if !__done[1] {
                    if let ::std::task::Poll::Ready(v) = __f1.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select2::C1(v));
                    }
                }
                assert!(!(__done[0] && __done[1]), "all branches of select! are disabled");
                ::std::task::Poll::Pending
            })
            .await;
            #[allow(unreachable_patterns)]
            match __choice {
                $crate::runtime::Select2::C0(__v) => match __v {
                    $p0 => break $b0,
                    _ => __done[0] = true,
                },
                $crate::runtime::Select2::C1(__v) => match __v {
                    $p1 => break $b1,
                    _ => __done[1] = true,
                },
            }
        }
    }};
    (@run ($p0:pat, $e0:expr, $b0:block) ($p1:pat, $e1:expr, $b1:block)
          ($p2:pat, $e2:expr, $b2:block)) => {{
        let mut __f0 = ::std::pin::pin!($e0);
        let mut __f1 = ::std::pin::pin!($e1);
        let mut __f2 = ::std::pin::pin!($e2);
        let mut __done = [false; 3];
        loop {
            let __choice = ::std::future::poll_fn(|__cx| {
                use ::std::future::Future as _;
                if !__done[0] {
                    if let ::std::task::Poll::Ready(v) = __f0.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select3::C0(v));
                    }
                }
                if !__done[1] {
                    if let ::std::task::Poll::Ready(v) = __f1.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select3::C1(v));
                    }
                }
                if !__done[2] {
                    if let ::std::task::Poll::Ready(v) = __f2.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select3::C2(v));
                    }
                }
                assert!(
                    !(__done[0] && __done[1] && __done[2]),
                    "all branches of select! are disabled"
                );
                ::std::task::Poll::Pending
            })
            .await;
            #[allow(unreachable_patterns)]
            match __choice {
                $crate::runtime::Select3::C0(__v) => match __v {
                    $p0 => break $b0,
                    _ => __done[0] = true,
                },
                $crate::runtime::Select3::C1(__v) => match __v {
                    $p1 => break $b1,
                    _ => __done[1] = true,
                },
                $crate::runtime::Select3::C2(__v) => match __v {
                    $p2 => break $b2,
                    _ => __done[2] = true,
                },
            }
        }
    }};
    (@run ($p0:pat, $e0:expr, $b0:block) ($p1:pat, $e1:expr, $b1:block)
          ($p2:pat, $e2:expr, $b2:block) ($p3:pat, $e3:expr, $b3:block)) => {{
        let mut __f0 = ::std::pin::pin!($e0);
        let mut __f1 = ::std::pin::pin!($e1);
        let mut __f2 = ::std::pin::pin!($e2);
        let mut __f3 = ::std::pin::pin!($e3);
        let mut __done = [false; 4];
        loop {
            let __choice = ::std::future::poll_fn(|__cx| {
                use ::std::future::Future as _;
                if !__done[0] {
                    if let ::std::task::Poll::Ready(v) = __f0.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select4::C0(v));
                    }
                }
                if !__done[1] {
                    if let ::std::task::Poll::Ready(v) = __f1.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select4::C1(v));
                    }
                }
                if !__done[2] {
                    if let ::std::task::Poll::Ready(v) = __f2.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select4::C2(v));
                    }
                }
                if !__done[3] {
                    if let ::std::task::Poll::Ready(v) = __f3.as_mut().poll(__cx) {
                        return ::std::task::Poll::Ready($crate::runtime::Select4::C3(v));
                    }
                }
                assert!(
                    !(__done[0] && __done[1] && __done[2] && __done[3]),
                    "all branches of select! are disabled"
                );
                ::std::task::Poll::Pending
            })
            .await;
            #[allow(unreachable_patterns)]
            match __choice {
                $crate::runtime::Select4::C0(__v) => match __v {
                    $p0 => break $b0,
                    _ => __done[0] = true,
                },
                $crate::runtime::Select4::C1(__v) => match __v {
                    $p1 => break $b1,
                    _ => __done[1] = true,
                },
                $crate::runtime::Select4::C2(__v) => match __v {
                    $p2 => break $b2,
                    _ => __done[2] = true,
                },
                $crate::runtime::Select4::C3(__v) => match __v {
                    $p3 => break $b3,
                    _ => __done[3] = true,
                },
            }
        }
    }};
}
