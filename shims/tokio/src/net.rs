//! Async TCP over non-blocking `std::net` sockets.
//!
//! A socket joins the runtime's epoll set once, when it is created, and
//! leaves it just before it closes (see the `reactor` module). An
//! operation that meets `WouldBlock` marks its direction not ready and parks
//! the task's waker there, with no syscall; the worker that next sees an edge
//! for the socket wakes it. No polling loops, no sleeps.

use std::future::poll_fn;
use std::io::{self, Read, Write};
use std::net::{self, SocketAddr, ToSocketAddrs};
use std::os::fd::{AsRawFd, FromRawFd};
use std::task::{Context, Poll};

use crate::reactor::{Direction, Registration};
use crate::runtime::current;

// Raw listener construction (socket/setsockopt/bind/listen) so the listening
// socket gets `SO_REUSEADDR` before binding, like upstream tokio: restarted
// replicas must be able to rebind their address while old accepted
// connections linger in TIME_WAIT. `std` links libc, so the four syscall
// wrappers are declared directly.
extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x8_0000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const LISTEN_BACKLOG: i32 = 1024;

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    /// Port in network byte order.
    sin_port: u16,
    /// Address in network byte order.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// Creates a non-blocking IPv4 listener with `SO_REUSEADDR` set before bind.
fn bind_reuseaddr_v4(addr: &std::net::SocketAddrV4) -> io::Result<net::TcpListener> {
    // SAFETY: plain syscalls on a locally owned fd; the fd is either wrapped
    // into a `TcpListener` (which owns closing it) or closed on error.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let one: i32 = 1;
        let sockaddr = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from_ne_bytes(addr.ip().octets()),
            sin_zero: [0; 8],
        };
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0
            || bind(fd, &sockaddr, std::mem::size_of::<SockAddrIn>() as u32) < 0
            || listen(fd, LISTEN_BACKLOG) < 0
        {
            let err = io::Error::last_os_error();
            close(fd);
            return Err(err);
        }
        Ok(net::TcpListener::from_raw_fd(fd))
    }
}

/// A TCP listener accepting connections asynchronously.
#[derive(Debug)]
pub struct TcpListener {
    io: Registration,
    inner: net::TcpListener,
}

impl TcpListener {
    /// Binds to `addr` and starts listening (with `SO_REUSEADDR`, like
    /// upstream tokio, so restarted peers can rebind promptly).
    pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            let bound = match addr {
                SocketAddr::V4(v4) => bind_reuseaddr_v4(&v4),
                SocketAddr::V6(_) => net::TcpListener::bind(addr).and_then(|inner| {
                    inner.set_nonblocking(true)?;
                    Ok(inner)
                }),
            };
            let registered = bound.and_then(|inner| {
                let io = Registration::new(&current().driver, inner.as_raw_fd())?;
                Ok(TcpListener { io, inner })
            });
            match registered {
                Ok(listener) => return Ok(listener),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to bind")))
    }

    /// Accepts the next inbound connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, addr) =
            poll_fn(|cx| self.io.poll_io(Direction::Read, cx, || self.inner.accept(), |_| false))
                .await?;
        Ok((TcpStream::new(stream)?, addr))
    }

    /// The local address the listener is bound to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// An async TCP connection.
#[derive(Debug)]
pub struct TcpStream {
    io: Registration,
    inner: net::TcpStream,
}

/// A transfer shorter than the buffer shows the kernel's buffer drained
/// (reads) or full (writes): the next attempt would only meet `WouldBlock`.
fn short_of(len: usize) -> impl Fn(&usize) -> bool {
    move |&count| 0 < count && count < len
}

impl TcpStream {
    fn new(inner: net::TcpStream) -> io::Result<TcpStream> {
        inner.set_nodelay(true).ok();
        inner.set_nonblocking(true)?;
        let io = Registration::new(&current().driver, inner.as_raw_fd())?;
        Ok(TcpStream { io, inner })
    }

    /// Connects to `addr`.
    pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        // Loopback connects complete in one syscall, and a slow one occupies
        // this worker alone: another is asked to watch the sockets meanwhile.
        current().before_blocking();
        TcpStream::new(net::TcpStream::connect(addr)?)
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    /// Waits until the socket is not known to be unwritable. A following
    /// [`TcpStream::try_write`] may still return `WouldBlock`; wait again.
    pub async fn writable(&self) -> io::Result<()> {
        poll_fn(|cx| self.io.poll_ready(Direction::Write, cx)).await;
        Ok(())
    }

    /// Writes as much of `buf` as the socket takes right now, from whichever
    /// thread calls; never waits.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when the socket takes nothing (see
    /// [`TcpStream::writable`]); any other error is the connection's.
    pub fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        self.io.try_io(Direction::Write, || (&self.inner).write(buf), short_of(buf.len()))
    }

    pub(crate) fn poll_read(
        &mut self,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>> {
        let len = buf.len();
        self.io.poll_io(Direction::Read, cx, || (&self.inner).read(buf), short_of(len))
    }

    pub(crate) fn poll_write(
        &mut self,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        self.io.poll_io(Direction::Write, cx, || (&self.inner).write(buf), short_of(buf.len()))
    }
}
