//! Raw Linux syscall bindings: `epoll`, `eventfd`, non-blocking
//! `connect` and `RLIMIT_NOFILE`.
//!
//! The build environment is offline and Linux-only, so instead of pulling
//! in `libc`/`mio`/`tokio` this module declares the half-dozen foreign
//! functions the reactor needs and wraps them in safe, `OwnedFd`-backed
//! types. Everything else in the crate goes through these wrappers.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

// O_CLOEXEC / EFD_CLOEXEC / SOCK_CLOEXEC share the same bit on Linux.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const RLIMIT_NOFILE: c_int = 7;

/// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI quirk),
/// naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// Kernel `struct sockaddr_in` (IPv4).
#[repr(C)]
struct SockAddrV4 {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// Kernel `struct sockaddr_in6` (IPv6).
#[repr(C)]
struct SockAddrV6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Add, modify or delete one fd's registration.
    pub fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) })?;
        Ok(())
    }

    /// Wait for readiness; fills `events` (up to its capacity) and returns
    /// the count. A negative `timeout_ms` blocks indefinitely; `EINTR`
    /// reports zero events instead of failing.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

/// An owned eventfd used to wake a sleeping `epoll_wait` from another
/// thread (workers posting completions).
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Create a non-blocking, close-on-exec eventfd.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The raw fd, for poller registration.
    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Post one wake-up (adds 1 to the eventfd counter). Errors are
    /// ignored: the only failure mode of interest, a full counter, still
    /// leaves the fd readable.
    pub fn signal(&self) {
        let one: u64 = 1;
        unsafe {
            write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast::<c_void>(),
                8,
            );
        }
    }

    /// Consume all pending wake-ups.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(
                self.fd.as_raw_fd(),
                (&mut buf as *mut u64).cast::<c_void>(),
                8,
            );
        }
    }
}

/// What a [`connect_nonblocking`] call produced.
pub enum ConnectProgress {
    /// The TCP handshake finished inside the `connect` call itself
    /// (loopback often does); the stream is usable immediately.
    Ready(TcpStream),
    /// The handshake is in flight. Register the stream for *write*
    /// interest: `EPOLLOUT` fires when it resolves, and
    /// [`connect_outcome`] reads whether it succeeded.
    Pending(TcpStream),
}

/// Begin a non-blocking TCP connect to `addr`. The socket is created
/// `SOCK_NONBLOCK | SOCK_CLOEXEC`, so neither the socket creation nor the
/// connect ever blocks the calling thread.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<ConnectProgress> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET as c_int,
        SocketAddr::V6(_) => AF_INET6 as c_int,
    };
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    let ret = match addr {
        SocketAddr::V4(v4) => {
            let raw = SockAddrV4 {
                sin_family: AF_INET,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from(*v4.ip()).to_be(),
                sin_zero: [0; 8],
            };
            unsafe {
                connect(
                    owned.as_raw_fd(),
                    (&raw as *const SockAddrV4).cast::<c_void>(),
                    std::mem::size_of::<SockAddrV4>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let raw = SockAddrV6 {
                sin6_family: AF_INET6,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            unsafe {
                connect(
                    owned.as_raw_fd(),
                    (&raw as *const SockAddrV6).cast::<c_void>(),
                    std::mem::size_of::<SockAddrV6>() as u32,
                )
            }
        }
    };
    let stream = TcpStream::from(owned);
    if ret == 0 {
        return Ok(ConnectProgress::Ready(stream));
    }
    let err = io::Error::last_os_error();
    // EINTR: POSIX says the handshake continues asynchronously, same as
    // EINPROGRESS.
    if err.raw_os_error() == Some(EINPROGRESS) || err.kind() == io::ErrorKind::Interrupted {
        Ok(ConnectProgress::Pending(stream))
    } else {
        Err(err)
    }
}

/// After `EPOLLOUT` fires on a pending connect: did the handshake
/// succeed? Reads (and clears) the socket's `SO_ERROR`.
pub fn connect_outcome(stream: &TcpStream) -> io::Result<()> {
    match stream.take_error()? {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the new
/// soft limit. [`serve`](crate::serve) calls this once at reactor start,
/// so a front end configured for thousands of connections does not trip
/// the default 1024-fd soft cap.
pub(crate) fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur < lim.rlim_max {
        lim.rlim_cur = lim.rlim_max;
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    }
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signals_wake_an_epoll_wait() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.ctl(EPOLL_CTL_ADD, efd.raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: times out with zero events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        efd.signal();
        efd.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_is_at_least_the_soft_default() {
        let limit = raise_nofile_limit().unwrap();
        assert!(limit >= 1024, "soft nofile limit suspiciously low: {limit}");
    }

    #[test]
    fn nonblocking_connect_completes_under_epoll() {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut w = stream;
            w.write_all(line.as_bytes()).unwrap();
        });
        let stream = match connect_nonblocking(&addr).unwrap() {
            ConnectProgress::Ready(s) => s,
            ConnectProgress::Pending(s) => {
                let epoll = Epoll::new().unwrap();
                epoll
                    .ctl(EPOLL_CTL_ADD, s.as_raw_fd(), EPOLLOUT, 1)
                    .unwrap();
                let mut events = [EpollEvent { events: 0, data: 0 }; 4];
                let n = epoll.wait(&mut events, 2000).unwrap();
                assert_eq!(n, 1, "connect readiness never fired");
                connect_outcome(&s).unwrap();
                s
            }
        };
        // The socket is genuinely non-blocking and usable end to end.
        let mut w = stream.try_clone().unwrap();
        w.write_all(b"ping\n").unwrap();
        stream.set_nonblocking(false).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ping\n");
        echo.join().unwrap();
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_the_error() {
        // Bind-then-drop yields a port nobody listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            // Loopback refusals may surface synchronously or via SO_ERROR.
            Err(_) => {}
            Ok(ConnectProgress::Ready(_)) => panic!("connect to a dead port reported ready"),
            Ok(ConnectProgress::Pending(s)) => {
                let epoll = Epoll::new().unwrap();
                epoll
                    .ctl(EPOLL_CTL_ADD, s.as_raw_fd(), EPOLLOUT, 1)
                    .unwrap();
                let mut events = [EpollEvent { events: 0, data: 0 }; 4];
                epoll.wait(&mut events, 2000).unwrap();
                assert!(connect_outcome(&s).is_err());
            }
        }
    }
}
