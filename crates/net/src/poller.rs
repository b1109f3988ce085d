//! A thin, token-based readiness poller over [`sys::Epoll`], plus the
//! [`Waker`] that lets worker threads interrupt a sleeping poll.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use crate::sys::{
    self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};

/// One readiness report, decoded from the kernel event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; treat as readable so the read
    /// path observes the EOF/error and closes cleanly.
    pub hangup: bool,
}

/// What a registration is interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable.
    pub readable: bool,
    /// Wake on writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// Level-triggered readiness poller. Registrations carry a caller-chosen
/// `u64` token that comes back verbatim in [`Event::token`].
pub struct Poller {
    epoll: Epoll,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// A poller able to report up to `capacity` events per wait.
    pub fn new(capacity: usize) -> io::Result<Self> {
        Ok(Self {
            epoll: Epoll::new()?,
            events: vec![EpollEvent { events: 0, data: 0 }; capacity.max(16)],
        })
    }

    /// Register an fd under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Change an existing registration's interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Drop an fd's registration. (Closing the fd drops it implicitly;
    /// this exists for fds that outlive their registration.)
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout` for readiness and append decoded events to
    /// `out`. `None` blocks indefinitely.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX),
        };
        let n = self.epoll.wait(&mut self.events, timeout_ms)?;
        for raw in &self.events[..n] {
            let bits = raw.events;
            out.push(Event {
                token: raw.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

/// A cross-thread wake-up for a poller: register [`Waker::raw_fd`] with
/// read interest, call [`Waker::wake`] from any thread, and
/// [`Waker::drain`] when the token fires. The eventfd counter coalesces
/// consecutive wakes: however many land before a drain, the poller sees
/// one readable fd, and a wake that lands after the drain's read makes
/// the fd readable again — so a consumer that re-reads its queue after
/// every drain can never miss work.
pub struct Waker {
    event_fd: EventFd,
}

impl Waker {
    /// A fresh waker.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            event_fd: EventFd::new()?,
        })
    }

    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        self.event_fd.raw_fd()
    }

    /// Wake the poller.
    pub fn wake(&self) {
        self.event_fd.signal();
    }

    /// Reset the eventfd counter so the fd stops reading ready until the
    /// next [`wake`](Self::wake).
    pub fn drain(&self) {
        self.event_fd.drain();
    }
}

/// Re-exports for outbound (client-side) reactors: begin a connect
/// without blocking, finish it when `EPOLLOUT` fires.
pub use sys::{connect_nonblocking, connect_outcome, ConnectProgress};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Four closed-loop producers against one poller: each posts an item,
    /// wakes, and waits for the consumer to take it before posting the
    /// next, so the consumer keeps going back to sleep with wakes racing
    /// its drain. A wake lost in that race leaves an item posted with
    /// nobody awake to take it, and the consumer's next wait times out.
    #[test]
    fn concurrent_wakes_are_never_lost() {
        const PRODUCERS: usize = 4;
        const WAKES: u64 = 200_000;
        const TOKEN: u64 = 7;

        let mut poller = Poller::new(16).unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.raw_fd(), TOKEN, Interest::READ).unwrap();
        let posted: Vec<AtomicU64> = (0..PRODUCERS).map(|_| AtomicU64::new(0)).collect();
        let taken: Vec<AtomicU64> = (0..PRODUCERS).map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|scope| {
            for (posted, taken) in posted.iter().zip(&taken) {
                let waker = &waker;
                scope.spawn(move || {
                    for k in 1..=WAKES {
                        posted.store(k, Ordering::SeqCst);
                        waker.wake();
                        // Mostly spin: yielding on every miss triples the
                        // run time in syscalls on a two-core box.
                        let mut misses = 0u32;
                        while taken.load(Ordering::SeqCst) < k {
                            misses += 1;
                            if misses.is_multiple_of(64) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                });
            }

            let mut events = Vec::new();
            while taken.iter().any(|t| t.load(Ordering::SeqCst) < WAKES) {
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_millis(500)))
                    .unwrap();
                if events.is_empty() {
                    let stuck: Vec<(u64, u64)> = posted
                        .iter()
                        .zip(&taken)
                        .map(|(p, t)| (p.load(Ordering::SeqCst), t.load(Ordering::SeqCst)))
                        .collect();
                    // Release the producers so the scope can join before
                    // the failure is reported.
                    for t in &taken {
                        t.store(WAKES, Ordering::SeqCst);
                    }
                    panic!("the poller slept through a wake: (posted, taken) = {stuck:?}");
                }
                // Drain first, then re-read the queue — the order both
                // reactors use.
                waker.drain();
                for (p, t) in posted.iter().zip(&taken) {
                    t.store(p.load(Ordering::SeqCst), Ordering::SeqCst);
                }
            }
        });
    }
}
