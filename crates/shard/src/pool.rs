//! The asynchronous outbound backend pool: every router→backend
//! connection multiplexed on one epoll reactor.
//!
//! The old pool parked the calling thread for the whole round trip
//! (blocking connect, blocking write, blocking read), so each in-flight
//! backend exchange cost one OS thread and a slow replica serialized
//! unrelated requests behind the front end's worker count. This reactor
//! inverts that: callers *submit* an exchange with a completion callback
//! and return immediately; pooled sockets are non-blocking, registered
//! with a [`weber_net::Poller`], written through [`WriteBuffer`] and
//! framed with [`LineFramer`], and a pending-exchange table per
//! connection matches each NDJSON reply line to the oldest unanswered
//! request (the protocol is strictly 1:1 and in order per connection).
//!
//! Each backend gets [`SLOTS_PER_BACKEND`] connection slots. A submission
//! carrying a key (the hash of the entity name) sticks to
//! `key % slots`, so same-name writes travel one TCP connection in
//! admission order end to end; key-less submissions (probes, fan-out
//! ops) round-robin across slots. A slot pipelines up to
//! `max_in_flight` exchanges on its connection and queues the rest;
//! timeouts are enforced by a periodic sweep on the reactor (queued too
//! long → [`Phase::Connect`] failure, unanswered too long → the
//! connection is poisoned and every exchange riding it fails at
//! [`Phase::Exchange`]).
//!
//! Blocking callers (the stdio front end, probes, tests) use
//! [`OutboundPool::exchange`], a thin submit-and-wait wrapper — from any
//! thread except the reactor's own, where waiting would deadlock (the
//! call panics instead).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use weber_net::{
    connect_nonblocking, connect_outcome, ConnectProgress, Event, Interest, LineFramer, Poller,
    Waker, WriteBuffer,
};

use crate::unpoisoned;

/// Where a failed exchange got to — retry policy depends on it. A failure
/// during [`Phase::Connect`] provably sent nothing, so even non-idempotent
/// ops may retry; a failure during [`Phase::Exchange`] may have been
/// applied by the backend before the transport died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Nothing reached the backend: the dial failed, or the exchange
    /// expired while still queued behind the slot's connection.
    Connect,
    /// The request was written (or may have been): the backend may have
    /// processed it even though the reply never arrived.
    Exchange,
}

/// What one exchange resolved to.
pub type ExchangeResult = Result<String, (Phase, io::Error)>;

/// The completion a submitter hands to [`OutboundPool::submit`]. Runs on
/// the reactor thread, so it must not block — post to a channel, resubmit
/// asynchronously, or finish a [`weber_net::Responder`].
pub type ExchangeCallback = Box<dyn FnOnce(ExchangeResult) + Send>;

/// Tuning for the outbound reactor.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-exchange deadline once the request has been written.
    pub io_timeout: Duration,
    /// Exchanges pipelined on one connection before the rest queue.
    pub max_in_flight: usize,
    /// Longest accepted backend reply line.
    pub max_reply_bytes: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(30),
            max_in_flight: 32,
            max_reply_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Connection slots per backend. Same-name writes stick to one slot, so
/// more slots only spread *different* names over more sockets, each of
/// which already pipelines [`PoolOptions::max_in_flight`] exchanges on the
/// one reactor thread.
pub const SLOTS_PER_BACKEND: usize = 2;

/// How often the reactor sweeps for expired connects and exchanges.
const SWEEP_TICK: Duration = Duration::from_millis(25);
const TOKEN_WAKER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;
const READ_CHUNK: usize = 16 * 1024;

/// One submitted exchange, from queue to pending table to callback.
struct Exchange {
    line: String,
    deadline: Instant,
    callback: ExchangeCallback,
}

impl Exchange {
    fn fail(self, phase: Phase, kind: io::ErrorKind, detail: &str) {
        let cb = self.callback;
        invoke(cb, Err((phase, io::Error::new(kind, detail.to_string()))));
    }
}

/// Run a completion callback without letting a panic inside it take the
/// reactor (and every other in-flight exchange) down with it.
fn invoke(callback: ExchangeCallback, result: ExchangeResult) {
    let _ = catch_unwind(AssertUnwindSafe(move || callback(result)));
}

enum ConnState {
    /// Dial in flight; `EPOLLOUT` resolves it by `deadline`.
    Connecting {
        deadline: Instant,
    },
    Ready,
}

/// One live outbound connection: its socket, reply framer, write buffer,
/// and the FIFO of exchanges written but not yet answered (the
/// pending-exchange table — NDJSON replies are 1:1 and ordered, so the
/// front of this queue owns the next reply line).
struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    framer: LineFramer,
    out: WriteBuffer,
    in_flight: VecDeque<Exchange>,
    interest: Interest,
}

/// One connection slot of a backend: at most one connection, plus the
/// exchanges waiting for room on it.
#[derive(Default)]
struct Slot {
    conn: Option<Conn>,
    queue: VecDeque<Exchange>,
}

/// All per-backend state, keyed in the reactor by backend address.
struct Backend {
    slots: Vec<Slot>,
    /// Round-robin cursor for key-less submissions.
    rr: usize,
}

enum Command {
    Submit {
        addr: String,
        key: Option<u64>,
        exchange: Exchange,
    },
    /// Close the idle connections of one backend (stale after a backend
    /// restart; the next submission dials fresh).
    Invalidate {
        addr: String,
    },
    /// Drop state for backends no longer in the topology, failing
    /// whatever was still queued or in flight towards them.
    Retain {
        addrs: Vec<String>,
    },
    Stop,
}

struct CommandQueue {
    commands: VecDeque<Command>,
    stopped: bool,
}

struct Shared {
    queue: Mutex<CommandQueue>,
    waker: Waker,
    reactor_thread: OnceLock<ThreadId>,
}

/// Handle to the outbound reactor. Cloneable via `Arc`; dropping the
/// last handle stops the reactor and fails whatever was still pending.
pub struct OutboundPool {
    shared: Arc<Shared>,
    options: PoolOptions,
    reactor: Mutex<Option<JoinHandle<()>>>,
}

impl OutboundPool {
    /// Start the reactor thread.
    pub fn new(options: PoolOptions) -> io::Result<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(CommandQueue {
                commands: VecDeque::new(),
                stopped: false,
            }),
            waker: Waker::new()?,
            reactor_thread: OnceLock::new(),
        });
        let mut reactor = Reactor::new(Arc::clone(&shared), options.clone())?;
        let handle = thread::Builder::new()
            .name("weber-outbound".into())
            .spawn(move || reactor.run())?;
        Ok(OutboundPool {
            shared,
            options,
            reactor: Mutex::new(Some(handle)),
        })
    }

    /// True on the reactor's own thread — where completion callbacks run
    /// and where blocking on the pool would deadlock.
    pub fn on_reactor_thread(&self) -> bool {
        self.shared.reactor_thread.get().copied() == Some(thread::current().id())
    }

    /// Submit one exchange towards `addr`. `key` pins it to
    /// `key % slots` for per-key FIFO ordering; `None` round-robins.
    /// The callback fires exactly once, on the reactor thread.
    pub fn submit(&self, addr: &str, key: Option<u64>, line: String, callback: ExchangeCallback) {
        let deadline = Instant::now() + self.options.connect_timeout + self.options.io_timeout;
        let exchange = Exchange {
            line,
            deadline,
            callback,
        };
        let rejected = {
            let mut q = unpoisoned(self.shared.queue.lock());
            if q.stopped {
                Some(exchange)
            } else {
                q.commands.push_back(Command::Submit {
                    addr: addr.to_string(),
                    key,
                    exchange,
                });
                None
            }
        };
        match rejected {
            Some(exchange) => exchange.fail(
                Phase::Connect,
                io::ErrorKind::NotConnected,
                "outbound pool is stopped",
            ),
            None => self.shared.waker.wake(),
        }
    }

    /// Submit-and-wait: one exchange from a thread that can afford to
    /// block (stdio front end, probes, tests). Panics if called on the
    /// reactor thread, where waiting would deadlock the whole pool.
    pub fn exchange(&self, addr: &str, key: Option<u64>, line: &str) -> ExchangeResult {
        assert!(
            !self.on_reactor_thread(),
            "OutboundPool::exchange would deadlock on the reactor thread; use submit"
        );
        let (tx, rx) = mpsc::channel();
        self.submit(
            addr,
            key,
            line.to_string(),
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        rx.recv().unwrap_or_else(|_| {
            Err((
                Phase::Connect,
                io::Error::new(io::ErrorKind::NotConnected, "outbound pool is stopped"),
            ))
        })
    }

    /// Close `addr`'s idle connections. After an exchange-phase failure
    /// the surviving warm sockets usually predate the backend restart
    /// that killed the first one; dropping them makes retries dial fresh.
    pub fn invalidate(&self, addr: &str) {
        self.command(Command::Invalidate {
            addr: addr.to_string(),
        });
    }

    /// Drop state for every backend not in `addrs` (topology changes).
    /// Exchanges still pending towards a dropped backend fail.
    pub fn retain(&self, addrs: &[String]) {
        self.command(Command::Retain {
            addrs: addrs.to_vec(),
        });
    }

    fn command(&self, command: Command) {
        let mut q = unpoisoned(self.shared.queue.lock());
        if !q.stopped {
            q.commands.push_back(command);
            drop(q);
            self.shared.waker.wake();
        }
    }
}

impl Drop for OutboundPool {
    fn drop(&mut self) {
        self.command(Command::Stop);
        if let Some(handle) = unpoisoned(self.reactor.lock()).take() {
            let _ = handle.join();
        }
    }
}

/// The reactor: owns every outbound socket and runs the state machine.
struct Reactor {
    poller: Poller,
    shared: Arc<Shared>,
    options: PoolOptions,
    backends: HashMap<String, Backend>,
    /// token → (backend addr, slot index) for event dispatch.
    tokens: HashMap<u64, (String, usize)>,
    next_token: u64,
    events: Vec<Event>,
    last_sweep: Instant,
}

impl Reactor {
    fn new(shared: Arc<Shared>, options: PoolOptions) -> io::Result<Self> {
        let poller = Poller::new(256)?;
        poller.add(shared.waker.raw_fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            poller,
            shared,
            options,
            backends: HashMap::new(),
            tokens: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            events: Vec::with_capacity(256),
            last_sweep: Instant::now(),
        })
    }

    fn run(&mut self) {
        let _ = self.shared.reactor_thread.set(thread::current().id());
        loop {
            self.events.clear();
            if self
                .poller
                .wait(&mut self.events, Some(SWEEP_TICK))
                .is_err()
            {
                // An epoll_wait failure is unrecoverable; stop and fail
                // everything rather than spin.
                break;
            }
            for i in 0..self.events.len() {
                let event = self.events[i];
                if event.token == TOKEN_WAKER {
                    self.shared.waker.drain();
                } else {
                    self.handle_conn_event(event);
                }
            }
            if !self.drain_commands() {
                break;
            }
            let now = Instant::now();
            if now.duration_since(self.last_sweep) >= SWEEP_TICK {
                self.last_sweep = now;
                self.sweep(now);
            }
            self.pump_all();
        }
        self.shutdown();
    }

    /// Process queued commands; false means Stop arrived.
    fn drain_commands(&mut self) -> bool {
        loop {
            let command = {
                let mut q = unpoisoned(self.shared.queue.lock());
                q.commands.pop_front()
            };
            let Some(command) = command else {
                return true;
            };
            match command {
                Command::Submit {
                    addr,
                    key,
                    exchange,
                } => self.accept_submit(addr, key, exchange),
                Command::Invalidate { addr } => {
                    if let Some(backend) = self.backends.get_mut(&addr) {
                        for slot in &mut backend.slots {
                            let idle = slot
                                .conn
                                .as_ref()
                                .is_some_and(|c| c.in_flight.is_empty() && c.out.is_empty());
                            if idle {
                                if let Some(conn) = slot.conn.take() {
                                    self.tokens.remove(&conn.token);
                                }
                            }
                        }
                    }
                }
                Command::Retain { addrs } => {
                    let doomed: Vec<String> = self
                        .backends
                        .keys()
                        .filter(|a| !addrs.contains(a))
                        .cloned()
                        .collect();
                    for addr in doomed {
                        if let Some(backend) = self.backends.remove(&addr) {
                            for slot in backend.slots {
                                self.fail_slot(
                                    slot,
                                    io::ErrorKind::NotConnected,
                                    "backend removed from the topology",
                                );
                            }
                        }
                    }
                }
                Command::Stop => return false,
            }
        }
    }

    fn accept_submit(&mut self, addr: String, key: Option<u64>, exchange: Exchange) {
        let slots = SLOTS_PER_BACKEND;
        let backend = self.backends.entry(addr).or_insert_with(|| Backend {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            rr: 0,
        });
        let idx = match key {
            Some(key) => (key % slots as u64) as usize,
            None => {
                backend.rr = (backend.rr + 1) % slots;
                backend.rr
            }
        };
        backend.slots[idx].queue.push_back(exchange);
    }

    /// Fail a whole slot: queued exchanges at `Connect` (nothing was
    /// sent), in-flight ones at `Exchange` (the request was written).
    fn fail_slot(&mut self, mut slot: Slot, kind: io::ErrorKind, detail: &str) {
        if let Some(conn) = slot.conn.take() {
            self.tokens.remove(&conn.token);
            for ex in conn.in_flight {
                ex.fail(Phase::Exchange, kind, detail);
            }
        }
        for ex in slot.queue.drain(..) {
            ex.fail(Phase::Connect, kind, detail);
        }
    }

    fn handle_conn_event(&mut self, event: Event) {
        let Some((addr, slot_idx)) = self.tokens.get(&event.token).cloned() else {
            return; // connection already closed this iteration
        };
        let Some(backend) = self.backends.get_mut(&addr) else {
            return;
        };
        let slot = &mut backend.slots[slot_idx];
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        match conn.state {
            ConnState::Connecting { .. } => {
                if !(event.writable || event.hangup) {
                    return;
                }
                match connect_outcome(&conn.stream) {
                    Ok(()) => {
                        let _ = conn.stream.set_nodelay(true);
                        conn.state = ConnState::Ready;
                    }
                    Err(e) => {
                        let detail = format!("connect to {addr} failed: {e}");
                        let slot = std::mem::take(slot);
                        self.fail_slot(slot, e.kind(), &detail);
                    }
                }
            }
            ConnState::Ready => {
                let mut dead: Option<(io::ErrorKind, String)> = None;
                if event.writable && !conn.out.is_empty() {
                    if let Err(e) = conn.out.try_flush(&mut conn.stream) {
                        dead = Some((e.kind(), format!("write to {addr} failed: {e}")));
                    }
                }
                if dead.is_none() && (event.readable || event.hangup) {
                    dead = Self::read_replies(conn, &addr);
                }
                if let Some((kind, detail)) = dead {
                    if detail.is_empty() {
                        // The backend closed an idle pooled connection;
                        // nothing was lost, so only the socket goes away
                        // (queued work redials on the next pump).
                        if let Some(conn) = slot.conn.take() {
                            self.tokens.remove(&conn.token);
                        }
                    } else {
                        let slot = std::mem::take(slot);
                        self.fail_slot(slot, kind, &detail);
                    }
                }
            }
        }
    }

    /// Drain the socket, matching each framed reply line to the oldest
    /// pending exchange. Returns why the connection must die, if it must.
    fn read_replies(conn: &mut Conn, addr: &str) -> Option<(io::ErrorKind, String)> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    return if conn.in_flight.is_empty() && conn.out.is_empty() {
                        // An idle pooled connection the backend chose to
                        // close: nothing was lost.
                        Some((io::ErrorKind::UnexpectedEof, String::new()))
                    } else {
                        Some((
                            io::ErrorKind::UnexpectedEof,
                            format!("{addr} closed the connection before replying"),
                        ))
                    };
                }
                Ok(n) => {
                    conn.framer.push(&chunk[..n]);
                    while let Some(raw) = conn.framer.next_line() {
                        if conn.framer.overflowed() {
                            return Some((
                                io::ErrorKind::InvalidData,
                                format!("reply line from {addr} exceeds the size cap"),
                            ));
                        }
                        let Ok(reply) = String::from_utf8(raw) else {
                            return Some((
                                io::ErrorKind::InvalidData,
                                format!("reply from {addr} is not valid UTF-8"),
                            ));
                        };
                        let Some(exchange) = conn.in_flight.pop_front() else {
                            return Some((
                                io::ErrorKind::InvalidData,
                                format!("{addr} sent a reply with no request pending"),
                            ));
                        };
                        invoke(exchange.callback, Ok(reply));
                    }
                    if conn.framer.overflowed() {
                        return Some((
                            io::ErrorKind::InvalidData,
                            format!("reply line from {addr} exceeds the size cap"),
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some((e.kind(), format!("read from {addr} failed: {e}"))),
            }
        }
    }

    /// Expire overdue connects, exchanges and queued work.
    fn sweep(&mut self, now: Instant) {
        let addrs: Vec<String> = self.backends.keys().cloned().collect();
        for addr in addrs {
            let slots = self.backends.get(&addr).map(|b| b.slots.len()).unwrap_or(0);
            for idx in 0..slots {
                // A connect past its deadline kills the dial and fails the
                // queue at Connect; an unanswered exchange past its
                // deadline poisons the connection (the reply stream can no
                // longer be aligned) and fails everything riding it.
                let (connect_expired, exchange_expired) = {
                    let slot = &self.backends.get(&addr).unwrap().slots[idx];
                    match &slot.conn {
                        Some(conn) => match conn.state {
                            ConnState::Connecting { deadline } => (deadline <= now, false),
                            ConnState::Ready => (
                                false,
                                conn.in_flight.front().is_some_and(|ex| ex.deadline <= now),
                            ),
                        },
                        None => (false, false),
                    }
                };
                if connect_expired {
                    let slot =
                        std::mem::take(&mut self.backends.get_mut(&addr).unwrap().slots[idx]);
                    self.fail_slot(
                        slot,
                        io::ErrorKind::TimedOut,
                        &format!("connect to {addr} timed out"),
                    );
                    continue;
                }
                if exchange_expired {
                    let slot =
                        std::mem::take(&mut self.backends.get_mut(&addr).unwrap().slots[idx]);
                    self.fail_slot(
                        slot,
                        io::ErrorKind::TimedOut,
                        &format!("exchange with {addr} timed out"),
                    );
                    continue;
                }
                // Queued exchanges expire front-first (FIFO deadlines).
                loop {
                    let expired = {
                        let slot = &mut self.backends.get_mut(&addr).unwrap().slots[idx];
                        if slot.queue.front().is_some_and(|ex| ex.deadline <= now) {
                            slot.queue.pop_front()
                        } else {
                            None
                        }
                    };
                    match expired {
                        Some(ex) => ex.fail(
                            Phase::Connect,
                            io::ErrorKind::TimedOut,
                            &format!("request expired waiting for a connection to {addr}"),
                        ),
                        None => break,
                    }
                }
            }
        }
    }

    /// Dial, write and re-arm every slot that has work.
    fn pump_all(&mut self) {
        let addrs: Vec<String> = self.backends.keys().cloned().collect();
        for addr in addrs {
            let slots = self.backends.get(&addr).map(|b| b.slots.len()).unwrap_or(0);
            for idx in 0..slots {
                self.pump_slot(&addr, idx);
            }
        }
    }

    fn pump_slot(&mut self, addr: &str, idx: usize) {
        // Dial when there is work and no connection.
        let needs_dial = {
            let slot = &self.backends.get(addr).unwrap().slots[idx];
            slot.conn.is_none() && !slot.queue.is_empty()
        };
        if needs_dial {
            if let Err((kind, detail)) = self.start_connect(addr, idx) {
                let slot = std::mem::take(&mut self.backends.get_mut(addr).unwrap().slots[idx]);
                self.fail_slot(slot, kind, &detail);
                return;
            }
        }
        let max_in_flight = self.options.max_in_flight.max(1);
        let io_timeout = self.options.io_timeout;
        let slot = &mut self.backends.get_mut(addr).unwrap().slots[idx];
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        let mut flush_failed = false;
        if matches!(conn.state, ConnState::Ready) {
            // Move queued exchanges onto the wire up to the pipeline cap;
            // the exchange clock starts when the request is written.
            while conn.in_flight.len() < max_in_flight {
                let Some(mut exchange) = slot.queue.pop_front() else {
                    break;
                };
                exchange.deadline = Instant::now() + io_timeout;
                conn.out.push_line(&exchange.line);
                conn.in_flight.push_back(exchange);
            }
            if !conn.out.is_empty() && conn.out.try_flush(&mut conn.stream).is_err() {
                flush_failed = true;
            }
        }
        if flush_failed {
            let detail = format!("write to {addr} failed");
            let slot = std::mem::take(slot);
            self.fail_slot(slot, io::ErrorKind::BrokenPipe, &detail);
            return;
        }
        // Recompute epoll interest.
        let want = match conn_interest(slot.conn.as_ref()) {
            Some(want) => want,
            None => return,
        };
        let conn = slot.conn.as_mut().unwrap();
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_err()
            {
                let detail = format!("lost epoll registration for {addr}");
                let slot = std::mem::take(slot);
                self.fail_slot(slot, io::ErrorKind::Other, &detail);
            } else {
                let slot = &mut self.backends.get_mut(addr).unwrap().slots[idx];
                if let Some(conn) = slot.conn.as_mut() {
                    conn.interest = want;
                }
            }
        }
    }

    /// Begin a non-blocking dial for one slot.
    fn start_connect(&mut self, addr: &str, idx: usize) -> Result<(), (io::ErrorKind, String)> {
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| (e.kind(), format!("cannot resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| {
                (
                    io::ErrorKind::InvalidInput,
                    format!("{addr} resolves to nothing"),
                )
            })?;
        let progress = connect_nonblocking(&sockaddr)
            .map_err(|e| (e.kind(), format!("connect to {addr} failed: {e}")))?;
        let (stream, state) = match progress {
            ConnectProgress::Ready(stream) => {
                let _ = stream.set_nodelay(true);
                (stream, ConnState::Ready)
            }
            ConnectProgress::Pending(stream) => (
                stream,
                ConnState::Connecting {
                    deadline: Instant::now() + self.options.connect_timeout,
                },
            ),
        };
        let token = self.next_token;
        self.next_token += 1;
        let interest = match state {
            // A pending dial resolves via EPOLLOUT; a ready connection
            // watches for replies (and EOF).
            ConnState::Connecting { .. } => Interest {
                readable: false,
                writable: true,
            },
            ConnState::Ready => Interest::READ,
        };
        self.poller
            .add(stream.as_raw_fd(), token, interest)
            .map_err(|e| (e.kind(), format!("cannot register {addr} socket: {e}")))?;
        self.tokens.insert(token, (addr.to_string(), idx));
        let slot = &mut self.backends.get_mut(addr).unwrap().slots[idx];
        slot.conn = Some(Conn {
            stream,
            token,
            state,
            framer: LineFramer::new(self.options.max_reply_bytes),
            out: WriteBuffer::new(),
            in_flight: VecDeque::new(),
            interest,
        });
        Ok(())
    }

    /// Stop: mark the queue closed, fail everything still pending.
    fn shutdown(&mut self) {
        let leftovers: Vec<Command> = {
            let mut q = unpoisoned(self.shared.queue.lock());
            q.stopped = true;
            q.commands.drain(..).collect()
        };
        for command in leftovers {
            if let Command::Submit { exchange, .. } = command {
                exchange.fail(
                    Phase::Connect,
                    io::ErrorKind::NotConnected,
                    "outbound pool is stopped",
                );
            }
        }
        for (_, backend) in self.backends.drain() {
            for slot in backend.slots {
                if let Some(conn) = slot.conn {
                    for ex in conn.in_flight {
                        ex.fail(
                            Phase::Exchange,
                            io::ErrorKind::NotConnected,
                            "outbound pool is stopped",
                        );
                    }
                }
                for ex in slot.queue {
                    ex.fail(
                        Phase::Connect,
                        io::ErrorKind::NotConnected,
                        "outbound pool is stopped",
                    );
                }
            }
        }
        self.tokens.clear();
    }
}

/// Interest a slot's connection should be armed with.
fn conn_interest(conn: Option<&Conn>) -> Option<Interest> {
    let conn = conn?;
    Some(match conn.state {
        ConnState::Connecting { .. } => Interest {
            readable: false,
            writable: true,
        },
        ConnState::Ready => Interest {
            readable: true,
            writable: !conn.out.is_empty(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fast_options() -> PoolOptions {
        PoolOptions {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(1500),
            ..PoolOptions::default()
        }
    }

    /// An echo backend answering every line with itself; counts accepted
    /// connections so tests can assert reuse.
    fn echo_backend() -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                count.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            break;
                        }
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    #[test]
    fn exchanges_reuse_one_connection_per_slot() {
        let (addr, accepted) = echo_backend();
        let pool = OutboundPool::new(fast_options()).unwrap();
        for i in 0..8 {
            let line = format!("{{\"i\":{i}}}");
            assert_eq!(pool.exchange(&addr, Some(7), &line).unwrap(), line);
        }
        // One sticky key → one slot → one TCP connection for all eight.
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn same_key_submissions_complete_in_order() {
        let (addr, _) = echo_backend();
        let pool = OutboundPool::new(fast_options()).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        for i in 0..32 {
            let seen = Arc::clone(&seen);
            let tx = tx.clone();
            pool.submit(
                &addr,
                Some(3),
                format!("line-{i}"),
                Box::new(move |result| {
                    unpoisoned(seen.lock()).push(result.unwrap());
                    let _ = tx.send(());
                }),
            );
        }
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let seen = unpoisoned(seen.lock());
        let expected: Vec<String> = (0..32).map(|i| format!("line-{i}")).collect();
        assert_eq!(
            *seen, expected,
            "pipelined same-key exchanges kept FIFO order"
        );
    }

    #[test]
    fn connect_failure_reports_the_connect_phase() {
        // A bound-then-dropped listener gives a port nobody listens on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let pool = OutboundPool::new(fast_options()).unwrap();
        let (phase, _err) = pool.exchange(&addr, None, "{\"op\":\"x\"}").unwrap_err();
        assert_eq!(phase, Phase::Connect);
    }

    #[test]
    fn hangup_before_the_reply_reports_the_exchange_phase() {
        // A backend that reads the request and closes without answering.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                // Dropping the stream here closes it before any reply.
            }
        });
        let pool = OutboundPool::new(fast_options()).unwrap();
        let (phase, err) = pool.exchange(&addr, None, "{\"op\":\"x\"}").unwrap_err();
        assert_eq!(phase, Phase::Exchange, "{err}");
    }

    #[test]
    fn a_stalled_backend_times_out_at_the_exchange_phase() {
        // Accepts and reads but never replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                held.push(stream);
            }
        });
        let options = PoolOptions {
            io_timeout: Duration::from_millis(300),
            ..fast_options()
        };
        let pool = OutboundPool::new(options).unwrap();
        let start = Instant::now();
        let (phase, err) = pool.exchange(&addr, None, "{\"op\":\"x\"}").unwrap_err();
        assert_eq!(phase, Phase::Exchange);
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout should fire from the sweep, not hang"
        );
    }

    #[test]
    fn a_stalled_backend_does_not_block_exchanges_to_a_healthy_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stalled = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                held.push(stream);
            }
        });
        let (healthy, _) = echo_backend();
        let pool = Arc::new(OutboundPool::new(fast_options()).unwrap());
        // Occupy the stalled backend...
        let (stall_tx, stall_rx) = mpsc::channel();
        pool.submit(
            &stalled,
            Some(0),
            "stall".into(),
            Box::new(move |result| {
                let _ = stall_tx.send(result);
            }),
        );
        // ...and the healthy one still answers promptly.
        let start = Instant::now();
        let reply = pool.exchange(&healthy, Some(0), "ping").unwrap();
        assert_eq!(reply, "ping");
        assert!(
            start.elapsed() < Duration::from_millis(900),
            "healthy exchange waited {:?} behind a stalled backend",
            start.elapsed()
        );
        // The stalled exchange eventually fails instead of leaking.
        let result = stall_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(result.is_err());
    }

    #[test]
    fn retain_fails_pending_work_towards_dropped_backends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stalled = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                held.push(stream);
            }
        });
        let pool = OutboundPool::new(PoolOptions {
            io_timeout: Duration::from_secs(30),
            ..fast_options()
        })
        .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(
            &stalled,
            None,
            "x".into(),
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        thread::sleep(Duration::from_millis(100));
        pool.retain(&[]);
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_phase, err) = result.unwrap_err();
        assert!(
            err.to_string().contains("topology"),
            "expected a topology-removal failure, got: {err}"
        );
    }

    #[test]
    fn dropping_the_pool_fails_whatever_is_pending() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stalled = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                held.push(stream);
            }
        });
        let pool = OutboundPool::new(PoolOptions {
            io_timeout: Duration::from_secs(30),
            ..fast_options()
        })
        .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(
            &stalled,
            None,
            "x".into(),
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        thread::sleep(Duration::from_millis(100));
        drop(pool);
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(result.is_err());
    }
}
