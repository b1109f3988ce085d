//! The event-loop NDJSON server: one reactor thread multiplexing every
//! connection over epoll, a fixed worker pool executing parsed requests,
//! and a reorder buffer per connection so replies always come back in
//! the order the requests arrived. [`serve_lines`] is the same contract
//! for one blocking connection (stdin/stdout): no reactor, no pool, each
//! line answered before the next is read.
//!
//! # One parse per line
//!
//! A framed line is handed to [`NdjsonService::parse`] exactly once, on
//! the reactor. The result says everything the reactor needs: where the
//! request runs ([`RouteClass`]), whether it shuts the server down, or —
//! for a line that is not a request — the reply to send at its position.
//! The parsed request then travels to wherever it executes (the reactor
//! itself, a worker queue, or the service's deferred path) and is never
//! decoded again.
//!
//! # Ordering and backpressure
//!
//! Each framed line gets a per-connection sequence number at admission.
//! Workers complete out of global order, but a completion is held in the
//! connection's reorder buffer until every earlier sequence number has
//! been emitted, so clients may pipeline freely and still read replies
//! positionally. Two valves bound memory per connection: reads pause
//! while [`MAX_PIPELINE`] lines are in flight, and while the
//! write buffer holds more than `write_high_watermark` unsent bytes
//! (a client that never reads its replies stops being read itself).
//!
//! # Shutdown
//!
//! A line parsed as a shutdown is acted on at framing time: the listener
//! stops accepting, reads stop, in-flight work drains (bounded by
//! `drain_grace`), queued replies flush, and the loop exits. Connections
//! still open at that point are dropped.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weber_obs::{Gauge, Registry};

use crate::buffer::{LineFramer, WriteBuffer};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::pool::{CompletionSender, Dispatch, RouteClass, WorkerPool};

/// What [`NdjsonService::parse`] made of one line.
pub enum Parsed<R> {
    /// A request to execute.
    Request {
        /// The decoded request, handed to `process` or `process_deferred`.
        request: R,
        /// Where it executes.
        class: RouteClass,
        /// True if admitting it starts the server's drain.
        shutdown: bool,
    },
    /// A line that is not a request; this is its reply.
    Reply(String),
}

/// The write-half of one admitted line's reply slot, handed to
/// [`NdjsonService::process_deferred`] for requests parsed as
/// [`RouteClass::Deferred`]. The service answers from any thread, later:
/// the reply lands in the completion channel and takes the line's
/// position in the connection's reply order, exactly as a worker-pool
/// completion would. Dropping a responder without responding would leave
/// the position unanswered (and the connection's pipeline valve jammed),
/// so [`respond`](Responder::respond) must be called exactly once.
pub struct Responder {
    sender: CompletionSender,
    conn: u64,
    seq: u64,
}

impl Responder {
    /// Deliver the reply line (no trailing newline) for this position.
    pub fn respond(self, reply: String) {
        self.sender.send(crate::pool::Completion {
            conn: self.conn,
            seq: self.seq,
            reply,
        });
    }
}

/// The request-side contract a serving tier implements to run on the
/// event loop: parse a line once, then execute what it parsed to. One
/// instance is shared by the reactor and every worker thread.
pub trait NdjsonService: Send + Sync + 'static {
    /// A decoded request line, carried from the reactor to where it runs.
    type Request: Send + 'static;

    /// Decode one line. Called once per non-blank line, on the reactor
    /// thread (or the stdio loop), so it must not block.
    fn parse(&self, line: &str) -> Parsed<Self::Request>;

    /// Execute one request and produce its reply line. Called on worker
    /// threads (or the reactor thread for `RouteClass::Immediate`).
    fn process(&self, request: Self::Request) -> String;

    /// The reply for a line shed by a full queue or a refused connection.
    fn overloaded_reply(&self) -> String;

    /// The reply for a line that could not be decoded (bad UTF-8,
    /// oversized frame).
    fn parse_error_reply(&self, detail: &str) -> String;

    /// The reply for a handler failure. Defaults to the parse-error
    /// shape; tiers with a richer error vocabulary can override.
    fn internal_error_reply(&self, detail: &str) -> String {
        self.parse_error_reply(detail)
    }

    /// Start asynchronous processing for a [`RouteClass::Deferred`]
    /// request. Called on the reactor thread, so it must not block: kick
    /// off the outbound work and return; answer through `responder` when
    /// done. The default falls back to synchronous processing so services
    /// that never parse to `Deferred` need not implement it.
    fn process_deferred(&self, request: Self::Request, responder: Responder) {
        responder.respond(self.process(request));
    }
}

/// Tuning for [`serve`]. `Default` suits tests; the CLI front ends build
/// one from their flags.
pub struct ServerOptions {
    /// Worker threads executing request lines.
    pub workers: usize,
    /// Bounded queue slots per worker; data lines beyond this shed.
    pub queue_capacity: usize,
    /// Accepted connections beyond this get one `overloaded` line and an
    /// immediate close.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` (the default)
    /// never evicts — routers keep pooled backend connections idle for
    /// minutes by design.
    pub idle_timeout: Option<Duration>,
    /// Unsent reply bytes per connection before its reads pause.
    pub write_high_watermark: usize,
    /// Longest accepted request line.
    pub max_line_bytes: usize,
    /// How long shutdown waits for in-flight lines to drain.
    pub drain_grace: Duration,
    /// Where to surface `net.*` metrics, if anywhere.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            max_connections: 1024,
            idle_timeout: None,
            write_high_watermark: 256 * 1024,
            max_line_bytes: 1024 * 1024,
            drain_grace: Duration::from_secs(5),
            registry: None,
        }
    }
}

/// Lines admitted but unanswered per connection before the reactor stops
/// reading it. A deeper pipeline is backpressure, not an error: the client
/// is read again as replies drain. The bound only caps one connection's
/// queued work and reply memory, and 256 is above the deepest burst any
/// client or test here sends (64 unread lines; the benchmark pipelines 2).
pub const MAX_PIPELINE: u64 = 256;

/// The gauge [`serve`] keeps in [`ServerOptions::registry`] at the number
/// of lines queued for the workers and not yet picked up. A tier that
/// reports the backlog itself (`weber serve`'s `health`) binds this name.
pub const QUEUE_DEPTH_GAUGE: &str = "net.queue_depth";

/// The gauge [`serve`] sets to its running pool's worker count while the
/// loop runs, and back to 0 when it returns.
pub const WORKERS_GAUGE: &str = "net.workers";

/// The gauge [`serve`] sets to its running pool's per-worker queue
/// capacity while the loop runs, and back to 0 when it returns.
pub const QUEUE_CAPACITY_GAUGE: &str = "net.queue_capacity";

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;

struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    out: WriteBuffer,
    /// Completed replies waiting for earlier sequence numbers.
    reorder: BTreeMap<u64, String>,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number to emit to the write buffer.
    next_emit: u64,
    /// Registered epoll interest, to skip redundant `EPOLL_CTL_MOD`s.
    interest: Interest,
    /// Peer sent EOF (or the frame stream is beyond repair).
    read_closed: bool,
    last_activity: Instant,
}

impl Conn {
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_emit
    }

    /// Move contiguous completed replies from the reorder buffer into
    /// the write buffer.
    fn emit_ready(&mut self) {
        while let Some(line) = self.reorder.remove(&self.next_emit) {
            self.out.push_line(&line);
            self.next_emit += 1;
        }
    }

    /// Fully served: peer stopped sending, nothing in flight, nothing
    /// left to write.
    fn finished(&self) -> bool {
        self.read_closed && self.in_flight() == 0 && self.out.is_empty()
    }

    fn drained(&self) -> bool {
        self.in_flight() == 0 && self.out.is_empty()
    }
}

struct NetMetrics {
    connections: Arc<weber_obs::Gauge>,
    accepted: Arc<weber_obs::Counter>,
    refused: Arc<weber_obs::Counter>,
    lines: Arc<weber_obs::Counter>,
    shed: Arc<weber_obs::Counter>,
    idle_closed: Arc<weber_obs::Counter>,
}

impl NetMetrics {
    fn new(registry: Option<&Arc<Registry>>) -> Option<Self> {
        registry.map(|r| Self {
            connections: r.gauge("net.connections"),
            accepted: r.counter("net.accepted_total"),
            refused: r.counter("net.refused_total"),
            lines: r.counter("net.lines_total"),
            shed: r.counter("net.shed_total"),
            idle_closed: r.counter("net.idle_closed_total"),
        })
    }
}

/// Run the event loop until a shutdown line arrives (or the listener
/// dies). Returns the number of request lines admitted across all
/// connections.
pub fn serve<S: NdjsonService>(
    service: Arc<S>,
    listener: TcpListener,
    options: ServerOptions,
) -> io::Result<u64> {
    // Best effort: at the default 1024-fd soft cap accept fails with
    // EMFILE near a thousand clients, whatever max_connections says.
    let _ = crate::sys::raise_nofile_limit();
    listener.set_nonblocking(true)?;
    let metrics = NetMetrics::new(options.registry.as_ref());

    let mut poller = Poller::new(1024)?;
    let waker = Arc::new(Waker::new()?);
    let (tx, completions): (_, Receiver<crate::pool::Completion>) = mpsc::channel();
    let completion_sender = CompletionSender::new(tx, Arc::clone(&waker));
    let gauge = |name: &str| match options.registry.as_ref() {
        Some(registry) => registry.gauge(name),
        None => Arc::new(Gauge::new()),
    };
    let (workers, queue_capacity) = (gauge(WORKERS_GAUGE), gauge(QUEUE_CAPACITY_GAUGE));
    let pool = WorkerPool::start(
        Arc::clone(&service),
        options.workers,
        options.queue_capacity,
        completion_sender.clone(),
        gauge(QUEUE_DEPTH_GAUGE),
    );
    workers.set(pool.workers() as i64);
    queue_capacity.set(pool.capacity() as i64);

    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.add(waker.raw_fd(), TOKEN_WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut admitted: u64 = 0;
    let mut shutting_down = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut events: Vec<Event> = Vec::with_capacity(1024);
    let mut last_idle_sweep = Instant::now();
    let mut closed: Vec<u64> = Vec::new();

    'reactor: loop {
        events.clear();
        let timeout = if shutting_down {
            Some(Duration::from_millis(20))
        } else if options.idle_timeout.is_some() {
            Some(Duration::from_millis(200))
        } else {
            None
        };
        poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        for event in events.iter().copied() {
            match event.token {
                TOKEN_LISTENER => {
                    if shutting_down {
                        continue;
                    }
                    accept_ready(
                        &listener,
                        &mut poller,
                        &mut conns,
                        &mut next_token,
                        &options,
                        service.as_ref(),
                        metrics.as_ref(),
                        now,
                    );
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // already closed this iteration
                    };
                    let mut dead = false;
                    if event.writable && !conn.out.is_empty() {
                        match conn.out.try_flush(&mut conn.stream) {
                            Ok(_) => conn.last_activity = now,
                            Err(_) => dead = true,
                        }
                    }
                    if !dead && (event.readable || event.hangup) && !conn.read_closed {
                        match read_and_frame(
                            conn,
                            token,
                            &pool,
                            &completion_sender,
                            service.as_ref(),
                            &options,
                            &mut admitted,
                            &mut shutting_down,
                            metrics.as_ref(),
                            now,
                        ) {
                            Ok(()) => {}
                            Err(_) => dead = true,
                        }
                    } else if !dead && event.hangup && conn.out.is_empty() {
                        // Peer is gone and nothing is owed to it.
                        dead = conn.in_flight() == 0;
                    }
                    if dead || conn.finished() {
                        closed.push(token);
                    }
                }
            }
        }

        drain_completions(&completions, &mut conns);

        // Idle eviction, amortised to a periodic sweep.
        if let Some(idle) = options.idle_timeout {
            if now.duration_since(last_idle_sweep) >= Duration::from_millis(200).min(idle) {
                last_idle_sweep = now;
                for (&token, conn) in conns.iter() {
                    if now.duration_since(conn.last_activity) >= idle && conn.in_flight() == 0 {
                        if let Some(m) = metrics.as_ref() {
                            m.idle_closed.inc();
                        }
                        closed.push(token);
                    }
                }
            }
        }

        // Recompute interest and reap finished connections. This pass
        // also re-pumps framing: completions may have reopened the
        // pipelining valve while decoded-but-unframed bytes sat in the
        // framer, and a quiet socket would never re-report readable.
        for (&token, conn) in conns.iter_mut() {
            if conn.framer.pending_bytes() > 0
                && !conn.read_closed
                && conn.in_flight() < MAX_PIPELINE
            {
                frame_pending(
                    conn,
                    token,
                    &pool,
                    &completion_sender,
                    service.as_ref(),
                    &mut admitted,
                    &mut shutting_down,
                    metrics.as_ref(),
                );
                conn.emit_ready();
                if !conn.out.is_empty() && conn.out.try_flush(&mut conn.stream).is_err() {
                    closed.push(token);
                    continue;
                }
            }
            if conn.finished() {
                closed.push(token);
                continue;
            }
            let want = Interest {
                readable: !conn.read_closed
                    && !shutting_down
                    && conn.in_flight() < MAX_PIPELINE
                    && conn.out.pending() <= options.write_high_watermark,
                writable: !conn.out.is_empty(),
            };
            if want != conn.interest {
                if poller.modify(conn.stream.as_raw_fd(), token, want).is_err() {
                    closed.push(token);
                } else {
                    conn.interest = want;
                }
            }
        }
        if !closed.is_empty() {
            closed.sort_unstable();
            closed.dedup();
            for token in closed.drain(..) {
                if conns.remove(&token).is_some() {
                    if let Some(m) = metrics.as_ref() {
                        m.connections.sub(1);
                    }
                }
            }
        }

        if shutting_down {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + options.drain_grace);
            let all_drained = pool.depth() == 0 && conns.values().all(Conn::drained);
            if all_drained || Instant::now() >= deadline {
                break 'reactor;
            }
        }
    }

    drop(listener);
    pool.finish();
    workers.set(0);
    queue_capacity.set(0);
    // Flush any replies that completed during the final drain window.
    drain_completions(&completions, &mut conns);
    for conn in conns.values_mut() {
        conn.emit_ready();
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn
            .stream
            .set_write_timeout(Some(Duration::from_millis(500)));
        let _ = conn.out.try_flush(&mut conn.stream);
    }
    if let Some(m) = metrics.as_ref() {
        m.connections.set(0);
    }
    Ok(admitted)
}

#[allow(clippy::too_many_arguments)]
fn accept_ready<S: NdjsonService>(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    options: &ServerOptions,
    service: &S,
    metrics: Option<&NetMetrics>,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= options.max_connections {
                    refuse(stream, service, metrics);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .add(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        framer: LineFramer::new(options.max_line_bytes),
                        out: WriteBuffer::new(),
                        reorder: BTreeMap::new(),
                        next_seq: 0,
                        next_emit: 0,
                        interest: Interest::READ,
                        read_closed: false,
                        last_activity: now,
                    },
                );
                if let Some(m) = metrics {
                    m.accepted.inc();
                    m.connections.add(1);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Out of fds or a transient accept failure: leave the rest
            // in the backlog; level-triggered epoll re-reports them.
            Err(_) => break,
        }
    }
}

/// One `overloaded` line, then close — the contract over-cap clients see.
fn refuse<S: NdjsonService>(mut stream: TcpStream, service: &S, metrics: Option<&NetMetrics>) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = stream.write_all(format!("{}\n", service.overloaded_reply()).as_bytes());
    let _ = stream.flush();
    if let Some(m) = metrics {
        m.refused.inc();
    }
}

/// Pull bytes off a readable socket, frame complete lines, and dispatch
/// them. Returns `Err` only when the connection must close immediately.
#[allow(clippy::too_many_arguments)]
fn read_and_frame<S: NdjsonService>(
    conn: &mut Conn,
    token: u64,
    pool: &WorkerPool<S::Request>,
    completions: &CompletionSender,
    service: &S,
    options: &ServerOptions,
    admitted: &mut u64,
    shutting_down: &mut bool,
    metrics: Option<&NetMetrics>,
    now: Instant,
) -> io::Result<()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        // Respect the pipelining valve even within one readable burst.
        if conn.in_flight() >= MAX_PIPELINE || conn.out.pending() > options.write_high_watermark {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = now;
                conn.framer.push(&chunk[..n]);
                frame_pending(
                    conn,
                    token,
                    pool,
                    completions,
                    service,
                    admitted,
                    shutting_down,
                    metrics,
                );
                if conn.framer.overflowed() && !conn.read_closed {
                    // A partial line outgrew the cap with no newline in
                    // sight: the frame boundary is lost. Answer once and
                    // hang up.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.reorder
                        .insert(seq, service.parse_error_reply("request line too long"));
                    conn.read_closed = true;
                    break;
                }
                if conn.read_closed || *shutting_down {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    frame_pending(
        conn,
        token,
        pool,
        completions,
        service,
        admitted,
        shutting_down,
        metrics,
    );
    conn.emit_ready();
    if !conn.out.is_empty() && conn.out.try_flush(&mut conn.stream).is_err() {
        return Err(io::Error::from(io::ErrorKind::BrokenPipe));
    }
    Ok(())
}

/// Frame, parse and dispatch as many buffered lines as the pipelining
/// valve allows. Nothing is framed once a shutdown has been admitted.
#[allow(clippy::too_many_arguments)]
fn frame_pending<S: NdjsonService>(
    conn: &mut Conn,
    token: u64,
    pool: &WorkerPool<S::Request>,
    completions: &CompletionSender,
    service: &S,
    admitted: &mut u64,
    shutting_down: &mut bool,
    metrics: Option<&NetMetrics>,
) {
    while conn.in_flight() < MAX_PIPELINE && !conn.read_closed && !*shutting_down {
        if conn.framer.overflowed() {
            break;
        }
        let Some(raw) = conn.framer.next_line() else {
            break;
        };
        if conn.framer.overflowed() {
            // A complete line arrived but blew the size cap: answer at
            // its position and stop reading this connection.
            *admitted += 1;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.reorder
                .insert(seq, service.parse_error_reply("request line too long"));
            conn.read_closed = true;
            break;
        }
        let line = match String::from_utf8(raw) {
            Ok(line) => line,
            Err(_) => {
                // Undecodable line: it still occupies a reply position.
                *admitted += 1;
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.reorder
                    .insert(seq, service.parse_error_reply("request is not valid UTF-8"));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue; // blank keep-alives are skipped, not counted
        }
        *admitted += 1;
        if let Some(m) = metrics {
            m.lines.inc();
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let (request, class) = match service.parse(&line) {
            Parsed::Reply(reply) => {
                conn.reorder.insert(seq, reply);
                continue;
            }
            Parsed::Request {
                request,
                class,
                shutdown,
            } => {
                *shutting_down |= shutdown;
                (request, class)
            }
        };
        match class {
            RouteClass::Immediate => {
                conn.reorder.insert(seq, service.process(request));
            }
            RouteClass::Deferred => {
                // The line's reply slot travels with the responder; the
                // service answers through the completion channel when its
                // outbound work finishes.
                service.process_deferred(
                    request,
                    Responder {
                        sender: completions.clone(),
                        conn: token,
                        seq,
                    },
                );
            }
            class => match pool.submit(class, token, seq, request) {
                Dispatch::Queued => {}
                Dispatch::Shed => {
                    if let Some(m) = metrics {
                        m.shed.inc();
                    }
                    conn.reorder.insert(seq, service.overloaded_reply());
                }
            },
        }
    }
}

/// Move completed replies into their connections' reorder buffers and
/// flush whatever became contiguous.
fn drain_completions(
    completions: &Receiver<crate::pool::Completion>,
    conns: &mut HashMap<u64, Conn>,
) {
    while let Ok(completion) = completions.try_recv() {
        if let Some(conn) = conns.get_mut(&completion.conn) {
            conn.reorder.insert(completion.seq, completion.reply);
            conn.emit_ready();
            if !conn.out.is_empty() {
                // Opportunistic flush; WouldBlock leaves bytes
                // queued and the interest pass arms EPOLLOUT.
                let _ = conn.out.try_flush(&mut conn.stream);
            }
        }
    }
}

/// Serve one blocking connection: read a line, parse it, answer it,
/// flush, read the next — the stdin/stdout front end of both tiers. Blank
/// lines are skipped; a line that is not valid UTF-8 is answered at its
/// position with [`NdjsonService::parse_error_reply`]. Stops at EOF or
/// after answering a line parsed as a shutdown, returning how many lines
/// were answered; a read or write error ends the loop and is returned.
///
/// Nothing is queued, so nothing is ever shed: a client that does not
/// wait for replies (a file piped in) is simply read at the pace its
/// lines execute.
pub fn serve_lines<S: NdjsonService, R: BufRead, W: Write>(
    service: &S,
    mut reader: R,
    writer: &mut W,
) -> io::Result<u64> {
    let mut answered = 0u64;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(answered);
        }
        let (reply, shutdown) = match std::str::from_utf8(&raw).map(str::trim) {
            Ok("") => continue,
            Ok(line) => match service.parse(line) {
                Parsed::Reply(reply) => (reply, false),
                Parsed::Request {
                    request, shutdown, ..
                } => (service.process(request), shutdown),
            },
            Err(_) => (
                service.parse_error_reply("request is not valid UTF-8"),
                false,
            ),
        };
        answered += 1;
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(answered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream as ClientStream;

    /// The line that stops a test server.
    const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;

    /// Uppercases lines; [`SHUTDOWN`] ends the server; "slow" sleeps to
    /// create reordering pressure across keys.
    struct Upper;
    impl NdjsonService for Upper {
        type Request = String;
        fn parse(&self, line: &str) -> Parsed<String> {
            let shutdown = line == SHUTDOWN;
            let class = if line.contains("health") {
                RouteClass::Immediate
            } else if shutdown {
                RouteClass::Control
            } else {
                // Spread by length so different lines land on different
                // workers, exercising the reorder buffer.
                RouteClass::Data(line.len() as u64)
            };
            Parsed::Request {
                request: line.to_string(),
                class,
                shutdown,
            }
        }
        fn process(&self, line: String) -> String {
            if line.contains("slow") {
                std::thread::sleep(Duration::from_millis(30));
            }
            line.to_uppercase()
        }
        fn overloaded_reply(&self) -> String {
            "overloaded".into()
        }
        fn parse_error_reply(&self, detail: &str) -> String {
            format!("error:{detail}")
        }
    }

    fn start(options: ServerOptions) -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
        start_with(Arc::new(Upper), options)
    }

    fn start_with<S: NdjsonService>(
        service: Arc<S>,
        options: ServerOptions,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve(service, listener, options).unwrap());
        (addr, handle)
    }

    #[test]
    fn pipelined_replies_come_back_in_request_order() {
        let (addr, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        // One slow line first: its reply must still come back first.
        client
            .write_all(b"slow alpha\nbeta\ngamma\ndelta omega\n")
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(lines, ["SLOW ALPHA", "BETA", "GAMMA", "DELTA OMEGA"]);
        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(handle.join().unwrap(), 5);
    }

    #[test]
    fn byte_at_a_time_clients_still_get_framed() {
        let (addr, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        for b in b"trickle\n" {
            client.write_all(&[*b]).unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "TRICKLE");
        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn over_cap_connections_get_one_overloaded_line() {
        let options = ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        };
        let (addr, handle) = start(options);
        let first = ClientStream::connect(addr).unwrap();
        // Make sure the reactor registered the first connection before
        // the second arrives.
        std::thread::sleep(Duration::from_millis(50));
        let second = ClientStream::connect(addr).unwrap();
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "overloaded");
        // ...and the socket closes right after.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        let mut first = first;
        first.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn idle_connections_are_evicted() {
        let options = ServerOptions {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerOptions::default()
        };
        let (addr, handle) = start(options);
        let idle = ClientStream::connect(addr).unwrap();
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        // The server closes us without a word once the timeout passes.
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "expected eviction EOF, got {line:?}");
        let mut closer = ClientStream::connect(addr).unwrap();
        closer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn invalid_utf8_lines_get_positional_errors() {
        let (addr, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        client.write_all(b"ok1\n\xff\xfe\xfd\nok2\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(lines[0], "OK1");
        assert!(lines[1].starts_with("error:"), "got {:?}", lines[1]);
        assert_eq!(lines[2], "OK2");
        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        assert_eq!(handle.join().unwrap(), 4);
    }

    #[test]
    fn a_saturated_queue_sheds_data_lines_but_answers_every_health_in_order() {
        // One worker, one queue slot, sixteen 30 ms data lines pipelined
        // in a single write with a health probe after each: the reactor
        // frames the burst far faster than the worker drains it, so most
        // data lines find the slot taken.
        let options = ServerOptions {
            workers: 1,
            queue_capacity: 1,
            ..ServerOptions::default()
        };
        let (addr, handle) = start(options);
        let mut client = ClientStream::connect(addr).unwrap();
        let mut burst = String::new();
        for i in 0..16 {
            burst.push_str(&format!("slow {i:02}\nhealth\n"));
        }
        client.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut shed = 0;
        for i in 0..16 {
            let mut data = String::new();
            reader.read_line(&mut data).unwrap();
            if data.trim() == "overloaded" {
                shed += 1;
            } else {
                // An answered data line sits at its own position.
                assert_eq!(data.trim(), format!("SLOW {i:02}"));
            }
            let mut health = String::new();
            reader.read_line(&mut health).unwrap();
            assert_eq!(health.trim(), "HEALTH", "probe {i} was shed or reordered");
        }
        assert!(
            shed > 0,
            "a one-slot queue must shed under a pipelined burst"
        );
        assert!(shed < 16, "the first data line finds the queue empty");
        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        assert_eq!(handle.join().unwrap(), 33);
    }

    fn lines_of(out: Vec<u8>) -> Vec<String> {
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn serve_lines_answers_in_order_skipping_blanks_and_bad_utf8() {
        // Blank keep-alives are not counted; the undecodable line keeps
        // its position; a last line without a newline is still a line.
        let input = b"one\n\n   \n\xff\xfe{broken\ntwo\nthree".to_vec();
        let mut out = Vec::new();
        let answered = serve_lines(&Upper, io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(answered, 4);
        assert_eq!(
            lines_of(out),
            ["ONE", "error:request is not valid UTF-8", "TWO", "THREE"]
        );
    }

    #[test]
    fn serve_lines_stops_after_the_shutdown_reply() {
        let input = b"one\n{\"op\":\"shutdown\"}\nnever read\n".to_vec();
        let mut out = Vec::new();
        let answered = serve_lines(&Upper, io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(answered, 2);
        assert_eq!(lines_of(out), ["ONE", "{\"OP\":\"SHUTDOWN\"}"]);
    }

    #[test]
    fn serve_lines_returns_the_write_error_of_a_vanished_peer() {
        /// Fails every write, like a peer that reset.
        struct DeadWriter;
        impl Write for DeadWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = serve_lines(
            &Upper,
            io::Cursor::new(b"one\ntwo\n".to_vec()),
            &mut DeadWriter,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// Counts `parse` calls. A line's first word picks its path: `now`
    /// runs on the reactor, `ctl` is a control request, `later` is
    /// deferred and answered from another thread, `bad` is not a request,
    /// `stop` is a control request that shuts the server down; anything
    /// else is data on one key. `slow` lines take 30 ms to process.
    #[derive(Default)]
    struct Counting {
        parses: std::sync::atomic::AtomicUsize,
    }

    impl Counting {
        fn parses(&self) -> usize {
            self.parses.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl NdjsonService for Counting {
        type Request = String;
        fn parse(&self, line: &str) -> Parsed<String> {
            self.parses
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let class = match line.split_whitespace().next() {
                Some("bad") => return Parsed::Reply(format!("rejected {line}")),
                Some("now") => RouteClass::Immediate,
                Some("ctl" | "stop") => RouteClass::Control,
                Some("later") => RouteClass::Deferred,
                _ => RouteClass::Data(0),
            };
            Parsed::Request {
                request: line.to_string(),
                class,
                shutdown: line.starts_with("stop"),
            }
        }
        fn process(&self, line: String) -> String {
            if line.contains("slow") {
                std::thread::sleep(Duration::from_millis(30));
            }
            format!("done {line}")
        }
        fn process_deferred(&self, line: String, responder: Responder) {
            std::thread::spawn(move || responder.respond(format!("deferred {line}")));
        }
        fn overloaded_reply(&self) -> String {
            "overloaded".into()
        }
        fn parse_error_reply(&self, detail: &str) -> String {
            format!("error:{detail}")
        }
    }

    fn read_lines(reader: &mut impl BufRead, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim().to_string()
            })
            .collect()
    }

    #[test]
    fn every_admitted_line_is_parsed_exactly_once() {
        // One worker with one queue slot: the burst of slow data lines
        // sheds some, and every other path runs once each.
        let service = Arc::new(Counting::default());
        let options = ServerOptions {
            workers: 1,
            queue_capacity: 1,
            ..ServerOptions::default()
        };
        let (addr, handle) = start_with(Arc::clone(&service), options);
        let mut client = ClientStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let burst = "slow 0\nslow 1\nslow 2\nslow 3\nslow 4\nslow 5\nnow\nctl\nlater\nbad\n\n";
        client.write_all(burst.as_bytes()).unwrap();
        let replies = read_lines(&mut reader, 10);
        let shed = replies.iter().filter(|r| *r == "overloaded").count();
        assert!(shed > 0, "a one-slot queue must shed a burst: {replies:?}");
        assert_eq!(replies[0], "done slow 0");
        assert_eq!(
            replies[6..],
            ["done now", "done ctl", "deferred later", "rejected bad"]
        );
        assert_eq!(service.parses(), 10, "the blank line is not parsed");
        // The shutdown is acted on when it is framed, not when its slow
        // reply is ready: the line behind it in the same write is never
        // parsed or admitted.
        client.write_all(b"stop slow\nafter\n").unwrap();
        assert_eq!(read_lines(&mut reader, 1), ["done stop slow"]);
        assert_eq!(handle.join().unwrap(), 11);
        assert_eq!(service.parses(), 11);
        assert!(
            ClientStream::connect(addr).is_err(),
            "the listener is closed"
        );

        // The blocking loop parses each non-blank line once and stops
        // after the shutdown.
        let service = Counting::default();
        let input = b"now\n\nctl\nlater\nbad\n  \ndata\nstop\nnever\n".to_vec();
        let mut out = Vec::new();
        let answered = serve_lines(&service, io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(answered, 6);
        assert_eq!(service.parses(), 6);
        assert_eq!(
            lines_of(out),
            [
                "done now",
                "done ctl",
                "done later",
                "rejected bad",
                "done data",
                "done stop"
            ]
        );
    }
}
