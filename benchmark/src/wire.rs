//! Driving the release `weber` binary from outside: supervised child
//! processes, a closed-loop NDJSON client with a reply deadline, and the
//! `metrics` op read back as numbers.
//!
//! Nothing here can block for ever: every reply has a deadline, every
//! wait for a child has one, and dropping a [`Server`] kills and reaps it
//! on every exit path.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

/// How long one request may wait for its reply line. An op past it counts
/// as failed and cuts the workload short: the daemon's known lost-wakeup
/// hang (see the README) must show as a failure, never as a stuck run.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// How long a freshly started server may take to accept a connection
/// (a restart on a state directory replays every name first).
pub const START_DEADLINE: Duration = Duration::from_secs(120);

/// How long a server may take to exit after `shutdown` before it is
/// killed.
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// Why a wire step failed.
#[derive(Debug)]
pub enum WireError {
    /// No reply line within [`REPLY_DEADLINE`].
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// A server process exited when it should have been serving.
    Exited(String, ExitStatus),
    /// Any other I/O failure.
    Io(io::Error),
    /// A reply that is not what the protocol promises.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Timeout => write!(f, "no reply within {REPLY_DEADLINE:?}"),
            WireError::Closed => write!(f, "connection closed by the server"),
            WireError::Exited(tag, status) => write!(f, "server '{tag}' exited early: {status}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe => WireError::Closed,
            _ => WireError::Io(e),
        }
    }
}

/// A free loopback port: bind port 0, read the port back, release it.
fn free_addr() -> io::Result<String> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.to_string())
}

/// One supervised `weber` process listening on a loopback port.
#[derive(Debug)]
pub struct Server {
    tag: String,
    child: std::process::Child,
    /// The address it listens on.
    pub addr: String,
    started: Instant,
}

impl Server {
    fn spawn(
        bin: &Path,
        tag: &str,
        out_dir: &Path,
        addr: String,
        args: &[String],
    ) -> io::Result<Self> {
        let stderr = File::create(out_dir.join(format!("{tag}.stderr")))?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr))
            .spawn()?;
        Ok(Self {
            tag: tag.to_string(),
            child,
            addr,
            started,
        })
    }

    /// Start `weber serve` with the benchmark's fixed load shape: one
    /// epoll reactor, two workers, a 1,024-slot queue, the generated
    /// gazetteer, and optionally a state directory. Its stderr is kept as
    /// `<out_dir>/<tag>.stderr`. `addr` pins the listening address (a
    /// restarted backend must come back where the ring expects it); a
    /// free loopback port is picked otherwise.
    pub fn serve(
        bin: &Path,
        tag: &str,
        out_dir: &Path,
        dataset: &Path,
        state_dir: Option<&Path>,
        addr: Option<&str>,
    ) -> io::Result<Self> {
        let addr = match addr {
            Some(addr) => addr.to_string(),
            None => free_addr()?,
        };
        let mut args: Vec<String> = ["serve", "--listen", &addr, "--io", "event"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(["--workers", "2", "--queue", "1024", "--dataset"].map(String::from));
        args.push(dataset.display().to_string());
        if let Some(dir) = state_dir {
            args.extend(["--state-dir".to_string(), dir.display().to_string()]);
        }
        Self::spawn(bin, tag, out_dir, addr, &args)
    }

    /// Start `weber route` over `backends` with the same front-end shape.
    pub fn route(
        bin: &Path,
        tag: &str,
        out_dir: &Path,
        backends: &[String],
        replication: usize,
    ) -> io::Result<Self> {
        let addr = free_addr()?;
        let args: Vec<String> = [
            "route",
            "--listen",
            &addr,
            "--backends",
            &backends.join(","),
            "--replication",
            &replication.to_string(),
            "--io",
            "event",
            "--workers",
            "2",
            "--queue",
            "1024",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        Self::spawn(bin, tag, out_dir, addr, &args)
    }

    /// Fail if the process has exited.
    pub fn check_alive(&mut self) -> Result<(), WireError> {
        match self.child.try_wait()? {
            Some(status) => Err(WireError::Exited(self.tag.clone(), status)),
            None => Ok(()),
        }
    }

    /// Connect, retrying until the server listens. An early exit or the
    /// start deadline is an error.
    pub fn connect(&mut self) -> Result<Client, WireError> {
        let deadline = self.started + START_DEADLINE;
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => return Client::new(stream),
                Err(_) if Instant::now() < deadline => {
                    self.check_alive()?;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Peak resident set of the process so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the server to shut down over `client` and wait for it to exit;
    /// kill it if it does not. Returns its peak resident set in MB, read
    /// just before the request.
    pub fn shutdown(mut self, client: &mut Client) -> f64 {
        let rss = self.peak_rss_mb();
        let _ = client.call(b"{\"op\":\"shutdown\"}\n");
        let deadline = Instant::now() + EXIT_DEADLINE;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return rss;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        rss // Drop kills and reaps.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file in MB; 0 when unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed-loop connection: one request in flight, `TCP_NODELAY`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn new(stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one pre-rendered request line (newline included) and wait for
    /// its reply line, at most [`REPLY_DEADLINE`].
    pub fn call(&mut self, line: &[u8]) -> Result<&str, WireError> {
        self.call_until(line, Instant::now() + REPLY_DEADLINE)
    }

    /// [`call`](Self::call) with an explicit deadline.
    pub fn call_until(&mut self, line: &[u8], deadline: Instant) -> Result<&str, WireError> {
        self.stream.write_all(line)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(WireError::Timeout);
            }
            self.stream.set_read_timeout(Some(left))?;
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(WireError::Closed);
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if self.buf.last() == Some(&b'\n') {
                // Depth one: the buffer holds exactly this reply.
                let line = &self.buf[..self.buf.len() - 1];
                return std::str::from_utf8(line)
                    .map_err(|e| WireError::Protocol(format!("reply is not UTF-8: {e}")));
            }
        }
    }

    /// Call and parse the reply as JSON, requiring `"ok":true`.
    pub fn call_ok(&mut self, line: &str) -> Result<Value, WireError> {
        let reply = self.call(format!("{line}\n").as_bytes())?;
        let value = serde_json::parse_value(reply)
            .map_err(|e| WireError::Protocol(format!("unparseable reply: {e}")))?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(WireError::Protocol(format!("refused: {reply}")));
        }
        Ok(value)
    }
}

/// True for a success reply (`ok` is always rendered first).
pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// What a closed-loop pass over a stream saw.
#[derive(Debug, Default)]
pub struct Pass {
    /// Round-trip time of every answered op, in stream order, ns.
    pub rtt_ns: Vec<u64>,
    /// Ops sent.
    pub attempted: usize,
    /// Ops errored, refused or unanswered within the reply deadline.
    pub failed: usize,
    /// Why the pass stopped before the end of the stream, if it did.
    pub cut_short: Option<String>,
    /// Wall time of the pass.
    pub wall: Duration,
}

impl Pass {
    /// Append a later pass over the next stretch of the same stream.
    pub fn absorb(&mut self, next: Pass) {
        self.rtt_ns.extend(next.rtt_ns);
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.cut_short = next.cut_short;
        self.wall += next.wall;
    }
}

/// Send `lines` one at a time, each after the previous reply. A refused
/// op counts as failed and the pass goes on; an unanswered one or a lost
/// connection counts as failed and ends the pass (what follows on that
/// connection can no longer be attributed). `stop_at` bounds the whole
/// pass for the hazard probes.
pub fn drive(client: &mut Client, lines: &[Vec<u8>], stop_at: Option<Instant>) -> Pass {
    let mut pass = Pass {
        rtt_ns: Vec::with_capacity(lines.len()),
        ..Pass::default()
    };
    let begin = Instant::now();
    for line in lines {
        let sent = Instant::now();
        if stop_at.is_some_and(|t| sent >= t) {
            pass.cut_short = Some("probe deadline".into());
            break;
        }
        pass.attempted += 1;
        let deadline = stop_at.map_or(sent + REPLY_DEADLINE, |t| t.min(sent + REPLY_DEADLINE));
        match client.call_until(line, deadline) {
            Ok(reply) => {
                if !is_ok(reply) {
                    pass.failed += 1;
                }
                pass.rtt_ns.push(sent.elapsed().as_nanos() as u64);
            }
            Err(e) => {
                pass.failed += 1;
                pass.cut_short = Some(e.to_string());
                break;
            }
        }
    }
    pass.wall = begin.elapsed();
    pass
}

/// The numbers of a `metrics` reply: counters by name, and per
/// histogram its count and sum (µs).
#[derive(Debug, Default, Clone)]
pub struct WireMetrics {
    /// Counter values.
    pub counters: BTreeMap<String, f64>,
    /// Histogram `(count, sum)`.
    pub histograms: BTreeMap<String, (f64, f64)>,
}

impl WireMetrics {
    /// Read the `metrics` op over `client`.
    pub fn read(client: &mut Client) -> Result<Self, WireError> {
        let value = client.call_ok("{\"op\":\"metrics\"}")?;
        let mut out = Self::default();
        if let Some(counters) = value.get("counters").and_then(Value::as_object) {
            for (name, v) in counters {
                out.counters.insert(name.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        if let Some(histograms) = value.get("histograms").and_then(Value::as_object) {
            for (name, h) in histograms {
                let field = |k| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                out.histograms
                    .insert(name.clone(), (field("count"), field("sum")));
            }
        }
        Ok(out)
    }

    /// A counter summed over a single daemon's name and every
    /// `shard<i>.`-prefixed copy the router merged in.
    pub fn counter(&self, name: &str) -> f64 {
        self.per_shard(name).iter().sum::<f64>() + self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The `shard<i>.`-prefixed copies of a counter, in shard order.
    pub fn per_shard(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix("shard")
                    .and_then(|rest| rest.split_once('.'))
                    .is_some_and(|(idx, tail)| idx.parse::<usize>().is_ok() && tail == name)
            })
            .map(|(_, v)| *v)
            .collect()
    }

    /// Mean of a histogram, pooled over the daemon's own and every
    /// `shard<i>.` copy; 0 when it never recorded.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram_totals(name);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }

    /// `(count, sum)` of a histogram, pooled over the daemon's own and
    /// every `shard<i>.` copy.
    pub fn histogram_totals(&self, name: &str) -> (f64, f64) {
        self.histograms
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name
                    || k.strip_prefix("shard")
                        .and_then(|rest| rest.split_once('.'))
                        .is_some_and(|(_, tail)| tail == name)
            })
            .fold((0.0, 0.0), |(c, s), (_, (hc, hs))| (c + hc, s + hs))
    }
}

/// Create (or empty) the output directory of a workload.
pub fn fresh_dir(dir: &Path) -> io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_prefixed_counters_are_summed() {
        let mut m = WireMetrics::default();
        m.counters.insert("shard0.stream.ingests".into(), 30.0);
        m.counters.insert("shard1.stream.ingests".into(), 10.0);
        m.counters.insert("route.requests".into(), 44.0);
        m.histograms
            .insert("shard0.stream.ingest_us".into(), (30.0, 3000.0));
        m.histograms
            .insert("shard1.stream.ingest_us".into(), (10.0, 5000.0));
        assert_eq!(m.counter("stream.ingests"), 40.0);
        assert_eq!(m.per_shard("stream.ingests"), vec![30.0, 10.0]);
        assert_eq!(m.counter("route.requests"), 44.0);
        assert_eq!(m.counter("stream.retrains"), 0.0);
        assert_eq!(m.histogram_totals("stream.ingest_us"), (40.0, 8000.0));
        assert_eq!(m.histogram_mean("stream.ingest_us"), 200.0);
        assert_eq!(m.histogram_mean("route.forward_us"), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("/proc/self/status") > 0.0);
        assert_eq!(peak_rss_mb("/nonexistent/status"), 0.0);
    }
}
