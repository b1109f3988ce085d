//! The bounded dispatch queue between the reactor and the request
//! workers. Queues carry parsed requests ([`NdjsonService::Request`]),
//! never raw lines: a worker executes what the reactor decoded.
//!
//! The reactor thread must never block, so admission follows the serving
//! tiers' established contract: *data-plane* lines (writes and per-name
//! reads) are shed with an `overloaded` reply when their worker's queue
//! is full, while *control-plane* lines (snapshot, flush, shutdown, …)
//! are always enqueued — they are rare, and shedding a shutdown would be
//! absurd. Sticky routing (`RouteClass::Data(key)` → `key % workers`)
//! keeps every line with the same key on one FIFO worker, so same-name
//! requests execute in admission order even though replies come back to
//! the reactor out of global order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use weber_obs::Gauge;

use crate::poller::Waker;
use crate::server::NdjsonService;

/// Where a request executes, decided by [`NdjsonService::parse`] before
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// Sheddable request pinned to worker `key % workers`. Lines sharing
    /// a key (same entity name) execute in admission order.
    Data(u64),
    /// Rare request that must never be shed; runs on worker 0 in
    /// admission order with every other control request.
    Control,
    /// Cheap request answered synchronously on the reactor thread,
    /// bypassing the queues entirely (health probes of a saturated tier).
    Immediate,
    /// Request handed to [`NdjsonService::process_deferred`] on the
    /// reactor thread with a [`crate::Responder`]: the service starts
    /// asynchronous work (an outbound backend exchange) and answers
    /// later through the completion channel. Never queued, never shed —
    /// backpressure comes from the pipelining valve.
    Deferred,
}

/// One completed request, posted back to the reactor.
pub struct Completion {
    /// The connection the line arrived on.
    pub conn: u64,
    /// The line's per-connection admission sequence number.
    pub seq: u64,
    /// The reply line to deliver at that position.
    pub reply: String,
}

/// The worker half of the completion channel: post a result, wake the
/// reactor.
#[derive(Clone)]
pub struct CompletionSender {
    tx: Sender<Completion>,
    waker: Arc<Waker>,
}

impl CompletionSender {
    /// Pair a sender with the reactor's waker.
    pub fn new(tx: Sender<Completion>, waker: Arc<Waker>) -> Self {
        Self { tx, waker }
    }

    /// Post one completion and wake the reactor. A disconnected reactor
    /// (shutdown race) is ignored.
    pub fn send(&self, completion: Completion) {
        if self.tx.send(completion).is_ok() {
            self.waker.wake();
        }
    }
}

struct Queue<R> {
    state: Mutex<QueueState<R>>,
    ready: Condvar,
}

struct QueueState<R> {
    /// `(conn, seq, request)` in admission order.
    jobs: VecDeque<(u64, u64, R)>,
    closed: bool,
}

/// Outcome of a dispatch attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// The line was queued; its reply will arrive as a [`Completion`].
    Queued,
    /// The target queue was full and the line was data-plane: the caller
    /// answers `overloaded` at this line's position itself.
    Shed,
}

/// A fixed pool of worker threads, each with its own bounded FIFO queue,
/// processing parsed requests of type `R` through one shared
/// [`NdjsonService`].
pub struct WorkerPool<R> {
    queues: Vec<Arc<Queue<R>>>,
    capacity: usize,
    depth: Arc<Gauge>,
    handles: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static> WorkerPool<R> {
    /// Start `workers` threads (clamped to ≥ 1), each with a
    /// `capacity`-slot queue (clamped to ≥ 1), posting replies through
    /// `completions`. `depth` is kept at the number of jobs queued but not
    /// yet picked up, across all workers.
    pub fn start<S: NdjsonService<Request = R>>(
        service: Arc<S>,
        workers: usize,
        capacity: usize,
        completions: CompletionSender,
        depth: Arc<Gauge>,
    ) -> Self {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        let queues: Vec<Arc<Queue<R>>> = (0..workers)
            .map(|_| {
                Arc::new(Queue {
                    state: Mutex::new(QueueState {
                        jobs: VecDeque::new(),
                        closed: false,
                    }),
                    ready: Condvar::new(),
                })
            })
            .collect();
        let handles = queues
            .iter()
            .map(|queue| {
                let queue = Arc::clone(queue);
                let service = Arc::clone(&service);
                let completions = completions.clone();
                let depth = Arc::clone(&depth);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut state = queue.state.lock().unwrap();
                        loop {
                            if let Some(job) = state.jobs.pop_front() {
                                break job;
                            }
                            if state.closed {
                                return;
                            }
                            state = queue.ready.wait(state).unwrap();
                        }
                    };
                    depth.sub(1);
                    let (conn, seq, request) = job;
                    // A panicking handler must not wedge the connection:
                    // the line still gets a reply at its position.
                    let reply = catch_unwind(AssertUnwindSafe(|| service.process(request)))
                        .unwrap_or_else(|_| {
                            service.internal_error_reply("request handler panicked")
                        });
                    completions.send(Completion { conn, seq, reply });
                })
            })
            .collect();
        Self {
            queues,
            capacity,
            depth,
            handles,
        }
    }

    /// Dispatch one request. `Data` requests may shed; `Control` requests
    /// always queue (on worker 0). Callers handle `RouteClass::Immediate`
    /// and `RouteClass::Deferred` themselves — passing either here routes
    /// like `Control`.
    pub fn submit(&self, class: RouteClass, conn: u64, seq: u64, request: R) -> Dispatch {
        let workers = self.queues.len() as u64;
        let (index, sheddable) = match class {
            RouteClass::Data(key) => ((key % workers) as usize, true),
            RouteClass::Control | RouteClass::Immediate | RouteClass::Deferred => (0, false),
        };
        let queue = &self.queues[index];
        let mut state = queue.state.lock().unwrap();
        if sheddable && state.jobs.len() >= self.capacity {
            return Dispatch::Shed;
        }
        state.jobs.push_back((conn, seq, request));
        // Still under the queue lock, so the worker's matching `sub`
        // cannot run first and the gauge never reads negative.
        self.depth.add(1);
        queue.ready.notify_one();
        Dispatch::Queued
    }

    /// Jobs queued but not yet picked up, across all workers.
    pub fn depth(&self) -> i64 {
        self.depth.get()
    }

    /// Worker threads running (after clamping).
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Queue slots per worker (after clamping).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Close the queues and join every worker. Queued jobs are still
    /// processed; their completions land in the channel for the caller
    /// to drain (or drop).
    pub fn finish(mut self) {
        for queue in &self.queues {
            queue.state.lock().unwrap().closed = true;
            queue.ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Parsed;
    use std::sync::mpsc::{self, Receiver};

    /// Every line is one data request on key 0.
    fn data_line(line: &str) -> Parsed<String> {
        Parsed::Request {
            request: line.to_string(),
            class: RouteClass::Data(0),
            shutdown: false,
        }
    }

    /// Echo service: replies with the line itself; "boom" panics.
    struct Echo;
    impl NdjsonService for Echo {
        type Request = String;
        fn parse(&self, line: &str) -> Parsed<String> {
            data_line(line)
        }
        fn process(&self, line: String) -> String {
            if line == "boom" {
                panic!("kaboom");
            }
            line
        }
        fn overloaded_reply(&self) -> String {
            "overloaded".into()
        }
        fn parse_error_reply(&self, _detail: &str) -> String {
            "parse-error".into()
        }
    }

    fn pool(
        workers: usize,
        capacity: usize,
    ) -> (WorkerPool<String>, Receiver<Completion>, Arc<Waker>) {
        let (tx, rx) = mpsc::channel();
        let waker = Arc::new(Waker::new().unwrap());
        let pool = WorkerPool::start(
            Arc::new(Echo),
            workers,
            capacity,
            CompletionSender::new(tx, Arc::clone(&waker)),
            Arc::new(Gauge::new()),
        );
        (pool, rx, waker)
    }

    #[test]
    fn sticky_keys_complete_in_submission_order() {
        let (pool, rx, _waker) = pool(4, 64);
        for seq in 0..32u64 {
            assert_eq!(
                pool.submit(RouteClass::Data(9), 1, seq, format!("line-{seq}")),
                Dispatch::Queued
            );
        }
        let mut seen = Vec::new();
        for _ in 0..32 {
            let c = rx.recv().unwrap();
            seen.push(c.seq);
            assert_eq!(c.reply, format!("line-{}", c.seq));
        }
        // One sticky key → one FIFO worker → strictly ordered completions.
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
        pool.finish();
    }

    #[test]
    fn full_queues_shed_data_but_not_control() {
        let (pool, rx, _waker) = pool(1, 1);
        // Wedge the single worker with a job, then fill the queue.
        pool.submit(RouteClass::Data(0), 1, 0, "a".into());
        let mut shed = 0;
        for seq in 1..64u64 {
            if pool.submit(RouteClass::Data(0), 1, seq, "b".into()) == Dispatch::Shed {
                shed += 1;
            }
        }
        assert!(shed > 0, "a capacity-1 queue must shed under a burst");
        // Control lines are never shed even when the queue is past
        // capacity.
        assert_eq!(
            pool.submit(RouteClass::Control, 1, 99, "flush".into()),
            Dispatch::Queued
        );
        pool.finish();
        let replies: Vec<Completion> = rx.try_iter().collect();
        assert!(replies.iter().any(|c| c.seq == 99));
        assert_eq!(replies.len() as u64, 64 - shed + 1);
    }

    #[test]
    fn a_panicking_handler_still_answers_its_position() {
        let (pool, rx, _waker) = pool(1, 8);
        pool.submit(RouteClass::Data(0), 1, 0, "boom".into());
        pool.submit(RouteClass::Data(0), 1, 1, "after".into());
        let first = rx.recv().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(first.reply, "parse-error");
        let second = rx.recv().unwrap();
        assert_eq!(second.reply, "after");
        pool.finish();
    }

    #[test]
    fn the_depth_gauge_counts_queued_lines_but_not_the_executing_one() {
        /// Reports entering `process`, then blocks until released.
        struct Gated {
            entered: Sender<()>,
            release: Mutex<Receiver<()>>,
        }
        impl NdjsonService for Gated {
            type Request = String;
            fn parse(&self, line: &str) -> Parsed<String> {
                data_line(line)
            }
            fn process(&self, line: String) -> String {
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                line
            }
            fn overloaded_reply(&self) -> String {
                "overloaded".into()
            }
            fn parse_error_reply(&self, _detail: &str) -> String {
                "parse-error".into()
            }
        }

        const LINES: i64 = 5;
        let (entered, entered_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(Gauge::new());
        let pool = WorkerPool::start(
            Arc::new(Gated {
                entered,
                release: Mutex::new(release_rx),
            }),
            1,
            64,
            CompletionSender::new(tx, Arc::new(Waker::new().unwrap())),
            Arc::clone(&depth),
        );
        for seq in 0..LINES {
            pool.submit(RouteClass::Data(0), 1, seq as u64, "line".into());
        }
        // The worker is inside `process` with the first line: that one
        // has left the queue, the rest are still in it.
        entered_rx.recv().unwrap();
        assert_eq!(depth.get(), LINES - 1);
        for _ in 0..LINES {
            release.send(()).unwrap();
        }
        pool.finish();
        assert_eq!(depth.get(), 0);
        assert_eq!(rx.try_iter().count() as i64, LINES);
    }
}
