//! The daemon chassis: listener, bounded accept queue, worker pool, and the
//! shutdown/flush lifecycle.
//!
//! ```text
//! accept thread ──► bounded queue ──► N workers ──► ServeState::handle
//!      │  (full: shed 503+Retry-After,  │  (read with absolute deadline,
//!      │   one nonblocking write)       │   catch_unwind per request)
//!      │                                ├─► next request on the same socket
//!      │                                │   while the reuse rule holds;
//!      │                                │   idle: yield to the queue
//!      └── stop flag ◄───────────────────┴── Server::shutdown()
//! ```
//!
//! The lifecycle contract:
//!
//! * **Connection reuse** (HTTP/1.1 keep-alive). A worker answers request
//!   after request on one socket. After each response it keeps the
//!   connection only if the response is `2xx`, the peer allows reuse (see
//!   [`crate::http`]), shutdown has not begun, and no connection is
//!   *waiting*: the accept queue holds no more connections than there are
//!   idle workers blocked on it, which take them at once. Otherwise the
//!   response says `Connection: close` and the socket closes.
//!   Closing on every non-`2xx` keeps hostile peers from holding workers.
//! * **Idle yield.** Between requests the worker waits in [`POLL`] slices and
//!   closes the connection without a response as soon as shutdown begins, a
//!   connection is waiting (as above), or `read_timeout` passes idle. A busy
//!   connection therefore gives up its worker as soon as another connection
//!   waits — no per-connection request cap — but not for a connection an
//!   idle worker is about to take. The queue holds only fresh
//!   connections, so shedding is unchanged. Once the first byte of the next
//!   request arrives, the usual absolute read deadline applies (`408`).
//! * **Boot** loads the configured snapshot if present — quarantining a
//!   damaged file (renamed to `<path>.corrupt`, campaign starts fresh) and
//!   refusing to start only when the file is something else entirely
//!   (wrong magic/version: overwriting it on the next flush would destroy
//!   data the user pointed at by mistake).
//! * **Steady state** memory is bounded by construction: ≤ `queue_capacity`
//!   queued connections, ≤ `workers` open connections with one request in
//!   flight each, each request capped in header/body size and
//!   read/compute/write time.
//! * **Shutdown** ([`Server::shutdown`] + [`Server::join`], the SIGTERM path)
//!   stops accepting, lets workers drain the queue and their in-flight
//!   requests (each bounded by the timeouts above, so the drain is too) and
//!   close kept-alive connections within one [`POLL`], then
//!   flushes the engine memo atomically. A SIGKILL instead loses at most the
//!   memo delta since the last flush — the snapshot file itself can't tear.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{read_more, read_request, HttpError, ReadLimits, Request, Response};
use crate::state::{ServeConfig, ServeState};
use lcl_core::{load_or_quarantine, ClassificationEngine, LoadOutcome, SnapshotError};

/// Why the daemon refused to start.
#[derive(Debug)]
pub enum StartError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The configured snapshot path holds a file that is not a damaged
    /// snapshot but something else entirely (wrong magic, unsupported
    /// version, malformed fields): flushing over it would destroy data.
    Snapshot(SnapshotError),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "cannot start the server: {e}"),
            StartError::Snapshot(e) => write!(
                f,
                "refusing to start: the snapshot file is not usable and not \
                 quarantinable ({e}); move it aside or point --snapshot elsewhere"
            ),
        }
    }
}

impl std::error::Error for StartError {}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        StartError::Io(e)
    }
}

/// What boot found at the snapshot path.
#[derive(Debug, Default)]
pub struct BootReport {
    /// Memo entries imported from the snapshot (0 = cold boot).
    pub warm_memo_entries: usize,
    /// Set when a damaged snapshot was renamed aside: (new path, error).
    pub quarantined: Option<(PathBuf, String)>,
}

/// What shutdown left behind.
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Memo entries flushed to the snapshot path (None = no path configured).
    pub flushed_entries: Option<usize>,
    /// The flush failure, if the final write failed (the daemon still shut
    /// down cleanly; the previous snapshot file, if any, is intact).
    pub flush_error: Option<String>,
}

/// Shared connection queue: bounded, condvar-signaled.
struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

/// The queued connections and how many workers are blocked in
/// [`Queue::pop`] for one.
#[derive(Default)]
struct QueueInner {
    conns: VecDeque<TcpStream>,
    idle_workers: usize,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().expect("connection queue poisoned")
    }

    /// Enqueues if there is room; the connection is handed back on overflow.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.lock();
        if q.conns.len() >= self.capacity {
            return Err(conn);
        }
        q.conns.push_back(conn);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Whether a queued connection waits for a worker that is not already
    /// free to take it: more connections are queued than workers are
    /// blocked in [`Self::pop`].
    fn has_waiting(&self) -> bool {
        let q = self.lock();
        q.conns.len() > q.idle_workers
    }

    /// Pops a connection, waiting up to `wait`; `None` on timeout. While it
    /// waits, the worker counts as idle.
    fn pop(&self, wait: Duration) -> Option<TcpStream> {
        let mut q = self.lock();
        if let Some(conn) = q.conns.pop_front() {
            return Some(conn);
        }
        q.idle_workers += 1;
        let (mut q, _) = self
            .ready
            .wait_timeout(q, wait)
            .expect("connection queue poisoned");
        q.idle_workers -= 1;
        q.conns.pop_front()
    }
}

/// A running daemon. Dropping the handle without [`Server::join`] detaches
/// the threads (they keep serving until the process exits); the orderly path
/// is `shutdown()` then `join()`.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// What boot found at the snapshot path.
    pub boot: BootReport,
}

impl Server {
    /// Boots the engine (warm, cold, or quarantine — see the module docs),
    /// binds, and starts the accept loop plus worker pool.
    pub fn start(config: ServeConfig) -> Result<Server, StartError> {
        let engine = ClassificationEngine::new();
        let mut boot = BootReport::default();
        if let Some(path) = config.snapshot_path.as_deref() {
            match load_or_quarantine(path) {
                Ok(LoadOutcome::Loaded(snap)) => {
                    boot.warm_memo_entries = snap.memo.len();
                    engine.import_memo(snap.memo);
                }
                Ok(LoadOutcome::Quarantined { to, error }) => {
                    boot.quarantined = Some((to, error.to_string()));
                }
                // No file yet: the first flush will create it.
                Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(SnapshotError::Io(e)) => return Err(StartError::Io(e)),
                Err(e) => return Err(StartError::Snapshot(e)),
            }
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let queue = Arc::new(Queue::new(config.queue_capacity.max(1)));
        let state = Arc::new(ServeState::new(config, engine));
        let stop = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::with_capacity(workers + 1);
        {
            let (queue, state, stop) = (queue.clone(), state.clone(), stop.clone());
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(listener, &queue, &state, &stop))
                    .map_err(StartError::Io)?,
            );
        }
        for i in 0..workers {
            let (queue, state, stop) = (queue.clone(), state.clone(), stop.clone());
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &state, &stop))
                    .map_err(StartError::Io)?,
            );
        }
        Ok(Server {
            addr,
            state,
            stop,
            threads,
            boot,
        })
    }

    /// The bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's resident state (metrics, engine) — shared, read-anytime.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Initiates graceful shutdown: stop accepting, drain queue and
    /// in-flight requests. Idempotent; returns immediately ([`Self::join`]
    /// waits).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(2); a throwaway local connection
        // wakes it so it can observe the stop flag. Failure is fine — the
        // listener may already be gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    /// Waits for the accept loop and every worker to finish, then flushes
    /// the engine memo to the snapshot path. Implies [`Self::shutdown`].
    pub fn join(mut self) -> ShutdownReport {
        self.shutdown();
        for t in self.threads.drain(..) {
            // A worker that panicked outside catch_unwind (a bug) must not
            // turn shutdown into a second panic; the flush still matters.
            let _ = t.join();
        }
        let mut report = ShutdownReport::default();
        if let Some(path) = self.state.config.snapshot_path.as_deref() {
            match self.state.engine.save_memo(path) {
                Ok(n) => report.flushed_entries = Some(n),
                Err(e) => report.flush_error = Some(e.to_string()),
            }
        }
        report
    }
}

/// How long an idle worker pop, one slice of a kept-alive connection's idle
/// wait, or an accept loop backing off a transient error waits before
/// re-checking the stop flag (and, when idle, the queue): the upper bound on
/// shutdown-notice and yield latency. The hot paths never sleep this —
/// accept blocks in the kernel and is woken by [`Server::shutdown`]'s
/// connection, and a waiting request's first byte ends an idle slice.
const POLL: Duration = Duration::from_millis(25);

fn accept_loop(listener: TcpListener, queue: &Queue, state: &ServeState, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                // Re-check after the blocking accept: this connection may be
                // the wake-up [`Server::shutdown`] sends, and anything
                // arriving at shutdown is not enqueued (a queued connection
                // would stall the drain for its full read timeout).
                if stop.load(Ordering::SeqCst) {
                    drop(conn);
                    return;
                }
                if let Err(conn) = queue.push(conn) {
                    state.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    shed(conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Transient accept errors (peer reset mid-handshake, fd pressure):
            // keep serving, don't tight-loop.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Sheds one connection: a single best-effort nonblocking write of the `503`
/// so the accept thread can never be stalled by a peer that won't read, then
/// the connection drops. Request bytes that already arrived are drained first
/// and the write side is shut down cleanly — closing a socket with unread
/// data sends RST, which can discard the in-flight 503 from the peer's
/// receive buffer. Memory cost: one scratch buffer, transiently.
fn shed(conn: TcpStream) {
    let response = Response::error(
        503,
        "overloaded",
        "request queue is full; retry after a moment",
    )
    .with_retry_after(1);
    if conn.set_nonblocking(true).is_ok() {
        let mut conn = conn;
        let mut sink = [0u8; 4096];
        while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        let _ = conn.write(&response.to_bytes());
        let _ = conn.shutdown(std::net::Shutdown::Write);
    }
}

fn worker_loop(queue: &Queue, state: &ServeState, stop: &AtomicBool) {
    loop {
        let Some(conn) = queue.pop(POLL) else {
            // Drain contract: workers exit only once the queue is empty AND
            // shutdown was requested — queued requests are always served.
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        serve_connection(conn, queue, state, stop);
    }
}

/// Answers request after request on one connection until the reuse rule
/// (module docs) closes it.
fn serve_connection(mut conn: TcpStream, queue: &Queue, state: &ServeState, stop: &AtomicBool) {
    state.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let _ = conn.set_nodelay(true);
    let config = &state.config;
    // Bytes read past the current request: the start of the next one.
    let mut pending = Vec::new();
    loop {
        state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let limits = ReadLimits {
            max_header_bytes: config.max_header_bytes,
            max_body_bytes: config.max_body_bytes,
            deadline: Instant::now() + config.read_timeout,
        };
        let (response, peer_reuses) = match read_request(&mut conn, &mut pending, &limits) {
            Ok((req, peer_reuses)) => (handle(state, &req), peer_reuses),
            // Nobody is on the other end to answer.
            Err(HttpError::Disconnected) => {
                state.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(e) => (
                Response::error(e.status(), error_kind(&e), e.detail()),
                false,
            ),
        };
        state.metrics.record_response(response.status);
        let keep = (200..300).contains(&response.status)
            && peer_reuses
            && !stop.load(Ordering::SeqCst)
            && !queue.has_waiting();
        let written = response
            .write(&mut conn, config.write_timeout, keep)
            .is_ok();
        if !(written
            && keep
            && await_next_request(&mut conn, &mut pending, queue, config.read_timeout, stop))
        {
            return;
        }
    }
}

/// Runs the handler under `catch_unwind`: a panic answers `500`.
fn handle(state: &ServeState, req: &Request) -> Response {
    let deadline = Instant::now() + state.config.deadline;
    match catch_unwind(AssertUnwindSafe(|| state.handle(req, deadline))) {
        Ok(response) => response,
        Err(_panic) => {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
            Response::error(
                500,
                "internal",
                "the request handler panicked; the daemon is still serving",
            )
        }
    }
}

/// The idle wait of a kept-alive connection: waits in [`POLL`] slices for the
/// first byte of its next request. `false` means close without a response —
/// the peer closed, shutdown began, a queued connection waits with no idle
/// worker to take it, or `idle_timeout` passed with nothing read.
fn await_next_request(
    conn: &mut TcpStream,
    pending: &mut Vec<u8>,
    queue: &Queue,
    idle_timeout: Duration,
    stop: &AtomicBool,
) -> bool {
    // A pipelined request already arrived with the previous one.
    if !pending.is_empty() {
        return true;
    }
    let idle_until = Instant::now() + idle_timeout;
    loop {
        let now = Instant::now();
        if stop.load(Ordering::SeqCst) || queue.has_waiting() || now >= idle_until {
            return false;
        }
        match read_more(conn, pending, (now + POLL).min(idle_until)) {
            Ok(()) => return true,
            Err(HttpError::Timeout) => {}
            Err(_) => return false,
        }
    }
}

fn error_kind(e: &HttpError) -> &'static str {
    match e {
        HttpError::Timeout => "timeout",
        HttpError::HeadersTooLarge | HttpError::BodyTooLarge => "too_large",
        HttpError::LengthRequired | HttpError::Bad(_) => "bad_request",
        HttpError::Disconnected | HttpError::Io(_) => "bad_request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_an_idle_worker_takes_is_never_waiting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = Arc::new(Queue::new(4));
        let worker = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.pop(Duration::from_secs(30)))
        };
        while queue.lock().idle_workers == 0 {
            std::thread::yield_now();
        }
        let _client = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        queue.push(conn).unwrap();
        // From the push until the worker has taken the connection, the queue
        // never reports it as waiting.
        while !worker.is_finished() {
            assert!(!queue.has_waiting());
        }
        assert!(worker.join().unwrap().is_some());
        assert!(!queue.has_waiting());
        // With no idle worker, a queued connection waits.
        let _client = TcpStream::connect(addr).unwrap();
        queue.push(listener.accept().unwrap().0).unwrap();
        assert!(queue.has_waiting());
    }

    #[test]
    fn requests_and_connections_are_counted_separately() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Three pipelined requests on one socket; the last asks to close.
        conn.write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 3);
        assert_eq!(out.matches("Connection: keep-alive").count(), 2);
        let m = &server.state().metrics;
        assert_eq!(m.requests.load(Ordering::Relaxed), 3);
        assert_eq!(m.connections.load(Ordering::Relaxed), 1);
        assert_eq!(m.ok.load(Ordering::Relaxed), 3);
        server.join();
    }
}
