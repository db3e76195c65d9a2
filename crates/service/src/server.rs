//! The resident session server.
//!
//! One accept loop, one handler thread per connection (capped), one
//! shared [`SessionTable`] behind a mutex. The table lock is held only
//! for bookkeeping: a session being served is *checked out* of the
//! table, so concurrent sessions optimize in parallel and a concurrent
//! touch of the same session gets a typed `Busy` rather than blocking.
//!
//! Degradation contract (exercised by the fault-injection suite):
//!
//! * framing error (bad magic/version, oversized announcement) →
//!   best-effort `BadFrame`/`Oversized` response, connection dropped;
//! * unknown request kind / malformed body → typed error response,
//!   connection continues;
//! * client disconnect mid-frame → connection reaped, sessions intact;
//! * read timeout mid-frame (slow-loris) → connection dropped;
//! * deadline expiry → `DeadlineExceeded` at a cooperative checkpoint,
//!   completed steps retained;
//! * connection cap exceeded → `Busy` response, connection dropped;
//! * handler panic → session tombstoned (`Evicted`), worker reaped,
//!   its connection slot released, server stays serviceable.
//!
//! Nothing in this module panics on malformed input, and no failure
//! class wedges a worker or a session.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use msrnet_batch::{run_batch, BatchJob};
use msrnet_core::{PruningStrategy, TerminalOptions};
use msrnet_incremental::json::{parse_json, Json};
use msrnet_incremental::parse_trace;
use msrnet_netgen::format::parse_net_file;
use msrnet_rctree::TerminalId;

use crate::frame::{Frame, FrameDecoder, FrameError, DEFAULT_MAX_PAYLOAD};
use crate::net::{Endpoint, Listener, Stream};
use crate::proto::{ErrorCode, Request, Response, NO_DEADLINE};
use crate::replay::Replayer;
use crate::session::SessionTable;

/// Server tuning knobs. The defaults suit tests and small deployments.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-frame payload cap; larger announcements are `Oversized`.
    pub max_payload: u32,
    /// Hard cap on live sessions (`SessionLimit` beyond it).
    pub max_sessions: usize,
    /// LRU cap on resident sessions (eviction beyond it).
    pub max_resident: usize,
    /// Cap on concurrent connections (`Busy` beyond it).
    pub max_connections: usize,
    /// Cap on the thread count a `batch` request may ask for.
    pub batch_threads_cap: usize,
    /// Socket read timeout; a timeout that strikes mid-frame drops the
    /// connection (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Serve exactly one connection, then return (golden-file tests).
    pub once: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_sessions: 4096,
            max_resident: 1024,
            max_connections: 64,
            batch_threads_cap: 8,
            read_timeout_ms: 2000,
            once: false,
        }
    }
}

/// Counters the `stats` request reports. All logical (no wall clock),
/// so a sequential request trace yields byte-stable stats.
struct Shared {
    config: ServerConfig,
    table: Mutex<SessionTable>,
    requests_ok: AtomicU64,
    requests_error: AtomicU64,
    connections: AtomicUsize,
    /// Set by [`Server::run`] on shutdown so idle workers (blocked in a
    /// timed read on a still-open connection) exit instead of wedging
    /// the final join. Worker exit latency is bounded by
    /// [`ServerConfig::read_timeout_ms`].
    shutdown: AtomicBool,
}

fn lock_table(m: &Mutex<SessionTable>) -> MutexGuard<'_, SessionTable> {
    // A poisoning panic has already tombstoned its session via the
    // checkout guard; the table itself is still consistent.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the endpoint.
    ///
    /// # Errors
    ///
    /// The underlying bind failure.
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(endpoint)?;
        let table = SessionTable::new(config.max_sessions, config.max_resident);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                table: Mutex::new(table),
                requests_ok: AtomicU64::new(0),
                requests_error: AtomicU64::new(0),
                connections: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The actually-bound endpoint (reports the OS-assigned port for
    /// `tcp:HOST:0` binds).
    ///
    /// # Errors
    ///
    /// The underlying `local_addr` failure.
    pub fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        self.listener.local_endpoint()
    }

    /// Runs the accept loop until `stop` is set (or, with
    /// [`ServerConfig::once`], until one connection has been served).
    /// Joins every handler thread before returning.
    ///
    /// # Errors
    ///
    /// Listener setup failures; per-connection I/O errors are absorbed
    /// (the connection is dropped, the server keeps serving).
    pub fn run(self, stop: &AtomicBool) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    if self.shared.config.once {
                        handle_connection(stream, &shared);
                        break;
                    }
                    let slot = ConnectionSlot::claim(Arc::clone(&shared));
                    if slot.over_limit() {
                        drop(slot);
                        refuse_busy(stream, &shared);
                        continue;
                    }
                    workers.push(std::thread::spawn(move || {
                        // Released on drop, so a panicking handler
                        // frees its slot too.
                        let _slot = slot;
                        handle_connection(stream, &shared);
                    }));
                    // Reap finished workers so long runs don't
                    // accumulate handles.
                    workers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    // Transient accept failure; keep serving.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        // Open-but-idle connections must not wedge the join below: flag
        // the shutdown so every worker exits at its next read timeout.
        self.shared.shutdown.store(true, Ordering::Release);
        for h in workers {
            // A handler panic already tombstoned its session; nothing
            // to propagate.
            let _ = h.join();
        }
        Ok(())
    }
}

/// One counted connection: claiming increments the live-connection
/// count, dropping decrements it.
struct ConnectionSlot {
    shared: Arc<Shared>,
    /// Live connections before this one was claimed.
    before: usize,
}

impl ConnectionSlot {
    fn claim(shared: Arc<Shared>) -> Self {
        let before = shared.connections.fetch_add(1, Ordering::AcqRel);
        ConnectionSlot { shared, before }
    }

    /// Whether this connection exceeds `max_connections`.
    fn over_limit(&self) -> bool {
        self.before >= self.shared.config.max_connections
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Best-effort `Busy` response to a connection over the cap.
fn refuse_busy(mut stream: Stream, shared: &Shared) {
    let resp = Response::Err {
        code: ErrorCode::Busy,
        message: "connection limit reached".into(),
    };
    shared.requests_error.fetch_add(1, Ordering::AcqRel);
    if let Ok(bytes) = resp.encode().encode(u32::MAX) {
        let _ = stream.write_all(&bytes);
    }
}

/// Serves one connection until EOF, a framing error, or a mid-frame
/// stall. Never panics on input; never leaves a session checked out.
fn handle_connection(mut stream: Stream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.config.read_timeout_ms.max(1),
    )));
    let mut dec = FrameDecoder::new(shared.config.max_payload);
    let mut buf = [0u8; 16 * 1024];
    loop {
        // Drain complete frames before reading more bytes.
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let resp = serve_frame(&frame, shared);
                    match resp.encode().encode(u32::MAX) {
                        Ok(bytes) => {
                            if stream.write_all(&bytes).is_err() || stream.flush().is_err() {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing failure: the stream position is lost.
                    // Answer with the matching code, then drop.
                    let code = match e {
                        FrameError::Oversized { .. } => ErrorCode::Oversized,
                        _ => ErrorCode::BadFrame,
                    };
                    shared.requests_error.fetch_add(1, Ordering::AcqRel);
                    let resp = Response::Err {
                        code,
                        message: e.to_string(),
                    };
                    if let Ok(bytes) = resp.encode().encode(u32::MAX) {
                        let _ = stream.write_all(&bytes);
                    }
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF; a mid-frame EOF is just a drop.
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if dec.mid_frame() {
                    // Slow-loris: a header arrived but the rest is
                    // being dripped. Cut the connection.
                    return;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    // The accept loop is joining workers; an idle
                    // connection must not hold shutdown hostage.
                    return;
                }
                // Idle between requests is fine; keep waiting.
            }
            Err(_) => return,
        }
    }
}

/// Cooperative deadline: checked between units of work, never
/// preemptively.
struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    fn new(deadline_ms: u32) -> Deadline {
        // msrnet-allow: wall-clock deadlines bound request latency; they gate only error responses, never optimization results
        let started = Instant::now();
        let budget = (deadline_ms != NO_DEADLINE)
            .then(|| Duration::from_millis(u64::from(deadline_ms)));
        Deadline { started, budget }
    }

    fn check(&self) -> Result<(), (ErrorCode, String)> {
        match self.budget {
            Some(budget) if self.started.elapsed() >= budget => Err((
                ErrorCode::DeadlineExceeded,
                format!("deadline of {} ms expired", budget.as_millis()),
            )),
            _ => Ok(()),
        }
    }
}

/// Checkout guard: puts the session back on every exit path; if the
/// thread is panicking the session state is suspect, so the slot is
/// tombstoned instead (typed `Evicted` on re-touch, never a wedge).
struct Checkout<'a> {
    table: &'a Mutex<SessionTable>,
    id: u64,
    sess: Option<Box<Replayer>>,
}

impl<'a> Checkout<'a> {
    fn take(table: &'a Mutex<SessionTable>, id: u64) -> Result<Checkout<'a>, ErrorCode> {
        let sess = lock_table(table).checkout(id)?;
        Ok(Checkout {
            table,
            id,
            sess: Some(sess),
        })
    }

    /// Consumes the checkout and removes the session from the table.
    fn close(mut self) {
        self.sess = None;
        // msrnet-allow: lock-discipline receiver is the table guard: .close() dispatches to SessionTable::close, not Checkout::close
        lock_table(self.table).close(self.id);
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if let Some(sess) = self.sess.take() {
            let mut t = lock_table(self.table);
            if std::thread::panicking() {
                t.mark_evicted(self.id);
            } else {
                t.put_back(self.id, sess);
            }
        }
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Err {
        code,
        message: message.into(),
    }
}

/// Decodes and executes one request frame, tallying the outcome.
fn serve_frame(frame: &Frame, shared: &Shared) -> Response {
    let resp = match Request::decode(frame) {
        Ok(req) => handle_request(req, shared),
        Err(e) => err(e.code(), e.to_string()),
    };
    match resp {
        Response::Ok(_) => shared.requests_ok.fetch_add(1, Ordering::AcqRel),
        Response::Err { .. } => shared.requests_error.fetch_add(1, Ordering::AcqRel),
    };
    resp
}

fn handle_request(req: Request, shared: &Shared) -> Response {
    let deadline = Deadline::new(req.deadline_ms());
    if let Err((code, msg)) = deadline.check() {
        return err(code, msg);
    }
    match req {
        Request::Open {
            root,
            driver_cost,
            name,
            pruning,
            msr,
            ..
        } => handle_open(shared, &deadline, root, driver_cost, name, &pruning, &msr),
        Request::Edit { session, trace, .. } => {
            handle_edit(shared, &deadline, session, &trace)
        }
        Request::Recompute { session, .. } => match Checkout::take(&shared.table, session) {
            Ok(mut co) => match co.sess.as_mut() {
                Some(rep) => Response::Ok(rep.report().into_bytes()),
                None => err(ErrorCode::Internal, "empty checkout"),
            },
            Err(code) => err(code, format!("session {session}: {code}")),
        },
        Request::Curve { session, .. } => match Checkout::take(&shared.table, session) {
            Ok(mut co) => match co.sess.as_mut() {
                Some(rep) => match rep.curve_json() {
                    Ok(json) => Response::Ok(json.into_bytes()),
                    Err(e) => err(ErrorCode::Infeasible, e),
                },
                None => err(ErrorCode::Internal, "empty checkout"),
            },
            Err(code) => err(code, format!("session {session}: {code}")),
        },
        Request::Batch { spec, .. } => handle_batch(shared, &deadline, &spec),
        Request::Close { session, .. } => match Checkout::take(&shared.table, session) {
            Ok(co) => {
                co.close();
                Response::Ok(Vec::new())
            }
            Err(code) => err(code, format!("session {session}: {code}")),
        },
        Request::Stats { .. } => Response::Ok(stats_json(shared).into_bytes()),
    }
}

fn handle_open(
    shared: &Shared,
    deadline: &Deadline,
    root: u32,
    driver_cost: f64,
    name: String,
    pruning: &str,
    msr: &str,
) -> Response {
    if !driver_cost.is_finite() {
        return err(ErrorCode::ParseError, "driver cost must be finite");
    }
    let pruning = if pruning.is_empty() {
        PruningStrategy::default()
    } else {
        match PruningStrategy::parse(pruning) {
            Ok(s) => s,
            Err(e) => return err(ErrorCode::ParseError, format!("pruning: {e}")),
        }
    };
    let nf = match parse_net_file(msr) {
        Ok(nf) => nf,
        Err(e) => return err(ErrorCode::ParseError, e.to_string()),
    };
    if root as usize >= nf.net.terminals.len() {
        return err(
            ErrorCode::ParseError,
            format!("root {root} out of range for {} terminals", nf.net.terminals.len()),
        );
    }
    if let Err((code, msg)) = deadline.check() {
        return err(code, msg);
    }
    let rep = match Replayer::open(
        name,
        nf.net,
        TerminalId(root as usize),
        nf.library,
        driver_cost,
        pruning,
        false,
    ) {
        Ok(rep) => rep,
        Err(e) => return err(ErrorCode::ParseError, e),
    };
    if let Err((code, msg)) = deadline.check() {
        return err(code, msg);
    }
    // msrnet-allow: lock-discipline receiver is the table guard: .open() dispatches to SessionTable::open; the solve ran above, outside the lock
    match lock_table(&shared.table).open(Box::new(rep)) {
        Ok(id) => Response::Ok(id.to_be_bytes().to_vec()),
        Err(code) => err(code, format!("{code}: session table at capacity")),
    }
}

fn handle_edit(shared: &Shared, deadline: &Deadline, session: u64, trace: &str) -> Response {
    let edits = match parse_trace(trace) {
        Ok(edits) => edits,
        Err(e) => return err(ErrorCode::ParseError, e.to_string()),
    };
    let mut co = match Checkout::take(&shared.table, session) {
        Ok(co) => co,
        Err(code) => return err(code, format!("session {session}: {code}")),
    };
    let Some(rep) = co.sess.as_mut() else {
        return err(ErrorCode::Internal, "empty checkout");
    };
    let before = rep.row_count();
    for edit in &edits {
        if let Err((code, msg)) = deadline.check() {
            // Completed steps stay applied; the client sees how far
            // the replay got from the row count in later requests.
            return err(code, msg);
        }
        rep.step(edit, false);
    }
    Response::Ok(rep.rows_since(before).into_bytes())
}

fn handle_batch(shared: &Shared, deadline: &Deadline, spec: &str) -> Response {
    let parsed = match parse_json(spec) {
        Ok(v) => v,
        Err(e) => return err(ErrorCode::ParseError, e.to_string()),
    };
    let Json::Obj(fields) = &parsed else {
        return err(ErrorCode::ParseError, "batch spec must be a JSON object");
    };
    let threads = match Json::get(fields, "threads") {
        // msrnet-allow: float-eq fract()==0.0 is the exact integrality test for a JSON count
        Some(Json::Num(x)) if *x >= 1.0 && x.fract() == 0.0 && *x <= 1024.0 => *x as usize,
        None => 1,
        _ => return err(ErrorCode::ParseError, "\"threads\" must be a positive integer"),
    };
    let threads = threads.min(shared.config.batch_threads_cap.max(1));
    let driver_cost = match Json::get(fields, "driver_cost") {
        Some(Json::Num(x)) if x.is_finite() => *x,
        None => 0.0,
        _ => return err(ErrorCode::ParseError, "\"driver_cost\" must be a finite number"),
    };
    let pruning = match Json::get(fields, "pruning") {
        Some(Json::Str(raw)) => match PruningStrategy::parse(raw) {
            Ok(s) => s,
            Err(e) => return err(ErrorCode::ParseError, format!("\"pruning\": {e}")),
        },
        None => PruningStrategy::default(),
        _ => return err(ErrorCode::ParseError, "\"pruning\" must be a strategy string"),
    };
    let Some(Json::Arr(nets)) = Json::get(fields, "nets") else {
        return err(ErrorCode::ParseError, "batch spec is missing the \"nets\" array");
    };
    if nets.is_empty() {
        return err(ErrorCode::ParseError, "batch spec has no nets");
    }
    let mut jobs: Vec<BatchJob> = Vec::with_capacity(nets.len());
    for (i, entry) in nets.iter().enumerate() {
        let Json::Obj(net_fields) = entry else {
            return err(ErrorCode::ParseError, format!("net #{i} must be an object"));
        };
        let Some(Json::Str(net_name)) = Json::get(net_fields, "name") else {
            return err(ErrorCode::ParseError, format!("net #{i} is missing \"name\""));
        };
        let Some(Json::Str(msr)) = Json::get(net_fields, "msr") else {
            return err(ErrorCode::ParseError, format!("net #{i} is missing \"msr\""));
        };
        let nf = match parse_net_file(msr) {
            Ok(nf) => nf,
            Err(e) => {
                return err(ErrorCode::ParseError, format!("net \"{net_name}\": {e}"))
            }
        };
        let mut job = BatchJob::new(net_name, nf.net, nf.library);
        job.drivers = TerminalOptions::defaults_with_cost(&job.net, driver_cost);
        job.options.allow_inverting = job.library.iter().any(|r| r.inverting);
        job.options.pruning = pruning;
        jobs.push(job);
    }
    if let Err((code, msg)) = deadline.check() {
        return err(code, msg);
    }
    // `run_batch` is one pool run; the deadline is checked before the
    // pool spins up (its per-net work is bounded by the frame cap).
    let report = run_batch(&jobs, threads);
    Response::Ok(report.to_json_opts(false).into_bytes())
}

/// The `stats` response: logical counters only, so a sequential request
/// trace yields byte-stable output.
fn stats_json(shared: &Shared) -> String {
    let t = lock_table(&shared.table);
    format!(
        "{{\n  \"benchmark\": \"msrnet_serve_stats\",\n  \
         \"sessions_open\": {},\n  \"sessions_resident\": {},\n  \
         \"sessions_opened\": {},\n  \"sessions_closed\": {},\n  \
         \"sessions_evicted\": {},\n  \"cached_subtrees\": {},\n  \
         \"requests_ok\": {},\n  \"requests_error\": {}\n}}\n",
        t.open_count(),
        t.resident_count(),
        t.opened(),
        t.closed(),
        t.evictions(),
        t.cached_subtrees(),
        shared.requests_ok.load(Ordering::Acquire),
        shared.requests_error.load(Ordering::Acquire),
    )
}
