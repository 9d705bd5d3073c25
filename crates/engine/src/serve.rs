//! A long-running [`Study`] service over one warm [`Engine`]: newline-
//! delimited JSON over TCP, so many clients share the engine's one
//! in-memory memo of job results (bounded, and backed by the cache
//! directory's store) instead of each paying a cold start.
//!
//! # Protocol
//!
//! One request per line, connections may carry any number of requests. A
//! request is a **study body** — a serialized [`ShardedStudy`], read back
//! by [`ShardedStudy::from_value`]:
//!
//! ```text
//! {"sources": ["spec ex { ... }"], "latencies": [3, 4],
//!  "adder_archs": ["rca", "cla"], "balance": [true, false],
//!  "verify_vectors": [50], "base": {...}}
//! ```
//!
//! Only `sources` is required; absent axes collapse exactly as they do in
//! [`Study`]. Unknown top-level fields are rejected — a typo'd axis name
//! must fail loudly, not silently run the default grid. The special
//! request `{"shutdown": true}` asks the server to stop accepting, finish
//! in-flight requests and exit.
//!
//! A study body carrying `shard_index`/`shard_count`
//! ([`crate::shard::SHARD_COORD_FIELDS`]) is a **shard request**: the
//! server executes only that range of the study's distinct jobs in
//! shard order ([`crate::shard::shard_slice`]) and answers
//! `{"ok":true,"shard_index":…,"shard_count":…,"service":{…},"stats":{…}}`
//! — the batch's [`EngineStats`](crate::EngineStats) instead of a
//! report. Sharded runs dispatch every shard this way, to a fleet of
//! `serve` endpoints ([`crate::shard::Transport`]). The results travel through the server's
//! `--cache-dir` (which must be the store the dispatching coordinator
//! reads), so shard requests are rejected on a server started without
//! one.
//!
//! A successful response is `{"ok":true,"service":{...},"report":{...}}`
//! with the **report field last**: its value is byte-for-byte the
//! [`StudyReport`](crate::StudyReport) JSON that a single-process
//! [`Study::run`] serializes, so clients can slice it out of the line
//! without re-serializing. The `service` field carries process-lifetime
//! [`ServiceStats`]. A rejected request gets `{"ok":false,"error":"..."}`
//! and — except after an oversized body, whose line framing is
//! unrecoverable — the connection stays usable.
//!
//! ## Streaming
//!
//! A study body carrying `"stream": true` asks for **progressive
//! results**: as each grid cell's job resolves, the server writes one
//! frame line
//!
//! ```text
//! {"cell": {…StudyCell…}, "index": G}
//! ```
//!
//! where `index` is the cell's grid position, before the normal final
//! response line. Frames lead with `"cell"` and the final line with
//! `"ok"`, so a reader classifies each line by prefix
//! ([`crate::proto::is_frame`]); the final line's bytes are identical to
//! the batch response for the same request over the same cache state, so
//! streaming costs nothing in comparability. Resident and stored hits
//! stream first (in grid order); computed cells follow in completion
//! order, then the cells joined from another request's in-flight jobs.
//! `stream` is rejected on shard requests (their reply carries no cells).
//!
//! # Execution model
//!
//! Each connection is served on its own handler thread, one request at a
//! time: read a line, classify it, run it, write its frames and reply,
//! then read the next line. A client that sends further requests before
//! reading gets its replies in request order.
//!
//! A study or shard request resolves its grid on the shared [`Engine`]
//! through the routine [`Engine::run`] and [`Study::run`] use too
//! (`Engine::run_grid`, without their `engine.run` batch span, so a
//! request's `exec.task` spans sit directly under `serve.request`); a
//! shard request brings its keys along, so no job is hashed twice.
//! Concurrency is between connections: all of them share the engine's
//! one worker pool and its fair per-request round-robin queue
//! ([`crate::sched`]). Every request's uncached jobs are one scheduling
//! unit, and workers grant every active request one task per pass, so a
//! 2-cell study admitted behind a 10,000-cell one finishes after a
//! handful of grants. Reports assemble from keyed cells, so each response
//! is a function of the request and the cache state it observed, never of
//! scheduling order.
//!
//! Concurrent requests wanting the **same** job never compute it twice:
//! the first request to claim the key in the engine's memo computes it,
//! and later requests wait on that job's slot (counted as a cache hit —
//! they do no pipeline work, exactly like a resident entry). The waiting
//! is done by the connection's thread, so it costs no pool task. A
//! request streams the frames of the cells it joined after its own
//! computed cells. A panicking job fails its request and every request
//! waiting on it with `internal error: request execution panicked`; the
//! pool and the service survive, and a later request recomputes the job.
//!
//! Every accepted socket sets `TCP_NODELAY`, and every response line —
//! frame, reply or rejection — goes out as one write, body and newline
//! together ([`crate::proto`] does the same for requests). With Nagle's
//! algorithm on, a line split over two writes holds its newline back
//! until the peer's delayed ACK of the body: that stall once cost every
//! warm request ~88 ms on loopback against ~0.01 ms of engine time. Each
//! request's `serve.request` trace span carries `read_ns` (the request
//! line's first byte to its newline) and `write_ns` (time spent writing
//! its response lines), so a stall on either side shows in the trace.
//!
//! # Shutdown
//!
//! The `shutdown` request is the graceful path: stop accepting, drain
//! in-flight work, return the final [`ServiceStats`]. Abrupt termination
//! (SIGTERM/SIGKILL — std offers no signal hooks and this workspace
//! vendors no libc) is *safe by design*: every cache write is an atomic
//! temp-file + rename, so a killed server never leaves a half-written
//! entry, and the next server warms straight back up from the directory.

use crate::key::JobKey;
use crate::report::StudyCell;
use crate::shard::{self, ShardedStudy};
use crate::stats::ServiceStats;
use crate::study::Study;
use crate::{trace, Engine, EngineOptions};
use serde_json::Value;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default cap on one request line. A study body is source text plus axis
/// lists — far below this — so anything larger is a runaway or hostile
/// client, and reading it unbounded would let one connection exhaust the
/// server's memory.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// Upper bound on a shard request's `shard_count`. Real fleets are a
/// handful of machines; anything bigger is a typo or abuse, and a hard
/// cap keeps hostile coordinates from costing the service anything —
/// the request is one error response, like every other rejection.
pub const MAX_SHARD_COUNT: usize = 1 << 16;

const BANNER_PREFIX: &str = "listening on ";

/// The line `bittrans serve` prints on stdout once bound, announcing the
/// resolved address (port 0 picks a free one) for [`parse_banner`].
pub fn banner(addr: SocketAddr) -> String {
    format!("{BANNER_PREFIX}{addr}")
}

/// The address a [`banner`] line announces; `None` for any other line.
pub fn parse_banner(line: &str) -> Option<&str> {
    line.trim().strip_prefix(BANNER_PREFIX).filter(|addr| !addr.is_empty())
}

/// How long a handler blocks on an idle connection before re-checking the
/// shutdown flag, so graceful shutdown never waits on a silent client.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Upper bound on one blocked response write. A client that requests a
/// study and then never drains its socket would otherwise pin its handler
/// in `write_all` forever — and [`Server::run`] joins every handler at
/// shutdown, so one such client could hang the whole drain.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to bind, `host:port` (port 0 picks a free one — read the
    /// real address back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads of the shared engine (`None`: all cores).
    pub workers: Option<usize>,
    /// Persistent cache directory backing the engine's warm in-memory memo
    /// (`None`: memory only, the memo dies with the process).
    pub cache_dir: Option<PathBuf>,
    /// Reject request lines longer than this many bytes.
    pub max_request_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            cache_dir: None,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
        }
    }
}

/// The bound service: one listener, one warm [`Engine`]. Created by
/// [`Server::bind`], driven by [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Everything handler threads share.
struct ServerState {
    /// The one warm engine, with its worker pool and memo; see the module
    /// docs.
    engine: Engine,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Request-id allocator for the structured per-request logs; counts
    /// every received line, unlike `requests` (answered studies only).
    next_request: AtomicU64,
    /// Per-class answer counters for `{"stats":true}` introspection:
    /// study reports, shard ranges, stats snapshots.
    class_study: AtomicU64,
    class_shard: AtomicU64,
    class_stats: AtomicU64,
    started: Instant,
    max_request_bytes: usize,
    local_addr: SocketAddr,
}

impl ServerState {
    fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            uptime: self.started.elapsed(),
            engine: self.engine.stats(),
        }
    }
}

impl Server {
    /// Binds the listener and opens the engine (and its cache directory,
    /// when configured). No request is served until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Binding the address or opening the cache directory.
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        let engine = Engine::new(EngineOptions { workers: options.workers, cache: true });
        let engine = match &options.cache_dir {
            Some(dir) => engine.with_cache_dir(dir)?,
            None => engine,
        };
        let listener = TcpListener::bind(options.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            class_study: AtomicU64::new(0),
            class_shard: AtomicU64::new(0),
            class_stats: AtomicU64::new(0),
            started: Instant::now(),
            max_request_bytes: options.max_request_bytes,
            local_addr,
        });
        Ok(Server { listener, state })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Accepts connections until a `shutdown` request arrives, then joins
    /// every handler (in-flight requests finish and are answered) and
    /// returns the final process-lifetime statistics.
    ///
    /// # Errors
    ///
    /// Never on per-connection trouble — a bad client costs one handler
    /// thread, not the service. The `Result` exists for future fatal
    /// accept-loop conditions and keeps the CLI's `?` shape.
    pub fn run(self) -> io::Result<ServiceStats> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A long-lived process must not hoard finished handles.
                    handlers.retain(|h| !h.is_finished());
                    let state = Arc::clone(&self.state);
                    handlers.push(std::thread::spawn(move || handle_connection(stream, state)));
                }
                Err(e) => {
                    // Transient accept failures (EMFILE under load) must
                    // not kill the service; back off briefly so a
                    // persistent condition cannot spin the loop.
                    trace::stderr_log("serve", "accept_error", |a| {
                        a.str("error", &e.to_string());
                    });
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(self.state.service_stats())
    }
}

/// What one request line parsed to.
enum Classified {
    /// A rejection to send; the connection keeps serving.
    Error(String),
    /// Acknowledge, then stop the whole service.
    Shutdown,
    /// Pure introspection: answer the lifetime counters.
    Stats,
    /// A validated study (`coords` set for a shard request), to execute
    /// on the engine's pool.
    Run { study: Study, coords: Option<(usize, usize)>, stream: bool },
}

/// Serves one connection, one request at a time: read a line, classify
/// it, run it, write its frames and reply, then read the next line, so a
/// pipelining client gets its replies in request order. Returns on EOF,
/// I/O trouble, an oversized request, or service shutdown.
fn handle_connection(stream: TcpStream, state: Arc<ServerState>) {
    let peer = stream.peer_addr().map_or_else(|_| "?".to_string(), |a| a.to_string());
    // Idle reads wake periodically so shutdown can drain this thread, and
    // writes are bounded so a client that never reads its response cannot
    // pin the handler.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        let (line, read_ns) = match read_request_line(&mut reader, &state) {
            LineRead::Line { text, read_ns } => (text, read_ns),
            LineRead::Closed => break,
            LineRead::Oversized => {
                state.errors.fetch_add(1, Ordering::SeqCst);
                let message = format!(
                    "request exceeds the {} byte limit; closing connection",
                    state.max_request_bytes
                );
                trace::stderr_log("serve", "rejected", |a| {
                    a.str("peer", &peer).str("error", &message);
                });
                let _ = respond_error(reader.get_mut(), &message, &mut 0);
                // Drain the rest of the oversized line before closing:
                // dropping the socket with unread input queued makes the
                // close an RST, which can destroy the error reply in
                // transit before the client reads it.
                drain_line(&mut reader);
                break;
            }
        };
        if line.is_empty() {
            continue; // blank keep-alive line
        }
        // The reader buffers input only; replies go straight to the socket.
        let writer = reader.get_mut();
        // Every received request line gets a process-unique id; it ties
        // the structured log lines below to the request's trace span.
        let req = state.next_request.fetch_add(1, Ordering::SeqCst) + 1;
        let sent = match classify_request(&line, &state) {
            Classified::Error(message) => in_request_span(req, &peer, read_ns, |write_ns| {
                state.errors.fetch_add(1, Ordering::SeqCst);
                trace::stderr_log("serve", "rejected", |a| {
                    a.num("req", req).str("peer", &peer).str("error", &message);
                });
                respond_error(writer, &message, write_ns)
            }),
            Classified::Stats => in_request_span(req, &peer, read_ns, |write_ns| {
                state.class_stats.fetch_add(1, Ordering::SeqCst);
                trace::stderr_log("serve", "stats", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                write_line(writer, &stats_reply(&state), write_ns)
            }),
            Classified::Shutdown => {
                trace::stderr_log("serve", "shutdown", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                let _ = write_line(writer, "{\"ok\":true,\"shutdown\":true}", &mut 0);
                state.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag. A wildcard
                // bind (0.0.0.0 / ::) is not connectable on every
                // platform, so aim the wake-up at loopback on the bound
                // port instead.
                let mut wake = state.local_addr;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake {
                        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let _ = TcpStream::connect(wake);
                break;
            }
            Classified::Run { study, coords, stream } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    in_request_span(req, &peer, read_ns, |write_ns| {
                        *write_ns = match coords {
                            Some((index, count)) => {
                                run_shard_request(&state, &study, index, count, req, &peer, writer)
                            }
                            None => run_study_request(&state, &study, stream, req, &peer, writer),
                        };
                    });
                }));
                if outcome.is_ok() {
                    Ok(())
                } else {
                    // "Never happens" on validated studies, but a service
                    // must outlive it: answer with an error instead of
                    // silently dropping the request.
                    state.errors.fetch_add(1, Ordering::SeqCst);
                    trace::stderr_log("serve", "request_panicked", |a| {
                        a.num("req", req).str("peer", &peer);
                    });
                    respond_error(writer, "internal error: request execution panicked", &mut 0)
                }
            }
        };
        if sent.is_err() {
            break;
        }
    }
}

/// One bounded line read.
enum LineRead {
    /// A complete, trimmed request line, and the nanoseconds from its
    /// first byte to its newline.
    Line { text: String, read_ns: u64 },
    /// EOF, an unrecoverable read error, or shutdown while idle.
    Closed,
    /// The line outgrew the configured limit before its newline arrived.
    Oversized,
}

/// Reads up to a newline, never buffering more than the configured limit,
/// and re-checking the shutdown flag whenever the idle timeout fires with
/// nothing accumulated. A final unterminated line (client sent a request
/// and shut down its write side) is still served. The read clock starts
/// at the line's first byte: waiting for a request is idle time.
fn read_request_line(reader: &mut BufReader<TcpStream>, state: &ServerState) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut first_byte: Option<Instant> = None;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return LineRead::Closed;
        }
        let started = match first_byte {
            Some(started) => started,
            None => match reader.fill_buf() {
                Ok([]) => return LineRead::Closed, // clean EOF
                Ok(_) => *first_byte.insert(Instant::now()),
                Err(e) if is_retry(&e) => continue,
                Err(_) => return LineRead::Closed,
            },
        };
        // +1 beyond the cap: the newline delimiter is framing, not body,
        // so a body of exactly `max_request_bytes` plus its newline must
        // still fit — only a strictly longer *body* trips the cap.
        let budget = (state.max_request_bytes + 1).saturating_sub(line.len());
        let mut limited = reader.by_ref().take(budget as u64);
        match limited.read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {
                line.pop(); // strip the delimiter before judging the body
                if line.len() > state.max_request_bytes {
                    return LineRead::Oversized;
                }
                return finish_line(line, started);
            }
            Ok(0) | Ok(_) if line.len() > state.max_request_bytes => return LineRead::Oversized,
            Ok(0) => {
                // EOF (or exhausted budget — excluded above) mid-line:
                // serve the trailing request.
                return finish_line(line, started);
            }
            Ok(_) => continue, // partial read before the timeout hit
            Err(e) if is_retry(&e) => continue,
            Err(_) => return LineRead::Closed,
        }
    }
}

/// How much of an oversized line is read-and-discarded before the hard
/// close: a client still streaming one request beyond this is hostile,
/// and at that point an RST is the right answer.
const DRAIN_LIMIT: u64 = 64 * 1024 * 1024;

/// Discards input until the end of the current line (or EOF, the idle
/// timeout, or [`DRAIN_LIMIT`]), so closing after an oversized-request
/// rejection sends a clean FIN and the error reply survives transit.
fn drain_line(reader: &mut BufReader<TcpStream>) {
    let mut chunk = [0u8; 8192];
    let mut discarded: u64 = 0;
    while discarded < DRAIN_LIMIT {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if chunk[..n].contains(&b'\n') {
                    return;
                }
                discarded += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Timeout included: a client that stopped sending has nothing
            // left to drain.
            Err(_) => return,
        }
    }
}

/// Whether a read error only means "nothing yet": the idle timeout fired
/// or a signal interrupted the call.
fn is_retry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

fn finish_line(line: Vec<u8>, first_byte: Instant) -> LineRead {
    let read_ns = elapsed_ns(first_byte);
    let text = match String::from_utf8(line) {
        Ok(text) => text.trim().to_string(),
        // Not UTF-8, so certainly not JSON: hand the parser a line that
        // cannot parse, producing a normal (recoverable) rejection.
        Err(_) => "\u{fffd}".to_string(),
    };
    LineRead::Line { text, read_ns }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Answers request `req` inside its `serve.request` span: `respond`
/// adds the time it spends writing to the `write_ns` it is handed, which
/// the span records beside the request line's `read_ns`.
fn in_request_span<T>(
    req: u64,
    peer: &str,
    read_ns: u64,
    respond: impl FnOnce(&mut u64) -> T,
) -> T {
    let mut span = trace::span_attrs("serve.request", |a| {
        a.num("req", req).str("peer", peer).num("read_ns", read_ns);
    });
    let mut write_ns = 0;
    let answered = respond(&mut write_ns);
    span.record(|a| {
        a.num("write_ns", write_ns);
    });
    answered
}

/// Parses and validates one request line, without running anything.
fn classify_request(line: &str, state: &ServerState) -> Classified {
    let value: Value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    let Value::Object(fields) = &value else {
        return Classified::Error("bad request: body must be a JSON object".to_string());
    };
    match value.get("shutdown") {
        Some(Value::Bool(true)) => return Classified::Shutdown,
        Some(_) => return Classified::Error("bad request: `shutdown` must be `true`".to_string()),
        None => {}
    }
    // `{"stats":true}` is pure introspection: answer the lifetime
    // counters without running anything — and without disturbing them,
    // so interleaved stats probes never change what study clients see.
    match value.get("stats") {
        Some(Value::Bool(true)) => {
            if fields.len() > 1 {
                return Classified::Error(
                    "bad request: `stats` must be the only field".to_string(),
                );
            }
            return Classified::Stats;
        }
        Some(_) => return Classified::Error("bad request: `stats` must be `true`".to_string()),
        None => {}
    }
    // Strict field check: a typo'd axis must not silently collapse to the
    // default grid.
    for (key, _) in fields {
        let known = ShardedStudy::FIELDS.contains(&key.as_str())
            || shard::SHARD_COORD_FIELDS.contains(&key.as_str())
            || key == "stream";
        if !known {
            return Classified::Error(format!(
                "unknown field `{key}` (expected {}, {}, stream, or shutdown)",
                ShardedStudy::FIELDS.join(", "),
                shard::SHARD_COORD_FIELDS.join(", "),
            ));
        }
    }
    let stream = match value.get("stream") {
        None => false,
        Some(Value::Bool(stream)) => *stream,
        Some(_) => return Classified::Error("bad request: `stream` must be a boolean".to_string()),
    };
    let coords = match shard_coords(&value) {
        Ok(coords) => coords,
        Err(why) => return Classified::Error(format!("bad request: {why}")),
    };
    if stream && coords.is_some() {
        return Classified::Error(
            "bad request: `stream` is not supported on shard requests \
             (their reply carries no cells)"
                .to_string(),
        );
    }
    let sharded = match ShardedStudy::from_value(&value) {
        Ok(sharded) => sharded,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    let study = match sharded.study() {
        Ok(study) => study,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    // Pre-validate axis ranges: Study::run panics on them (programmer
    // error in code-built grids), and a client's bad request must never
    // bring a worker thread down.
    if let Err(e) = study.check() {
        return Classified::Error(format!("bad request: {e}"));
    }
    if coords.is_some() && !state.engine.has_cache_dir() {
        // A shard request's results travel through the shared store, so a
        // server without one cannot usefully serve shards — reject loudly
        // instead of letting the coordinator recompute everything.
        return Classified::Error(
            "shard requests need a server started with --cache-dir \
             (the shared result store the coordinator reads)"
                .to_string(),
        );
    }
    Classified::Run { study, coords, stream }
}

/// Reads the optional shard coordinates off a request: both fields or
/// neither, well-typed and in range.
fn shard_coords(value: &Value) -> Result<Option<(usize, usize)>, String> {
    let read = |key: &str| {
        value
            .get(key)
            .map(|v| {
                v.as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
            })
            .transpose()
    };
    match (read("shard_index")?, read("shard_count")?) {
        (None, None) => Ok(None),
        (Some(index), Some(count)) => {
            if count == 0 || index >= count {
                return Err(format!("shard {index} of {count} is out of range"));
            }
            if count > MAX_SHARD_COUNT {
                return Err(format!("shard_count {count} exceeds the {MAX_SHARD_COUNT} limit"));
            }
            Ok(Some((index, count)))
        }
        _ => Err("`shard_index` and `shard_count` must be given together".to_string()),
    }
}

/// The `{"stats":true}` introspection reply: lifetime service counters,
/// the engine pool's gauges, per-class answer counts.
fn stats_reply(state: &ServerState) -> String {
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    let sched = serde_json::to_string(&state.engine.sched_stats()).expect("sched stats serialize");
    format!(
        "{{\"ok\":true,\"stats\":true,\"service\":{service},\"sched\":{sched},\
         \"classes\":{{\"study\":{},\"shard\":{},\"stats\":{}}}}}",
        state.class_study.load(Ordering::SeqCst),
        state.class_shard.load(Ordering::SeqCst),
        state.class_stats.load(Ordering::SeqCst),
    )
}

/// Runs one study request on the engine and writes its response (and,
/// when streaming, a cell frame per grid cell as results resolve).
/// Returns the nanoseconds spent writing them.
///
/// The request resolves its grid through [`Engine::run_grid`], as
/// [`Study::run`] does, so served reports are byte-identical to its
/// references.
fn run_study_request(
    state: &ServerState,
    study: &Study,
    stream: bool,
    req: u64,
    peer: &str,
    writer: &mut TcpStream,
) -> u64 {
    let grid = study.grid();
    // Grid cells per key, in grid order: the streaming path fans each
    // resolved key back out to every cell it covers, first occurrence
    // carrying the hit flag and the rest marked as in-grid duplicates —
    // the same marking the final report's cells get.
    let mut cells_of_key: HashMap<JobKey, Vec<usize>> = HashMap::new();
    if stream {
        for (index, key) in grid.keys.iter().enumerate() {
            cells_of_key.entry(*key).or_default().push(index);
        }
    }
    let mut frames_ok = true;
    let mut write_ns = 0;
    let report = state.engine.run_grid(
        &grid.cells,
        &grid.keys,
        &grid.distinct,
        &grid.distinct_keys,
        |key, result, hit| {
            if !stream || !frames_ok {
                return;
            }
            for (occurrence, &index) in cells_of_key.get(key).into_iter().flatten().enumerate() {
                let cell = StudyCell::of(
                    &grid.cells[index],
                    *key,
                    Arc::clone(result),
                    hit || occurrence > 0,
                );
                let cell = serde_json::to_string(&cell).expect("study cell serializes");
                let frame = format!("{{\"cell\":{cell},\"index\":{index}}}");
                if write_line(writer, &frame, &mut write_ns).is_err() {
                    // The client stopped reading; stop framing but finish
                    // the computation — it warms the cache for everyone
                    // else.
                    frames_ok = false;
                    break;
                }
            }
        },
    );
    state.requests.fetch_add(1, Ordering::SeqCst);
    state.class_study.fetch_add(1, Ordering::SeqCst);
    trace::stderr_log("serve", "report", |a| {
        a.num("req", req)
            .str("peer", peer)
            .num("cells", report.cells.len() as u64)
            .num("ok", report.successes().count() as u64)
            .num("failed", report.failures().count() as u64)
            .num("cache_hits", report.stats.cache_hits)
            .num("cache_misses", report.stats.cache_misses)
            .str("summary", &report.summary());
    });
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    // `report` goes last so clients can slice the exact single-process
    // StudyReport bytes out of the line; see the module docs.
    let line = format!("{{\"ok\":true,\"service\":{service},\"report\":{}}}", report.to_json());
    if write_line(writer, &line, &mut write_ns).is_err() {
        // The client vanished mid-run. Its study already ran (and warmed
        // the cache for everyone else); only the reply is lost.
        trace::stderr_log("serve", "client_gone", |a| {
            a.num("req", req).str("peer", peer);
        });
    }
    write_ns
}

/// Runs one shard request's job range on the engine and writes the
/// batch-statistics reply; every success spills into the shared store.
/// Returns the nanoseconds spent writing the reply.
fn run_shard_request(
    state: &ServerState,
    study: &Study,
    index: usize,
    count: usize,
    req: u64,
    peer: &str,
    writer: &mut TcpStream,
) -> u64 {
    let (jobs, keys) = shard::keyed_shard_slice(study, index, count);
    let stats = state.engine.run_grid(&jobs, &keys, &jobs, &keys, |_, _, _| {}).stats;
    state.requests.fetch_add(1, Ordering::SeqCst);
    state.class_shard.fetch_add(1, Ordering::SeqCst);
    trace::stderr_log("serve", "shard", |a| {
        a.num("req", req)
            .str("peer", peer)
            .num("shard_index", index as u64)
            .num("shard_count", count as u64)
            .num("jobs", stats.jobs)
            .num("cache_hits", stats.cache_hits)
            .num("cache_misses", stats.cache_misses);
    });
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    let stats = serde_json::to_string(&stats).expect("engine stats serialize");
    let line = format!(
        "{{\"ok\":true,\"shard_index\":{index},\"shard_count\":{count},\
         \"service\":{service},\"stats\":{stats}}}"
    );
    let mut write_ns = 0;
    if write_line(writer, &line, &mut write_ns).is_err() {
        trace::stderr_log("serve", "client_gone", |a| {
            a.num("req", req).str("peer", peer);
        });
    }
    write_ns
}

/// Writes one response line, body and newline in one write, adding the
/// time spent to `write_ns`. Only the connection's own thread writes, so
/// frames and replies never interleave.
fn write_line(writer: &mut TcpStream, line: &str, write_ns: &mut u64) -> io::Result<()> {
    let framed = [line.as_bytes(), b"\n"].concat();
    let started = Instant::now();
    let written = writer.write_all(&framed);
    *write_ns += elapsed_ns(started);
    written
}

fn respond_error(writer: &mut TcpStream, message: &str, write_ns: &mut u64) -> io::Result<()> {
    let escaped = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_line(writer, &format!("{{\"ok\":false,\"error\":{escaped}}}"), write_ns)
}
