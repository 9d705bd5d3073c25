//! In-process integration tests of the `serve` subsystem: a real
//! `Server` bound to a loopback port, driven over real `TcpStream`s.
//!
//! The headline property mirrors the sharding suite's: a served study's
//! report must be **byte-identical** to what a single-process
//! `Study::run` produces (modulo the wall-clock `elapsed_ms` line) — a
//! cold request matches a cold run, a warm request matches a rerun on the
//! same engine — and concurrent clients must observe cross-request cache
//! hits, because one warm engine is the whole point of the service. The
//! fault cases mirror `tests/shard_cli.rs`' style: malformed input,
//! protocol abuse and vanishing clients must each cost one response (or
//! one connection), never the service.

use bittrans_engine::{proto, Engine, EngineOptions, ServeOptions, Server, ServiceStats, Study};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SOURCE: &str = "spec srv { input A: u16; input B: u16; input D: u16; input F: u16;
  C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }";

/// The grid every byte-identity test runs: one spec, three latencies.
const LATENCIES: [u32; 3] = [2, 3, 4];

/// Worker-pool width fixed on both sides so batch `workers` counts agree.
const WORKERS: usize = 2;

fn start_server(max_request_bytes: usize) -> (SocketAddr, JoinHandle<ServiceStats>) {
    start_server_with(max_request_bytes, WORKERS)
}

/// Fully parameterized variant for the scheduler tests: the pool width
/// sets the scheduler's worker count.
fn start_server_with(
    max_request_bytes: usize,
    workers: usize,
) -> (SocketAddr, JoinHandle<ServiceStats>) {
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(workers),
        cache_dir: None,
        max_request_bytes,
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Sends one request line and reads one response line.
fn roundtrip(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    read_response(&mut BufReader::new(stream))
}

fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim().to_string()
}

fn send_line(stream: &mut TcpStream, request: &str) {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
}

fn study_request() -> String {
    let source = serde_json::to_string(SOURCE).unwrap();
    let latencies: Vec<String> = LATENCIES.iter().map(u32::to_string).collect();
    format!("{{\"sources\": [{source}], \"latencies\": [{}]}}", latencies.join(", "))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<ServiceStats>) -> ServiceStats {
    let reply = roundtrip(addr, "{\"shutdown\": true}");
    assert!(reply.contains("\"shutdown\":true"), "{reply}");
    handle.join().expect("server thread")
}

/// The exact single-process `StudyReport` bytes embedded in a response
/// line: the `report` field is serialized last precisely so this slice is
/// possible without re-serializing.
fn report_slice(response: &str) -> &str {
    let needle = "\"report\":";
    let start = response.find(needle).unwrap_or_else(|| panic!("no report in {response}"));
    assert!(response.ends_with('}'), "{response}");
    &response[start + needle.len()..response.len() - 1]
}

/// Drops the volatile wall-clock value; everything else must match byte
/// for byte.
fn strip_elapsed(json: &str) -> String {
    bittrans_engine::report::strip_elapsed_ms(json)
}

/// The reference: the same grid run directly, on a fresh engine with the
/// same pool width — once cold, once warm.
fn reference_reports() -> (String, String) {
    let engine = Engine::new(EngineOptions { workers: Some(WORKERS), cache: true });
    let study = Study::single(Spec::parse(SOURCE).unwrap()).latencies(LATENCIES);
    let cold = study.run(&engine).to_json();
    let warm = study.run(&engine).to_json();
    (cold, warm)
}

#[test]
fn concurrent_clients_get_single_process_reports_and_share_the_cache() {
    let (addr, handle) = start_server(1 << 20);
    let (cold_ref, warm_ref) = reference_reports();

    // Three clients race the same study at the cold server. The
    // in-flight registry lets exactly one request register (and compute)
    // each key; the other two subscribe to those computations and are
    // served as cache hits — every response byte-identical (modulo wall
    // clock) to the corresponding single-process run.
    let clients: Vec<JoinHandle<String>> =
        (0..3).map(|_| std::thread::spawn(move || roundtrip(addr, &study_request()))).collect();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().expect("client")).collect();

    let mut cold_seen = 0;
    let mut warm_seen = 0;
    for response in &responses {
        assert!(response.starts_with("{\"ok\":true,"), "{response}");
        assert!(response.contains("\"service\":{\"requests\":"), "{response}");
        let report = strip_elapsed(report_slice(response));
        if report == strip_elapsed(&cold_ref) {
            cold_seen += 1;
        } else if report == strip_elapsed(&warm_ref) {
            warm_seen += 1;
        } else {
            panic!("report matches neither cold nor warm reference:\n{report}");
        }
    }
    assert_eq!((cold_seen, warm_seen), (1, 2));

    // A fourth, sequential request is pure cross-request cache reuse.
    let fourth = roundtrip(addr, &study_request());
    assert_eq!(strip_elapsed(report_slice(&fourth)), strip_elapsed(&warm_ref));
    assert!(fourth.contains("\"hit_rate_pct\":100"), "{fourth}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.errors, 0);
    // Cross-request hits: three of the four requests never computed.
    assert!(stats.engine.cache_hits >= 3 * LATENCIES.len() as u64, "{stats}");
    assert_eq!(stats.engine.cache_misses, LATENCIES.len() as u64, "{stats}");
}

#[test]
fn malformed_json_is_rejected_and_the_connection_keeps_serving() {
    let (addr, handle) = start_server(1 << 20);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    send_line(&mut stream, "{ this is not json");
    let reply = read_response(&mut reader);
    assert!(reply.starts_with("{\"ok\":false,"), "{reply}");
    assert!(reply.contains("bad request"), "{reply}");

    // The same connection still serves a valid study afterwards.
    send_line(&mut stream, &study_request());
    let reply = read_response(&mut reader);
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");

    // Non-object bodies are rejected the same recoverable way.
    send_line(&mut stream, "[1, 2, 3]");
    let reply = read_response(&mut reader);
    assert!(reply.contains("must be a JSON object"), "{reply}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 2);
}

#[test]
fn unknown_fields_and_invalid_studies_are_rejected_without_harm() {
    let (addr, handle) = start_server(1 << 20);

    // A typo'd axis name must not silently run the default grid.
    let source = serde_json::to_string(SOURCE).unwrap();
    let reply = roundtrip(addr, &format!("{{\"sources\": [{source}], \"latencys\": [3]}}"));
    assert!(reply.contains("unknown field `latencys`"), "{reply}");

    // An unparseable spec source is a per-request failure.
    let reply = roundtrip(addr, "{\"sources\": [\"spec broken {\"]}");
    assert!(reply.starts_with("{\"ok\":false,"), "{reply}");

    // Axis values the options builder rejects must come back as protocol
    // errors, not kill the worker thread (Study::run would panic).
    let reply =
        roundtrip(addr, &format!("{{\"sources\": [{source}], \"verify_vectors\": [2000000]}}"));
    assert!(reply.contains("verify_vectors"), "{reply}");

    // `shutdown` must be literally true.
    let reply = roundtrip(addr, "{\"shutdown\": \"please\"}");
    assert!(reply.contains("`shutdown` must be `true`"), "{reply}");

    // Infeasible coordinates are report content, not request errors —
    // exactly like a single-process study.
    let reply = roundtrip(addr, &format!("{{\"sources\": [{source}], \"latencies\": [0]}}"));
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");
    assert!(report_slice(&reply).contains("\"ok\":false"), "{reply}");

    // After all that abuse the engine still serves.
    let reply = roundtrip(addr, &study_request());
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 4);
}

#[test]
fn oversized_requests_close_only_their_own_connection() {
    let (addr, handle) = start_server(512);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let huge = format!("{{\"sources\": [\"{}\"]}}", "x".repeat(2048));
    send_line(&mut stream, &huge);
    let reply = read_response(&mut reader);
    assert!(reply.contains("byte limit"), "{reply}");

    // The line framing is unrecoverable, so that connection is done...
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "connection should be closed");

    // ...but a fresh connection is served normally (the study body fits
    // under the tiny limit because the spec is referenced, not inflated).
    let small = "{\"sources\": [\"spec t { input a: u4; output o = a; }\"]}";
    let reply = roundtrip(addr, small);
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");

    // A body of *exactly* the limit is within bounds: the newline is
    // framing, not body, so it must not count against the cap.
    let at_limit = format!("{small:<512}");
    assert_eq!(at_limit.len(), 512);
    let reply = roundtrip(addr, &at_limit);
    assert!(reply.starts_with("{\"ok\":true,"), "at-limit request rejected: {reply}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
}

#[test]
fn stats_introspection_answers_without_disturbing_counters() {
    let (addr, handle) = start_server(1 << 20);

    // A stats probe on a fresh server: valid ServiceStats, zero classes
    // served, and — crucially — it does not count as a request itself.
    let reply = roundtrip(addr, "{\"stats\": true}");
    assert!(reply.starts_with("{\"ok\":true,\"stats\":true,"), "{reply}");
    let value = serde_json::from_str(&reply).expect("stats reply parses");
    let service = value.get("service").expect("stats reply carries service");
    assert_eq!(service.get("requests").and_then(serde_json::Value::as_u64), Some(0), "{reply}");
    assert_eq!(service.get("errors").and_then(serde_json::Value::as_u64), Some(0), "{reply}");
    assert!(service.get("engine").is_some(), "{reply}");
    let classes = value.get("classes").expect("stats reply carries classes");
    assert_eq!(classes.get("study").and_then(serde_json::Value::as_u64), Some(0), "{reply}");
    assert_eq!(classes.get("shard").and_then(serde_json::Value::as_u64), Some(0), "{reply}");
    assert_eq!(classes.get("stats").and_then(serde_json::Value::as_u64), Some(1), "{reply}");
    // The scheduler gauges: a fresh pool at the configured width, with
    // nothing queued, admitted or dispatched yet.
    let sched = value.get("sched").expect("stats reply carries sched gauges");
    let gauge = |name: &str| sched.get(name).and_then(serde_json::Value::as_u64);
    assert_eq!(gauge("workers"), Some(WORKERS as u64), "{reply}");
    assert_eq!(gauge("queue_depth"), Some(0), "{reply}");
    assert_eq!(gauge("active_requests"), Some(0), "{reply}");
    assert_eq!(gauge("admitted_requests"), Some(0), "{reply}");
    assert_eq!(gauge("dispatched_tasks"), Some(0), "{reply}");
    assert_eq!(gauge("panicked_tasks"), Some(0), "{reply}");

    // Run one study, then probe again: the study is visible in both the
    // lifetime counters and the per-class breakdown, and the probes still
    // have not moved `requests`.
    let study = roundtrip(addr, &study_request());
    assert!(study.starts_with("{\"ok\":true,"), "{study}");
    let reply = roundtrip(addr, "{\"stats\": true}");
    let value = serde_json::from_str(&reply).expect("stats reply parses");
    let service = value.get("service").expect("service");
    assert_eq!(service.get("requests").and_then(serde_json::Value::as_u64), Some(1), "{reply}");
    let classes = value.get("classes").expect("classes");
    assert_eq!(classes.get("study").and_then(serde_json::Value::as_u64), Some(1), "{reply}");
    assert_eq!(classes.get("stats").and_then(serde_json::Value::as_u64), Some(2), "{reply}");
    // The study's trip through the scheduler is visible in the gauges:
    // one request admitted and completed, one task per (cold) grid cell.
    // The completion bookkeeping lands just after the response is written,
    // so poll the (monotonic) completed-request gauge until it settles.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sched = loop {
        let reply = roundtrip(addr, "{\"stats\": true}");
        let value: serde_json::Value = serde_json::from_str(&reply).expect("stats reply parses");
        let sched = value.get("sched").expect("sched gauges").clone();
        if sched.get("completed_requests").and_then(serde_json::Value::as_u64) == Some(1) {
            break sched;
        }
        assert!(Instant::now() < deadline, "sched gauges never settled: {reply}");
        std::thread::sleep(Duration::from_millis(2));
    };
    let gauge = |name: &str| sched.get(name).and_then(serde_json::Value::as_u64);
    assert_eq!(gauge("admitted_requests"), Some(1), "{sched:?}");
    assert_eq!(gauge("dispatched_tasks"), Some(LATENCIES.len() as u64), "{sched:?}");
    assert_eq!(gauge("completed_tasks"), Some(LATENCIES.len() as u64), "{sched:?}");
    assert_eq!(gauge("queue_depth"), Some(0), "{sched:?}");
    assert_eq!(gauge("active_requests"), Some(0), "{sched:?}");

    // Malformed probes are ordinary recoverable rejections.
    let reply = roundtrip(addr, "{\"stats\": false}");
    assert!(reply.contains("`stats` must be `true`"), "{reply}");
    let reply = roundtrip(addr, "{\"stats\": true, \"sources\": []}");
    assert!(reply.contains("`stats` must be the only field"), "{reply}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 1, "stats probes must not count as requests");
    assert_eq!(stats.errors, 2);
}

/// A second tenant whose spec — and therefore every job key — is
/// disjoint from `SOURCE`'s, so the fairness test's requests share no
/// cache state.
const SMALL_SOURCE: &str = "spec tiny { input a: u8; input b: u8; input c: u8;
  s: u8 = a + b; t: u8 = s + c; output t; }";

/// Verify vectors per cell of [`large_request`]. Scheduling and binding
/// alone drain its grid in a few milliseconds, which a small tenant's
/// connection can take too; verifying this many vectors keeps the grid
/// running well past that.
const LARGE_VECTORS: usize = 4000;

/// A 100-cell grid (25 latencies x 2 adders x 2 balance settings): big
/// enough that a width-1 server is visibly busy while a small tenant
/// arrives.
fn large_request() -> String {
    let source = serde_json::to_string(SOURCE).unwrap();
    let latencies: Vec<String> = (2u32..=26).map(|l| l.to_string()).collect();
    format!(
        "{{\"sources\": [{source}], \"latencies\": [{}], \
         \"adder_archs\": [\"rca\", \"cla\"], \"balance\": [true, false], \
         \"verify_vectors\": [{LARGE_VECTORS}]}}",
        latencies.join(", ")
    )
}

fn small_request() -> String {
    let source = serde_json::to_string(SMALL_SOURCE).unwrap();
    format!("{{\"sources\": [{source}], \"latencies\": [2, 3]}}")
}

/// The references for [`large_request`] and [`small_request`]: each
/// tenant's grid on its own fresh width-1 engine.
fn tenant_references() -> (String, String) {
    let large = {
        let engine = Engine::new(EngineOptions { workers: Some(1), cache: true });
        Study::single(Spec::parse(SOURCE).unwrap())
            .latencies(2..=26)
            .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
            .balance([true, false])
            .verify_vectors([LARGE_VECTORS])
            .run(&engine)
            .to_json()
    };
    let small = {
        let engine = Engine::new(EngineOptions { workers: Some(1), cache: true });
        Study::single(Spec::parse(SMALL_SOURCE).unwrap()).latencies([2, 3]).run(&engine).to_json()
    };
    (large, small)
}

/// Sends `request` on its own connection and reports at which position
/// (a shared arrival counter) its response line landed.
fn timed_client(
    addr: SocketAddr,
    request: String,
    order: &Arc<AtomicUsize>,
) -> JoinHandle<(usize, String)> {
    let order = Arc::clone(order);
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_line(&mut stream, &request);
        let line = read_response(&mut BufReader::new(stream));
        (order.fetch_add(1, Ordering::SeqCst), line)
    })
}

#[test]
fn a_small_tenant_overtakes_a_large_one_and_both_match_single_process_runs() {
    // Width 1 makes the interleaving observable: a run-to-completion
    // server (the old per-request run lock) would hold the 2-cell tenant
    // until the whole 100-cell grid drained, so the ordering assertion
    // below fails without fair scheduling.
    let (addr, handle) = start_server_with(1 << 20, 1);

    let (large_ref, small_ref) = tenant_references();

    let order = Arc::new(AtomicUsize::new(0));
    let large_client = timed_client(addr, large_request(), &order);

    // Only submit the small tenant once the large grid is demonstrably on
    // the scheduler (`admitted_requests` is monotonic, so this poll
    // cannot miss it).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = roundtrip(addr, "{\"stats\": true}");
        let value: serde_json::Value = serde_json::from_str(&reply).expect("stats reply parses");
        let admitted = value
            .get("sched")
            .and_then(|s| s.get("admitted_requests"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        if admitted >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "large study never reached the scheduler");
        std::thread::sleep(Duration::from_millis(2));
    }
    let small_client = timed_client(addr, small_request(), &order);

    let (small_pos, small_line) = small_client.join().expect("small client");
    let (large_pos, large_line) = large_client.join().expect("large client");
    assert!(
        small_pos < large_pos,
        "the 2-cell study must finish before the 100-cell one \
         (small landed {small_pos}, large {large_pos})"
    );
    // Fair interleaving must not cost correctness: both responses are
    // byte-identical to their single-process references.
    assert_eq!(strip_elapsed(report_slice(&small_line)), strip_elapsed(&small_ref));
    assert_eq!(strip_elapsed(report_slice(&large_line)), strip_elapsed(&large_ref));

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 0);
}

/// The same grid as [`study_request`], with the streaming opt-in set.
fn stream_request() -> String {
    format!("{{\"stream\": true, {}", &study_request()[1..])
}

/// Sends one streaming request and splits the reply into its cell frames
/// and the final report line.
fn stream_roundtrip(addr: SocketAddr, request: &str) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_line(&mut stream, request);
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    loop {
        let line = read_response(&mut reader);
        if proto::is_frame(&line) {
            frames.push(line);
        } else {
            return (frames, line);
        }
    }
}

#[test]
fn streaming_and_batch_reports_are_byte_identical() {
    let (addr, handle) = start_server(1 << 20);
    let (cold_ref, warm_ref) = reference_reports();

    // Misuses first: a non-boolean flag and a shard-scoped stream are
    // both recoverable protocol errors.
    let source = serde_json::to_string(SOURCE).unwrap();
    let reply = roundtrip(addr, &format!("{{\"sources\": [{source}], \"stream\": 1}}"));
    assert!(reply.contains("`stream` must be a boolean"), "{reply}");
    let reply = roundtrip(
        addr,
        &format!(
            "{{\"sources\": [{source}], \"stream\": true, \
             \"shard_index\": 0, \"shard_count\": 2}}"
        ),
    );
    assert!(reply.contains("not supported on shard requests"), "{reply}");

    // Cold streaming request: one frame per grid cell, then a final
    // report line byte-identical to a cold single-process run.
    let (frames, final_line) = stream_roundtrip(addr, &stream_request());
    assert_eq!(frames.len(), LATENCIES.len(), "{frames:?}");
    assert!(final_line.starts_with("{\"ok\":true,"), "{final_line}");
    assert_eq!(strip_elapsed(report_slice(&final_line)), strip_elapsed(&cold_ref));
    let mut seen = vec![false; LATENCIES.len()];
    for frame in &frames {
        let (index, cell) = proto::frame_cell(frame).expect("frame parses");
        assert!(!seen[index as usize], "duplicate frame index {index}");
        seen[index as usize] = true;
        assert!(cell.contains("\"from_cache\":false"), "{cell}");
        // The final report embeds the exact same cell bytes.
        assert!(final_line.contains(cell), "frame cell not in report:\n{cell}\n{final_line}");
    }
    assert!(seen.iter().all(|s| *s), "some cells never framed: {seen:?}");

    // Warm rerun, streamed: every cell frames as a cache hit, and the
    // final report equals both the warm reference and a warm batch
    // (non-streaming) request byte for byte.
    let (warm_frames, warm_line) = stream_roundtrip(addr, &stream_request());
    assert_eq!(warm_frames.len(), LATENCIES.len());
    for frame in &warm_frames {
        let (_, cell) = proto::frame_cell(frame).expect("frame parses");
        assert!(cell.contains("\"from_cache\":true"), "{cell}");
    }
    let batch_line = roundtrip(addr, &study_request());
    assert_eq!(
        strip_elapsed(report_slice(&warm_line)),
        strip_elapsed(report_slice(&batch_line)),
        "streaming and batch reports must be byte-identical modulo wall clock"
    );
    assert_eq!(strip_elapsed(report_slice(&warm_line)), strip_elapsed(&warm_ref));

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 2);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = start_server_with(1 << 20, 1);
    let (large_ref, small_ref) = tenant_references();

    // Three requests written back to back on one connection before any
    // reply is read. On a width-1 pool the small study would finish
    // first; the replies still come back in request order, and every read
    // has a deadline, so a lost reply fails the test instead of hanging
    // it.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_line(&mut stream, &large_request());
    send_line(&mut stream, &small_request());
    send_line(&mut stream, "{\"stats\": true}");

    let large = read_response(&mut reader);
    assert!(large.starts_with("{\"ok\":true,"), "{large}");
    assert_eq!(strip_elapsed(report_slice(&large)), strip_elapsed(&large_ref));
    let small = read_response(&mut reader);
    assert!(small.starts_with("{\"ok\":true,"), "{small}");
    assert_eq!(strip_elapsed(report_slice(&small)), strip_elapsed(&small_ref));
    let probe = read_response(&mut reader);
    assert!(probe.starts_with("{\"ok\":true,\"stats\":true,"), "{probe}");
    // Answered after both studies, so it counts them.
    assert!(probe.contains("\"service\":{\"requests\":2,"), "{probe}");

    let stats = shutdown(addr, handle);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 0);
}

#[test]
fn client_disconnecting_mid_run_leaves_the_engine_serving() {
    let (addr, handle) = start_server(1 << 20);

    // Send a full request and vanish without reading the response.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        send_line(&mut stream, &study_request());
        // Dropped here: the server computes, fails to reply, moves on.
    }

    // The next client is served — and if the abandoned study finished
    // first, it even inherits the warm cache.
    let reply = roundtrip(addr, &study_request());
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");

    let stats = shutdown(addr, handle);
    assert!(stats.requests >= 1, "{stats}");
    assert_eq!(stats.errors, 0);
}

/// A warm study costs the engine well under a millisecond, so 50 of them
/// in sequence on one connection finish far inside a second. A line
/// written as two segments on a Nagle socket waits for the peer's delayed
/// ACK before its newline goes out; that stalled each exchange ~88 ms.
#[test]
fn sequential_warm_requests_on_one_connection_do_not_stall() {
    let (addr, handle) = start_server(1 << 20);
    let mut client =
        proto::LineClient::connect(&addr.to_string(), Duration::from_secs(30)).expect("connect");
    let request = study_request();
    let cold = client.request(&request).expect("cold request");
    assert!(cold.starts_with("{\"ok\":true,"), "{cold}");
    let started = Instant::now();
    for _ in 0..50 {
        let reply = client.request(&request).expect("warm request");
        assert!(reply.starts_with("{\"ok\":true,"), "{reply}");
    }
    let elapsed = started.elapsed();
    drop(client);
    shutdown(addr, handle);
    assert!(elapsed < Duration::from_secs(1), "50 warm requests took {elapsed:?}");
}
