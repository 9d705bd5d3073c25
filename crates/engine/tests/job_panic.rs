//! Failure paths of the engine's one worker pool, driven by a stage
//! observer that panics inside a job:
//!
//! * a batch ([`Engine::run`]) re-raises the job's **original** panic
//!   payload — the contract `fuzz`'s panic invariant reads — and the same
//!   engine then answers the batch correctly;
//! * a panic inside a stage-sharing group (one pool task) spares the
//!   group's other members, and the pool counts the task's panic once;
//! * on a [`Server`], the request computing the job and a concurrent
//!   request subscribed to it both get a protocol error instead of
//!   hanging, the pool counts the panic, and later studies are served
//!   correctly;
//! * every job of a batch runs exactly once, in submission order, at any
//!   worker count.
//!
//! The stage observer is process-global, so this file is its own test
//! binary and every test serializes on one lock.

use bittrans_engine::{
    trace, Engine, EngineOptions, Job, ServeOptions, Server, Study, StudyReport,
};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How long any wait in this file may take before it counts as a hang.
const DEADLINE: Duration = Duration::from_secs(60);

const BOOM: &str = "verify observer boom";

/// A three-add chain at `width` bits: a distinct content key per width.
fn chain(width: u32) -> Spec {
    Spec::parse(&format!(
        "spec p{width} {{ input A: u{width}; input B: u{width}; input D: u{width}; \
         input F: u{width}; C: u{width} = A + B; E: u{width} = C + D; \
         G: u{width} = E + F; output G; }}"
    ))
    .expect("chain spec parses")
}

fn engine(workers: usize, cache: bool) -> Engine {
    Engine::new(EngineOptions { workers: Some(workers), cache })
}

/// A batch's outcomes in submission order, results included.
fn render(report: &StudyReport) -> String {
    report.cells.iter().map(|o| format!("{} λ={} {:?}\n", o.spec, o.latency, o.result)).collect()
}

/// Installs an observer that panics on the first `verify` stage it sees
/// (after `before_panic` returns) and is inert afterwards.
fn panic_on_first_verify(before_panic: impl Fn() + Send + Sync + 'static) {
    let armed = AtomicBool::new(true);
    bittrans_core::stage::set_observer(move |name, _| {
        if name == "verify" && armed.swap(false, Ordering::SeqCst) {
            before_panic();
            panic!("{BOOM}");
        }
    });
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_default()
}

#[test]
fn a_panicking_job_reraises_its_original_payload_and_the_engine_recovers() {
    let _serial = serial();
    let jobs: Vec<Job> = (2..=4).map(|latency| Job::new(chain(12), latency)).collect();
    let reference = render(&engine(1, true).run(jobs.clone()));

    for workers in [1, 2] {
        let engine = engine(workers, true);
        panic_on_first_verify(|| {});
        let caught = catch_unwind(AssertUnwindSafe(|| engine.run(jobs.clone())));
        bittrans_core::stage::clear_observer();
        let payload = caught.expect_err("the job's panic must reach the caller");
        assert_eq!(payload_text(&*payload), BOOM, "workers = {workers}: not the original payload");

        // The batch's other jobs finished and were admitted before the
        // panic surfaced; only the panicked one recomputes.
        let again = engine.run(jobs.clone());
        assert_eq!(render(&again), reference, "workers = {workers}");
        assert_eq!(again.stats.cache_misses, 1, "workers = {workers}: {:?}", again.stats);
        assert_eq!(again.stats.cache_hits, 2, "workers = {workers}: {:?}", again.stats);
    }
}

#[test]
fn a_panic_inside_a_group_spares_its_other_members_and_counts_one_task() {
    let _serial = serial();
    // One (spec, λ) coordinate: a single stage-sharing group, one pool task.
    let study = Study::single(chain(11)).latencies([3]).adder_archs([
        AdderArch::RippleCarry,
        AdderArch::CarryLookahead,
        AdderArch::CarrySelect,
    ]);
    let reference = render(&study.run(&engine(1, true)));

    for workers in [1, 2] {
        let engine = engine(workers, true);
        panic_on_first_verify(|| {});
        let caught = catch_unwind(AssertUnwindSafe(|| study.run(&engine)));
        bittrans_core::stage::clear_observer();
        let payload = caught.expect_err("the member's panic must reach the caller");
        assert_eq!(payload_text(&*payload), BOOM, "workers = {workers}: not the original payload");
        // The first member panicked in `verify`; the group task went on
        // and landed the other two.
        assert_eq!(engine.stats().cache_entries, 2, "workers = {workers}");

        // The pool counted the group task's panic once (its gauges update
        // just after the task hands its payloads over).
        let started = Instant::now();
        while engine.sched_stats().completed_tasks < 1 {
            assert!(started.elapsed() < DEADLINE, "the group task never completed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let sched = engine.sched_stats();
        assert_eq!((sched.dispatched_tasks, sched.panicked_tasks), (1, 1), "{sched:?}");

        let again = study.run(&engine);
        assert_eq!(render(&again), reference, "workers = {workers}");
        assert_eq!(again.stats.cache_misses, 1, "workers = {workers}: {:?}", again.stats);
        assert_eq!(again.stats.cache_hits, 2, "workers = {workers}: {:?}", again.stats);
    }
}

#[test]
fn every_job_runs_exactly_once_in_submission_order_at_any_worker_count() {
    let _serial = serial();
    let verifies = Arc::new(AtomicUsize::new(0));
    {
        let verifies = Arc::clone(&verifies);
        bittrans_core::stage::set_observer(move |name, _| {
            if name == "verify" {
                verifies.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    // Without a cache the pipeline is monolithic — no stage table shares
    // work between jobs — so one job is a fixed number of verifies.
    let probe = engine(1, false).run(vec![Job::new(chain(9), 3)]);
    assert!(probe.cells[0].result.is_ok());
    let per_job = verifies.swap(0, Ordering::SeqCst);
    assert!(per_job > 0);

    // Twelve distinct jobs plus two in-batch duplicates.
    let mut jobs: Vec<Job> = (0..12).map(|i| Job::new(chain(8 + i / 3), 2 + i % 3)).collect();
    jobs.push(jobs[4].clone());
    jobs.push(jobs[0].clone());
    let reference = render(&engine(1, false).run(jobs.clone()));
    verifies.store(0, Ordering::SeqCst);
    for workers in [1, 2, 3, 8] {
        let report = engine(workers, false).run(jobs.clone());
        assert_eq!(verifies.swap(0, Ordering::SeqCst), 12 * per_job, "workers = {workers}");
        assert_eq!(report.stats.cache_misses, 12, "workers = {workers}");
        assert_eq!(render(&report), reference, "workers = {workers}");
    }
    bittrans_core::stage::clear_observer();
}

const SOURCE: &str = "spec jp { input A: u16; input B: u16; input D: u16; input F: u16;
  C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }";

fn study_request(source: &str) -> String {
    format!(
        "{{\"sources\": [{}], \"latencies\": [2, 3, 4]}}",
        serde_json::to_string(source).unwrap()
    )
}

/// Connects and sends one request line, returning a reader for the reply.
fn send(addr: SocketAddr, request: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    BufReader::new(stream)
}

fn reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply within the deadline, not a hang");
    line.trim().to_string()
}

fn roundtrip(addr: SocketAddr, request: &str) -> String {
    reply(&mut send(addr, request))
}

/// A numeric field of a JSON reply, by path.
fn number(json: &str, path: &[&str]) -> u64 {
    let value = serde_json::from_str(json).expect("reply is JSON");
    let field = path.iter().try_fold(&value, |v, key| v.get(key));
    field.and_then(serde_json::Value::as_u64).unwrap_or_else(|| panic!("no {path:?} in {json}"))
}

#[test]
fn a_panicking_job_fails_its_request_and_its_subscriber_without_hanging() {
    let _serial = serial();
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // The first verify blocks until the second client has subscribed to
    // the in-flight job, then panics. The trace collector is how the test
    // sees the subscription (its observer is replaced by ours; only the
    // `job` events matter here).
    trace::install_memory();
    let (reached_tx, reached_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    panic_on_first_verify(move || {
        let _ = reached_tx.send(());
        let _ = release_rx.lock().unwrap().recv_timeout(DEADLINE);
    });

    let request = study_request(SOURCE);
    let mut owner = send(addr, &request);
    reached_rx.recv_timeout(DEADLINE).expect("the owner's job reached verify");
    let mut subscriber = send(addr, &request);
    let started = Instant::now();
    while !trace::drain().iter().any(|line| line.contains("\"provenance\":\"in-flight\"")) {
        assert!(started.elapsed() < DEADLINE, "the second request never joined the job");
        std::thread::sleep(Duration::from_millis(2));
    }
    release_tx.send(()).unwrap();

    let expected = "{\"ok\":false,\"error\":\"internal error: request execution panicked\"}";
    assert_eq!(reply(&mut owner), expected);
    assert_eq!(reply(&mut subscriber), expected);
    trace::uninstall();

    // The pool counted the one job panic (its gauges update just after
    // the task hands its payload over, so allow them to settle).
    let started = Instant::now();
    loop {
        let stats = roundtrip(addr, "{\"stats\": true}");
        let panicked = number(&stats, &["sched", "panicked_tasks"]);
        if panicked == 1 {
            break;
        }
        assert_eq!(panicked, 0, "{stats}");
        assert!(started.elapsed() < DEADLINE, "the pool never counted the panic: {stats}");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The same study again: the owner's other jobs were admitted before
    // it failed, so only the panicked job recomputes.
    let retry = roundtrip(addr, &request);
    assert_eq!(number(&retry, &["report", "stats", "cache_misses"]), 1, "{retry}");
    assert_eq!(number(&retry, &["report", "stats", "cache_hits"]), 2, "{retry}");

    // A fresh study is byte-identical to a single-process run.
    let other = SOURCE.replace("u16", "u12").replace("jp", "jq");
    let response = roundtrip(addr, &study_request(&other));
    let served = &response[response.find("\"report\":").expect("report field") + 9..];
    let served = &served[..served.len() - 1];
    let study = Study::single(Spec::parse(&other).unwrap()).latencies([2, 3, 4]);
    let reference = study.run(&engine(2, true)).to_json();
    let strip = bittrans_engine::report::strip_elapsed_ms;
    assert_eq!(strip(served), strip(&reference));

    assert!(roundtrip(addr, "{\"shutdown\": true}").contains("\"shutdown\":true"));
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.errors, 2, "{stats}");
}
