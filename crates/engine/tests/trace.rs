//! Trace collector correctness through the public engine API:
//!
//! * under a full worker pool every span closes exactly once, `exec.task`
//!   spans parent to the batch's `engine.run` span across the spawn
//!   boundary, and stage child spans parent to their task;
//! * a file sink holds valid one-object-per-line JSON with strictly
//!   increasing `seq` and monotone `ts_ns`;
//! * per-job provenance events (`memory` / `disk` / `duplicate` /
//!   `in-flight` / `computed`) reconcile exactly with [`EngineStats`]
//!   hit/miss counters across a cold run, a warm in-memory run and a
//!   fresh-process disk run, across two concurrent batches sharing one
//!   engine, and on a served study, whose `exec.task` spans parent under
//!   its `serve.request` span, which carries the request's `read_ns` and
//!   `write_ns`.
//!
//! The collector is process-global, so every test serializes on one lock
//! (mirroring the unit tests inside `trace.rs` — cargo runs separate test
//! binaries in separate processes, so only this file needs it).
//!
//! [`EngineStats`]: bittrans_engine::EngineStats

use bittrans_core::CompareOptions;
use bittrans_engine::{trace, Engine, EngineOptions, Job, ServeOptions, Server, StudyReport};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A three-add chain at `width` bits — same shape as the paper's running
/// example, distinct content key per width.
fn chain(width: u32) -> Spec {
    Spec::parse(&chain_source(width)).expect("chain spec parses")
}

fn chain_source(width: u32) -> String {
    format!(
        "spec t{width} {{ input A: u{width}; input B: u{width}; input D: u{width}; \
         input F: u{width}; C: u{width} = A + B; E: u{width} = C + D; \
         G: u{width} = E + F; output G; }}"
    )
}

fn job(width: u32, latency: u32) -> Job {
    Job::with_options(
        chain(width),
        latency,
        CompareOptions { verify_vectors: 16, ..Default::default() },
    )
}

fn parse_lines(lines: &[String]) -> Vec<serde_json::Value> {
    lines.iter().map(|l| serde_json::from_str(l).expect("trace line is valid JSON")).collect()
}

fn str_of<'v>(v: &'v serde_json::Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(serde_json::Value::as_str)
}

fn num_of(v: &serde_json::Value, key: &str) -> Option<u64> {
    v.get(key).and_then(serde_json::Value::as_u64)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_trace_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spans_nest_and_close_exactly_once_under_a_full_worker_pool() {
    let _guard = locked();
    trace::uninstall();
    trace::install_memory();

    let engine = Engine::new(EngineOptions { workers: Some(4), cache: true });
    // Six distinct jobs saturate the four workers; two duplicates ride
    // along to exercise the non-computing classification path.
    let mut jobs: Vec<Job> = (0..6).map(|i| job(8 + i, 3)).collect();
    jobs.push(job(8, 3));
    jobs.push(job(9, 3));
    let report = engine.run(jobs);
    assert_eq!(report.stats.cache_misses, 6);
    assert_eq!(report.stats.cache_hits, 2);

    let lines = trace::drain();
    trace::uninstall();
    let parsed = parse_lines(&lines);

    let spans: Vec<&serde_json::Value> =
        parsed.iter().filter(|v| str_of(v, "kind") == Some("span")).collect();
    let mut ids = HashSet::new();
    for span in &spans {
        let id = num_of(span, "id").expect("span has an id");
        assert!(ids.insert(id), "span id {id} emitted more than once: {span:?}");
        assert!(num_of(span, "dur_ns").is_some(), "span missing dur_ns: {span:?}");
    }

    let run_spans: Vec<&&serde_json::Value> =
        spans.iter().filter(|v| str_of(v, "name") == Some("engine.run")).collect();
    assert_eq!(run_spans.len(), 1, "one batch, one engine.run span");
    let run_id = num_of(run_spans[0], "id").unwrap();
    assert_eq!(num_of(run_spans[0], "jobs"), Some(8));

    let task_spans: Vec<&&serde_json::Value> =
        spans.iter().filter(|v| str_of(v, "name") == Some("exec.task")).collect();
    assert_eq!(task_spans.len(), 6, "one exec.task per computed job");
    let task_ids: HashSet<u64> = task_spans
        .iter()
        .map(|v| {
            assert_eq!(
                num_of(v, "parent"),
                Some(run_id),
                "exec.task must parent to engine.run across the spawn boundary"
            );
            assert!(num_of(v, "queue_ns").is_some(), "exec.task missing queue_ns: {v:?}");
            num_of(v, "id").unwrap()
        })
        .collect();

    // The core pipeline's stage observer emits child spans under the task
    // that ran the stage — never orphaned, never under the batch root.
    let stage_spans: Vec<&&serde_json::Value> = spans
        .iter()
        .filter(|v| str_of(v, "name").is_some_and(|n| n.starts_with("stage.")))
        .collect();
    assert!(!stage_spans.is_empty(), "pipeline stages must appear as child spans");
    for stage in &stage_spans {
        let parent = num_of(stage, "parent").unwrap();
        assert!(task_ids.contains(&parent), "stage span not under any exec.task: {stage:?}");
    }

    // Every parent reference resolves to an emitted span (or the root).
    for v in &parsed {
        let parent = num_of(v, "parent").expect("every line carries a parent");
        assert!(parent == 0 || ids.contains(&parent), "dangling parent id: {v:?}");
    }
}

#[test]
fn file_sink_holds_valid_jsonl_with_monotone_stamps() {
    let _guard = locked();
    trace::uninstall();
    let dir = scratch("jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    trace::install_file(&path);

    let engine = Engine::new(EngineOptions { workers: Some(2), cache: true });
    engine.run((0..4).map(|i| job(8 + i, 2)).collect());
    trace::flush().expect("flush writes the sink file");
    trace::uninstall();

    let text = std::fs::read_to_string(&path).unwrap();
    let mut last_seq = 0u64;
    let mut last_ts = 0u64;
    let mut count = 0usize;
    for line in text.lines() {
        let v = serde_json::from_str(line).expect("every trace line parses as JSON");
        let seq = num_of(&v, "seq").expect("line has seq");
        let ts = num_of(&v, "ts_ns").expect("line has ts_ns");
        let kind = str_of(&v, "kind").expect("line has kind");
        assert!(kind == "span" || kind == "event", "unknown kind in {line}");
        assert!(!str_of(&v, "name").unwrap_or("").is_empty(), "empty name in {line}");
        assert!(seq > last_seq, "seq must strictly increase: {line}");
        assert!(ts >= last_ts, "ts_ns must be monotone along seq: {line}");
        last_seq = seq;
        last_ts = ts;
        count += 1;
    }
    assert!(count > 4, "a traced batch writes more than a handful of lines, got {count}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tallies `job` events by provenance from one drained trace.
fn provenance_counts(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for v in parse_lines(lines) {
        if str_of(&v, "kind") == Some("event") && str_of(&v, "name") == Some("job") {
            let provenance = str_of(&v, "provenance").expect("job event has provenance");
            assert!(
                provenance == "computed" || trace::HIT_PROVENANCES.contains(&provenance),
                "unknown job provenance {provenance}"
            );
            *counts.entry(provenance.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// The `job` events that count as cache hits.
fn hit_count(counts: &HashMap<String, u64>) -> u64 {
    trace::HIT_PROVENANCES.iter().map(|p| counts.get(*p).copied().unwrap_or(0)).sum()
}

/// A batch's outcomes in submission order, results included.
fn render(report: &StudyReport) -> String {
    report.cells.iter().map(|o| format!("{} λ={} {:?}\n", o.spec, o.latency, o.result)).collect()
}

/// Two threads run the same cold grid on one engine. Every job stalls in
/// its first stage until both batches have classified their keys, so the
/// second batch provably joins each of the first batch's in-flight jobs:
/// the two batches compute each job once between them, every hit is an
/// `in-flight` provenance, and both outcome lists equal a single-thread
/// reference.
#[test]
fn concurrent_batches_share_in_flight_jobs() {
    let _guard = locked();
    trace::uninstall();
    let jobs: Vec<Job> = (0..3).flat_map(|i| (2..=3).map(move |l| job(20 + i, l))).collect();
    let reference =
        render(&Engine::new(EngineOptions { workers: Some(1), cache: true }).run(jobs.clone()));

    trace::install_memory();
    let open = Arc::new(AtomicBool::new(false));
    {
        let open = Arc::clone(&open);
        bittrans_core::stage::set_observer(move |_, _| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !open.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    }
    let engine = Engine::new(EngineOptions { workers: Some(2), cache: true });
    let ((first, second), lines) = std::thread::scope(|scope| {
        let first = scope.spawn(|| engine.run(jobs.clone()));
        let second = scope.spawn(|| engine.run(jobs.clone()));
        // The batch classifying second emits one hit event per job while
        // no job can finish; then let the stages run. (On a timeout the
        // gate opens anyway and the counts below report the failure.)
        let mut lines = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while hit_count(&provenance_counts(&lines)) < jobs.len() as u64 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
            lines.extend(trace::drain());
        }
        open.store(true, Ordering::SeqCst);
        let reports = (first.join().unwrap(), second.join().unwrap());
        lines.extend(trace::drain());
        (reports, lines)
    });
    trace::uninstall();

    let counts = provenance_counts(&lines);
    let misses = first.stats.cache_misses + second.stats.cache_misses;
    let hits = first.stats.cache_hits + second.stats.cache_hits;
    assert_eq!(misses, jobs.len() as u64, "each job computes once between the batches");
    assert_eq!(counts.get("computed").copied().unwrap_or(0), misses);
    assert_eq!(counts.get("in-flight").copied().unwrap_or(0), hits, "{counts:?}");
    assert_eq!(hit_count(&counts), hits, "{counts:?}");
    assert_eq!(render(&first), reference);
    assert_eq!(render(&second), reference);
}

#[test]
fn job_provenance_reconciles_with_engine_stats_across_all_tiers() {
    let _guard = locked();
    trace::uninstall();
    trace::install_memory();
    let dir = scratch("prov");

    let jobs = || -> Vec<Job> {
        let mut jobs: Vec<Job> = (0..5).map(|i| job(10 + i, 3)).collect();
        jobs.push(job(10, 3)); // duplicate inside the batch
        jobs
    };

    // Cold: everything computes except the in-batch duplicate.
    let first =
        Engine::new(EngineOptions::default()).with_cache_dir(&dir).expect("cache dir opens");
    let cold = first.run(jobs());
    let counts = provenance_counts(&trace::drain());
    assert_eq!(counts.get("computed").copied().unwrap_or(0), cold.stats.cache_misses);
    assert_eq!(counts.get("duplicate").copied().unwrap_or(0), cold.stats.cache_hits);
    assert_eq!(counts.get("memory"), None);
    assert_eq!(counts.get("disk"), None);

    // Warm, same engine: every job is a memory hit.
    let warm = first.run(jobs());
    let counts = provenance_counts(&trace::drain());
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(counts.get("memory").copied().unwrap_or(0), warm.stats.cache_hits);
    assert_eq!(counts.get("computed"), None);

    // Fresh engine over the same directory: hits promote from disk.
    drop(first);
    let second =
        Engine::new(EngineOptions::default()).with_cache_dir(&dir).expect("cache dir reopens");
    let disk = second.run(jobs());
    let counts = provenance_counts(&trace::drain());
    trace::uninstall();
    assert_eq!(disk.stats.cache_misses, 0);
    assert_eq!(disk.stats.jobs, disk.stats.cache_hits);
    // First occurrence of each key reads the disk entry; repeats within
    // the batch hit the promoted in-memory copy.
    assert_eq!(hit_count(&counts), disk.stats.cache_hits);
    assert!(counts.get("disk").copied().unwrap_or(0) >= 5, "distinct keys must read from disk");
    assert_eq!(counts.get("computed"), None);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tallies `stage` events by provenance from one drained trace.
fn stage_counts(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for v in parse_lines(lines) {
        if str_of(&v, "kind") == Some("event") && str_of(&v, "name") == Some("stage") {
            let provenance = str_of(&v, "provenance").expect("stage event has provenance");
            *counts.entry(provenance.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// Acceptance for the stage tables: per-stage provenance events reconcile
/// *exactly* with the batch's `stage_hits` / `stage_misses` counters —
/// every memory resolution is one hit event, every computed resolution
/// one miss event — and a warm batch, served at job granularity, emits no
/// stage events at all.
#[test]
fn stage_provenance_reconciles_with_engine_stats() {
    let _guard = locked();
    trace::uninstall();
    trace::install_memory();

    let engine = Engine::new(EngineOptions { workers: Some(2), cache: true });
    let jobs: Vec<Job> = (2..=5).map(|latency| job(16, latency)).collect();
    let cold = engine.run(jobs.clone());
    let counts = stage_counts(&trace::drain());
    assert_eq!(counts.get("computed").copied().unwrap_or(0), cold.stats.stage_misses);
    assert_eq!(counts.get("memory").copied().unwrap_or(0), cold.stats.stage_hits);
    assert!(cold.stats.stage_misses > 0);
    // Stages are shared in memory only.
    assert!(counts.keys().all(|p| p == "memory" || p == "computed"), "{counts:?}");

    // Warm: every job is a memory hit at job granularity, so the stage
    // memo is never consulted — zero stage counters, zero stage events.
    let warm = engine.run(jobs);
    let counts = stage_counts(&trace::drain());
    trace::uninstall();
    assert_eq!(warm.stats.cache_hits, 4);
    assert_eq!(warm.stats.stage_hits + warm.stats.stage_misses, 0);
    assert!(counts.is_empty(), "a warm batch resolves no stages: {counts:?}");
}

/// Tallies the core pipeline's `stage.<name>` spans (the stage observer's
/// lines) by name from one drained trace.
fn pipeline_spans(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for v in parse_lines(lines) {
        let name = str_of(&v, "name").unwrap_or_default();
        if str_of(&v, "kind") == Some("span") && name.starts_with("stage.") {
            *counts.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// The presynthesis transformation is one memoized artifact per
/// stage-sharing group: over a cold λ × adder grid, kernel extraction,
/// fragmentation and the equivalence check run once per (spec, λ) group.
/// A fresh engine over the store with its job files deleted recomputes
/// every job the same way, and renders the cold report.
#[test]
fn extract_and_verify_run_once_per_group_cold_and_after_the_job_files_are_deleted() {
    let _guard = locked();
    trace::uninstall();
    let dir = scratch("group_transform");
    let latencies = [2, 3, 4];
    let adders = [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];
    let jobs: Vec<Job> = latencies
        .iter()
        .flat_map(|&latency| {
            adders.map(|adder_arch| {
                let options =
                    CompareOptions { verify_vectors: 16, adder_arch, ..Default::default() };
                Job::with_options(chain(20), latency, options)
            })
        })
        .collect();
    let engine = || {
        Engine::new(EngineOptions { workers: Some(2), cache: true })
            .with_cache_dir(&dir)
            .expect("cache dir opens")
    };
    trace::install_memory();

    let cold = engine().run(jobs.clone());
    let spans = pipeline_spans(&trace::drain());
    assert_eq!(cold.stats.cache_misses, 9);
    for stage in ["stage.extract", "stage.fragment", "stage.verify"] {
        assert_eq!(spans.get(stage), Some(&3), "one {stage} per group: {spans:?}");
    }

    // The store holds the nine job files and nothing else; without them
    // every job recomputes, one transformation per group again.
    let stages = dir.join("stages");
    let mut deleted = 0;
    for entry in std::fs::read_dir(&stages).expect("the store exists") {
        let path = entry.expect("store entry").path();
        let text = std::fs::read_to_string(&path).expect("store file reads");
        assert!(text.starts_with("bittrans-stage 2 job ok\n"), "not a job file: {path:?}");
        std::fs::remove_file(&path).expect("job file removed");
        deleted += 1;
    }
    assert_eq!(deleted, 9);
    let rerun = engine().run(jobs);
    let rerun_spans = pipeline_spans(&trace::drain());
    trace::uninstall();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((rerun.stats.cache_misses, rerun.stats.stage_misses), (9, 9), "{:?}", rerun.stats);
    assert_eq!(rerun_spans, spans, "the rerun runs the cold run's stages");
    assert_eq!(render(&rerun), render(&cold));
}

/// A numeric field of a JSON reply, by path.
fn number(json: &str, path: &[&str]) -> u64 {
    let value = serde_json::from_str(json).expect("reply is JSON");
    let field = path.iter().try_fold(&value, |v, key| v.get(key));
    field.and_then(serde_json::Value::as_u64).unwrap_or_else(|| panic!("no {path:?} in {json}"))
}

/// A served study runs through the same execution path as a batch: every
/// computed job is one `exec.task` span under the request's
/// `serve.request` span, and each request's `job` provenances reconcile
/// with the statistics in its response — cold, then warm.
#[test]
fn served_study_tasks_parent_under_the_request_and_reconcile_with_its_stats() {
    let _guard = locked();
    trace::uninstall();
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    trace::install_memory();

    let source = serde_json::to_string(&chain_source(24)).unwrap();
    let request = format!("{{\"sources\": [{source}], \"latencies\": [2, 3, 4, 2]}}");
    let roundtrip = |request: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("reply");
        line
    };
    let replies = [roundtrip(&request), roundtrip(&request)];
    assert!(roundtrip("{\"shutdown\": true}").contains("\"shutdown\":true"));
    handle.join().expect("server thread");
    // Every span has closed once the server has shut down.
    let parsed = parse_lines(&trace::drain());
    trace::uninstall();

    let spans_named = |name: &str| -> Vec<&serde_json::Value> {
        parsed
            .iter()
            .filter(|v| str_of(v, "kind") == Some("span") && str_of(v, "name") == Some(name))
            .collect()
    };
    let requests: Vec<u64> =
        spans_named("serve.request").iter().map(|v| num_of(v, "id").unwrap()).collect();
    assert_eq!(requests.len(), 2, "one serve.request span per study");
    // Each request span times its own socket phases: the request line's
    // read (first byte to newline) and its response write.
    for span in spans_named("serve.request") {
        assert!(num_of(span, "read_ns").is_some(), "no read_ns: {span:?}");
        let write_ns = num_of(span, "write_ns").unwrap_or_else(|| panic!("no write_ns: {span:?}"));
        assert!(write_ns > 0 && write_ns <= num_of(span, "dur_ns").unwrap(), "{span:?}");
    }
    let tasks: HashMap<u64, u64> = spans_named("exec.task")
        .iter()
        .map(|v| (num_of(v, "id").unwrap(), num_of(v, "parent").unwrap()))
        .collect();
    assert!(tasks.values().all(|parent| requests.contains(parent)), "{tasks:?}");

    for (request, reply) in requests.iter().zip(&replies) {
        let (mut hits, mut computed) = (0, 0);
        for v in &parsed {
            if str_of(v, "kind") != Some("event") || str_of(v, "name") != Some("job") {
                continue;
            }
            let parent = num_of(v, "parent").unwrap();
            match str_of(v, "provenance").unwrap() {
                "computed" if tasks.get(&parent) == Some(request) => computed += 1,
                hit if parent == *request && trace::HIT_PROVENANCES.contains(&hit) => hits += 1,
                _ => {}
            }
        }
        let task_count = tasks.values().filter(|parent| *parent == request).count() as u64;
        assert_eq!(computed, number(reply, &["report", "stats", "cache_misses"]), "{reply}");
        assert_eq!(task_count, computed, "one exec.task per computed job");
        assert_eq!(hits, number(reply, &["report", "stats", "cache_hits"]), "{reply}");
    }
    // Cold, then fully warm: the duplicate latency was deduplicated by the
    // grid, so each request resolves three distinct jobs.
    assert_eq!(number(&replies[0], &["report", "stats", "cache_misses"]), 3);
    assert_eq!(number(&replies[1], &["report", "stats", "cache_hits"]), 3);
}
