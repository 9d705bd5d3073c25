//! Network fault-injection suite for the remote shard transport: an
//! in-process `serve::Server` fleet on port-0 loopback listeners, driven
//! through `shard::run_sharded` with a `Remote` transport.
//!
//! The headline property mirrors the local sharding suite's: the
//! remote-sharded `StudyReport` must be **byte-identical** to a
//! single-process `Study::run` over the same grid and starting cache
//! state — modulo the wall-clock `elapsed_ms` and the pool-shape
//! `workers` count — and that identity must survive every injected
//! network fault: an endpoint dead on arrival, a connection dropped
//! mid-response, a garbage reply, an endpoint that accepts and then
//! stalls past the read deadline, and one that lies — answering success
//! without computing anything. Each scenario must end in a correct
//! report via retry or in-process gap-fill — never a hang or a panic —
//! and each synchronizes on connection state or bounded timeouts, never
//! on sleeps.

mod support;

use bittrans_core::CompareOptions;
use bittrans_engine::shard::{
    assign_round_robin, partition, run_sharded, shard_slice, RemoteTransport, ShardOptions,
    ShardedStudy, Transport,
};
use bittrans_engine::{proto, Engine, Job, JobKey, StudyReport};
use bittrans_rtl::AdderArch;
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use support::{dead_endpoint, fault_endpoint, Fault, Fleet};

const SOURCE: &str = "spec rmt { input A: u16; input B: u16; input D: u16; input F: u16;
  C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }";

/// Generous deadline for healthy exchanges (loopback answers in
/// milliseconds; the margin absorbs loaded CI machines).
const TIMEOUT: Duration = Duration::from_secs(30);

/// Deadline for the stall scenario: long enough that a healthy loopback
/// server always answers well inside it, short enough to keep the test
/// bounded. The stalled endpoint costs exactly one such timeout.
const STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// The grid every scenario runs: 1 spec × 4 latencies × 2 adders = 8
/// distinct jobs, verification off to keep each job cheap.
fn study() -> ShardedStudy {
    ShardedStudy {
        sources: vec![SOURCE.to_string()],
        latencies: vec![2, 3, 4, 5],
        adder_archs: Some(vec![AdderArch::RippleCarry, AdderArch::CarryLookahead]),
        balance: None,
        verify_vectors: None,
        base: CompareOptions { verify_vectors: 0, ..Default::default() },
    }
}

fn distinct_jobs(sharded: &ShardedStudy) -> usize {
    sharded.study().unwrap().distinct_jobs().len()
}

/// The cold single-process reference: the same grid on a fresh engine.
fn cold_reference(sharded: &ShardedStudy) -> StudyReport {
    sharded.study().unwrap().run(&Engine::default())
}

/// Blanks the two run-shape values two equivalent runs legitimately
/// disagree on — wall clock and pool width — leaving every other byte of
/// the compact report intact. Delegates to the library's own
/// normalization so tests and tooling share one definition.
fn normalized(report: &StudyReport) -> String {
    bittrans_engine::report::normalize_run_shape(&report.to_json())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_remote_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn remote(endpoints: Vec<String>, shards: usize, timeout: Duration) -> ShardOptions {
    ShardOptions { shards, transport: Transport::Remote(RemoteTransport { endpoints, timeout }) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-robin endpoint assignment is total (every shard assigned
    /// exactly once) and balanced (endpoint loads differ by at most one)
    /// over random shard counts and endpoint-list sizes — mirroring the
    /// `partition` totality/disjointness properties the local sharder is
    /// built on.
    #[test]
    fn prop_round_robin_is_total_and_balanced(shards in 0usize..600, endpoints in 1usize..40) {
        let assignment = assign_round_robin(shards, endpoints);
        prop_assert_eq!(assignment.len(), shards, "every shard assigned exactly once");
        let mut load = vec![0usize; endpoints];
        for &endpoint in &assignment {
            prop_assert!(endpoint < endpoints, "assignment targets a real endpoint");
            load[endpoint] += 1;
        }
        prop_assert_eq!(load.iter().sum::<usize>(), shards);
        let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced loads {:?}", load);
    }
}

#[test]
fn shard_slice_survives_absurd_coordinates() {
    use bittrans_engine::shard::shard_slice;
    let parsed = study().study().unwrap();
    let distinct = parsed.distinct_jobs().len();
    // A hostile count must cost neither an allocation proportional to it
    // nor an arithmetic overflow; each index holds at most one job (the
    // same cut partition() would make) and index >= count is empty.
    assert!(shard_slice(&parsed, 0, usize::MAX).len() <= 1);
    assert!(shard_slice(&parsed, usize::MAX - 1, usize::MAX).len() <= 1);
    assert!(shard_slice(&parsed, usize::MAX, usize::MAX).is_empty(), "index >= count");
    // The direct cut agrees with partition() wherever both are defined.
    for count in [1usize, 2, 3, 5, 16] {
        let total: usize = (0..count).map(|i| shard_slice(&parsed, i, count).len()).sum();
        assert_eq!(total, distinct, "count={count} must stay total");
        for (index, range) in partition(distinct, count).into_iter().enumerate() {
            assert_eq!(shard_slice(&parsed, index, count).len(), range.len());
        }
    }
}

#[test]
fn healthy_fleet_report_is_byte_identical_to_single_process() {
    let sharded = study();
    let dir = temp_dir("fleet");
    let fleet = Fleet::start(2, &dir, 1);
    let run = run_sharded(&sharded, &dir, &remote(fleet.endpoints.clone(), 3, TIMEOUT)).unwrap();

    assert!(run.failed.is_empty(), "healthy fleet: no failed shards");
    assert!(run.retried.is_empty(), "healthy fleet: nothing recomputed");
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    let distinct = distinct_jobs(&sharded) as u64;
    assert_eq!(run.report.stats.jobs, distinct);
    assert_eq!(run.report.stats.cache_hits, 0);
    assert_eq!(run.report.stats.cache_misses, distinct);
    assert_eq!(run.merged.jobs, distinct);
    // Shard job sets are disjoint, so each shard's own keys sum to the
    // grid's distinct keys.
    assert_eq!(run.merged.cache_entries as u64, distinct);

    // Per-endpoint attribution covers every shard exactly once, and the
    // round-robin homes held (no retries were needed).
    let mut served: Vec<usize> =
        run.endpoints.iter().flat_map(|endpoint| endpoint.shards.clone()).collect();
    served.sort_unstable();
    assert_eq!(served, vec![0, 1, 2]);
    for endpoint in &run.endpoints {
        assert!(fleet.endpoints.contains(&endpoint.endpoint), "{}", endpoint.endpoint);
        // An endpoint serving several shards counts every shard's keys.
        assert_eq!(endpoint.stats.cache_entries as u64, endpoint.stats.jobs, "{endpoint}");
    }

    let stats = fleet.shutdown();
    assert_eq!(stats.iter().map(|s| s.requests).sum::<u64>(), 3, "one request per shard");
    assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
}

#[test]
fn warm_remote_rerun_is_served_from_the_shared_store() {
    let sharded = study();
    let dir = temp_dir("warm");
    let fleet = Fleet::start(2, &dir, 1);
    run_sharded(&sharded, &dir, &remote(fleet.endpoints.clone(), 2, TIMEOUT)).unwrap();

    // The warm single-process reference reads the same store (all hits,
    // so it writes nothing and perturbs nothing).
    let warm_engine = Engine::default().with_cache_dir(&dir).unwrap();
    let reference = sharded.study().unwrap().run(&warm_engine);

    let warm = run_sharded(&sharded, &dir, &remote(fleet.endpoints.clone(), 2, TIMEOUT)).unwrap();
    assert_eq!(normalized(&warm.report), normalized(&reference));
    let distinct = distinct_jobs(&sharded) as u64;
    assert_eq!(warm.report.stats.cache_hits, distinct, "warm rerun is 100% hits");
    assert_eq!(warm.report.stats.cache_misses, 0);
    assert!(warm.report.cells.iter().all(|cell| cell.from_cache));
    fleet.shutdown();
}

/// Fault (a): an endpoint dead on arrival — the connection is refused —
/// must cost a retry on the next endpoint, nothing else.
#[test]
fn dead_endpoint_shard_is_retried_on_the_next() {
    let sharded = study();
    let dir = temp_dir("doa");
    let fleet = Fleet::start(1, &dir, 1);
    let endpoints = vec![dead_endpoint(), fleet.endpoints[0].clone()];
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert!(run.failed.is_empty(), "the live endpoint absorbs the dead one's shard");
    assert!(run.retried.is_empty());
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    // Everything was served by the one live endpoint.
    assert_eq!(run.endpoints.len(), 1);
    assert_eq!(run.endpoints[0].endpoint, fleet.endpoints[0]);
    assert_eq!(run.endpoints[0].shards.len(), 2);
    fleet.shutdown();
}

/// Fault (b): a connection dropped mid-response (half a reply, no
/// newline, then close) is a truncated line the codec rejects; the shard
/// is retried on the next endpoint.
#[test]
fn connection_dropped_mid_response_is_retried() {
    let sharded = study();
    let dir = temp_dir("drop");
    let fleet = Fleet::start(1, &dir, 1);
    let endpoints = vec![fault_endpoint(Fault::DropMidResponse), fleet.endpoints[0].clone()];
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert!(run.failed.is_empty());
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    assert_eq!(run.endpoints.len(), 1, "only the live endpoint did work");
    fleet.shutdown();
}

/// Fault (c): a garbage (non-JSON) reply is rejected at parse time; the
/// shard is retried on the next endpoint.
#[test]
fn garbage_reply_is_retried() {
    let sharded = study();
    let dir = temp_dir("garbage");
    let fleet = Fleet::start(1, &dir, 1);
    let endpoints = vec![fault_endpoint(Fault::Garbage), fleet.endpoints[0].clone()];
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert!(run.failed.is_empty());
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    fleet.shutdown();
}

/// Fault (d): an endpoint that accepts the request and then never writes
/// must trip the read deadline — one bounded timeout, then a retry —
/// never hang the coordinator.
#[test]
fn stalled_endpoint_times_out_and_is_retried() {
    let sharded = study();
    let dir = temp_dir("stall");
    let fleet = Fleet::start(1, &dir, 1);
    let endpoints = vec![fault_endpoint(Fault::Stall), fleet.endpoints[0].clone()];
    let started = Instant::now();
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, STALL_TIMEOUT)).unwrap();

    assert!(run.failed.is_empty(), "the live endpoint absorbs the stalled one's shard");
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    // Bounded: one stall deadline plus real work, nowhere near a hang.
    assert!(started.elapsed() < STALL_TIMEOUT * 5, "took {:?}", started.elapsed());
    fleet.shutdown();
}

/// Every endpoint faulty: after bounded retries each shard is marked
/// failed and the coordinator's in-process gap-fill recomputes the whole
/// grid — the report must still match the single-process run exactly.
#[test]
fn exhausted_fleet_falls_back_to_in_process_gap_fill() {
    let sharded = study();
    let dir = temp_dir("exhausted");
    let endpoints = vec![dead_endpoint(), fault_endpoint(Fault::Garbage)];
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert_eq!(run.failed, vec![0, 1]);
    assert!(run.shard_stats.iter().all(Option::is_none));
    assert_eq!(run.retried.len(), distinct_jobs(&sharded));
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    // The gap-fill work is attributed to the coordinator itself.
    assert_eq!(run.endpoints.len(), 1);
    assert_eq!(run.endpoints[0].endpoint, "coordinator");
    assert_eq!(run.endpoints[0].stats.jobs, distinct_jobs(&sharded) as u64);
}

/// Fault (e): an endpoint that lies — a well-formed `ok` reply with
/// plausible stats for every shard, but nothing computed. The store, not
/// the reply, is the result channel: the coordinator finds every key
/// missing, computes it, and the report stays byte-identical.
#[test]
fn lying_endpoint_cannot_change_the_report() {
    let sharded = study();
    let dir = temp_dir("liar");
    let endpoints = vec![fault_endpoint(Fault::Lying)];
    let run = run_sharded(&sharded, &dir, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert!(run.failed.is_empty(), "the lie is a well-formed success");
    assert_eq!(normalized(&run.report), normalized(&cold_reference(&sharded)));
    let distinct = distinct_jobs(&sharded) as u64;
    assert_eq!(run.report.stats.cache_hits, 0);
    assert_eq!(run.report.stats.cache_misses, distinct);
    assert!(run.report.cells.iter().all(|cell| !cell.from_cache));
}

/// A partial store plus a fleet that drops every response: part of shard
/// 0's range is already stored, every shard exhausts the fleet, and the
/// coordinator recomputes exactly the absent keys. The report — the
/// `from_cache` flags included — equals a single-process run over an
/// identical partial store.
#[test]
fn exhausted_fleet_over_a_partial_store_recomputes_exactly_the_gaps() {
    let sharded = study();
    let parsed = sharded.study().unwrap();
    let prefilled: Vec<Job> = shard_slice(&parsed, 0, 2)[..2].to_vec();
    let (dir_a, dir_b) = (temp_dir("partial_a"), temp_dir("partial_b"));
    for dir in [&dir_a, &dir_b] {
        let batch = Engine::default().with_cache_dir(dir).unwrap().run(prefilled.clone());
        assert!(batch.outcomes.iter().all(|outcome| outcome.result.is_ok()));
    }
    let endpoints = vec![fault_endpoint(Fault::DropMidResponse)];
    let run = run_sharded(&sharded, &dir_a, &remote(endpoints, 2, TIMEOUT)).unwrap();

    assert_eq!(run.failed, vec![0, 1]);
    let stored: HashSet<JobKey> = prefilled.iter().map(Job::key).collect();
    let mut absent: Vec<JobKey> =
        parsed.distinct_jobs().iter().map(Job::key).filter(|key| !stored.contains(key)).collect();
    absent.sort();
    assert_eq!(run.retried, absent, "retried is exactly the absent keys");
    let reference = parsed.run(&Engine::default().with_cache_dir(&dir_b).unwrap());
    assert_eq!(normalized(&run.report), normalized(&reference));
    for cell in &run.report.cells {
        assert_eq!(cell.from_cache, stored.contains(&cell.key), "{}", cell.key);
    }
}

/// The latent-timeout regression (the `client` path once read responses
/// with no deadline): a listener that accepts and never writes must cost
/// the shared codec one bounded `TimedOut` error, not a hang.
#[test]
fn codec_read_times_out_on_a_silent_listener() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let holder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Hold the connection open and read until the client gives up
        // and closes (EOF) — never write a byte.
        let mut reader = BufReader::new(stream);
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {}
    });

    let started = Instant::now();
    let mut client = proto::LineClient::connect(&addr, Duration::from_millis(400)).unwrap();
    let err = client.request("{\"sources\": []}").expect_err("a silent server must time out");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(started.elapsed() < Duration::from_secs(20), "bounded, not a hang");
    drop(client);
    holder.join().unwrap();
}

/// The codec's deadline covers the whole response line, not each read: a
/// server trickling bytes faster than any per-read timeout — but never
/// finishing the line — must still be cut off at the overall budget.
#[test]
fn codec_bounds_a_slow_drip_endpoint() {
    use std::io::Write;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let dripper = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // One byte every 25 ms, never a newline. The sleep is the drip
        // generator (simulated hostile workload), not synchronization —
        // the assertion below synchronizes on the client's own deadline,
        // and the loop ends when the vanished client makes writes fail.
        while stream.write_all(b"x").is_ok() && stream.flush().is_ok() {
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let started = Instant::now();
    let mut client = proto::LineClient::connect(&addr, Duration::from_millis(400)).unwrap();
    let err = client.request("{\"sources\": []}").expect_err("a drip must not defeat the deadline");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(started.elapsed() < Duration::from_secs(20), "bounded, not a hang");
    drop(client);
    dripper.join().unwrap();
}

/// The serve-side shard-request contract: coordinates are validated,
/// and a server without a store (nothing to share with a coordinator)
/// rejects shard requests outright.
#[test]
fn shard_requests_validate_coords_and_need_a_store() {
    let sharded = study();

    // A fleet server (with a store) rejects malformed coordinates.
    let dir = temp_dir("coords");
    let fleet = Fleet::start(1, &dir, 1);
    let mut client = proto::LineClient::connect(&fleet.endpoints[0], TIMEOUT).unwrap();
    let body = serde_json::to_string(&sharded).unwrap();
    let index_only = format!("{{\"shard_index\":0,{}", &body[1..]);
    let reply = client.request(&index_only).unwrap();
    assert!(reply.contains("must be given together"), "{reply}");
    let reply = client.request(&sharded.shard_request(5, 2)).unwrap();
    assert!(reply.contains("out of range"), "{reply}");
    let ill_typed = format!("{{\"shard_index\":\"x\",\"shard_count\":2,{}", &body[1..]);
    let reply = client.request(&ill_typed).unwrap();
    assert!(reply.contains("unsigned integer"), "{reply}");
    // An absurd shard_count must cost one error response, never the
    // service (it once reached partition(), which materializes one
    // range per shard — an allocation a hostile request controlled).
    let reply = client.request(&sharded.shard_request(0, 1 << 40)).unwrap();
    assert!(reply.contains("exceeds"), "{reply}");
    drop(client);
    let stats = fleet.shutdown();
    assert_eq!(stats[0].errors, 4);
    assert_eq!(stats[0].requests, 0);

    // A store-less server rejects even a well-formed shard request.
    let server = bittrans_engine::Server::bind(&bittrans_engine::ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = proto::LineClient::connect(&addr, TIMEOUT).unwrap();
    let reply = client.request(&sharded.shard_request(0, 2)).unwrap();
    assert!(reply.contains("--cache-dir"), "{reply}");
    let reply = client.request("{\"shutdown\": true}").unwrap();
    assert!(reply.contains("\"shutdown\":true"), "{reply}");
    handle.join().unwrap();
}

/// A shard request runs exactly its slice of the key-sorted distinct job
/// list, answers with the batch statistics, and spills the results into
/// the shared store for the coordinator to read.
#[test]
fn shard_request_runs_the_range_and_fills_the_store() {
    let sharded = study();
    let dir = temp_dir("range");
    let fleet = Fleet::start(1, &dir, 1);
    let distinct = distinct_jobs(&sharded);
    let expected: Vec<usize> =
        partition(distinct, 2).into_iter().map(|range| range.len()).collect();

    let mut client = proto::LineClient::connect(&fleet.endpoints[0], TIMEOUT).unwrap();
    for (index, &size) in expected.iter().enumerate() {
        let reply = client.request(&sharded.shard_request(index, 2)).unwrap();
        assert!(reply.starts_with("{\"ok\":true,"), "{reply}");
        assert!(reply.contains(&format!("\"shard_index\":{index}")), "{reply}");
        let value = serde_json::from_str(&reply).unwrap();
        let stats = proto::stats_from_value(value.get("stats").unwrap()).unwrap();
        assert_eq!(stats.jobs as usize, size, "shard {index} ran exactly its range");
    }
    drop(client);
    fleet.shutdown();

    // Both halves landed in the store: a fresh single-process run over it
    // is pure hits.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let report = sharded.study().unwrap().run(&warm);
    assert_eq!(report.stats.cache_hits, distinct as u64);
    assert_eq!(report.stats.cache_misses, 0);
}
