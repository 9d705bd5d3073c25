//! End-to-end tests of `explore --workers A,B [--shards K]` against the
//! compiled binary and spawned `bittrans serve` processes sharing one
//! store: the sharded run's `--json` output must be byte-identical to the
//! single-process run on the same grid (modulo the run-shape fields,
//! which differ even between two identical single-process runs), the
//! merged `EngineStats` totals must account for every deduplicated job
//! exactly once, and the coordinator's trace must record the dispatch.
//! Flag validation and the unreachable-fleet fallback are covered too;
//! the failure paths of the shard transport (dead, dropping, lying and
//! stalled endpoints) are covered hermetically in the engine crate's
//! `remote_shard.rs` suite.

mod support;

use std::path::{Path, PathBuf};
use support::{repo, run_env, ServerProc};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_shardcli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Additionally blanks `workers`, which legitimately differs once a shard
/// died (its pool is no longer part of the sum) — the same normalization
/// `bittrans report normalize` applies.
fn strip_run_shape(json: &str) -> String {
    bittrans::engine::report::normalize_run_shape(json)
}

fn stat(json: &str, field: &str) -> u64 {
    // The stats block is the only object with these counters; grab the
    // first occurrence of `"<field>": N`.
    let needle = format!("\"{field}\": ");
    let start = json.find(&needle).unwrap_or_else(|| panic!("{field} in {json}")) + needle.len();
    json[start..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

/// The paper grid both runs share: 2 specs × 3 latencies × 2 adders = 12
/// deduplicated jobs.
fn grid_args<'a>(cache: &'a str, extra: &[&'a str]) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "explore".into(),
        repo("specs/ewf_section.spec").to_string_lossy().into_owned(),
        repo("specs/saturating_mac.spec").to_string_lossy().into_owned(),
        "--latency".into(),
        "3..5".into(),
        "--adders".into(),
        "rca,cla".into(),
        "--jobs".into(),
        "4".into(),
        "--cache-dir".into(),
        cache.into(),
        "--json".into(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_string()));
    args
}

/// `count` `serve` processes over the store `cache` (created if absent),
/// and their `--workers` list.
fn fleet(cache: &Path, count: usize) -> (Vec<ServerProc>, String) {
    std::fs::create_dir_all(cache).unwrap();
    let fleet: Vec<ServerProc> = (0..count).map(|_| ServerProc::start(cache, 1)).collect();
    let workers = fleet.iter().map(|server| server.addr.as_str()).collect::<Vec<_>>().join(",");
    (fleet, workers)
}

fn run_grid(cache: &Path, extra: &[&str], env: &[(&str, &str)]) -> (String, String) {
    let cache = cache.to_string_lossy().into_owned();
    let args = grid_args(&cache, extra);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (ok, stdout, stderr) = run_env(&args, env);
    assert!(ok, "explore failed: {stderr}");
    (stdout, stderr)
}

#[test]
fn sharded_json_is_byte_identical_to_single_process() {
    let (dir_a, dir_b) = (temp_dir("diff_a"), temp_dir("diff_b"));
    let (servers, workers) = fleet(&dir_b, 2);
    let (single, _) = run_grid(&dir_a, &[], &[]);
    let (sharded, stderr) = run_grid(&dir_b, &["--workers", &workers, "--shards", "4"], &[]);

    // Byte-identical modulo the run shape — including from_cache flags
    // and per-cell comparisons.
    assert_eq!(strip_run_shape(&single), strip_run_shape(&sharded));

    // Merged totals: every deduplicated job exactly once.
    assert_eq!(stat(&sharded, "jobs"), 12);
    assert_eq!(stat(&sharded, "cache_hits") + stat(&sharded, "cache_misses"), 12);
    assert_eq!(stat(&sharded, "cache_misses"), stat(&single, "cache_misses"));
    // All four shards reported in, two per loopback endpoint.
    for shard in 0..4 {
        assert!(stderr.contains(&format!("shard {shard}/4:")), "{stderr}");
    }
    assert!(stderr.contains("endpoint 127.0.0.1:"), "{stderr}");
    assert!(!stderr.contains("failed"), "{stderr}");
    servers.into_iter().for_each(ServerProc::shutdown);
}

#[test]
fn sharded_trace_holds_only_the_coordinator() {
    let dir = temp_dir("trace");
    let (servers, workers) = fleet(&dir, 2);
    let trace_dir = temp_dir("trace_file");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace = trace_dir.join("trace.jsonl");
    let trace_path = trace.to_string_lossy().into_owned();
    run_grid(&dir, &["--workers", &workers], &[("BITTRANS_TRACE", &trace_path)]);
    servers.into_iter().for_each(ServerProc::shutdown);

    // The coordinator's trace records the run and each served shard; the
    // endpoints' own work stays in their processes.
    let text = std::fs::read_to_string(&trace).unwrap();
    let (mut runs, mut served) = (0, 0);
    for line in text.lines() {
        let value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let field = |key| value.get(key).and_then(serde_json::Value::as_str).unwrap_or("");
        match (field("kind"), field("name")) {
            ("span", "shard.run") => runs += 1,
            ("event", "shard.served") => served += 1,
            (_, name) => assert!(!name.starts_with("serve."), "child event in trace: {line}"),
        }
    }
    assert_eq!(runs, 1, "{text}");
    assert_eq!(served, 2, "{text}");
}

#[test]
fn timeout_without_workers_is_reported_not_dropped() {
    let spec = repo("specs/saturating_mac.spec");
    let spec = spec.to_str().unwrap();
    let warning = "--timeout has no effect without --workers";
    let (ok, _, stderr) = run_env(&["explore", spec, "--latency", "3", "--timeout", "5"], &[]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains(warning), "{stderr}");
    let (ok, _, stderr) = run_env(&["fuzz", "--count", "1", "--timeout", "5"], &[]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains(warning), "{stderr}");
}

#[test]
fn sharded_rerun_is_served_from_the_shared_store() {
    let dir = temp_dir("warm");
    let (servers, workers) = fleet(&dir, 3);
    run_grid(&dir, &["--workers", &workers], &[]);
    let (warm, _) = run_grid(&dir, &["--workers", &workers], &[]);
    servers.into_iter().for_each(ServerProc::shutdown);
    assert_eq!(stat(&warm, "cache_hits"), 12, "{warm}");
    assert_eq!(stat(&warm, "cache_misses"), 0);
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");
    assert!(warm.contains("\"from_cache\": true"));
    assert!(!warm.contains("\"from_cache\": false"));
    // And it matches a single-process warm run over a store with the same
    // content (modulo `workers`: an all-hits single-process batch reports
    // its idle pool as 1, the sharded run sums the three shard pools).
    let dir_single = temp_dir("warm_single");
    run_grid(&dir_single, &[], &[]);
    let (warm_single, _) = run_grid(&dir_single, &[], &[]);
    assert_eq!(strip_run_shape(&warm_single), strip_run_shape(&warm));
}

#[test]
fn single_shard_on_one_endpoint_works() {
    // One shard still goes through the fleet: a request to the one
    // endpoint, its results read back from the shared store.
    let dir = temp_dir("single");
    let (servers, workers) = fleet(&dir, 1);
    let spec = repo("specs/saturating_mac.spec");
    let cache = dir.to_string_lossy().into_owned();
    let (ok, stdout, stderr) = run_env(
        &[
            "explore",
            spec.to_str().unwrap(),
            "--latency",
            "3..4",
            "--workers",
            &workers,
            "--shards",
            "1",
            "--cache-dir",
            &cache,
            "--json",
        ],
        &[],
    );
    servers.into_iter().for_each(ServerProc::shutdown);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stat(&stdout, "jobs"), 2);
    assert!(stderr.contains("shard 0/1:"), "{stderr}");
    assert!(stderr.contains(&format!("endpoint {workers}: 1 shard(s)")), "{stderr}");
}

#[test]
fn remote_workers_match_single_process_byte_for_byte() {
    let (shared, dir_single) = (temp_dir("remote"), temp_dir("remote_single"));
    std::fs::create_dir_all(&shared).unwrap();
    let a = ServerProc::start(&shared, 1);
    let b = ServerProc::start(&shared, 1);
    let workers = format!("{},{}", a.addr, b.addr);

    let (single, _) = run_grid(&dir_single, &[], &[]);
    let (remote, stderr) = run_grid(&shared, &["--workers", &workers, "--shards", "2"], &[]);

    // Byte-identical modulo wall clock and pool shape (the remote merged
    // `workers` sums the fleet's batch pools, not one local pool).
    assert_eq!(strip_run_shape(&single), strip_run_shape(&remote));
    // run_grid passes --jobs, which remote dispatch cannot honor — the
    // CLI must say so instead of silently dropping the cap.
    assert!(stderr.contains("--jobs has no effect with --workers"), "{stderr}");
    assert_eq!(stat(&remote, "jobs"), 12);
    assert_eq!(stat(&remote, "cache_hits") + stat(&remote, "cache_misses"), 12);
    // Both shards dispatched, none failed, and the per-endpoint
    // attribution lines name the fleet.
    assert!(stderr.contains("shard 0/2:"), "{stderr}");
    assert!(stderr.contains("shard 1/2:"), "{stderr}");
    assert!(!stderr.contains("failed"), "{stderr}");
    assert!(
        stderr.contains(&format!("endpoint {}", a.addr))
            || stderr.contains(&format!("endpoint {}", b.addr)),
        "{stderr}"
    );

    // A warm remote rerun is served entirely from the shared store.
    let (warm, _) = run_grid(&shared, &["--workers", &workers, "--shards", "2"], &[]);
    assert_eq!(stat(&warm, "cache_hits"), 12, "{warm}");
    assert_eq!(stat(&warm, "cache_misses"), 0);
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");

    a.shutdown();
    b.shutdown();
}

#[test]
fn unreachable_fleet_falls_back_to_in_process() {
    let (dir_a, dir_b) = (temp_dir("fallback_a"), temp_dir("fallback_b"));
    let (single, _) = run_grid(&dir_a, &[], &[]);
    // Port 1 on loopback refuses instantly; the run must complete via the
    // coordinator's in-process recomputation, not hang or fail.
    let (remote, stderr) = run_grid(&dir_b, &["--workers", "127.0.0.1:1", "--timeout", "2"], &[]);
    assert_eq!(strip_run_shape(&single), strip_run_shape(&remote));
    assert!(stderr.contains("the coordinator recomputes the range"), "{stderr}");
    assert!(stderr.contains("retried 12 missing job(s) in-process"), "{stderr}");
}

#[test]
fn workers_flag_is_validated() {
    let spec = repo("specs/saturating_mac.spec");
    let spec = spec.to_str().unwrap();
    let cache = temp_dir("workers_valid");
    let cache = cache.to_string_lossy().into_owned();

    // An empty endpoint list.
    let (ok, _, stderr) = run_env(&["explore", spec, "--workers", "", "--cache-dir", &cache], &[]);
    assert!(!ok);
    assert!(stderr.contains("at least one host:port"), "{stderr}");

    // Unparseable endpoints: no port, bad port.
    for bad in ["nohost", "h:notaport", "h:0", "a:1,,b:2"] {
        let (ok, _, stderr) =
            run_env(&["explore", spec, "--workers", bad, "--cache-dir", &cache], &[]);
        assert!(!ok, "`--workers {bad}` should be rejected");
        assert!(stderr.contains("error:"), "{stderr}");
    }

    // Remote dispatch without the shared store is refused up front.
    let (ok, _, stderr) = run_env(&["explore", spec, "--workers", "127.0.0.1:4850"], &[]);
    assert!(!ok);
    assert!(stderr.contains("--cache-dir"), "{stderr}");

    // A zero timeout is always a mistyped flag.
    let (ok, _, stderr) = run_env(
        &["explore", spec, "--workers", "127.0.0.1:4850", "--cache-dir", &cache, "--timeout", "0"],
        &[],
    );
    assert!(!ok);
    assert!(stderr.contains("--timeout must be at least 1"), "{stderr}");
}
