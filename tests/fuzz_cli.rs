//! Integration tests for `bittrans fuzz`: flag validation matches the
//! existing degenerate-count guards, the `--json` document is
//! byte-identical across processes once `report normalize` blanks the
//! run-shape fields, and sharding the differential across a `serve`
//! fleet does not change it.

mod support;

use support::{run, ServerProc};

/// Pipe a fuzz `--json` document through `bittrans report normalize` so
/// the comparison exercises the same CLI surface a CI script would.
fn normalized(doc: &str, tag: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("bittrans_fuzz_cli_{}_{tag}.json", std::process::id()));
    std::fs::write(&path, doc).unwrap();
    let (ok, stdout, stderr) = run(&["report", "normalize", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(ok, "report normalize failed: {stderr}");
    stdout
}

/// Regression tests for the fuzz flag guards: a zero case count or an
/// out-of-range probability is always a mistyped flag, same contract as
/// `--jobs 0` / `--shards 0`.
#[test]
fn fuzz_rejects_bad_flags() {
    let (ok, _, stderr) = run(&["fuzz", "--count", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--count must be at least 1"), "{stderr}");

    for p in ["1.5", "-0.1"] {
        let (ok, _, stderr) = run(&["fuzz", "--mul-prob", p]);
        assert!(!ok, "fuzz accepted --mul-prob {p}");
        assert!(stderr.contains("--mul-prob must be within 0..=1"), "{stderr}");
    }

    let (ok, _, stderr) = run(&["fuzz", "--mul-prob", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("bad --mul-prob"), "{stderr}");

    // The remote-fleet differential needs a shared store to diff against.
    let (ok, _, stderr) = run(&["fuzz", "--count", "1", "--workers", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("--cache-dir"), "{stderr}");
}

/// A replay seed outside `[seed, seed + count)` was never generated by
/// the run being reproduced — naming it is a mistake, not an empty run.
#[test]
fn fuzz_replay_of_a_never_generated_seed_is_an_error() {
    for target in ["99", "9"] {
        let (ok, _, stderr) = run(&["fuzz", "--count", "4", "--seed", "10", "--replay", target]);
        assert!(!ok, "fuzz replayed seed {target} from --seed 10 --count 4");
        assert!(stderr.contains("was never generated"), "{stderr}");
        assert!(stderr.contains("--seed"), "{stderr}");
    }
    // The boundary seeds of the window do replay.
    let (ok, stdout, stderr) = run(&["fuzz", "--count", "4", "--seed", "10", "--replay", "13"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("replay seed 13"), "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

/// Fuzz determinism across processes: the same `(seed, count, options)`
/// yields a byte-identical `--json` document from two separate runs of
/// the binary, once `report normalize` blanks `elapsed_ms`.
#[test]
fn fuzz_json_is_deterministic_across_processes() {
    let args = ["fuzz", "--count", "2", "--seed", "5", "--json"];
    let (ok, first, stderr) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(first.contains("\"schema\": \"bittrans-fuzz-v1\""), "{first}");
    let (ok, second, _) = run(&args);
    assert!(ok);
    assert_eq!(normalized(&first, "proc_a"), normalized(&second, "proc_b"));
}

/// Splitting the differential across more shards must not
/// change a single byte of the report: shard count is a deployment
/// choice, not an input. Each run gets a fresh two-endpoint fleet over a
/// fresh store.
#[test]
fn fuzz_report_is_identical_across_shard_counts() {
    let fuzz_in_shards = |shards: &str| {
        let store = std::env::temp_dir()
            .join(format!("bittrans_fuzz_cli_{}_fleet_{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        std::fs::create_dir_all(&store).unwrap();
        let servers = [ServerProc::start(&store, 1), ServerProc::start(&store, 1)];
        let workers = format!("{},{}", servers[0].addr, servers[1].addr);
        let cache = store.to_string_lossy().into_owned();
        let (ok, stdout, stderr) = run(&[
            "fuzz",
            "--count",
            "2",
            "--seed",
            "8",
            "--workers",
            &workers,
            "--shards",
            shards,
            "--cache-dir",
            &cache,
            "--json",
        ]);
        servers.into_iter().for_each(ServerProc::shutdown);
        let _ = std::fs::remove_dir_all(&store);
        assert!(ok, "stderr: {stderr}");
        stdout
    };
    let one = fuzz_in_shards("1");
    let four = fuzz_in_shards("4");
    assert!(one.contains("\"differential\": true"), "{one}");
    assert_eq!(normalized(&one, "shards_1"), normalized(&four, "shards_4"));
}
