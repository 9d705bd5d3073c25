//! Integration tests for `bittrans fuzz`: flag validation matches the
//! existing degenerate-count guards, the `--json` document is
//! byte-identical across processes once `report normalize` blanks the
//! run-shape fields, and sharding the differential does not change it.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push(format!("bittrans{}", std::env::consts::EXE_SUFFIX));
    p
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("bittrans binary runs (build it with the test profile)");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

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
/// choice, not an input.
#[test]
fn fuzz_report_is_identical_across_shard_counts() {
    let one = run(&["fuzz", "--count", "2", "--seed", "8", "--shards", "1", "--json"]);
    assert!(one.0, "stderr: {}", one.2);
    let four = run(&["fuzz", "--count", "2", "--seed", "8", "--shards", "4", "--json"]);
    assert!(four.0, "stderr: {}", four.2);
    assert!(one.1.contains("\"differential\": true"), "{}", one.1);
    assert_eq!(normalized(&one.1, "shards_1"), normalized(&four.1, "shards_4"));
}
