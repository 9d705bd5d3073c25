//! Integration tests for the `bittrans` command-line tool: drive the
//! compiled binary on the shipped `.spec` files and check its output.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // target/<profile>/bittrans, next to the test executable's directory.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push(format!("bittrans{}", std::env::consts::EXE_SUFFIX));
    p
}

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
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

#[test]
fn check_reports_stats() {
    let spec = repo("specs/ewf_section.spec");
    let (ok, stdout, stderr) = run(&["check", spec.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ewf_section"), "{stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
}

#[test]
fn compare_prints_table() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, _) = run(&["compare", spec.to_str().unwrap(), "--latency", "4"]);
    assert!(ok);
    assert!(stdout.contains("Conventional"));
    assert!(stdout.contains("Optimized"));
    assert!(stdout.contains("cycle saved"));
}

#[test]
fn optimize_emits_vhdl_and_netlist() {
    let dir = std::env::temp_dir().join("bittrans_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let (ok, stdout, stderr) = run(&[
        "optimize",
        spec.to_str().unwrap(),
        "--latency",
        "4",
        "--netlist",
        "--emit-vhdl",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("netlist ewf_section"), "{stdout}");
    let transformed = dir.join("ewf_section_transformed.vhd");
    let datapath = dir.join("ewf_section_datapath.vhd");
    assert!(transformed.exists() && datapath.exists());
    let vhd = std::fs::read_to_string(transformed).unwrap();
    assert!(vhd.contains("entity ewf_section_kernel_frag is"));
}

#[test]
fn fragments_lists_mobilities() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, _) = run(&["fragments", spec.to_str().unwrap(), "--latency", "3"]);
    assert!(ok);
    assert!(stdout.contains("cycle"), "{stdout}");
    assert!(stdout.contains("schedule:"), "{stdout}");
}

/// A latency sweep is `explore` over a latency range: one row per
/// latency, with both flows' cycle lengths.
#[test]
fn sweep_prints_series() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "2..5"]);
    assert!(ok, "stderr: {stderr}");
    let header = stdout.lines().next().unwrap_or_default();
    assert!(header.contains("orig (ns)") && header.contains("opt (ns)"), "{stdout}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("saturating_mac")).collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    for (row, latency) in rows.iter().zip(2..=5) {
        assert_eq!(row.split_whitespace().nth(1), Some(latency.to_string().as_str()), "{row}");
    }
}

#[test]
fn explore_prints_grid_table() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) = run(&[
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..5",
        "--adders",
        "rca,cla",
        "--balance",
        "both",
    ]);
    assert!(ok, "stderr: {stderr}");
    // 3 latencies × 2 adders × 2 balance settings = 12 labelled cells.
    let rows = stdout.lines().filter(|l| l.starts_with("saturating_mac")).count();
    assert_eq!(rows, 12, "{stdout}");
    assert!(stdout.contains("carry-lookahead"), "{stdout}");
    assert!(stdout.contains("engine:"), "{stdout}");
}

#[test]
fn explore_emits_json_and_reuses_a_cache_dir() {
    let dir =
        std::env::temp_dir().join(format!("bittrans_cli_explore_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let args = [
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..4",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--json",
    ];
    let (ok, cold, stderr) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(cold.contains("\"cells\""), "{cold}");
    assert!(cold.contains("\"cache_misses\": 2"), "{cold}");

    // Second invocation = second process: served entirely from disk.
    let (ok, warm, _) = run(&args);
    assert!(ok);
    assert!(warm.contains("\"cache_hits\": 2"), "{warm}");
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");
    assert!(warm.contains("\"from_cache\": true"), "{warm}");
}

/// The files of a cache dir's store (`stages/`).
fn store_file_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir.join("stages")).map_or(0, |entries| entries.count())
}

#[test]
fn cache_prune_sweeps_a_directory_and_reports_what_it_kept() {
    let dir = std::env::temp_dir().join(format!("bittrans_cli_prune_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&[
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..4",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    // One store holding the two job files, nothing else.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["stages"]);
    let files = store_file_count(&dir);
    assert_eq!(files, 2, "{files} store files");

    // A generous age bound removes nothing.
    let (ok, stdout, _) =
        run(&["cache", "prune", "--cache-dir", dir.to_str().unwrap(), "--max-age", "86400"]);
    assert!(ok);
    assert!(stdout.contains(&format!("pruned 0 of {files} files")), "{stdout}");

    // A zero byte budget (no live run in this process) empties the store,
    // and the report's `kept` agrees with what is left.
    let (ok, stdout, _) = run(&[
        "cache",
        "prune",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--max-bytes",
        "0",
        "--json",
    ]);
    assert!(ok);
    assert!(stdout.contains(&format!("\"removed\": {files}")), "{stdout}");
    assert!(stdout.contains("\"kept\": 0"), "{stdout}");
    assert_eq!(store_file_count(&dir), 0);

    // Misuse fails cleanly.
    let (ok, _, stderr) = run(&["cache", "prune"]);
    assert!(!ok);
    assert!(stderr.contains("--cache-dir"), "{stderr}");
    // A mistyped path must error, not silently create an empty store.
    let missing = dir.join("no-such-subdir");
    let (ok, _, stderr) = run(&["cache", "prune", "--cache-dir", missing.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not a directory"), "{stderr}");
    assert!(!missing.exists());
    let (ok, _, stderr) = run(&["cache", "flush", "--cache-dir", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown cache action"), "{stderr}");
    // A stray operand is a usage error, not silently dropped.
    let (ok, _, stderr) = run(&["cache", "prune", "junk", "--cache-dir", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("usage: bittrans cache prune"), "{stderr}");
}

#[test]
fn json_flag_works_on_explore_but_not_elsewhere() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) =
        run(&["explore", spec.to_str().unwrap(), "--latency", "2..4", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("\"cells\""), "{stdout}");
    assert!(stdout.contains("\"optimized\""), "{stdout}");
    let (ok, _, stderr) = run(&["optimize", spec.to_str().unwrap(), "--latency", "4", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("--json is not supported"), "{stderr}");
}

#[test]
fn explore_fails_when_every_cell_is_infeasible() {
    let spec = repo("specs/ewf_section.spec");
    // λ = 0 is infeasible for every flow: the grid produces nothing.
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "0"]);
    assert!(!ok);
    assert!(stderr.contains("all 1 grid cells failed"), "{stderr}");
    // A partly feasible sweep (λ=0 fails, λ=3 succeeds) stays green.
    let (ok, stdout, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "0..3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("error:"), "{stdout}");
}

#[test]
fn explore_rejects_bad_axes() {
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "5..2"]);
    assert!(!ok);
    assert!(stderr.contains("empty range"), "{stderr}");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--adders", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown adder"), "{stderr}");
    let (ok, _, stderr) = run(&["compare", spec.to_str().unwrap(), "--latency", "2..4"]);
    assert!(!ok);
    assert!(stderr.contains("single --latency"), "{stderr}");
    // A latency beyond `MAX_LATENCY`, alone or as a range end.
    for (command, latency) in [("compare", "4097"), ("explore", "4090..4097")] {
        let (ok, _, stderr) = run(&[command, spec.to_str().unwrap(), "--latency", latency]);
        assert!(!ok, "{command} accepted --latency {latency}");
        assert!(stderr.contains("4097 exceeds the maximum of 4096"), "{command}: {stderr}");
    }
}

/// Regression tests for the degenerate-count guards: a zero worker pool
/// or a zero-shard partition is always a mistyped flag, and an inverted
/// range must be an error, never a silently empty sweep.
#[test]
fn zero_jobs_and_zero_shards_are_rejected() {
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--jobs", "0"]);
    assert!(!ok, "explore accepted --jobs 0");
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--shards", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--shards must be at least 1"), "{stderr}");
}

/// `--jobs` sets how many OS threads the engine's pool spawns, so it is
/// bounded like every other outside input. Each command line ends in a
/// second error (an inverted latency range), so even a binary without the
/// bound exits before it starts a pool.
#[test]
fn jobs_beyond_the_bound_are_rejected() {
    let spec = repo("specs/ewf_section.spec");
    for jobs in ["257", "18446744073709551615"] {
        for command in [
            vec!["explore", spec.to_str().unwrap()],
            vec!["serve", "--addr", "127.0.0.1:0"],
            vec!["fuzz", "--count", "1"],
        ] {
            let args = [command.as_slice(), &["--jobs", jobs, "--latency", "9..3"]].concat();
            let (ok, stdout, stderr) = run(&args);
            assert!(!ok, "{} accepted --jobs {jobs}: {stdout}", args[0]);
            assert!(stdout.is_empty(), "{} did work before rejecting: {stdout}", args[0]);
            assert!(stderr.contains("exceeds the maximum of 256"), "{stderr}");
        }
    }
}

/// Shards only go to a running `serve` fleet: `--shards` without
/// `--workers` is refused, and the message says how to start one.
#[test]
fn shards_without_workers_are_rejected() {
    let spec = repo("specs/ewf_section.spec");
    for args in [
        vec!["explore", spec.to_str().unwrap(), "--latency", "3", "--shards", "2"],
        vec!["fuzz", "--count", "1", "--shards", "2"],
    ] {
        let (ok, stdout, stderr) = run(&args);
        assert!(!ok, "{} accepted --shards without --workers: {stdout}", args[0]);
        assert!(stderr.contains("--shards needs --workers"), "{stderr}");
        assert!(stderr.contains("bittrans serve --cache-dir DIR"), "{stderr}");
    }
}

#[test]
fn inverted_ranges_are_errors_not_empty_sweeps() {
    let spec = repo("specs/ewf_section.spec");
    // `--latency 9..3` must never expand to an empty grid — on any
    // command that takes the range syntax.
    for command in ["explore", "client"] {
        let (ok, stdout, stderr) = run(&[command, spec.to_str().unwrap(), "--latency", "9..3"]);
        assert!(!ok, "{command} accepted an inverted latency range: {stdout}");
        assert!(stderr.contains("empty range"), "{command}: {stderr}");
    }
}

/// `sweep`, `batch` and `bench` are gone (`explore` covers the first two,
/// perfbench the third), and so are their private flags.
#[test]
fn retired_commands_and_flags_are_rejected() {
    let spec = repo("specs/ewf_section.spec");
    for command in ["sweep", "batch", "bench"] {
        let (ok, _, stderr) = run(&[command, spec.to_str().unwrap()]);
        assert!(!ok, "{command} still runs");
        assert!(stderr.contains(&format!("unknown command `{command}`")), "{stderr}");
    }
    let (ok, _, stderr) = run(&["bench"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command `bench`"), "{stderr}");
    for flag in ["--from", "--to", "--quick"] {
        let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), flag, "3"]);
        assert!(!ok, "{flag} still accepted");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{stderr}");
    }
}

/// `--verify` is validated by every command that takes it, not only by
/// the grid commands (`explore`, `client`).
#[test]
fn verify_flag_is_validated_by_single_spec_commands() {
    let spec = repo("specs/saturating_mac.spec");
    for command in ["compare", "optimize", "fragments"] {
        let (ok, stdout, stderr) =
            run(&[command, spec.to_str().unwrap(), "--latency", "4", "--verify", "1000001"]);
        assert!(!ok, "{command} ignored --verify: {stdout}");
        assert!(stderr.contains("exceeds the maximum"), "{command}: {stderr}");
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate", "nonexistent.spec"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["compare", spec.to_str().unwrap(), "--latency", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("bad --latency"));
}

#[test]
fn parse_errors_have_positions() {
    let dir = std::env::temp_dir().join("bittrans_cli_badspec");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.spec");
    std::fs::write(&bad, "spec x { input a: u8; output o = a ?? a; }").unwrap();
    let (ok, _, stderr) = run(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

/// `explore` builds its grid from source text, as `client` and `--workers`
/// do, and still reports an unreadable or unparseable spec file the way
/// every other command does.
#[test]
fn explore_reports_bad_spec_files_like_check() {
    let dir = std::env::temp_dir().join(format!("bittrans_cli_explore_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.spec");
    std::fs::write(&bad, "spec x { input a: u8; output o = a ?? a; }").unwrap();
    let missing = dir.join("missing.spec");
    for path in [&bad, &missing] {
        let (_, _, check) = run(&["check", path.to_str().unwrap()]);
        let (ok, _, explore) = run(&["explore", path.to_str().unwrap(), "--latency", "3"]);
        assert!(!ok, "explore accepted {}", path.display());
        assert_eq!(explore, check, "{}", path.display());
    }
    let (_, _, stderr) = run(&["explore", bad.to_str().unwrap()]);
    assert!(stderr.contains("parse error"), "{stderr}");
    let (_, _, stderr) = run(&["explore", missing.to_str().unwrap()]);
    assert!(stderr.contains("reading "), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A slice index past `u32::MAX` once wrapped: `a[4294967296]` read bit 0
/// and `check` reported a valid spec. It is rejected like `a[9]` on a `u8`.
#[test]
fn check_rejects_slice_indices_past_u32() {
    let dir = std::env::temp_dir().join(format!("bittrans_cli_slices_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, index) in [("nine", "9"), ("wrapped", "4294967296")] {
        let path = dir.join(format!("{name}.spec"));
        let body = format!("spec sl {{ input a: u8; o: u1 = a[{index}]; output o; }}");
        std::fs::write(&path, body).unwrap();
        let (ok, stdout, stderr) = run(&["check", path.to_str().unwrap()]);
        assert!(!ok, "{name} was accepted: {stdout}");
        let why = format!("slice [{index}] of `a` exceeds its width 8");
        assert!(stderr.contains(&why), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Widths come from outside input: a `u2000000000` declaration once asked
/// for gigabytes and aborted `compare`. Up to `MAX_WIDTH` (1,024 bits)
/// runs; one bit more is a parse error.
#[test]
fn compare_bounds_value_widths() {
    let dir = std::env::temp_dir().join(format!("bittrans_cli_widths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = |name: &str, width: u32| {
        let path = dir.join(format!("{name}.spec"));
        let body = format!("spec {name} {{ input a: u{width}; s: u{width} = a + a; output s; }}");
        std::fs::write(&path, body).unwrap();
        path
    };
    let (ok, stdout, stderr) =
        run(&["compare", spec("w1024", 1024).to_str().unwrap(), "--latency", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cycle saved"), "{stdout}");
    for (name, width) in [("w1025", 1025), ("huge", 2_000_000_000)] {
        let (ok, _, stderr) =
            run(&["compare", spec(name, width).to_str().unwrap(), "--latency", "3"]);
        assert!(!ok, "{name} was accepted");
        let why = format!("type width {width} exceeds the maximum of 1024");
        assert!(stderr.contains(&why), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
