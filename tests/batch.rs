//! Tier-1 coverage of the batch engine through the facade and the CLI:
//! `bittrans explore` at one latency over the shipped spec directory must
//! agree with serial `compare` runs, and a repeated engine batch must be
//! 100 % cache hits.

use bittrans::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push(format!("bittrans{}", std::env::consts::EXE_SUFFIX));
    p
}

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

#[test]
fn facade_engine_batches_and_caches() {
    let spec = Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap();
    let engine = Engine::new(EngineOptions { workers: Some(2), ..Default::default() });
    let jobs: Vec<Job> = (2..=5).map(|latency| Job::new(spec.clone(), latency)).collect();

    let first = engine.run(jobs.clone());
    for (job, outcome) in jobs.iter().zip(&first.cells) {
        let direct = compare(&spec, job.latency, &CompareOptions::default()).unwrap();
        let batched = outcome.result.as_ref().as_ref().unwrap();
        assert_eq!(batched.optimized.cycle_ns, direct.optimized.cycle_ns);
        assert_eq!(batched.original.cycle_ns, direct.original.cycle_ns);
    }

    let second = engine.run(jobs);
    assert_eq!(second.stats.hit_rate(), 100.0);
}

#[test]
fn cli_batch_runs_a_directory_in_parallel() {
    let out = Command::new(bin())
        .args(["explore", repo("specs").to_str().unwrap(), "--latency", "4", "--jobs", "2"])
        .output()
        .expect("bittrans binary runs (build it with the test profile)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("ewf_section"), "{stdout}");
    assert!(stdout.contains("saturating_mac"), "{stdout}");
    assert!(stdout.contains("engine:"), "{stdout}");
    assert!(stdout.contains("2 workers"), "{stdout}");

    // The CLI rows must agree with serial single-spec compare runs.
    for name in ["ewf_section", "saturating_mac"] {
        let src = std::fs::read_to_string(repo(&format!("specs/{name}.spec"))).unwrap();
        let spec = Spec::parse(&src).unwrap();
        let cmp = compare(&spec, 4, &CompareOptions::default()).unwrap();
        let row = stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("no row for {name} in {stdout}"));
        let expect = format!("{:.2}", cmp.optimized.cycle_ns);
        assert!(row.contains(&expect), "row `{row}` missing optimized cycle {expect}");
    }
}

#[test]
fn cli_batch_rejects_zero_jobs() {
    let out = Command::new(bin())
        .args(["explore", repo("specs").to_str().unwrap(), "--jobs", "0"])
        .output()
        .expect("bittrans binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");
}
