//! Batch determinism: the same batch run twice produces byte-identical
//! results, with the second run served entirely from the cache.

use bittrans_benchmarks as bm;
use bittrans_engine::{Engine, EngineOptions, Job};

/// One job per (benchmark, paper latency) across Tables II and III.
fn suite_jobs() -> Vec<Job> {
    bm::table2_benchmarks()
        .into_iter()
        .chain(bm::table3_benchmarks())
        .flat_map(|b| {
            b.latencies.clone().into_iter().map(move |latency| Job::new(b.spec.clone(), latency))
        })
        .collect()
}

/// Renders a batch's outcomes to a canonical byte string.
fn render(report: &bittrans_engine::StudyReport) -> String {
    report.cells.iter().map(|o| format!("{} λ={} {:?}\n", o.spec, o.latency, o.result)).collect()
}

#[test]
fn repeated_batch_is_byte_identical_and_fully_cached() {
    let engine = Engine::default();
    let jobs = suite_jobs();
    let total = jobs.len() as u64;

    let first = engine.run(jobs.clone());
    assert_eq!(first.stats.cache_hits, 0, "fresh engine must start cold");
    assert_eq!(first.stats.cache_misses, total);

    let second = engine.run(jobs);
    assert_eq!(second.stats.cache_hits, total, "second run must be pure cache traffic");
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(second.stats.hit_rate(), 100.0);
    assert!(second.cells.iter().all(|o| o.from_cache));

    assert_eq!(render(&first), render(&second), "cached results must be byte-identical");
}

#[test]
fn worker_count_does_not_change_results() {
    let jobs = suite_jobs();
    let serial = Engine::new(EngineOptions { workers: Some(1), ..Default::default() });
    let parallel = Engine::new(EngineOptions { workers: Some(8), ..Default::default() });
    let a = serial.run(jobs.clone());
    let b = parallel.run(jobs);
    assert_eq!(render(&a), render(&b), "1-worker and 8-worker batches must agree");
}

#[test]
fn respecifying_identical_source_still_hits() {
    // The cache is content-addressed: a spec re-parsed from differently
    // formatted source is the same job.
    let engine = Engine::default();
    let terse =
        bittrans_ir::Spec::parse("spec s { input a: u8; input b: u8; output o = a + b; }").unwrap();
    let airy = bittrans_ir::Spec::parse(
        "spec s {\n    input a: u8;\n    input b: u8;\n    output o = a + b;\n}\n",
    )
    .unwrap();
    engine.run(vec![Job::new(terse, 2)]);
    let report = engine.run(vec![Job::new(airy, 2)]);
    assert_eq!(report.stats.cache_hits, 1);
}
