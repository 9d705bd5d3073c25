//! Parallel-vs-serial equivalence: for every benchmark in
//! `bittrans-benchmarks` at every paper latency, the engine's batched,
//! multi-worker results must match direct `bittrans_core::compare` calls
//! exactly.

use bittrans_benchmarks as bm;
use bittrans_core::{compare, CompareOptions};
use bittrans_engine::{Engine, EngineOptions, Job, Study};

#[test]
fn engine_matches_direct_compare_on_every_benchmark() {
    let options = CompareOptions::default();
    let suite: Vec<bm::Benchmark> = bm::table2_benchmarks()
        .into_iter()
        .chain(bm::table3_benchmarks())
        .chain(bm::extended_benchmarks())
        .collect();
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|b| {
            b.latencies.iter().map(|&latency| Job::with_options(b.spec.clone(), latency, options))
        })
        .collect();
    assert!(jobs.len() >= 10, "suite should be substantial, got {}", jobs.len());

    let engine = Engine::new(EngineOptions { workers: Some(4), ..Default::default() });
    let report = engine.run(jobs.clone());
    assert_eq!(report.cells.len(), jobs.len());

    for (job, outcome) in jobs.iter().zip(&report.cells) {
        let direct = compare(&job.spec, job.latency, &options)
            .unwrap_or_else(|e| panic!("{} λ={}: {e}", job.spec.name(), job.latency));
        let batched = outcome.result.as_ref().as_ref().unwrap_or_else(|e| {
            panic!("{} λ={}: engine failed: {e}", job.spec.name(), job.latency)
        });
        let context = format!("{} λ={}", job.spec.name(), job.latency);
        assert_eq!(batched.original.cycle_delta, direct.original.cycle_delta, "{context}");
        assert_eq!(batched.optimized.cycle_delta, direct.optimized.cycle_delta, "{context}");
        assert_eq!(batched.original.cycle_ns, direct.original.cycle_ns, "{context}");
        assert_eq!(batched.optimized.cycle_ns, direct.optimized.cycle_ns, "{context}");
        assert_eq!(batched.original.area.total(), direct.original.area.total(), "{context}");
        assert_eq!(batched.optimized.area.total(), direct.optimized.area.total(), "{context}");
        assert_eq!(batched.original.stored_bits, direct.original.stored_bits, "{context}");
        assert_eq!(batched.optimized.stored_bits, direct.optimized.stored_bits, "{context}");
    }
}

#[test]
fn engine_sweep_matches_serial_sweep_on_benchmarks() {
    let options = CompareOptions { verify_vectors: 0, ..Default::default() };
    for b in bm::table2_benchmarks() {
        let serial = bittrans_core::latency_sweep(&b.spec, 3..=8, &options).expect("serial sweep");
        let engine = Engine::new(EngineOptions { workers: Some(4), ..Default::default() });
        let parallel = Study::single(b.spec.clone())
            .latencies(3..=8)
            .base_options(options)
            .run(&engine)
            .sweep_points();
        assert_eq!(serial.len(), parallel.len(), "{}", b.name);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.latency, p.latency, "{}", b.name);
            assert_eq!(s.original_ns, p.original_ns, "{}", b.name);
            assert_eq!(s.optimized_ns, p.optimized_ns, "{}", b.name);
        }
    }
}
