//! Batch-optimizes the complete `bittrans-benchmarks` suite — every
//! benchmark of Tables II/III plus the extended set, at every latency the
//! paper evaluates — in one `bittrans-engine` run, then repeats the batch
//! to show the content-addressed cache absorbing all of it.
//!
//! ```text
//! cargo run --release --example batch [workers]
//! ```

use bittrans::benchmarks as bm;
use bittrans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers: Option<usize> = std::env::args().nth(1).map(|w| w.parse()).transpose()?;
    let engine = Engine::new(EngineOptions { workers, ..Default::default() });

    // One job per (benchmark, paper latency) over the whole suite.
    let suite: Vec<bm::Benchmark> = bm::table2_benchmarks()
        .into_iter()
        .chain(bm::table3_benchmarks())
        .chain(bm::extended_benchmarks())
        .collect();
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|b| b.latencies.iter().map(|&latency| Job::new(b.spec.clone(), latency)))
        .collect();

    println!(
        "batch-optimizing {} jobs ({} benchmarks) on {} workers...\n",
        jobs.len(),
        suite.len(),
        engine.worker_count(),
    );
    let report = engine.run(jobs.clone());

    println!(
        "{:<12}{:>4}{:>14}{:>14}{:>10}{:>10}",
        "bench", "λ", "orig (ns)", "opt (ns)", "saved", "area Δ"
    );
    for outcome in &report.cells {
        let cmp = outcome.result.as_ref().as_ref().map_err(|e| e.to_string())?;
        println!(
            "{:<12}{:>4}{:>14.2}{:>14.2}{:>9.1}%{:>9.1}%",
            outcome.spec,
            outcome.latency,
            cmp.original.cycle_ns,
            cmp.optimized.cycle_ns,
            cmp.cycle_saved_pct(),
            cmp.area_delta_pct(),
        );
    }
    println!("\nfirst run:  {}", report.stats);

    // The same batch again: pure cache traffic, zero pipeline work.
    let again = engine.run(jobs);
    println!("second run: {}", again.stats);
    assert_eq!(again.stats.hit_rate(), 100.0);
    Ok(())
}
