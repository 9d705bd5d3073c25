//! The `fuzz` workload: `fuzz::run` one case at a time over a fixed pool
//! of case seeds, each case a random spec through the fuzzer's grid
//! (λ {2, 3, 4, 6} × three adders × balance on/off, 8 vectors per cell)
//! with its cross-configuration invariants checked. A timed run makes
//! whole passes over the pool, so every run measures the same cases;
//! `--seed` picks where in the pool the passes start. The latency is one
//! case.

use crate::check::{fuzz_doc_line, read_expected, write_expected};
use crate::layers::{engine_options, probe_engine, replay_stages, WORKERS};
use crate::stats::{median, ms, pct, percentile, Rng, MIN_SAMPLES_P95};
use crate::{Ctx, Outcome};
use bittrans_benchmarks::random_spec;
use bittrans_core::CompareOptions;
use bittrans_engine::fuzz::{
    self, FuzzOptions, FuzzReport, Shape, ADDERS, LATENCIES, VERIFY_VECTORS,
};
use bittrans_engine::{Engine, EngineOptions, EngineStats, Study};
use std::time::Instant;

/// Case seeds `BASE..BASE + POOL`, disjoint from the seeds the fuzz tests
/// pin. One pass is enough cases for a p95.
const BASE: u64 = 100;
const POOL: u64 = MIN_SAMPLES_P95 as u64;
const EXPECTED: &str = "fuzz.jsonl";
const SETUP_REPS: usize = 5;
/// Cases of the traced run.
const TRACED_CASES: usize = 24;

fn run_case(seed: u64) -> FuzzReport {
    fuzz::run(&FuzzOptions { count: 1, seed, workers: Some(WORKERS), ..FuzzOptions::default() })
}

/// The run's case seeds, in order.
fn case_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let start = Rng::new(seed).below(POOL);
    (0..).map(move |i| BASE + (start + i) % POOL)
}

fn load_expected() -> Result<Vec<String>, String> {
    let lines: Vec<String> = read_expected(EXPECTED)?.lines().map(str::to_string).collect();
    if lines.len() as u64 != POOL {
        return Err(format!("{EXPECTED} has {} cases, expected {POOL}", lines.len()));
    }
    Ok(lines)
}

/// Whether a case failed: a violation, or a document other than expected.
fn failed(report: &FuzzReport, expected: &[String]) -> bool {
    let line = fuzz_doc_line(&report.to_json());
    report.total_violations() > 0 || expected.get((report.seed - BASE) as usize) != Some(&line)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up reads the expected documents and warms the process with one
    // case outside the pool.
    let mut times = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        expected = load_expected()?;
        std::hint::black_box(run_case(BASE + POOL));
        times.push(started.elapsed().as_secs_f64());
    }
    if ctx.traced() {
        return traced(ctx, &expected);
    }

    let mut outcome = Outcome::default();
    let (mut cells, mut busy_s) = (0usize, 0.0);
    let mut latencies = Vec::new();
    let started = Instant::now();
    let mut seeds = case_seeds(ctx.seed);
    while started.elapsed().as_secs_f64() < ctx.seconds || latencies.len() % POOL as usize != 0 {
        let seed = seeds.next().expect("endless");
        let (report, wall) = ctx.rec.time("fuzz.case", 0, |_| run_case(seed));
        cells += report.cells;
        busy_s += wall.as_secs_f64();
        latencies.push(ms(wall));
        outcome.attempted += 1;
        outcome.failed += u64::from(failed(&report, &expected));
    }
    let metrics = &mut outcome.metrics;
    metrics.insert("setup_s".into(), median(&times));
    metrics.insert("cells_per_s".into(), cells as f64 / busy_s);
    metrics.insert("latency_p50_ms".into(), percentile(&latencies, 50.0).ok_or("too few cases")?);
    metrics.insert("latency_p95_ms".into(), percentile(&latencies, 95.0).ok_or("too few cases")?);
    Ok(outcome)
}

fn case_study(seed: u64) -> Study {
    let spec = random_spec(seed, &Shape::of(seed).options(None));
    let base = CompareOptions { verify_vectors: VERIFY_VECTORS, ..CompareOptions::default() };
    Study::single(spec).latencies(LATENCIES).adder_archs(ADDERS).balance_both().base_options(base)
}

fn traced(ctx: &Ctx, expected: &[String]) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let seeds: Vec<u64> = case_seeds(ctx.seed).take(TRACED_CASES).collect();
    let mut untraced = Vec::new();
    let mut untraced_pass = |outcome: &mut Outcome| {
        let started = Instant::now();
        for &seed in &seeds {
            outcome.tally((1, u64::from(failed(&run_case(seed), expected))));
        }
        untraced.push(ms(started.elapsed()));
    };
    untraced_pass(&mut outcome);

    let rec = &ctx.rec;
    let metrics = &mut outcome.metrics;
    let (result, _) = rec.time("fuzz", 0, |root| -> Result<f64, String> {
        let (reports, traced) = rec.time("fuzz.run", root, |run| {
            seeds
                .iter()
                .map(|&seed| rec.time("fuzz.case", run, |_| run_case(seed)).0)
                .collect::<Vec<_>>()
        });
        let cells: usize = reports.iter().map(|r| r.cells).sum();
        let feasible: usize = reports.iter().map(|r| r.feasible).sum();
        metrics.insert("engine.fuzz.cells".into(), cells as f64);
        metrics.insert("engine.fuzz.feasible_pct".into(), pct(feasible as f64, cells as f64));

        // Spec generation is cheap; repeat it so the clock resolves it.
        const GENERATIONS: u32 = 20;
        let (_, generate) = rec.time("benchmarks.random_spec", root, |_| {
            for _ in 0..GENERATIONS {
                for &seed in &seeds {
                    std::hint::black_box(random_spec(seed, &Shape::of(seed).options(None)));
                }
            }
        });
        metrics.insert(
            "benchmarks.random_spec_us".into(),
            generate.as_secs_f64() * 1e6 / f64::from(GENERATIONS) / seeds.len() as f64,
        );

        let studies: Vec<Study> = seeds.iter().map(|&seed| case_study(seed)).collect();
        let run_all = |engine: &Engine| {
            EngineStats::merged(&studies.iter().map(|s| s.run(engine).stats).collect::<Vec<_>>())
        };
        let (_, staged) = rec.time("fuzz.staged", root, |_| {
            studies.iter().for_each(|s| drop(s.run(&Engine::new(engine_options()))));
        });
        let (_, monolithic) = rec.time("fuzz.monolithic", root, |_| {
            let options = EngineOptions { cache: false, ..engine_options() };
            studies.iter().for_each(|s| drop(s.run(&Engine::new(options))));
        });
        metrics.insert("engine.fuzz.staged_ms".into(), ms(staged));
        metrics.insert("engine.fuzz.monolithic_ms".into(), ms(monolithic));
        probe_engine(rec, root, &ctx.work, &run_all, metrics).map_err(|e| e.to_string())?;
        let jobs: Vec<_> = studies.iter().flat_map(Study::distinct_jobs).collect();
        replay_stages(&jobs, rec, root, metrics);
        Ok(ms(traced))
    });
    untraced_pass(&mut outcome);
    outcome.record_overhead(result?, &untraced);
    Ok(outcome)
}

/// Rewrites `fuzz.jsonl`: one case document per pool seed.
pub fn regenerate() -> Result<(), String> {
    let mut text = String::new();
    for seed in BASE..BASE + POOL {
        let report = run_case(seed);
        if report.total_violations() > 0 {
            return Err(format!("refusing to record fuzz case {seed}: it has violations"));
        }
        text.push_str(&fuzz_doc_line(&report.to_json()));
        text.push('\n');
    }
    write_expected(EXPECTED, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_document_fails_the_case() {
        let expected = load_expected().expect("expected file");
        let report = run_case(BASE);
        assert!(!failed(&report, &expected), "the committed document matches");
        let mut corrupted = expected.clone();
        corrupted[0] = corrupted[0].replacen("\"feasible\": ", "\"feasible\": 1", 1);
        assert!(failed(&report, &corrupted));
    }

    #[test]
    fn a_run_starts_anywhere_in_the_pool_and_wraps() {
        let seeds: Vec<u64> = case_seeds(9).take(POOL as usize + 1).collect();
        assert_eq!(seeds[0], seeds[POOL as usize]);
        assert!(seeds.iter().all(|s| (BASE..BASE + POOL).contains(s)));
        assert_eq!(seeds, case_seeds(9).take(POOL as usize + 1).collect::<Vec<_>>());
    }
}
