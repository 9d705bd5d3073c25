//! The `paper_dse` workload: the paper corpus (Tables II and III, the
//! extended set, the motivational three adds and the Fig. 3 DFG) ×
//! λ {3, 5, 6} × three adders × balance on/off — 216 cells verified with
//! 1,000 vectors each — run cold through `Study::run` on a fresh store,
//! then answered again by warm restarts: a fresh `Engine` opened on that
//! store answering the whole grid. The traced run also sends the grid
//! through `shard::run_sharded` over two single-worker in-process
//! endpoints sharing one store.

use crate::check::{cell_mismatches, cells_text, read_expected, write_expected};
use crate::fleet::{Endpoint, TIMEOUT};
use crate::layers::{engine_options, probe_engine, replay_stages};
use crate::stats::{median, ms, percentile, MIN_SAMPLES_P95};
use crate::{Ctx, Outcome};
use bittrans_benchmarks::{
    extended_benchmarks, fig3_dfg, table2_benchmarks, table3_benchmarks, three_adds,
};
use bittrans_core::CompareOptions;
use bittrans_engine::shard::{self, RemoteTransport, ShardOptions, ShardedStudy, Transport};
use bittrans_engine::{Engine, Study, StudyReport};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::path::Path;
use std::time::Instant;

const LATENCIES: [u32; 3] = [3, 5, 6];
const ADDERS: [AdderArch; 3] =
    [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];
const VECTORS: usize = 1000;
const EXPECTED: &str = "paper_dse.json";

/// Set-up repetitions a run takes the median of.
const SETUP_REPS: usize = 9;
/// How long warm answers are measured after each cold grid (and at least
/// `MIN_SAMPLES_P95 / 2` of them). Latencies this short follow the host's
/// load from second to second; sampling them over a long stretch of each
/// run keeps one busy moment from setting a run's percentiles.
const WARM_SECONDS: f64 = 2.5;
/// Single-worker endpoints of the traced run's shard fleet.
const ENDPOINTS: usize = 2;

fn corpus() -> Vec<Spec> {
    let mut specs: Vec<Spec> = table2_benchmarks()
        .into_iter()
        .chain(table3_benchmarks())
        .chain(extended_benchmarks())
        .map(|b| b.spec)
        .collect();
    specs.push(three_adds());
    specs.push(fig3_dfg());
    specs
}

fn grid_study(specs: Vec<Spec>) -> Study {
    Study::over(specs)
        .latencies(LATENCIES)
        .adder_archs(ADDERS)
        .balance_both()
        .verify_vectors([VECTORS])
}

/// The grid, its sharded wire form and the expected cells.
struct Grid {
    study: Study,
    sharded: ShardedStudy,
    expected: String,
}

impl Grid {
    fn new() -> Result<Grid, String> {
        let specs = corpus();
        let study = grid_study(specs.clone());
        let sharded = ShardedStudy {
            sources: specs.iter().map(Spec::to_canonical).collect(),
            latencies: LATENCIES.to_vec(),
            adder_archs: Some(ADDERS.to_vec()),
            balance: Some(vec![true, false]),
            verify_vectors: Some(vec![VECTORS]),
            base: CompareOptions::default(),
        };
        // Set-up expands and keys the grid, and warms the process with one
        // verified design point outside the grid.
        std::hint::black_box(study.distinct_jobs());
        let warm_up =
            Study::single(fig3_dfg()).latencies([4]).adder_archs(ADDERS).verify_vectors([VECTORS]);
        std::hint::black_box(warm_up.run(&Engine::new(engine_options())));
        let expected = read_expected(EXPECTED)?;
        let expected =
            cells_text(expected.trim()).ok_or_else(|| format!("{EXPECTED} holds no report"))?;
        Ok(Grid { study, sharded, expected })
    }

    fn check(&self, report: &StudyReport) -> (u64, u64) {
        check_report(&self.expected, report)
    }
}

/// (cells checked, cells failed): a cell fails when it differs from the
/// `expected` cells or carries an error other than infeasibility.
fn check_report(expected: &str, report: &StudyReport) -> (u64, u64) {
    let fatal = report
        .cells
        .iter()
        .filter(|c| c.result.as_ref().as_ref().is_err_and(|e| !e.is_infeasible()))
        .count();
    let mismatched = cells_text(&report.to_json())
        .map_or(report.cells.len(), |actual| cell_mismatches(expected, &actual));
    (report.cells.len() as u64, fatal.max(mismatched) as u64)
}

/// Builds the grid `SETUP_REPS` times; returns the last and the median time.
fn setup() -> Result<(Grid, f64), String> {
    let mut times = Vec::new();
    let mut grid = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        grid = Some(Grid::new()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((grid.expect("at least one set-up"), median(&times)))
}

fn fresh_store(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let store = ctx.work.join("store");
    if store.exists() {
        std::fs::remove_dir_all(&store)
            .map_err(|e| format!("cannot clear {}: {e}", store.display()))?;
    }
    Ok(store)
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A fresh engine on `store` answering the grid.
fn restart(grid: &Grid, store: &Path) -> Result<StudyReport, String> {
    let engine = Engine::new(engine_options()).with_cache_dir(store).map_err(io_err)?;
    Ok(grid.study.run(&engine))
}

/// Cold grids on fresh stores, each followed by `WARM_SECONDS` of warm
/// restarts from its store, until `ctx.seconds` have passed and the warm
/// latencies are enough for a p95.
pub fn paper_dse(ctx: &Ctx) -> Result<Outcome, String> {
    let (grid, setup_s) = setup()?;
    if ctx.traced() {
        return traced(ctx, &grid);
    }
    let mut outcome = Outcome::default();
    let (mut cells, mut cold_s) = (0usize, 0.0);
    let mut warm_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds || warm_ms.len() < MIN_SAMPLES_P95 {
        let store = fresh_store(ctx)?;
        let engine = Engine::new(engine_options()).with_cache_dir(&store).map_err(io_err)?;
        let (cold, wall) = ctx.rec.time("dse.cold_run", 0, |_| grid.study.run(&engine));
        drop(engine);
        cells += cold.cells.len();
        cold_s += wall.as_secs_f64();
        outcome.tally(grid.check(&cold));

        let warm_started = Instant::now();
        let mut count = 0;
        while warm_started.elapsed().as_secs_f64() < WARM_SECONDS || count < MIN_SAMPLES_P95 / 2 {
            let (report, wall) = ctx.rec.time("dse.warm_restart", 0, |_| restart(&grid, &store));
            warm_ms.push(ms(wall));
            outcome.tally(grid.check(&report?));
            count += 1;
        }
    }
    let metrics = &mut outcome.metrics;
    metrics.insert("setup_s".into(), setup_s);
    metrics.insert("cells_per_s".into(), cells as f64 / cold_s);
    metrics
        .insert("latency_p50_ms".into(), percentile(&warm_ms, 50.0).ok_or("too few warm samples")?);
    metrics
        .insert("latency_p95_ms".into(), percentile(&warm_ms, 95.0).ok_or("too few warm samples")?);
    Ok(outcome)
}

/// The per-layer run: the engine probe and the stage replay over the grid,
/// and the same grid through `shard::run_sharded` over a two-endpoint
/// fleet, compared with the probe's `Study::run`.
fn traced(ctx: &Ctx, grid: &Grid) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // The same cold grid untraced before and after the traced one, so
    // process warm-up favours neither side of the tracing overhead.
    let mut untraced = Vec::new();
    let mut cold_pass = |outcome: &mut Outcome| -> Result<(), String> {
        let store = fresh_store(ctx)?;
        let engine = Engine::new(engine_options()).with_cache_dir(&store).map_err(io_err)?;
        let started = Instant::now();
        let report = grid.study.run(&engine);
        untraced.push(ms(started.elapsed()));
        outcome.tally(grid.check(&report));
        Ok(())
    };
    cold_pass(&mut outcome)?;
    let (traced_ms, _) = ctx.rec.time("paper_dse", 0, |root| -> Result<f64, String> {
        // The probe's cold run is the same cold grid, traced.
        let study_ms = probe_engine(
            &ctx.rec,
            root,
            &ctx.work,
            &|engine| grid.study.run(engine).stats,
            &mut outcome.metrics,
        )
        .map_err(io_err)?;
        replay_stages(&grid.study.distinct_jobs(), &ctx.rec, root, &mut outcome.metrics);

        let store = fresh_store(ctx)?;
        std::fs::create_dir_all(&store).map_err(io_err)?;
        let fleet: Vec<Endpoint> = (0..ENDPOINTS)
            .map(|_| Endpoint::start(1, &store))
            .collect::<Result<_, _>>()
            .map_err(io_err)?;
        let options = ShardOptions {
            shards: ENDPOINTS,
            transport: Transport::Remote(RemoteTransport {
                endpoints: fleet.iter().map(|e| e.addr.clone()).collect(),
                timeout: TIMEOUT,
            }),
        };
        let (run, shard_wall) = ctx.rec.time("shard.run_sharded", root, |_| {
            shard::run_sharded(&grid.sharded, &store, &options).map_err(io_err)
        });
        fleet.into_iter().try_for_each(Endpoint::stop).map_err(io_err)?;
        let run = run?;
        outcome.tally(grid.check(&run.report));

        let metrics = &mut outcome.metrics;
        let shard_ms = ms(shard_wall);
        metrics.insert("engine.shard.run_ms".into(), shard_ms);
        metrics
            .insert("engine.shard.overhead_pct".into(), (shard_ms - study_ms) / study_ms * 100.0);
        let jobs: Vec<u64> = run
            .endpoints
            .iter()
            .filter(|e| e.endpoint != "coordinator")
            .map(|e| e.stats.jobs)
            .collect();
        let (max, min) =
            (jobs.iter().max().copied().unwrap_or(0), jobs.iter().min().copied().unwrap_or(0));
        metrics.insert(
            "engine.shard.endpoint_jobs_max_min".into(),
            if min > 0 { max as f64 / min as f64 } else { 0.0 },
        );
        // The coordinator computes what no endpoint left in the store:
        // lost shards and the infeasible jobs, whose errors are never
        // persisted.
        let mut errors: Vec<_> = run.report.failures().map(|c| c.key).collect();
        errors.sort_unstable();
        errors.dedup();
        metrics
            .insert("engine.shard.gap_fill_jobs".into(), (errors.len() + run.retried.len()) as f64);
        Ok(study_ms)
    });
    cold_pass(&mut outcome)?;
    outcome.record_overhead(traced_ms?, &untraced);
    Ok(outcome)
}

/// Rewrites `paper_dse.json`: the grid's normalized cold report.
pub fn regenerate() -> Result<(), String> {
    let report = grid_study(corpus()).run(&Engine::new(engine_options()));
    if let Some(cell) =
        report.cells.iter().find(|c| c.result.as_ref().as_ref().is_err_and(|e| !e.is_infeasible()))
    {
        return Err(format!(
            "refusing to record a failed cell: {} λ={}: {:?}",
            cell.spec,
            cell.latency,
            cell.error()
        ));
    }
    write_expected(EXPECTED, &format!("{}\n", report.normalized().to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_expected_file_covers_the_whole_grid() {
        let expected =
            cells_text(read_expected(EXPECTED).expect("expected file").trim()).expect("a report");
        assert_eq!(expected.matches("{\"spec\":").count(), grid_study(corpus()).len());
        assert_eq!(grid_study(corpus()).len(), 216);
    }

    #[test]
    fn a_corrupted_expected_output_fails_its_cell() {
        let report =
            Study::single(three_adds()).latencies([2, 3]).run(&Engine::new(engine_options()));
        let expected = cells_text(&report.normalized().to_json()).expect("a report");
        assert_eq!(check_report(&expected, &report), (2, 0));
        let corrupted = expected.replacen("\"cycle_delta\":", "\"cycle_delta\":1", 1);
        assert_eq!(check_report(&corrupted, &report), (2, 1));
    }
}
