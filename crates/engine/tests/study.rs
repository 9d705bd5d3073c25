//! Integration coverage of the `Study` design-space-exploration front end:
//! grids must agree with the serial entry points they replace, deduplicate
//! identical coordinates, and serialize into the documented JSON shape.

use bittrans_core::{compare, latency_sweep, CompareOptions};
use bittrans_engine::{Engine, EngineOptions, Study, StudyCell};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;

fn three_adds() -> Spec {
    Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap()
}

fn mac() -> Spec {
    Spec::parse(
        "spec mac { input a: i8; input b: i8; input c1: u8;
          p: i16 = a * b; q: i16 = p - c1; m: i16 = max(q, p); output m; }",
    )
    .unwrap()
}

/// Acceptance: a single-latency-axis study reproduces the serial
/// `latency_sweep` points exactly — same latencies, bit-identical cycle
/// lengths, same order.
#[test]
fn single_axis_study_matches_serial_latency_sweep() {
    let spec = three_adds();
    let options = CompareOptions::default();
    let serial = latency_sweep(&spec, 2..=9, &options).expect("serial sweep");
    for workers in [1, 4] {
        let engine = Engine::new(EngineOptions { workers: Some(workers), ..Default::default() });
        let report =
            Study::single(spec.clone()).latencies(2..=9).base_options(options).run(&engine);
        let points = report.sweep_points();
        assert_eq!(serial.len(), points.len(), "workers={workers}");
        for (s, p) in serial.iter().zip(&points) {
            assert_eq!(s.latency, p.latency);
            assert_eq!(s.original_ns.to_bits(), p.original_ns.to_bits());
            assert_eq!(s.optimized_ns.to_bits(), p.optimized_ns.to_bits());
        }
    }
}

/// Every front end labels its cells through one routine: on fresh
/// engines, a study and a plain batch of the study's expanded jobs
/// serialize the same cells, each carrying its own job's coordinates.
#[test]
fn study_and_batch_of_its_jobs_label_the_same_cells() {
    let study = Study::single(three_adds())
        .latencies([3, 4, 3])
        .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
        .balance_both();
    let jobs = study.jobs();
    let grid = study.run(&Engine::default());
    let batch = Engine::default().run(jobs.clone());
    let json = |cells: &Vec<StudyCell>| serde_json::to_string(cells).unwrap();
    assert_eq!(json(&grid.cells), json(&batch.cells));
    for report in [&grid, &batch] {
        assert_eq!(report.cells.len(), jobs.len());
        for (cell, job) in report.cells.iter().zip(&jobs) {
            assert_eq!(cell.latency, job.latency);
            assert_eq!(cell.adder_arch, job.options.adder_arch);
            assert_eq!(cell.balance, job.options.balance);
            assert_eq!(cell.verify_vectors, job.options.verify_vectors);
        }
        // The repeated λ = 3 row did no pipeline work.
        assert!(report.cells[..8].iter().all(|c| !c.from_cache));
        assert!(report.cells[8..].iter().all(|c| c.from_cache));
    }
}

/// Overlapping latency sweeps on one engine pay only for the latencies
/// the earlier sweep did not cover.
#[test]
fn overlapping_sweeps_reuse_cached_points() {
    let spec = three_adds();
    let options = CompareOptions::default();
    let engine = Engine::default();
    let sweep = |latencies| {
        Study::single(spec.clone()).latencies(latencies).base_options(options).run(&engine)
    };
    sweep(3..=6);
    let before = engine.stats();
    let points = sweep(4..=8).sweep_points();
    let after = engine.stats();
    assert_eq!(points.iter().map(|p| p.latency).collect::<Vec<_>>(), [4, 5, 6, 7, 8]);
    // λ = 4, 5, 6 came from the cache; only 7 and 8 were new work.
    assert_eq!(after.cache_hits - before.cache_hits, 3);
    assert_eq!(after.cache_misses - before.cache_misses, 2);
}

/// Every cell of a multi-axis grid agrees with a direct `compare` call at
/// the cell's coordinates.
#[test]
fn grid_cells_match_direct_compare() {
    let engine = Engine::default();
    let report = Study::over([three_adds(), mac()])
        .latencies([3, 4])
        .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
        .verify_vectors([0])
        .run(&engine);
    assert_eq!(report.cells.len(), 2 * 2 * 2);
    for cell in &report.cells {
        let spec = if cell.spec == "ex" { three_adds() } else { mac() };
        let options = CompareOptions {
            adder_arch: cell.adder_arch,
            balance: cell.balance,
            verify_vectors: cell.verify_vectors,
            ..Default::default()
        };
        let direct = compare(&spec, cell.latency, &options).unwrap();
        let got = cell.comparison().unwrap();
        assert_eq!(got.optimized.cycle_ns.to_bits(), direct.optimized.cycle_ns.to_bits());
        assert_eq!(got.original.cycle_ns.to_bits(), direct.original.cycle_ns.to_bits());
        assert_eq!(got.optimized.area.total(), direct.optimized.area.total());
    }
}

/// Axis values that collapse to the same job key are computed once and the
/// study is cache-transparent across runs.
#[test]
fn studies_share_the_engine_cache() {
    let engine = Engine::default();
    let study = Study::single(three_adds()).latencies(3..=6).verify_vectors([0]);
    let first = study.run(&engine);
    assert_eq!(first.stats.cache_misses, 4);
    assert_eq!(first.stats.cache_hits, 0);
    let second = study.run(&engine);
    assert_eq!(second.stats.cache_hits, 4);
    assert_eq!(second.stats.hit_rate(), 100.0);
    assert!(second.cells.iter().all(|c| c.from_cache));

    // A wider study over the same spec pays only for the new coordinates.
    let wider = Study::single(three_adds()).latencies(3..=8).verify_vectors([0]).run(&engine);
    assert_eq!(wider.stats.cache_hits, 4);
    assert_eq!(wider.stats.cache_misses, 2);
}

/// The adder-architecture axis really varies the cost model: carry
/// lookahead pays its ~1.6× functional-unit area premium over ripple carry.
#[test]
fn adder_axis_changes_results() {
    let engine = Engine::default();
    let report = Study::single(three_adds())
        .latencies([3])
        .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
        .verify_vectors([0])
        .run(&engine);
    let areas: Vec<f64> =
        report.cells.iter().map(|c| c.comparison().unwrap().original.area.fu).collect();
    assert!(areas[1] > areas[0], "CLA FU area {} !> RCA FU area {}", areas[1], areas[0]);
}

/// The JSON rendering parses back and labels every axis coordinate.
#[test]
fn study_json_has_axis_coordinates() {
    let engine = Engine::default();
    let report = Study::single(three_adds())
        .latencies([3, 4])
        .balance_both()
        .verify_vectors([0])
        .run(&engine);
    let v = serde_json::from_str(&report.to_json_pretty()).expect("valid JSON");
    let cells = v.get("cells").and_then(|c| c.as_array()).expect("cells");
    assert_eq!(cells.len(), 4);
    for cell in cells {
        assert_eq!(cell.get("spec").and_then(|s| s.as_str()), Some("ex"));
        assert!(cell.get("latency").and_then(|l| l.as_u64()).is_some());
        assert!(cell.get("balance").and_then(|b| b.as_bool()).is_some());
        assert_eq!(cell.get("ok").and_then(|o| o.as_bool()), Some(true));
        assert_eq!(cell.get("key").and_then(|k| k.as_str()).map(str::len), Some(32));
    }
    let stats = v.get("stats").expect("stats");
    assert_eq!(stats.get("jobs").and_then(|j| j.as_u64()), Some(4));
    assert!(stats.get("hit_rate_pct").and_then(|h| h.as_f64()).is_some());
}

/// Acceptance for the staged pipeline: a full Study grid run through the
/// stage-cached engine serializes byte-identically to the same grid run
/// through the monolithic `compare` path (caching disabled), once the run
/// shape is normalized away (`cache_entries` included — a disabled cache
/// legitimately cannot accrue resident entries). Every result byte
/// (cycle lengths, areas, op counts, keys, cell order) must agree.
#[test]
fn staged_grid_report_matches_monolithic_byte_for_byte() {
    use bittrans_engine::report::normalize_run_shape;

    let study = Study::over([three_adds(), mac()])
        .latencies([3, 4, 5])
        .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
        .verify_vectors([8]);
    let staged = study.run(&Engine::default());
    let monolithic = study.run(&Engine::new(EngineOptions { cache: false, ..Default::default() }));

    // The staged run actually exercised the stage tables; the monolithic
    // run never touched it.
    assert!(staged.stats.stage_misses > 0);
    assert!(staged.stats.stage_hits > 0, "grid axes must share stage prefixes");
    assert_eq!(monolithic.stats.stage_hits + monolithic.stats.stage_misses, 0);

    let a = normalize_run_shape(&staged.to_json());
    let b = normalize_run_shape(&monolithic.to_json());
    assert_eq!(a, b, "staged and monolithic grid reports must be byte-identical");
}
