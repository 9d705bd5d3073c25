//! Cross-process cache persistence: two engines sharing a cache directory
//! model two CLI/CI invocations — the second must be served from disk with
//! bit-identical results, and duplicate/infeasible jobs must keep their
//! accounting semantics along the way. The directory's one store is
//! `stages/`: it holds one `job` file per finished job and nothing else,
//! opening reads nothing, and `Engine::prune_cache` sweeps the store by
//! size/age without touching what a live run pins.

use bittrans_core::CompareOptions;
use bittrans_engine::{Engine, EngineOptions, EngineStats, Job, PrunePolicy, PruneReport, Study};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::path::{Path, PathBuf};

fn three_adds() -> Spec {
    Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_engine_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The envelope line of a finished job's file.
const JOB_ENVELOPE: &str = "bittrans-stage 2 job ok";

/// Every file of the store (`stages/`), sorted by name.
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir.join("stages")) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    files.sort();
    files
}

/// The store's `job` files: those whose envelope names the `job` stage.
fn job_files(dir: &Path) -> Vec<PathBuf> {
    store_files(dir)
        .into_iter()
        .filter(|p| {
            std::fs::read_to_string(p).is_ok_and(|t| t.lines().next() == Some(JOB_ENVELOPE))
        })
        .collect()
}

/// The job file `key` persists to.
fn job_file(dir: &Path, job: &Job) -> PathBuf {
    dir.join("stages").join(format!("{}.stage", job.key()))
}

/// The job a `populate`d study ran at `latency` (same options as the
/// study's cells, so the content keys agree).
fn populated_job(latency: u32) -> Job {
    Job::with_options(
        three_adds(),
        latency,
        CompareOptions { verify_vectors: 0, ..Default::default() },
    )
}

fn populate(dir: &Path, latencies: std::ops::RangeInclusive<u32>) -> usize {
    let engine = Engine::default().with_cache_dir(dir).unwrap();
    let report = Study::single(three_adds()).latencies(latencies).verify_vectors([0]).run(&engine);
    report.cells.len()
}

#[test]
fn warm_cache_dir_serves_a_fresh_engine_entirely_from_disk() {
    let dir = temp_dir("warm");
    let spec = three_adds();
    let study = Study::single(spec).latencies(2..=5).verify_vectors([0]);

    // First "process": cold cache, all misses, one job file per result.
    let cold = Engine::default().with_cache_dir(&dir).unwrap();
    let first = study.run(&cold);
    assert_eq!(first.stats.cache_misses, 4);
    assert_eq!(job_files(&dir).len(), 4);
    assert_eq!(store_files(&dir), job_files(&dir), "the store holds job files only");
    // The store is the directory's only content: no manifest, no
    // top-level entry files.
    let top: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(top, vec!["stages"]);

    // Second "process": a fresh engine loads each job file on lookup and
    // reports a 100 % hit rate with bit-identical results.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let second = study.run(&warm);
    assert_eq!(second.stats.cache_hits, 4);
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(second.stats.hit_rate(), 100.0);
    assert_eq!(second.stats.cache_entries, 4, "the grid's distinct keys");
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert!(b.from_cache);
        let (ca, cb) = (a.comparison().unwrap(), b.comparison().unwrap());
        assert_eq!(ca.optimized.cycle_ns.to_bits(), cb.optimized.cycle_ns.to_bits());
        assert_eq!(ca.original.cycle_ns.to_bits(), cb.original.cycle_ns.to_bits());
        assert_eq!(ca.optimized.area.total(), cb.optimized.area.total());
        assert_eq!(ca.original.op_count, cb.original.op_count);
    }

    // Third "process" with the job files deleted: stages are not stored,
    // so every job recomputes all three of its stages, to the same cells.
    for file in job_files(&dir) {
        std::fs::remove_file(file).unwrap();
    }
    let resumed = study.run(&Engine::default().with_cache_dir(&dir).unwrap());
    assert_eq!(resumed.stats.cache_misses, 4);
    assert_eq!(resumed.stats.stage_misses, 12, "{:?}", resumed.stats);
    let cells = |report: &bittrans_engine::StudyReport| {
        report.cells.iter().map(|c| c.comparison().unwrap().to_canonical()).collect::<Vec<_>>()
    };
    assert_eq!(cells(&resumed), cells(&first));
    assert_eq!(job_files(&dir).len(), 4, "the recompute respilled the job files");
}

#[test]
fn errors_are_not_persisted_but_successes_are() {
    let dir = temp_dir("errors");
    let spec = three_adds();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = engine.run(vec![Job::new(spec.clone(), 0), Job::new(spec, 3)]);
    assert!(report.cells[0].result.is_err());
    assert!(report.cells[1].result.is_ok());
    // Only the feasible job reached the directory.
    assert_eq!(job_files(&dir).len(), 1);

    // A fresh engine re-pays the error (miss) but not the success (hit).
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = engine.run(vec![
        Job::new(three_adds(), 0),
        Job::new(three_adds(), 3),
        Job::new(three_adds(), 3),
    ]);
    assert_eq!(report.stats.cache_misses, 1);
    // One hit from disk plus one in-batch duplicate hit.
    assert_eq!(report.stats.cache_hits, 2);
}

#[test]
fn corrupt_job_files_are_recomputed_and_repaired() {
    let dir = temp_dir("repair");
    let jobs = vec![populated_job(3)];
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    engine.run(jobs.clone());
    let entry = job_file(&dir, &jobs[0]);
    std::fs::write(&entry, "definitely not a stage file").unwrap();

    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = engine.run(jobs);
    // The damaged file is never served: recomputed as a miss...
    assert_eq!(report.stats.cache_misses, 1);
    assert!(report.cells[0].result.is_ok());
    // ...and the spill has overwritten it with a valid job file again.
    let text = std::fs::read_to_string(&entry).unwrap();
    assert!(text.starts_with(JOB_ENVELOPE), "{text}");
}

#[test]
fn opening_never_reads_an_unrequested_corrupt_job_file() {
    let dir = temp_dir("lazy");
    populate(&dir, 2..=5);
    // Corrupt the λ=2 job file — if opening read every file, the
    // corruption would be noticed (and the file deleted) up front.
    let victim = job_file(&dir, &populated_job(2));
    let size = std::fs::metadata(&victim).unwrap().len() as usize;
    std::fs::write(&victim, " ".repeat(size)).unwrap();

    // A fresh engine opens the directory and serves *other* keys without
    // ever reading the corrupt file.
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = Study::single(three_adds()).latencies(3..=5).verify_vectors([0]).run(&engine);
    assert_eq!(report.stats.cache_hits, 3);
    let untouched = std::fs::read_to_string(&victim).unwrap();
    assert!(untouched.chars().all(|c| c == ' '), "opening must not have touched the file");

    // Asking for every key finally trips over the corruption: exactly one
    // recomputation, and the respill repairs the file.
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = Study::single(three_adds()).latencies(2..=5).verify_vectors([0]).run(&engine);
    assert_eq!(report.stats.cache_misses, 1);
    assert_eq!(report.stats.cache_hits, 3);
    assert!(std::fs::read_to_string(&victim).unwrap().starts_with(JOB_ENVELOPE));
}

#[test]
fn prune_never_touches_files_pinned_by_a_live_run() {
    let dir = temp_dir("pinned");
    populate(&dir, 2..=5);

    // A live engine that computed everything it wrote pins all of it:
    // its jobs are resident in its memo.
    let cold_dir = temp_dir("pinned_cold");
    let cold = Engine::default().with_cache_dir(&cold_dir).unwrap();
    Study::single(three_adds()).latencies(2..=5).verify_vectors([0]).run(&cold);
    let written = store_files(&cold_dir).len();
    let report = cold.prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!((report.removed, report.pinned, report.kept), (0, written, written));

    // A live engine whose memo holds two of the four results
    // (loaded from their job files; no stage was consulted).
    let live = Engine::default().with_cache_dir(&dir).unwrap();
    live.run(vec![populated_job(2), populated_job(3)]);

    // An impossible budget: everything unpinned goes, the live run's two
    // job files survive.
    let scanned = store_files(&dir).len();
    let report = live.prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!(report.scanned, scanned);
    assert_eq!(report.removed, scanned - 2);
    assert_eq!(report.pinned, 2);
    assert_eq!(report.kept, 2);
    assert_eq!(store_files(&dir).len(), report.kept, "the report matches the directory");
    let mut expected = vec![job_file(&dir, &populated_job(2)), job_file(&dir, &populated_job(3))];
    expected.sort();
    assert_eq!(job_files(&dir), expected, "the surviving files are exactly the live run's keys");

    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let batch = warm.run(vec![populated_job(2), populated_job(3)]);
    assert_eq!(batch.stats.cache_hits, 2);
}

#[test]
fn prune_with_no_live_run_can_empty_the_directory() {
    let dir = temp_dir("empty");
    populate(&dir, 2..=5);
    let scanned = store_files(&dir).len();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    // Nothing resident in memory: nothing is pinned.
    let report = engine.prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!(report.scanned, scanned);
    assert_eq!(report.removed, scanned);
    assert_eq!((report.kept, report.kept_bytes, report.pinned), (0, 0, 0));
    assert!(report.freed_bytes > 0);
    assert!(store_files(&dir).is_empty());
    // The default policy is a no-op.
    let report = engine.prune_cache(PrunePolicy::default()).unwrap();
    assert_eq!(report.removed, 0);
}

/// `cache prune --json` prints the declared fields in declaration order.
#[test]
fn prune_report_json_is_pinned() {
    let report = PruneReport {
        scanned: 6,
        removed: 2,
        freed_bytes: 300,
        kept: 4,
        kept_bytes: 500,
        pinned: 1,
    };
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        "{\"scanned\":6,\"removed\":2,\"freed_bytes\":300,\"kept\":4,\"kept_bytes\":500,\
         \"pinned\":1}"
    );
}

#[test]
fn prune_requires_an_attached_directory() {
    let engine = Engine::default();
    assert!(engine.prune_cache(PrunePolicy::default()).is_err());
    // A disabled cache attaches no store either.
    let disabled = Engine::new(EngineOptions { cache: false, ..Default::default() })
        .with_cache_dir(temp_dir("prune_disabled"))
        .unwrap();
    assert!(disabled.prune_cache(PrunePolicy::default()).is_err());
}

#[test]
fn fresh_files_survive_an_age_bound() {
    let dir = temp_dir("age");
    populate(&dir, 2..=4);
    let files = store_files(&dir).len();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    // Everything was written milliseconds ago: a one-hour bound keeps all.
    let policy =
        PrunePolicy { max_age: Some(std::time::Duration::from_secs(3600)), max_bytes: None };
    let report = engine.prune_cache(policy).unwrap();
    assert_eq!(report.removed, 0);
    assert_eq!(report.kept, files);
    assert_eq!(store_files(&dir).len(), files);
}

#[test]
fn disabled_cache_never_touches_the_directory() {
    let dir = temp_dir("disabled");
    let engine = Engine::new(EngineOptions { cache: false, ..Default::default() })
        .with_cache_dir(&dir)
        .unwrap();
    engine.run(vec![Job::new(three_adds(), 3)]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

/// `Engine::stats` is one accumulator: its jobs, hits, misses and stage
/// counters are the sums of every call's own, over cold, warm,
/// duplicate-key and store-backed batches and `Study` runs on one engine.
#[test]
fn lifetime_counters_are_the_sums_of_every_call() {
    let dir = temp_dir("lifetime");
    populate(&dir, 2..=3);
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let calls = [
        // Store-backed: both jobs load from their files.
        engine.run(vec![populated_job(2), populated_job(3)]).stats,
        // Cold, then warm.
        engine.run(vec![populated_job(4), populated_job(5)]).stats,
        engine.run(vec![populated_job(4), populated_job(5)]).stats,
        // One key twice: a miss and a duplicate hit.
        engine.run(vec![populated_job(6), populated_job(6)]).stats,
        Study::single(three_adds()).latencies(3..=5).verify_vectors([0]).run(&engine).stats,
        // An adder axis: each λ's second adder hits every stage.
        Study::single(three_adds())
            .latencies(7..=8)
            .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
            .run(&engine)
            .stats,
    ];
    assert_eq!(calls[0].cache_hits, 2, "served from the store");
    assert_eq!(calls[2].cache_hits, 2, "served from the memo");
    assert_eq!((calls[3].cache_hits, calls[3].cache_misses), (1, 1));
    let total = EngineStats::merged(&calls);
    assert!(total.stage_hits > 0 && total.stage_misses > 0, "{total:?}");
    let lifetime = engine.stats();
    let counters =
        |s: &EngineStats| (s.jobs, s.cache_hits, s.cache_misses, s.stage_hits, s.stage_misses);
    assert_eq!(counters(&lifetime), counters(&total));
    // The snapshot's entries are the job results resident in the memo:
    // λ = 2..=6 without verification, 7 and 8 with it under two adders.
    assert_eq!(lifetime.cache_entries, 9);
    std::fs::remove_dir_all(&dir).unwrap();
}
