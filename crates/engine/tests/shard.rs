//! The sharding protocol, tested hermetically (no real `bittrans` binary):
//!
//! * **partitioning is total and disjoint** — property tests over random
//!   job lists and shard counts: every key lands in exactly one shard,
//!   the union of the shards is the input, and every stage-sharing group
//!   lands whole in one shard;
//! * **shard requests roundtrip** — a request serialized by the
//!   coordinator re-derives the identical job slice on the serve side;
//! * **the coordinator survives a fleet that never answers** — with dead
//!   loopback endpoints or none at all, over a cold, warm or corrupt
//!   store, the assembled report is bit-identical to the single-process
//!   run.

mod support;

use bittrans_core::CompareOptions;
use bittrans_engine::shard::{
    partition, run_sharded, shard_slice, RemoteTransport, ShardOptions, ShardedStudy, Transport,
};
use bittrans_engine::{Engine, EngineOptions, Job, JobKey, StudyReport};
use bittrans_rtl::AdderArch;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;
use support::dead_endpoint;

/// A tiny deterministic generator (xorshift64*) so perturbations are
/// reproducible from the proptest-drawn seed alone.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but always-parseable specification source: a chain of additive
/// operations over a few 16-bit inputs.
fn random_source(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let inputs = 2 + g.pick(3) as usize;
    let ops = 2 + g.pick(4) as usize;
    let mut src = format!("spec p{seed} {{ ");
    for i in 0..inputs {
        src.push_str(&format!("input a{i}: u16; "));
    }
    let mut names: Vec<String> = (0..inputs).map(|i| format!("a{i}")).collect();
    for t in 0..ops {
        let lhs = &names[g.pick(names.len() as u64) as usize];
        let rhs = &names[g.pick(names.len() as u64) as usize];
        src.push_str(&format!("t{t}: u16 = {lhs} + {rhs}; "));
        names.push(format!("t{t}"));
    }
    src.push_str(&format!("output t{}; }}", ops - 1));
    src
}

/// A random study over `specs` sources and a random latency window.
fn random_study(seed: u64) -> ShardedStudy {
    let mut g = Gen::new(seed ^ 0xabcd);
    let sources: Vec<String> =
        (0..1 + g.pick(4)).map(|i| random_source(seed.wrapping_add(i * 7919))).collect();
    let lo = 1 + g.pick(4) as u32;
    let latencies: Vec<u32> = (lo..lo + 1 + g.pick(5) as u32).collect();
    ShardedStudy {
        sources,
        latencies,
        adder_archs: (g.pick(2) == 0)
            .then(|| vec![AdderArch::RippleCarry, AdderArch::CarryLookahead]),
        balance: (g.pick(2) == 0).then(|| vec![true, false]),
        verify_vectors: None,
        base: CompareOptions { verify_vectors: 0, ..Default::default() },
    }
}

/// The keys of one shard's slice, in slice order.
fn slice_keys(study: &ShardedStudy, index: usize, count: usize) -> Vec<JobKey> {
    shard_slice(&study.study().unwrap(), index, count).iter().map(|j| j.key()).collect()
}

/// Runs shards `indices` of `count` in-process over `dir`, filling the
/// store exactly as the shard requests of a healthy fleet would.
fn fill_store(study: &ShardedStudy, indices: std::ops::Range<usize>, count: usize, dir: &Path) {
    let engine =
        Engine::new(EngineOptions { workers: Some(1), cache: true }).with_cache_dir(dir).unwrap();
    for index in indices {
        engine.run(shard_slice(&study.study().unwrap(), index, count));
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_shard_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sorted_keys(study: &ShardedStudy) -> Vec<JobKey> {
    let mut keys: Vec<JobKey> =
        study.study().unwrap().distinct_jobs().iter().map(|j| j.key()).collect();
    keys.sort();
    keys
}

/// The per-cell JSON of a report — everything except the run-shape stats
/// (workers, elapsed), so two runs that computed identical results compare
/// equal byte for byte.
fn cells_json(report: &StudyReport) -> String {
    serde_json::to_string(&report.cells).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Index-range partitioning covers `0..len` exactly once for any
    /// length and shard count.
    #[test]
    fn prop_partition_is_total_and_disjoint(len in 0usize..4000, shards in 1usize..64) {
        let ranges = partition(len, shards);
        prop_assert_eq!(ranges.len(), shards);
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for range in &ranges {
            prop_assert_eq!(range.start, cursor, "ranges must be contiguous");
            prop_assert!(range.end >= range.start);
            covered += range.len();
            cursor = range.end;
        }
        prop_assert_eq!(cursor, len);
        prop_assert_eq!(covered, len);
    }

    /// For random job lists and any K, every `JobKey` lands in exactly one
    /// shard and the union of the shards equals the deduplicated input.
    #[test]
    fn prop_shards_cover_every_key_exactly_once(seed in 0u64..500, shards in 1usize..9) {
        let study = random_study(seed);
        let all = sorted_keys(&study);
        let mut seen: Vec<JobKey> = Vec::new();
        let mut per_shard: Vec<HashSet<JobKey>> = Vec::new();
        for index in 0..shards {
            let slice = slice_keys(&study, index, shards);
            let keys: HashSet<JobKey> = slice.iter().copied().collect();
            prop_assert_eq!(keys.len(), slice.len(), "a shard never repeats a key");
            seen.extend(keys.iter().copied());
            per_shard.push(keys);
        }
        // Disjoint: no key in two shards.
        for a in 0..per_shard.len() {
            for b in a + 1..per_shard.len() {
                prop_assert!(per_shard[a].is_disjoint(&per_shard[b]));
            }
        }
        // Total: the union is the deduplicated grid.
        seen.sort();
        prop_assert_eq!(seen, all);
    }

    /// Shards are cut between stage-sharing groups only — the jobs of one
    /// (spec, λ, verify vectors) coordinate, which differ in adder and
    /// balance alone — so every group lands whole in exactly one shard.
    #[test]
    fn prop_every_group_lands_in_exactly_one_shard(seed in 0u64..500, shards in 1usize..9) {
        let study = random_study(seed).study().unwrap();
        let group = |job: &Job| (job.spec.to_string(), job.latency, job.options.verify_vectors);
        let mut home: HashMap<_, HashSet<usize>> = HashMap::new();
        for index in 0..shards {
            for job in shard_slice(&study, index, shards) {
                home.entry(group(&job)).or_default().insert(index);
            }
        }
        let groups: HashSet<_> = study.distinct_jobs().iter().map(group).collect();
        prop_assert_eq!(home.len(), groups.len(), "every group is served");
        for (group, shards_of) in &home {
            prop_assert_eq!(shards_of.len(), 1, "group {:?} split over {:?}", group, shards_of);
        }
    }

    /// A shard request read back the way `serve` reads it — study body
    /// through `ShardedStudy::from_value`, coordinates off the object —
    /// re-derives the identical job slice.
    #[test]
    fn prop_shard_requests_rederive_the_slice(seed in 0u64..300, shards in 1usize..5) {
        let study = random_study(seed);
        for index in 0..shards {
            let value: serde_json::Value =
                serde_json::from_str(&study.shard_request(index, shards)).unwrap();
            let coord = |key: &str| value.get(key).and_then(|v| v.as_u64()).unwrap() as usize;
            prop_assert_eq!((coord("shard_index"), coord("shard_count")), (index, shards));
            let back = ShardedStudy::from_value(&value).unwrap();
            prop_assert_eq!(
                back.base.timing.delta_ns.to_bits(),
                study.base.timing.delta_ns.to_bits()
            );
            prop_assert_eq!(slice_keys(&back, index, shards), slice_keys(&study, index, shards));
        }
    }
}

fn reference_report(study: &ShardedStudy) -> StudyReport {
    study.study().unwrap().run(&Engine::default())
}

/// Shards sent to `endpoints` under a short deadline: dead loopback
/// endpoints refuse at once, so the deadline is never reached.
fn options(endpoints: Vec<String>, shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        transport: Transport::Remote(RemoteTransport {
            endpoints,
            timeout: Duration::from_secs(5),
        }),
    }
}

/// A fleet of `count` endpoints where nothing listens.
fn dead_fleet(count: usize) -> Vec<String> {
    (0..count).map(|_| dead_endpoint()).collect()
}

#[test]
fn dead_fleet_is_recomputed_in_process() {
    let study = random_study(42);
    let dir = temp_dir("all_dead");
    // Every endpoint refuses: every shard fails, nothing reaches the
    // store, and the coordinator must retry the full job list in-process.
    let run = run_sharded(&study, &dir, &options(dead_fleet(3), 3)).unwrap();
    let distinct = study.study().unwrap().distinct_jobs().len();
    assert_eq!(run.failed.len(), run.shard_stats.len());
    assert!(run.shard_stats.iter().all(Option::is_none));
    assert_eq!(run.retried.len(), distinct);
    assert_eq!(run.merged.jobs, distinct as u64);
    assert_eq!(run.merged.cache_hits + run.merged.cache_misses, run.merged.jobs);
    // The report is still bit-identical to the single-process run.
    assert_eq!(cells_json(&run.report), cells_json(&reference_report(&study)));
    assert_eq!(run.report.stats.jobs, distinct as u64);
    assert_eq!(run.report.stats.cache_misses, distinct as u64);
    assert_eq!(run.report.stats.cache_hits, 0);
}

#[test]
fn empty_fleet_is_recomputed_in_process() {
    let study = random_study(43);
    let dir = temp_dir("no_endpoints");
    // No endpoint at all is no more a fleet than a dead one: every shard
    // is recomputed.
    let run = run_sharded(&study, &dir, &options(Vec::new(), 2)).unwrap();
    assert!(!run.shard_stats.is_empty());
    assert_eq!(run.failed, (0..run.shard_stats.len()).collect::<Vec<_>>());
    assert_eq!(run.retried.len(), study.study().unwrap().distinct_jobs().len());
    assert_eq!(cells_json(&run.report), cells_json(&reference_report(&study)));
}

#[test]
fn the_shard_count_is_clamped_to_the_groups() {
    // 2 latencies × 2 adders × balance both over one spec: 2 groups of 4.
    let study = ShardedStudy {
        sources: vec![random_source(45)],
        latencies: vec![3, 4],
        adder_archs: Some(vec![AdderArch::RippleCarry, AdderArch::CarryLookahead]),
        balance: Some(vec![true, false]),
        ..random_study(45)
    };
    let dir = temp_dir("clamp");
    let run = run_sharded(&study, &dir, &options(dead_fleet(1), 16)).unwrap();
    assert_eq!(run.shard_stats.len(), 2, "one shard per group");
    assert_eq!(run.failed, vec![0, 1]);
    assert_eq!(cells_json(&run.report), cells_json(&reference_report(&study)));
}

#[test]
fn workers_fill_the_store_and_the_coordinator_reassembles_it() {
    let study = random_study(44);
    let dir = temp_dir("warm");
    // Run every shard in-process first — the store ends up fully
    // populated, exactly as if a healthy fleet had run.
    fill_store(&study, 0..2, 2, &dir);
    // The coordinator's fleet is dead, but the store already holds every
    // comparison: nothing is retried, and every cell reports from_cache.
    let run = run_sharded(&study, &dir, &options(dead_fleet(2), 2)).unwrap();
    assert!(run.retried.is_empty());
    assert!(run.report.cells.iter().all(|c| c.from_cache));
    assert_eq!(run.report.stats.cache_misses, run.report.stats.jobs - run.report.stats.cache_hits);
    // Reference: a single-process warm run over the same store.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let reference = study.study().unwrap().run(&warm);
    assert_eq!(cells_json(&run.report), cells_json(&reference));
}

#[test]
fn corrupt_preloaded_entry_does_not_break_bit_identity() {
    let study = random_study(47);
    // Two identical warm stores...
    let (dir_a, dir_b) = (temp_dir("corrupt_a"), temp_dir("corrupt_b"));
    for dir in [&dir_a, &dir_b] {
        fill_store(&study, 0..1, 1, dir);
    }
    // ...each with the same job file overwritten with garbage of the
    // same length.
    let victim_key = sorted_keys(&study)[0];
    for dir in [&dir_a, &dir_b] {
        let victim = dir.join("stages").join(format!("{victim_key}.stage"));
        let size = std::fs::metadata(&victim).unwrap().len() as usize;
        std::fs::write(&victim, " ".repeat(size)).unwrap();
    }
    // The sharded run must classify the corrupt key exactly like the
    // single-process run: a recomputed miss, not a from_cache hit.
    let run = run_sharded(&study, &dir_a, &options(dead_fleet(2), 2)).unwrap();
    let warm = Engine::default().with_cache_dir(&dir_b).unwrap();
    let reference = study.study().unwrap().run(&warm);
    assert_eq!(cells_json(&run.report), cells_json(&reference));
    assert_eq!(run.report.stats.cache_hits, reference.stats.cache_hits);
    assert_eq!(run.report.stats.cache_misses, reference.stats.cache_misses);
    assert_eq!(run.report.stats.cache_entries, reference.stats.cache_entries);
    let victim_cell =
        run.report.cells.iter().find(|cell| cell.key == victim_key).expect("victim in grid");
    assert!(!victim_cell.from_cache, "a corrupt entry is not a cache hit");
}
