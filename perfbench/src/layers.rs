//! Per-layer measurements shared by every workload's traced run.
//!
//! * [`replay_stages`] calls each `bittrans_core::stage_*` function once
//!   per distinct input the engine's stage memo would compute for a job
//!   list, each call inside its own span, so stage time and call counts are
//!   measured at the stage boundary rather than inferred.
//! * [`probe_engine`] runs a workload's requests cold on a fresh store,
//!   cold without a store and warm from the store, giving the executor,
//!   stage-cache and persistence numbers.

use crate::spans::Recorder;
use crate::stats::{median, ms, pct};
use crate::Metrics;
use bittrans_core::{
    stage_allocate, stage_extract, stage_fragment, stage_schedule_conventional,
    stage_schedule_fragments, stage_time, stage_verify, Chaining,
};
use bittrans_engine::{Engine, EngineOptions, EngineStats, Job};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Worker threads of every engine and server the benchmark starts: the
/// load comes from one process using at most the host's two cores.
pub const WORKERS: usize = 2;

/// Engine options of every engine the benchmark opens.
pub fn engine_options() -> EngineOptions {
    EngineOptions { workers: Some(WORKERS), cache: true }
}

/// Span names of the stage layers, in pipeline order.
const STAGES: [&str; 7] = [
    "kernel.extract",
    "frag.fragment",
    "sim.verify",
    "sched.conventional",
    "sched.fragments",
    "alloc.allocate",
    "timing.time",
];

fn memo<K: Eq + Hash, V: Clone>(map: &mut HashMap<K, V>, key: K, f: impl FnOnce() -> V) -> V {
    map.entry(key).or_insert_with(f).clone()
}

/// Runs every stage the stage memo would compute for `jobs`, in the order
/// `engine::stagecache` resolves them (baseline flow, then the optimized
/// flow, stopping a job at its first error), once per distinct stage key.
/// Adds each stage's `_ms`, `_calls` and `_share_pct` to `metrics`, plus
/// `sim.verify_us_per_eval` (per random vector checked) and
/// `alloc.allocate_us_per_call`.
pub fn replay_stages(jobs: &[Job], rec: &Recorder, parent: u64, metrics: &mut Metrics) {
    let mut sched_base = HashMap::new();
    let mut alloc_base = HashMap::new();
    let mut time_base = HashSet::new();
    let mut extract = HashMap::new();
    let mut fragment = HashMap::new();
    let mut verify = HashMap::new();
    let mut sched_frag = HashMap::new();
    let mut alloc_frag = HashMap::new();
    let mut time_frag = HashSet::new();
    let mut evals = 0u64;

    let (_, _) = rec.time("layers.replay", parent, |replay| {
        for job in jobs {
            let (spec, latency, options) = (&job.spec, job.latency, &job.options);
            let spec_text = spec.to_string();
            let base_key = (spec_text.clone(), latency, options.balance);
            let Some(base_sched) = memo(&mut sched_base, base_key.clone(), || {
                rec.time("sched.conventional", replay, |_| {
                    stage_schedule_conventional(
                        spec,
                        latency,
                        Chaining::ComponentSum,
                        options.balance,
                    )
                    .ok()
                    .map(Arc::new)
                })
                .0
            }) else {
                continue;
            };
            let base_alloc_key = (base_key, options.adder_arch.code());
            let base_dp = memo(&mut alloc_base, base_alloc_key.clone(), || {
                Arc::new(
                    rec.time("alloc.allocate", replay, |_| {
                        stage_allocate(spec, &base_sched, options.adder_arch)
                    })
                    .0,
                )
            });
            let timing = (options.timing.delta_ns.to_bits(), options.timing.overhead_ns.to_bits());
            if time_base.insert((base_alloc_key, timing)) {
                rec.time("timing.time", replay, |_| {
                    stage_time(spec.name(), spec, &base_sched, &base_dp, &options.timing)
                });
            }

            let Some(kernel) = memo(&mut extract, spec_text.clone(), || {
                rec.time("kernel.extract", replay, |_| stage_extract(spec).ok().map(Arc::new)).0
            }) else {
                continue;
            };
            let kernel_text = kernel.to_string();
            let Some(fragmented) = memo(&mut fragment, (kernel_text.clone(), latency), || {
                rec.time("frag.fragment", replay, |_| {
                    stage_fragment(&kernel, latency).ok().map(Arc::new)
                })
                .0
            }) else {
                continue;
            };
            if options.verify_vectors > 0 {
                let key = (spec_text, fragmented.spec.to_string(), options.verify_vectors);
                let verified = memo(&mut verify, key, || {
                    evals += options.verify_vectors as u64;
                    rec.time("sim.verify", replay, |_| {
                        stage_verify(spec, &fragmented.spec, options.verify_vectors).is_ok()
                    })
                    .0
                });
                if !verified {
                    continue;
                }
            }
            let frag_key = (kernel_text, latency, options.balance);
            let Some(frag_sched) = memo(&mut sched_frag, frag_key.clone(), || {
                rec.time("sched.fragments", replay, |_| {
                    stage_schedule_fragments(&fragmented, options.balance).ok().map(Arc::new)
                })
                .0
            }) else {
                continue;
            };
            let frag_alloc_key = (frag_key, options.adder_arch.code());
            let frag_dp = memo(&mut alloc_frag, frag_alloc_key.clone(), || {
                Arc::new(
                    rec.time("alloc.allocate", replay, |_| {
                        stage_allocate(&fragmented.spec, &frag_sched, options.adder_arch)
                    })
                    .0,
                )
            });
            if time_frag.insert((spec.name().to_string(), frag_alloc_key, timing)) {
                rec.time("timing.time", replay, |_| {
                    stage_time(
                        spec.name(),
                        &fragmented.spec,
                        &frag_sched,
                        &frag_dp,
                        &options.timing,
                    )
                });
            }
        }
    });

    let spans = rec.spans();
    let per_stage: Vec<(f64, u64)> = STAGES
        .iter()
        .map(|&name| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .fold((0.0, 0), |(total, calls), s| (total + s.dur_ns() as f64 / 1e6, calls + 1))
        })
        .collect();
    let all_ms: f64 = per_stage.iter().map(|&(total, _)| total).sum();
    for (name, &(total, calls)) in STAGES.iter().zip(&per_stage) {
        metrics.insert(format!("{name}_ms"), total);
        metrics.insert(format!("{name}_calls"), calls as f64);
        metrics.insert(format!("{name}_share_pct"), pct(total, all_ms));
    }
    let (verify_ms, _) = per_stage[2];
    let (alloc_ms, alloc_calls) = per_stage[5];
    metrics.insert("sim.verify_us_per_eval".into(), per_unit_us(verify_ms, evals));
    metrics.insert("alloc.allocate_us_per_call".into(), per_unit_us(alloc_ms, alloc_calls));
}

fn per_unit_us(total_ms: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total_ms * 1e3 / units as f64
    }
}

/// Warm restarts [`probe_engine`] takes the median of.
const WARM_PROBES: usize = 9;

/// Runs a workload's requests (`run`, returning the summed statistics of
/// the batches it ran) through fresh engines: cold on a new store under a
/// stage observer, cold without a store, and warm from the store. Adds
/// the `engine.executor.*`, `engine.stagecache.*` and `engine.persist.*`
/// metrics, and returns the wall time of the cold run on a fresh store.
pub fn probe_engine(
    rec: &Recorder,
    parent: u64,
    work: &Path,
    run: &dyn Fn(&Engine) -> EngineStats,
    metrics: &mut Metrics,
) -> std::io::Result<f64> {
    let store = work.join("probe-store");
    let _ = std::fs::remove_dir_all(&store);
    let engine = Engine::new(engine_options()).with_cache_dir(&store)?;
    // The observer is a second trace collector: it only ever runs here,
    // in a traced run, never while a timed run measures.
    let stage_ns = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&stage_ns);
    bittrans_core::stage::set_observer(move |_, d| {
        sink.fetch_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    });
    let (stats, cold) = rec.time("engine.cold_with_store", parent, |_| run(&engine));
    bittrans_core::stage::clear_observer();
    drop(engine);
    let (files, bytes) = dir_usage(&store);

    let (_, cold_memory) = rec.time("engine.cold_without_store", parent, |_| {
        run(&Engine::new(engine_options()));
    });

    let mut opens = Vec::new();
    let mut warms = Vec::new();
    for _ in 0..WARM_PROBES {
        let (engine, open) = rec.time("engine.persist.open", parent, |_| {
            Engine::new(engine_options()).with_cache_dir(&store)
        });
        let engine = engine?;
        let (_, warm) = rec.time("engine.warm_run", parent, |_| run(&engine));
        opens.push(ms(open));
        warms.push(ms(warm));
    }
    let _ = std::fs::remove_dir_all(&store);

    let stage_ms = stage_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let cold_ms = ms(cold);
    metrics.insert("engine.executor.wall_ms".into(), cold_ms);
    metrics.insert(
        "engine.executor.efficiency".into(),
        if cold_ms > 0.0 { stage_ms / (cold_ms * WORKERS as f64) } else { 0.0 },
    );
    metrics.insert("engine.stagecache.hits".into(), stats.stage_hits as f64);
    metrics.insert("engine.stagecache.misses".into(), stats.stage_misses as f64);
    metrics.insert(
        "engine.stagecache.hit_pct".into(),
        pct(stats.stage_hits as f64, (stats.stage_hits + stats.stage_misses) as f64),
    );
    metrics.insert("engine.persist.files_written".into(), files as f64);
    metrics.insert("engine.persist.bytes_written".into(), bytes as f64);
    metrics.insert("engine.persist.spill_ms".into(), cold_ms - ms(cold_memory));
    metrics.insert("engine.persist.open_ms".into(), median(&opens));
    metrics.insert("engine.persist.warm_run_ms".into(), median(&warms));
    Ok(cold_ms)
}

/// Files and bytes under `dir`, recursively.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return (0, 0) };
    entries.flatten().fold((0, 0), |(files, bytes), entry| match entry.metadata() {
        Ok(meta) if meta.is_dir() => {
            let (f, b) = dir_usage(&entry.path());
            (files + f, bytes + b)
        }
        Ok(meta) => (files + 1, bytes + meta.len()),
        Err(_) => (files, bytes),
    })
}
