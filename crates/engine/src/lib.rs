//! # bittrans-engine
//!
//! A job-oriented, multi-threaded batch engine over the `bittrans-core`
//! presynthesis pipeline.
//!
//! Every entry point in `bittrans-core` runs one specification at one
//! latency on one thread. Real workloads — benchmark suites, latency
//! sweeps, design-space exploration over transformation options — run the
//! pipeline hundreds of times, and most of those runs repeat earlier ones
//! exactly (a sweep re-run with one changed spec, overlapping latency
//! ranges, the same spec under several reporting front ends). This crate
//! adds the three missing layers:
//!
//! * **parallelism** — a [`Job`] is a `spec × latency × options` triple;
//!   [`Engine::run`] fans a batch of jobs out across the engine's one
//!   fair worker pool ([`sched`]) — the same pool and the same execution
//!   routine the [`serve`] front end uses — one pool task per group of
//!   jobs that share their stages (the same spec, λ and verify vectors;
//!   largest spec first), and returns results in submission order, so
//!   batch output is deterministic regardless of worker count;
//! * **content-addressed caching** — every job is keyed by a stable hash
//!   of its canonicalized specification text, latency and options
//!   ([`key`]); finished jobs live in one bounded in-memory memo
//!   ([`stagecache`]) shared by all batches run on one engine, with
//!   hit/miss counters surfaced through [`EngineStats`]. A cache miss
//!   decomposes into pipeline stages (one verified transformation per
//!   stage-sharing group, one bound schedule per flow and balance
//!   setting), which the group's members share through a table their pool
//!   task owns and drops when it ends. Finished jobs optionally spill to a
//!   cache directory ([`Engine::with_cache_dir`]) — one content-addressed
//!   store, where the filesystem is the index — that later processes read
//!   per key and prune by size or age ([`Engine::prune_cache`]);
//! * **design-space exploration** — a [`Study`] spans a typed axis grid
//!   (specs × latencies × adder architectures × balancing × verification)
//!   and returns a [`StudyReport`] of labelled cells, replacing every
//!   hand-rolled sweep loop in the benches, examples and CLI — a Fig. 4
//!   latency sweep is the one-axis case, `Study::single(spec)
//!   .latencies(range).run(&engine)` read back through
//!   [`StudyReport::sweep_points`];
//! * **sharded multi-process execution** — [`shard::run_sharded`]
//!   cuts a study's stage-sharing groups, in grid order, across a fleet
//!   of running `serve` endpoints that share one cache directory, then
//!   merges their statistics and reassembles the exact single-process
//!   [`StudyReport`];
//! * **a long-running service** — [`serve::Server`] answers
//!   newline-delimited JSON study requests over TCP from one warm engine,
//!   so many clients share a single in-memory memo (backed by the cache
//!   directory) instead of each paying a cold start.
//!
//! ```
//! use bittrans_engine::{Engine, Job};
//! use bittrans_ir::Spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let engine = Engine::default();
//! let jobs: Vec<Job> = (2..=5).map(|lat| Job::new(spec.clone(), lat)).collect();
//!
//! let first = engine.run(jobs.clone());
//! assert_eq!(first.cells.len(), 4);
//! assert_eq!(first.stats.cache_hits, 0);
//!
//! // The same batch again: served entirely from the content-addressed
//! // cache, no pipeline work at all.
//! let again = engine.run(jobs);
//! assert_eq!(again.stats.cache_hits, 4);
//! assert_eq!(again.stats.hit_rate(), 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod job;
pub mod key;
mod persist;
pub mod proto;
pub mod report;
pub mod sched;
pub mod serve;
pub mod shard;
pub mod stagecache;
pub mod stats;
pub mod study;
pub mod trace;

pub use job::{Job, JobResult};
pub use key::JobKey;
pub use persist::{PrunePolicy, PruneReport};
pub use report::{StudyCell, StudyReport};
pub use serve::{ServeOptions, Server};
pub use stats::{EndpointStats, EngineStats, SchedStats, ServiceStats};
pub use study::Study;

use bittrans_core::compare;
use sched::Scheduler;
use stagecache::{Claim, GroupStages, JobMemo, Slot, StageTally};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;
use study::Grid;

/// Upper bound on a worker count taken from outside input (`--jobs`).
/// The engine's pool spawns one OS thread per worker, so a larger value
/// is a mistyped flag, never a machine this runs on.
pub const MAX_WORKERS: usize = 256;

/// Configuration of an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Worker threads. `None` uses [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
    /// Whether results are cached across jobs and batches.
    pub cache: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { workers: None, cache: true }
    }
}

/// The batch-optimization engine: one fair worker pool plus one
/// content-addressed memo of job results, shared by every batch and
/// `serve` request run through it, whose finished jobs optionally spill
/// to disk ([`Engine::with_cache_dir`]) so separate processes share them
/// too.
///
/// Every grid reaches the pipeline through one routine, `run_grid`, which
/// resolves its distinct jobs and labels its cells: [`Engine::run`],
/// [`Study::run`], the `serve` front end and a sharded run's coordinator
/// all call it, with a grid keyed and grouped once by the study module
/// (`study::Grid`).
/// The pool is a [`sched::Scheduler`] of [`Engine::worker_count`]
/// threads, started on the first job that must compute, so an engine
/// that only ever serves cache hits never spawns a thread. Concurrent
/// callers share it fairly — one fairness unit per call, granted a pool
/// task at a time, and a task is one stage-sharing group of the call's
/// jobs, so a grant runs at most that group's member count of jobs — and, with caching
/// on, share in-flight jobs: a job's memo slot is its in-flight
/// registration, so a key another call is computing right now is joined,
/// not recomputed, and counts as a hit.
#[derive(Debug, Default)]
pub struct Engine {
    shared: Arc<Shared>,
    pool: OnceLock<Scheduler>,
}

/// Everything the pool's tasks touch. Scheduler tasks are `'static`, so
/// they hold this through an `Arc` rather than borrowing the engine.
#[derive(Debug, Default)]
struct Shared {
    options: EngineOptions,
    /// The one memo: finished jobs keyed by their inputs, shared by every
    /// batch and serve request, plus the cache directory's on-disk store
    /// of them when one is attached ([`stagecache`]).
    /// A job's slot, claimed unset, is also its in-flight registration:
    /// other calls wanting the key wait on it instead of recomputing.
    memo: JobMemo,
    /// Lifetime counters: every `run_grid` call with caching on adds its
    /// stats once, at its end ([`Engine::stats`]).
    lifetime: Mutex<EngineStats>,
}

impl Shared {
    /// Runs one owned job of a group task in its own `exec.task` span: it
    /// computes the job, emits its `computed` event and lands the result
    /// (cached and spilled), or abandons the job's slot if it panics.
    ///
    /// With caching on, the job runs through its group's stage table
    /// ([`GroupStages::compare_staged`]), recording stage hits and misses
    /// into `tally`; without, through the monolithic pipeline. Both paths
    /// compose the same `bittrans-core` stage functions in the same order,
    /// so their results are bit-identical.
    fn execute(
        &self,
        member: &Member,
        stages: &mut Option<GroupStages>,
        tally: &StageTally,
        task: &TaskContext,
    ) -> Outcome {
        let Member { index, job, key, slot } = member;
        let outcome = {
            let _span = trace::span_under(task.parent, "exec.task", |a| {
                a.num("slot", *index as u64).num("group", task.group as u64).num(
                    "queue_ns",
                    u64::try_from(task.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            });
            catch_unwind(AssertUnwindSafe(|| {
                let result = Arc::new(match stages {
                    Some(stages) => {
                        stages.compare_staged(&job.spec, job.latency, &job.options, tally)
                    }
                    None => compare(&job.spec, job.latency, &job.options),
                });
                trace::event("job", |a| {
                    a.str("key", &key.to_string())
                        .str("provenance", "computed")
                        .flag("ok", result.is_ok());
                });
                // Landing, on the worker as each job finishes, so callers
                // waiting on the slot wake as early as possible.
                if self.options.cache {
                    self.memo.land(*key, slot, &result);
                }
                result
            }))
        };
        if outcome.is_err() {
            self.memo.abandon(*key, slot);
        }
        outcome
    }
}

/// A job's result, or the payload of its panic.
type Outcome = std::thread::Result<Arc<JobResult>>;

/// One owned job of a pool task: its index among the call's jobs, the job,
/// its key and memo slot.
struct Member {
    index: usize,
    job: Job,
    key: JobKey,
    slot: Slot,
}

/// One pool task's jobs — a stage-sharing group, or one job without
/// caching — and, with caching on, the group's stage table, which the
/// task owns and drops when it ends.
struct Group {
    members: Vec<Member>,
    stages: Option<GroupStages>,
}

/// What every `exec.task` span of one pool task records: the caller's
/// span, when the call submitted, and the task's index.
struct TaskContext {
    parent: u64,
    enqueued: Instant,
    group: usize,
}

/// Splits a call's owned jobs — `(index into grid.distinct, slot)` — into
/// its pool tasks: one per stage-sharing group of the grid with an empty
/// stage table, members in grid order, or one per job without caching,
/// where nothing is shared. Groups come largest spec first (by op count;
/// the sort is stable, so ties keep the order of their first owned job),
/// so the short groups are the last to start.
fn pool_tasks(owned: Vec<(usize, Slot)>, grid: &Grid, cache: bool) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut task_of: Vec<Option<usize>> = vec![None; grid.group_count()];
    for (index, slot) in owned {
        let group = grid.groups[index];
        let mut open = || {
            let stages = cache.then(|| GroupStages::new(grid.group_keys[group]));
            groups.push(Group { members: Vec::new(), stages });
            groups.len() - 1
        };
        let task = if cache { *task_of[group].get_or_insert_with(open) } else { open() };
        let at = grid.distinct[index];
        let member = Member { index, job: grid.cells[at].clone(), key: grid.keys[at], slot };
        groups[task].members.push(member);
    }
    groups.sort_by_key(|group| std::cmp::Reverse(group.members[0].job.spec.ops().len()));
    groups
}

impl Engine {
    /// An engine with the given options and an empty cache.
    pub fn new(options: EngineOptions) -> Self {
        Engine { shared: Arc::new(Shared { options, ..Shared::default() }), pool: OnceLock::new() }
    }

    /// Attaches a persistent cache directory. Its one store, the
    /// `stages/` subdirectory, holds one `job` file per finished job, each
    /// written by any earlier process through the canonical
    /// [`Comparison`](bittrans_core::Comparison) codec. Pipeline stages are
    /// not stored: they are shared within this process only, so a job
    /// without a file recomputes its stages. Opening reads nothing: a
    /// job's file is read on first lookup of its key, and every comparison
    /// this engine computes from here on is spilled back with an atomic
    /// rename. A repeated CLI or CI invocation over the same inputs is
    /// therefore served entirely from disk and reports a 100 % hit rate,
    /// without an upfront scan of the directory.
    ///
    /// A corrupt file is deleted on load: its job recomputes, a miss, and
    /// the respill repairs the file. A failed spill leaves
    /// the result in memory only — the cache is an optimization, never a
    /// correctness dependency. Only successful comparisons are persisted;
    /// pipeline errors are recomputed. Persistence is inert when
    /// [`EngineOptions::cache`] is false.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Tasks release their handle on the shared state before reporting
        // back, so between calls the engine owns it alone.
        let shared = Arc::get_mut(&mut self.shared).expect("no task outlives its run");
        if shared.options.cache {
            shared.memo.attach_disk(&dir);
        }
        Ok(self)
    }

    /// Whether a persistent cache directory is attached (and caching
    /// enabled) — i.e. whether this engine's results are visible to other
    /// processes sharing the store. The `serve` front end uses this to
    /// reject shard requests on a store-less server, whose work could
    /// never reach the dispatching coordinator.
    pub fn has_cache_dir(&self) -> bool {
        self.shared.memo.store().is_some()
    }

    /// Runs one eviction sweep over the attached cache directory's store:
    /// files older than [`PrunePolicy::max_age`] go first, then
    /// oldest-first until the store fits in [`PrunePolicy::max_bytes`].
    /// Files whose job is resident in this engine's memo are pinned — a
    /// live run never loses the files backing it.
    ///
    /// # Errors
    ///
    /// If no cache directory is attached ([`Engine::with_cache_dir`]), or
    /// deleting a file fails.
    pub fn prune_cache(&self, policy: PrunePolicy) -> std::io::Result<PruneReport> {
        let memo = &self.shared.memo;
        let store = memo.store().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no cache directory attached")
        })?;
        let pinned = memo.resident_keys();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        persist::prune(&store.files(), &policy, &pinned, now)
    }

    /// The number of worker threads in the engine's pool.
    pub fn worker_count(&self) -> usize {
        self.shared
            .options
            .workers
            .filter(|&w| w > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The pool's gauges (the `serve` front end's `{"stats": true}`
    /// payload); all zero but `workers` while the pool is not started.
    /// A task is one stage-sharing group of a call's computed jobs.
    pub fn sched_stats(&self) -> SchedStats {
        self.pool.get().map_or_else(
            || SchedStats { workers: self.worker_count(), ..SchedStats::default() },
            Scheduler::stats,
        )
    }

    /// Resolves a grid through the one execution path every front end
    /// shares, and labels every one of its cells, in order. The grid is
    /// keyed and grouped already ([`Study::grid`], [`Grid::of_jobs`],
    /// [`Grid::shard`]); what runs are its `distinct` jobs: a study's
    /// distinct keys, or — for [`Engine::run`] — every job, repeats
    /// included. `on_resolved` is called once per distinct key with its
    /// result and whether it was a hit — landed hits first, in slot order,
    /// then this call's computed keys as they finish, then the keys it
    /// joined.
    ///
    /// One hold of the memo lock claims every distinct key
    /// ([`stagecache::Claim`]): a landed slot is a `memory` hit, another
    /// call's unset slot is joined (`in-flight`, a hit), and an absent key
    /// gets a slot this call owns. Outside the lock, an owned key whose job
    /// file decodes lands from the store (a `disk` hit); the rest are
    /// misses. A repeat of a key is a `memory` hit when its first
    /// occurrence landed and a `duplicate` otherwise. Each hit is one `job`
    /// trace event whose provenance reconciles with the returned counters.
    ///
    /// The owned keys go to the pool as one fairness unit before any
    /// callback runs, so every owned slot is landed or abandoned whatever
    /// the callback does. They go as one pool task per group of the grid
    /// (`study::group_key`: the same spec, λ and verify vectors) that owns
    /// at least one of them, largest spec first, whose members run in turn on one worker against
    /// the task's own stage table ([`GroupStages`]): the first computes the
    /// group's `fragment` stage (extraction, fragmentation and
    /// verification), the rest hit it and schedule once per balance
    /// setting, then price and time. The table is dropped with the task, so
    /// no stage is shared between groups or calls. Without caching nothing
    /// is shared and each job is its own task. Each job runs in an
    /// `exec.task` span under the caller's span (its `group` attribute is
    /// the pool task's index), emits a `computed` event, lands its result
    /// (cached and spilled) and reports it as it finishes; a panic is
    /// caught per job, so the group's other members still land. A joined
    /// slot is waited on from this thread once this call's own tasks are
    /// done, so joining costs no pool task. Without caching nothing is
    /// claimed: every distinct key is computed.
    ///
    /// A cell is `from_cache` when its key was a hit or an earlier cell
    /// has the same key. The report's [`EngineStats`] count hits and
    /// misses over the distinct jobs, `workers` clamped to the pool tasks submitted,
    /// this call's stage tally, and `cache_entries` = the distinct keys
    /// resolved. With caching on, they are also added once to the
    /// engine's lifetime counters.
    ///
    /// Never call this from one of the engine's own pool threads: the
    /// call blocks on tasks that would need that thread.
    ///
    /// # Panics
    ///
    /// If a job panics, once every job this call computes has finished:
    /// with the job's original payload, or — when the panicking job was
    /// another call's that this one joined — with a panic of its own.
    /// The panicked job's key leaves the memo, so a later call recomputes
    /// it; the pool survives and the engine stays usable.
    pub(crate) fn run_grid(
        &self,
        grid: &Grid,
        mut on_resolved: impl FnMut(&JobKey, &Arc<JobResult>, bool),
    ) -> StudyReport {
        let started = Instant::now();
        let shared = &self.shared;
        let keys: Vec<JobKey> = grid.distinct_keys().collect();
        // One hold of the memo lock claims each distinct key; `claims`
        // keeps each claim with the index of the key's first job.
        let mut claim_of: HashMap<JobKey, usize> = HashMap::with_capacity(keys.len());
        let mut claims: Vec<(usize, Claim)> = Vec::new();
        let mut memo = shared.options.cache.then(|| shared.memo.claim_jobs());
        for (index, key) in keys.iter().enumerate() {
            claim_of.entry(*key).or_insert_with(|| {
                let claim =
                    memo.as_mut().map_or_else(|| Claim::Own(Slot::default()), |m| m.claim(*key));
                claims.push((index, claim));
                claims.len() - 1
            });
        }
        drop(memo);
        let mut hits = 0u64;
        for (index, key) in keys.iter().enumerate() {
            let (first, claim) = &mut claims[claim_of[key]];
            let repeat = *first != index;
            // Outside the memo lock, which file reads would hold up.
            let loaded = match claim {
                Claim::Own(slot) if !repeat => shared.memo.land_from_store(*key, slot),
                _ => None,
            };
            if let Some(result) = loaded {
                *claim = Claim::Landed(result, "disk");
            }
            let provenance = match claim {
                Claim::Landed(_, tier) if !repeat => *tier,
                Claim::Landed(..) => "memory",
                // Shares the first occurrence's computation or join.
                _ if repeat => "duplicate",
                Claim::Join(_) => "in-flight",
                Claim::Own(_) => continue,
            };
            hits += 1;
            trace::event("job", |a| {
                a.str("key", &key.to_string()).str("provenance", provenance);
            });
        }
        let (mut landed, mut joined, mut owned) = (Vec::new(), Vec::new(), Vec::new());
        for (index, claim) in claims {
            match claim {
                Claim::Landed(result, _) => landed.push((keys[index], result)),
                Claim::Join(slot) => joined.push((keys[index], slot)),
                Claim::Own(slot) => owned.push((index, slot)),
            }
        }
        let misses = owned.len() as u64;
        let groups = pool_tasks(owned, grid, shared.options.cache);
        let workers = self.worker_count().min(groups.len().max(1));
        // This call's stage counters: stage work another call's task did
        // on our behalf lands in *its* tally, so each stage resolution is
        // tallied exactly once.
        let tally = Arc::new(StageTally::default());

        let (tx, rx) = mpsc::channel::<(usize, Outcome)>();
        if !groups.is_empty() {
            let (parent, enqueued) = (trace::current_span_id(), Instant::now());
            let tasks: Vec<sched::Task> = groups
                .into_iter()
                .enumerate()
                .map(|(group, Group { members, mut stages })| {
                    let shared = Arc::clone(shared);
                    let tally = Arc::clone(&tally);
                    let tx = tx.clone();
                    let task = TaskContext { parent, enqueued, group };
                    Box::new(move || {
                        let mut panicked = false;
                        let mut report = |index: usize, outcome: Outcome| {
                            panicked |= outcome.is_err();
                            let _ = tx.send((index, outcome));
                        };
                        let (last, rest) = members.split_last().expect("groups are non-empty");
                        for member in rest {
                            report(
                                member.index,
                                shared.execute(member, &mut stages, &tally, &task),
                            );
                        }
                        let outcome = shared.execute(last, &mut stages, &tally, &task);
                        // Release the shared state before the last report,
                        // so a caller that has collected every result holds
                        // the engine alone again (`with_cache_dir`).
                        drop(shared);
                        report(last.index, outcome);
                        if panicked {
                            // The payload went to the caller; unwind with a
                            // stand-in so the pool counts the task's panic
                            // once, without running the panic hook again.
                            resume_unwind(Box::new("job panicked; payload forwarded"));
                        }
                    }) as sched::Task
                })
                .collect();
            self.pool.get_or_init(|| Scheduler::new(self.worker_count())).submit(tasks);
        }
        drop(tx);

        let mut resolved: HashMap<JobKey, (Arc<JobResult>, bool)> =
            HashMap::with_capacity(claim_of.len());
        let mut resolve = |key: &JobKey, result: Arc<JobResult>, hit: bool| {
            on_resolved(key, &result, hit);
            resolved.insert(*key, (result, hit));
        };
        // Deliver the landed hits (outside the memo lock — the callback
        // may write to a socket).
        for (key, result) in landed {
            resolve(&key, result, true);
        }
        // Collect this call's own results until every task has reported,
        // so none of them outlives the call; a panic's original payload
        // is re-raised only then.
        let mut payload = None;
        for (index, outcome) in rx {
            match outcome {
                Ok(result) => resolve(&keys[index], result, false),
                Err(original) => {
                    payload.get_or_insert(original);
                }
            }
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        for (key, slot) in &joined {
            let Some(result) = stagecache::wait_job(slot) else {
                panic!("job {key} panicked in the concurrent run computing it");
            };
            resolve(key, result, true);
        }

        let stats = EngineStats {
            jobs: keys.len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_entries: claim_of.len(),
            workers,
            elapsed: started.elapsed(),
            stage_hits: tally.hits(),
            stage_misses: tally.misses(),
        };
        if shared.options.cache {
            shared.lifetime.lock().unwrap_or_else(PoisonError::into_inner).absorb(&stats);
        }
        let mut first_seen: HashSet<JobKey> = HashSet::with_capacity(grid.cells.len());
        let cells = grid
            .cells
            .iter()
            .zip(&grid.keys)
            .map(|(job, &key)| {
                let (result, hit) = &resolved[&key];
                StudyCell::of(job, key, Arc::clone(result), *hit || !first_seen.insert(key))
            })
            .collect();
        StudyReport { cells, stats }
    }

    /// [`Engine::run_grid`] inside an `engine.run` span, closed by an
    /// `engine.batch` event carrying the batch's counters: the batch front
    /// ends ([`Engine::run`], [`Study::run`] and a sharded run's gap-fill).
    pub(crate) fn run_batch(&self, grid: &Grid) -> StudyReport {
        let _batch = trace::span_attrs("engine.run", |a| {
            a.num("jobs", grid.distinct.len() as u64);
        });
        let report = self.run_grid(grid, |_, _, _| {});
        let stats = &report.stats;
        trace::event("engine.batch", |a| {
            a.num("jobs", stats.jobs)
                .num("cache_hits", stats.cache_hits)
                .num("cache_misses", stats.cache_misses)
                .num("workers", stats.workers as u64)
                .num("stage_hits", stats.stage_hits)
                .num("stage_misses", stats.stage_misses);
        });
        report
    }

    /// Runs a batch of jobs and returns one [`StudyCell`] per job, in
    /// submission order (independent of worker count and scheduling).
    ///
    /// Jobs whose [`JobKey`] is already cached — or is being computed
    /// right now by a concurrent call on this engine — are hits.
    /// Duplicate keys within the batch are computed once: the first
    /// occurrence counts as a miss, the rest as hits (their cells carry
    /// `from_cache = true` — they did no pipeline work). Everything else
    /// runs on the engine's pool, each result cached and spilled as its
    /// job finishes.
    ///
    /// # Panics
    ///
    /// If a job panics: with its original payload, after the batch's
    /// other jobs have finished.
    pub fn run(&self, jobs: Vec<Job>) -> StudyReport {
        self.run_batch(&Grid::of_jobs(jobs))
    }

    /// Cumulative statistics across every batch run on this engine:
    /// the sums of every call's jobs, hits, misses and stage counters,
    /// with `cache_entries` = the job results resident in the memo now.
    pub fn stats(&self) -> EngineStats {
        let lifetime = self.shared.lifetime.lock().unwrap_or_else(PoisonError::into_inner);
        EngineStats {
            cache_entries: self.shared.memo.job_entries(),
            workers: self.worker_count(),
            elapsed: std::time::Duration::ZERO,
            ..lifetime.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_ir::Spec;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn batch_results_match_direct_compare() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 3)]);
        let direct = compare(&spec, 3, &Default::default()).unwrap();
        let got = report.cells[0].result.as_ref().as_ref().unwrap();
        assert_eq!(got.optimized.cycle_delta, direct.optimized.cycle_delta);
        assert_eq!(got.original.cycle_delta, direct.original.cycle_delta);
    }

    #[test]
    fn second_batch_is_all_hits() {
        let spec = three_adds();
        let engine = Engine::default();
        let jobs: Vec<Job> = (2..=4).map(|l| Job::new(spec.clone(), l)).collect();
        let first = engine.run(jobs.clone());
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, 3);
        let second = engine.run(jobs);
        assert_eq!(second.stats.cache_hits, 3);
        assert_eq!(second.stats.hit_rate(), 100.0);
        assert!(second.cells.iter().all(|o| o.from_cache));
    }

    #[test]
    fn duplicate_jobs_in_one_batch_compute_once() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 3), Job::new(spec, 3)]);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.stats.cache_entries, 1);
        // One computation, one dedup: the duplicate counts as a hit and is
        // marked from_cache.
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.stats.cache_hits, 1);
        assert!(!report.cells[0].from_cache);
        assert!(report.cells[1].from_cache);
        // Both cells share one computed result.
        assert!(Arc::ptr_eq(&report.cells[0].result, &report.cells[1].result));
    }

    #[test]
    fn infeasible_jobs_report_errors_in_place() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 0), Job::new(spec, 3)]);
        assert!(report.cells[0].result.is_err());
        assert!(report.cells[1].result.is_ok());
    }

    #[test]
    fn caching_can_be_disabled() {
        let spec = three_adds();
        let engine = Engine::new(EngineOptions { cache: false, ..Default::default() });
        let jobs = vec![Job::new(spec, 3)];
        engine.run(jobs.clone());
        let second = engine.run(jobs);
        assert_eq!(second.stats.cache_hits, 0);
        // A disabled cache bypasses the stage tables entirely (monolithic
        // pipeline) and never accrues lifetime counters either.
        assert_eq!(second.stats.stage_hits + second.stats.stage_misses, 0);
        assert_eq!(engine.stats().jobs, 0);
        assert_eq!(engine.stats().stage_misses, 0);
    }

    #[test]
    fn job_results_obey_the_memo_bound() {
        let dir = std::env::temp_dir().join(format!("bittrans-job-bound-{}", std::process::id()));
        let jobs: Vec<Job> = (2..=7).map(|l| Job::new(three_adds(), l)).collect();
        let direct = compare(&jobs[0].spec, 2, &jobs[0].options).unwrap();
        let expected = serde_json::to_string(&direct).unwrap();
        // One worker, so λ = 2 is admitted first and evicted first.
        let options = EngineOptions { workers: Some(1), cache: true };
        let stored = Engine::new(options).with_cache_dir(&dir).unwrap();
        // Room for two of the six jobs (~0.8 KB charged each).
        let budget = 2 << 10;
        for (engine, evicted) in [(stored, (1, 0)), (Engine::new(options), (0, 1))] {
            engine.shared.memo.set_memo_capacity(budget);
            for job in &jobs {
                engine.run(vec![job.clone()]);
                let charged = engine.shared.memo.memo_bytes();
                assert!(charged <= budget, "{charged} > {budget} bytes");
            }
            assert_eq!(engine.stats().cache_entries, 2, "the two newest jobs stay resident");
            // The evicted job is a disk hit with a store, a miss without.
            let again = engine.run(vec![jobs[0].clone()]);
            assert_eq!((again.stats.cache_hits, again.stats.cache_misses), evicted);
            assert_eq!(again.stats.stage_hits + again.stats.stage_misses, evicted.1 * 3);
            let got = again.cells[0].result.as_ref().as_ref().unwrap();
            assert_eq!(serde_json::to_string(got).unwrap(), expected);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cold_grid_submits_one_pool_task_per_stage_sharing_group() {
        use bittrans_rtl::AdderArch;
        let four_adds = Spec::parse(
            "spec ex4 { input A: u12; input B: u12; input D: u12; input F: u12; input H: u12;
              C: u12 = A + B; E: u12 = C + D; G: u12 = E + F; I: u12 = G + H; output I; }",
        )
        .unwrap();
        let study = Study::over([three_adds(), four_adds])
            .latencies([2, 3])
            .adder_archs([
                AdderArch::RippleCarry,
                AdderArch::CarryLookahead,
                AdderArch::CarrySelect,
            ])
            .balance_both();
        let cells = |report: &StudyReport| serde_json::to_string(&report.cells).unwrap();

        // Other tests of this binary may trace concurrently: count only the
        // `exec.task` spans under this run's `engine.run` span.
        trace::install_memory();
        let root = trace::span("test.groups");
        let root_id = root.id();
        let engine = Engine::new(EngineOptions { workers: Some(2), cache: true });
        let cold = study.run(&engine);
        drop(root);
        let lines: Vec<serde_json::Value> =
            trace::drain().iter().map(|l| serde_json::from_str(l).unwrap()).collect();
        trace::uninstall();
        let num = |v: &serde_json::Value, key: &str| v.get(key).and_then(serde_json::Value::as_u64);
        let span = |v: &serde_json::Value, name: &str| {
            v.get("kind").and_then(serde_json::Value::as_str) == Some("span")
                && v.get("name").and_then(serde_json::Value::as_str) == Some(name)
        };
        let run_id = lines
            .iter()
            .find(|v| span(v, "engine.run") && num(v, "parent") == Some(root_id))
            .and_then(|v| num(v, "id"))
            .expect("this run's engine.run span");
        let tasks: Vec<&serde_json::Value> = lines
            .iter()
            .filter(|v| span(v, "exec.task") && num(v, "parent") == Some(run_id))
            .collect();
        let groups: HashSet<u64> = tasks.iter().filter_map(|v| num(v, "group")).collect();

        // 2 specs × 2 λ groups of 3 adders × 2 balance settings each.
        assert_eq!(cold.cells.len(), 24);
        assert_eq!(engine.sched_stats().dispatched_tasks, 4);
        assert_eq!(cold.stats.workers, 2);
        assert_eq!(tasks.len(), 24, "one exec.task span per computed job");
        assert_eq!(groups, (0..4).collect(), "one group per (spec, λ)");
        // Grouping moves no stage: each is still computed exactly once
        // (per (spec, λ) 1 fragment and a schedule per flow and balance
        // setting).
        assert_eq!(cold.stats.stage_misses, 20, "{:?}", cold.stats);

        let serial = study.run(&Engine::new(EngineOptions { workers: Some(1), cache: true }));
        assert_eq!(cells(&serial), cells(&cold));
        assert_eq!(serial.stats.stage_misses, 20);
        let uncached = Engine::new(EngineOptions { workers: Some(2), cache: false });
        assert_eq!(cells(&study.run(&uncached)), cells(&cold));
        assert_eq!(uncached.sched_stats().dispatched_tasks, 24, "no sharing, a task per job");
    }
}
