//! Sharded multi-process execution: partition a [`Study`]'s deduplicated
//! job list by [`JobKey`] range across `bittrans serve` endpoints that
//! share one persistent cache directory, then reassemble the exact
//! single-process [`StudyReport`].
//!
//! # One protocol, two ways to obtain endpoints
//!
//! Every shard travels as a **shard request** to a `serve` endpoint
//! ([`crate::serve`]). A [`Transport`] only decides where the endpoints
//! come from:
//!
//! * [`Transport::Remote`] names a fleet of running `bittrans serve`
//!   processes, normally on other machines;
//! * [`Transport::Local`] starts the fleet for one run: one
//!   `serve --addr 127.0.0.1:0` child of the given binary per shard, over
//!   the coordinator's store, shut down when the dispatch ends. A child
//!   that fails to start is simply not part of the fleet.
//!
//! From there both run the same dispatch, retry, merge and gap-fill, so a
//! grid runs identically on this machine or on a fleet.
//!
//! # Protocol
//!
//! The coordinator ([`run_sharded`]):
//!
//! 1. expands the study grid, deduplicates it by key, **sorts the distinct
//!    jobs by [`JobKey`]** and splits the sorted list into K contiguous
//!    ranges ([`partition`] — total and disjoint by construction);
//! 2. sends each shard as a shard request — the study body plus
//!    `shard_index`/`shard_count` ([`SHARD_COORD_FIELDS`]) over the
//!    newline-delimited JSON protocol — to an endpoint assigned
//!    round-robin ([`assign_round_robin`]), every read under a deadline
//!    ([`crate::proto`]);
//! 3. the endpoint re-derives the identical sorted job list, runs its
//!    range ([`shard_slice`]) through its engine (so every success is
//!    spilled into the shared directory), and answers with the batch's
//!    [`EngineStats`]. A failed or unreachable endpoint's shard is retried
//!    on the next endpoint, each endpoint at most once per shard; a shard
//!    that exhausts the fleet is marked failed;
//! 4. the coordinator merges the per-shard stats ([`EngineStats::merged`])
//!    and re-reads the cache directory. Any distinct key missing from the
//!    store — a gap left by a failed shard, or an infeasible coordinate
//!    whose error is never persisted — is computed in-process by the
//!    coordinator's own engine. The assembled [`StudyReport`] is therefore
//!    **bit-identical** to what a single-process [`Study::run`] over the
//!    same grid and cache state produces, faults or no faults.
//!
//! The **shared store** is the only result channel, so every endpoint
//! must use a `--cache-dir` on the filesystem the coordinator reads (NFS
//! or equivalent for real multi-machine grids). Endpoints never talk to
//! each other, ranges are disjoint so racing writers never collide on a
//! key, and an endpoint dying mid-shard costs only the recomputation of
//! its unfinished range. A reply is trusted for its statistics only, so
//! an endpoint that answers without computing cannot change the report.
//!
//! Because a study's `Spec` values cannot be re-serialized into parseable
//! DSL (the IR's `Display` is a dump format), a sharded study starts from
//! **source text** ([`ShardedStudy`]) — exactly what the CLI has in hand —
//! and both sides parse the same sources, so content keys agree across
//! processes by construction.

use crate::key::JobKey;
use crate::proto;
use crate::report::StudyReport;
use crate::serve;
use crate::stagecache::StageStore;
use crate::stats::{EndpointStats, EngineStats};
use crate::study::{self, Study};
use crate::trace;
use crate::{Engine, Job};
use bittrans_core::CompareOptions;
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use bittrans_timing::TimingModel;
use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a sharded run (or a worker) could not start. Worker *crashes* are
/// not errors — the coordinator absorbs those — only unusable inputs are.
#[derive(Debug)]
pub enum ShardError {
    /// Creating or opening the cache directory.
    Io(io::Error),
    /// A study body or spec source failed to parse.
    Invalid(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o: {e}"),
            ShardError::Invalid(why) => write!(f, "invalid shard input: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

fn invalid(why: impl Into<String>) -> ShardError {
    ShardError::Invalid(why.into())
}

/// Splits `len` items into `shards` contiguous index ranges that are
/// **total** (their concatenation is exactly `0..len`) and **disjoint**,
/// with sizes differing by at most one. `shards` of zero is treated as
/// one.
pub fn partition(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    (0..shards).map(|i| (i * len / shards)..((i + 1) * len / shards)).collect()
}

/// Maps each of `shards` shard indices to one of `endpoints` endpoint
/// indices, round-robin: shard `i` is **homed** on endpoint
/// `i % endpoints`. Total (every shard assigned exactly once) and
/// balanced (endpoint loads differ by at most one) by construction —
/// property-tested alongside [`partition`]. `endpoints` of zero is
/// treated as one.
pub fn assign_round_robin(shards: usize, endpoints: usize) -> Vec<usize> {
    let endpoints = endpoints.max(1);
    (0..shards).map(|i| i % endpoints).collect()
}

/// Parses a comma-separated `host:port,host:port,...` endpoint list —
/// the CLI's `--workers` argument. Entries are trimmed; the spelling of
/// each is checked ([`proto::validate_endpoint`]) without resolving it.
///
/// # Errors
///
/// [`ShardError::Invalid`] on an empty list, an empty entry, or an entry
/// that is not `host:port` with a nonzero port.
pub fn parse_endpoints(list: &str) -> Result<Vec<String>, ShardError> {
    let pieces: Vec<&str> = list.split(',').map(str::trim).collect();
    if pieces.iter().all(|piece| piece.is_empty()) {
        return Err(invalid("--workers needs at least one host:port endpoint"));
    }
    let mut endpoints = Vec::with_capacity(pieces.len());
    for piece in pieces {
        if piece.is_empty() {
            return Err(invalid("empty endpoint in the --workers list"));
        }
        proto::validate_endpoint(piece).map_err(ShardError::Invalid)?;
        endpoints.push(piece.to_string());
    }
    Ok(endpoints)
}

/// A [`Study`] described by its **source text** instead of parsed specs,
/// so it can cross a process boundary in a request. [`ShardedStudy::study`]
/// parses it back; coordinator and endpoints both do, so their grids — and
/// therefore their content keys — agree exactly.
#[derive(Clone, Debug)]
pub struct ShardedStudy {
    /// One DSL source per specification, in grid order.
    pub sources: Vec<String>,
    /// The latency axis (λ values, in order).
    pub latencies: Vec<u32>,
    /// The adder-architecture axis, when set.
    pub adder_archs: Option<Vec<AdderArch>>,
    /// The balancing axis, when set.
    pub balance: Option<Vec<bool>>,
    /// The verification-budget axis, when set.
    pub verify_vectors: Option<Vec<usize>>,
    /// Base options that unset axes collapse to.
    pub base: CompareOptions,
}

impl ShardedStudy {
    /// The field names [`ShardedStudy::from_value`] consumes — the wire
    /// schema of a study body. Strict front ends (the `serve` request
    /// parser) reject objects carrying anything else — except the shard
    /// coordinates ([`SHARD_COORD_FIELDS`]) — so a typo'd axis name
    /// fails loudly instead of silently collapsing to the default.
    pub const FIELDS: [&'static str; 6] =
        ["sources", "latencies", "adder_archs", "balance", "verify_vectors", "base"];

    /// Reads a study body back from a parsed JSON object — the reverse of
    /// this type's `Serialize` impl. The `serve` request parser reads study
    /// and shard requests through it, so a study serialized by any front
    /// end deserializes identically everywhere.
    ///
    /// Ignores fields outside [`ShardedStudy::FIELDS`]; callers that must
    /// reject unknown fields check the key set first. Only `sources` is
    /// required: an absent `latencies` collapses to the [`Study`] default
    /// (λ = 3) and an absent `base` to [`CompareOptions::default`] —
    /// machine writers (the coordinator's shard requests) always spell
    /// both out, and because every reader applies the same defaults, a
    /// hand-written request and its expanded form produce identical grids
    /// and keys.
    ///
    /// # Errors
    ///
    /// [`ShardError::Invalid`] on a missing `sources` or an ill-typed
    /// field.
    pub fn from_value(value: &Value) -> Result<Self, ShardError> {
        let sources = string_list(field(value, "sources")?, "sources")?;
        let latencies = optional(value, "latencies")
            .map(|v| {
                v.as_array()
                    .ok_or_else(|| invalid("`latencies` is not an array"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| invalid("bad value in `latencies`"))
                    })
                    .collect::<Result<Vec<u32>, _>>()
            })
            .transpose()?
            .unwrap_or_else(|| vec![3]);
        let adder_archs = optional(value, "adder_archs")
            .map(|v| {
                string_list(v, "adder_archs")?
                    .iter()
                    .map(|code| parse_adder_code(code))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let balance = optional(value, "balance")
            .map(|v| {
                v.as_array()
                    .ok_or_else(|| invalid("`balance` is not an array"))?
                    .iter()
                    .map(|b| b.as_bool().ok_or_else(|| invalid("bad value in `balance`")))
                    .collect::<Result<Vec<bool>, _>>()
            })
            .transpose()?;
        let verify_vectors = optional(value, "verify_vectors")
            .map(|v| {
                v.as_array()
                    .ok_or_else(|| invalid("`verify_vectors` is not an array"))?
                    .iter()
                    .map(|n| {
                        n.as_u64()
                            .and_then(|n| usize::try_from(n).ok())
                            .ok_or_else(|| invalid("bad value in `verify_vectors`"))
                    })
                    .collect::<Result<Vec<usize>, _>>()
            })
            .transpose()?;
        let base = match optional(value, "base") {
            None => CompareOptions::default(),
            Some(base_value) => CompareOptions {
                adder_arch: parse_adder_code(
                    field(base_value, "adder_arch")?
                        .as_str()
                        .ok_or_else(|| invalid("base `adder_arch` is not a string"))?,
                )?,
                timing: TimingModel {
                    delta_ns: field(base_value, "delta_ns")?
                        .as_f64()
                        .ok_or_else(|| invalid("base `delta_ns` is not a number"))?,
                    overhead_ns: field(base_value, "overhead_ns")?
                        .as_f64()
                        .ok_or_else(|| invalid("base `overhead_ns` is not a number"))?,
                },
                balance: field(base_value, "balance")?
                    .as_bool()
                    .ok_or_else(|| invalid("base `balance` is not a boolean"))?,
                verify_vectors: as_usize(base_value, "verify_vectors")?,
            },
        };
        Ok(ShardedStudy { sources, latencies, adder_archs, balance, verify_vectors, base })
    }

    /// Parses the sources and rebuilds the equivalent [`Study`].
    ///
    /// # Errors
    ///
    /// [`ShardError::Invalid`] when a source does not parse.
    pub fn study(&self) -> Result<Study, ShardError> {
        let specs: Vec<Spec> =
            self.sources.iter().map(|src| parse_source(src)).collect::<Result<_, _>>()?;
        let mut study =
            Study::over(specs).latencies(self.latencies.iter().copied()).base_options(self.base);
        if let Some(archs) = &self.adder_archs {
            study = study.adder_archs(archs.iter().copied());
        }
        if let Some(balance) = &self.balance {
            study = study.balance(balance.iter().copied());
        }
        if let Some(vectors) = &self.verify_vectors {
            study = study.verify_vectors(vectors.iter().copied());
        }
        Ok(study)
    }

    /// The one-line shard request for the `shard_index`-th of
    /// `shard_count` ranges, exactly as the coordinator sends it: the
    /// study body with the shard coordinates spliced in front. The `serve`
    /// request parser reads the body back with
    /// [`ShardedStudy::from_value`] exactly as it reads a whole-study
    /// request, so the two request shapes cannot drift apart.
    pub fn shard_request(&self, shard_index: usize, shard_count: usize) -> String {
        let body = serde_json::to_string(self).expect("study body serializes");
        format!("{{\"shard_index\":{shard_index},\"shard_count\":{shard_count},{}", &body[1..])
    }
}

/// The two wire fields a **shard request** carries on top of the study
/// body: a `serve` endpoint receiving them executes only that range of
/// the study's key-sorted distinct jobs ([`shard_slice`]) and answers
/// with the batch's [`EngineStats`] instead of a report.
pub const SHARD_COORD_FIELDS: [&str; 2] = ["shard_index", "shard_count"];

fn parse_adder_code(code: &str) -> Result<AdderArch, ShardError> {
    AdderArch::from_code(code).ok_or_else(|| invalid(format!("unknown adder code `{code}`")))
}

/// Parses one study source: the bittrans DSL, or — when the text leads
/// with the canonical-codec magic — the versioned [`Spec::to_canonical`]
/// encoding. Generated specs (the fuzzer's `random_spec` output) have no
/// DSL source, so coordinators ship them as canonical text and every
/// `serve` endpoint reconstructs the identical spec here;
/// `from_canonical(to_canonical(s)) == s`, so content keys agree across
/// processes.
pub fn parse_source(src: &str) -> Result<Spec, ShardError> {
    if src.trim_start().starts_with(bittrans_ir::canonical::MAGIC) {
        Spec::from_canonical(src).map_err(|e| invalid(e.to_string()))
    } else {
        Spec::parse(src).map_err(|e| invalid(e.to_string()))
    }
}

impl Serialize for ShardedStudy {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ShardedStudy", 6)?;
        st.serialize_field("sources", &self.sources)?;
        st.serialize_field("latencies", &self.latencies)?;
        let archs: Option<Vec<String>> = self
            .adder_archs
            .as_ref()
            .map(|archs| archs.iter().map(|a| a.code().to_string()).collect());
        st.serialize_field("adder_archs", &archs)?;
        st.serialize_field("balance", &self.balance)?;
        st.serialize_field("verify_vectors", &self.verify_vectors)?;
        st.serialize_field("base", &BaseOptions(&self.base))?;
        st.end()
    }
}

struct BaseOptions<'a>(&'a CompareOptions);

impl Serialize for BaseOptions<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("CompareOptions", 5)?;
        st.serialize_field("adder_arch", self.0.adder_arch.code())?;
        st.serialize_field("delta_ns", &self.0.timing.delta_ns)?;
        st.serialize_field("overhead_ns", &self.0.timing.overhead_ns)?;
        st.serialize_field("balance", &self.0.balance)?;
        st.serialize_field("verify_vectors", &self.0.verify_vectors)?;
        st.end()
    }
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, ShardError> {
    value.get(key).ok_or_else(|| invalid(format!("missing field `{key}`")))
}

fn as_usize(value: &Value, key: &str) -> Result<usize, ShardError> {
    field(value, key)?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| invalid(format!("`{key}` is not an unsigned integer")))
}

fn optional<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value.get(key) {
        None | Some(Value::Null) => None,
        Some(present) => Some(present),
    }
}

/// The `index`-th of `count` ranges of a study's key-sorted distinct job
/// list — the slice a `serve` endpoint executes for a shard request.
/// Every endpoint (and the coordinator) computes the same partition from
/// the same pure inputs. An out-of-range `index` yields an empty slice;
/// `count` of zero is treated as one.
///
/// The cut is the same integer arithmetic [`partition`] performs,
/// computed directly for the one requested range: a `serve` endpoint
/// feeds this function an untrusted `count`, so it must neither
/// materialize `count` ranges nor overflow (`u128` headroom), however
/// absurd the coordinates.
///
/// # Panics
///
/// On axis values the options builder rejects; see [`Study::jobs`].
pub fn shard_slice(study: &Study, index: usize, count: usize) -> Vec<Job> {
    let sorted = sorted_distinct(study);
    let (index, count, len) = (index as u128, count.max(1) as u128, sorted.len() as u128);
    if index >= count {
        return Vec::new();
    }
    let start = (index * len / count) as usize;
    let end = ((index + 1) * len / count) as usize;
    sorted[start..end].to_vec()
}

fn string_list(value: &Value, key: &str) -> Result<Vec<String>, ShardError> {
    value
        .as_array()
        .ok_or_else(|| invalid(format!("`{key}` is not an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("`{key}` holds a non-string")))
        })
        .collect()
}

/// The distinct jobs of a study, sorted by content key — the canonical
/// order every process derives independently before partitioning. Keys are
/// content hashes of the full canonicalized spec, so each is computed once.
fn sorted_distinct(study: &Study) -> Vec<Job> {
    let mut jobs = study.distinct_jobs();
    jobs.sort_by_cached_key(Job::key);
    jobs
}

/// Where the `serve` endpoints of a sharded run come from: started on
/// this machine for the run, or a running remote fleet. See the
/// [module docs](self): both dispatch, merge and recover identically.
#[derive(Clone, Debug)]
pub enum Transport {
    /// Start one `serve` child of the `bittrans` binary per shard on a
    /// free loopback port, and shut the fleet down when the run ends.
    Local(LocalTransport),
    /// Send each shard as a shard request to one of a fleet of running
    /// `bittrans serve` endpoints sharing the coordinator's store.
    Remote(RemoteTransport),
}

/// The local transport: a `serve` fleet started for one run.
#[derive(Clone, Debug)]
pub struct LocalTransport {
    /// The binary to start as `serve --addr 127.0.0.1:0 --cache-dir
    /// <store>`, once per shard — normally `std::env::current_exe()` of
    /// the `bittrans` CLI.
    pub worker_binary: PathBuf,
    /// Worker threads per child, passed as `serve --jobs` (`None`: all
    /// cores in every child).
    pub threads_per_worker: Option<usize>,
}

/// The remote serve-fleet transport.
#[derive(Clone, Debug)]
pub struct RemoteTransport {
    /// `host:port` endpoints of running `bittrans serve` processes, all
    /// started with a `--cache-dir` on the store the coordinator reads.
    /// Shards are homed round-robin ([`assign_round_robin`]) and retried
    /// on the next endpoint on failure, each endpoint at most once per
    /// shard.
    pub endpoints: Vec<String>,
    /// Connect deadline and per-read deadline of every exchange. A
    /// stalled endpoint costs one timeout, never a hung coordinator —
    /// but size it generously: an endpoint's requests share its one fair
    /// worker pool, so when `shards` exceeds the fleet size a shard's
    /// response shares the endpoint's throughput with its sibling shards,
    /// and the deadline must cover the whole share (roughly
    /// shards-per-endpoint × per-shard time).
    pub timeout: Duration,
}

/// How to run a study across processes.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Shards to cut the sorted job list into (clamped to the distinct
    /// job count; at least one job per shard).
    pub shards: usize,
    /// Where the shards run.
    pub transport: Transport,
}

/// Everything a sharded run produces.
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// The assembled study report — bit-identical to a single-process
    /// [`Study::run`] over the same grid and starting cache state. Its
    /// `stats` describe the run in single-process terms: every
    /// deduplicated job is accounted exactly once (hits = keys already in
    /// the store when the run started, misses = the rest), `workers` sums
    /// the pools that ran, `elapsed` is coordinator wall clock.
    pub report: StudyReport,
    /// Per-shard statistics merged ([`EngineStats::merged`]) with the
    /// coordinator's retry work. Jobs a dead endpoint finished but never
    /// reported are absent — compare with `report.stats` to spot lost
    /// accounting.
    pub merged: EngineStats,
    /// Each shard's statistics as its endpoint reported them (`None` for
    /// a shard no endpoint completed).
    pub shard_stats: Vec<Option<EngineStats>>,
    /// Who did the work: one entry per `host:port` endpoint that completed
    /// at least one shard (for a local fleet, its `127.0.0.1:<port>`
    /// children), plus a `coordinator` entry when gap-fill recomputation
    /// ran — so the merged totals stay attributable per machine.
    pub endpoints: Vec<EndpointStats>,
    /// Shards no endpoint completed.
    pub failed: Vec<usize>,
    /// Keys from failed shards' ranges that were absent from the store
    /// after the dispatch and were recomputed in-process.
    pub retried: Vec<JobKey>,
}

/// Runs `study` as `options.shards` shard requests to `serve` endpoints
/// sharing `cache_dir` as the result store, and reassembles the
/// single-process report. See the [module docs](self) for the full
/// protocol; the short version: partition → dispatch → merge stats →
/// re-read the store → recompute whatever is missing (failed-shard gaps
/// and never-persisted pipeline errors) in-process.
///
/// A crashed, killed or lying endpoint never fails the run — whatever it
/// left out of the store is recomputed locally — so the result is exactly
/// as durable as a single-process run.
///
/// # Errors
///
/// [`ShardError`] on unparseable sources or cache-directory I/O.
///
/// # Panics
///
/// On axis values the options builder rejects; see [`Study::jobs`].
pub fn run_sharded(
    sharded: &ShardedStudy,
    cache_dir: &Path,
    options: &ShardOptions,
) -> Result<ShardRun, ShardError> {
    let started = Instant::now();
    let study = sharded.study()?;
    let grid = study.dedup();
    // Hash each distinct job's key once; every later pass reuses the list.
    let mut keyed: Vec<(JobKey, Job)> =
        grid.distinct.iter().map(|job| (job.key(), job.clone())).collect();
    keyed.sort_by_key(|&(key, _)| key);
    let sorted_keys: Vec<JobKey> = keyed.iter().map(|&(key, _)| key).collect();
    let shards = if keyed.is_empty() { 0 } else { options.shards.clamp(1, keyed.len()) };
    let ranges = partition(keyed.len(), shards);
    drop(keyed);
    let _run = trace::span_attrs("shard.run", |a| {
        a.num("shards", shards as u64).num("distinct", sorted_keys.len() as u64);
    });

    std::fs::create_dir_all(cache_dir)?;
    let store = StageStore::of(cache_dir);
    // A key only counts as preloaded if its job file actually decodes — a
    // corrupt body is exactly what a single-process run would discover at
    // lookup time and recompute as a miss, and the report (hits,
    // from_cache flags) must not diverge from that. The load deletes such
    // a file, so its shard recomputes and respills it.
    let preloaded: HashSet<JobKey> =
        sorted_keys.iter().copied().filter(|&key| store.load_job(key).is_some()).collect();

    // Dispatch the shards to the transport's endpoints. A shard that
    // cannot be dispatched at all is treated exactly like one that
    // crashed: its range is detected as missing and recomputed below.
    let dispatch = match &options.transport {
        Transport::Local(local) => dispatch_local(sharded, shards, cache_dir, local),
        Transport::Remote(remote) => dispatch_remote(sharded, shards, remote),
    };
    let Dispatch { shard_stats, mut endpoints, failed } = dispatch;

    // Re-read the shared store and detect gaps before the final batch: a
    // key from a failed shard's range with no loadable job file is work
    // no endpoint finished.
    let failed_keys: HashSet<JobKey> = failed
        .iter()
        .flat_map(|&index| sorted_keys[ranges[index].clone()].iter().copied())
        .collect();
    let retried: Vec<JobKey> = sorted_keys
        .iter()
        .copied()
        .filter(|key| failed_keys.contains(key) && store.load_job(*key).is_none())
        .collect();

    // One local batch over the distinct jobs assembles everything: keys in
    // the store load lazily as hits; gaps and infeasible coordinates (whose
    // errors are never persisted) compute here, exactly as a single-process
    // run would have computed them.
    if !retried.is_empty() {
        trace::event("shard.recompute", |a| {
            a.num("keys", retried.len() as u64).num("failed_shards", failed.len() as u64);
        });
    }
    let engine = Engine::default().with_cache_dir(cache_dir)?;
    let batch = engine.run(grid.distinct.clone());

    let mut merged = EngineStats::merged(shard_stats.iter().flatten());
    if !retried.is_empty() {
        let recompute = EngineStats {
            jobs: retried.len() as u64,
            cache_hits: 0,
            cache_misses: retried.len() as u64,
            cache_entries: retried.len(),
            workers: batch.stats.workers,
            elapsed: batch.stats.elapsed,
            stage_hits: batch.stats.stage_hits,
            stage_misses: batch.stats.stage_misses,
        };
        merged.absorb(&recompute);
        endpoints.push(EndpointStats {
            endpoint: "coordinator".to_string(),
            shards: failed.clone(),
            stats: recompute,
        });
    }

    let hits = preloaded.len() as u64;
    let distinct_count = grid.distinct.len() as u64;
    let index_of: HashMap<JobKey, usize> = grid.index_of;
    let cells = study::assemble(grid.cells, grid.keys, |key| {
        let outcome = &batch.outcomes[index_of[&key]];
        (Arc::clone(&outcome.result), preloaded.contains(&key))
    });
    let stats = EngineStats {
        jobs: distinct_count,
        cache_hits: hits,
        cache_misses: distinct_count - hits,
        // What a single-process `Study::run` reports: the grid's
        // distinct keys.
        cache_entries: grid.distinct.len(),
        workers: merged.workers,
        elapsed: started.elapsed(),
        // Stage work happened inside the endpoints (and the gap-fill
        // batch); the merged endpoint stats carry it.
        stage_hits: merged.stage_hits,
        stage_misses: merged.stage_misses,
    };
    Ok(ShardRun {
        report: StudyReport { cells, stats },
        merged,
        shard_stats,
        endpoints,
        failed,
        retried,
    })
}

/// What one transport dispatch produced, whoever ran it.
struct Dispatch {
    /// Per-shard statistics (`None` for a shard every attempt lost).
    shard_stats: Vec<Option<EngineStats>>,
    /// Attribution of completed shards to dispatch targets.
    endpoints: Vec<EndpointStats>,
    /// Shards no attempt completed.
    failed: Vec<usize>,
}

impl Dispatch {
    fn empty(shards: usize) -> Dispatch {
        Dispatch { shard_stats: vec![None; shards], endpoints: Vec::new(), failed: Vec::new() }
    }
}

/// How long one exchange with a local `serve` child may take. A crashed
/// child closes its socket, so its failure shows as an immediate EOF,
/// not as a wait: this deadline only bounds a child that hangs. A healthy
/// child answers only once its whole shard has computed, which on a
/// large grid takes far longer than [`proto::DEFAULT_TIMEOUT`], and
/// abandoning it would just recompute the same range in the coordinator.
const LOCAL_DEADLINE: Duration = Duration::from_secs(24 * 60 * 60);

/// How long a local child may take to exit after acknowledging shutdown
/// before it is killed. Every shard exchange has ended by then, so a
/// healthy child exits within one idle poll.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Local dispatch: start one `serve` child per shard on a free loopback
/// port over the shared store, dispatch to that fleet exactly as to a
/// remote one, then shut it down.
fn dispatch_local(
    sharded: &ShardedStudy,
    shards: usize,
    cache_dir: &Path,
    transport: &LocalTransport,
) -> Dispatch {
    let fleet = LocalFleet::start(transport, cache_dir, shards);
    let remote = RemoteTransport { endpoints: fleet.endpoints(), timeout: LOCAL_DEADLINE };
    let dispatch = dispatch_remote(sharded, shards, &remote);
    fleet.shutdown();
    dispatch
}

/// The `serve` children of one local run, each with the address it
/// announced (`None`: it exited or printed no banner). Dropping the
/// fleet kills and reaps every child, so an early return or a panic
/// never leaks a process.
struct LocalFleet {
    children: Vec<(Child, Option<String>)>,
}

impl LocalFleet {
    /// Spawns `count` children, then reads each one's banner; spawning
    /// them all first lets them start up concurrently.
    fn start(transport: &LocalTransport, cache_dir: &Path, count: usize) -> LocalFleet {
        let mut fleet = LocalFleet { children: Vec::with_capacity(count) };
        for _ in 0..count {
            let mut command = Command::new(&transport.worker_binary);
            command
                .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
                .arg(cache_dir)
                // Serve's per-request logs would flood the coordinator's
                // stderr, and every failure already surfaces as the
                // dispatcher's own diagnostic.
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                // K children rewriting the coordinator's trace file would
                // leave whichever flushed last.
                .env_remove("BITTRANS_TRACE");
            if let Some(threads) = transport.threads_per_worker {
                command.arg("--jobs").arg(threads.to_string());
            }
            match command.spawn() {
                Ok(child) => fleet.children.push((child, None)),
                Err(e) => trace::diag(&format!(
                    "local shard fleet: starting {}: {e}",
                    transport.worker_binary.display()
                )),
            }
        }
        for (child, endpoint) in &mut fleet.children {
            *endpoint = child.stdout.take().and_then(|stdout| {
                let mut line = String::new();
                BufReader::new(stdout).read_line(&mut line).ok()?;
                serve::parse_banner(&line).map(str::to_string)
            });
            if endpoint.is_none() {
                trace::diag(&format!(
                    "local shard fleet: serve child {} exited or printed no banner",
                    child.id()
                ));
            }
        }
        fleet
    }

    /// The announced endpoints, in spawn order.
    fn endpoints(&self) -> Vec<String> {
        self.children.iter().filter_map(|(_, endpoint)| endpoint.clone()).collect()
    }

    /// Asks every announced child to shut down and gives them
    /// [`SHUTDOWN_GRACE`] to exit; the drop then kills whatever is left
    /// and reaps every child.
    fn shutdown(mut self) {
        for endpoint in self.endpoints() {
            let _ = proto::LineClient::connect(&endpoint, SHUTDOWN_GRACE)
                .and_then(|mut client| client.request("{\"shutdown\":true}"));
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for (child, _) in self.children.iter_mut().filter(|(_, endpoint)| endpoint.is_some()) {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Dispatch to a `serve` fleet, remote or started by [`dispatch_local`]:
/// one thread per shard walks the endpoint ring from
/// the shard's round-robin home, trying each endpoint at most once,
/// until a shard request succeeds or the fleet is exhausted. Every
/// failure is logged to stderr and absorbed — the coordinator's gap-fill
/// is the backstop, so a dead fleet degrades to a single-process run
/// instead of an error.
fn dispatch_remote(sharded: &ShardedStudy, shards: usize, transport: &RemoteTransport) -> Dispatch {
    if transport.endpoints.is_empty() {
        let mut dispatch = Dispatch::empty(shards);
        dispatch.failed = (0..shards).collect();
        return dispatch;
    }
    let assignment = assign_round_robin(shards, transport.endpoints.len());
    let study = Arc::new(sharded.clone());
    let endpoints = Arc::new(transport.endpoints.clone());
    let timeout = transport.timeout;
    let handles: Vec<std::thread::JoinHandle<Option<(usize, EngineStats)>>> = assignment
        .into_iter()
        .enumerate()
        .map(|(index, home)| {
            let study = Arc::clone(&study);
            let endpoints = Arc::clone(&endpoints);
            std::thread::spawn(move || {
                for attempt in 0..endpoints.len() {
                    let which = (home + attempt) % endpoints.len();
                    let endpoint = &endpoints[which];
                    trace::event("shard.dispatch", |a| {
                        a.num("shard", index as u64)
                            .num("attempt", attempt as u64)
                            .str("endpoint", endpoint);
                    });
                    match request_shard(endpoint, &study, index, shards, timeout) {
                        Ok(stats) => {
                            trace::event("shard.served", |a| {
                                a.num("shard", index as u64)
                                    .str("endpoint", endpoint)
                                    .num("jobs", stats.jobs);
                            });
                            return Some((which, stats));
                        }
                        Err(why) => {
                            let last = attempt + 1 == endpoints.len();
                            trace::event(
                                if last { "shard.fallback" } else { "shard.retry" },
                                |a| {
                                    a.num("shard", index as u64)
                                        .str("endpoint", endpoint)
                                        .str("error", &why);
                                },
                            );
                            let next = if last {
                                "; no endpoints left, the coordinator recomputes the range"
                            } else {
                                "; retrying on the next endpoint"
                            };
                            trace::diag(&format!(
                                "shard {index}/{shards}: {endpoint}: {why}{next}"
                            ));
                        }
                    }
                }
                None
            })
        })
        .collect();

    let mut dispatch = Dispatch::empty(shards);
    let mut per_endpoint: Vec<(Vec<usize>, EngineStats)> =
        vec![(Vec::new(), EngineStats::zero()); transport.endpoints.len()];
    for (index, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Some((which, stats))) => {
                per_endpoint[which].0.push(index);
                per_endpoint[which].1.absorb(&stats);
                dispatch.shard_stats[index] = Some(stats);
            }
            _ => dispatch.failed.push(index),
        }
    }
    dispatch.endpoints = transport
        .endpoints
        .iter()
        .zip(per_endpoint)
        .filter(|(_, (served, _))| !served.is_empty())
        .map(|(endpoint, (served, stats))| EndpointStats {
            endpoint: endpoint.clone(),
            shards: served,
            stats,
        })
        .collect();
    dispatch
}

/// One remote dispatch attempt: send the shard as a serve request, read
/// one response line under the transport deadline, and pull the batch
/// statistics out of it. Every failure mode — refused connection,
/// stalled endpoint, truncated line, unparseable or rejecting reply —
/// comes back as a description for the retry loop's log line.
fn request_shard(
    endpoint: &str,
    study: &ShardedStudy,
    shard_index: usize,
    shard_count: usize,
    timeout: Duration,
) -> Result<EngineStats, String> {
    let line = study.shard_request(shard_index, shard_count);
    let mut client =
        proto::LineClient::connect(endpoint, timeout).map_err(|e| format!("connect: {e}"))?;
    let reply = client.request(&line).map_err(|e| e.to_string())?;
    let value: Value =
        serde_json::from_str(&reply).map_err(|e| format!("unparseable response: {e}"))?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(match value.get("error").and_then(Value::as_str) {
            Some(why) => format!("endpoint rejected the shard: {why}"),
            None => "response is neither success nor error".to_string(),
        });
    }
    value
        .get("stats")
        .and_then(proto::stats_from_value)
        .ok_or_else(|| "response carries no usable stats".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_disjoint_and_balanced() {
        for len in [0usize, 1, 2, 7, 12, 100] {
            for shards in [1usize, 2, 3, 5, 16] {
                let ranges = partition(len, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[shards - 1].end, len);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "len={len} shards={shards}");
                }
                let sizes: Vec<usize> = ranges.iter().map(|range| range.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced {sizes:?}");
            }
        }
        assert_eq!(partition(5, 0).len(), 1);
    }

    #[test]
    fn round_robin_assignment_is_total_and_balanced() {
        for shards in [0usize, 1, 2, 7, 12, 100] {
            for endpoints in [1usize, 2, 3, 5, 16] {
                let assignment = assign_round_robin(shards, endpoints);
                assert_eq!(assignment.len(), shards, "every shard assigned exactly once");
                let mut load = vec![0usize; endpoints];
                for &endpoint in &assignment {
                    load[endpoint] += 1;
                }
                let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced {load:?}");
            }
        }
        assert_eq!(assign_round_robin(5, 0), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn endpoint_lists_parse_and_reject_garbage() {
        assert_eq!(parse_endpoints("a:1, b:2").unwrap(), vec!["a:1", "b:2"]);
        assert_eq!(parse_endpoints("127.0.0.1:4850").unwrap(), vec!["127.0.0.1:4850"]);
        for bad in ["", " , ", "a:1,", "nohost", "h:0", "h:notaport", "a:1,,b:2"] {
            assert!(parse_endpoints(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
