//! The engine's one content-addressed memo: finished jobs and the
//! pipeline stages they decompose into, each keyed by its job's inputs.
//!
//! A finished job (`spec × latency × options`, keyed by [`crate::key`])
//! is the memo's `job` kind. Job granularity alone would make an adder
//! walk over one (spec, λ) coordinate re-run the presynthesis
//! transformation at every point, and a one-operation spec edit a 100 %
//! cold start, so this module also decomposes a cache-miss job into the
//! stage functions `bittrans-core` exposes ([`bittrans_core::stage_extract`]
//! and friends) and memoizes three stages, each under a content key
//! built from the job's inputs that stage reads:
//!
//! ```text
//! stage        key material (joined with \x1f, then FNV-128 hashed)
//! ─────        ──────────────────────────────────────────────────────
//! fragment     "group", #spec, λ, vectors
//! sched_base   "sched_base", #spec, λ, chaining, balance
//! sched_frag   "sched_frag", #spec, λ, balance
//! ```
//!
//! `#spec` is the digest of the spec's pretty-printed form
//! (`source_digest`), taken once per computed job; no key is built from
//! an artifact.
//!
//! `fragment` is the paper's presynthesis transformation as one stage:
//! kernel extraction, fragmentation and the equivalence check of the
//! result against its source run together in its compute, in the order
//! [`bittrans_core::optimize`] runs them, so the same error surfaces
//! first, and only a verified [`Fragmented`] is memoized. Its key is the
//! job's stage-sharing group (`group_key`), so a group holds one
//! transformation.
//!
//! Each flow memoizes one artifact, `sched_base` or `sched_frag`: its
//! schedule together with that schedule's adder-invariant
//! [`Binding`] (`bittrans_core::stage_bind`). Binding reads nothing the
//! schedule's key does not pin already, so a stage of its own would only
//! add a key and a memo entry. Pricing the binding for the job's adder
//! ([`Binding::price`]) and timing the result (`bittrans_core::stage_time`)
//! are arithmetic, cheaper to redo than to key and memoize, so both run
//! inline on every call.
//!
//! Parsing/canonicalization is the degenerate zeroth stage: its
//! "artifact" is the spec's text itself, rendered and digested once per
//! computed job (`source_digest`, which the engine also groups jobs by)
//! and not separately cached: producing the key would cost as much as
//! producing the artifact.
//!
//! Concretely:
//!
//! * an adder-architecture axis and a timing-model axis share every
//!   stage: only the inline pricing and timing differ;
//! * a balance axis shares the group's `fragment`;
//! * a spec edit recomputes only the jobs of the edited spec.
//!
//! # Storage
//!
//! Every memo kind — the stage artifact types and a finished job's
//! [`JobResult`] — resolves through one slot lifecycle: claim the key's
//! [`OnceLock`] slot, then compute the value (or, for a job, load it from
//! the store), then land it and charge it. Concurrent callers that need
//! the same key wait on the one slot instead of computing it twice, so
//! hit/miss counts are deterministic for a given job set. Errors are
//! cached too — stages are pure functions of their keys, so a failure is
//! as reproducible as a success.
//!
//! A stage is computed inside its slot's initializer. A job's slot is
//! claimed unset, under the memo lock, by the engine call that will
//! compute it, so that slot is the job's in-flight registration: another
//! call wanting the key joins by waiting on it. A job that panics drops
//! its key and then lands an `Abandoned` marker, which wakes and fails its
//! waiters; a later call recomputes it.
//!
//! The memo is bounded by estimated bytes, jobs and stages alike: when a
//! value lands in its slot, the entry is charged an estimate of its
//! artifact's size plus a fixed per-entry overhead, and entries are
//! evicted oldest-first while the charged total exceeds
//! `STAGE_MEMO_BYTES` (4 MiB), so a long-lived serve process stops
//! growing without limit. The estimate is computed from the artifact's own
//! counts (values, operands and fragments of a transformed spec; schedule
//! entries, units and register groups of a bound schedule; the names of a
//! comparison), calibrated against the canonical text those artifacts
//! encode to, so nothing is encoded to size an entry. A slot whose value
//! is still being computed is never evicted — that is what keeps every key
//! computed exactly once. An entry larger than the whole budget still
//! reaches its caller but is not kept. An evicted job is reloaded from the
//! store when one is attached, and recomputed otherwise; an evicted stage
//! is recomputed.
//!
//! The store (`StageStore`) under `<cache-dir>/stages/` is the cache
//! directory's **only** on-disk store, and it holds finished jobs only, as
//! `<key>.stage` files: a one-line `bittrans-stage 2 job ok` envelope
//! followed by the canonical [`Comparison`]. Stages are shared within a
//! process, never across processes: a fresh process over a warm directory
//! answers an unchanged grid from `job` files, and recomputes the stages
//! of any job whose file is missing. Files are written to a hidden temp
//! file and atomically renamed into place; a file whose envelope or body
//! fails to decode — including one written by a *newer* schema, or one
//! whose envelope names another stage — is deleted and recomputed, never
//! misparsed, and the recompute's respill repairs it. The filesystem
//! itself is the index (no manifest to rebuild, nothing listed at open);
//! `cache prune` sweeps the directory oldest-first (every key resident in
//! the memo is pinned). Legacy schema-1 verify tokens (`<key>.json`, from
//! builds predating the codec) and the stage files older builds wrote
//! (`fragment`, `sched_base`, `sched_frag`, `extract`, `verify`, `time_*`,
//! `alloc_*`) are simply ignored until pruned: no lookup reads them.
//!
//! Every stage resolution emits one `stage` trace event whose `provenance`
//! (`memory` / `computed`) reconciles exactly with the [`StageTally`]
//! counters surfaced as `stage_hits` / `stage_misses` in
//! [`crate::EngineStats`]. Job claims emit no `stage` event and touch no
//! tally: the engine reports them as `job` events.

use crate::job::JobResult;
use crate::key::JobKey;
use crate::trace;
use bittrans_core::{
    stage_bind, stage_extract, stage_fragment, stage_schedule_conventional,
    stage_schedule_fragments, stage_time, stage_verify, Binding, Chaining, CompareOptions,
    Comparison, Fragmented, Implementation, PipelineError, Schedule,
};
use bittrans_ir::{Operand, Spec};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

/// Bound on the memo's charged bytes, finished jobs and stage artifacts
/// alike: each resident value costs its estimated size (see the module's
/// Storage section) plus [`MEMO_ENTRY_OVERHEAD`]. 4 MiB holds the whole
/// paper-corpus grid (216 jobs and 180 stage artifacts, about 2.2 MB
/// charged) without evicting. An evicted job falls back to the store when
/// one is attached; anything else evicted is recomputed.
pub(crate) const STAGE_MEMO_BYTES: usize = 4 << 20;

/// The fixed charge of one resident entry on top of its artifact's
/// estimated size: its map and order slots, the `OnceLock` and the `Arc`
/// headers. It is also the whole charge of a cached error.
const MEMO_ENTRY_OVERHEAD: usize = 256;

/// Schema version of the `<key>.stage` disk envelope. Bumping it makes
/// old files decode-fail (delete → recompute → respill), never misparse.
const STAGE_FILE_SCHEMA: u32 = 2;

/// The store's subdirectory of a cache directory.
const STAGE_SUBDIR: &str = "stages";

/// The stage name in a finished job's envelope, the only kind the store
/// holds (body: canonical [`Comparison`]).
const JOB_STAGE: &str = "job";

/// One cache directory's on-disk store of finished jobs:
/// `<cache-dir>/stages/<key>.stage` files, each a `bittrans-stage 2 job ok`
/// envelope line plus the job's canonical [`Comparison`]. Every layout
/// decision — subdirectory, file and temp naming, envelope — lives here;
/// callers deal in keys.
#[derive(Clone, Debug)]
pub(crate) struct StageStore {
    dir: PathBuf,
}

/// One file of a [`StageStore`], as listed for an eviction sweep (names
/// and metadata only; bodies are never parsed).
#[derive(Debug)]
pub(crate) struct StoreFile {
    /// Where the file lives.
    pub path: PathBuf,
    /// The key parsed from the file stem; `None` for foreign files, which
    /// can never be pinned and age out like anything else.
    pub key: Option<JobKey>,
    /// File size in bytes.
    pub bytes: u64,
    /// Modification time, seconds since the Unix epoch (0 if unknown).
    pub mtime: u64,
}

impl StageStore {
    /// The store of cache directory `cache_dir`. Nothing is read or
    /// created here: the subdirectory appears on first spill.
    pub(crate) fn of(cache_dir: &Path) -> StageStore {
        StageStore { dir: cache_dir.join(STAGE_SUBDIR) }
    }

    /// The store's directory (tests plant files in it).
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: JobKey) -> PathBuf {
        self.dir.join(format!("{key}.stage"))
    }

    /// The first line of every job file.
    fn envelope() -> String {
        format!("bittrans-stage {STAGE_FILE_SCHEMA} {JOB_STAGE} ok")
    }

    /// Reads `key`'s file and decodes it as a finished job's comparison;
    /// `None` when absent or corrupt. A file that exists but fails to
    /// decode — wrong schema (older *or* newer), an envelope naming
    /// another stage, a corrupt body — is deleted so the recompute's
    /// respill repairs it.
    pub(crate) fn load_job(&self, key: JobKey) -> Option<Comparison> {
        let path = self.path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let (envelope, body) = text.split_once('\n').unwrap_or((text.as_str(), ""));
        let comparison =
            if envelope == Self::envelope() { Comparison::from_canonical(body).ok() } else { None };
        if comparison.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        comparison
    }

    /// Best-effort spill of a job's canonical comparison `body`: hidden
    /// temp file in the same directory, then atomic rename, so a reader
    /// never sees a torn file. A failed write costs a recompute in some
    /// later process, never the caller's result, and leaves no temp file
    /// behind. The directory is made only when the temp file's write finds
    /// it missing (the first spill, or after it was removed), and that
    /// write is then retried once.
    fn spill(&self, key: JobKey, body: &str) {
        // The temp name carries pid + a process-wide counter: two threads
        // (or two engines sharing one store in one process) spilling the
        // same key must never interleave writes into one temp file.
        static SPILL: AtomicU64 = AtomicU64::new(0);
        let serial = SPILL.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{key}.{}-{serial}.tmp", std::process::id()));
        let text = format!("{}\n{body}", Self::envelope());
        let written = match std::fs::write(&tmp, &text) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&tmp, &text))
            }
            written => written,
        };
        if written.and_then(|()| std::fs::rename(&tmp, self.path(key))).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Copies the files of those `keys` this store holds into `into`,
    /// unread: a key without a file is skipped, and a corrupt file stays
    /// corrupt, so both stores start from the same state.
    ///
    /// # Errors
    ///
    /// I/O errors other than a missing source file.
    pub(crate) fn copy_jobs(&self, keys: &[JobKey], into: &StageStore) -> std::io::Result<()> {
        std::fs::create_dir_all(&into.dir)?;
        for &key in keys {
            match std::fs::copy(self.path(key), into.path(key)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }

    /// Every regular, non-hidden file of the store — `job` files, stage
    /// files of older builds and legacy `<key>.json` verify tokens alike,
    /// so stale generations age out instead of accreting — oldest first,
    /// with name order breaking mtime ties so sweeps are deterministic. Hidden
    /// (dot-prefixed) names are in-flight spill temp files and are left
    /// out. A store never spilled to lists empty.
    pub(crate) fn files(&self) -> Vec<StoreFile> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut files = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.starts_with('.') || path.is_dir() {
                continue;
            }
            let meta = std::fs::metadata(&path).ok();
            files.push(StoreFile {
                key: path.file_stem().and_then(|s| s.to_str()).and_then(JobKey::from_hex),
                bytes: meta.as_ref().map_or(0, std::fs::Metadata::len),
                mtime: meta
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_secs()),
                path,
            });
        }
        files.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        files
    }
}

/// A flow's one memoized artifact (`sched_base` / `sched_frag`): its
/// schedule and that schedule's adder-invariant binding.
struct Bound {
    schedule: Schedule,
    binding: Binding,
}

impl Bound {
    /// `schedule` of `spec`, bound.
    fn of(spec: &Spec, schedule: Schedule) -> Bound {
        let binding = stage_bind(spec, &schedule);
        Bound { schedule, binding }
    }

    /// The design point of `spec` under this schedule, priced with the
    /// job's adder and timed with its timing model.
    fn implementation(&self, name: &str, spec: &Spec, options: &CompareOptions) -> Implementation {
        let datapath = self.binding.price(options.adder_arch);
        stage_time(name, spec, &self.schedule, &datapath, &options.timing)
    }

    /// The memo's size estimate: a fixed part, then per schedule entry,
    /// per unit (functional unit, register, mux or glue) and per register
    /// group.
    fn bytes(&self) -> usize {
        let binding = &self.binding;
        let units =
            binding.fus.len() + binding.registers.len() + binding.muxes.len() + binding.glue.len();
        let groups: usize = binding.registers.iter().map(|r| r.groups.len()).sum();
        256 + 8 * self.schedule.len() + 16 * units + 8 * groups
    }
}

/// The memo's size estimate of a transformed spec: per value, per operand
/// and per constant bit of its spec, and per fragment.
fn fragmented_bytes(fragmented: &Fragmented) -> usize {
    let spec = &fragmented.spec;
    let operands = spec.ops().iter().flat_map(|op| op.operands());
    let (count, constant_bits) = operands.fold((0, 0), |(count, bits), operand| match operand {
        Operand::Const(value) => (count + 1, bits + value.width()),
        Operand::Value { .. } => (count + 1, bits),
    });
    13 * spec.values().len() + 20 * count + 2 * constant_bits + 20 * fragmented.fragments.len()
}

/// The memo's size estimate of a finished job: a fixed part for its two
/// implementations' figures, plus their names. A cached error is charged
/// nothing beyond the entry overhead.
fn job_bytes(result: &JobResult) -> usize {
    result.as_ref().map_or(0, |c| 530 + c.original.name.len() + c.optimized.name.len())
}

/// A resolved stage: the artifact, or the stage's error. This is what a
/// stage's memo slot holds.
type Resolved<T> = Result<Arc<T>, PipelineError>;

/// One memo slot. What lands in it is a stage's [`Resolved<T>`], a
/// finished job's [`JobResult`], or [`Abandoned`] when a job's
/// computation panicked.
pub(crate) type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// What the slot of a panicked job lands, waking the callers waiting on
/// it. Its key is dropped first, so a later call recomputes the job.
struct Abandoned;

/// Per-batch (or per-request) stage hit/miss counters, `Arc`-shared into
/// worker closures and folded into that batch's [`crate::EngineStats`].
#[derive(Debug, Default)]
pub struct StageTally {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageTally {
    /// Stages served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Stages computed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One memo entry: its slot and what it is charged against the budget
/// (0 until its value lands).
#[derive(Debug)]
struct Resident {
    slot: Slot,
    bytes: usize,
}

/// The byte-bounded slot memo: insertion-ordered, evicted oldest-first
/// while the charged total exceeds `budget`. An unset slot — a value
/// still being computed — is never evicted, so every resolver of its key
/// joins the one computation. Eviction only drops the memo's reference:
/// callers holding the slot's `Arc` keep their value, and a later request
/// for an evicted key re-resolves through the store (a job) or compute.
#[derive(Debug)]
struct Memo {
    map: HashMap<JobKey, Resident>,
    order: VecDeque<JobKey>,
    charged: usize,
    budget: usize,
}

impl Default for Memo {
    fn default() -> Self {
        Memo { map: HashMap::new(), order: VecDeque::new(), charged: 0, budget: STAGE_MEMO_BYTES }
    }
}

impl Memo {
    /// `key`'s slot, inserted empty (and uncharged) if absent.
    fn slot(&mut self, key: JobKey) -> Slot {
        if let Some(resident) = self.map.get(&key) {
            return Arc::clone(&resident.slot);
        }
        let slot = Slot::default();
        self.map.insert(key, Resident { slot: Arc::clone(&slot), bytes: 0 });
        self.order.push_back(key);
        slot
    }

    /// Charges `key`'s entry for the value that just landed in `slot` (an
    /// artifact estimated at `bytes`), then evicts down to the budget.
    /// A no-op when the entry was evicted or replaced meanwhile.
    fn charge(&mut self, key: JobKey, slot: &Slot, bytes: usize) {
        let Some(resident) = self.map.get_mut(&key) else { return };
        if !Arc::ptr_eq(&resident.slot, slot) {
            return;
        }
        resident.bytes = bytes + MEMO_ENTRY_OVERHEAD;
        self.charged += resident.bytes;
        let mut in_flight = Vec::new();
        while self.charged > self.budget {
            let Some(oldest) = self.order.pop_front() else { break };
            let resident = &self.map[&oldest];
            if resident.slot.get().is_none() {
                in_flight.push(oldest);
                continue;
            }
            self.charged -= resident.bytes;
            self.map.remove(&oldest);
        }
        for key in in_flight.into_iter().rev() {
            self.order.push_front(key);
        }
    }

    /// Drops `key`'s entry if it still holds `slot`.
    fn forget(&mut self, key: JobKey, slot: &Slot) {
        if self.map.get(&key).is_some_and(|resident| Arc::ptr_eq(&resident.slot, slot)) {
            self.charged -= self.map.remove(&key).map_or(0, |resident| resident.bytes);
            self.order.retain(|&k| k != key);
        }
    }
}

/// How [`JobClaims::claim`] found a job key.
pub(crate) enum Claim {
    /// Landed: resident in the memo (`"memory"`), or loaded from the
    /// store into an owned slot ([`StageCache::land_from_store`],
    /// `"disk"`).
    Landed(Arc<JobResult>, &'static str),
    /// Another call's unset slot: [`wait_job`] on it.
    Join(Slot),
    /// Inserted by this claim: load or compute the job, then land it —
    /// or [`StageCache::abandon`] it if the computation panics.
    Own(Slot),
}

/// One hold of the memo lock, claiming job keys.
pub(crate) struct JobClaims<'a>(MutexGuard<'a, Memo>);

impl JobClaims<'_> {
    /// Claims `key`: a landed slot is a hit, an unset one is another
    /// caller's to land, and an absent key gets an unset slot this caller
    /// owns.
    pub(crate) fn claim(&mut self, key: JobKey) -> Claim {
        match self.0.map.get(&key) {
            // An abandoned key leaves the memo before its marker lands,
            // and keys are tagged by kind, so a landed job slot holds a
            // job result (anything else is a 128-bit hash collision).
            Some(resident) => match resident.slot.get() {
                Some(value) => Claim::Landed(
                    Arc::clone(value).downcast().unwrap_or_else(|_| unreachable!("{key}: no job")),
                    "memory",
                ),
                None => Claim::Join(Arc::clone(&resident.slot)),
            },
            None => Claim::Own(self.0.slot(key)),
        }
    }
}

/// Blocks until a claimed job's slot lands: its result, or `None` when
/// the job panicked.
pub(crate) fn wait_job(slot: &Slot) -> Option<Arc<JobResult>> {
    Arc::clone(slot.wait()).downcast().ok()
}

/// The engine's one memo: byte-bounded in-memory `OnceLock` slots for
/// finished jobs and stage artifacts, plus an optional store persisting
/// finished jobs. One per [`crate::Engine`], shared by every batch and
/// serve request run through it.
#[derive(Debug, Default)]
pub struct StageCache {
    memo: Mutex<Memo>,
    /// The cache directory's store, when one is attached.
    store: Option<StageStore>,
}

impl StageCache {
    /// Attaches the store of cache directory `cache_dir`. Its
    /// subdirectory is created lazily, on first spill.
    pub(crate) fn attach_disk(&mut self, cache_dir: &Path) {
        self.store = Some(StageStore::of(cache_dir));
    }

    /// The attached store, if any.
    pub(crate) fn store(&self) -> Option<&StageStore> {
        self.store.as_ref()
    }

    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("stage cache lock")
    }

    /// Caps the memo's charged bytes (tests exercise small bounds; the
    /// default is [`STAGE_MEMO_BYTES`]).
    #[cfg(test)]
    pub(crate) fn set_memo_capacity(&self, bytes: usize) {
        self.lock().budget = bytes;
    }

    /// The memo's charged bytes now.
    #[cfg(test)]
    pub(crate) fn memo_bytes(&self) -> usize {
        self.lock().charged
    }

    /// Keys currently resident in the memo — `cache prune` pins these so
    /// an artifact the process is actively sharing is never evicted from
    /// disk out from under a concurrent reader's repair path.
    pub(crate) fn resident_keys(&self) -> HashSet<JobKey> {
        self.lock().map.keys().copied().collect()
    }

    /// Finished jobs resident in the memo.
    pub(crate) fn job_entries(&self) -> usize {
        let memo = self.lock();
        memo.map.values().filter(|r| r.slot.get().is_some_and(|v| v.is::<JobResult>())).count()
    }

    /// Claims job keys under one hold of the memo lock ([`JobClaims`]).
    pub(crate) fn claim_jobs(&self) -> JobClaims<'_> {
        JobClaims(self.lock())
    }

    /// Lands a computed job in the slot its caller owns: spills a success
    /// to the attached store, then sets the slot and charges it.
    pub(crate) fn land(&self, key: JobKey, slot: &Slot, result: &Arc<JobResult>) {
        if let (Some(store), Ok(comparison)) = (&self.store, result.as_ref()) {
            store.spill(key, &comparison.to_canonical());
        }
        self.settle(key, slot, result);
    }

    /// Lands an owned job slot from the job's file in the attached store,
    /// when one decodes: the loaded result, or `None` when the job must be
    /// computed. Runs outside the memo lock, which file reads would hold
    /// up.
    pub(crate) fn land_from_store(&self, key: JobKey, slot: &Slot) -> Option<Arc<JobResult>> {
        let result = Arc::new(Ok(self.store.as_ref()?.load_job(key)?));
        self.settle(key, slot, &result);
        Some(result)
    }

    /// Sets a job slot — waking every caller waiting on it — and charges
    /// it.
    fn settle(&self, key: JobKey, slot: &Slot, result: &Arc<JobResult>) {
        if slot.set(Arc::clone(result) as Arc<dyn Any + Send + Sync>).is_ok() {
            self.lock().charge(key, slot, job_bytes(result));
        }
    }

    /// Gives up the slot of a job whose computation panicked: drops its
    /// key, so a later call recomputes the job, then lands [`Abandoned`],
    /// so every caller waiting on it wakes and fails.
    pub(crate) fn abandon(&self, key: JobKey, slot: &Slot) {
        self.lock().forget(key, slot);
        let _ = slot.set(Arc::new(Abandoned));
    }

    /// Resolves one stage: serves the memoized artifact, or runs `compute`
    /// — exactly once per key, even under concurrency, because every
    /// caller funnels through the slot's `OnceLock` and an unset slot is
    /// never evicted. The caller that fills the slot charges it `bytes` of
    /// a computed artifact.
    fn resolve<T: Send + Sync + 'static>(
        &self,
        key: JobKey,
        stage: &'static str,
        tally: &StageTally,
        bytes: fn(&T) -> usize,
        compute: impl FnOnce() -> Result<T, PipelineError>,
    ) -> Resolved<T> {
        let slot = self.lock().slot(key);
        let mut computed = false;
        let value = slot.get_or_init(|| {
            computed = true;
            Arc::new(compute().map(Arc::new))
        });
        let result = value
            .downcast_ref::<Resolved<T>>()
            .cloned()
            .unwrap_or_else(|| unreachable!("stage key {key} holds another artifact type"));
        if computed {
            self.lock().charge(key, &slot, result.as_deref().map_or(0, bytes));
        }
        let counter = if computed { &tally.misses } else { &tally.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        trace::event("stage", |a| {
            a.str("stage", stage)
                .str("key", &key.to_string())
                .str("provenance", if computed { "computed" } else { "memory" })
                .flag("ok", result.is_ok());
        });
        result
    }

    /// Runs one comparison through the memoized stages. Composes the
    /// very same `bittrans-core` stage functions in the very same order
    /// as the monolithic [`bittrans_core::compare`] — baseline flow
    /// fully first, then the optimized flow — so results (including
    /// which error surfaces when both flows would fail) are
    /// bit-identical to the uncached path.
    ///
    /// `source` is `spec`'s [`source_digest`], which the caller has
    /// already taken to group the job ([`group_key`]).
    pub(crate) fn compare_staged(
        &self,
        spec: &Spec,
        source: JobKey,
        latency: u32,
        options: &CompareOptions,
        tally: &StageTally,
    ) -> Result<Comparison, PipelineError> {
        let chaining = Chaining::ComponentSum;

        // Baseline flow: the conventional schedule of the original spec
        // and its binding, priced and timed inline.
        let base = self.resolve(
            schedule_key("sched_base", source, latency, Some(chaining), options),
            "sched_base",
            tally,
            Bound::bytes,
            || {
                stage_schedule_conventional(spec, latency, chaining, options.balance)
                    .map(|schedule| Bound::of(spec, schedule))
            },
        )?;
        let original = base.implementation(spec.name(), spec, options);

        // Optimized flow: the group's one transformed spec, extracted,
        // fragmented and checked against its source in `optimize`'s
        // order, then its fragment schedule and binding.
        let fragmented = self.resolve(
            group_key(source, latency, options),
            "fragment",
            tally,
            fragmented_bytes,
            || {
                let kernel = stage_extract(spec)?;
                let fragmented = stage_fragment(&kernel, latency)?;
                stage_verify(spec, &fragmented.spec, options.verify_vectors)?;
                Ok(fragmented)
            },
        )?;
        let bound = self.resolve(
            schedule_key("sched_frag", source, latency, None, options),
            "sched_frag",
            tally,
            Bound::bytes,
            || {
                stage_schedule_fragments(&fragmented, options.balance)
                    .map(|schedule| Bound::of(&fragmented.spec, schedule))
            },
        )?;
        let optimized = bound.implementation(spec.name(), &fragmented.spec, options);

        Ok(Comparison { original, optimized })
    }
}

/// `#spec` of the key table above: the digest of a spec's pretty-printed
/// form, in every stage key. This is the parse/canonicalize "stage": one
/// rendering and one digest per computed job.
pub(crate) fn source_digest(spec: &Spec) -> JobKey {
    JobKey::of_bytes(spec.to_string().as_bytes())
}

/// A job's stage-sharing group, and the key of its `fragment` stage: the
/// inputs of the transformation every job of one (spec, λ) coordinate
/// resolves alike — #spec, λ and the verify vector count. The adder and
/// balance do not enter it: they only reach the schedule keys and the
/// inline pricing. The engine runs a group's jobs in turn on one worker,
/// so the first resolves the group's stages and the rest hit them instead
/// of waiting on another worker's slot; a sharded run keeps each group
/// whole in one shard for the same reason.
pub(crate) fn group_key(source: JobKey, latency: u32, options: &CompareOptions) -> JobKey {
    let (source, latency) = (source.to_string(), latency.to_string());
    stage_key(&["group", &source, &latency, &options.verify_vectors.to_string()])
}

/// A stage key: the stage-name-tagged parts joined with the same `\x1f`
/// separator [`crate::key`] uses, FNV-128 hashed.
fn stage_key(parts: &[&str]) -> JobKey {
    JobKey::of_bytes(parts.join("\x1f").as_bytes())
}

/// The key of a flow's schedule artifact, `stage` (`sched_base` or
/// `sched_frag`): the digest of the spec it schedules, λ, the baseline's
/// chaining model and balance. The adder and the timing model are not in
/// it: only the inline pricing and timing read them.
fn schedule_key(
    stage: &str,
    source: JobKey,
    latency: u32,
    chaining: Option<Chaining>,
    options: &CompareOptions,
) -> JobKey {
    let (source, latency) = (source.to_string(), latency.to_string());
    let balance = u8::from(options.balance).to_string();
    match chaining {
        Some(chaining) => stage_key(&[stage, &source, &latency, chaining.code(), &balance]),
        None => stage_key(&[stage, &source, &latency, &balance]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_core::compare;

    impl StageCache {
        /// [`StageCache::compare_staged`], taking the source digest here.
        fn staged(
            &self,
            spec: &Spec,
            latency: u32,
            options: &CompareOptions,
            tally: &StageTally,
        ) -> Result<Comparison, PipelineError> {
            self.compare_staged(spec, source_digest(spec), latency, options, tally)
        }
    }

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn staged_result_is_bit_identical_to_monolithic() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        let tally = StageTally::default();
        for latency in 2..=5 {
            let staged = cache.staged(&spec, latency, &options, &tally).unwrap();
            let mono = compare(&spec, latency, &options).unwrap();
            assert_eq!(
                serde_json::to_string(&staged).unwrap(),
                serde_json::to_string(&mono).unwrap(),
                "λ={latency}"
            );
        }
    }

    #[test]
    fn adder_axis_shares_extract_fragment_and_verify() {
        let spec = three_adds();
        let cache = StageCache::default();
        let tally = StageTally::default();
        let rca = CompareOptions::default();
        cache.staged(&spec, 3, &rca, &tally).unwrap();
        assert_eq!((tally.hits(), tally.misses()), (0, 3), "a cold point computes all 3 stages");

        for arch in [bittrans_rtl::AdderArch::CarryLookahead, bittrans_rtl::AdderArch::CarrySelect]
        {
            let options = CompareOptions { adder_arch: arch, ..CompareOptions::default() };
            let (h0, m0) = (tally.hits(), tally.misses());
            let staged = cache.staged(&spec, 3, &options, &tally).unwrap();
            // Shared: the verified fragmentation and both bound schedules
            // (the adder only enters at the inline pricing).
            assert_eq!(tally.hits() - h0, 3, "{arch:?}: every stage shared");
            assert_eq!(tally.misses() - m0, 0, "{arch:?}: nothing recomputed");
            assert_eq!(
                serde_json::to_string(&staged).unwrap(),
                serde_json::to_string(&compare(&spec, 3, &options).unwrap()).unwrap(),
                "{arch:?}"
            );
        }
    }

    #[test]
    fn stage_errors_are_cached_and_stable() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        let tally = StageTally::default();
        let first = cache.staged(&spec, 0, &options, &tally).unwrap_err();
        let misses = tally.misses();
        let second = cache.staged(&spec, 0, &options, &tally).unwrap_err();
        assert_eq!(tally.misses(), misses, "failed stage is served from cache");
        assert_eq!(first.to_string(), second.to_string());
        assert!(first.is_infeasible());
    }

    /// A cache dir holding one finished job (λ = 3 of [`three_adds`]), its
    /// only file, plus the job's key.
    fn seeded_job_dir(tag: &str) -> (PathBuf, JobKey) {
        let dir = tempdir(tag);
        let job = crate::Job::with_options(
            three_adds(),
            3,
            CompareOptions { verify_vectors: 64, ..CompareOptions::default() },
        );
        let engine = crate::Engine::default().with_cache_dir(&dir).unwrap();
        assert_eq!(engine.run(vec![job.clone()]).stats.cache_misses, 1);
        (dir, job.key())
    }

    /// Runs the seeded job on a fresh engine over `dir`: its statistics.
    fn rerun(dir: &Path) -> crate::EngineStats {
        let job = crate::Job::with_options(
            three_adds(),
            3,
            CompareOptions { verify_vectors: 64, ..CompareOptions::default() },
        );
        let engine = crate::Engine::default().with_cache_dir(dir).unwrap();
        let report = engine.run(vec![job.clone()]);
        let expected = compare(&job.spec, 3, &job.options).unwrap();
        assert_eq!(
            serde_json::to_string(report.cells[0].result.as_ref().as_ref().unwrap()).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        report.stats
    }

    #[test]
    fn corrupt_job_files_are_deleted_and_recomputed() {
        let (dir, key) = seeded_job_dir("job-corrupt");
        let store = StageStore::of(&dir);
        let job_file = store.path(key);
        // Empty, a future schema, junk, a truncated envelope, and a garbled
        // body under a valid envelope.
        for corruption in [
            "",
            "bittrans-stage 999 job ok\n",
            "not a stage file",
            "bittrans-stage 2\n",
            "bittrans-stage 2 job ok\ngarbage body\n",
        ] {
            std::fs::write(&job_file, corruption).unwrap();
            assert!(store.load_job(key).is_none(), "{corruption:?} is never served");
            assert!(!job_file.exists(), "{corruption:?} is deleted on load");

            std::fs::write(&job_file, corruption).unwrap();
            let stats = rerun(&dir);
            assert_eq!(stats.cache_misses, 1, "{corruption:?}: the job recomputes");
            assert_eq!(stats.stage_misses, 3, "{corruption:?}: and so do its stages");
            let text = std::fs::read_to_string(&job_file).unwrap();
            assert!(text.starts_with("bittrans-stage 2 job ok\n"), "respill repaired {text:.40}");
            assert!(store.load_job(key).is_some(), "{corruption:?}: the respill decodes");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_envelope_naming_another_stage_is_deleted_and_recomputed() {
        let (dir, key) = seeded_job_dir("job-wrong-stage");
        let store = StageStore::of(&dir);
        // The job file claims to be a schedule, its body otherwise intact.
        let job_file = store.path(key);
        let text = std::fs::read_to_string(&job_file).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        std::fs::write(&job_file, format!("bittrans-stage 2 sched_base ok\n{body}")).unwrap();
        assert!(store.load_job(key).is_none(), "a mislabelled job is never served");
        assert!(!job_file.exists());

        std::fs::write(&job_file, format!("bittrans-stage 2 sched_base ok\n{body}")).unwrap();
        let stats = rerun(&dir);
        assert_eq!((stats.cache_misses, stats.stage_misses), (1, 3));
        assert!(store.load_job(key).is_some(), "the respill repaired the job file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cold_job_writes_one_job_file_and_leaves_stage_files_of_older_builds_to_prune() {
        let (dir, key) = seeded_job_dir("store-layout");
        let store = StageStore::of(&dir);
        let files = store.files();
        assert_eq!(files.len(), 1, "a cold job writes one file: {files:?}");
        assert_eq!(files[0].key, Some(key));
        let text = std::fs::read_to_string(&files[0].path).unwrap();
        assert!(text.starts_with("bittrans-stage 2 job ok\n"), "{text:.40}");

        // Files older builds spilled: this build's three stage kinds under
        // the very keys this job resolves, then a kernel, a verify token,
        // a timing file and a per-adder datapath under the keys those
        // builds used. No run reads, repairs or deletes any of them.
        let spec = three_adds();
        let options = CompareOptions { verify_vectors: 64, ..CompareOptions::default() };
        let source = source_digest(&spec);
        let hex = source.to_string();
        let original = compare(&spec, 3, &options).unwrap().original;
        let chaining = Some(Chaining::ComponentSum);
        let planted = [
            (
                group_key(source, 3, &options),
                "bittrans-stage 2 fragment ok\nbittrans-canonical fragmented 1\n".to_owned(),
            ),
            (
                schedule_key("sched_base", source, 3, chaining, &options),
                "bittrans-stage 2 sched_base ok\nbittrans-canonical bound 1\n".to_owned(),
            ),
            (
                schedule_key("sched_frag", source, 3, None, &options),
                "bittrans-stage 2 sched_frag ok\nbittrans-canonical bound 1\n".to_owned(),
            ),
            (
                stage_key(&["extract", &hex]),
                format!("bittrans-stage 2 extract ok\n{}", spec.to_canonical()),
            ),
            (stage_key(&["verify", &hex, "64"]), "bittrans-stage 2 verify ok\n".to_owned()),
            (
                JobKey::of_bytes(b"time_base of an older build"),
                format!("bittrans-stage 2 time_base ok\n{}", original.to_canonical()),
            ),
            (
                JobKey::of_bytes(b"alloc_base of an older build"),
                "bittrans-stage 2 alloc_base ok\nbittrans-canonical datapath 1\nend datapath\n"
                    .to_owned(),
            ),
        ];
        for (key, text) in &planted {
            std::fs::write(store.path(*key), text).unwrap();
        }
        std::fs::remove_file(store.path(key)).unwrap();
        let stats = rerun(&dir);
        assert_eq!((stats.stage_hits, stats.stage_misses), (0, 3), "no stage read from disk");
        for (key, text) in &planted {
            assert_eq!(&std::fs::read_to_string(store.path(*key)).unwrap(), text, "untouched");
        }

        // `cache prune` counts them like any other file, and removes them.
        let engine = crate::Engine::default().with_cache_dir(&dir).unwrap();
        let report =
            engine.prune_cache(crate::PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
        assert_eq!((report.scanned, report.removed, report.kept), (8, 8, 0));
        assert!(planted.iter().all(|(key, _)| !store.path(*key).exists()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spill_remakes_a_removed_store_directory() {
        let dir = tempdir("store-removed");
        let engine = crate::Engine::default().with_cache_dir(&dir).unwrap();
        let job = |latency| {
            let options = CompareOptions { verify_vectors: 64, ..CompareOptions::default() };
            crate::Job::with_options(three_adds(), latency, options)
        };
        let store = StageStore::of(&dir);
        assert_eq!(engine.run(vec![job(3)]).stats.cache_misses, 1);
        assert!(store.load_job(job(3).key()).is_some());

        std::fs::remove_dir_all(dir.join(STAGE_SUBDIR)).unwrap();
        assert_eq!(engine.run(vec![job(4)]).stats.cache_misses, 1);
        assert!(store.load_job(job(4).key()).is_some(), "the cold job's file decodes");
        let names: Vec<_> = std::fs::read_dir(dir.join(STAGE_SUBDIR))
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "one job file and no temp file left: {names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_schedule_key_ignores_adder_and_timing_but_not_latency_balance_or_chaining() {
        let source = JobKey::of_bytes(b"a spec's digest");
        let options = CompareOptions::default();
        let base = |latency, chaining, options: &CompareOptions| {
            schedule_key("sched_base", source, latency, Some(chaining), options)
        };
        let key = base(3, Chaining::ComponentSum, &options);
        let slow = bittrans_timing::TimingModel { delta_ns: 1.5, overhead_ns: 0.25 };
        for other in [
            CompareOptions { adder_arch: bittrans_rtl::AdderArch::CarryLookahead, ..options },
            CompareOptions { adder_arch: bittrans_rtl::AdderArch::CarrySelect, ..options },
            CompareOptions { timing: slow, ..options },
            CompareOptions { verify_vectors: 7, ..options },
        ] {
            assert_eq!(base(3, Chaining::ComponentSum, &other), key, "{other:?}");
        }
        let unbalanced = CompareOptions { balance: false, ..options };
        for changed in [
            base(4, Chaining::ComponentSum, &options),
            base(3, Chaining::BitLevel, &options),
            base(3, Chaining::ComponentSum, &unbalanced),
            schedule_key(
                "sched_base",
                JobKey::of_bytes(b"another"),
                3,
                Some(Chaining::ComponentSum),
                &options,
            ),
        ] {
            assert_ne!(changed, key);
        }

        // The fragment schedule has no chaining model; the rest holds.
        let frag = |latency, options: &CompareOptions| {
            schedule_key("sched_frag", source, latency, None, options)
        };
        let key = frag(3, &options);
        let cla = CompareOptions { adder_arch: bittrans_rtl::AdderArch::CarryLookahead, ..options };
        assert_eq!(frag(3, &cla), key);
        assert_eq!(frag(3, &CompareOptions { timing: slow, ..options }), key);
        assert_ne!(frag(4, &options), key);
        assert_ne!(frag(3, &unbalanced), key);
        assert_ne!(key, base(3, Chaining::ComponentSum, &options), "the flows never share a key");
    }

    #[test]
    fn concurrent_spills_of_one_key_never_tear_a_read() {
        let dir = tempdir("spill-race");
        let comparison =
            compare(&three_adds(), 3, &CompareOptions { verify_vectors: 0, ..Default::default() })
                .unwrap();
        let key = JobKey::of_bytes(b"shared");
        let body = comparison.to_canonical();
        StageStore::of(&dir).spill(key, &body);
        let writers_done = AtomicU64::new(0);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    // Each writer is its own engine's stage cache.
                    let mut cache = StageCache::default();
                    cache.attach_disk(&dir);
                    start.wait();
                    for _ in 0..400 {
                        cache.store().unwrap().spill(key, &body);
                    }
                    writers_done.fetch_add(1, Ordering::Relaxed);
                });
            }
            scope.spawn(|| {
                let store = StageStore::of(&dir);
                start.wait();
                while writers_done.load(Ordering::Relaxed) < 2 {
                    let loaded = store.load_job(key).expect("every load decodes");
                    assert_eq!(loaded.to_canonical(), body);
                }
            });
        });
        let names: Vec<String> = std::fs::read_dir(dir.join(STAGE_SUBDIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec![format!("{key}.stage")], "no temp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_is_bounded_by_the_eviction_policy() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let expected =
            |latency| serde_json::to_string(&compare(&spec, latency, &options).unwrap()).unwrap();
        // Room for a few artifacts: one latency point already overflows it.
        let budget = 8 * MEMO_ENTRY_OVERHEAD;
        let cache = StageCache::default();
        cache.set_memo_capacity(budget);
        let tally = StageTally::default();
        for latency in [2, 3, 4, 5] {
            let got = cache.staged(&spec, latency, &options, &tally).unwrap();
            assert!(cache.memo_bytes() <= budget, "{} > {budget} bytes", cache.memo_bytes());
            assert_eq!(serde_json::to_string(&got).unwrap(), expected(latency));
        }
        assert!(!cache.resident_keys().is_empty(), "entries under the budget stay resident");
        // Results stay byte-identical under eviction; the evicted prefix
        // simply recomputes.
        let misses = tally.misses();
        let again = cache.staged(&spec, 2, &options, &tally).unwrap();
        assert!(tally.misses() > misses, "λ = 2 was evicted, so part of it recomputes");
        assert_eq!(serde_json::to_string(&again).unwrap(), expected(2));

        // Every entry outgrows a budget below the per-entry overhead: each
        // still reaches its caller, and none is kept.
        let tiny = StageCache::default();
        tiny.set_memo_capacity(MEMO_ENTRY_OVERHEAD - 1);
        let got = tiny.staged(&spec, 3, &options, &StageTally::default()).unwrap();
        assert_eq!(serde_json::to_string(&got).unwrap(), expected(3));
        assert!(tiny.resident_keys().is_empty());
        assert_eq!(tiny.memo_bytes(), 0);
    }

    /// [`STAGE_MEMO_BYTES`] holds the whole paper-corpus grid: its 216
    /// jobs and 180 stage artifacts all stay resident. The estimates stay
    /// calibrated: their total is within a quarter of the 2,220,200 bytes
    /// this grid was charged when every entry cost its canonical text's
    /// length.
    #[test]
    fn the_paper_corpus_grid_stays_resident_under_the_default_bound() {
        use bittrans_benchmarks::{
            extended_benchmarks, fig3_dfg, table2_benchmarks, table3_benchmarks,
        };
        use bittrans_rtl::AdderArch;
        let mut specs: Vec<Spec> = table2_benchmarks()
            .into_iter()
            .chain(table3_benchmarks())
            .chain(extended_benchmarks())
            .map(|b| b.spec)
            .collect();
        specs.extend([bittrans_benchmarks::three_adds(), fig3_dfg()]);
        let engine = crate::Engine::default();
        let report = crate::Study::over(specs)
            .latencies([3, 5, 6])
            .adder_archs([
                AdderArch::RippleCarry,
                AdderArch::CarryLookahead,
                AdderArch::CarrySelect,
            ])
            .balance_both()
            .verify_vectors([8])
            .run(&engine);
        assert_eq!((report.cells.len(), report.stats.cache_misses), (216, 216));
        assert_eq!(report.stats.stage_misses, 180);

        let stages = &engine.shared.stages;
        assert_eq!(stages.job_entries(), 216, "every job stays resident");
        let memo = stages.lock();
        assert_eq!(memo.budget, STAGE_MEMO_BYTES);
        assert_eq!(memo.map.len(), 216 + 180, "nothing was evicted");
        let parent = 2_220_200.0;
        let ratio = memo.charged as f64 / parent;
        assert!((0.75..=1.25).contains(&ratio), "{} bytes charged: {ratio:.3}×", memo.charged);
    }

    #[test]
    fn eviction_never_drops_an_in_flight_slot() {
        let fragmented = stage_fragment(&stage_extract(&three_adds()).unwrap(), 3).unwrap();
        let budget = 4 * (fragmented_bytes(&fragmented) + MEMO_ENTRY_OVERHEAD);
        let cache = StageCache::default();
        cache.set_memo_capacity(budget);
        let tally = StageTally::default();
        let key = JobKey::of_bytes(b"in-flight");
        let computes = AtomicU64::new(0);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let resolve_key = |wait: Option<std::sync::mpsc::Receiver<()>>| {
            cache.resolve(key, "fragment", &tally, fragmented_bytes, || {
                computes.fetch_add(1, Ordering::SeqCst);
                if let Some(gate) = wait {
                    gate.recv().unwrap();
                }
                Ok(fragmented.clone())
            })
        };
        // The slot's holders: the memo itself plus every caller inside
        // `resolve` for it.
        let holders = || {
            let memo = cache.memo.lock().unwrap();
            memo.map.get(&key).map_or(0, |r| Arc::strong_count(&r.slot))
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| resolve_key(Some(gate)));
            while computes.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            // Far more landed entries than the budget holds, while A's
            // slot is still unset.
            for i in 0u32..16 {
                let key = JobKey::of_bytes(&i.to_le_bytes());
                cache
                    .resolve(key, "fragment", &tally, fragmented_bytes, || Ok(fragmented.clone()))
                    .unwrap();
            }
            assert!(cache.memo_bytes() <= budget);
            let b = scope.spawn(|| resolve_key(None));
            // B joins A's slot (a third holder) — or, had the slot been
            // evicted, computes on a fresh one.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while holders() < 3
                && computes.load(Ordering::SeqCst) < 2
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "the in-flight stage computed twice");
    }

    #[test]
    fn a_joined_job_costs_no_pool_task() {
        let spec = three_adds();
        let job = crate::Job::new(spec.clone(), 3);
        let engine = crate::Engine::new(crate::EngineOptions { workers: Some(1), cache: true });
        let stages = &engine.shared.stages;
        // The gate: this test holds the job's first stage, `sched_base`,
        // mid-compute, so the job stays in flight until the gate opens.
        let source = JobKey::of_bytes(spec.to_string().as_bytes());
        let first_stage =
            schedule_key("sched_base", source, 3, Some(Chaining::ComponentSum), &job.options);
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let entered = AtomicU64::new(0);
        // The job slot's holders: the memo, the first call's task, and
        // the second call once it has joined.
        let holders = || {
            let memo = stages.memo.lock().unwrap();
            memo.map.get(&job.key()).map_or(0, |r| Arc::strong_count(&r.slot))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let (first, second, joined) = std::thread::scope(|scope| {
            let held = scope.spawn(|| {
                stages.resolve(
                    first_stage,
                    "sched_base",
                    &StageTally::default(),
                    Bound::bytes,
                    || {
                        entered.fetch_add(1, Ordering::SeqCst);
                        gate.lock().unwrap().recv().unwrap();
                        stage_schedule_conventional(
                            &spec,
                            3,
                            Chaining::ComponentSum,
                            job.options.balance,
                        )
                        .map(|schedule| Bound::of(&spec, schedule))
                    },
                )
            });
            while entered.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let first = scope.spawn(|| engine.run(vec![job.clone()]));
            // The one worker takes the first call's task, which then
            // waits on the gate.
            while engine.sched_stats().dispatched_tasks == 0 {
                std::thread::yield_now();
            }
            let second = scope.spawn(|| engine.run(vec![job.clone()]));
            while holders() < 3 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let joined = holders() >= 3;
            open.send(()).unwrap();
            held.join().unwrap().unwrap();
            (first.join().unwrap(), second.join().unwrap(), joined)
        });
        assert!(joined, "the second call never joined the in-flight job");
        assert_eq!(engine.sched_stats().dispatched_tasks, 1, "the join cost a pool task");
        assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (1, 0));
        assert_eq!(first.stats.cache_misses, 1);
        assert_eq!(first.stats.stage_hits, 1, "the first stage was the gated one");
        let shared = Arc::ptr_eq(&first.cells[0].result, &second.cells[0].result);
        assert!(shared, "the join hands out the computed result");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bittrans-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
