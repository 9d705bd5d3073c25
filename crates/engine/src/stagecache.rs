//! The engine's content-addressed memo of finished jobs, the cache
//! directory's store behind it, and the stage table a stage-sharing
//! group's cache-miss jobs are computed through.
//!
//! # Finished jobs
//!
//! A finished job (`spec × latency × options`, keyed by [`crate::key`])
//! resolves through one slot lifecycle: claim the key's [`OnceLock`] slot
//! under the memo lock, then load the job from the store or compute it,
//! then land it and charge it. The slot is claimed unset by the engine
//! call that will compute it, so it is the job's in-flight registration:
//! another call wanting the key joins by waiting on it instead of
//! computing it twice, so hit/miss counts are deterministic for a given
//! job set. Errors are cached too: a job is a pure function of its key,
//! so a failure is as reproducible as a success. A job that panics drops
//! its key and then lands `None`, which wakes and fails its waiters; a
//! later call recomputes it.
//!
//! The memo is bounded by estimated bytes: when a job lands, its entry is
//! charged an estimate of its result's size (a fixed part for the two
//! implementations' figures, plus their names) and a fixed per-entry
//! overhead, and entries are evicted oldest-first while the charged total
//! exceeds `STAGE_MEMO_BYTES` (4 MiB), so a long-lived serve process stops
//! growing without limit. A slot whose job is still being computed is
//! never evicted — that is what keeps every key computed exactly once. An
//! entry larger than the whole budget still reaches its caller but is not
//! kept. An evicted job is reloaded from the store when one is attached,
//! and recomputed otherwise.
//!
//! # Stages
//!
//! Job granularity alone would make an adder walk over one (spec, λ)
//! coordinate re-run the presynthesis transformation at every point, so a
//! cache-miss job is decomposed into the stage functions `bittrans-core`
//! exposes ([`bittrans_core::stage_extract`] and friends). The jobs of one
//! stage-sharing group (`group_key`: #spec, λ and the verify vector count)
//! resolve their stages against one `GroupStages` table, owned by the
//! pool task that runs the group and dropped when that task ends. No stage
//! outlives its task, so none is shared between groups or engine calls.
//! The table holds:
//!
//! ```text
//! stage        one per              runs
//! ─────        ───────              ────
//! fragment     group                extract, fragment, verify
//! sched_base   balance setting      conventional schedule, bind
//! sched_frag   balance setting      fragment schedule, bind
//! ```
//!
//! `#spec` is the digest of the spec's pretty-printed form
//! (`source_digest`), taken once per computed job to group it.
//!
//! `fragment` is the paper's presynthesis transformation as one stage:
//! kernel extraction, fragmentation and the equivalence check of the
//! result against its source run together, in the order
//! [`bittrans_core::optimize`] runs them, so the same error surfaces first.
//!
//! Each flow's entry is its schedule together with that schedule's
//! adder-invariant [`Binding`] (`bittrans_core::stage_bind`). A group's
//! members differ only in adder, timing model and balance, and only
//! balance reaches a schedule. Pricing the binding for the job's adder
//! ([`Binding::price`]) and timing the result (`bittrans_core::stage_time`)
//! are arithmetic, cheaper to redo than to keep, so both run inline on
//! every call. Errors are kept like artifacts: a stage is a pure function
//! of its group and balance setting.
//!
//! Concretely, an adder-architecture axis and a timing-model axis share
//! every stage of their group, and a balance axis shares the group's
//! `fragment`. A later call that adds adders to a grid recomputes its
//! groups' stages.
//!
//! Every stage resolution emits one `stage` trace event, keyed by its
//! group, whose `provenance` (`memory` / `computed`) reconciles exactly
//! with the [`StageTally`] counters surfaced as `stage_hits` /
//! `stage_misses` in [`crate::EngineStats`]. Job claims emit no `stage`
//! event and touch no tally: the engine reports them as `job` events.
//!
//! # Store
//!
//! The store (`StageStore`) under `<cache-dir>/stages/` is the cache
//! directory's **only** on-disk store, and it holds finished jobs only, as
//! `<key>.stage` files: a one-line `bittrans-stage 2 job ok` envelope
//! followed by the canonical [`Comparison`]. A fresh process over a warm
//! directory answers an unchanged grid from `job` files, and recomputes
//! the stages of any job whose file is missing. Files are written to a
//! hidden temp file and atomically renamed into place; a file whose
//! envelope or body fails to decode — including one written by a *newer*
//! schema, or one whose envelope names another stage — is deleted and
//! recomputed, never misparsed, and the recompute's respill repairs it.
//! The filesystem itself is the index (no manifest to rebuild, nothing
//! listed at open); `cache prune` sweeps the directory oldest-first (every
//! key resident in the memo is pinned). Legacy schema-1 verify tokens
//! (`<key>.json`, from builds predating the codec) and the stage files
//! older builds wrote (`fragment`, `sched_base`, `sched_frag`, `extract`,
//! `verify`, `time_*`, `alloc_*`) are simply ignored until pruned: no
//! lookup reads them.

use crate::job::JobResult;
use crate::key::JobKey;
use crate::trace;
use bittrans_core::{
    stage_bind, stage_extract, stage_fragment, stage_schedule_conventional,
    stage_schedule_fragments, stage_time, stage_verify, Binding, Chaining, CompareOptions,
    Comparison, Fragmented, Implementation, PipelineError, Schedule,
};
use bittrans_ir::Spec;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

/// Bound on the memo's charged bytes: each resident job costs its
/// estimated size (see the module's Finished jobs section) plus
/// [`MEMO_ENTRY_OVERHEAD`]. 4 MiB holds the whole paper-corpus grid (216
/// jobs, about 0.17 MB charged) many times over. An evicted job falls back
/// to the store when one is attached, and is recomputed otherwise.
pub(crate) const STAGE_MEMO_BYTES: usize = 4 << 20;

/// The fixed charge of one resident entry on top of its job's estimated
/// size: its map and order slots, the `OnceLock` and the `Arc` headers. It
/// is also the whole charge of a cached error.
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

/// A flow's stage (`sched_base` / `sched_frag`): its schedule and that
/// schedule's adder-invariant binding.
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
}

/// The memo's size estimate of a finished job: a fixed part for its two
/// implementations' figures, plus their names. A cached error is charged
/// nothing beyond the entry overhead.
fn job_bytes(result: &JobResult) -> usize {
    result.as_ref().map_or(0, |c| 530 + c.original.name.len() + c.optimized.name.len())
}

/// One job's memo slot: unset while the job is in flight, then its result,
/// or `None` when its computation panicked.
pub(crate) type Slot = Arc<OnceLock<Option<Arc<JobResult>>>>;

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
/// (0 until its job lands).
#[derive(Debug)]
struct Resident {
    slot: Slot,
    bytes: usize,
}

/// The byte-bounded job memo: insertion-ordered, evicted oldest-first
/// while the charged total exceeds `budget`. An unset slot — a job still
/// being computed — is never evicted, so every caller wanting its key
/// joins the one computation. Eviction only drops the memo's reference:
/// callers holding the slot's `Arc` keep their result, and a later request
/// for an evicted key goes to the store or recomputes.
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
    /// Charges `key`'s entry for the job that just landed in `slot`
    /// (estimated at `bytes`), then evicts down to the budget. A no-op
    /// when the entry was evicted or replaced meanwhile.
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
        let memo = &mut self.0;
        if let Some(resident) = memo.map.get(&key) {
            return match resident.slot.get() {
                Some(Some(result)) => Claim::Landed(Arc::clone(result), "memory"),
                // Unset. (An abandoned key leaves the memo before its
                // `None` lands, so a resident slot never holds one.)
                _ => Claim::Join(Arc::clone(&resident.slot)),
            };
        }
        let slot = Slot::default();
        memo.map.insert(key, Resident { slot: Arc::clone(&slot), bytes: 0 });
        memo.order.push_back(key);
        Claim::Own(slot)
    }
}

/// Blocks until a claimed job's slot lands: its result, or `None` when
/// the job panicked.
pub(crate) fn wait_job(slot: &Slot) -> Option<Arc<JobResult>> {
    slot.wait().clone()
}

/// The engine's one memo: byte-bounded in-memory `OnceLock` slots for
/// finished jobs, plus an optional store persisting them. One per
/// [`crate::Engine`], shared by every batch and serve request run through
/// it.
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
    /// a job the process is actively sharing is never evicted from disk
    /// out from under a concurrent reader's repair path.
    pub(crate) fn resident_keys(&self) -> HashSet<JobKey> {
        self.lock().map.keys().copied().collect()
    }

    /// Finished jobs resident in the memo.
    pub(crate) fn job_entries(&self) -> usize {
        self.lock().map.values().filter(|r| r.slot.get().is_some()).count()
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
        if slot.set(Some(Arc::clone(result))).is_ok() {
            self.lock().charge(key, slot, job_bytes(result));
        }
    }

    /// Gives up the slot of a job whose computation panicked: drops its
    /// key, so a later call recomputes the job, then lands `None`, so
    /// every caller waiting on it wakes and fails.
    pub(crate) fn abandon(&self, key: JobKey, slot: &Slot) {
        self.lock().forget(key, slot);
        let _ = slot.set(None);
    }
}

/// A stage's entry in a [`GroupStages`] table: unset until a member
/// resolves it, then its artifact or its error.
type Entry<T> = Option<Result<T, PipelineError>>;

/// The stages of one stage-sharing group ([`group_key`]), owned by the
/// pool task that runs the group and dropped with it: the group's
/// `fragment`, and per balance setting each flow's bound schedule. Each
/// entry is computed by the first member that resolves it.
pub(crate) struct GroupStages {
    /// The group's key, every `stage` event's `key`.
    key: JobKey,
    fragment: Entry<Fragmented>,
    /// `sched_base`, indexed by balance setting.
    base: [Entry<Bound>; 2],
    /// `sched_frag`, indexed by balance setting.
    frag: [Entry<Bound>; 2],
}

impl GroupStages {
    /// The empty table of the group keyed `key`.
    pub(crate) fn new(key: JobKey) -> GroupStages {
        GroupStages { key, fragment: None, base: [None, None], frag: [None, None] }
    }

    /// Runs one comparison of a group member through the table. Composes
    /// the very same `bittrans-core` stage functions in the very same
    /// order as the monolithic [`bittrans_core::compare`] — baseline flow
    /// fully first, then the optimized flow — so results (including which
    /// error surfaces when both flows would fail) are bit-identical to the
    /// uncached path.
    pub(crate) fn compare_staged(
        &mut self,
        spec: &Spec,
        latency: u32,
        options: &CompareOptions,
        tally: &StageTally,
    ) -> Result<Comparison, PipelineError> {
        let (key, balance) = (self.key, usize::from(options.balance));

        // Baseline flow: the conventional schedule of the original spec
        // and its binding, priced and timed inline.
        let base = stage(&mut self.base[balance], key, "sched_base", tally, || {
            stage_schedule_conventional(spec, latency, Chaining::ComponentSum, options.balance)
                .map(|schedule| Bound::of(spec, schedule))
        })?;
        let original = base.implementation(spec.name(), spec, options);

        // Optimized flow: the group's one transformed spec, extracted,
        // fragmented and checked against its source in `optimize`'s
        // order, then its fragment schedule and binding.
        let fragmented = stage(&mut self.fragment, key, "fragment", tally, || {
            let kernel = stage_extract(spec)?;
            let fragmented = stage_fragment(&kernel, latency)?;
            stage_verify(spec, &fragmented.spec, options.verify_vectors)?;
            Ok(fragmented)
        })?;
        let bound = stage(&mut self.frag[balance], key, "sched_frag", tally, || {
            stage_schedule_fragments(fragmented, options.balance)
                .map(|schedule| Bound::of(&fragmented.spec, schedule))
        })?;
        let optimized = bound.implementation(spec.name(), &fragmented.spec, options);

        Ok(Comparison { original, optimized })
    }
}

/// Serves `entry`, computing it first when unset, and records the
/// resolution: one tally count and one `stage` event, `computed` or
/// `memory`.
fn stage<'a, T>(
    entry: &'a mut Entry<T>,
    key: JobKey,
    name: &'static str,
    tally: &StageTally,
    compute: impl FnOnce() -> Result<T, PipelineError>,
) -> Result<&'a T, PipelineError> {
    let computed = entry.is_none();
    let result = entry.get_or_insert_with(compute);
    let counter = if computed { &tally.misses } else { &tally.hits };
    counter.fetch_add(1, Ordering::Relaxed);
    trace::event("stage", |a| {
        a.str("stage", name)
            .str("key", &key.to_string())
            .str("provenance", if computed { "computed" } else { "memory" })
            .flag("ok", result.is_ok());
    });
    result.as_ref().map_err(Clone::clone)
}

/// `#spec` of the module's stage table: the digest of a spec's
/// pretty-printed form. This is the parse/canonicalize "stage": one
/// rendering and one digest per computed job.
pub(crate) fn source_digest(spec: &Spec) -> JobKey {
    JobKey::of_bytes(spec.to_string().as_bytes())
}

/// A job's stage-sharing group: the inputs of the transformation every
/// job of one (spec, λ) coordinate resolves alike — #spec, λ and the
/// verify vector count, joined with the same `\x1f` separator
/// [`crate::key`] uses and FNV-128 hashed. The adder, timing model and
/// balance do not enter it. The engine runs a group's jobs in turn as one
/// pool task that owns the group's [`GroupStages`], so the first resolves
/// the group's stages and the rest hit them; a sharded run keeps each
/// group whole in one shard for the same reason.
pub(crate) fn group_key(source: JobKey, latency: u32, options: &CompareOptions) -> JobKey {
    let parts =
        ["group", &source.to_string(), &latency.to_string(), &options.verify_vectors.to_string()];
    JobKey::of_bytes(parts.join("\x1f").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_core::compare;

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
        let tally = StageTally::default();
        for latency in 2..=5 {
            let mut table = GroupStages::new(group_key(source_digest(&spec), latency, &options));
            let staged = table.compare_staged(&spec, latency, &options, &tally).unwrap();
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
        use bittrans_rtl::AdderArch;
        let spec = three_adds();
        let study = |adders: &[AdderArch]| {
            crate::Study::single(spec.clone()).latencies([3]).adder_archs(adders.to_vec())
        };
        let adders = [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];
        let engine = crate::Engine::default();
        let report = study(&adders).balance_both().run(&engine);
        assert_eq!(report.stats.cache_misses, 6, "one group of 3 adders × 2 balance settings");
        // Computed: the group's verified fragmentation, and both bound
        // schedules per balance setting. The adder only enters at the
        // inline pricing, so the other 6 × 3 − 5 resolutions hit.
        assert_eq!((report.stats.stage_misses, report.stats.stage_hits), (5, 13));
        let uncached =
            crate::Engine::new(crate::EngineOptions { cache: false, ..Default::default() });
        let cells = |report: &crate::StudyReport| serde_json::to_string(&report.cells).unwrap();
        assert_eq!(cells(&report), cells(&study(&adders).balance_both().run(&uncached)));

        // The table lives as long as the group's task: a later call that
        // adds an adder recomputes the group's stages.
        let more = study(&[AdderArch::RippleCarry, AdderArch::CarryLookahead]).latencies([4]);
        let first = more.run(&engine);
        let later = study(&adders).latencies([4]).run(&engine);
        assert_eq!((first.stats.stage_misses, first.stats.stage_hits), (3, 3));
        assert_eq!((later.stats.cache_hits, later.stats.cache_misses), (2, 1));
        assert_eq!((later.stats.stage_misses, later.stats.stage_hits), (3, 0));
    }

    #[test]
    fn stage_errors_are_cached_and_stable() {
        use bittrans_rtl::AdderArch;
        let adders = [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];
        let report = crate::Study::single(three_adds())
            .latencies([0])
            .adder_archs(adders)
            .run(&crate::Engine::default());
        // λ 0 fails the group's first stage, the baseline schedule: the
        // first member computes the error and the other two hit it.
        assert_eq!((report.stats.stage_misses, report.stats.stage_hits), (1, 2));
        let errors: Vec<_> =
            report.cells.iter().map(|c| c.result.as_ref().clone().unwrap_err()).collect();
        assert!(errors[0].is_infeasible(), "{}", errors[0]);
        assert!(errors.iter().all(|e| e.to_string() == errors[0].to_string()), "{errors:?}");
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
        let old_key = |parts: &[&str]| JobKey::of_bytes(parts.join("\x1f").as_bytes());
        let (chaining, balance) = (Chaining::ComponentSum.code(), u8::from(options.balance));
        let balance = balance.to_string();
        let planted = [
            (
                group_key(source, 3, &options),
                "bittrans-stage 2 fragment ok\nbittrans-canonical fragmented 1\n".to_owned(),
            ),
            (
                old_key(&["sched_base", &hex, "3", chaining, &balance]),
                "bittrans-stage 2 sched_base ok\nbittrans-canonical bound 1\n".to_owned(),
            ),
            (
                old_key(&["sched_frag", &hex, "3", &balance]),
                "bittrans-stage 2 sched_frag ok\nbittrans-canonical bound 1\n".to_owned(),
            ),
            (
                old_key(&["extract", &hex]),
                format!("bittrans-stage 2 extract ok\n{}", spec.to_canonical()),
            ),
            (old_key(&["verify", &hex, "64"]), "bittrans-stage 2 verify ok\n".to_owned()),
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
    fn a_job_larger_than_the_budget_reaches_its_caller_but_is_not_kept() {
        let spec = three_adds();
        let expected = compare(&spec, 3, &CompareOptions::default()).unwrap();
        // Every entry outgrows a budget below the per-entry overhead.
        let engine = crate::Engine::default();
        let cache = &engine.shared.stages;
        cache.set_memo_capacity(MEMO_ENTRY_OVERHEAD - 1);
        let report = engine.run(vec![crate::Job::new(spec, 3)]);
        let got = report.cells[0].result.as_ref().as_ref().unwrap();
        assert_eq!(serde_json::to_string(got).unwrap(), serde_json::to_string(&expected).unwrap());
        assert!(cache.resident_keys().is_empty());
        assert_eq!(cache.memo_bytes(), 0);
    }

    /// [`STAGE_MEMO_BYTES`] holds the whole paper-corpus grid: its 216
    /// jobs all stay resident. The estimates stay calibrated: their total
    /// is within a quarter of the 172,224 bytes these 216 jobs were charged
    /// when the memo also held the grid's 180 stages.
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
        assert_eq!(memo.map.len(), 216, "nothing was evicted, and nothing else is held");
        let parent = 172_224.0;
        let ratio = memo.charged as f64 / parent;
        assert!((0.75..=1.25).contains(&ratio), "{} bytes charged: {ratio:.3}×", memo.charged);
    }

    #[test]
    fn eviction_never_drops_an_in_flight_slot() {
        let result = Arc::new(compare(&three_adds(), 3, &CompareOptions::default()));
        let budget = 4 * (job_bytes(&result) + MEMO_ENTRY_OVERHEAD);
        let cache = StageCache::default();
        cache.set_memo_capacity(budget);
        let claim = |key| cache.claim_jobs().claim(key);
        let key = JobKey::of_bytes(b"in-flight");
        let Claim::Own(slot) = claim(key) else { panic!("a new key is owned") };
        // Far more landed jobs than the budget holds, while the claimed
        // slot is still unset.
        for i in 0u32..16 {
            let other = JobKey::of_bytes(&i.to_le_bytes());
            let Claim::Own(landing) = claim(other) else { panic!("{other} is new") };
            cache.land(other, &landing, &result);
            assert!(cache.memo_bytes() <= budget);
        }
        assert!(cache.job_entries() < 16, "landed jobs were evicted");
        // A second caller joins the claimed slot instead of owning a new
        // one, and wakes when the owner lands it.
        let Claim::Join(joined) = claim(key) else { panic!("the in-flight slot was evicted") };
        assert!(Arc::ptr_eq(&joined, &slot));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| wait_job(&joined));
            cache.land(key, &slot, &result);
            let landed = waiter.join().unwrap().expect("landed, not abandoned");
            assert!(Arc::ptr_eq(&landed, &result));
        });
        assert!(cache.memo_bytes() <= budget);
    }

    #[test]
    fn a_joined_job_costs_no_pool_task() {
        let job = crate::Job::new(three_adds(), 3);
        let engine = crate::Engine::new(crate::EngineOptions { workers: Some(1), cache: true });
        let stages = &engine.shared.stages;
        // The gate: a task of this test's own holds the pool's one worker,
        // so the first call's task queues behind it and its job stays in
        // flight until the gate opens.
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let pool = engine.pool.get_or_init(|| crate::sched::Scheduler::new(1));
        pool.submit(vec![Box::new(move || gate.recv().unwrap())]);
        while engine.sched_stats().dispatched_tasks == 0 {
            std::thread::yield_now();
        }
        // The job slot's holders: the memo, the first call, and the second
        // call once it has joined.
        let holders = || {
            let memo = stages.memo.lock().unwrap();
            memo.map.get(&job.key()).map_or(0, |r| Arc::strong_count(&r.slot))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let wait_for = |count| {
            while holders() < count && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            holders() >= count
        };
        let (first, second, joined) = std::thread::scope(|scope| {
            let first = scope.spawn(|| engine.run(vec![job.clone()]));
            wait_for(2);
            let second = scope.spawn(|| engine.run(vec![job.clone()]));
            let joined = wait_for(3);
            open.send(()).unwrap();
            (first.join().unwrap(), second.join().unwrap(), joined)
        });
        assert!(joined, "the second call never joined the in-flight job");
        let dispatched = engine.sched_stats().dispatched_tasks;
        assert_eq!(dispatched, 2, "the gate and the first call's task: the join cost none");
        assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (1, 0));
        assert_eq!((second.stats.stage_hits, second.stats.stage_misses), (0, 0));
        assert_eq!(first.stats.cache_misses, 1);
        assert_eq!((first.stats.stage_hits, first.stats.stage_misses), (0, 3));
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
