//! The composable design-space-exploration front end: a [`Study`] spans a
//! typed axis grid — specifications × latencies × adder architectures ×
//! balancing × verification budgets — and runs every cell through an
//! [`Engine`]'s cached worker pool.
//!
//! Every result in the paper is a sweep over one or two of these axes:
//! Fig. 4 is `latencies`, Tables II/III are `specs × latencies`, the
//! closing remarks are `adder_archs`, §3.3's design choice is `balance`.
//! Instead of hand-rolling one loop per experiment, callers describe the
//! grid once and get back a [`StudyReport`] with one labelled cell per
//! coordinate:
//!
//! ```
//! use bittrans_engine::{Engine, Study};
//! use bittrans_ir::Spec;
//! use bittrans_rtl::AdderArch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let engine = Engine::default();
//! let report = Study::single(spec)
//!     .latencies(2..=4)
//!     .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
//!     .verify_vectors([0])
//!     .run(&engine);
//! assert_eq!(report.cells.len(), 3 * 2);
//! assert!(report.successes().count() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Axis values that expand to the same [`JobKey`] (duplicate specs, a
//! repeated latency) are submitted once; the duplicate cells share the
//! computed result, so a grid is never larger than its distinct content.

use crate::key::{canonical_options, JobKey};
use crate::report::StudyReport;
use crate::{Engine, Job};
use bittrans_core::CompareOptions;
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// A declarative design-space-exploration grid over the comparison
/// pipeline. Build with [`Study::over`] / [`Study::single`], add axes with
/// the chained setters, execute with [`Study::run`].
///
/// Unset axes collapse to a single point taken from the base options
/// ([`CompareOptions::default`] unless [`Study::base_options`] replaces
/// them); the latency axis defaults to the paper's motivational λ = 3.
#[derive(Clone, Debug)]
pub struct Study {
    specs: Vec<Spec>,
    latencies: Vec<u32>,
    base: CompareOptions,
    adder_archs: Option<Vec<AdderArch>>,
    balance: Option<Vec<bool>>,
    verify_vectors: Option<Vec<usize>>,
}

impl Study {
    /// A study over several specifications.
    pub fn over(specs: impl IntoIterator<Item = Spec>) -> Self {
        Study {
            specs: specs.into_iter().collect(),
            latencies: vec![3],
            base: CompareOptions::default(),
            adder_archs: None,
            balance: None,
            verify_vectors: None,
        }
    }

    /// A study over one specification.
    pub fn single(spec: Spec) -> Self {
        Self::over([spec])
    }

    /// Replaces the latency axis (λ values, in the order given).
    pub fn latencies(mut self, latencies: impl IntoIterator<Item = u32>) -> Self {
        self.latencies = latencies.into_iter().collect();
        self
    }

    /// Replaces the adder-architecture axis.
    pub fn adder_archs(mut self, archs: impl IntoIterator<Item = AdderArch>) -> Self {
        self.adder_archs = Some(archs.into_iter().collect());
        self
    }

    /// Replaces the balancing axis. [`Study::balance_both`] is shorthand
    /// for the full ablation `[true, false]`.
    pub fn balance(mut self, balance: impl IntoIterator<Item = bool>) -> Self {
        self.balance = Some(balance.into_iter().collect());
        self
    }

    /// Spans balancing on × off (§3.3's design-choice ablation).
    pub fn balance_both(self) -> Self {
        self.balance([true, false])
    }

    /// Replaces the verification-budget axis (random vectors per cell; 0
    /// disables the equivalence check).
    pub fn verify_vectors(mut self, vectors: impl IntoIterator<Item = usize>) -> Self {
        self.verify_vectors = Some(vectors.into_iter().collect());
        self
    }

    /// Replaces the base options that unset axes collapse to (and the
    /// timing model, which is not an axis).
    pub fn base_options(mut self, options: CompareOptions) -> Self {
        self.base = options;
        self
    }

    /// The number of grid cells this study expands to.
    pub fn len(&self) -> usize {
        self.specs.len()
            * self.latencies.len()
            * self.adder_archs.as_ref().map_or(1, Vec::len)
            * self.balance.as_ref().map_or(1, Vec::len)
            * self.verify_vectors.as_ref().map_or(1, Vec::len)
    }

    /// Whether the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the axis grid into one [`Job`] per cell, in grid order
    /// (specs outermost, then latency, adder, balance, verification).
    ///
    /// The returned list is **not** deduplicated; [`Study::run`] submits
    /// each distinct [`JobKey`] once and fans the shared result back out to
    /// every cell that produced it.
    ///
    /// # Panics
    ///
    /// If an axis value fails [`CompareOptions::builder`]'s validation
    /// (e.g. a `verify_vectors` entry beyond
    /// [`bittrans_core::MAX_VERIFY_VECTORS`], or base options carrying a
    /// non-physical timing model). User-facing front ends pre-validate
    /// through the builder, so this only fires on programmer error.
    pub fn jobs(&self) -> Vec<Job> {
        self.validate();
        let mut jobs = Vec::with_capacity(self.len());
        self.for_each_cell(|_, job| jobs.push(job));
        jobs
    }

    /// Checks every axis value against the options builder's ranges, every
    /// latency against [`bittrans_core::MAX_LATENCY`] and every spec's
    /// widest value against [`bittrans_ir::MAX_WIDTH`], without panicking:
    /// the first rejected value's [`OptionsError`] comes back as `Err`.
    ///
    /// [`Study::run`] and [`Study::jobs`] enforce the same invariant by
    /// panicking (programmer error in code-built grids); front ends that
    /// assemble a grid from *untrusted* input — the `serve` request
    /// handler above all, which must never bring a worker thread down on a
    /// client's bad request — call this first and turn the error into a
    /// protocol reply.
    ///
    /// [`OptionsError`]: bittrans_core::OptionsError
    pub fn check(&self) -> Result<(), bittrans_core::OptionsError> {
        let check = |options: CompareOptions| {
            CompareOptions::builder()
                .adder_arch(options.adder_arch)
                .timing(options.timing)
                .balance(options.balance)
                .verify_vectors(options.verify_vectors)
                .build()
                .map(|_| ())
        };
        if let Some(&latency) = self.latencies.iter().find(|&&l| l > bittrans_core::MAX_LATENCY) {
            return Err(bittrans_core::OptionsError::LatencyTooLarge(latency));
        }
        let widest = self.specs.iter().flat_map(|spec| spec.values()).map(|v| v.width()).max();
        if let Some(width) = widest.filter(|&w| w > bittrans_ir::MAX_WIDTH) {
            return Err(bittrans_core::OptionsError::WidthTooLarge(width));
        }
        check(self.base)?;
        for &verify_vectors in self.verify_vectors.iter().flatten() {
            check(CompareOptions { verify_vectors, ..self.base })?;
        }
        Ok(())
    }

    /// Checks every axis value against the options builder's ranges, so
    /// the validated-construction invariant holds for grids as well as for
    /// options assembled one at a time.
    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid study axis value: {e}");
        }
    }

    /// Visits every cell in grid order, with the index of its spec.
    fn for_each_cell(&self, mut visit: impl FnMut(usize, Job)) {
        let adder_axis = self.adder_archs.clone().unwrap_or_else(|| vec![self.base.adder_arch]);
        let balance_axis = self.balance.clone().unwrap_or_else(|| vec![self.base.balance]);
        let verify_axis =
            self.verify_vectors.clone().unwrap_or_else(|| vec![self.base.verify_vectors]);
        for (at, spec) in self.specs.iter().enumerate() {
            for &latency in &self.latencies {
                for &adder_arch in &adder_axis {
                    for &balance in &balance_axis {
                        for &verify_vectors in &verify_axis {
                            let options = CompareOptions {
                                adder_arch,
                                balance,
                                verify_vectors,
                                timing: self.base.timing,
                            };
                            visit(at, Job::with_options(spec.clone(), latency, options));
                        }
                    }
                }
            }
        }
    }

    /// Expands the grid, deduplicates it by [`JobKey`], runs the distinct
    /// jobs on `engine`'s worker pool, and labels every cell with its axis
    /// coordinates.
    ///
    /// Cells are returned in grid order. Infeasible coordinates (e.g. a
    /// latency the fragmenter rejects) surface as per-cell errors, exactly
    /// like [`Engine::run`] cells — a partly infeasible grid is not a
    /// failed study.
    ///
    /// # Panics
    ///
    /// On axis values the options builder rejects; see [`Study::jobs`].
    pub fn run(&self, engine: &Engine) -> StudyReport {
        engine.run_batch(&self.grid())
    }

    /// The grid's distinct jobs, in first-occurrence grid order — what a
    /// [`Study::run`] actually submits to the engine, and what a sharded
    /// run ([`crate::shard`]) partitions across `serve` endpoints.
    ///
    /// # Panics
    ///
    /// On axis values the options builder rejects; see [`Study::jobs`].
    pub fn distinct_jobs(&self) -> Vec<Job> {
        let Grid { cells, distinct, .. } = self.grid();
        let mut distinct = distinct.into_iter().peekable();
        let cells = cells.into_iter().enumerate();
        cells.filter_map(|(at, job)| distinct.next_if_eq(&at).map(|_| job)).collect()
    }

    /// Expands, keys and groups the grid once. Each spec is rendered and
    /// hashed once ([`source_digest`]); every cell's key extends its spec's
    /// digest. Running only the distinct jobs keeps grid-shape duplicates
    /// out of the batch's hit statistics; the engine would compute them
    /// once anyway.
    pub(crate) fn grid(&self) -> Grid {
        self.validate();
        let digests: Vec<JobKey> = self.specs.iter().map(source_digest).collect();
        let mut cells = Vec::with_capacity(self.len());
        let mut sources = Vec::with_capacity(self.len());
        self.for_each_cell(|spec, job| {
            cells.push(job);
            sources.push(digests[spec]);
        });
        Grid::new(cells, &sources, true)
    }
}

/// A grid keyed and grouped once: every cell with its content key, the
/// cells that run, and their stage-sharing groups. The engine runs a grid
/// (`Engine::run_grid`), one pool task per group with owned jobs, and a
/// sharded run cuts one ([`Grid::shard`]); neither re-derives a key or a
/// group.
#[derive(Default)]
pub(crate) struct Grid {
    /// One job per grid cell, in grid order (with duplicates).
    pub cells: Vec<Job>,
    /// `cells[i]`'s content key.
    pub keys: Vec<JobKey>,
    /// The cells that run, as indices into `cells` in grid order: each
    /// key's first cell ([`Study::grid`]), or every cell
    /// ([`Grid::of_jobs`]).
    pub distinct: Vec<usize>,
    /// `distinct[i]`'s stage-sharing group, numbered in order of first
    /// appearance.
    pub groups: Vec<usize>,
    /// Each group's [`group_key`].
    pub group_keys: Vec<JobKey>,
}

impl Grid {
    /// A batch of jobs as a grid in which every job runs, repeats included
    /// ([`Engine::run`]). Each job's spec is rendered once.
    pub(crate) fn of_jobs(jobs: Vec<Job>) -> Grid {
        let sources: Vec<JobKey> = jobs.iter().map(|job| source_digest(&job.spec)).collect();
        Grid::new(jobs, &sources, false)
    }

    /// Keys every cell by extending its spec's digest (`sources[i]`) with
    /// `\x1f{λ}\x1f{canonical options}` — bit-identical to [`Job::key`] —
    /// keeps each key's first cell when `dedup` (every cell otherwise), and
    /// groups the kept cells by (digest, λ, verify vectors).
    fn new(cells: Vec<Job>, sources: &[JobKey], dedup: bool) -> Grid {
        let keys = cells.iter().zip(sources).map(|(job, source)| {
            let rest = format!("\x1f{}\x1f{}", job.latency, canonical_options(&job.options));
            source.extended(rest.as_bytes())
        });
        let mut grid = Grid { keys: keys.collect(), ..Grid::default() };
        let mut seen: HashSet<JobKey> = HashSet::with_capacity(cells.len());
        let mut group_of: HashMap<(JobKey, u32, usize), usize> = HashMap::new();
        for (at, job) in cells.iter().enumerate() {
            if dedup && !seen.insert(grid.keys[at]) {
                continue;
            }
            let (source, latency) = (sources[at], job.latency);
            let group = group_of.entry((source, latency, job.options.verify_vectors));
            let group = *group.or_insert_with(|| {
                grid.group_keys.push(group_key(source, latency, &job.options));
                grid.group_keys.len() - 1
            });
            grid.distinct.push(at);
            grid.groups.push(group);
        }
        grid.cells = cells;
        grid
    }

    /// The number of stage-sharing groups.
    pub(crate) fn group_count(&self) -> usize {
        self.group_keys.len()
    }

    /// The keys of the cells that run, in order.
    pub(crate) fn distinct_keys(&self) -> impl Iterator<Item = JobKey> + '_ {
        self.distinct.iter().map(|&at| self.keys[at])
    }

    /// The groups of shard `index` of `count`: the
    /// [`partition`](crate::shard::partition) cut over the groups in grid
    /// order, computed directly for the one requested shard. A `serve`
    /// endpoint feeds this an untrusted `count`, so it must neither
    /// materialize `count` ranges nor overflow (`u128` headroom), however
    /// absurd the coordinates. An out-of-range `index` is empty; `count` of
    /// zero is treated as one.
    fn shard_groups(&self, index: usize, count: usize) -> Range<usize> {
        let (index, count) = (index as u128, count.max(1) as u128);
        if index >= count {
            return 0..0;
        }
        let groups = self.group_count() as u128;
        let cut = |shard: u128| (shard * groups / count) as usize;
        cut(index)..cut(index + 1)
    }

    /// Shard `index` of `count` as a grid of its own: the distinct jobs of
    /// the groups in its cut ([`Grid::shard_groups`]), in grid order, so
    /// every group lands whole in one shard and its jobs share its stages
    /// there as they do in a single process. Every process cuts the same
    /// grid the same way.
    pub(crate) fn shard(&self, index: usize, count: usize) -> Grid {
        let range = self.shard_groups(index, count);
        let mut shard =
            Grid { group_keys: self.group_keys[range.clone()].to_vec(), ..Grid::default() };
        for (&at, &group) in self.distinct.iter().zip(&self.groups) {
            if range.contains(&group) {
                shard.distinct.push(shard.cells.len());
                shard.groups.push(group - range.start);
                shard.keys.push(self.keys[at]);
                shard.cells.push(self.cells[at].clone());
            }
        }
        shard
    }
}

/// `#spec`, a spec's source digest: the key of its pretty-printed form.
/// It is also the FNV state every key of the spec's jobs extends, so a
/// grid renders each spec once for both.
pub(crate) fn source_digest(spec: &Spec) -> JobKey {
    JobKey::of_bytes(spec.to_string().as_bytes())
}

/// A job's stage-sharing group: the inputs of the transformation every
/// job of one (spec, λ) coordinate resolves alike — #spec, λ and the
/// verify vector count, joined with the same `\x1f` separator
/// [`crate::key`] uses and FNV-128 hashed. The adder, timing model and
/// balance do not enter it. The engine runs a group's jobs in turn as one
/// pool task that owns the group's stage table
/// ([`crate::stagecache`]), so the first resolves the group's stages and
/// the rest hit them; a sharded run keeps each group whole in one shard
/// for the same reason.
pub(crate) fn group_key(source: JobKey, latency: u32, options: &CompareOptions) -> JobKey {
    let parts =
        ["group", &source.to_string(), &latency.to_string(), &options.verify_vectors.to_string()];
    JobKey::of_bytes(parts.join("\x1f").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn unset_axes_collapse_to_base_options() {
        let study = Study::single(three_adds());
        assert_eq!(study.len(), 1);
        let jobs = study.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].latency, 3);
        assert_eq!(jobs[0].options, CompareOptions::default());
    }

    #[test]
    fn grid_expands_in_axis_order() {
        let study = Study::single(three_adds())
            .latencies([2, 3])
            .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead])
            .balance_both();
        assert_eq!(study.len(), 2 * 2 * 2);
        let jobs = study.jobs();
        // Latency is the outer axis, balance the innermost.
        assert_eq!(jobs[0].latency, 2);
        assert!(jobs[0].options.balance);
        assert!(!jobs[1].options.balance);
        assert_eq!(jobs[1].options.adder_arch, AdderArch::RippleCarry);
        assert_eq!(jobs[2].options.adder_arch, AdderArch::CarryLookahead);
        assert_eq!(jobs[4].latency, 3);
    }

    #[test]
    #[should_panic(expected = "invalid study axis value")]
    fn out_of_range_axis_values_panic() {
        Study::single(three_adds()).verify_vectors([bittrans_core::MAX_VERIFY_VECTORS + 1]).jobs();
    }

    #[test]
    fn check_rejects_latency_beyond_the_maximum() {
        let max = bittrans_core::MAX_LATENCY;
        assert_eq!(Study::single(three_adds()).latencies([2, max]).check(), Ok(()));
        assert_eq!(
            Study::single(three_adds()).latencies([2, u32::MAX]).check(),
            Err(bittrans_core::OptionsError::LatencyTooLarge(u32::MAX))
        );
    }

    #[test]
    fn check_rejects_a_value_beyond_the_maximum_width() {
        let wide = |width| {
            let mut builder = bittrans_ir::SpecBuilder::new("wide");
            let a = builder.input("a", width);
            builder.output("o", a);
            Study::over([three_adds(), builder.finish().unwrap()])
        };
        let max = bittrans_ir::MAX_WIDTH;
        assert_eq!(wide(max).check(), Ok(()));
        assert_eq!(wide(max + 1).check(), Err(bittrans_core::OptionsError::WidthTooLarge(max + 1)));
    }

    #[test]
    fn empty_axis_means_empty_study() {
        let study = Study::single(three_adds()).latencies([]);
        assert!(study.is_empty());
        let report = study.run(&Engine::default());
        assert!(report.cells.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }

    #[test]
    fn duplicate_coordinates_are_submitted_once() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = Study::over([spec.clone(), spec]).latencies([3, 3]).run(&engine);
        assert_eq!(report.cells.len(), 4);
        // One distinct job: the batch saw exactly one submission.
        assert_eq!(report.stats.jobs, 1);
        assert_eq!(report.stats.cache_misses, 1);
        let first = &report.cells[0].result;
        assert!(report.cells.iter().all(|c| std::sync::Arc::ptr_eq(&c.result, first)));
        // Only the first cell did pipeline work; its in-grid duplicates are
        // marked from_cache even on a cold engine.
        assert!(!report.cells[0].from_cache);
        assert!(report.cells[1..].iter().all(|c| c.from_cache));
    }

    /// The paper corpus and 64 fuzz-shaped random specs (one of them
    /// listed twice) × λ {1, 2, 3, 4, 6} × 3 adders × balance both ×
    /// verify {0, 8}.
    fn corpus_study() -> Study {
        use bittrans_benchmarks::{
            extended_benchmarks, fig3_dfg, random_spec, table2_benchmarks, table3_benchmarks,
        };
        let mut specs: Vec<Spec> = table2_benchmarks()
            .into_iter()
            .chain(table3_benchmarks())
            .chain(extended_benchmarks())
            .map(|b| b.spec)
            .collect();
        specs.extend([bittrans_benchmarks::three_adds(), fig3_dfg()]);
        let shape = |seed| crate::fuzz::Shape::of(seed).options(None);
        specs.extend((0..64).map(|seed| random_spec(seed, &shape(seed))));
        specs.push(specs[20].clone());
        Study::over(specs)
            .latencies([1, 2, 3, 4, 6])
            .adder_archs([
                AdderArch::RippleCarry,
                AdderArch::CarryLookahead,
                AdderArch::CarrySelect,
            ])
            .balance_both()
            .verify_vectors([0, 8])
    }

    /// The per-job oracle of a job's group: its own rendering and digest.
    fn oracle_group(job: &Job) -> JobKey {
        group_key(source_digest(&job.spec), job.latency, &job.options)
    }

    #[test]
    fn grid_keys_and_groups_match_per_job_oracles() {
        let grid = corpus_study().grid();
        assert_eq!(grid.cells.len(), 77 * 5 * 3 * 2 * 2);
        for (job, key) in grid.cells.iter().zip(&grid.keys) {
            assert_eq!(*key, job.key(), "{} λ={}", job.spec.name(), job.latency);
        }
        let mut seen = HashSet::new();
        let firsts: Vec<usize> =
            (0..grid.cells.len()).filter(|&at| seen.insert(grid.keys[at])).collect();
        assert_eq!(grid.distinct, firsts, "each key's first cell runs, in grid order");
        assert_eq!(grid.distinct.len(), 76 * 5 * 3 * 2 * 2, "the listed-twice spec adds no job");

        // Two jobs share a group id exactly when their oracle groups
        // agree, and ids count up in order of first appearance.
        let mut id_of: HashMap<JobKey, usize> = HashMap::new();
        for (&at, &group) in grid.distinct.iter().zip(&grid.groups) {
            let next = id_of.len();
            let id = *id_of.entry(oracle_group(&grid.cells[at])).or_insert(next);
            assert_eq!(group, id);
            assert_eq!(grid.group_keys[id], oracle_group(&grid.cells[at]));
        }
        assert_eq!(grid.group_count(), 76 * 5 * 2);
    }

    /// Every cut of the grid's groups is total and disjoint, for every
    /// shard count up to one past the group count. Materialized shards
    /// (a sample of counts: each builds its jobs) are whole oracle groups,
    /// keyed as [`Job::key`] keys them, and together hold every distinct
    /// job once.
    #[test]
    fn grid_shards_are_whole_groups_total_and_disjoint() {
        let grid = corpus_study().grid();
        let groups = grid.group_count();
        for count in 1..=groups + 1 {
            let mut next = 0;
            for index in 0..count {
                let range = grid.shard_groups(index, count);
                assert_eq!(range.start, next, "{index} of {count}");
                next = range.end;
            }
            assert_eq!(next, groups, "{count} shards cover every group");
        }
        let mut distinct: Vec<JobKey> = grid.distinct_keys().collect();
        distinct.sort_unstable();
        for count in [1, 2, 3, 7, groups - 1, groups, groups + 1] {
            let mut home: HashMap<JobKey, usize> = HashMap::new();
            let mut keys = Vec::new();
            for index in 0..count {
                let shard = grid.shard(index, count);
                assert_eq!(shard.distinct, (0..shard.cells.len()).collect::<Vec<_>>());
                for (job, &key) in shard.cells.iter().zip(&shard.keys) {
                    assert_eq!(key, job.key());
                    let home = *home.entry(oracle_group(job)).or_insert(index);
                    assert_eq!(home, index, "a group split between shards at {count}");
                    keys.push(key);
                }
            }
            keys.sort_unstable();
            assert_eq!(keys, distinct, "{count} shards hold every distinct job once");
            assert_eq!(home.len(), groups);
        }
    }
}
