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

use crate::key::JobKey;
use crate::report::StudyReport;
use crate::{Engine, Job};
use bittrans_core::CompareOptions;
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::collections::HashSet;

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
        self.for_each_cell(|job| jobs.push(job));
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

    fn for_each_cell(&self, mut visit: impl FnMut(Job)) {
        let adder_axis = self.adder_archs.clone().unwrap_or_else(|| vec![self.base.adder_arch]);
        let balance_axis = self.balance.clone().unwrap_or_else(|| vec![self.base.balance]);
        let verify_axis =
            self.verify_vectors.clone().unwrap_or_else(|| vec![self.base.verify_vectors]);
        for spec in &self.specs {
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
                            visit(Job::with_options(spec.clone(), latency, options));
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
        let grid = self.grid();
        engine.run_batch(&grid.cells, &grid.keys, &grid.distinct, &grid.distinct_keys)
    }

    /// The grid's distinct jobs, in first-occurrence grid order — what a
    /// [`Study::run`] actually submits to the engine, and what a sharded
    /// run ([`crate::shard`]) partitions across `serve` endpoints.
    ///
    /// # Panics
    ///
    /// On axis values the options builder rejects; see [`Study::jobs`].
    pub fn distinct_jobs(&self) -> Vec<Job> {
        self.grid().distinct
    }

    /// Expands the grid and keys every cell once. Submitting only the
    /// distinct jobs keeps grid-shape duplicates out of the batch's hit
    /// statistics; the engine would compute them once anyway.
    pub(crate) fn grid(&self) -> Grid {
        let cells = self.jobs();
        let keys: Vec<JobKey> = cells.iter().map(Job::key).collect();
        let mut seen: HashSet<JobKey> = HashSet::with_capacity(cells.len());
        let (distinct, distinct_keys) = cells
            .iter()
            .zip(&keys)
            .filter(|&(_, &key)| seen.insert(key))
            .map(|(job, &key)| (job.clone(), key))
            .unzip();
        Grid { cells, keys, distinct, distinct_keys }
    }
}

/// A study grid keyed once ([`Study::grid`]): every cell with its content
/// key, and the distinct jobs with theirs, in first-occurrence grid order.
pub(crate) struct Grid {
    /// One job per grid cell, in grid order (with duplicates).
    pub cells: Vec<Job>,
    /// `cells[i]`'s content key.
    pub keys: Vec<JobKey>,
    /// The distinct jobs, in first-occurrence order.
    pub distinct: Vec<Job>,
    /// `distinct[i]`'s content key.
    pub distinct_keys: Vec<JobKey>,
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
}
