//! Fleet-scale differential fuzzing of the whole pipeline.
//!
//! [`run`] drives seeded random specifications ([`bittrans_benchmarks::
//! random_spec`]) through a full [`Study`] grid (latencies × adder
//! architectures × balance, verification on) and asserts the paper's
//! cross-configuration invariants on every case:
//!
//! * **adder equivalence** — at a fixed (latency, balance) coordinate,
//!   every adder architecture must agree on feasibility, on the error when
//!   infeasible, and on both schedules' cycle lengths (the schedule is
//!   adder-independent; the built-in equivalence check runs on every
//!   feasible cell because `verify_vectors > 0`);
//! * **latency monotonicity** — at a fixed (adder, balance) coordinate,
//!   the cycle length in δ is non-increasing as the latency budget λ
//!   relaxes, for both the conventional and the transformed schedule —
//!   the paper's core claim;
//! * **staged identity** — the staged pipeline
//!   ([`EngineOptions`]` { cache: true }`) produces byte-identical cells
//!   to the monolithic path (`cache: false`);
//! * **shard identity** (with a [`Differential`] transport) — the
//!   sharded/remote report is byte-identical, after
//!   [`normalize_run_shape`], to the single-process run over the same
//!   grid and starting cache state;
//! * **panic freedom** — a case that panics anywhere in the pipeline is
//!   caught and reported as a violation instead of killing the run.
//!
//! Every case is reproducible from its seed alone: the generator shape is
//! derived from the seed ([`Shape::of`]), so `bittrans fuzz --replay SEED`
//! re-runs exactly one case. Progress and violations ride the
//! [`trace`] collector as `fuzz.*` spans and events.

use crate::report::{normalize_run_shape, StudyCell, StudyReport};
use crate::shard::{self, ShardOptions, ShardedStudy, Transport};
use crate::study::Study;
use crate::trace;
use crate::{Engine, EngineOptions};
use bittrans_benchmarks::{random_spec, RandomSpecOptions};
use bittrans_core::CompareOptions;
use bittrans_rtl::AdderArch;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::Instant;

/// The latency axis every case sweeps — small enough to keep throughput
/// up, wide enough that monotonicity has four points to bite on.
pub const LATENCIES: [u32; 4] = [2, 3, 4, 6];

/// Random vectors spent on each cell's built-in equivalence check.
pub const VERIFY_VECTORS: usize = 8;

/// The adder-architecture axis: all of them.
pub const ADDERS: [AdderArch; 3] =
    [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];

/// Generator shape of one fuzz case, derived from the case seed alone
/// ([`Shape::of`]) so a seed is always replayable without the run that
/// produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Many inputs, shallow graph, wide operands.
    Wide,
    /// Few inputs, long dependence chains.
    Deep,
    /// Multiplication-dominated.
    MulHeavy,
    /// The smallest legal generator configuration (`ops=1`, `inputs=1`,
    /// `min_width == max_width`).
    Degenerate,
}

impl Shape {
    /// The shape of the case with this seed.
    pub fn of(seed: u64) -> Shape {
        match seed % 4 {
            0 => Shape::Wide,
            1 => Shape::Deep,
            2 => Shape::MulHeavy,
            _ => Shape::Degenerate,
        }
    }

    /// Stable lowercase name used in reports and trace attributes.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Wide => "wide",
            Shape::Deep => "deep",
            Shape::MulHeavy => "mul_heavy",
            Shape::Degenerate => "degenerate",
        }
    }

    /// The generator options of this shape; `mul_prob` (when given)
    /// overrides the shape's multiplication probability.
    pub fn options(self, mul_prob: Option<f64>) -> RandomSpecOptions {
        let mut o = match self {
            Shape::Wide => {
                RandomSpecOptions { ops: 10, inputs: 8, min_width: 4, max_width: 20, mul_prob: 0.1 }
            }
            Shape::Deep => RandomSpecOptions {
                ops: 14,
                inputs: 2,
                min_width: 4,
                max_width: 10,
                mul_prob: 0.05,
            },
            Shape::MulHeavy => {
                RandomSpecOptions { ops: 8, inputs: 4, min_width: 3, max_width: 10, mul_prob: 0.6 }
            }
            Shape::Degenerate => {
                RandomSpecOptions { ops: 1, inputs: 1, min_width: 7, max_width: 7, mul_prob: 0.5 }
            }
        };
        if let Some(p) = mul_prob {
            o.mul_prob = p;
        }
        o
    }
}

/// The invariant a [`Violation`] broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// Adder architectures disagreed at one grid coordinate.
    AdderEquivalence,
    /// Cycle length grew as the latency budget relaxed.
    LatencyMonotonic,
    /// Staged and monolithic pipelines produced different cells.
    StagedIdentity,
    /// Sharded/remote report differed from single-process.
    ShardIdentity,
    /// The pipeline panicked.
    Panic,
}

impl Invariant {
    /// Stable snake_case name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::AdderEquivalence => "adder_equivalence",
            Invariant::LatencyMonotonic => "latency_monotonic",
            Invariant::StagedIdentity => "staged_identity",
            Invariant::ShardIdentity => "shard_identity",
            Invariant::Panic => "panic",
        }
    }
}

/// One broken invariant, attributed to the seed that reproduces it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The case seed; `bittrans fuzz --replay <seed>` reproduces it.
    pub seed: u64,
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Deterministic human-readable detail.
    pub detail: String,
}

/// How to cross-check the shard path: the sharded run's store, shard
/// count, and transport — a `serve` fleet started per case on this
/// machine, or a running remote one.
#[derive(Clone, Debug)]
pub struct Differential {
    /// The result store. A [`Transport::Local`] run uses a fresh
    /// `case-<seed>` subdirectory per case, which its per-case `serve`
    /// fleet is started over, so both sides start cold; a
    /// [`Transport::Remote`] run uses this directory as-is because the
    /// running serve fleet persists into its own configured store — point
    /// it at the fleet's shared directory, fresh for the fuzzed seeds.
    pub cache_dir: PathBuf,
    /// Shards to cut each case's job list into.
    pub shards: usize,
    /// Where the shards run.
    pub transport: Transport,
}

/// Everything [`run`] needs.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Cases to run.
    pub count: usize,
    /// Seed of the first case; case `i` has seed `seed + i` (wrapping).
    pub seed: u64,
    /// Overrides every shape's multiplication probability when given.
    pub mul_prob: Option<f64>,
    /// Worker threads per engine (`None`: all cores).
    pub workers: Option<usize>,
    /// Cross-check the distributed path when given.
    pub differential: Option<Differential>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { count: 100, seed: 0, mul_prob: None, workers: None, differential: None }
    }
}

/// What one case did.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The case seed.
    pub seed: u64,
    /// The generator shape derived from the seed.
    pub shape: Shape,
    /// Grid cells evaluated (0 when the case panicked before reporting).
    pub cells: usize,
    /// Cells whose pipeline run succeeded.
    pub feasible: usize,
    /// Invariant checks performed, keyed by invariant.
    pub checks: Vec<(Invariant, usize)>,
    /// Invariants broken by this case.
    pub violations: Vec<Violation>,
}

/// Aggregated result of a fuzz run; [`to_json`](FuzzReport::to_json) is
/// the `bittrans fuzz --json` document.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Seed of the first case.
    pub seed: u64,
    /// Cases requested (and run).
    pub count: usize,
    /// The `mul_prob` override, when one was given.
    pub mul_prob: Option<f64>,
    /// Whether the distributed path was cross-checked.
    pub differential: bool,
    /// Case count per shape name, in [`Shape`] declaration order.
    pub shapes: Vec<(&'static str, usize)>,
    /// Total grid cells evaluated.
    pub cells: usize,
    /// Cells whose pipeline run succeeded.
    pub feasible: usize,
    /// Checks performed per invariant, in [`Invariant`] declaration order.
    pub checks: Vec<(Invariant, usize)>,
    /// Violations per invariant, same order as `checks`.
    pub violations: Vec<(Invariant, usize)>,
    /// Seeds of all failing cases, in case order, deduplicated.
    pub failing_seeds: Vec<u64>,
    /// Every violation, in case order.
    pub details: Vec<Violation>,
    /// Wall-clock of the whole run.
    pub elapsed_ms: u128,
}

impl FuzzReport {
    /// Total violations across all invariants.
    pub fn total_violations(&self) -> usize {
        self.violations.iter().map(|&(_, n)| n).sum()
    }

    /// The run as a deterministic JSON document (`schema`
    /// `bittrans-fuzz-v1`). Everything except `elapsed_ms` is a pure
    /// function of `(seed, count, options)`; `bittrans report normalize`
    /// blanks `elapsed_ms` for byte comparisons.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"bittrans-fuzz-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n  \"count\": {},\n", self.seed, self.count));
        match self.mul_prob {
            Some(p) => out.push_str(&format!("  \"mul_prob\": {p},\n")),
            None => out.push_str("  \"mul_prob\": null,\n"),
        }
        out.push_str(&format!("  \"differential\": {},\n", self.differential));
        out.push_str("  \"shapes\": {");
        for (i, (name, n)) in self.shapes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {n}"));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"cells\": {},\n  \"feasible\": {},\n",
            self.cells, self.feasible
        ));
        out.push_str("  \"checks\": {");
        for (i, (inv, n)) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {n}", inv.name()));
        }
        out.push_str("},\n  \"violations\": {");
        for (i, (inv, n)) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {n}", inv.name()));
        }
        out.push_str(&format!(", \"total\": {}}},\n", self.total_violations()));
        out.push_str("  \"failing_seeds\": [");
        for (i, s) in self.failing_seeds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\n  \"details\": [\n");
        for (i, v) in self.details.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seed\": {}, \"invariant\": \"{}\", \"detail\": {}}}{}\n",
                v.seed,
                v.invariant.name(),
                json_escape(&v.detail),
                if i + 1 == self.details.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!("  ],\n  \"elapsed_ms\": {}\n}}\n", self.elapsed_ms));
        out
    }

    /// A short human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fuzz: {} cases (seed {}..), {} cells, {} feasible, {} violations in {} ms\n",
            self.count,
            self.seed,
            self.cells,
            self.feasible,
            self.total_violations(),
            self.elapsed_ms
        );
        for (name, n) in &self.shapes {
            out.push_str(&format!("  shape {name:<11} {n} cases\n"));
        }
        for ((inv, checked), (_, broken)) in self.checks.iter().zip(&self.violations) {
            out.push_str(&format!("  {:<18} {checked} checks, {broken} violations\n", inv.name()));
        }
        for v in &self.details {
            out.push_str(&format!(
                "  FAIL seed {} [{}]: {} (replay: bittrans fuzz --replay {})\n",
                v.seed,
                v.invariant.name(),
                v.detail,
                v.seed
            ));
        }
        out
    }
}

/// JSON string literal with the escapes the document needs.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The study grid every case runs: the fixed latency/adder/balance axes
/// over one generated spec, verification on.
fn case_study(spec: bittrans_ir::Spec) -> Study {
    let base = CompareOptions::builder()
        .verify_vectors(VERIFY_VECTORS)
        .build()
        .expect("fuzz base options are valid");
    Study::single(spec).latencies(LATENCIES).adder_archs(ADDERS).balance_both().base_options(base)
}

/// Per-cell facts the invariants compare. `Err` carries the pipeline
/// error text; `Ok` carries (original cycle δ, optimized cycle δ).
type CellFact = Result<(u32, u32), String>;

/// One feasible cell along a latency axis: (λ, original δ, optimized δ).
type LatencyPoint = (u32, u32, u32);

fn fact(cell: &StudyCell) -> CellFact {
    match cell.comparison() {
        Some(cmp) => Ok((cmp.original.cycle_delta, cmp.optimized.cycle_delta)),
        None => Err(cell.error().unwrap_or_default()),
    }
}

fn fact_text(f: &CellFact) -> String {
    match f {
        Ok((orig, opt)) => format!("ok(original {orig}δ, optimized {opt}δ)"),
        Err(e) => format!("error({e})"),
    }
}

/// Invariant (a): at each (latency, balance) coordinate all adder
/// architectures agree on feasibility, error, and both cycle lengths.
fn check_adder_equivalence(seed: u64, report: &StudyReport, out: &mut Vec<Violation>) -> usize {
    let mut groups: BTreeMap<(u32, bool), Vec<(AdderArch, CellFact)>> = BTreeMap::new();
    for cell in &report.cells {
        groups.entry((cell.latency, cell.balance)).or_default().push((cell.adder_arch, fact(cell)));
    }
    let checks = groups.len();
    for ((latency, balance), cells) in groups {
        let Some((first_arch, first)) = cells.first() else { continue };
        for (arch, f) in &cells[1..] {
            if f != first {
                out.push(Violation {
                    seed,
                    invariant: Invariant::AdderEquivalence,
                    detail: format!(
                        "latency {latency} balance {balance}: {} {} but {} {}",
                        first_arch.code(),
                        fact_text(first),
                        arch.code(),
                        fact_text(f)
                    ),
                });
            }
        }
    }
    checks
}

/// Invariant (b): at each (adder, balance) coordinate, both schedules'
/// cycle lengths are non-increasing over the feasible latencies.
fn check_latency_monotonic(seed: u64, report: &StudyReport, out: &mut Vec<Violation>) -> usize {
    let mut groups: BTreeMap<(String, bool), Vec<LatencyPoint>> = BTreeMap::new();
    for cell in &report.cells {
        if let Some(cmp) = cell.comparison() {
            groups.entry((cell.adder_arch.code().to_string(), cell.balance)).or_default().push((
                cell.latency,
                cmp.original.cycle_delta,
                cmp.optimized.cycle_delta,
            ));
        }
    }
    let checks = groups.len();
    for ((arch, balance), mut points) in groups {
        points.sort_unstable();
        for pair in points.windows(2) {
            let (lo, orig_lo, opt_lo) = pair[0];
            let (hi, orig_hi, opt_hi) = pair[1];
            for (which, at_lo, at_hi) in
                [("original", orig_lo, orig_hi), ("optimized", opt_lo, opt_hi)]
            {
                if at_hi > at_lo {
                    out.push(Violation {
                        seed,
                        invariant: Invariant::LatencyMonotonic,
                        detail: format!(
                            "{arch} balance {balance}: {which} cycle grew {at_lo}δ@λ={lo} \
                             → {at_hi}δ@λ={hi}"
                        ),
                    });
                }
            }
        }
    }
    checks
}

/// Invariant (d): the staged pipeline's cells are byte-identical to the
/// monolithic path's. Cells (not whole reports) because engine cache
/// statistics legitimately differ when one side keeps no cache at all.
fn check_staged_identity(
    seed: u64,
    staged: &StudyReport,
    study: &Study,
    workers: Option<usize>,
    out: &mut Vec<Violation>,
) {
    let monolithic = Engine::new(EngineOptions { workers, cache: false });
    let mono = study.run(&monolithic);
    let a = serde_json::to_string(&staged.cells).expect("cells serialize");
    let b = serde_json::to_string(&mono.cells).expect("cells serialize");
    if a != b {
        out.push(Violation {
            seed,
            invariant: Invariant::StagedIdentity,
            detail: format!("staged and monolithic cells differ: {}", first_diff(&a, &b)),
        });
    }
}

/// Invariant (c): the sharded/remote report normalizes byte-identical to
/// the single-process one.
fn check_shard_identity(
    seed: u64,
    reference: &StudyReport,
    sharded: &ShardedStudy,
    diff: &Differential,
    out: &mut Vec<Violation>,
) {
    let dir = match &diff.transport {
        Transport::Local(_) => diff.cache_dir.join(format!("case-{seed}")),
        Transport::Remote(_) => diff.cache_dir.clone(),
    };
    let options = ShardOptions { shards: diff.shards, transport: diff.transport.clone() };
    match shard::run_sharded(sharded, &dir, &options) {
        Ok(run) => {
            let a = normalize_run_shape(&reference.to_json());
            let b = normalize_run_shape(&run.report.to_json());
            if a != b {
                out.push(Violation {
                    seed,
                    invariant: Invariant::ShardIdentity,
                    detail: format!(
                        "sharded report differs from single-process: {}",
                        first_diff(&a, &b)
                    ),
                });
            }
        }
        Err(e) => out.push(Violation {
            seed,
            invariant: Invariant::ShardIdentity,
            detail: format!("sharded run failed: {e}"),
        }),
    }
    if matches!(diff.transport, Transport::Local(_)) {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A short deterministic description of where two strings diverge.
fn first_diff(a: &str, b: &str) -> String {
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    let excerpt = |s: &str| {
        let start = at.saturating_sub(20);
        let end = (at + 40).min(s.len());
        s.get(start..end).unwrap_or("<non-utf8 boundary>").replace('\n', " ")
    };
    format!("byte {at}: `{}` vs `{}`", excerpt(a), excerpt(b))
}

/// Runs one case: generate the spec for `seed`, run the grid through the
/// staged engine, and check every invariant. A panic anywhere is caught
/// and reported as a [`Invariant::Panic`] violation.
pub fn run_case(seed: u64, options: &FuzzOptions) -> CaseOutcome {
    let shape = Shape::of(seed);
    let _span = trace::span_attrs("fuzz.case", |a| {
        a.num("seed", seed).str("shape", shape.name());
    });
    let mut violations = Vec::new();
    let mut checks: Vec<(Invariant, usize)> = Vec::new();
    let mut cells = 0;
    let mut feasible = 0;
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let spec = random_spec(seed, &shape.options(options.mul_prob));
        let study = case_study(spec.clone());
        // The engine drops with this block, so its idle pool threads are
        // gone before the checks below start engines of their own.
        let staged = {
            let engine = Engine::new(EngineOptions { workers: options.workers, cache: true });
            match &options.differential {
                // Mirror the sharded run's disk-backed starting state so
                // the reports can be compared byte-for-byte: both sides
                // cold.
                Some(diff) => {
                    let dir = diff.cache_dir.join(format!("ref-{seed}"));
                    let engine = engine.with_cache_dir(&dir)?;
                    let report = study.run(&engine);
                    let _ = std::fs::remove_dir_all(&dir);
                    report
                }
                None => study.run(&engine),
            }
        };
        let mut violations = Vec::new();
        let mut checks = Vec::new();
        checks.push((
            Invariant::AdderEquivalence,
            check_adder_equivalence(seed, &staged, &mut violations),
        ));
        checks.push((
            Invariant::LatencyMonotonic,
            check_latency_monotonic(seed, &staged, &mut violations),
        ));
        check_staged_identity(seed, &staged, &study, options.workers, &mut violations);
        checks.push((Invariant::StagedIdentity, 1));
        if let Some(diff) = &options.differential {
            let sharded = ShardedStudy {
                sources: vec![spec.to_canonical()],
                latencies: LATENCIES.to_vec(),
                adder_archs: Some(ADDERS.to_vec()),
                // Same axis order as `Study::balance_both` so grid (and
                // therefore cell) order matches the reference report.
                balance: Some(vec![true, false]),
                verify_vectors: None,
                base: CompareOptions::builder()
                    .verify_vectors(VERIFY_VECTORS)
                    .build()
                    .expect("fuzz base options are valid"),
            };
            check_shard_identity(seed, &staged, &sharded, diff, &mut violations);
            checks.push((Invariant::ShardIdentity, 1));
        }
        let feasible = staged.successes().count();
        Ok::<_, std::io::Error>((staged.cells.len(), feasible, checks, violations))
    }));
    match run {
        Ok(Ok((c, f, ch, v))) => {
            cells = c;
            feasible = f;
            checks = ch;
            violations = v;
        }
        Ok(Err(e)) => violations.push(Violation {
            seed,
            invariant: Invariant::Panic,
            detail: format!("cache directory unusable: {e}"),
        }),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            violations.push(Violation {
                seed,
                invariant: Invariant::Panic,
                detail: format!("pipeline panicked: {text}"),
            });
        }
    }
    for v in &violations {
        trace::event("fuzz.violation", |a| {
            a.num("seed", v.seed).str("invariant", v.invariant.name()).str("detail", &v.detail);
        });
    }
    CaseOutcome { seed, shape, cells, feasible, checks, violations }
}

/// Runs `options.count` cases with seeds `options.seed..` and aggregates
/// a [`FuzzReport`].
pub fn run(options: &FuzzOptions) -> FuzzReport {
    let started = Instant::now();
    let _span = trace::span_attrs("fuzz.run", |a| {
        a.num("seed", options.seed).num("count", options.count as u64);
    });
    let invariants = [
        Invariant::AdderEquivalence,
        Invariant::LatencyMonotonic,
        Invariant::StagedIdentity,
        Invariant::ShardIdentity,
        Invariant::Panic,
    ];
    let mut shapes: Vec<(&'static str, usize)> =
        [Shape::Wide, Shape::Deep, Shape::MulHeavy, Shape::Degenerate]
            .iter()
            .map(|s| (s.name(), 0))
            .collect();
    let mut checks: Vec<(Invariant, usize)> = invariants.iter().map(|&i| (i, 0)).collect();
    let mut violations: Vec<(Invariant, usize)> = invariants.iter().map(|&i| (i, 0)).collect();
    let mut cells = 0;
    let mut feasible = 0;
    let mut failing_seeds = Vec::new();
    let mut details = Vec::new();
    for i in 0..options.count {
        let seed = options.seed.wrapping_add(i as u64);
        let outcome = run_case(seed, options);
        let shape_at = match outcome.shape {
            Shape::Wide => 0,
            Shape::Deep => 1,
            Shape::MulHeavy => 2,
            Shape::Degenerate => 3,
        };
        shapes[shape_at].1 += 1;
        cells += outcome.cells;
        feasible += outcome.feasible;
        // Every case is checked for panics by construction.
        checks[4].1 += 1;
        for (inv, n) in &outcome.checks {
            if let Some(slot) = checks.iter_mut().find(|(i, _)| i == inv) {
                slot.1 += n;
            }
        }
        if !outcome.violations.is_empty() {
            failing_seeds.push(seed);
        }
        for v in outcome.violations {
            if let Some(slot) = violations.iter_mut().find(|(i, _)| *i == v.invariant) {
                slot.1 += 1;
            }
            details.push(v);
        }
    }
    let report = FuzzReport {
        seed: options.seed,
        count: options.count,
        mul_prob: options.mul_prob,
        differential: options.differential.is_some(),
        shapes,
        cells,
        feasible,
        checks,
        violations,
        failing_seeds,
        details,
        elapsed_ms: started.elapsed().as_millis(),
    };
    trace::event("fuzz.done", |a| {
        a.num("cases", report.count as u64)
            .num("cells", report.cells as u64)
            .num("violations", report.total_violations() as u64)
            .num("elapsed_ms", report.elapsed_ms as u64);
    });
    report
}
