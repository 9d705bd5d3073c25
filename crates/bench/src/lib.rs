//! # bittrans-bench
//!
//! The experiment harness: one runner per table and figure of the paper,
//! driven by the `gen_tables` binary, which prints every table/figure and
//! writes machine-readable JSON next to it. (Timing lives in the repo
//! benchmark, `perfbench/`.)
//!
//! | paper artefact | runner |
//! |---|---|
//! | Table I (motivational example, 3 implementations) | [`table1`] |
//! | Table II (classical HLS benchmarks) | [`table2`] |
//! | Table III (ADPCM G.721 modules) | [`table3`] |
//! | Fig. 1/2 (schedules of the motivational example) | [`fig1_fig2_schedules`] |
//! | Fig. 3 (fragmentation of the 8-addition DFG) | [`fig3`] |
//! | Fig. 4 (cycle length vs latency) | [`fig4`] |
//! | Ablation A (adder architectures) | [`ablation_adders`] |
//! | Ablation B (schedule balancing) | [`ablation_balance`] |
//! | Ablation C (multiplier lowering strategy) | [`ablation_mul`] |
//!
//! [`paper_outputs`] assembles all of them as `gen_tables` publishes them;
//! `expected/` holds a known-good copy that a test compares byte for byte.

#![forbid(unsafe_code)]

use bittrans_benchmarks as bm;
use bittrans_core::report::{render_bench_table, render_sweep, render_table1, BenchRow};
use bittrans_core::{baseline, blc, optimize, CompareOptions, Implementation, SweepPoint};
use bittrans_engine::{Engine, Study, StudyReport};
use bittrans_rtl::AdderArch;
use serde::Serialize;

fn quiet() -> CompareOptions {
    CompareOptions::builder().verify_vectors(0).build().expect("static options validate")
}

/// One engine per table/figure run: each harness entry point is invoked
/// standalone by the benches, so the shared state worth keeping is the
/// within-run cache (e.g. Table II latency pairs per benchmark).
fn engine() -> Engine {
    Engine::default()
}

/// Table I: the three implementations of the motivational example.
pub fn table1() -> (String, Vec<(&'static str, Implementation)>) {
    let spec = bm::three_adds();
    let conv = baseline(&spec, 3, &quiet()).expect("conventional flow");
    let chained = blc(&spec, 1, &quiet()).expect("BLC flow");
    let opt = optimize(&spec, 3, &quiet()).expect("optimized flow");
    let cols = vec![
        ("Fig 1b conv", conv.implementation),
        ("Fig 1d BLC", chained.implementation),
        ("Optimized", opt.implementation),
    ];
    let text = render_table1(&cols.iter().map(|(n, i)| (*n, i)).collect::<Vec<_>>());
    (text, cols)
}

/// Table II: the classical benchmarks at the paper's latencies.
pub fn table2() -> (String, Vec<BenchRow>) {
    let rows = bench_rows(bm::table2_benchmarks());
    let text = render_bench_table("Table II — classical HLS benchmarks", &rows);
    (text, rows)
}

/// Table III: the ADPCM G.721 modules at the paper's latencies.
pub fn table3() -> (String, Vec<BenchRow>) {
    let rows = bench_rows(bm::table3_benchmarks());
    let text = render_bench_table("Table III — ADPCM G.721 decoder modules", &rows);
    (text, rows)
}

fn bench_rows(benchmarks: Vec<bm::Benchmark>) -> Vec<BenchRow> {
    // Each benchmark carries its own latency list, so the table is a chain
    // of single-spec studies sharing one engine (and therefore one cache).
    let engine = engine();
    let mut rows = Vec::new();
    for b in benchmarks {
        let report = Study::single(b.spec.clone())
            .latencies(b.latencies.iter().copied())
            .base_options(quiet())
            .run(&engine);
        for cell in &report.cells {
            let comparison = cell
                .comparison()
                .unwrap_or_else(|| {
                    panic!("{} λ={}: {}", b.name, cell.latency, cell.error().unwrap())
                })
                .clone();
            rows.push(BenchRow { bench: b.name.to_string(), latency: cell.latency, comparison });
        }
    }
    rows
}

/// Fig. 1 b/d and Fig. 2 b: rendered schedules of the motivational example.
pub fn fig1_fig2_schedules() -> String {
    use std::fmt::Write as _;
    let spec = bm::three_adds();
    let mut out = String::new();
    let conv = baseline(&spec, 3, &quiet()).expect("conventional");
    let _ = writeln!(out, "Fig. 1 b) conventional schedule ({}δ cycle):", conv.schedule.cycle);
    let _ = writeln!(out, "{}", conv.schedule.render(&spec));
    let chained = blc(&spec, 1, &quiet()).expect("blc");
    let _ = writeln!(out, "Fig. 1 d) chained schedule ({}δ cycle):", chained.schedule.cycle);
    let _ = writeln!(out, "{}", chained.schedule.render(&spec));
    let opt = optimize(&spec, 3, &quiet()).expect("optimized");
    let _ = writeln!(out, "Fig. 2 b) fragment schedule ({}δ cycle):", opt.schedule.cycle);
    let _ = writeln!(out, "{}", opt.schedule.render(&opt.fragmented.spec));
    out
}

/// A Fig. 3 summary: fragments with mobilities, the balanced schedule, and
/// the area/performance comparison of Fig. 3 h).
pub fn fig3() -> String {
    use std::fmt::Write as _;
    let spec = bm::fig3_dfg();
    let mut out = String::new();
    let opt = optimize(&spec, 3, &quiet()).expect("fig3 optimizes");
    let _ = writeln!(
        out,
        "cycle = {}δ (critical path {}δ / λ=3)",
        opt.fragmented.cycle, opt.fragmented.critical_path
    );
    for (source, frag_ids) in &opt.fragmented.per_source {
        let name = opt.kernel.op(*source).label();
        let desc: Vec<String> = frag_ids
            .iter()
            .map(|id| {
                let fi = &opt.fragmented.fragments[id];
                format!(
                    "{name}{} [{} .. {}]{}",
                    fi.range,
                    fi.asap,
                    fi.alap,
                    if fi.is_fixed() { " fixed" } else { "" }
                )
            })
            .collect();
        let _ = writeln!(out, "  {}", desc.join(", "));
    }
    let _ = writeln!(out, "\nFig. 3 g) schedule:");
    let _ = writeln!(out, "{}", opt.schedule.render(&opt.fragmented.spec));
    let base = baseline(&spec, 3, &quiet()).expect("fig3 baseline");
    let _ = writeln!(out, "Fig. 3 h) original:  {}", base.implementation.area);
    let _ = writeln!(out, "Fig. 3 h) optimized: {}", opt.implementation.area);
    let _ = writeln!(
        out,
        "cycle {:.2} ns -> {:.2} ns ({:.0}% saved)",
        base.implementation.cycle_ns,
        opt.implementation.cycle_ns,
        (base.implementation.cycle_ns - opt.implementation.cycle_ns) / base.implementation.cycle_ns
            * 100.0
    );
    out
}

/// Fig. 4: cycle length of both flows across λ = 3..15 on the elliptic
/// filter (the paper's data-intensive sweep subject). A one-axis [`Study`]
/// spreads the latencies over a `bittrans-engine` worker pool; the points
/// come back in the same order the serial `latency_sweep` would produce.
pub fn fig4() -> (String, Vec<SweepPoint>) {
    let report =
        Study::single(bm::elliptic()).latencies(3..=15).base_options(quiet()).run(&engine());
    let points = report.sweep_points();
    let text = render_sweep("Fig. 4 — cycle length vs latency (elliptic)", &points);
    (text, points)
}

/// One ablation row: a label plus cycle/area of an implementation.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Cycle length in ns.
    pub cycle_ns: f64,
    /// Total area in gates.
    pub area_gates: f64,
}

/// Rows of the optimized flow's cells of a study, labelled by `label_of`.
fn ablation_rows(
    report: &StudyReport,
    label_of: impl Fn(&bittrans_engine::StudyCell) -> String,
) -> Vec<AblationRow> {
    report
        .cells
        .iter()
        .map(|cell| {
            let imp = &cell
                .comparison()
                .unwrap_or_else(|| {
                    panic!("{} λ={}: {}", cell.spec, cell.latency, cell.error().unwrap())
                })
                .optimized;
            AblationRow {
                label: label_of(cell),
                cycle_ns: imp.cycle_ns,
                area_gates: imp.area.total(),
            }
        })
        .collect()
}

fn render_ablation(title: &str, rows: &[AblationRow], width: usize) -> String {
    use std::fmt::Write as _;
    let mut text = format!("{title}\n");
    for r in rows {
        let _ = writeln!(
            text,
            "  {:<width$} {:>7.2} ns {:>8.0} gates",
            r.label, r.cycle_ns, r.area_gates
        );
    }
    text
}

/// Ablation A: adder architectures (the paper's closing remark) on the
/// motivational example at λ = 3 — an adder-axis [`Study`].
pub fn ablation_adders() -> (String, Vec<AblationRow>) {
    let report = Study::single(bm::three_adds())
        .latencies([3])
        .adder_archs([AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect])
        .base_options(quiet())
        .run(&engine());
    let rows = ablation_rows(&report, |cell| format!("optimized/{}", cell.adder_arch));
    let text = render_ablation("Ablation A — adder architecture (three_adds, λ=3)", &rows, 28);
    (text, rows)
}

/// Ablation B: fragment-schedule balancing on/off — the §3.3 design choice
/// ("to balance the number of operations executed per cycle") — a
/// balance-axis [`Study`] per subject (each subject has its own λ).
pub fn ablation_balance() -> (String, Vec<AblationRow>) {
    let engine = engine();
    let mut rows = Vec::new();
    for (name, spec, latency) in [("fig3", bm::fig3_dfg(), 3), ("elliptic", bm::elliptic(), 6)] {
        let report = Study::single(spec)
            .latencies([latency])
            .balance_both()
            .base_options(quiet())
            .run(&engine);
        rows.extend(ablation_rows(&report, |cell| format!("{name}/balance={}", cell.balance)));
    }
    let text = render_ablation("Ablation B — fragment balancing", &rows, 28);
    (text, rows)
}

/// Ablation C: multiplier lowering strategy (CSA tree vs shift-add rows)
/// on the FIR filter.
pub fn ablation_mul() -> (String, Vec<AblationRow>) {
    use bittrans_alloc::{allocate, AllocOptions};
    use bittrans_frag::{fragment, FragmentOptions};
    use bittrans_kernel::{extract_with_options, ExtractOptions, MulStrategy};
    use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};
    use bittrans_timing::TimingModel;

    let spec = bm::fir2();
    let mut rows = Vec::new();
    for (label, strategy) in
        [("csa-tree", MulStrategy::CsaTree), ("shift-add", MulStrategy::ShiftAdd)]
    {
        let kernel = extract_with_options(&spec, &ExtractOptions { mul_strategy: strategy })
            .expect("extract");
        let f = fragment(&kernel, &FragmentOptions::with_latency(5)).expect("fragment");
        let s = schedule_fragments(&f, &FragmentScheduleOptions::default()).expect("schedule");
        let dp = allocate(&f.spec, &s, &AllocOptions::default());
        rows.push(AblationRow {
            label: format!("fir2/{label} ({} kernel adds)", kernel.stats().adds),
            cycle_ns: TimingModel::paper_calibrated().cycle_ns(s.cycle),
            area_gates: dp.area.total(),
        });
    }
    let text = render_ablation("Ablation C — multiplier lowering (fir2, λ=5)", &rows, 34);
    (text, rows)
}

/// Extended benchmark set (ar_lattice, dct4, cordic3) — beyond the paper,
/// probing the method on multiplier-deep, butterfly-wide and shift-add-only
/// workload shapes.
pub fn extended_table() -> (String, Vec<BenchRow>) {
    let rows = bench_rows(bm::extended_benchmarks());
    let text = render_bench_table("Extended benchmarks (beyond the paper)", &rows);
    (text, rows)
}

/// Every runner's output as `gen_tables` publishes it: the rendered text of
/// all tables and figures (the binary's stdout, and `tables.txt`), then one
/// `(file name, JSON)` per machine-readable data set.
///
/// # Errors
///
/// Returns the error of a data set that fails to serialize.
pub fn paper_outputs() -> Result<(String, Vec<(String, String)>), serde_json::Error> {
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut files = Vec::new();

    let (t, cols) = table1();
    let _ = writeln!(text, "=== Table I — motivational example ===\n{t}");
    files.push(("table1.json".to_string(), serde_json::to_string_pretty(&cols)?));

    let _ = writeln!(text, "=== Fig. 1 / Fig. 2 — schedules ===\n{}", fig1_fig2_schedules());
    let _ = writeln!(text, "=== Fig. 3 — fragmentation example ===\n{}", fig3());

    for (file, title, (t, rows)) in [
        ("table2.json", "Table II — classical HLS benchmarks", table2()),
        ("table3.json", "Table III — ADPCM G.721 modules", table3()),
        ("extended.json", "Extended benchmarks (beyond the paper)", extended_table()),
    ] {
        let _ = writeln!(text, "=== {title} ===\n{t}");
        files.push((file.to_string(), serde_json::to_string_pretty(&rows)?));
    }

    let (t, points) = fig4();
    let _ = writeln!(text, "=== Fig. 4 — cycle length vs latency ===\n{t}");
    files.push(("fig4.json".to_string(), serde_json::to_string_pretty(&points)?));

    for (name, (t, rows)) in [
        ("ablation_adders", ablation_adders()),
        ("ablation_balance", ablation_balance()),
        ("ablation_mul", ablation_mul()),
    ] {
        let _ = writeln!(text, "{t}");
        files.push((format!("{name}.json"), serde_json::to_string_pretty(&rows)?));
    }
    Ok((text, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_match_the_goldens() {
        // `expected/` is the output directory of a known-good gen_tables run.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        let (text, files) = paper_outputs().expect("tables serialize");
        let mut produced = vec![("tables.txt".to_string(), text)];
        produced.extend(files);
        let mut names: Vec<String> = produced.iter().map(|(name, _)| name.clone()).collect();
        let mut golden: Vec<String> = std::fs::read_dir(&dir)
            .expect("expected/ exists")
            .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        golden.sort();
        assert_eq!(names, golden);
        for (name, content) in produced {
            let want = std::fs::read_to_string(dir.join(&name)).expect("readable golden");
            assert_eq!(content, want, "{name} differs from expected/{name}");
        }
    }

    #[test]
    fn table1_runs() {
        let (text, cols) = table1();
        assert!(text.contains("Cycle (ns)"));
        assert_eq!(cols.len(), 3);
        // Headline ordering: optimized smallest area, BLC fastest execution.
        assert!(cols[2].1.area.total() < cols[0].1.area.total());
        assert!(cols[2].1.cycle_ns < cols[0].1.cycle_ns / 2.0);
    }

    #[test]
    fn table3_runs() {
        let (text, rows) = table3();
        assert!(text.contains("IAQ"));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.comparison.cycle_saved_pct() > 30.0, "{}", r.bench);
        }
    }

    #[test]
    fn extended_table_runs() {
        let (_, rows) = extended_table();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.comparison.cycle_saved_pct() > 30.0, "{}", r.bench);
        }
    }

    #[test]
    fn fig3_renders() {
        let text = fig3();
        assert!(text.contains("cycle = 3δ"));
        assert!(text.contains("Fig. 3 h"));
    }

    #[test]
    fn ablations_run() {
        let (t, rows) = ablation_adders();
        assert_eq!(rows.len(), 3);
        assert!(t.contains("ripple-carry"));
        let (_, rows) = ablation_mul();
        assert_eq!(rows.len(), 2);
    }
}
