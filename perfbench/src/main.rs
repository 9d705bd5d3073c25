//! `perfbench`: the end-to-end and per-layer benchmark of bittrans.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_dse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the run is timed and its
//! last stdout line is one JSON object with every end-to-end metric; with
//! `--trace 1` it is a separate traced run reporting every per-layer
//! metric and writing its spans to `.perfbench_work/trace-<workload>.jsonl`
//! (after a first line with the host fingerprint).
//! `--regenerate` rewrites the expected outputs under `perfbench/expected/`.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod dse;
mod fleet;
mod fuzzing;
mod layers;
mod serving;
mod spans;
mod stats;

use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Metric name → value, as measured.
pub type Metrics = BTreeMap<String, f64>;

/// End-to-end metrics (`--trace 0`), with units: reported by every workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cells_per_s", "1/s"), ("latency_p95_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Printed beside the end-to-end metrics but not part of the result: the
/// median latency, which on a busy host flips between the host's fast and
/// slow states from run to run (the p95 sits in the slow state every run).
const INFO: [(&str, &str); 1] = [("latency_p50_ms", "ms")];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// exercise reads 0 there; `perfbench/layer_map.json` names, per metric, the
/// workloads that exercise it and the end-to-end metrics it should move.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("kernel.extract_ms", "ms"),
    ("kernel.extract_calls", "count"),
    ("kernel.extract_share_pct", "%"),
    ("frag.fragment_ms", "ms"),
    ("frag.fragment_calls", "count"),
    ("frag.fragment_share_pct", "%"),
    ("sim.verify_ms", "ms"),
    ("sim.verify_calls", "count"),
    ("sim.verify_share_pct", "%"),
    ("sched.conventional_ms", "ms"),
    ("sched.conventional_calls", "count"),
    ("sched.conventional_share_pct", "%"),
    ("sched.fragments_ms", "ms"),
    ("sched.fragments_calls", "count"),
    ("sched.fragments_share_pct", "%"),
    ("alloc.allocate_ms", "ms"),
    ("alloc.allocate_calls", "count"),
    ("alloc.allocate_share_pct", "%"),
    ("timing.time_ms", "ms"),
    ("timing.time_calls", "count"),
    ("timing.time_share_pct", "%"),
    ("sim.verify_us_per_eval", "us"),
    ("alloc.allocate_us_per_call", "us"),
    ("engine.executor.efficiency", "ratio"),
    ("engine.executor.wall_ms", "ms"),
    ("engine.stagecache.hits", "count"),
    ("engine.stagecache.misses", "count"),
    ("engine.stagecache.hit_pct", "%"),
    ("engine.persist.files_written", "count"),
    ("engine.persist.bytes_written", "bytes"),
    ("engine.persist.spill_ms", "ms"),
    ("engine.persist.open_ms", "ms"),
    ("engine.persist.warm_run_ms", "ms"),
    ("engine.serve.engine_ms_p50", "ms"),
    ("engine.serve.overhead_ms_p50", "ms"),
    ("engine.serve.overhead_ms_p95", "ms"),
    ("engine.serve.cold_engine_ms_p50", "ms"),
    ("engine.proto.connect_ms", "ms"),
    ("engine.serve.reply_bytes", "bytes"),
    ("engine.cache.hit_pct", "%"),
    ("engine.shard.run_ms", "ms"),
    ("engine.shard.overhead_pct", "%"),
    ("engine.shard.endpoint_jobs_max_min", "ratio"),
    ("engine.shard.gap_fill_jobs", "count"),
    ("engine.fuzz.cells", "count"),
    ("engine.fuzz.feasible_pct", "%"),
    ("engine.fuzz.staged_ms", "ms"),
    ("engine.fuzz.monolithic_ms", "ms"),
    ("benchmarks.random_spec_us", "us"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.traced_wall_ms", "ms"),
];

pub const WORKLOADS: [&str; 3] = ["paper_dse", "fuzz", "serve_mixed"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs, at least.
    pub seconds: f64,
    /// Spans of this run (recording only with `--trace 1`).
    pub rec: Recorder,
    /// Scratch space for stores, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Checked units: cells, fuzz cases or requests.
    pub attempted: u64,
    /// Units that failed or whose output differs from the expected file.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Adds `(attempted, failed)` units.
    pub fn tally(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a traced pass against the same work untraced (run before
    /// and after it, so process warm-up favours neither side).
    pub fn record_overhead(&mut self, traced_ms: f64, untraced_ms: &[f64]) {
        self.metrics.insert("bench.traced_wall_ms".into(), traced_ms);
        self.metrics
            .insert("bench.trace_overhead_ms".into(), traced_ms - stats::median(untraced_ms));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    regenerate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, regenerate: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--regenerate" {
            args.regenerate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.regenerate && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// The host and build this run measured on. Results from unlike hosts
/// are not comparable.
fn fingerprint() -> String {
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let fields = [
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("rustc", first_line("rustc", &["--version"])),
        ("profile", profile.to_string()),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
    ];
    let mut out = format!("{{\"available_parallelism\":{parallelism}");
    for (key, value) in fields {
        out.push_str(&format!(
            ",\"{key}\":{}",
            serde_json::to_string(&value).expect("string serializes")
        ));
    }
    out.push('}');
    out
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each declared metric with its unit.
fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value =
            *outcome.metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    if args.regenerate {
        dse::regenerate()?;
        fuzzing::regenerate()?;
        serving::regenerate()?;
        println!("expected outputs rewritten under {}", check::expected_dir().display());
        return Ok(());
    }
    if !args.trace
        && (std::env::var_os("BITTRANS_TRACE").is_some() || bittrans_engine::trace::enabled())
    {
        return Err(
            "refusing to time a run while a trace collector is active (BITTRANS_TRACE)".into()
        );
    }
    let workload: &'static str =
        WORKLOADS.iter().copied().find(|w| *w == args.workload).expect("checked");
    let base = PathBuf::from(".perfbench_work");
    let work = base.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rec: Recorder::new(workload, args.trace),
        work,
    };

    let host = fingerprint();
    println!("host: {host}");
    let result = match workload {
        "paper_dse" => dse::paper_dse(&ctx),
        "fuzz" => fuzzing::run(&ctx),
        _ => serving::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = result?;
    outcome.metrics.insert("peak_rss_mb".into(), stats::peak_rss_mb());

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        for &(name, _) in declared {
            outcome.metrics.entry(name.to_string()).or_insert(0.0);
        }
        let trace_file = base.join(format!("trace-{workload}.jsonl"));
        std::fs::write(&trace_file, format!("{{\"host\":{host}}}\n{}", ctx.rec.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        println!("spans: {}", trace_file.display());
        print!("{}", spans::render(&spans::summarize(&ctx.rec.spans())));
    }
    let info: &[(&str, &str)] = if args.trace { &[] } else { &INFO };
    for &(name, unit) in declared.iter().chain(info) {
        println!("{workload:<12} {name:<36} {:>16.4} {unit}", outcome.metrics[name]);
    }
    println!(
        "{workload:<12} {:<36} {:>16.4} % ({} of {} failed)",
        "failed_pct",
        stats::pct(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_line(&outcome, declared)?);
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome { attempted: 3, failed: 1, ..Outcome::default() };
        for (name, _) in END_TO_END {
            outcome.metrics.insert(name.to_string(), 1.5);
        }
        let line = result_line(&outcome, &END_TO_END).expect("every metric present");
        let value = serde_json::from_str(&line).expect("valid JSON");
        let serde_json::Value::Object(fields) = &value else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.get("correct").and_then(serde_json::Value::as_bool), Some(false));
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("unit").and_then(serde_json::Value::as_str), Some("s"));

        outcome.metrics.remove("setup_s");
        assert!(result_line(&outcome, &END_TO_END).is_err(), "a missing metric is an error");
    }

    #[test]
    fn declared_metrics_match_the_benchmark_file_and_the_layer_map() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let bench =
            std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let bench = serde_json::from_str(&bench).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f).and_then(serde_json::Value::as_str).expect("field").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(serde_json::Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let map = std::fs::read_to_string(root.join("layer_map.json")).expect("layer_map.json");
        let map = serde_json::from_str(&map).expect("layer_map.json parses");
        for (name, _) in PER_LAYER {
            let entry = map.get(name).unwrap_or_else(|| panic!("layer_map.json lacks {name}"));
            for key in ["workloads", "moves", "does_not_move"] {
                assert!(entry.get(key).is_some(), "layer_map.json {name} lacks {key}");
            }
        }
    }
}
