//! `bittrans` — command-line front end for the presynthesis optimiser.
//!
//! ```text
//! bittrans optimize  <file.spec> --latency N [--adder rca|cla|csel] [--emit-vhdl DIR] [--netlist]
//! bittrans compare   <file.spec> --latency N
//! bittrans explore   <dir-or-files...> --latency N|A..B [--adders rca,cla,csel]
//!                    [--balance on|off|both] [--verify N] [--jobs K]
//!                    [--workers host:port,... [--shards K]] [--timeout SECS]
//!                    [--cache-dir DIR] [--json]
//! bittrans cache     prune --cache-dir DIR [--max-bytes N] [--max-age SECS] [--json]
//! bittrans serve     --addr HOST:PORT [--cache-dir DIR] [--jobs K]
//! bittrans client    <dir-or-files...> --addr HOST:PORT [--latency N|A..B]
//!                    [--adders rca,cla,csel] [--balance on|off|both] [--verify N]
//!                    [--timeout SECS] [--stream] [--json]
//! bittrans client    --addr HOST:PORT --shutdown
//! bittrans client    --addr HOST:PORT --stats
//! bittrans report    normalize <report.json|->
//! bittrans fragments <file.spec> --latency N
//! bittrans check     <file.spec>
//! ```
//!
//! `<file.spec>` contains a specification in the textual DSL (see
//! `bittrans::ir::parse`); pass `-` to read from stdin. `explore` accepts
//! any mix of `.spec` files and directories (scanned for `*.spec`) and
//! expands the design-space grid — specs × latencies × adder architectures
//! × balancing — into a `Study`, runs it on a worker pool (`--jobs`,
//! default: all cores) and prints the labelled cell table (or, with
//! `--json`, the full machine-readable report). One latency over a
//! directory is a batch run; a latency range over one spec is a latency
//! sweep, with each cell's `orig (ns)`/`opt (ns)` columns. `--cache-dir`
//! persists results on disk, so a repeated invocation over the same inputs
//! is served entirely from cache.
//!
//! `explore --workers host:port,host:port` cuts the grid into shards and
//! sends them to running `bittrans serve` endpoints (round-robin,
//! retrying a failed endpoint's shard on the next one, recomputing
//! in-process whatever the fleet never delivered); the printed report is
//! bit-identical to the single-process run. `--workers` requires
//! `--cache-dir` — the store the whole fleet shares — composes with
//! `--shards K` (default: one shard per endpoint), and bounds every
//! exchange by `--timeout`. `--shards` without `--workers` is an error:
//! one process already runs the grid on every core, so to use several
//! processes on one host, start several `bittrans serve --cache-dir DIR`
//! endpoints there. `cache prune` sweeps a cache directory down to a
//! size/age budget, oldest files first.
//!
//! Every subcommand can write a structured execution trace — one JSON
//! line per span or event, see `bittrans_engine::trace` — to a file given
//! by `--trace-out FILE` or the `BITTRANS_TRACE` environment variable.
//! `report normalize` rewrites a study-report JSON document with the
//! run-shape fields (`elapsed_ms`, `workers`) blanked, so reports from
//! runs with different worker counts can be byte-compared. `client
//! --stats` asks a running server for its `{"stats":true}` introspection
//! line.
//!
//! `serve` runs the long-lived study service: one warm engine answering
//! newline-delimited JSON study requests over TCP (see
//! `bittrans_engine::serve`), printing `listening on HOST:PORT` once
//! bound (pass port 0 to pick a free one). `client` is its thin
//! counterpart: it assembles the same grid `explore` would from the same
//! flags, sends it as one request, and prints the response — with
//! `--json`, the exact `StudyReport` bytes the server computed. `client
//! --stream` asks the server to push each finished cell as a progress
//! frame (printed to stderr as it lands) ahead of the identical final
//! report. `client --shutdown` asks the server to drain and exit.

use bittrans::core::report::render_table1;
use bittrans::core::MAX_LATENCY;
use bittrans::engine::proto;
use bittrans::engine::serve;
use bittrans::engine::shard;
use bittrans::engine::{fuzz, trace, MAX_WORKERS};
use bittrans::prelude::*;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    command: String,
    files: Vec<String>,
    latencies: Vec<u32>,
    jobs: Option<usize>,
    adder: AdderArch,
    adders: Option<Vec<AdderArch>>,
    balance: Option<Vec<bool>>,
    verify: Option<usize>,
    shards: Option<usize>,
    workers: Option<String>,
    timeout: Option<u64>,
    cache_dir: Option<String>,
    max_bytes: Option<u64>,
    max_age: Option<u64>,
    addr: Option<String>,
    shutdown: bool,
    stats: bool,
    stream: bool,
    json: bool,
    trace_out: Option<String>,
    emit_vhdl: Option<String>,
    netlist: bool,
    count: Option<usize>,
    seed: Option<u64>,
    mul_prob: Option<f64>,
    replay: Option<u64>,
}

impl Args {
    /// The single latency of one-point commands (optimize/compare/…),
    /// which reject the `A..B` range syntax `explore` accepts.
    fn single_latency(&self) -> Result<u32, String> {
        match self.latencies.as_slice() {
            [one] => Ok(*one),
            _ => Err(format!("`{}` takes a single --latency, not a range", self.command)),
        }
    }
}

/// Every subcommand, in the order `usage()` lists them.
const COMMANDS: [&str; 10] = [
    "optimize",
    "compare",
    "explore",
    "cache",
    "serve",
    "client",
    "fuzz",
    "report",
    "fragments",
    "check",
];

fn usage() -> String {
    format!(
        "usage: bittrans <{}> \
         <file.spec|dir|-> ... [--latency N|A..B] [--jobs K] \
         [--adder rca|cla|csel] [--adders rca,cla,csel] [--balance on|off|both] \
         [--verify N] [--workers host:port,... [--shards K]] [--timeout SECS] \
         [--cache-dir DIR] [--max-bytes N] [--max-age SECS] \
         [--addr HOST:PORT] [--shutdown] [--stats] [--stream] [--trace-out FILE] \
         [--json] [--emit-vhdl DIR] [--netlist] \
         [--count N] [--seed S] [--mul-prob P] [--replay SEED]",
        COMMANDS.join("|")
    )
}

fn parse_adder(name: &str) -> Result<AdderArch, String> {
    // Canonical short codes come from the enum itself; only the CLI's
    // long-form aliases live here.
    match name {
        "ripple" | "ripple-carry" => Ok(AdderArch::RippleCarry),
        "carry-lookahead" => Ok(AdderArch::CarryLookahead),
        "carry-select" => Ok(AdderArch::CarrySelect),
        code => AdderArch::from_code(code)
            .ok_or_else(|| format!("unknown adder `{code}` (rca|cla|csel)")),
    }
}

/// Parses `--latency`: either one value (`4`) or an inclusive range
/// (`2..8`), neither beyond [`MAX_LATENCY`].
fn parse_latencies(text: &str) -> Result<Vec<u32>, String> {
    let bounded = |latency: u32| {
        if latency > MAX_LATENCY {
            Err(format!("bad --latency `{text}`: {latency} exceeds the maximum of {MAX_LATENCY}"))
        } else {
            Ok(latency)
        }
    };
    if let Some((from, to)) = text.split_once("..") {
        let from: u32 = from.parse().map_err(|e| format!("bad --latency `{text}`: {e}"))?;
        let to: u32 = to.parse().map_err(|e| format!("bad --latency `{text}`: {e}"))?;
        if from > to {
            return Err(format!("bad --latency `{text}`: empty range"));
        }
        Ok((from..=bounded(to)?).collect())
    } else {
        Ok(vec![bounded(text.parse().map_err(|e| format!("bad --latency: {e}"))?)?])
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    }
    let mut args = Args {
        command,
        files: Vec::new(),
        latencies: vec![3],
        jobs: None,
        adder: AdderArch::RippleCarry,
        adders: None,
        balance: None,
        verify: None,
        shards: None,
        workers: None,
        timeout: None,
        cache_dir: None,
        max_bytes: None,
        max_age: None,
        addr: None,
        shutdown: false,
        stats: false,
        stream: false,
        json: false,
        trace_out: None,
        emit_vhdl: None,
        netlist: false,
        count: None,
        seed: None,
        mul_prob: None,
        replay: None,
    };
    while let Some(flag) = argv.next() {
        let mut value =
            |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value\n{}", usage()));
        match flag.as_str() {
            "--latency" => args.latencies = parse_latencies(&value("--latency")?)?,
            "--jobs" => {
                let k: usize = value("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                if k == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                if k > MAX_WORKERS {
                    return Err(format!("bad --jobs: {k} exceeds the maximum of {MAX_WORKERS}"));
                }
                args.jobs = Some(k);
            }
            "--adder" => args.adder = parse_adder(&value("--adder")?)?,
            "--adders" => {
                let list = value("--adders")?
                    .split(',')
                    .map(|name| parse_adder(name.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err("--adders needs at least one architecture".into());
                }
                args.adders = Some(list);
            }
            "--balance" => {
                args.balance = Some(match value("--balance")?.as_str() {
                    "on" => vec![true],
                    "off" => vec![false],
                    "both" => vec![true, false],
                    other => return Err(format!("bad --balance `{other}` (on|off|both)")),
                })
            }
            "--verify" => {
                args.verify =
                    Some(value("--verify")?.parse().map_err(|e| format!("bad --verify: {e}"))?)
            }
            "--shards" => {
                let k: usize =
                    value("--shards")?.parse().map_err(|e| format!("bad --shards: {e}"))?;
                if k == 0 {
                    return Err("--shards must be at least 1".into());
                }
                args.shards = Some(k);
            }
            "--workers" => args.workers = Some(value("--workers")?),
            "--timeout" => {
                let secs: u64 =
                    value("--timeout")?.parse().map_err(|e| format!("bad --timeout: {e}"))?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".into());
                }
                args.timeout = Some(secs);
            }
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--max-bytes" => {
                args.max_bytes = Some(
                    value("--max-bytes")?.parse().map_err(|e| format!("bad --max-bytes: {e}"))?,
                )
            }
            "--max-age" => {
                args.max_age =
                    Some(value("--max-age")?.parse().map_err(|e| format!("bad --max-age: {e}"))?)
            }
            "--addr" => args.addr = Some(value("--addr")?),
            "--shutdown" => args.shutdown = true,
            "--stats" => args.stats = true,
            "--stream" => args.stream = true,
            "--count" => {
                let n: usize =
                    value("--count")?.parse().map_err(|e| format!("bad --count: {e}"))?;
                if n == 0 {
                    return Err("--count must be at least 1".into());
                }
                args.count = Some(n);
            }
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--mul-prob" => {
                let p: f64 =
                    value("--mul-prob")?.parse().map_err(|e| format!("bad --mul-prob: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--mul-prob must be within 0..=1".into());
                }
                args.mul_prob = Some(p);
            }
            "--replay" => {
                args.replay =
                    Some(value("--replay")?.parse().map_err(|e| format!("bad --replay: {e}"))?);
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--json" => args.json = true,
            "--emit-vhdl" => args.emit_vhdl = Some(value("--emit-vhdl")?),
            "--netlist" => args.netlist = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            positional => args.files.push(positional.to_string()),
        }
    }
    // `serve` addresses a socket, not files; `client --shutdown` and
    // `client --stats` send bodyless control requests; `fuzz` generates
    // its own specs. Everything else needs an operand.
    let fileless = args.command == "serve"
        || args.command == "fuzz"
        || (args.command == "client" && (args.shutdown || args.stats));
    if args.files.is_empty() && !fileless {
        return Err(usage());
    }
    Ok(args)
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn read_spec(path: &str) -> Result<Spec, String> {
    Spec::parse(&read_source(path)?).map_err(|e| e.to_string())
}

/// Expands the `explore`/`client` operands: files stay as-is, directories
/// contribute every contained `*.spec` in name order.
fn collect_spec_paths(operands: &[String]) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    for operand in operands {
        if operand == "-" {
            paths.push(operand.clone());
            continue;
        }
        let meta = std::fs::metadata(operand).map_err(|e| format!("reading {operand}: {e}"))?;
        if meta.is_dir() {
            let mut found = Vec::new();
            let entries =
                std::fs::read_dir(operand).map_err(|e| format!("reading {operand}: {e}"))?;
            for entry in entries {
                let path = entry.map_err(|e| format!("reading {operand}: {e}"))?.path();
                if path.extension().is_some_and(|ext| ext == "spec") {
                    found.push(path.to_string_lossy().into_owned());
                }
            }
            found.sort();
            if found.is_empty() {
                return Err(format!("{operand}: no .spec files in directory"));
            }
            paths.extend(found);
        } else {
            paths.push(operand.clone());
        }
    }
    Ok(paths)
}

/// Reads every operand into a spec list (deduplicated directory scan).
fn read_specs(operands: &[String]) -> Result<Vec<Spec>, String> {
    collect_spec_paths(operands)?.iter().map(|path| read_spec(path)).collect()
}

/// Prints a study report (text table or `--json`) and applies explore's
/// exit rule: a partly infeasible grid is normal output, a grid with no
/// feasible cell at all fails the invocation.
fn finish_explore(report: &StudyReport, json: bool) -> Result<(), String> {
    if json {
        println!("{}", report.to_json_pretty());
    } else {
        print!("{}", report.render_text());
        println!("\nengine: {}", report.stats);
    }
    if !report.cells.is_empty() && report.successes().count() == 0 {
        return Err(format!("all {} grid cells failed", report.cells.len()));
    }
    Ok(())
}

fn run_explore(args: &Args, options: &CompareOptions) -> Result<(), String> {
    warn_timeout_without_workers(args);
    if let Some((shard_options, store)) = fleet_sharding(args, "explore")? {
        return run_explore_sharded(args, options, &shard_options, &store);
    }
    let mut study = Study::over(read_specs(&args.files)?)
        .latencies(args.latencies.iter().copied())
        .base_options(*options);
    if let Some(adders) = &args.adders {
        study = study.adder_archs(adders.iter().copied());
    }
    if let Some(balance) = &args.balance {
        study = study.balance(balance.iter().copied());
    }
    let engine = Engine::new(EngineOptions { workers: args.jobs, ..Default::default() });
    let engine = match &args.cache_dir {
        Some(dir) => engine.with_cache_dir(dir).map_err(|e| format!("cache dir {dir}: {e}"))?,
        None => engine,
    };
    let report = study.run(&engine);
    finish_explore(&report, args.json)
}

/// The explore-shaped grid as transportable source text — what a shard
/// request embeds and what `client` sends as a serve request. One
/// builder for both, so the two front ends cannot drift apart.
fn sharded_study(args: &Args, options: &CompareOptions) -> Result<shard::ShardedStudy, String> {
    let sources = collect_spec_paths(&args.files)?
        .iter()
        .map(|path| read_source(path))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(shard::ShardedStudy {
        sources,
        latencies: args.latencies.clone(),
        adder_archs: args.adders.clone(),
        balance: args.balance.clone(),
        verify_vectors: None,
        base: *options,
    })
}

/// `--timeout` bounds exchanges with `serve` endpoints only, so say so
/// instead of dropping the flag.
fn warn_timeout_without_workers(args: &Args) {
    if args.timeout.is_some() && args.workers.is_none() {
        eprintln!(
            "warning: --timeout has no effect without --workers; it bounds each \
             exchange with a serve endpoint"
        );
    }
}

/// The shard options `explore` and `fuzz` share, from `--workers` (a
/// running `serve` fleet, which needs `--cache-dir`) and `--shards` (the
/// cut, default one shard per endpoint), with that shared store. `None`
/// when neither flag is given.
fn fleet_sharding(
    args: &Args,
    command: &str,
) -> Result<Option<(shard::ShardOptions, PathBuf)>, String> {
    let Some(list) = &args.workers else {
        return match args.shards {
            Some(_) => Err(format!(
                "{command} --shards needs --workers: start `bittrans serve --cache-dir DIR` \
                 endpoints (several on one host if you like) and pass them as \
                 --workers host:port,..."
            )),
            None => Ok(None),
        };
    };
    let endpoints = shard::parse_endpoints(list).map_err(|e| e.to_string())?;
    // The coordinator reads results back from the store the fleet writes,
    // so a shared --cache-dir is not optional.
    let Some(dir) = &args.cache_dir else {
        return Err(format!(
            "{command} --workers needs --cache-dir: the coordinator and the \
             serve fleet must share one result store"
        ));
    };
    let shards = args.shards.unwrap_or(endpoints.len());
    let timeout = args.timeout.map_or(proto::DEFAULT_TIMEOUT, Duration::from_secs);
    let transport = shard::Transport::Remote(shard::RemoteTransport { endpoints, timeout });
    Ok(Some((shard::ShardOptions { shards, transport }, PathBuf::from(dir))))
}

/// `explore --workers`: the same grid, dispatched as shard requests to
/// `serve` endpoints sharing one cache directory, reassembled into the
/// identical report.
fn run_explore_sharded(
    args: &Args,
    options: &CompareOptions,
    shard_options: &shard::ShardOptions,
    store: &Path,
) -> Result<(), String> {
    let study = sharded_study(args, options)?;
    if args.jobs.is_some() {
        eprintln!(
            "warning: --jobs has no effect with --workers; each endpoint's pool \
             width is set by its own `serve --jobs`"
        );
    }
    let run = shard::run_sharded(&study, store, shard_options).map_err(|e| e.to_string())?;
    for (index, stats) in run.shard_stats.iter().enumerate() {
        match stats {
            Some(stats) => eprintln!("shard {index}/{}: {stats}", run.shard_stats.len()),
            None => eprintln!("shard {index}/{}: failed", run.shard_stats.len()),
        }
    }
    for endpoint in &run.endpoints {
        eprintln!("{endpoint}");
    }
    if !run.retried.is_empty() {
        eprintln!(
            "recovered from {} failed shard(s): retried {} missing job(s) in-process",
            run.failed.len(),
            run.retried.len()
        );
    }
    finish_explore(&run.report, args.json)
}

/// `serve`: the long-lived study service — one warm engine, newline-
/// delimited JSON requests over TCP, until a `shutdown` request arrives.
fn run_serve(args: &Args) -> Result<(), String> {
    let Some(addr) = &args.addr else {
        return Err("serve needs --addr HOST:PORT".to_string());
    };
    if !args.files.is_empty() {
        return Err("serve takes no spec operands (clients send the specs)".to_string());
    }
    let options = serve::ServeOptions {
        addr: addr.clone(),
        workers: args.jobs,
        cache_dir: args.cache_dir.as_ref().map(PathBuf::from),
        max_request_bytes: serve::DEFAULT_MAX_REQUEST_BYTES,
    };
    let server = serve::Server::bind(&options).map_err(|e| format!("serve {addr}: {e}"))?;
    // Announce the resolved address (scripts and test fleets bind port 0
    // and need the real port); flush because stdout is block-buffered
    // under a pipe.
    println!("{}", serve::banner(server.local_addr()));
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let stats = server.run().map_err(|e| e.to_string())?;
    eprintln!("serve: {stats}");
    Ok(())
}

/// `client`: assemble the same grid `explore` would, send it to a running
/// `serve` process as one request, print the response.
fn run_client(args: &Args, options: &CompareOptions) -> Result<(), String> {
    let Some(addr) = &args.addr else {
        return Err("client needs --addr HOST:PORT".to_string());
    };
    let request = if args.shutdown {
        if !args.files.is_empty() {
            return Err("client --shutdown takes no spec operands".to_string());
        }
        if args.stream {
            return Err("--stream makes no sense with --shutdown".to_string());
        }
        "{\"shutdown\": true}".to_string()
    } else if args.stats {
        if !args.files.is_empty() {
            return Err("client --stats takes no spec operands".to_string());
        }
        if args.stream {
            return Err("--stream makes no sense with --stats".to_string());
        }
        "{\"stats\": true}".to_string()
    } else {
        let study = sharded_study(args, options)?;
        let body = serde_json::to_string(&study).map_err(|e| e.to_string())?;
        if args.stream {
            // Splice the opt-in flag into the study object; the server's
            // field whitelist accepts `stream` alongside the grid fields.
            format!("{{\"stream\":true,{}", &body[1..])
        } else {
            body
        }
    };
    // The shared line codec bounds the whole exchange: connect, send and
    // — crucially — the response read, so a stalled server costs one
    // timeout error instead of a client hung forever.
    let timeout = args.timeout.map_or(proto::DEFAULT_TIMEOUT, Duration::from_secs);
    let mut client =
        proto::LineClient::connect(addr, timeout).map_err(|e| format!("connecting {addr}: {e}"))?;
    client.send(&request).map_err(|e| format!("sending request: {e}"))?;
    let line = if args.stream {
        // Progress frames land on stderr as cells finish; stdout stays
        // exactly what the non-streaming invocation would print.
        let mut done: u64 = 0;
        client
            .receive_streaming(|frame| {
                done += 1;
                match proto::frame_cell(frame) {
                    Some((index, _)) => eprintln!("cell {index} done ({done} so far)"),
                    None => eprintln!("cell done ({done} so far)"),
                }
            })
            .map_err(|e| format!("reading response: {e}"))?
    } else {
        client.receive().map_err(|e| format!("reading response: {e}"))?
    };
    let value = serde_json::from_str(&line).map_err(|e| format!("bad response: {e}"))?;
    if value.get("ok").and_then(serde_json::Value::as_bool) != Some(true) {
        let why = value
            .get("error")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("no error detail in response");
        return Err(format!("server rejected the request: {why}"));
    }
    if args.shutdown {
        println!("server acknowledged shutdown");
        return Ok(());
    }
    if args.stats {
        // The introspection line is already machine-readable; print it
        // verbatim so scripts can parse counters straight off stdout.
        println!("{line}");
        return Ok(());
    }
    if args.json {
        // The exact StudyReport bytes the server computed: the `report`
        // field is the line's final field precisely so it can be sliced
        // out without re-serializing (and re-ordering) anything.
        let report = proto::report_slice(&line)
            .ok_or_else(|| format!("response carries no report: {line}"))?;
        println!("{report}");
        return Ok(());
    }
    let report =
        value.get("report").ok_or_else(|| format!("response carries no report: {line}"))?;
    let cells = report
        .get("cells")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("response report carries no cells: {line}"))?;
    let ok = cells
        .iter()
        .filter(|c| c.get("ok").and_then(serde_json::Value::as_bool) == Some(true))
        .count();
    let hits = report
        .get("stats")
        .and_then(|s| s.get("cache_hits"))
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0);
    println!(
        "{} cells ({} ok, {} failed), {} served from the warm cache",
        cells.len(),
        ok,
        cells.len() - ok,
        hits
    );
    // Mirror explore's exit rule: a grid with no feasible cell fails.
    if !cells.is_empty() && ok == 0 {
        return Err(format!("all {} grid cells failed", cells.len()));
    }
    Ok(())
}

/// `fuzz`: fleet-scale differential fuzzing — seeded random specs through
/// the full study grid, cross-configuration invariants asserted per case,
/// optionally cross-checked against a `serve` fleet (`--workers`).
fn run_fuzz(args: &Args) -> Result<(), String> {
    let count = args.count.unwrap_or(100);
    let seed = args.seed.unwrap_or(0);
    // The differential (sharded) cross-check engages exactly like
    // explore's sharding: --workers for a running serve fleet.
    warn_timeout_without_workers(args);
    let differential = fleet_sharding(args, "fuzz")?.map(|(options, cache_dir)| {
        fuzz::Differential { cache_dir, shards: options.shards, transport: options.transport }
    });
    let options = fuzz::FuzzOptions {
        count,
        seed,
        mul_prob: args.mul_prob,
        workers: args.jobs,
        differential,
    };
    match args.replay {
        Some(target) => {
            // A replay seed must come from the run being reproduced:
            // outside [seed, seed+count) it was never generated.
            if target.wrapping_sub(seed) >= count as u64 {
                return Err(format!(
                    "--replay {target} was never generated by --seed {seed} --count {count}; \
                     pass the original run's --seed/--count"
                ));
            }
            let outcome = fuzz::run_case(target, &options);
            println!(
                "replay seed {target} (shape {}): {} cells, {} feasible, {} violation(s)",
                outcome.shape.name(),
                outcome.cells,
                outcome.feasible,
                outcome.violations.len()
            );
            for v in &outcome.violations {
                println!("  [{}] {}", v.invariant.name(), v.detail);
            }
            if outcome.violations.is_empty() {
                Ok(())
            } else {
                Err(format!("replay of seed {target} reproduced the failure"))
            }
        }
        None => {
            let report = fuzz::run(&options);
            if args.json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.total_violations() == 0 {
                Ok(())
            } else {
                Err(format!(
                    "fuzz: {} invariant violation(s); failing seeds: {:?} \
                     (reproduce with `bittrans fuzz --replay <seed> --seed {seed} --count {count}`)",
                    report.total_violations(),
                    report.failing_seeds
                ))
            }
        }
    }
}

/// `report normalize`: rewrite a study-report JSON document with the
/// run-shape fields (`elapsed_ms`, `workers`) blanked, so reports from
/// runs with different worker counts or timings can be byte-compared.
fn run_report(args: &Args) -> Result<(), String> {
    match args.files.as_slice() {
        [action, path] if action == "normalize" => {
            print!("{}", bittrans::engine::report::normalize_run_shape(&read_source(path)?));
            Ok(())
        }
        _ => Err("usage: bittrans report normalize <report.json|->".to_string()),
    }
}

/// `cache prune`: one size/age eviction sweep over a cache directory.
fn run_cache(args: &Args) -> Result<(), String> {
    match args.files.as_slice() {
        [action] if action == "prune" => {}
        [other] => return Err(format!("unknown cache action `{other}` (expected `prune`)")),
        _ => {
            return Err("usage: bittrans cache prune --cache-dir DIR [--max-bytes N] \
                        [--max-age SECS] [--json]"
                .to_string())
        }
    }
    let Some(dir) = &args.cache_dir else {
        return Err("cache prune needs --cache-dir".into());
    };
    // Prune modifies an existing store; quietly creating an empty one
    // would turn a mistyped path into a silent no-op.
    if !Path::new(dir).is_dir() {
        return Err(format!("cache dir {dir}: not a directory"));
    }
    let engine =
        Engine::default().with_cache_dir(dir).map_err(|e| format!("cache dir {dir}: {e}"))?;
    let policy = PrunePolicy {
        max_bytes: args.max_bytes,
        max_age: args.max_age.map(std::time::Duration::from_secs),
    };
    let report = engine.prune_cache(policy).map_err(|e| e.to_string())?;
    if args.json {
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else {
        println!("{report}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Install the trace collector before any work runs.
    if let Some(path) = &args.trace_out {
        trace::install_file(path);
    } else {
        trace::install_from_env();
    }
    let result = run_command(&args);
    if let Err(e) = trace::flush() {
        eprintln!("warning: writing trace: {e}");
    }
    result
}

fn run_command(args: &Args) -> Result<(), String> {
    let mut options = CompareOptions::builder().adder_arch(args.adder);
    if let Some(vectors) = args.verify {
        options = options.verify_vectors(vectors);
    }
    let options = options.build().map_err(|e| e.to_string())?;
    match args.command.as_str() {
        "explore" => return run_explore(args, &options),
        "cache" => return run_cache(args),
        "serve" => return run_serve(args),
        "client" => return run_client(args, &options),
        "fuzz" => return run_fuzz(args),
        "report" => return run_report(args),
        command if args.json => {
            return Err(format!("--json is not supported by `{command}`"));
        }
        _ => {}
    }
    if args.files.len() > 1 {
        return Err(format!(
            "`{}` takes exactly one spec file ({} given); use `explore` for many",
            args.command,
            args.files.len()
        ));
    }
    let spec = read_spec(&args.files[0])?;
    match args.command.as_str() {
        "check" => {
            let stats = spec.stats();
            println!(
                "{}: {} operations ({} add, {} mul, {} other, {} glue), critical path {}δ",
                spec.name(),
                stats.total,
                stats.adds,
                stats.muls,
                stats.other,
                stats.glue,
                critical_path(&extract(&spec).map_err(|e| e.to_string())?),
            );
            Ok(())
        }
        "fragments" => {
            let latency = args.single_latency()?;
            let opt = optimize(&spec, latency, &options).map_err(|e| e.to_string())?;
            println!(
                "cycle {}δ (critical path {}δ / λ={})",
                opt.fragmented.cycle, opt.fragmented.critical_path, latency
            );
            for (source, ids) in &opt.fragmented.per_source {
                let desc: Vec<String> = ids
                    .iter()
                    .map(|id| {
                        let fi = &opt.fragmented.fragments[id];
                        format!("{} @[{}..{}]", fi.range, fi.asap, fi.alap)
                    })
                    .collect();
                println!("  {}: {}", opt.kernel.op(*source).label(), desc.join(", "));
            }
            println!("\nschedule:\n{}", opt.schedule.render(&opt.fragmented.spec));
            Ok(())
        }
        "optimize" => {
            let opt =
                optimize(&spec, args.single_latency()?, &options).map_err(|e| e.to_string())?;
            println!(
                "{}: cycle {}δ = {:.2} ns, execution {:.2} ns, area {}",
                spec.name(),
                opt.implementation.cycle_delta,
                opt.implementation.cycle_ns,
                opt.implementation.execution_ns,
                opt.implementation.area,
            );
            if args.netlist {
                println!("\n{}", opt.datapath.netlist(spec.name()).bill_of_materials());
            }
            if let Some(dir) = &args.emit_vhdl {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let beh = format!("{dir}/{}_transformed.vhd", spec.name());
                std::fs::write(&beh, bittrans::ir::vhdl::emit(&opt.fragmented.spec))
                    .map_err(|e| e.to_string())?;
                let st = format!("{dir}/{}_datapath.vhd", spec.name());
                std::fs::write(&st, opt.datapath.netlist(spec.name()).to_vhdl())
                    .map_err(|e| e.to_string())?;
                println!("wrote {beh} and {st}");
            }
            Ok(())
        }
        "compare" => {
            let cmp =
                compare(&spec, args.single_latency()?, &options).map_err(|e| e.to_string())?;
            println!(
                "{}",
                render_table1(&[("Conventional", &cmp.original), ("Optimized", &cmp.optimized),])
            );
            println!(
                "cycle saved {:.1} %, area {:+.1} %, operations {:+.0} %",
                cmp.cycle_saved_pct(),
                cmp.area_delta_pct(),
                cmp.op_growth_pct()
            );
            Ok(())
        }
        other => unreachable!("parse_args admits only COMMANDS, not `{other}`"),
    }
}
