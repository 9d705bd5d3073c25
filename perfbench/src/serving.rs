//! The `serve_mixed` workload: two closed-loop clients (each sends its
//! next request when the last reply arrives) against one in-process
//! `Server` with two workers and a store. Nine requests in ten are one of
//! the Table II studies, answered from the warm cache; one in ten is a
//! study over a random spec the server has not seen, sent as canonical
//! text, which it computes and writes to the store. Little pipeline work
//! runs, so the round trip mostly measures `serve` and `proto`.

use crate::check::{cells_text, read_expected, write_expected};
use crate::fleet::{Endpoint, TIMEOUT};
use crate::layers::{engine_options, probe_engine, replay_stages, WORKERS};
use crate::spans::Recorder;
use crate::stats::{digest, median, ms, pct, percentile, Rng, MIN_SAMPLES_P95};
use crate::{Ctx, Outcome};
use bittrans_benchmarks::{random_spec, table2_benchmarks, RandomSpecOptions};
use bittrans_engine::shard::ShardedStudy;
use bittrans_engine::{proto, Engine, EngineStats, Study};
use bittrans_ir::Spec;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// A timed run sends at least this many requests, so its p95 has ten
/// samples beyond it, and at most `MAX_REQUESTS`.
const MIN_REQUESTS: usize = MIN_SAMPLES_P95 + 10;
const MAX_REQUESTS: usize = 4000;
/// One request in `COLD_EVERY` is cold.
const COLD_EVERY: u64 = 10;
/// Cold specs are `random_spec(COLD_BASE + i)` for `i < COLD_POOL`; a run
/// starts at a seeded index and never repeats one.
const COLD_BASE: u64 = 10_000;
const COLD_POOL: u64 = (MAX_REQUESTS as u64 / COLD_EVERY) + 112;
const COLD_LATENCIES: [u32; 3] = [2, 3, 4];
const SETUP_REPS: usize = 3;
const TRACED_REQUESTS: usize = MIN_REQUESTS;
/// Extra connections the traced run times, for a steadier median.
const CONNECT_PROBES: usize = 10;
const WARM_EXPECTED: &str = "serve_warm.jsonl";
const COLD_EXPECTED: &str = "serve_cold.txt";

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Req {
    /// One of the Table II studies, by index.
    Warm(usize),
    /// The random-spec study of pool index `i`.
    Cold(u64),
}

fn study_body(spec: &Spec, latencies: &[u32]) -> String {
    let source = serde_json::to_string(&spec.to_canonical()).expect("string serializes");
    format!("{{\"sources\": [{source}], \"latencies\": {latencies:?}}}")
}

fn warm_bodies() -> Vec<String> {
    table2_benchmarks().iter().map(|b| study_body(&b.spec, &b.latencies)).collect()
}

fn cold_body(index: u64) -> String {
    study_body(&random_spec(COLD_BASE + index, &RandomSpecOptions::default()), &COLD_LATENCIES)
}

/// The first `n` requests of the run seeded `seed`: in every block of
/// `COLD_EVERY`, one cold request at a seeded position.
fn schedule(seed: u64, n: usize, warm: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let mut next_cold = rng.below(COLD_POOL);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let cold_at = rng.below(COLD_EVERY);
        for slot in 0..COLD_EVERY {
            if slot == cold_at {
                out.push(Req::Cold(next_cold));
                next_cold = (next_cold + 1) % COLD_POOL;
            } else {
                out.push(Req::Warm(rng.below(warm as u64) as usize));
            }
        }
    }
    out.truncate(n);
    out
}

/// A study body turned back into the `Study` the server runs for it.
fn body_study(body: &str) -> Result<Study, String> {
    let value = serde_json::from_str(body).map_err(|e| format!("{e:?}"))?;
    ShardedStudy::from_value(&value).and_then(|s| s.study()).map_err(|e| e.to_string())
}

/// The traffic of one run and the replies it expects.
struct Mix {
    schedule: Vec<Req>,
    warm: Vec<String>,
    cold: BTreeMap<u64, String>,
    /// Expected cells per warm study.
    warm_expected: Vec<String>,
    /// Expected (cell count, cells digest) per cold pool index.
    cold_expected: Vec<(usize, String)>,
}

impl Mix {
    fn new(seed: u64, n: usize) -> Result<Mix, String> {
        let warm = warm_bodies();
        let schedule = schedule(seed, n, warm.len());
        let cold = schedule
            .iter()
            .filter_map(|r| match *r {
                Req::Cold(i) => Some((i, cold_body(i))),
                Req::Warm(_) => None,
            })
            .collect();
        let warm_expected = read_expected(WARM_EXPECTED)?
            .lines()
            .map(|line| {
                cells_text(line).ok_or_else(|| format!("{WARM_EXPECTED}: a line holds no report"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if warm_expected.len() != warm.len() {
            return Err(format!(
                "{WARM_EXPECTED} has {} studies, expected {}",
                warm_expected.len(),
                warm.len()
            ));
        }
        let cold_expected = read_expected(COLD_EXPECTED)?
            .lines()
            .map(|line| {
                let mut fields = line.split_whitespace().skip(1);
                let cells = fields.next().and_then(|c| c.parse().ok());
                cells
                    .zip(fields.next().map(str::to_string))
                    .ok_or_else(|| format!("{COLD_EXPECTED}: bad line `{line}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if cold_expected.len() as u64 != COLD_POOL {
            return Err(format!(
                "{COLD_EXPECTED} has {} specs, expected {COLD_POOL}",
                cold_expected.len()
            ));
        }
        Ok(Mix { schedule, warm, cold, warm_expected, cold_expected })
    }

    fn body(&self, req: Req) -> &str {
        match req {
            Req::Warm(k) => &self.warm[k],
            Req::Cold(i) => &self.cold[&i],
        }
    }

    /// Checks one reply against the expected cells.
    fn inspect(&self, req: Req, reply: &str, rtt: Duration) -> Sample {
        let mut sample = Sample {
            cold: matches!(req, Req::Cold(_)),
            rtt_ms: ms(rtt),
            bytes: reply.len(),
            ..Sample::default()
        };
        let Some(report) = proto::report_slice(reply).filter(|_| reply.starts_with("{\"ok\":true"))
        else {
            return sample;
        };
        let stats = report
            .rfind(",\"stats\":")
            .and_then(|at| report.get(at + ",\"stats\":".len()..report.len() - 1))
            .and_then(|text| serde_json::from_str(text).ok());
        let number =
            |field: &str| stats.as_ref().and_then(|s: &Value| s.get(field)).and_then(Value::as_f64);
        let (Some(jobs), Some(hits), Some(engine_ms)) =
            (number("jobs"), number("cache_hits"), number("elapsed_ms"))
        else {
            return sample;
        };
        (sample.jobs, sample.hits, sample.engine_ms) = (jobs, hits, engine_ms);
        let Some(cells) = cells_text(report) else { return sample };
        let (matches, count) = match req {
            Req::Warm(k) => (
                cells == self.warm_expected[k],
                self.warm_expected[k].matches("{\"spec\":").count(),
            ),
            Req::Cold(i) => {
                let (count, want) = &self.cold_expected[i as usize];
                (digest(&cells) == *want, *count)
            }
        };
        sample.ok = matches;
        sample.cells = if matches { count } else { 0 };
        sample
    }
}

#[derive(Clone, Debug, Default)]
struct Sample {
    cold: bool,
    ok: bool,
    rtt_ms: f64,
    engine_ms: f64,
    cells: usize,
    bytes: usize,
    jobs: f64,
    hits: f64,
}

#[derive(Clone, Copy)]
enum Stop {
    /// At least `MIN_REQUESTS` and for at least this long.
    Timed(f64),
    /// Exactly this many requests.
    Count(usize),
}

struct Session {
    samples: Vec<Sample>,
    wall: Duration,
    connect_ms: Vec<f64>,
}

/// Runs the closed-loop clients against `addr` until `stop`.
fn session(mix: &Mix, addr: &str, stop: Stop, rec: &Recorder, parent: u64) -> Session {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let connects = Mutex::new(Vec::new());
    let started = Instant::now();
    let done = |i: usize| match stop {
        Stop::Timed(seconds) => {
            i >= MAX_REQUESTS || (i >= MIN_REQUESTS && started.elapsed().as_secs_f64() >= seconds)
        }
        Stop::Count(n) => i >= n.min(MAX_REQUESTS),
    };
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                rec.time("serve.client", parent, |client_span| {
                    let connect = || {
                        rec.time("proto.connect", client_span, |_| {
                            proto::LineClient::connect(addr, TIMEOUT)
                        })
                    };
                    let (mut client, took) = connect();
                    connects.lock().expect("connect list lock").push(ms(took));
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if done(i) {
                            break;
                        }
                        let req = mix.schedule[i];
                        let (mut sample, broken) = match client.as_mut() {
                            Ok(live) => match rec
                                .time("serve.request", client_span, |_| live.request(mix.body(req)))
                            {
                                (Ok(line), rtt) => (mix.inspect(req, &line, rtt), false),
                                (Err(_), _) => (Sample::default(), true),
                            },
                            Err(_) => (Sample::default(), true),
                        };
                        if broken {
                            client = connect().0;
                        }
                        if !sample.ok {
                            // A failed or refused request misses any
                            // latency limit.
                            sample.rtt_ms = ms(TIMEOUT);
                        }
                        samples.lock().expect("sample list lock").push(sample);
                    }
                });
            });
        }
    });
    Session {
        samples: samples.into_inner().expect("sample list lock"),
        wall: started.elapsed(),
        connect_ms: connects.into_inner().expect("connect list lock"),
    }
}

/// A server with two workers on a fresh store, warmed with every Table II
/// study.
fn start_server(mix: &Mix, store: &Path) -> Result<Endpoint, String> {
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| e.to_string())?;
    }
    let server = Endpoint::start(WORKERS, store).map_err(|e| e.to_string())?;
    let mut client =
        proto::LineClient::connect(&server.addr, TIMEOUT).map_err(|e| e.to_string())?;
    for (k, body) in mix.warm.iter().enumerate() {
        let reply = client.request(body).map_err(|e| e.to_string())?;
        if !mix.inspect(Req::Warm(k), &reply, Duration::ZERO).ok {
            return Err(format!("warm-up study {k} answered unexpectedly: {reply}"));
        }
    }
    Ok(server)
}

/// Builds the traffic and a warm server `SETUP_REPS` times (stopping all
/// but the last server); returns the last and the median time.
fn setup(ctx: &Ctx, requests: usize) -> Result<(Mix, Endpoint, f64), String> {
    let store: PathBuf = ctx.work.join("store");
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let mix = Mix::new(ctx.seed, requests)?;
        let server = start_server(&mix, &store)?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((mix, server, median(&times)));
        }
        server.stop().map_err(|e| e.to_string())?;
    }
    unreachable!("SETUP_REPS > 0")
}

fn tally(session: &Session) -> (u64, u64) {
    (session.samples.len() as u64, session.samples.iter().filter(|s| !s.ok).count() as u64)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.traced() {
        return traced(ctx);
    }
    let (mix, server, setup_s) = setup(ctx, MAX_REQUESTS)?;
    let session = session(&mix, &server.addr, Stop::Timed(ctx.seconds), &ctx.rec, 0);
    server.stop().map_err(|e| e.to_string())?;

    let mut outcome = Outcome::default();
    outcome.tally(tally(&session));
    let rtts: Vec<f64> = session.samples.iter().map(|s| s.rtt_ms).collect();
    let cells: usize = session.samples.iter().map(|s| s.cells).sum();
    let metrics = &mut outcome.metrics;
    metrics.insert("setup_s".into(), setup_s);
    metrics.insert("cells_per_s".into(), cells as f64 / session.wall.as_secs_f64());
    metrics.insert("latency_p50_ms".into(), percentile(&rtts, 50.0).ok_or("too few requests")?);
    metrics.insert("latency_p95_ms".into(), percentile(&rtts, 95.0).ok_or("too few requests")?);
    Ok(outcome)
}

fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (mix, server, _) = setup(ctx, TRACED_REQUESTS)?;
    server.stop().map_err(|e| e.to_string())?;
    let store = ctx.work.join("store");
    // Each session gets a fresh warm server, so its cold requests are cold.
    let counted = |rec: &Recorder, parent: u64| -> Result<(Session, Vec<f64>), String> {
        let server = start_server(&mix, &store)?;
        let session = session(&mix, &server.addr, Stop::Count(TRACED_REQUESTS), rec, parent);
        let mut connects = session.connect_ms.clone();
        for _ in 0..CONNECT_PROBES {
            let (client, took) = rec.time("proto.connect", parent, |_| {
                proto::LineClient::connect(&server.addr, TIMEOUT)
            });
            client.map_err(|e| e.to_string())?;
            connects.push(ms(took));
        }
        server.stop().map_err(|e| e.to_string())?;
        Ok((session, connects))
    };
    let off = Recorder::new("serve_mixed", false);
    let mut untraced = Vec::new();
    let (before, _) = counted(&off, 0)?;
    untraced.push(ms(before.wall));
    outcome.tally(tally(&before));

    let rec = &ctx.rec;
    let metrics = &mut outcome.metrics;
    let (traced, _) = rec.time("serve_mixed", 0, |root| -> Result<Session, String> {
        let (traced, connects) = counted(rec, root)?;
        let samples = &traced.samples;
        let engine: Vec<f64> = samples.iter().map(|s| s.engine_ms).collect();
        let cold_engine: Vec<f64> =
            samples.iter().filter(|s| s.cold).map(|s| s.engine_ms).collect();
        let overhead: Vec<f64> = samples.iter().map(|s| s.rtt_ms - s.engine_ms).collect();
        let bytes: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
        let (jobs, hits) = samples.iter().fold((0.0, 0.0), |(j, h), s| (j + s.jobs, h + s.hits));
        metrics.insert("engine.serve.engine_ms_p50".into(), median(&engine));
        metrics.insert("engine.serve.overhead_ms_p50".into(), median(&overhead));
        metrics.insert(
            "engine.serve.overhead_ms_p95".into(),
            percentile(&overhead, 95.0).ok_or("too few requests")?,
        );
        metrics.insert("engine.serve.cold_engine_ms_p50".into(), median(&cold_engine));
        metrics.insert("engine.proto.connect_ms".into(), median(&connects));
        metrics.insert("engine.serve.reply_bytes".into(), median(&bytes));
        metrics.insert("engine.cache.hit_pct".into(), pct(hits, jobs));

        // The engine-level layers over the distinct studies the session sent.
        let sent: BTreeSet<Req> = mix.schedule.iter().copied().collect();
        let studies =
            sent.iter().map(|&req| body_study(mix.body(req))).collect::<Result<Vec<Study>, _>>()?;
        let run_all = |engine: &Engine| {
            EngineStats::merged(&studies.iter().map(|s| s.run(engine).stats).collect::<Vec<_>>())
        };
        probe_engine(rec, root, &ctx.work, &run_all, metrics).map_err(|e| e.to_string())?;
        let jobs: Vec<_> = studies.iter().flat_map(Study::distinct_jobs).collect();
        replay_stages(&jobs, rec, root, metrics);
        Ok(traced)
    });
    let traced = traced?;
    outcome.tally(tally(&traced));
    let (after, _) = counted(&off, 0)?;
    untraced.push(ms(after.wall));
    outcome.tally(tally(&after));
    outcome.record_overhead(ms(traced.wall), &untraced);
    Ok(outcome)
}

/// Rewrites the serve reference reports: each Table II study's
/// normalized report, and per cold pool index the cell count and digest.
pub fn regenerate() -> Result<(), String> {
    let engine = || Engine::new(engine_options());
    let checked = |body: &str| -> Result<String, String> {
        let report = body_study(body)?.run(&engine());
        if report
            .cells
            .iter()
            .any(|c| c.result.as_ref().as_ref().is_err_and(|e| !e.is_infeasible()))
        {
            return Err(format!("refusing to record a failed cell of {body}"));
        }
        Ok(report.normalized().to_json())
    };
    let mut warm = String::new();
    for body in warm_bodies() {
        warm.push_str(&checked(&body)?);
        warm.push('\n');
    }
    let mut cold = String::new();
    for index in 0..COLD_POOL {
        let cells = cells_text(&checked(&cold_body(index))?).ok_or("report without cells")?;
        cold.push_str(&format!(
            "{index} {} {}\n",
            cells.matches("{\"spec\":").count(),
            digest(&cells)
        ));
    }
    write_expected(WARM_EXPECTED, &warm)?;
    write_expected(COLD_EXPECTED, &cold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_in_ten_is_cold_and_cold_specs_never_repeat() {
        let plan = schedule(42, 400, 4);
        assert_eq!(plan, schedule(42, 400, 4), "the seed fixes the traffic");
        assert_ne!(plan, schedule(43, 400, 4));
        for block in plan.chunks(COLD_EVERY as usize) {
            assert_eq!(block.iter().filter(|r| matches!(r, Req::Cold(_))).count(), 1);
        }
        let cold: BTreeSet<u64> = plan
            .iter()
            .filter_map(|r| if let Req::Cold(i) = r { Some(*i) } else { None })
            .collect();
        assert_eq!(cold.len(), 40);
        assert!(COLD_POOL >= MAX_REQUESTS as u64 / COLD_EVERY, "a run never reuses a cold spec");
    }

    #[test]
    fn a_wrong_reply_is_a_failed_request() {
        let cells = "[{\"spec\":\"fir2\",\"from_cache\":false,\"ok\":true}]";
        let mix = Mix {
            schedule: vec![Req::Warm(0)],
            warm: vec![String::new()],
            cold: BTreeMap::new(),
            warm_expected: vec![cells.to_string()],
            cold_expected: Vec::new(),
        };
        let reply = |cells: &str| {
            format!(
                "{{\"ok\":true,\"service\":{{}},\"report\":{{\"cells\":{cells},\"stats\":{{\"jobs\":1,\
                 \"cache_hits\":1,\"elapsed_ms\":0.5}}}}}}"
            )
        };
        let good = mix.inspect(Req::Warm(0), &reply(cells), Duration::from_millis(2));
        assert!(good.ok && good.cells == 1 && good.engine_ms == 0.5, "{good:?}");
        let wrong =
            mix.inspect(Req::Warm(0), &reply(&cells.replace("fir2", "iir4")), Duration::ZERO);
        assert!(!wrong.ok && wrong.cells == 0, "a reply with other cells fails");
        let refused =
            mix.inspect(Req::Warm(0), "{\"ok\":false,\"error\":\"busy\"}", Duration::ZERO);
        assert!(!refused.ok, "a refused request fails");
    }
}
