//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, kept in memory and written as JSONL when the run ends.
//!
//! Spans are recorded only in a traced run (`--trace 1`); a timed run
//! gets the same timings back from [`Recorder::time`] without recording
//! anything, so its numbers carry no tracing cost.

use crate::stats::{nearest_rank, pct};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    workload: &'static str,
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(workload: &'static str, enabled: bool) -> Recorder {
        Recorder {
            workload,
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent` and returns its
    /// result with the wall time it took. `f` receives the new span's id,
    /// the parent for spans it opens.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let started = Instant::now();
        let result = f(id);
        let ended = Instant::now();
        if self.enabled {
            let since =
                |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
            let span = Span { id, parent, name, start_ns: since(started), end_ns: since(ended) };
            self.spans.lock().expect("span list lock").push(span);
        }
        (result, ended - started)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"workload\":\"{}\"}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, self.workload
            );
        }
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Default)]
pub struct NameSummary {
    pub count: u64,
    pub total_ms: f64,
    /// Total minus the time covered by direct children.
    pub self_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Self time as a share of all root spans' wall time.
    pub share_pct: f64,
}

/// Per-name summary of `spans`. A span's self time is its duration minus
/// the union of its direct children's intervals, so children that ran in
/// parallel are not subtracted twice.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let root_ns: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_ns(c));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ms += s.dur_ns() as f64 / 1e6;
        entry.self_ms += s.dur_ns().saturating_sub(covered) as f64 / 1e6;
        durations.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
    }
    for (name, entry) in &mut out {
        let d = &durations[name];
        entry.p50_ms = nearest_rank(d, 50.0);
        entry.p99_ms = nearest_rank(d, 99.0);
        entry.share_pct = pct(entry.self_ms, root_ns as f64 / 1e6);
    }
    out
}

/// Total length of the union of `intervals`.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The summary as an aligned text table.
pub fn render(summary: &BTreeMap<&'static str, NameSummary>) -> String {
    let mut out = format!(
        "{:<28}{:>8}{:>12}{:>12}{:>10}{:>10}{:>8}\n",
        "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms", "share"
    );
    for (name, s) in summary {
        let _ = writeln!(
            out,
            "{name:<28}{:>8}{:>12.1}{:>12.1}{:>10.3}{:>10.3}{:>7.1}%",
            s.count, s.total_ms, s.self_ms, s.p50_ms, s.p99_ms, s.share_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 10_000_000),
            // Two overlapping children cover 2..7 ms: 5 ms, not 6.
            span(2, 1, "child", 2_000_000, 5_000_000),
            span(3, 1, "child", 4_000_000, 7_000_000),
        ];
        let summary = summarize(&spans);
        assert!((summary["root"].self_ms - 5.0).abs() < 1e-9);
        assert!((summary["child"].total_ms - 6.0).abs() < 1e-9);
        assert_eq!(summary["child"].count, 2);
        assert!((summary["child"].share_pct - 60.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let rec = Recorder::new("test", false);
        let (value, _) = rec.time("x", 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(value, 7);
        assert!(rec.spans().is_empty());
        let rec = Recorder::new("test", true);
        rec.time("outer", 0, |id| rec.time("inner", id, |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.name == "inner").map(|s| s.parent), Some(spans[0].id));
        assert!(rec.to_jsonl().lines().all(|l| l.contains("\"workload\":\"test\"")));
    }
}
