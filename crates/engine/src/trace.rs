//! Zero-dependency observability: monotonic spans and events over the
//! whole engine, collected into one process-global buffer and sunk as
//! JSONL.
//!
//! The collector is off by default and costs one relaxed atomic load per
//! call site when disabled — no allocation, no clock read, no lock. When
//! enabled (CLI `--trace-out FILE`, the `BITTRANS_TRACE` environment
//! variable, or [`install_memory`] in tests), every span and event
//! becomes one line of JSON:
//!
//! ```json
//! {"seq":12,"ts_ns":80211,"kind":"span","name":"exec.task","id":5,"parent":2,"dur_ns":73000,"slot":3,"group":1,"queue_ns":1200}
//! {"seq":13,"ts_ns":81090,"kind":"event","name":"job","parent":2,"key":"8c…","provenance":"computed"}
//! ```
//!
//! * `seq` — a process-wide emission counter; sorting by `seq` is the
//!   canonical order and `ts_ns` is non-decreasing along it.
//! * `ts_ns` — nanoseconds on the monotonic clock since the collector's
//!   first installation (never the wall clock, so lines never go
//!   backwards across NTP steps).
//! * spans carry a stable `id` (unique per process), their `parent`
//!   span id (`0` = root) and `dur_ns`; events carry `parent` only.
//! * everything after the fixed fields is call-site attributes.
//!
//! Spans parent through a thread-local stack; [`current_span_id`] plus
//! [`span_under`] carry the chain across thread boundaries (the engine
//! captures the caller's span before handing jobs to its pool). A span
//! line is emitted exactly once, when its guard drops.
//!
//! [`flush`] rewrites the sink file from the full buffer via the same
//! hidden-temp-file + atomic-rename idiom as the persistent cache
//! (`persist.rs`), so a reader never observes a torn trace. [`diag`]
//! mirrors legacy diagnostics to stderr verbatim while also recording
//! them as events, and [`stderr_log`] emits structured one-line JSON
//! logs (always on stderr, mirrored into the trace when enabled) for the
//! `serve` front end.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The `provenance` values of a `job` event that count as cache hits:
/// resident in memory, loaded from the store, an in-call duplicate, or a
/// join of another call's in-flight computation. The only other value,
/// `computed`, is one cache miss — so a trace's `job` events reconcile
/// exactly with the run's hit/miss counters.
pub const HIT_PROVENANCES: [&str; 4] = ["memory", "disk", "duplicate", "in-flight"];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTOR: Mutex<Collector> =
    Mutex::new(Collector { seq: 0, last_ns: 0, lines: Vec::new() });
static SINK: Mutex<Sink> = Mutex::new(Sink::Off);

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The emitted lines with their sequence/timestamp allocator. One lock
/// serializes stamping and buffering, which is what makes `ts_ns`
/// monotone along `seq`, and the buffer `seq`-ordered, by construction.
struct Collector {
    seq: u64,
    last_ns: u64,
    lines: Vec<String>,
}

fn collector() -> std::sync::MutexGuard<'static, Collector> {
    COLLECTOR.lock().expect("trace collector lock")
}

/// Where flushed lines go.
#[derive(Clone)]
enum Sink {
    /// No collector installed.
    Off,
    /// Lines stay in the buffer until [`drain`] (the tests that reconcile
    /// trace events with engine statistics).
    Memory,
    /// [`flush`] rewrites this file atomically from the full buffer.
    File(PathBuf),
}

/// Whether a collector is installed. One relaxed load — the whole cost
/// of every instrumentation point in a disabled build.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the collector with a JSONL file sink. [`flush`] (or process
/// shutdown in the CLI) writes the file; nothing touches the disk before
/// that.
pub fn install_file(path: impl Into<PathBuf>) {
    install(Sink::File(path.into()));
}

/// Installs the collector with an in-memory sink; [`drain`] returns the
/// collected lines.
pub fn install_memory() {
    install(Sink::Memory);
}

/// Installs a file sink from the `BITTRANS_TRACE` environment variable.
/// Returns whether a collector was installed.
pub fn install_from_env() -> bool {
    match std::env::var("BITTRANS_TRACE") {
        Ok(path) if !path.is_empty() => {
            install_file(path);
            true
        }
        _ => false,
    }
}

fn install(sink: Sink) {
    let _ = EPOCH.get_or_init(Instant::now);
    clear_buffers();
    *SINK.lock().expect("trace sink lock") = sink;
    // The core pipeline cannot depend on this crate, so it exposes a
    // stage-observer hook instead; registering it here is what turns
    // per-stage timings into child spans.
    bittrans_core::stage::set_observer(stage);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables the collector, unregisters the core stage observer and
/// discards any unflushed lines.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    bittrans_core::stage::clear_observer();
    *SINK.lock().expect("trace sink lock") = Sink::Off;
    clear_buffers();
}

fn clear_buffers() {
    collector().lines.clear();
}

/// Rewrites the file sink from the full buffer (temp file + atomic
/// rename, the `persist.rs` idiom). Returns the path written, or `None`
/// for a memory/absent sink. Lines stay buffered, so repeated flushes
/// are cumulative rewrites, and a crash between flushes loses only the
/// tail.
///
/// # Errors
///
/// I/O errors writing or renaming the temp file.
pub fn flush() -> io::Result<Option<PathBuf>> {
    let sink = SINK.lock().expect("trace sink lock").clone();
    let Sink::File(path) = sink else { return Ok(None) };
    let mut text = String::new();
    for line in &collector().lines {
        text.push_str(line);
        text.push('\n');
    }
    // Temp name carries pid + serial so concurrent flushes (or two
    // processes pointed at one file) never interleave into one temp.
    static FLUSH: AtomicU64 = AtomicU64::new(0);
    let serial = FLUSH.fetch_add(1, Ordering::Relaxed);
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(".{name}.{}-{serial}.tmp", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path)?;
    Ok(Some(path))
}

/// Takes every buffered line (canonical order) out of the collector.
/// The usual read path for a memory sink.
pub fn drain() -> Vec<String> {
    std::mem::take(&mut collector().lines)
}

/// Stamps and buffers one line: allocates the next (seq, ts_ns) pair with
/// the monotone clamp, and `render` receives it and appends the full JSON
/// object, all under the one lock.
fn emit(render: impl FnOnce(u64, u64, &mut String)) {
    let now_ns =
        u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut collector = collector();
    collector.seq += 1;
    collector.last_ns = collector.last_ns.max(now_ns);
    let mut line = String::with_capacity(96);
    render(collector.seq, collector.last_ns, &mut line);
    collector.lines.push(line);
}

/// Appends `s` to `out` with JSON string escaping.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Call-site attributes appended to a span or event line. Keys must be
/// plain identifiers (they are written unescaped); values are escaped.
#[derive(Default)]
pub struct Attrs {
    buf: String,
}

impl Attrs {
    /// Adds a string attribute.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":\"");
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer attribute.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.buf, ",\"{key}\":{value}");
        self
    }

    /// Adds a float attribute (`null` if not finite — JSON has no NaN).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            let _ = write!(self.buf, ",\"{key}\":{value:?}");
        } else {
            let _ = write!(self.buf, ",\"{key}\":null");
        }
        self
    }

    /// Adds a boolean attribute.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        let _ = write!(self.buf, ",\"{key}\":{value}");
        self
    }
}

/// An open span. Emits exactly one `"kind":"span"` line when dropped;
/// a span obtained while the collector is disabled is inert (no clock
/// read, no allocation, nothing on drop).
pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    started: Option<Instant>,
    attrs: String,
}

impl Span {
    /// This span's id, for parenting work on other threads
    /// ([`span_under`]). `0` when the collector is disabled.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Appends attributes known only once the span's work is done; the
    /// closure runs only when the span is live (collector enabled).
    pub fn record(&mut self, f: impl FnOnce(&mut Attrs)) {
        if self.started.is_none() {
            return;
        }
        let mut attrs = Attrs { buf: std::mem::take(&mut self.attrs) };
        f(&mut attrs);
        self.attrs = attrs.buf;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let attrs = std::mem::take(&mut self.attrs);
        let (name, id, parent) = (self.name, self.id, self.parent);
        emit(|seq, ts_ns, out| {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"span\",\"name\":\"{name}\",\
                 \"id\":{id},\"parent\":{parent},\"dur_ns\":{dur_ns}{attrs}}}"
            );
        });
    }
}

fn open_span(name: &'static str, parent: Option<u64>, f: impl FnOnce(&mut Attrs)) -> Span {
    if !enabled() {
        return Span { name, id: 0, parent: 0, started: None, attrs: String::new() };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = parent.unwrap_or_else(current_span_id);
    STACK.with(|stack| stack.borrow_mut().push(id));
    let mut attrs = Attrs::default();
    f(&mut attrs);
    Span { name, id, parent, started: Some(Instant::now()), attrs: attrs.buf }
}

/// Opens a span parented to the innermost open span on this thread.
pub fn span(name: &'static str) -> Span {
    open_span(name, None, |_| {})
}

/// Opens a span with attributes; the closure runs only when the
/// collector is enabled, so attribute formatting is free when disabled.
pub fn span_attrs(name: &'static str, f: impl FnOnce(&mut Attrs)) -> Span {
    open_span(name, None, f)
}

/// Opens a span under an explicit parent id — the cross-thread form.
/// Capture [`current_span_id`] before spawning, pass it here inside the
/// worker.
pub fn span_under(parent: u64, name: &'static str, f: impl FnOnce(&mut Attrs)) -> Span {
    open_span(name, Some(parent), f)
}

/// The innermost open span id on this thread (`0` = root).
pub fn current_span_id() -> u64 {
    STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0))
}

/// Records one `"kind":"event"` line parented to the innermost open
/// span. The attribute closure runs only when the collector is enabled.
pub fn event(name: &'static str, f: impl FnOnce(&mut Attrs)) {
    if !enabled() {
        return;
    }
    let mut attrs = Attrs::default();
    f(&mut attrs);
    let parent = current_span_id();
    let buf = attrs.buf;
    emit(|seq, ts_ns, out| {
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"event\",\"name\":\"{name}\",\
             \"parent\":{parent}{buf}}}"
        );
    });
}

/// Records a completed child span of the innermost open span — the shape
/// the core pipeline's stage observer reports, where the work already
/// happened and only its duration is known. The line carries
/// `"name":"stage.<name>"` and a freshly allocated span id.
pub fn stage(name: &'static str, dur: Duration) {
    if !enabled() {
        return;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = current_span_id();
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    emit(|seq, ts_ns, out| {
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"span\",\"name\":\"stage.{name}\",\
             \"id\":{id},\"parent\":{parent},\"dur_ns\":{dur_ns}}}"
        );
    });
}

/// A legacy diagnostic: printed to stderr verbatim (several of these
/// lines are part of the CLI's tested interface) and recorded as a
/// `diag` event when the collector is enabled.
pub fn diag(text: &str) {
    eprintln!("{text}");
    event("diag", |a| {
        a.str("text", text);
    });
}

/// A structured one-line JSON log: always printed to stderr as
/// `{"log":"<stream>","event":"<event>",…attrs}` and recorded as a trace
/// event when the collector is enabled. The `serve` front end's request
/// lifecycle logs use this so diagnostics never pollute `--json` stdout
/// streams yet stay machine-parseable.
pub fn stderr_log(stream: &'static str, log_event: &'static str, f: impl FnOnce(&mut Attrs)) {
    let mut attrs = Attrs::default();
    f(&mut attrs);
    eprintln!("{{\"log\":\"{stream}\",\"event\":\"{log_event}\"{}}}", attrs.buf);
    if enabled() {
        let buf = attrs.buf;
        let parent = current_span_id();
        emit(|seq, ts_ns, out| {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"event\",\
                 \"name\":\"{stream}.{log_event}\",\"parent\":{parent}{buf}}}"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; unit tests here and integration
    // tests elsewhere each take this lock (or their own) around install/
    // uninstall. Poisoning is irrelevant — the state is reset on entry.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn escaping_produces_valid_json_strings() {
        let _guard = locked();
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn disabled_spans_and_events_emit_nothing() {
        let _guard = locked();
        uninstall();
        {
            let _span = span("quiet");
            event("nothing", |a| {
                a.num("x", 1);
            });
        }
        install_memory();
        assert!(drain().is_empty(), "lines emitted while disabled must not appear");
        uninstall();
    }

    #[test]
    fn spans_nest_and_parent_through_the_thread_stack() {
        let _guard = locked();
        install_memory();
        {
            let outer = span("outer");
            assert_eq!(current_span_id(), outer.id());
            {
                let _inner = span("inner");
                event("mark", |a| {
                    a.str("note", "inside");
                });
            }
            assert_eq!(current_span_id(), outer.id());
        }
        assert_eq!(current_span_id(), 0);
        let own = ["\"outer\"", "\"inner\"", "\"mark\""];
        let lines: Vec<String> =
            drain().into_iter().filter(|l| own.iter().any(|name| l.contains(name))).collect();
        uninstall();
        assert_eq!(lines.len(), 3);
        // Drop order: mark event, inner span, outer span.
        let parsed: Vec<serde_json::Value> =
            lines.iter().map(|l| serde_json::from_str(l).expect("valid JSON")).collect();
        let outer = parsed[2].get("id").and_then(serde_json::Value::as_u64).unwrap();
        let inner = parsed[1].get("id").and_then(serde_json::Value::as_u64).unwrap();
        assert_eq!(parsed[1].get("parent").and_then(serde_json::Value::as_u64), Some(outer));
        assert_eq!(parsed[0].get("parent").and_then(serde_json::Value::as_u64), Some(inner));
        assert_eq!(parsed[0].get("note").and_then(serde_json::Value::as_str), Some("inside"));
    }

    #[test]
    fn flush_writes_the_file_atomically_and_cumulatively() {
        let _guard = locked();
        let dir = std::env::temp_dir().join(format!("bittrans_trace_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        install_file(&path);
        event("first", |_| {});
        flush().unwrap();
        event("second", |_| {});
        flush().unwrap();
        uninstall();
        let text = std::fs::read_to_string(&path).unwrap();
        // Other unit tests of this crate emit engine events concurrently
        // while the collector is installed; count only this test's own.
        let lines: Vec<&str> =
            text.lines().filter(|l| l.contains("\"first\"") || l.contains("\"second\"")).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"first\""));
        assert!(lines[1].contains("\"second\""));
        // No temp droppings.
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn stamps_are_monotone_under_contention() {
        let _guard = locked();
        install_memory();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50u64 {
                        event("tick", |a| {
                            a.num("i", i);
                        });
                    }
                });
            }
        });
        // Only this test's own events: concurrently running unit tests may
        // emit into the installed collector too.
        let lines: Vec<String> =
            drain().into_iter().filter(|l| l.contains("\"name\":\"tick\"")).collect();
        uninstall();
        assert_eq!(lines.len(), 200);
        let mut last_seq = 0;
        let mut last_ts = 0;
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            let seq = v.get("seq").and_then(serde_json::Value::as_u64).unwrap();
            let ts = v.get("ts_ns").and_then(serde_json::Value::as_u64).unwrap();
            assert!(seq > last_seq, "seq must strictly increase: {line}");
            assert!(ts >= last_ts, "ts_ns must be monotone: {line}");
            last_seq = seq;
            last_ts = ts;
        }
    }
}
