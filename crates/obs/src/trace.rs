//! Lightweight structured tracing.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** `span(name)` is one relaxed
//!    `AtomicBool` load; the returned [`Span`] is inert (no `Instant`
//!    read, no allocation, `Drop` is a no-op). The engine hot path — a
//!    span per pool wave — must stay within measurement noise of the
//!    PR-4 baseline when tracing is off (see the `morsel_waves` sentinel
//!    in `crates/bench`).
//! 2. **Query-scoped correlation.** A thread-local current query id is
//!    installed by [`QueryIdScope`] at query entry; every span opened on
//!    that thread while the guard lives inherits the id. Pool workers
//!    executing on behalf of a query can propagate the id explicitly via
//!    [`current_query_id`] + [`QueryIdScope::enter`].
//! 3. **Pluggable sinks.** Finished spans always land in a bounded
//!    in-memory ring buffer (cheap post-hoc inspection, powers tests) and
//!    optionally stream to a buffered JSONL file (one object per line) for
//!    offline workload analysis; the file is complete once the sink is
//!    detached or replaced, or tracing is disabled.
//!
//! This is deliberately *not* a general tracing framework: no span
//! parents, no levels, no fields beyond a static name + optional detail
//! string. The engine needs "what happened, for which query, how long" —
//! anything richer belongs in the metrics registry or the slow-query log.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Maximum number of finished spans retained in the in-memory ring.
const RING_CAP: usize = 4096;

/// A finished span, as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"execute"`, `"wal_fsync"`).
    pub name: &'static str,
    /// Query id active when the span was opened; 0 = none.
    pub query_id: u64,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Optional free-form detail (e.g. SQL text, byte counts).
    pub detail: Option<String>,
}

struct TracerState {
    ring: VecDeque<SpanRecord>,
    file: Option<BufWriter<File>>,
}

/// The process-global tracer.
pub struct Tracer {
    enabled: AtomicBool,
    next_query_id: AtomicU64,
    state: Mutex<TracerState>,
}

thread_local! {
    static CURRENT_QUERY_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Tracer {
    /// The process-global tracer instance.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| Tracer {
            enabled: AtomicBool::new(false),
            next_query_id: AtomicU64::new(1),
            state: Mutex::new(TracerState { ring: VecDeque::new(), file: None }),
        })
    }

    /// Enable or disable tracing process-wide. Disabling flushes the JSONL
    /// sink, if one is attached.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if !on {
            if let Some(f) = self.state.lock().unwrap().file.as_mut() {
                // Best-effort, like every sink write: see `record`.
                let _ = f.flush();
            }
        }
    }

    /// Is tracing currently enabled?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attach a JSONL file sink (one span object per line). Pass `None`
    /// to detach. The ring buffer keeps recording either way. The sink is
    /// buffered; the sink this call replaces is flushed first, and its
    /// flush error is returned.
    pub fn set_jsonl_sink(&self, path: Option<&std::path::Path>) -> std::io::Result<()> {
        let file = match path {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        let old = std::mem::replace(&mut self.state.lock().unwrap().file, file);
        match old {
            Some(mut f) => f.flush(),
            None => Ok(()),
        }
    }

    /// Allocate a fresh query id (monotonic, process-wide, never 0).
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot of the most recent finished spans, oldest first.
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.state.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Drop all retained spans (tests).
    pub fn clear(&self) {
        self.state.lock().unwrap().ring.clear();
    }

    fn record(&self, rec: SpanRecord) {
        let mut st = self.state.lock().unwrap();
        if let Some(f) = st.file.as_mut() {
            // Best-effort: a full disk must not take the engine down.
            let _ = writeln!(f, "{}", render_jsonl(&rec));
        }
        if st.ring.len() == RING_CAP {
            st.ring.pop_front();
        }
        st.ring.push_back(rec);
    }
}

/// Render one span as a single JSON object line. Hand-rolled because the
/// obs crate is std-only; the escape set covers everything SQL text can
/// contain.
fn render_jsonl(rec: &SpanRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"span\":\"");
    out.push_str(rec.name); // static names: no escaping needed
    out.push_str("\",\"qid\":");
    out.push_str(&rec.query_id.to_string());
    out.push_str(",\"start_us\":");
    out.push_str(&rec.start_unix_us.to_string());
    out.push_str(",\"dur_ns\":");
    out.push_str(&rec.duration_ns.to_string());
    if let Some(d) = &rec.detail {
        out.push_str(",\"detail\":\"");
        escape_json_into(&mut out, d);
        out.push('"');
    }
    out.push('}');
    out
}

fn escape_json_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// An in-flight span. Created by [`span`]; records itself on `Drop` when
/// tracing was enabled at open time. When tracing is disabled the struct
/// is inert — `start` is `None` and `Drop` does nothing.
pub struct Span {
    name: &'static str,
    start: Option<(Instant, u64)>, // (monotonic start, wall-clock µs)
    query_id: u64,
    detail: Option<String>,
}

impl Span {
    /// Attach a free-form detail string (lazily: the closure only runs
    /// when the span is live).
    pub fn with_detail(mut self, f: impl FnOnce() -> String) -> Self {
        if self.start.is_some() {
            self.detail = Some(f());
        }
        self
    }

    /// Is this span actually recording?
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((t0, wall_us)) = self.start {
            let rec = SpanRecord {
                name: self.name,
                query_id: self.query_id,
                start_unix_us: wall_us,
                duration_ns: t0.elapsed().as_nanos() as u64,
                detail: self.detail.take(),
            };
            Tracer::global().record(rec);
        }
    }
}

/// Open a span. One relaxed atomic load when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    let tracer = Tracer::global();
    if !tracer.enabled() {
        return Span { name, start: None, query_id: 0, detail: None };
    }
    let wall_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    Span {
        name,
        start: Some((Instant::now(), wall_us)),
        query_id: current_query_id(),
        detail: None,
    }
}

/// The query id installed on this thread, or 0.
#[inline]
pub fn current_query_id() -> u64 {
    CURRENT_QUERY_ID.with(|c| c.get())
}

/// RAII guard installing a thread-local query id; restores the previous
/// id on drop (nesting-safe).
pub struct QueryIdScope {
    prev: u64,
}

impl QueryIdScope {
    /// Install `qid` as the current query id on this thread.
    pub fn enter(qid: u64) -> QueryIdScope {
        let prev = CURRENT_QUERY_ID.with(|c| c.replace(qid));
        QueryIdScope { prev }
    }
}

impl Drop for QueryIdScope {
    fn drop(&mut self) {
        CURRENT_QUERY_ID.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_is_inert() {
        let _g = LOCK.lock().unwrap();
        let t = Tracer::global();
        t.set_enabled(false);
        t.clear();
        {
            let s = span("noop");
            assert!(!s.is_recording());
        }
        assert!(t.recent_spans().is_empty());
    }

    #[test]
    fn enabled_span_records_with_query_id() {
        let _g = LOCK.lock().unwrap();
        let t = Tracer::global();
        t.set_enabled(true);
        t.clear();
        {
            let _q = QueryIdScope::enter(42);
            let _s = span("unit_test").with_detail(|| "hello \"world\"\n".into());
        }
        t.set_enabled(false);
        let spans = t.recent_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "unit_test");
        assert_eq!(spans[0].query_id, 42);
        assert_eq!(spans[0].detail.as_deref(), Some("hello \"world\"\n"));
        // query id restored after scope drop
        assert_eq!(current_query_id(), 0);
    }

    #[test]
    fn jsonl_escaping() {
        let rec = SpanRecord {
            name: "x",
            query_id: 1,
            start_unix_us: 2,
            duration_ns: 3,
            detail: Some("a\"b\\c\nd\te\u{1}".into()),
        };
        let line = render_jsonl(&rec);
        assert_eq!(
            line,
            "{\"span\":\"x\",\"qid\":1,\"start_us\":2,\"dur_ns\":3,\
             \"detail\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}"
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let _g = LOCK.lock().unwrap();
        let t = Tracer::global();
        let path = std::env::temp_dir().join(format!(
            "erbium-obs-trace-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        t.set_jsonl_sink(Some(&path)).unwrap();
        t.set_enabled(true);
        t.clear();
        drop(span("file_test"));
        // The sink is buffered: disabling tracing flushes it...
        t.set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"span\":\"file_test\""), "got: {text}");
        // ...and so does detaching it.
        t.set_enabled(true);
        drop(span("file_test_2"));
        t.set_jsonl_sink(None).unwrap();
        t.set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"span\":\"file_test_2\""), "got: {text}");
    }

    #[test]
    fn query_ids_are_monotonic_and_nonzero() {
        let t = Tracer::global();
        let a = t.next_query_id();
        let b = t.next_query_id();
        assert!(a > 0 && b > a);
    }
}
