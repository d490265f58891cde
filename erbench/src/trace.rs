//! The per-layer numbers that do not need a workload's help: deltas of the
//! counters the program already exports, and the spans it already emits.
//! Both are read from outside, through `Registry::global().render()` and
//! `ObservabilityOptions { tracing, trace_file }`.

use crate::harness::{Layers, Recorder};
use crate::stats;
use erbium_core::{Database, ObservabilityOptions};
use std::collections::BTreeMap;
use std::path::Path;

/// Value of one sample line (`name value`) of the Prometheus text; 0 when the
/// metric has not been registered yet.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The present value of one process-wide counter.
pub fn counter(name: &str) -> f64 {
    sample(&erbium_obs::Registry::global().render(), name)
}

/// Bytes in the files of `dir` whose name contains `part`.
pub fn dir_bytes(dir: &Path, part: &str) -> u64 {
    std::fs::read_dir(dir)
        .expect("list database directory")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(part))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The process-wide counters at one instant.
pub struct Counters(BTreeMap<&'static str, f64>);

const COUNTERS: [&str; 13] = [
    "erbium_wal_bytes_total",
    "erbium_wal_commit_groups_total",
    "erbium_wal_fsync_seconds_count",
    "erbium_wal_fsync_seconds_sum",
    "erbium_plan_cache_hits_total",
    "erbium_plan_cache_misses_total",
    "erbium_queries_total",
    "erbium_rows_scanned_total",
    "erbium_rows_emitted_total",
    "erbium_pool_waves_total",
    "erbium_bufferpool_hits_total",
    "erbium_bufferpool_misses_total",
    "erbium_recovery_replayed_groups_total",
];

impl Counters {
    pub fn read() -> Counters {
        let text = erbium_obs::Registry::global().render();
        Counters(COUNTERS.iter().map(|&n| (n, sample(&text, n))).collect())
    }

    /// How far `name` moved since `self` was read.
    pub fn delta(&self, name: &str) -> f64 {
        Counters::read().0[name] - self.0[name]
    }

    /// The ratios of a measured phase that began when `self` was read. A
    /// ratio whose base did not move is left at 0.
    pub fn ratios_into(&self, out: &mut Layers) {
        let now = Counters::read();
        let d = |name: &str| now.0[name] - self.0[name];
        let mut ratio = |metric: &str, num: f64, den: f64| {
            if den > 0.0 {
                out.insert(metric.to_string(), num / den);
            }
        };
        let groups = d("erbium_wal_commit_groups_total");
        ratio(
            "storage.wal_bytes_per_commit",
            d("erbium_wal_bytes_total"),
            groups,
        );
        // The log's own fsyncs and the group committer's tick one histogram.
        ratio(
            "storage.fsyncs_per_commit",
            d("erbium_wal_fsync_seconds_count"),
            groups,
        );
        ratio(
            "storage.fsync_mean_us",
            d("erbium_wal_fsync_seconds_sum") * 1e6,
            d("erbium_wal_fsync_seconds_count"),
        );
        let (hits, misses) = (
            d("erbium_plan_cache_hits_total"),
            d("erbium_plan_cache_misses_total"),
        );
        ratio("engine.plan_cache_hit_ratio", hits, hits + misses);
        let queries = d("erbium_queries_total");
        ratio(
            "engine.rows_scanned_per_row_out",
            d("erbium_rows_scanned_total"),
            d("erbium_rows_emitted_total"),
        );
        ratio(
            "engine.pool_waves_per_query",
            d("erbium_pool_waves_total"),
            queries,
        );
        let (phits, pmisses) = (
            d("erbium_bufferpool_hits_total"),
            d("erbium_bufferpool_misses_total"),
        );
        ratio("storage.pool_hit_ratio", phits, phits + pmisses);
        ratio("storage.pool_misses_per_read", pmisses, queries);
    }
}

/// The spans of one traced phase: total time and count per span name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<String, (f64, u64)>);

/// Run `f` with tracing on and every finished span streamed to `file`, then
/// read the spans back.
pub fn capture(file: &Path, f: impl FnOnce()) -> Spans {
    // Tracing is process-wide; any handle configures it.
    let handle = Database::new();
    let configure = |tracing: bool, trace_file| {
        handle
            .configure_observability(ObservabilityOptions {
                tracing,
                trace_file,
                ..ObservabilityOptions::default()
            })
            .expect("configure tracing")
    };
    configure(true, Some(file.to_path_buf()));
    f();
    configure(false, None);
    Spans::parse(&std::fs::read_to_string(file).expect("read span file"))
}

impl Spans {
    /// One `{"span":"name","qid":..,"start_us":..,"dur_ns":..}` object per line.
    fn parse(text: &str) -> Spans {
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(key)? + key.len()..];
            let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
            Some(rest[..end].to_string())
        };
        let mut spans = Spans::default();
        for line in text.lines() {
            let (Some(name), Some(dur)) = (field(line, "\"span\":\""), field(line, "\"dur_ns\":"))
            else {
                continue;
            };
            let e = spans.0.entry(name).or_default();
            e.0 += dur.parse::<f64>().unwrap_or(0.0);
            e.1 += 1;
        }
        spans
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Self time per operation of each span the program emits: a span's time
    /// minus that of the spans nested in it. The nesting is the program's:
    /// `query` ⊃ `parse`, `plan` ⊃ `optimize`, `execute` ⊃ `pool_wave`; a
    /// checkpoint is a `checkpoint` (full) or a `checkpoint_delta` span.
    pub fn self_times_into(&self, out: &mut Layers, ops: u64) {
        let ops = ops.max(1) as f64;
        let t = |n| self.total_ns(n);
        let selfs = [
            ("parse", t("parse")),
            ("plan", t("plan") - t("optimize")),
            ("optimize", t("optimize")),
            ("execute", t("execute") - t("pool_wave")),
            ("wal_append", t("wal_append")),
            ("wal_fsync", t("wal_fsync")),
            ("checkpoint", t("checkpoint") + t("checkpoint_delta")),
        ];
        for (name, ns) in selfs {
            out.insert(format!("obs.span_self_us.{name}"), ns.max(0.0) / 1e3 / ops);
        }
        let spans: u64 = self.0.values().map(|e| e.1).sum();
        out.insert("obs.spans_per_op".into(), spans as f64 / ops);
    }
}

/// `core.read_tail_ms`, `core.write_tail_ms` and the percentile they are: the
/// highest of p99/p95/p90 with at least ten samples beyond it in both.
pub fn tails_into(out: &mut Layers, rec: &Recorder) {
    let reads = rec.latencies(is_read);
    let writes = rec.latencies(is_write);
    let tails: Vec<(f64, f64)> = [&reads, &writes]
        .into_iter()
        .filter_map(|v| stats::tail(v))
        .collect();
    let Some(p) = tails.iter().map(|t| t.0).min_by(f64::total_cmp) else {
        return;
    };
    out.insert("core.tail_percentile".into(), p);
    for (metric, v) in [
        ("core.read_tail_ms", &reads),
        ("core.write_tail_ms", &writes),
    ] {
        if stats::tail(v).is_some() {
            out.insert(metric.into(), stats::percentile(v, p));
        }
    }
}

/// Checkpoint time (median, and the longest as the stall it caused) and the
/// bytes each wrote.
pub fn checkpoints_into(out: &mut Layers, rec: &Recorder, bytes: &[f64]) {
    let ms = rec.latencies(|c| c == "checkpoint");
    if let (Some(longest), false) = (ms.last(), bytes.is_empty()) {
        out.insert("storage.checkpoint_ms".into(), stats::percentile(&ms, 50.0));
        out.insert("storage.checkpoint_stall_ms".into(), *longest);
        out.insert("storage.checkpoint_bytes".into(), stats::median(bytes));
    }
}

/// What a user sees of one workload beyond what every workload reports, as
/// `wl.<metric>`: reads and writes apart, the geometric mean over the kinds of
/// read, and the reopen. A metric the workload has no operations for is left
/// out.
pub fn workload_view_into(out: &mut Layers, rec: &Recorder, from_s: f64) {
    let mut put = |name: &str, value: f64| {
        if value > 0.0 {
            out.insert(format!("wl.{name}"), value);
        }
    };
    put("reads_per_s", rec.rate(is_read, from_s));
    put("read_p50_ms", rec.p50(is_read));
    let commits_per_s = rec.rate(is_write, from_s);
    put("commits_per_s", commits_per_s);
    if commits_per_s > 0.0 {
        put("write_p50_ms", rec.p50(is_write));
    }
    let read_classes = rec.class_p50s(is_read);
    if read_classes.len() > 1 {
        put("query_geomean_ms", stats::geomean(&read_classes));
    }
    put("reopen_s", rec.p50(|c| c == "reopen") / 1e3);
}

/// Operation classes that change the database.
pub const WRITE_CLASSES: [&str; 7] = [
    "insert",
    "update",
    "delete",
    "link",
    "unlink",
    "commit",
    "copy_batch",
];

/// A whole pass over an analytic workload's queries, recorded beside them.
pub const PASS: &str = "pass";

pub fn is_write(class: &str) -> bool {
    WRITE_CLASSES.contains(&class)
}

/// Every class that is not a write, a maintenance call or a pass.
pub fn is_read(class: &str) -> bool {
    !is_write(class) && !["checkpoint", "reopen", PASS].contains(&class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_prometheus_samples() {
        let text =
            "# HELP a_total x\n# TYPE a_total counter\na_total 42\na_total_more 7\nh_sum 0.5\n";
        assert_eq!(sample(text, "a_total"), 42.0);
        assert_eq!(sample(text, "h_sum"), 0.5);
        assert_eq!(sample(text, "missing"), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let text = "{\"span\":\"plan\",\"qid\":1,\"start_us\":5,\"dur_ns\":9000}\n\
                    {\"span\":\"optimize\",\"qid\":1,\"start_us\":6,\"dur_ns\":4000}\n\
                    {\"span\":\"query\",\"qid\":1,\"start_us\":1,\"dur_ns\":20000,\"detail\":\"SELECT \\\"x\\\"\"}\n";
        let mut out = Layers::new();
        Spans::parse(text).self_times_into(&mut out, 2);
        assert_eq!(out["obs.span_self_us.plan"], 2.5);
        assert_eq!(out["obs.span_self_us.optimize"], 2.0);
        assert_eq!(out["obs.spans_per_op"], 1.5);
    }
}
