//! The names the benchmark emits: workloads, end-to-end metrics and per-layer
//! metrics, with their units. `BENCHMARK.json` lists the same names; a test
//! holds the two together.

/// The seven workloads. The README says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    AnalyticMultivalued,
    AnalyticJoin,
    DurableCrud,
    SharedMixed,
    TcpPoint,
    IngestBounded,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::PointLookup,
        Workload::AnalyticMultivalued,
        Workload::AnalyticJoin,
        Workload::DurableCrud,
        Workload::SharedMixed,
        Workload::TcpPoint,
        Workload::IngestBounded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::AnalyticMultivalued => "analytic_multivalued",
            Workload::AnalyticJoin => "analytic_join",
            Workload::DurableCrud => "durable_crud",
            Workload::SharedMixed => "shared_mixed",
            Workload::TcpPoint => "tcp_point",
            Workload::IngestBounded => "ingest_bounded",
        }
    }

    /// Client threads or connections the workload drives.
    pub fn clients(self) -> usize {
        match self {
            Workload::SharedMixed | Workload::TcpPoint => 2,
            _ => 1,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse. 0 means it may
    /// not get worse at all.
    pub bound: f64,
    /// Every workload reports it, so `BENCHMARK.json` lists it and the
    /// acceptance pipeline gates it. The others are reported by the workloads
    /// they apply to (never as 0), in `erbench all`, and judged by `compare`.
    pub universal: bool,
}

const fn universal(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
        universal: true,
    }
}

const fn partial(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
        universal: false,
    }
}

/// First the five every workload reports, through its primary operations:
/// their throughput and median latency, the geometric mean over all operation
/// classes of each class's median latency, the process's peak resident set
/// and the program's set-up time. Then the issue's per-workload metrics, which
/// a traced run also reports as `wl.<name>` and `oracle.checked_answers`.
pub const END_TO_END: [EndToEnd; 15] = [
    universal("ops_per_s", "1/s", true, 0.25),
    universal("op_p50_ms", "ms", false, 0.25),
    universal("op_geomean_ms", "ms", false, 0.25),
    universal("peak_rss_mb", "MiB", false, 0.10),
    universal("setup_s", "s", false, 0.25),
    partial("reads_per_s", "1/s", true, 0.10),
    partial("read_p50_ms", "ms", false, 0.10),
    partial("commits_per_s", "1/s", true, 0.10),
    partial("write_p50_ms", "ms", false, 0.10),
    partial("query_geomean_ms", "ms", false, 0.10),
    partial("load_rows_per_s", "1/s", true, 0.10),
    partial("reopen_s", "s", false, 0.10),
    partial("disk_bytes_per_user_byte", "ratio", false, 0.02),
    partial("failed_ops_share", "ratio", false, 0.0),
    // Runs are time-boxed, so the count moves with throughput: reported with
    // throughput's bound, but never judged (see `DEMOTED`).
    partial("checked_answers", "count", true, 0.10),
];

/// The end-to-end metrics every workload reports: `BENCHMARK.json`'s list.
#[cfg(test)]
pub fn universal_metrics() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.universal)
}

/// (workload, metric) pairs `compare` reports without a verdict, `*` standing
/// for every workload: what two sets of runs of one commit did not repeat
/// within the metric's bound, after the runs had been lengthened (the README
/// has the sets). The traced run has them all as per-layer metrics.
pub const DEMOTED: [(&str, &str); 5] = [
    // Time-boxed runs: the count moves with throughput. What it is there for
    // every run enforces by itself (see `drive`).
    ("*", "checked_answers"),
    // The median over seven or twelve different queries is whichever query
    // sits in the middle.
    ("analytic_multivalued", "read_p50_ms"),
    ("analytic_join", "read_p50_ms"),
    // 700 reads of 0.14 ms between synced commits: spread 10.1 %.
    ("durable_crud", "read_p50_ms"),
    // 24 batches, once per run: spread 12.4 %.
    ("ingest_bounded", "load_rows_per_s"),
];

pub fn demoted(workload: &str, metric: &str) -> bool {
    DEMOTED
        .iter()
        .any(|&(w, m)| m == metric && (w == "*" || w == workload))
}

/// The (query, mapping) pairs of the two analytic workloads, 19 in all; each
/// has an `engine.exec_ms.<Q>_<M>` metric.
pub const MULTIVALUED_PAIRS: [(&str, &str); 7] = [
    ("E1", "M1"),
    ("E1", "M2"),
    ("E2", "M1"),
    ("E2", "M2"),
    ("E3", "M1"),
    ("E4", "M1"),
    ("E4", "M2"),
];
pub const JOIN_PAIRS: [(&str, &str); 12] = [
    ("E5", "M1"),
    ("E5", "M4"),
    ("E6", "M1"),
    ("E6", "M4"),
    ("E7", "M1"),
    ("E7", "M5"),
    ("E8", "M1"),
    ("E8", "M5"),
    ("E9a", "M1"),
    ("E9a", "M6f"),
    ("E9b", "M1"),
    ("E9b", "M6f"),
];

/// Per-layer metrics other than the per-pair ones, as `(name, unit,
/// higher_is_better)`. The layer is the crate name before the first dot;
/// `wl` holds what a user sees on one workload only, and `oracle` the count
/// of checked answers.
const LAYER_METRICS: [(&str, &str, bool); 67] = [
    ("query.parse_us", "us", false),
    ("query.parse_share", "ratio", false),
    ("mapping.rewrite_us", "us", false),
    ("mapping.rewrite_share", "ratio", false),
    ("mapping.plan_nodes", "count", false),
    ("mapping.crud_us", "us", false),
    ("mapping.crud_share", "ratio", false),
    ("engine.optimize_us", "us", false),
    ("engine.optimize_share", "ratio", false),
    ("engine.plan_cache_hit_ratio", "ratio", true),
    ("engine.bind_exec_us", "us", false),
    ("engine.exec_share", "ratio", false),
    ("engine.rows_scanned_per_row_out", "ratio", false),
    ("engine.columnar_batch_share", "ratio", true),
    ("engine.pool_waves_per_query", "count", false),
    ("storage.wal_bytes_per_commit", "B", false),
    ("storage.wal_append_us", "us", false),
    ("storage.fsyncs_per_commit", "ratio", false),
    ("storage.fsync_mean_us", "us", false),
    ("storage.checkpoint_ms", "ms", false),
    ("storage.checkpoint_bytes", "B", false),
    ("storage.checkpoint_stall_ms", "ms", false),
    ("storage.recover_replayed_groups", "count", false),
    ("storage.recover_delta_files", "count", false),
    ("storage.pool_hit_ratio", "ratio", true),
    ("storage.pool_evictions", "count", false),
    ("storage.pool_writebacks", "count", false),
    ("storage.pool_misses_per_read", "ratio", false),
    ("storage.pages_total", "count", false),
    ("storage.pool_frames", "count", false),
    ("core.facade_us", "us", false),
    ("core.snapshot_us", "us", false),
    ("core.cow_commit_us_2k", "us", false),
    ("core.cow_commit_us_22k", "us", false),
    ("core.nocow_commit_us_2k", "us", false),
    ("core.nocow_commit_us_22k", "us", false),
    ("core.shared_point_us", "us", false),
    ("core.read_tail_ms", "ms", false),
    ("core.write_tail_ms", "ms", false),
    ("core.tail_percentile", "%", true),
    ("client.request_encode_us", "us", false),
    ("client.response_decode_us", "us", false),
    ("client.decode_mb_per_s", "MB/s", true),
    ("client.bytes_per_op", "B", false),
    ("server.transport_us", "us", false),
    ("server.connect_ms", "ms", false),
    ("server.overloaded_total", "count", false),
    ("server.frame_errors_total", "count", false),
    ("obs.tracing_overhead_pct", "%", false),
    ("obs.spans_per_op", "count", false),
    ("obs.span_self_us.parse", "us", false),
    ("obs.span_self_us.plan", "us", false),
    ("obs.span_self_us.optimize", "us", false),
    ("obs.span_self_us.execute", "us", false),
    ("obs.span_self_us.wal_append", "us", false),
    ("obs.span_self_us.wal_fsync", "us", false),
    ("obs.span_self_us.checkpoint", "us", false),
    ("wl.reads_per_s", "1/s", true),
    ("wl.read_p50_ms", "ms", false),
    ("wl.commits_per_s", "1/s", true),
    ("wl.write_p50_ms", "ms", false),
    ("wl.query_geomean_ms", "ms", false),
    ("wl.load_rows_per_s", "1/s", true),
    ("wl.reopen_s", "s", false),
    ("wl.disk_bytes_per_user_byte", "ratio", false),
    ("wl.loadgen_us_per_op", "us", false),
    ("oracle.checked_answers", "count", true),
];

pub fn exec_metric(query: &str, mapping: &str) -> String {
    format!("engine.exec_ms.{query}_{mapping}")
}

/// Every per-layer metric as `(name, unit, higher_is_better)`.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let pairs = MULTIVALUED_PAIRS.iter().chain(&JOIN_PAIRS);
    LAYER_METRICS
        .iter()
        .map(|&(n, u, h)| (n.to_string(), u, h))
        .chain(pairs.map(|(q, m)| (exec_metric(q, m), "ms", false)))
        .collect()
}

/// `BENCHMARK.json` as this file defines it, apart from the `why` texts,
/// which live there.
#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn better(higher: bool) -> String {
        if higher { "higher" } else { "lower" }.to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_emitted() {
        let doc = benchmark_json();
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        let e2e: Vec<_> = universal_metrics()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better),
                )
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        for (m, j) in universal_metrics().zip(doc.get("end_to_end").unwrap().as_array().unwrap()) {
            assert_eq!(
                j.get("bound").and_then(|b| b.as_f64()),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }

        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, h)| (n, u.to_string(), better(h)))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        assert!(layers.len() <= 128);

        let mut names: Vec<&String> = workloads
            .iter()
            .chain(e2e.iter().map(|m| &m.0))
            .chain(layers.iter().map(|m| &m.0))
            .collect();
        assert!(
            names.iter().all(|n| legal(n)),
            "a name is outside [A-Za-z0-9_.-]"
        );
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            workloads.len() + e2e.len() + layers.len(),
            "a name is used twice"
        );
    }

    /// The package has a manifest of its own, so nothing else keeps its
    /// release profile equal to the one the repository ships with.
    #[test]
    fn release_profile_mirrors_the_repository() {
        fn profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let own = profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(include_str!("../../Cargo.toml")));
    }

    #[test]
    fn benchmark_json_command_stays_inside_its_paths() {
        let doc = benchmark_json();
        let strings = |key| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("paths"), ["erbench"]);
        let command = strings("command");
        assert!(command.iter().any(|a| a == "erbench/Cargo.toml"));
        assert!(command
            .iter()
            .all(|a| !a.starts_with('/') && !a.contains("..")));
    }
}
