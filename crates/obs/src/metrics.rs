//! Process-wide metrics registry.
//!
//! Three instrument kinds, all lock-free on the hot path:
//!
//! * [`Counter`] — monotonically increasing `u64` (`inc`/`add`).
//! * [`Gauge`] — settable `i64` point-in-time value (`set`/`add`).
//! * [`Histogram`] — fixed log-scale buckets (factor-4 geometric series),
//!   `observe(f64)` is a handful of relaxed atomic ops.
//!
//! Instruments are interned in a global [`Registry`] keyed by name; call
//! sites cache the returned `Arc` handle (typically in a
//! `std::sync::OnceLock`) so steady-state recording never touches the
//! registry lock. [`Registry::render`] produces Prometheus text
//! exposition format, surfaced to users as `Database::metrics_text()`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable point-in-time value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Record `v` if it exceeds the current value (racy best-effort max,
    /// fine for high-water marks).
    #[inline]
    pub fn record_max(&self, v: i64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        while v > cur {
            match self
                .value
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets (plus an implicit `+Inf` overflow).
const BUCKETS: usize = 16;

/// A histogram with fixed log-scale buckets.
///
/// Bucket upper bounds form a geometric series `base * 4^i` for
/// `i in 0..BUCKETS`; everything above the last bound lands in the
/// overflow (`+Inf`) bucket. With the default base of `1e-6` (one
/// microsecond, for latencies recorded in seconds) the finite range spans
/// 1 µs .. ~1073 s, which covers every latency this engine can produce.
#[derive(Debug)]
pub struct Histogram {
    base: f64,
    counts: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    /// Sum of observed values, stored as f64 bits for atomic CAS updates.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(base: f64) -> Self {
        Histogram {
            base,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Upper bound of finite bucket `i`.
    #[inline]
    fn bound(&self, i: usize) -> f64 {
        self.base * 4f64.powi(i as i32)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        // Find the first bucket whose upper bound >= v. log-scale search is
        // a tiny loop over 16 slots; branch-predictable and allocation-free.
        let mut placed = false;
        for i in 0..BUCKETS {
            if v <= self.bound(i) {
                self.counts[i].fetch_add(1, Ordering::Relaxed);
                placed = true;
                break;
            }
        }
        if !placed {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        // Atomic f64 add via CAS on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[inline]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Name → (help text, instrument). `BTreeMap` gives deterministic render
/// order, which keeps `metrics_text()` output diff-stable.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, (&'static str, Metric)>>,
}

impl Registry {
    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Get or create a counter. Panics if `name` is already registered as
    /// a different instrument kind (a programming error).
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| (help, Metric::Counter(Arc::new(Counter::default()))))
        {
            (_, Metric::Counter(c)) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| (help, Metric::Gauge(Arc::new(Gauge::default()))))
        {
            (_, Metric::Gauge(g)) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create a histogram with the default latency-oriented base
    /// (1 µs first bucket; factor-4 series).
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        self.histogram_with_base(name, help, 1e-6)
    }

    /// Get or create a histogram with an explicit first-bucket bound.
    pub fn histogram_with_base(
        &self,
        name: &'static str,
        help: &'static str,
        base: f64,
    ) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| (help, Metric::Histogram(Arc::new(Histogram::new(base)))))
        {
            (_, Metric::Histogram(h)) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Number of distinct registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap().len()
    }

    /// True when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render all registered metrics as Prometheus text exposition format.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::with_capacity(4096 + m.len() * 128);
        for (name, (help, metric)) in m.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(" counter\n");
                    out.push_str(name);
                    out.push(' ');
                    out.push_str(&c.get().to_string());
                    out.push('\n');
                }
                Metric::Gauge(g) => {
                    out.push_str(" gauge\n");
                    out.push_str(name);
                    out.push(' ');
                    out.push_str(&g.get().to_string());
                    out.push('\n');
                }
                Metric::Histogram(h) => {
                    out.push_str(" histogram\n");
                    let mut cumulative = 0u64;
                    for i in 0..BUCKETS {
                        cumulative += h.counts[i].load(Ordering::Relaxed);
                        out.push_str(name);
                        out.push_str("_bucket{le=\"");
                        out.push_str(&format_bound(h.bound(i)));
                        out.push_str("\"} ");
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    cumulative += h.overflow.load(Ordering::Relaxed);
                    out.push_str(name);
                    out.push_str("_bucket{le=\"+Inf\"} ");
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                    out.push_str(name);
                    out.push_str("_sum ");
                    out.push_str(&format_float(h.sum()));
                    out.push('\n');
                    out.push_str(name);
                    out.push_str("_count ");
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Format a bucket bound compactly (`1e-06`-style for tiny values,
/// plain decimal otherwise) so `le` labels stay stable and readable.
fn format_bound(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:e}")
    } else {
        format_float(v)
    }
}

/// Trim trailing zeros from a float rendering.
fn format_float(v: f64) -> String {
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() { "0".to_string() } else { s.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::default();
        let c = r.counter("t_counter", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same instrument.
        assert_eq!(r.counter("t_counter", "a counter").get(), 5);

        let g = r.gauge("t_gauge", "a gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.record_max(10);
        g.record_max(2);
        assert_eq!(g.get(), 10);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::default();
        let h = r.histogram("t_hist", "a histogram");
        h.observe(0.0); // first bucket
        h.observe(5e-7); // <= 1e-6, first bucket
        h.observe(1.0);
        h.observe(1e12); // overflow
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (5e-7 + 1.0 + 1e12)).abs() < 1.0);
        let text = r.render();
        assert!(text.contains("# TYPE t_hist histogram"));
        assert!(text.contains("t_hist_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("t_hist_count 4"));
        // Cumulative: the first bucket holds exactly the two tiny values.
        assert!(text.contains("t_hist_bucket{le=\"1e-6\"} 2"));
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let r = Registry::default();
        r.counter("z_last", "z").inc();
        r.gauge("a_first", "a").set(1);
        let text = r.render();
        let a = text.find("a_first").unwrap();
        let z = text.find("z_last").unwrap();
        assert!(a < z, "render must be name-sorted");
        assert!(text.contains("# TYPE a_first gauge"));
        assert!(text.contains("# TYPE z_last counter"));
    }

    /// The ingest / incremental-checkpoint / table-scan counters registered
    /// by the storage and core crates: same-name registration hands back
    /// the same instance (so increments from different call sites
    /// aggregate), and all four render as proper counter families.
    #[test]
    fn ingest_checkpoint_and_scan_counters_register_once_and_render() {
        let r = Registry::default();
        let names = [
            "erbium_ingest_rows_total",
            "erbium_checkpoint_delta_tables",
            "erbium_checkpoint_delta_pages_total",
            "erbium_storage_table_scans_total",
        ];
        for name in names {
            let a = r.counter(name, "first registration");
            let b = r.counter(name, "help ignored on re-registration");
            a.add(2);
            b.inc();
            assert_eq!(a.get(), 3, "{name}: both handles hit one counter");
        }
        let text = r.render();
        for name in names {
            assert!(text.contains(&format!("# TYPE {name} counter")), "{name}:\n{text}");
            assert!(text.contains(&format!("{name} 3")), "{name}:\n{text}");
        }
    }

    #[test]
    fn negative_and_nan_observations_are_clamped() {
        let r = Registry::default();
        let h = r.histogram("t_clamp", "clamp");
        h.observe(-5.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
    }
}
