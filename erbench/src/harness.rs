//! What every workload shares: its configuration, the per-operation record,
//! the summary of a measured phase, and the order in which a run goes through
//! set-up, warm-up, the measured phase, the traced phase and verification.

use crate::data::Scale;
use crate::oracle::Checker;
use crate::spec::Workload;
use crate::stats;
use crate::trace;
use erbium_core::{Database, DurabilityOptions};
use erbium_storage::SyncPolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// An untraced run repeats set-up at least this often, and until
/// [`SETUP_BUDGET_S`] is spent or [`SETUP_REPS_MAX`] reached; `setup_s` is the
/// median. A cheap set-up is the noisier one and gets the more repetitions.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Share of `--seconds` run before timing starts (or one full pass, for the
/// workloads that only stop between passes).
const WARM_UP_SHARE: f64 = 0.05;

/// A durable workload closes and reopens its database this often in a row,
/// so that `reopen_s` is a median and not one sample. Opening changes nothing
/// on disk, so every reopen does the same work.
pub const REOPENS: usize = 3;

/// Per-layer metrics by name. A metric a workload has nothing to say about
/// stays 0.
pub type Layers = BTreeMap<String, f64>;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny instance for the test of the whole path.
    pub smoke: bool,
    /// This run's scratch directory; removed on success.
    pub tmp: PathBuf,
}

impl Config {
    /// `R`-hierarchy size of the instance a workload runs on. Every workload
    /// fits the program's caches at 22,000; `ingest_bounded` loads 80,000
    /// through an eighth of the pages that needs.
    pub fn n_r(&self) -> usize {
        match (self.workload, self.smoke) {
            (Workload::IngestBounded, false) => 80_000,
            (Workload::IngestBounded, true) => 8_000,
            (_, false) => 22_000,
            (_, true) => 400,
        }
    }

    /// The instance a workload runs on.
    pub fn scale(&self) -> Scale {
        Scale {
            n_r: self.n_r(),
            seed: self.seed,
        }
    }

    /// One flush policy for every durable workload: every commit is synced
    /// before it is acknowledged, and no commit waits for company.
    pub fn durability(&self, buffer_pool_frames: Option<usize>) -> DurabilityOptions {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            group_commit_window: Duration::ZERO,
            buffer_pool_frames,
        }
    }
}

/// An empty database with the Figure-4 schema and the mapping `name`
/// installed, durable in `dir` when given.
pub fn open_db(cfg: &Config, dir: Option<&Path>, frames: Option<usize>, name: &str) -> Database {
    let mut db = match dir {
        Some(dir) => Database::open_with(dir, cfg.durability(frames)).expect("open database"),
        None => Database::new(),
    };
    db.execute(crate::data::DDL).expect("Figure-4 DDL");
    let mapping = crate::data::mapping(&db, name);
    db.install(mapping).expect("install mapping");
    db
}

/// The Figure-4 instance `scale` loaded under the mapping `name`, analyzed,
/// and checkpointed where durable. Returns the user bytes loaded with it.
pub fn loaded_db(cfg: &Config, dir: Option<&Path>, name: &str, scale: &Scale) -> (Database, u64) {
    let mut db = open_db(cfg, dir, None, name);
    let user_bytes = crate::data::load(&mut db, scale).expect("load instance");
    db.analyze();
    db.checkpoint().expect("checkpoint the loaded instance");
    (db, user_bytes)
}

/// `f`'s result and how many microseconds it took.
pub fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    class: u16,
    /// Completion time, seconds since the recorder's origin.
    done_s: f64,
    lat_ms: f64,
}

/// The operations of one phase, in completion order per client.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    classes: Vec<String>,
    ops: Vec<Op>,
    /// Ends of the throughput slices, where the workload sets them itself.
    slice_ends: Vec<f64>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            classes: Vec::new(),
            ops: Vec::new(),
            slice_ends: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn class_id(&mut self, class: &str) -> u16 {
        match self.classes.iter().position(|c| c == class) {
            Some(i) => i as u16,
            None => {
                self.classes.push(class.to_string());
                (self.classes.len() - 1) as u16
            }
        }
    }

    /// Run `f` as one operation of `class`, from call to return.
    pub fn time<T>(&mut self, class: &str, f: impl FnOnce() -> T) -> T {
        let class = self.class_id(class);
        let (out, us) = timed_us(f);
        let lat_ms = us / 1e3;
        self.ops.push(Op {
            class,
            done_s: self.now(),
            lat_ms,
        });
        out
    }

    /// Latency of the operation recorded last.
    pub fn last_ms(&self) -> f64 {
        self.ops.last().map_or(0.0, |op| op.lat_ms)
    }

    /// Record an operation of `class` that took `lat_ms` and ends now: one
    /// made of operations timed one by one.
    pub fn record(&mut self, class: &str, lat_ms: f64) {
        let class = self.class_id(class);
        self.ops.push(Op {
            class,
            done_s: self.now(),
            lat_ms,
        });
    }

    /// End a throughput slice here. A workload whose operations differ a lot
    /// in cost ends a slice after each pass over them, so that every slice
    /// holds the same operations; the others leave the cutting to
    /// [`Recorder::rate`].
    pub fn end_slice(&mut self) {
        self.slice_ends.push(self.now());
    }

    /// Take over another client's operations (same origin).
    pub fn merge(&mut self, other: Recorder) {
        for op in other.ops {
            let class = self.class_id(&other.classes[op.class as usize]);
            self.ops.push(Op { class, ..op });
        }
        self.ops.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    }

    /// Ascending latencies of the classes `keep` accepts.
    pub fn latencies(&self, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| keep(&self.classes[op.class as usize]))
            .map(|op| op.lat_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn completions(&self, keep: impl Fn(&str) -> bool, from_s: f64) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| op.done_s > from_s && keep(&self.classes[op.class as usize]))
            .map(|op| op.done_s)
            .collect()
    }

    pub fn count(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.ops
            .iter()
            .filter(|op| keep(&self.classes[op.class as usize]))
            .count() as u64
    }

    /// Median-slice throughput of the classes `keep` accepts, over the
    /// operations completed after `from_s`: over the workload's own slices
    /// where it ended any, else over equal-count slices.
    pub fn rate(&self, keep: impl Fn(&str) -> bool, from_s: f64) -> f64 {
        let done = self.completions(keep, from_s);
        let ends: Vec<f64> = self
            .slice_ends
            .iter()
            .copied()
            .filter(|&e| e > from_s)
            .collect();
        if done.is_empty() {
            return 0.0;
        }
        if ends.is_empty() {
            return stats::slice_median_rate(from_s, &done);
        }
        let mut from = from_s;
        let rates: Vec<f64> = ends
            .iter()
            .map(|&end| {
                let n = done.iter().filter(|&&d| d > from && d <= end).count();
                let rate = n as f64 / (end - from);
                from = end;
                rate
            })
            .collect();
        stats::median(&rates)
    }

    /// Median latency of one class, 0 without samples.
    pub fn p50(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let v = self.latencies(keep);
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&v, 50.0)
        }
    }

    /// The median latency of each class `keep` accepts.
    pub fn class_p50s(&self, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.classes
            .iter()
            .filter(|c| keep(c))
            .map(|c| self.p50(|k| k == c))
            .collect()
    }

    /// Geometric mean over the classes of each class's median latency: every
    /// kind of operation weighs the same, so a gain on a cheap one shows. A
    /// pass is the sum of operations already counted.
    pub fn class_geomean_ms(&self) -> f64 {
        stats::geomean(&self.class_p50s(|c| c != trace::PASS))
    }

    /// `class count p50 tail` lines for the table on stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for c in &self.classes {
            let v = self.latencies(|k| k == c);
            let tail = match stats::tail(&v) {
                Some((p, t)) => format!("p{p:.0} {t:.3} ms"),
                None => format!("max {:.3} ms", v[v.len() - 1]),
            };
            out += &format!(
                "    {c:<22} n={:<8} p50 {:.4} ms  {tail}\n",
                v.len(),
                stats::percentile(&v, 50.0)
            );
        }
        out
    }
}

/// One of the seven workloads. A run calls, in this order: `setup` (timed,
/// repeated), `prepare`, `prologue`, a discarded `run` as warm-up, the
/// measured `run`, in a traced run a second `run` with tracing on and
/// `layers`, and `finish`.
pub trait Bench: Sized {
    /// Whether operations of `class` count in `ops_per_s` and `op_p50_ms`.
    fn is_primary(class: &str) -> bool;

    /// Everything the program does before the first operation can be sent:
    /// schema, mapping, load, `ANALYZE`, server bind, prepared statements.
    /// `dir` is an empty directory of this run.
    fn setup(cfg: &Config, dir: &Path) -> Self;

    /// The benchmark's own preparation, not charged to set-up: oracle maps.
    fn prepare(&mut self, _cfg: &Config, _chk: &mut Checker) {}

    /// Measured one-off work that has to precede the loop.
    fn prologue(&mut self, _cfg: &Config, _rec: &mut Recorder, _chk: &mut Checker) {}

    /// The closed loop: send operations for `secs` seconds, record each, and
    /// check each answer. Continues the workload's op stream where the
    /// previous call stopped.
    fn run(&mut self, cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker);

    /// Traced run only: time the layers' public entry points on this
    /// workload's own inputs.
    fn layers(&mut self, _cfg: &Config, _rec: &Recorder, _out: &mut Layers) {}

    /// After the last phase: reopen and verify every acknowledged write where
    /// the workload is durable, and shut down what `setup` started.
    fn finish(self, _cfg: &Config, _rec: &mut Recorder, _chk: &mut Checker, _out: &mut Layers) {}
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent, operations that failed, answers checked.
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: Layers,
    /// Per-class table for stderr.
    pub table: String,
    /// The digests seen, in the form `expected.json` records them.
    pub digests: String,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Run workload `B` once as `cfg` says.
pub fn drive<B: Bench>(cfg: &Config) -> Outcome {
    let mut chk = Checker::new(crate::oracle::expected(cfg.seed, cfg.n_r()));
    let mut layers = Layers::new();

    // Set-up, several times over in an untraced run so that its reported
    // time is a median; the last instance is the one measured.
    let mut setups: Vec<f64> = Vec::new();
    let mut bench = None;
    while setups.is_empty()
        || (!cfg.trace
            && setups.len() < SETUP_REPS_MAX
            && (setups.len() < SETUP_REPS_MIN || setups.iter().sum::<f64>() < SETUP_BUDGET_S))
    {
        drop(bench.take());
        let dir = cfg.tmp.join(format!("db{}", setups.len()));
        std::fs::create_dir_all(&dir).expect("create run directory");
        let t = Instant::now();
        bench = Some(B::setup(cfg, &dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    bench.prepare(cfg, &mut chk);

    let mut rec = Recorder::new(Instant::now());
    bench.prologue(cfg, &mut rec, &mut chk);
    let mut warm_up = Recorder::new(Instant::now());
    bench.run(cfg, cfg.seconds * WARM_UP_SHARE, &mut warm_up, &mut chk);
    let mut reads = warm_up.count(trace::is_read);
    // A traced run splits its time between an untraced and a traced phase.
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let counters = trace::Counters::read();
    let start = rec.now();
    bench.run(cfg, secs, &mut rec, &mut chk);
    let ops_per_s = rec.rate(B::is_primary, start);

    if cfg.trace {
        counters.ratios_into(&mut layers);
        let mut traced = Recorder::new(Instant::now());
        let spans = trace::capture(&cfg.tmp.join("spans.jsonl"), || {
            bench.run(cfg, secs, &mut traced, &mut chk)
        });
        reads += traced.count(trace::is_read);
        let overhead = 1.0 - traced.rate(B::is_primary, 0.0) / ops_per_s;
        layers.insert("obs.tracing_overhead_pct".into(), overhead * 100.0);
        spans.self_times_into(&mut layers, traced.count(|c| c != trace::PASS));
        bench.layers(cfg, &rec, &mut layers);
    }
    // Read before `finish`, whose reopen and read-back are verification.
    let peak_rss_mb = peak_rss_mb();
    bench.finish(cfg, &mut rec, &mut chk, &mut layers);
    // No run gets fast by skipping the check: every read is a checked answer.
    reads += rec.count(trace::is_read);
    if chk.checked < reads {
        chk.fail(format!(
            "{reads} reads, but only {} answers checked",
            chk.checked
        ));
    }

    let mut out = Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        checked: chk.checked,
        table: rec.table(),
        digests: chk.render_expected(),
        ..Outcome::default()
    };
    out.end_to_end.insert("setup_s", stats::median(&setups));
    out.end_to_end.insert("ops_per_s", ops_per_s);
    out.end_to_end.insert("op_p50_ms", rec.p50(B::is_primary));
    out.end_to_end
        .insert("op_geomean_ms", rec.class_geomean_ms());
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    trace::workload_view_into(&mut layers, &rec, start);
    layers.insert("oracle.checked_answers".into(), chk.checked as f64);
    if cfg.trace {
        trace::tails_into(&mut layers, &rec);
    }
    out.failures = chk.failures;
    out.per_layer = layers;
    out
}
