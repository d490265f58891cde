//! `erbench`: the end-to-end and per-layer benchmark of ErbiumDB. See
//! `README.md` in this directory for the workloads, the metrics and how they
//! interact.
//!
//! ```text
//! erbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run as the acceptance pipeline starts it
//! erbench run <name> [--seed n] [--seconds s] [--traced]              one run, with the metrics only this workload has
//! erbench all [--seed n] [--seconds s] [--runs k] [--traced] [--out f]   every workload, each run a child `erbench run`
//! erbench compare A.json B.json                                       judge two result sets
//! ```

mod analytic;
mod compare;
mod data;
mod durable_crud;
mod harness;
mod ingest;
mod oracle;
mod point;
mod rng;
mod shared_mixed;
mod spec;
mod stats;
mod trace;

use harness::{drive, Config, Outcome};
use spec::{Workload, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;

/// CPUs the process could run on when it started, before it pinned itself.
static MACHINE_CPUS: OnceLock<usize> = OnceLock::new();

/// Refuse to start more client threads than the machine has CPUs: the clients
/// would then wait for each other and not for the program.
pub fn require_cores(clients: usize) {
    let cores = *MACHINE_CPUS.get_or_init(|| allowed_cpus().len().max(1));
    if clients > cores {
        eprintln!("erbench: {clients} client threads on {cores} CPUs; refusing to run");
        std::process::exit(2);
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list` (`0-1`, `0,2-3`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let mut ends = range.split('-').filter_map(|n| n.parse::<usize>().ok());
        if let Some(first) = ends.next() {
            cpus.extend(first..=ends.next().unwrap_or(first));
        }
    }
    cpus
}

/// Pin this process, and every thread it will start, to the last CPU it may
/// run on. Returns the CPU, or `None` where the kernel refuses.
///
/// Only the single-client workloads are pinned. On the 2-vCPU sandbox the two
/// CPUs are siblings, and handing a sub-millisecond piece of work to a thread
/// on the other one costs a wake-up whose price changes from minute to
/// minute: unpinned, two sets of runs of one binary disagreed by up to 41 %
/// (the README has the numbers). A pinned run sees one CPU, so the engine's
/// default `threads` is 1 there and queries execute inline. The workloads with
/// two clients keep both CPUs and the engine's default of two threads.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = allowed_cpus();
    MACHINE_CPUS.get_or_init(|| cpus.len().max(1));
    let cpu = *cpus.last()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which the
    // call only reads; pid 0 names the calling thread, the only one so far.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Build outputs, scratch databases and the history live here, below the
/// directory the benchmark is run from and outside what git tracks.
fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("erbench")
}

fn run_workload(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::PointLookup => drive::<point::PointLookup>(cfg),
        Workload::AnalyticMultivalued => drive::<analytic::Analytic<false>>(cfg),
        Workload::AnalyticJoin => drive::<analytic::Analytic<true>>(cfg),
        Workload::DurableCrud => drive::<durable_crud::DurableCrud>(cfg),
        Workload::SharedMixed => drive::<shared_mixed::SharedMixed>(cfg),
        Workload::TcpPoint => drive::<point::TcpPoint>(cfg),
        Workload::IngestBounded => drive::<ingest::IngestBounded>(cfg),
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The metrics of one run: in a traced run every per-layer metric (0 where
/// the workload has nothing to say), else every end-to-end metric all
/// workloads report, and with `partial` also those this workload alone has.
fn metrics_json(cfg: &Config, out: &Outcome, partial: bool) -> String {
    let metrics: Vec<String> = if cfg.trace {
        spec::per_layer()
            .iter()
            .map(|(name, unit, _)| {
                metric_json(name, out.per_layer.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let value = match m.name {
                    _ if m.universal => Some(out.end_to_end[m.name]),
                    _ if !partial => None,
                    "failed_ops_share" => Some(out.failed as f64 / out.attempted.max(1) as f64),
                    "checked_answers" => Some(out.checked as f64),
                    name => out.per_layer.get(&format!("wl.{name}")).copied(),
                };
                Some(metric_json(m.name, value?, m.unit))
            })
            .collect()
    };
    metrics.join(", ")
}

/// The result object the acceptance pipeline reads: exactly these four keys.
fn result_json(cfg: &Config, out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(cfg, out, false)
    )
}

/// The result object of `erbench run`: what the run was and ran on, and the
/// metrics only this workload has as well.
fn full_result_json(cfg: &Config, out: &Outcome, pinned: Option<usize>) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cpus\": {}, \"engine_threads\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        pinned.map_or(allowed_cpus().len(), |_| 1),
        erbium_engine::default_threads(),
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(cfg, out, true)
    )
}

/// One run in this process: table on stderr, result object as the last line
/// of stdout. Fails when an operation failed or an answer was wrong.
fn run_one(mut cfg: Config, print_digests: bool, full: bool) -> ExitCode {
    cfg.tmp =
        state_dir()
            .join("tmp")
            .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    std::fs::create_dir_all(&cfg.tmp).expect("create scratch directory");
    let pinned = if cfg.workload.clients() == 1 {
        pin_to_one_cpu()
    } else {
        None
    };
    let out = run_workload(&cfg);
    eprintln!(
        "{} seed {} {} s{}{}, engine threads {}: {} sent, {} answers checked, {} failed",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.trace { " traced" } else { "" },
        pinned.map_or(String::new(), |cpu| format!(", pinned to CPU {cpu}")),
        erbium_engine::default_threads(),
        out.attempted,
        out.checked,
        out.failed
    );
    eprint!("{}", out.table);
    for failure in &out.failures {
        eprintln!("  FAILED {failure}");
    }
    if print_digests {
        eprintln!("  \"seed{}_n{}\": {}", cfg.seed, cfg.n_r(), out.digests);
    }
    if full {
        println!("{}", full_result_json(&cfg, &out, pinned));
    } else {
        println!("{}", result_json(&cfg, &out));
    }
    if out.failed > 0 {
        return ExitCode::FAILURE;
    }
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    ExitCode::SUCCESS
}

/// The file-system type `dir` is on, from the longest mount point that
/// prefixes it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (point, fs) = (f.nth(1)?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// What `all` ran on. The CPUs a run had and the engine's default `threads`
/// there are in each run's own line, as that run found them.
fn meta_json(cfg: &Config, runs: usize) -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    std::fs::create_dir_all(state_dir()).expect("create state directory");
    format!(
        "{{\"nproc\": {}, \"commit\": \"{commit}\", \
         \"seed\": {}, \"runs\": {runs}, \"seconds\": {}, \"traced\": {}, \"n_r\": {}, \"n_r_ingest\": {}, \
         \"sync_policy\": \"Always, group_commit_window 0\", \"fs_type\": \"{}\", \"load\": \"closed loop\"}}",
        allowed_cpus().len(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.n_r(),
        Config { workload: Workload::IngestBounded, ..cfg.clone() }.n_r(),
        fs_type(&state_dir()),
    )
}

/// Every workload, `runs` times with seeds `seed`, `seed + 1`, …, each run in
/// a child process of its own so that `peak_rss_mb` is that run's alone.
fn run_all(cfg: &Config, runs: usize, out_file: Option<&Path>) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut lines = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for seed in (cfg.seed..).take(runs) {
            let mut child = Command::new(&exe);
            child.args(["run", workload.name(), "--seed", &seed.to_string()]);
            child.args(["--seconds", &cfg.seconds.to_string()]);
            if cfg.trace {
                child.arg("--traced");
            }
            if cfg.smoke {
                child.arg("--smoke");
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .expect("start a run");
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            match stdout.lines().last().filter(|l| l.starts_with('{')) {
                Some(line) => lines.push(line.to_string()),
                None => eprintln!("erbench: {} seed {seed} printed no result", workload.name()),
            }
        }
    }
    let doc = format!(
        "{{\"meta\": {}, \"runs\": [\n{}\n]}}",
        meta_json(cfg, runs),
        lines.join(",\n")
    );
    if let Some(path) = out_file {
        std::fs::write(path, &doc).expect("write result set");
    }
    // One line per `all` in the history, so that a trajectory survives.
    let history = state_dir().join("history.jsonl");
    let line = doc.replace('\n', "") + "\n";
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("erbench: cannot append to {}: {e}", history.display());
    }
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: erbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      erbench run <name> [--seed n] [--seconds s] [--traced] [--smoke]\n\
         \x20      erbench all [--seed n] [--seconds s] [--runs k] [--traced] [--smoke] [--out file]\n\
         \x20      erbench compare A.json B.json\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        let read = |p: &String| -> serde_json::Value {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {p}: {e}"))
        };
        return if compare::compare(&read(a), &read(b)) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let all = args.first().map(String::as_str) == Some("all");
    let run = args.first().map(String::as_str) == Some("run");
    let mut cfg = Config {
        workload: Workload::PointLookup,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        tmp: PathBuf::new(),
    };
    let (mut workload, mut runs, mut out_file, mut digests) = (None, 1, None, false);
    let mut it = args.iter().skip((all || run) as usize);
    if run {
        workload = it.next().and_then(|name| Workload::parse(name));
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value()),
            "--seed" => cfg.seed = value().parse().unwrap_or(cfg.seed),
            "--seconds" => cfg.seconds = value().parse().unwrap_or(cfg.seconds),
            "--trace" => cfg.trace = value() == "1",
            "--traced" => cfg.trace = true,
            "--smoke" => cfg.smoke = true,
            "--runs" => runs = value().parse().unwrap_or(runs),
            "--out" => out_file = Some(PathBuf::from(value())),
            "--digests" => digests = true,
            _ => return usage(),
        }
    }
    if all {
        return run_all(&cfg, runs, out_file.as_deref());
    }
    let Some(workload) = workload else {
        return usage();
    };
    run_one(Config { workload, ..cfg }, digests, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::universal_metrics;

    /// Every workload end to end on a tiny instance, oracle on: the untraced
    /// and the traced path, all metrics present, nothing failed.
    #[test]
    fn smoke_runs_every_workload() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let tmp = std::env::temp_dir().join(format!(
                    "erbench-smoke-{}-{}-{trace}",
                    std::process::id(),
                    workload.name()
                ));
                let _ = std::fs::remove_dir_all(&tmp);
                std::fs::create_dir_all(&tmp).unwrap();
                let cfg = Config {
                    workload,
                    seed: 42,
                    seconds: 0.4,
                    trace,
                    smoke: true,
                    tmp: tmp.clone(),
                };
                let out = run_workload(&cfg);
                assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
                assert!(
                    out.checked > 0 && out.attempted >= out.checked,
                    "{}",
                    workload.name()
                );
                for m in universal_metrics() {
                    assert!(
                        out.end_to_end[m.name] > 0.0,
                        "{} {} is not positive",
                        workload.name(),
                        m.name
                    );
                }
                let known: Vec<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
                for name in out.per_layer.keys() {
                    assert!(
                        known.contains(name),
                        "{} emits unlisted {name}",
                        workload.name()
                    );
                }
                let line = result_json(&cfg, &out);
                let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
                let listed = if trace {
                    known.len()
                } else {
                    universal_metrics().count()
                };
                assert_eq!(
                    doc.get("metrics").unwrap().as_object().unwrap().len(),
                    listed
                );
                std::fs::remove_dir_all(&tmp).unwrap();
            }
        }
    }
}
