//! Reproduce every Section-6 experiment and print paper-vs-measured.
//!
//! Next to every measured time it prints the mapping advisor's predicted
//! cost for the same (query, mapping) pair, from logical statistics
//! gathered on the M1 database, and closes with the calibration summary:
//! Spearman rank correlation of predicted cost against measured time over
//! all distinct pairs, and how many within-experiment mapping orders the
//! prediction gets right. Every database is ANALYZEd first, as the
//! advisor's predictions assume.
//!
//! ```text
//! cargo run --release -p erbium-bench --bin repro            # bench scale
//! ERBIUM_SCALE=paper cargo run --release -p erbium-bench --bin repro
//! ERBIUM_REPS=10 ...                                         # paper's 10 runs
//! ```

use erbium_advisor::{Advisor, Workload};
use erbium_bench::{build, experiments, mapping_by_name, measure, BenchDb};
use erbium_datagen::ExperimentConfig;
use std::collections::HashMap;
use std::time::Duration;

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// 1-based rank of each value of `xs`; tied values share their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let count = |keep: &dyn Fn(f64) -> bool| xs.iter().filter(|&&y| keep(y)).count() as f64;
    xs.iter().map(|&x| count(&|y| y < x) + (count(&|y| y == x) + 1.0) / 2.0).collect()
}

/// Spearman rank correlation: the Pearson correlation of the ranks.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
    let (ma, mb) = (mean(&ra), mean(&rb));
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let var = |r: &[f64], m: f64| r.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    cov / (var(&ra, ma) * var(&rb, mb)).sqrt()
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let reps: usize = std::env::var("ERBIUM_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    println!("ErbiumDB paper-experiment reproduction");
    println!(
        "scale: n_r={} (set ERBIUM_SCALE=paper|tiny|<n> to change), reps={reps} (median reported)\n",
        cfg.n_r
    );

    // Build each mapping's database once.
    let mut dbs: HashMap<String, BenchDb> = HashMap::new();
    for name in erbium_bench::MAPPING_NAMES {
        eprint!("building {name} ... ");
        let t = std::time::Instant::now();
        let mut db = build(name, &cfg);
        db.catalog.analyze();
        eprintln!(
            "{} entities / {} mv values / {} links in {}",
            db.stats.entities,
            db.stats.mv_values,
            db.stats.links,
            fmt_dur(t.elapsed())
        );
        dbs.insert(name.to_string(), db);
    }
    println!();
    let m1 = &dbs["M1"];
    let advisor = Advisor::from_database(&m1.catalog, &m1.lowering).expect("M1 logical stats");

    let mut failures = 0usize;
    // (query, mapping, predicted cost, measured seconds), one per distinct pair.
    let mut pairs: Vec<(String, &str, f64, f64)> = Vec::new();
    let (mut agree, mut orders) = (0usize, 0usize);
    for exp in experiments() {
        let sql = (exp.query)(&cfg);
        println!("== {}: {}", exp.id, exp.description);
        println!("   paper: {}", exp.paper_claim);
        let workload = Workload::new().query(&sql).expect("experiment query parses");
        let mut times: HashMap<&str, Duration> = HashMap::new();
        // (predicted cost, measured seconds) of the mappings timed so far.
        let mut seen: Vec<(f64, f64)> = Vec::new();
        for &m in exp.mappings {
            let db = &dbs[m];
            let mut rows = 0usize;
            let t = measure(reps, || {
                rows = db.run(&sql);
            });
            times.insert(m, t);
            let (cost, _) = advisor
                .cost_of(&mapping_by_name(m), &workload)
                .unwrap_or_else(|| panic!("advisor cannot price {} on {m}", exp.id));
            println!("   {m:<4} {:>10}   ({rows} rows)   predicted cost {cost:.0}", fmt_dur(t));
            for &(c, s) in &seen {
                orders += 1;
                agree += usize::from((c < cost) == (s < t.as_secs_f64()));
            }
            seen.push((cost, t.as_secs_f64()));
            if !pairs.iter().any(|(q, pm, _, _)| *q == sql && *pm == m) {
                pairs.push((sql.clone(), m, cost, t.as_secs_f64()));
            }
        }
        let (winner, loser) = exp.direction;
        if winner != loser {
            let (tw, tl) = (times[winner], times[loser]);
            let ratio = tl.as_secs_f64() / tw.as_secs_f64().max(1e-9);
            let ok = tw <= tl;
            if !ok {
                failures += 1;
            }
            println!(
                "   direction: {winner} should beat {loser} — measured {loser}/{winner} = {ratio:.1}x  [{}]",
                if ok { "OK" } else { "MISMATCH" }
            );
        } else {
            // Parity expectation (E6): report the spread.
            let max = times.values().max().copied().unwrap_or_default();
            let min = times.values().min().copied().unwrap_or_default();
            let spread = max.as_secs_f64() / min.as_secs_f64().max(1e-9);
            println!("   parity check: max/min spread = {spread:.1}x");
        }
        println!();
    }
    let predicted: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let measured: Vec<f64> = pairs.iter().map(|p| p.3).collect();
    println!(
        "advisor calibration: Spearman {:.3} over {} pairs; {agree}/{orders} \
         within-experiment orders agree\n",
        spearman(&predicted, &measured),
        pairs.len()
    );
    if failures == 0 {
        println!("all directional claims reproduced ✔");
    } else {
        println!("{failures} directional claim(s) NOT reproduced ✘");
        std::process::exit(1);
    }
}
