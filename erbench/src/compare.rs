//! `erbench compare A.json B.json`: judge two result sets of `erbench all`
//! against the bounds of the end-to-end metrics. The tool behind "two sets of
//! runs of one commit agree" and behind later parent-against-change tables.

use crate::spec::{demoted, Workload, END_TO_END};
use crate::stats;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    Worse,
    Better,
    /// The runs of one side spread further than the bound, so the medians
    /// say nothing either way.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The median as the acceptance pipeline takes it: the mean of the middle two
/// of an even number of runs.
fn median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return values[0];
    }
    stats::quartiles(values)[1]
}

/// Distance between the quartiles of `values` as a share of their median; 0
/// for a single run, whose spread is unknown.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = stats::quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// better), the wider of the two spreads, and the verdict under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == mb {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = spread(a).max(spread(b));
    // A metric that may not get worse at all has no spread to hide in.
    let verdict = if bound > 0.0 && spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse_by, spread, verdict)
}

fn runs_of<'a>(doc: &'a Value, workload: &'a str) -> impl Iterator<Item = &'a Value> {
    let runs = doc
        .get("runs")
        .and_then(|r| r.as_array())
        .expect("a result set has `runs`");
    runs.iter()
        .filter(move |r| r.get("workload").and_then(|w| w.as_str()) == Some(workload))
}

/// The values of one metric over the runs of one workload.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(doc, workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed operations over operations attempted, over the runs of one workload.
fn failed_share(doc: &Value, workload: &str) -> f64 {
    let sum = |key| {
        runs_of(doc, workload)
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Print the table: one row per (workload, end-to-end metric) pair that both
/// sets have. `true` when no pair is worse and no workload fails a higher share
/// of its operations; a pair the benchmark demoted is shown without a verdict.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<22} {:<25} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for w in Workload::ALL.map(Workload::name) {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, verdict) = judge(&va, &vb, m.higher_is_better, m.bound);
            let verdict = if demoted(w, m.name) {
                "demoted".to_string()
            } else {
                ok &= verdict != Verdict::Worse;
                verdict.to_string()
            };
            println!(
                "{w:<22} {:<25} {:>12.5} {:>12.5} {:>8.2}% {:>7.2}% {:>6.0}%  {verdict}",
                m.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                spread * 100.0,
                m.bound * 100.0,
            );
        }
        // Over all runs, where the median of the per-run shares hides one bad run.
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        if fb > fa {
            println!("{w:<22} failed share over all runs rose from {fa:.6} to {fb:.6}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let v = |b: &[f64], higher, bound| judge(&a, b, higher, bound).2;
        assert_eq!(
            v(&[104.0, 105.0, 103.0, 104.0], false, 0.10),
            Verdict::Within
        );
        assert_eq!(
            v(&[115.0, 116.0, 114.0, 115.0], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            v(&[115.0, 116.0, 114.0, 115.0], true, 0.10),
            Verdict::Better
        );
        assert_eq!(v(&[85.0, 86.0, 84.0, 85.0], true, 0.10), Verdict::Worse);
        // One side spreads by more than the bound: no verdict on the medians.
        assert_eq!(
            v(&[80.0, 130.0, 100.0, 160.0], false, 0.10),
            Verdict::Unresolved
        );
        // A metric that may not get worse at all.
        let none = [0.0, 0.0, 0.0];
        assert_eq!(judge(&none, &none, false, 0.0).2, Verdict::Within);
        assert_eq!(
            judge(&none, &[0.0, 0.01, 0.01], false, 0.0).2,
            Verdict::Worse
        );
        // A single run per side has no known spread.
        assert_eq!(
            judge(&[100.0], &[105.0], false, 0.10),
            (0.05, 0.0, Verdict::Within)
        );
    }

    #[test]
    fn reads_a_result_set() {
        let doc: Value = serde_json::from_str(
            r#"{"runs": [
                {"workload": "tcp_point", "attempted": 10, "failed": 1,
                 "metrics": {"op_p50_ms": {"value": 2.0, "unit": "ms"}}},
                {"workload": "tcp_point", "attempted": 10, "failed": 0,
                 "metrics": {"op_p50_ms": {"value": 4.0, "unit": "ms"}}},
                {"workload": "point_lookup", "attempted": 5, "failed": 0,
                 "metrics": {"op_p50_ms": {"value": 9.0, "unit": "ms"}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "tcp_point", "op_p50_ms"), [2.0, 4.0]);
        assert_eq!(failed_share(&doc, "tcp_point"), 0.05);
        assert!(compare(&doc, &doc));
    }
}
