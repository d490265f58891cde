//! `analytic_multivalued` and `analytic_join`: passes over the paper's
//! experiment queries, each on the mappings the paper compares. The executor
//! does the work; the front end runs once per pair, in the warm-up pass.

use crate::data::{self, Scale};
use crate::harness::{loaded_db, timed_us, Bench, Config, Layers, Recorder};
use crate::oracle::{digest, Checker};
use crate::spec::{exec_metric, JOIN_PAIRS, MULTIVALUED_PAIRS};
use crate::stats;
use crate::trace::PASS;
use erbium_core::Database;
use erbium_engine::{execute_streaming, optimizer, ExecContext};
use erbium_mapping::QueryRewriter;
use erbium_query::Statement;
use std::path::Path;
use std::time::Instant;

/// One populated database per mapping, and the pairs to run on them:
/// `analytic_join` when `JOIN`, else `analytic_multivalued`.
pub struct Analytic<const JOIN: bool> {
    dbs: Vec<(&'static str, Database)>,
    /// `(query name, mapping, text)`.
    pairs: Vec<(&'static str, &'static str, String)>,
}

fn query_text(name: &str, scale: &Scale) -> String {
    match name {
        "E1" => data::E1.into(),
        "E2" => data::E2.into(),
        "E3" => data::e3(scale.n_r as i64 / 2),
        "E4" => data::E4.into(),
        "E5" => data::E5.into(),
        "E6" => data::E6.into(),
        "E7" => data::e7(scale),
        "E8" => data::E8.into(),
        "E9a" => data::E9A.into(),
        "E9b" => data::E9B.into(),
        other => panic!("unknown query '{other}'"),
    }
}

impl<const JOIN: bool> Analytic<JOIN> {
    fn new(cfg: &Config, pairs: &[(&'static str, &'static str)]) -> Self {
        let scale = cfg.scale();
        let mut dbs: Vec<(&'static str, Database)> = Vec::new();
        for &(_, mapping) in pairs {
            if dbs.iter().all(|(m, _)| *m != mapping) {
                dbs.push((mapping, loaded_db(cfg, None, mapping, &scale).0));
            }
        }
        let pairs = pairs
            .iter()
            .map(|&(q, m)| (q, m, query_text(q, &scale)))
            .collect();
        Analytic { dbs, pairs }
    }

    fn db(&self, mapping: &str) -> &Database {
        &self
            .dbs
            .iter()
            .find(|(m, _)| *m == mapping)
            .expect("mapping was set up")
            .1
    }

    /// Whole passes until `secs` have gone by, at least one. The pass is the
    /// primary operation, its latency the sum of its queries': the queries
    /// differ a hundredfold in cost, so the median over single queries would
    /// be whichever of them sits in the middle. Every pass ends a throughput
    /// slice, so that each slice holds the same queries.
    fn passes(&mut self, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        let t = Instant::now();
        loop {
            let mut pass_ms = 0.0;
            for (query, mapping, sql) in &self.pairs {
                let db = self.db(mapping);
                let class = format!("{query}_{mapping}");
                let answer = rec.time(&class, || db.query(sql));
                pass_ms += rec.last_ms();
                if let Some(answer) = chk.sent(&class, answer) {
                    chk.check(query, mapping, digest(&answer.rows));
                }
            }
            rec.record(PASS, pass_ms);
            rec.end_slice();
            if t.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
    }

    /// Each pair once more through the layers' own entry points, timed one
    /// by one: parse, rewrite under the mapping, optimize, execute. A front-end
    /// step runs nine times and its median counts: the first parse after a
    /// scan that went through the whole cache takes a hundred times the
    /// second, and now and then a step waits a millisecond for the allocator
    /// to give back what the scan freed. Counts the batches the leaf operators
    /// emit and those of them from the columnar path.
    fn replay(&mut self, out: &mut Layers) {
        fn warm<T>(mut step: impl FnMut() -> T) -> (T, f64) {
            let runs = [0; 9].map(|_| timed_us(&mut step));
            let us = stats::median(&runs.each_ref().map(|r| r.1));
            let [.., (last, _)] = runs;
            (last, us)
        }
        let (mut parse, mut rewrite, mut optimize, mut exec) = (0.0, 0.0, 0.0, 0.0);
        let (mut nodes, mut batches, mut columnar) = (0usize, 0u64, 0u64);
        for (query, mapping, sql) in &self.pairs {
            let db = self.db(mapping);
            let (lw, cat) = (db.lowering().expect("installed"), db.catalog());
            let (stmt, us) = warm(|| erbium_query::parse_single(sql).expect("parses"));
            parse += us;
            let Statement::Select(sel) = stmt else {
                panic!("{query} is not a SELECT")
            };
            let (plan, us) = warm(|| QueryRewriter::new(lw, cat).rewrite(&sel).expect("rewrites"));
            rewrite += us;
            let (plan, us) = warm(|| optimizer::optimize(plan.clone(), cat).expect("optimizes"));
            optimize += us;
            nodes += plan.explain().lines().count();
            let ctx = ExecContext::default();
            let mut runs = Vec::new();
            for _ in 0..3 {
                let (metrics, us) = timed_us(|| {
                    let mut stream = execute_streaming(&plan, cat, &ctx).expect("compiles");
                    std::hint::black_box(stream.drain().expect("executes"));
                    stream.metrics()
                });
                runs.push(us);
                for leaf in metrics.leaves() {
                    batches += leaf.batches;
                    columnar += if leaf.columnar { leaf.batches } else { 0 };
                }
            }
            let exec_us = stats::median(&runs);
            exec += exec_us;
            out.insert(exec_metric(query, mapping), exec_us / 1e3);
        }
        let pairs = self.pairs.len() as f64;
        let total = parse + rewrite + optimize + exec;
        out.insert("query.parse_us".into(), parse / pairs);
        out.insert("mapping.rewrite_us".into(), rewrite / pairs);
        out.insert("engine.optimize_us".into(), optimize / pairs);
        out.insert("query.parse_share".into(), parse / total);
        out.insert("mapping.rewrite_share".into(), rewrite / total);
        out.insert("engine.optimize_share".into(), optimize / total);
        out.insert("engine.exec_share".into(), exec / total);
        out.insert("mapping.plan_nodes".into(), nodes as f64);
        out.insert(
            "engine.columnar_batch_share".into(),
            columnar as f64 / batches.max(1) as f64,
        );
    }
}

impl<const JOIN: bool> Bench for Analytic<JOIN> {
    fn is_primary(class: &str) -> bool {
        class == PASS
    }
    fn setup(cfg: &Config, _dir: &Path) -> Self {
        Analytic::new(
            cfg,
            if JOIN {
                &JOIN_PAIRS
            } else {
                &MULTIVALUED_PAIRS
            },
        )
    }
    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        self.passes(secs, rec, chk)
    }
    fn layers(&mut self, _cfg: &Config, _rec: &Recorder, out: &mut Layers) {
        self.replay(out)
    }
}
