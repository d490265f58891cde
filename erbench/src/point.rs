//! `point_lookup` and `tcp_point`: one stream of point queries, sent to an
//! embedded database by one client, or split over two ERSP connections.
//!
//! Of every five operations two execute a prepared `?` template, which hits
//! the plan cache, and three send a text with its literals inlined and no two
//! alike, which misses it. Execution is a key lookup, so the front end (parse,
//! rewrite, optimize, plan cache, bind) and the facade own the time.

use crate::data::{self, Scale};
use crate::harness::{loaded_db, timed_us, Bench, Config, Layers, Recorder};
use crate::oracle::{by_key, digest, Checker, Digest};
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::trace;
use erbium_client::protocol::{Request, Response};
use erbium_client::RemoteClient;
use erbium_core::{Connection, Database, SharedDatabase, Value};
use erbium_engine::{bind_params, execute_streaming, optimizer, ExecContext};
use erbium_mapping::QueryRewriter;
use erbium_query::Statement;
use erbium_server::{Server, ServerOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections `tcp_point` splits the stream over.
const TCP_CLIENTS: usize = 2;
/// Operations replayed through the layers' entry points in a traced run.
const REPLAY_OPS: usize = 2_000;

/// One point query: the entity set, the key, and for a literal text the
/// number that makes it unlike every other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointOp {
    on_r: bool,
    key: i64,
    literal: Option<u64>,
}

impl PointOp {
    pub fn class(&self) -> &'static str {
        match (self.literal.is_some(), self.on_r) {
            (false, true) => "prep_r",
            (false, false) => "prep_s",
            (true, true) => "lit_r",
            (true, false) => "lit_s",
        }
    }

    /// The literal text. The second predicate holds for every row (`r_b` and
    /// `s_b` are below 100); it is there so that no two texts are equal.
    fn text(&self) -> String {
        let n = 1_000_000 + self.literal.expect("a literal op");
        if self.on_r {
            format!(
                "SELECT r.r_mv1 FROM R r WHERE r.r_id = {} AND r.r_b < {n}",
                self.key
            )
        } else {
            format!(
                "SELECT s.s_a, s.s_b FROM S s WHERE s.s_id = {} AND s.s_b < {n}",
                self.key
            )
        }
    }
}

/// The op stream: a function of the seed alone. Keys are Zipf(0.99).
#[derive(Debug, Clone)]
pub struct PointOps {
    rng: Rng,
    r_keys: Zipf,
    s_keys: Zipf,
    sent: u64,
}

impl PointOps {
    pub fn new(scale: &Scale) -> PointOps {
        PointOps {
            rng: Rng::stream(scale.seed, "point-ops"),
            r_keys: Zipf::new(scale.n_r as u64, 0.99),
            s_keys: Zipf::new(scale.n_s() as u64, 0.99),
            sent: 0,
        }
    }
}

impl Iterator for PointOps {
    type Item = PointOp;

    fn next(&mut self) -> Option<PointOp> {
        let i = self.sent;
        self.sent += 1;
        // prepared R, literal R, literal S, prepared S, literal R: 40 % hits.
        let (on_r, prepared) = [
            (true, true),
            (true, false),
            (false, false),
            (false, true),
            (true, false),
        ][(i % 5) as usize];
        let key = if on_r {
            self.r_keys.key(&mut self.rng)
        } else {
            self.s_keys.key(&mut self.rng)
        };
        Some(PointOp {
            on_r,
            key,
            literal: (!prepared).then_some(i),
        })
    }
}

/// What a point query on each key must answer, from full scans.
#[derive(Debug, Default, Clone)]
pub struct PointOracle {
    r: BTreeMap<i64, Digest>,
    s: BTreeMap<i64, Digest>,
}

impl PointOracle {
    /// From the answers `scan` gives to the two full-extent queries.
    fn build(scan: impl Fn(&str) -> Vec<Vec<Value>>) -> PointOracle {
        PointOracle {
            r: by_key(&scan(data::SCAN_R), true),
            s: by_key(&scan(data::SCAN_S), true),
        }
    }

    fn want(&self, op: &PointOp) -> Digest {
        let map = if op.on_r { &self.r } else { &self.s };
        map.get(&op.key).copied().unwrap_or_default()
    }
}

/// One client's closed loop over its share of the stream: the ops whose index
/// is `lane` modulo `lanes`.
struct Client<C: Connection> {
    conn: C,
    prepared_r: C::Prepared,
    prepared_s: C::Prepared,
    ops: PointOps,
    lane: u64,
    lanes: u64,
}

impl<C: Connection> Client<C> {
    fn new(mut conn: C, scale: &Scale, lane: usize, lanes: usize) -> Client<C> {
        let prepared_r = conn.prepare(data::POINT_R).expect("prepare R template");
        let prepared_s = conn.prepare(data::POINT_S).expect("prepare S template");
        Client {
            conn,
            prepared_r,
            prepared_s,
            ops: PointOps::new(scale),
            lane: lane as u64,
            lanes: lanes as u64,
        }
    }

    fn next_op(&mut self) -> PointOp {
        loop {
            let mine = self.ops.sent % self.lanes == self.lane;
            let op = self.ops.next().expect("endless stream");
            if mine {
                return op;
            }
        }
    }

    fn send(&mut self, op: &PointOp) -> erbium_core::DbResult<erbium_core::Rows> {
        match (op.literal, op.on_r) {
            (Some(_), _) => self.conn.query(&op.text()),
            (None, true) => self
                .conn
                .execute_prepared(&self.prepared_r, &[Value::Int(op.key)]),
            (None, false) => self
                .conn
                .execute_prepared(&self.prepared_s, &[Value::Int(op.key)]),
        }
    }

    fn run(&mut self, secs: f64, rec: &mut Recorder, chk: &mut Checker, oracle: &PointOracle) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            // Whole groups of five, so that exactly two in five are prepared.
            for _ in 0..5 {
                let op = self.next_op();
                let answer = rec.time(op.class(), || self.send(&op));
                if let Some(answer) = chk.sent(op.class(), answer) {
                    chk.check_against(op.class(), digest(&answer.rows), oracle.want(&op));
                }
            }
        }
    }
}

// ---- point_lookup ---------------------------------------------------------------

pub struct PointLookup {
    client: Client<Database>,
    oracle: PointOracle,
}

impl Bench for PointLookup {
    fn is_primary(_class: &str) -> bool {
        true
    }

    fn setup(cfg: &Config, _dir: &Path) -> Self {
        let scale = cfg.scale();
        let (db, _) = loaded_db(cfg, None, "M2", &scale);
        PointLookup {
            client: Client::new(db, &scale, 0, 1),
            oracle: PointOracle::default(),
        }
    }

    fn prepare(&mut self, _cfg: &Config, _chk: &mut Checker) {
        let db = &self.client.conn;
        self.oracle = PointOracle::build(|sql| db.query(sql).expect("oracle scan").rows);
    }

    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        self.client.run(secs, rec, chk, &self.oracle)
    }

    /// The next ops of the stream through the layers' own entry points. A
    /// literal op pays parse, rewrite, optimize and execute; a prepared one
    /// binds the cached template plan and executes.
    fn layers(&mut self, _cfg: &Config, rec: &Recorder, out: &mut Layers) {
        let db = &self.client.conn;
        let (lw, cat) = (db.lowering().expect("installed"), db.catalog());
        let ctx = ExecContext::default();
        let run = |plan: &erbium_engine::Plan| {
            let mut stream = execute_streaming(plan, cat, &ctx).expect("compiles");
            std::hint::black_box(stream.drain().expect("executes"));
        };
        let template_r = db.plan(data::POINT_R).expect("template plan");
        let template_s = db.plan(data::POINT_S).expect("template plan");
        let (mut parse, mut rewrite, mut optimize, mut exec) = (vec![], vec![], vec![], vec![]);
        let mut bind_exec_r = vec![];
        let mut bind_exec_total = 0.0;
        for op in self.client.ops.clone().take(REPLAY_OPS) {
            if op.literal.is_none() {
                let template = if op.on_r { &template_r } else { &template_s };
                let ((), us) =
                    timed_us(|| run(&bind_params(template, &[Value::Int(op.key)]).expect("binds")));
                bind_exec_total += us;
                if op.on_r {
                    bind_exec_r.push(us);
                }
                continue;
            }
            let sql = op.text();
            let (stmt, us) = timed_us(|| erbium_query::parse_single(&sql).expect("parses"));
            parse.push(us);
            let Statement::Select(sel) = stmt else {
                panic!("point query is not a SELECT")
            };
            let (plan, us) =
                timed_us(|| QueryRewriter::new(lw, cat).rewrite(&sel).expect("rewrites"));
            rewrite.push(us);
            let (plan, us) = timed_us(|| optimizer::optimize(plan, cat).expect("optimizes"));
            optimize.push(us);
            exec.push(timed_us(|| run(&plan)).1);
        }
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let total = sum(&parse) + sum(&rewrite) + sum(&optimize) + sum(&exec) + bind_exec_total;
        out.insert("query.parse_us".into(), stats::median(&parse));
        out.insert("mapping.rewrite_us".into(), stats::median(&rewrite));
        out.insert("engine.optimize_us".into(), stats::median(&optimize));
        out.insert("engine.bind_exec_us".into(), stats::median(&bind_exec_r));
        out.insert("query.parse_share".into(), sum(&parse) / total);
        out.insert("mapping.rewrite_share".into(), sum(&rewrite) / total);
        out.insert("engine.optimize_share".into(), sum(&optimize) / total);
        out.insert(
            "engine.exec_share".into(),
            (sum(&exec) + bind_exec_total) / total,
        );
        // What `execute_prepared` adds around bind and execute.
        let facade = rec.p50(|c| c == "prep_r") * 1e3 - stats::median(&bind_exec_r);
        out.insert("core.facade_us".into(), facade);
    }

    /// Load-generator hygiene: making an op, text included, may cost at most
    /// 2 % of the median read.
    fn finish(self, _cfg: &Config, rec: &mut Recorder, chk: &mut Checker, out: &mut Layers) {
        const N: usize = 50_000;
        let ((), us) = timed_us(|| {
            for op in self.client.ops.clone().take(N) {
                std::hint::black_box(op.literal.map(|_| op.text()));
            }
        });
        let per_op = us / N as f64;
        out.insert("wl.loadgen_us_per_op".into(), per_op);
        let p50_us = rec.p50(|_| true) * 1e3;
        if per_op > 0.02 * p50_us {
            chk.fail(format!("load generator costs {per_op:.3} us per op, over 2 % of the {p50_us:.1} us median read"));
        }
    }
}

// ---- tcp_point ------------------------------------------------------------------

pub struct TcpPoint {
    /// Before `server`, so that they hang up before it drains when dropped.
    clients: Vec<Client<RemoteClient>>,
    server: Server,
    db: SharedDatabase,
    oracle: PointOracle,
    connect_ms: Vec<f64>,
}

impl Bench for TcpPoint {
    fn is_primary(_class: &str) -> bool {
        true
    }

    fn setup(cfg: &Config, _dir: &Path) -> Self {
        crate::require_cores(TCP_CLIENTS);
        let scale = cfg.scale();
        let db = loaded_db(cfg, None, "M2", &scale).0.into_shared();
        let server = Server::bind("127.0.0.1:0", db.clone(), ServerOptions::default())
            .expect("bind ERSP server");
        let mut connect_ms = Vec::new();
        let clients = (0..TCP_CLIENTS)
            .map(|lane| {
                let (conn, us) =
                    timed_us(|| RemoteClient::connect(server.local_addr()).expect("dial server"));
                connect_ms.push(us / 1e3);
                Client::new(conn, &scale, lane, TCP_CLIENTS)
            })
            .collect();
        TcpPoint {
            server,
            db,
            clients,
            oracle: PointOracle::default(),
            connect_ms,
        }
    }

    fn prepare(&mut self, _cfg: &Config, _chk: &mut Checker) {
        let db = &self.db;
        self.oracle = PointOracle::build(|sql| db.query(sql).expect("oracle scan").rows);
    }

    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        let oracle = &self.oracle;
        let origin = rec.origin();
        let results: Vec<(Recorder, Checker)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let mut chk = chk.fork();
                    s.spawn(move || {
                        let mut rec = Recorder::new(origin);
                        client.run(secs, &mut rec, &mut chk, oracle);
                        (rec, chk)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (client_rec, client_chk) in results {
            rec.merge(client_rec);
            chk.join(client_chk);
        }
    }

    /// The codec on this workload's own requests and answers, and the same
    /// ops sent to the shared database without the wire in between.
    fn layers(&mut self, cfg: &Config, rec: &Recorder, out: &mut Layers) {
        // From the start of the stream, so that `client.bytes_per_op` repeats.
        let mut direct = Client::new(self.db.clone(), &cfg.scale(), 0, 1);
        let (mut encode, mut decode, mut in_process, mut bytes) = (vec![], vec![], vec![], 0usize);
        for _ in 0..REPLAY_OPS {
            let op = direct.next_op();
            let request = match op.literal {
                Some(_) => Request::Query {
                    sql: op.text(),
                    params: vec![],
                },
                None => Request::ExecutePrepared {
                    stmt_id: 1,
                    params: vec![Value::Int(op.key)],
                },
            };
            let (payload, us) = timed_us(|| request.encode());
            encode.push(us);
            bytes += payload.len();
            let (answer, us) = timed_us(|| direct.send(&op).expect("in-process point query"));
            in_process.push(us);
            let payload = Response::Rows {
                columns: answer.columns,
                rows: answer.rows,
            }
            .encode();
            bytes += payload.len();
            decode.push(timed_us(|| Response::decode(&payload).expect("decodes")).1);
        }
        // A large answer: E2's, one row per multi-valued value.
        let e2 = self.db.query(data::E2).expect("E2");
        let payload = Response::Rows {
            columns: e2.columns,
            rows: e2.rows,
        }
        .encode();
        let (_, us) = timed_us(|| Response::decode(&payload).expect("decodes"));
        out.insert("client.decode_mb_per_s".into(), payload.len() as f64 / us);
        out.insert("client.request_encode_us".into(), stats::median(&encode));
        out.insert("client.response_decode_us".into(), stats::median(&decode));
        out.insert(
            "client.bytes_per_op".into(),
            bytes as f64 / REPLAY_OPS as f64,
        );
        let shared_point_us = stats::median(&in_process);
        out.insert("core.shared_point_us".into(), shared_point_us);
        out.insert(
            "server.transport_us".into(),
            rec.p50(|_| true) * 1e3 - shared_point_us,
        );
        out.insert("server.connect_ms".into(), stats::median(&self.connect_ms));
        for name in ["overloaded", "frame_errors"] {
            let value = trace::counter(&format!("erbium_server_{name}_total"));
            out.insert(format!("server.{name}_total"), value);
        }
    }

    fn finish(mut self, _cfg: &Config, _rec: &mut Recorder, chk: &mut Checker, _out: &mut Layers) {
        drop(std::mem::take(&mut self.clients));
        if !self.server.drain(Duration::from_secs(10)) {
            chk.fail("ERSP server did not drain within 10 s".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        let ops = |seed| {
            PointOps::new(&Scale { n_r: 22_000, seed })
                .take(1_000)
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(7));
    }

    #[test]
    fn two_of_five_ops_are_prepared_and_no_two_texts_are_equal() {
        let ops: Vec<PointOp> = PointOps::new(&Scale {
            n_r: 22_000,
            seed: 42,
        })
        .take(5_000)
        .collect();
        let prepared = ops.iter().filter(|op| op.literal.is_none()).count();
        assert_eq!(prepared, 2_000);
        let texts: std::collections::HashSet<String> = ops
            .iter()
            .filter(|op| op.literal.is_some())
            .map(PointOp::text)
            .collect();
        assert_eq!(texts.len(), 3_000);
    }
}
