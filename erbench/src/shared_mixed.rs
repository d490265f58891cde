//! `shared_mixed`: a writer and a reader on one durable `SharedDatabase`
//! (M2). The reader pins a snapshot every eight reads; each pinned view makes
//! the writer's next commit copy the tables it touches. Same WAL and executor
//! as the single-client workloads, but writes beside reads.

use crate::data::{self, Scale};
use crate::harness::{loaded_db, timed_us, Bench, Config, Layers, Recorder};
use crate::oracle::{by_key, digest, Checker, Digest};
use crate::rng::{Rng, Zipf};
use crate::stats;
use erbium_core::{Connection, DbResult, ReadSession, SharedDatabase, Tx, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Keys of inserted entities start here, above every loaded key.
const FIRST_NEW_ID: i64 = 10_000_000;
/// Reads between two pins of a fresh snapshot.
const PIN_EVERY: u64 = 8;
/// Commits per arm of the copy-on-write replay.
const REPLAY_COMMITS: usize = 200;

/// The writer's transactions: four `R` inserts and one `S` update. Neither
/// changes E6's answer (`r_b` is 50, `s_b` moves within 5..50), so the
/// reader's answers stay checkable while the writer runs.
struct Writer {
    rng: Rng,
    next_id: i64,
    scale: Scale,
}

impl Writer {
    /// The body of the next transaction.
    fn next(&mut self) -> impl FnOnce(&mut Tx<'_>) -> DbResult<()> {
        let first = self.next_id;
        self.next_id += 4;
        let rows: Vec<_> = (first..first + 4)
            .map(|id| {
                let s_target = self.rng.range(0, self.scale.n_s());
                let mut e = data::r_entity(&mut self.rng, id, "R", s_target);
                e.data.insert("r_b".into(), Value::Int(50));
                e
            })
            .collect();
        // An S whose s_b is 5 or more to begin with (s_b = s_id % 50).
        let s_id = loop {
            let s_id = self.rng.range(0, self.scale.n_s());
            if s_id % 50 >= 5 {
                break s_id;
            }
        };
        let s_b = self.rng.range(5, 50);
        move |tx| {
            for e in &rows {
                let (attrs, links) = data::insert_args(e);
                tx.insert_linked("R", &attrs, &links)?;
            }
            tx.update_entity("S", &[Value::Int(s_id)], &[("s_b", Value::Int(s_b))])
        }
    }
}

/// The reader's loop: live point, live E6, snapshot point, snapshot E6.
struct Reader {
    conn: SharedDatabase,
    pinned: Option<<SharedDatabase as Connection>::Reads>,
    rng: Rng,
    keys: Zipf,
    sent: u64,
}

impl Reader {
    fn read(&mut self, rec: &mut Recorder, chk: &mut Checker, oracle: &BTreeMap<i64, Digest>) {
        if self.sent.is_multiple_of(PIN_EVERY) {
            self.pinned = chk.sent("pin", Connection::snapshot(&mut self.conn));
        }
        let (on_snapshot, point) =
            [(false, true), (false, false), (true, true), (true, false)][(self.sent % 4) as usize];
        self.sent += 1;
        let key = self.keys.key(&mut self.rng);
        let sql = if point {
            data::e3(key)
        } else {
            data::E6.to_string()
        };
        let class = match (on_snapshot, point) {
            (false, true) => "live_point",
            (false, false) => "live_e6",
            (true, true) => "snap_point",
            (true, false) => "snap_e6",
        };
        let answer = match (&mut self.pinned, on_snapshot) {
            (Some(snapshot), true) => rec.time(class, || snapshot.query(&sql)),
            _ => rec.time(class, || Connection::query(&mut self.conn, &sql)),
        };
        let Some(answer) = chk.sent(class, answer) else {
            return;
        };
        if point {
            chk.check_against(class, digest(&answer.rows), oracle[&key]);
        } else {
            chk.check("E6", class, digest(&answer.rows));
        }
    }
}

pub struct SharedMixed {
    db: SharedDatabase,
    writer: Writer,
    reader: Reader,
    oracle: BTreeMap<i64, Digest>,
}

impl Bench for SharedMixed {
    fn is_primary(class: &str) -> bool {
        class == "commit"
    }

    fn setup(cfg: &Config, dir: &Path) -> Self {
        crate::require_cores(2);
        let scale = cfg.scale();
        let db = loaded_db(cfg, Some(dir), "M2", &scale).0.into_shared();
        SharedMixed {
            writer: Writer {
                rng: Rng::stream(cfg.seed, "writer"),
                next_id: FIRST_NEW_ID,
                scale,
            },
            reader: Reader {
                conn: db.clone(),
                pinned: None,
                rng: Rng::stream(cfg.seed, "reader"),
                keys: Zipf::new(scale.n_r as u64, 0.99),
                sent: 0,
            },
            db,
            oracle: BTreeMap::new(),
        }
    }

    fn prepare(&mut self, _cfg: &Config, _chk: &mut Checker) {
        let scan = self.db.query(data::SCAN_R).expect("oracle scan");
        self.oracle = by_key(&scan.rows, true);
    }

    /// Both clients run for the same `secs` seconds.
    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        let (db, writer, reader, oracle) =
            (&self.db, &mut self.writer, &mut self.reader, &self.oracle);
        let origin = rec.origin();
        let mut reader_chk = chk.fork();
        let reader_rec = std::thread::scope(|s| {
            let reading = s.spawn(|| {
                let mut rec = Recorder::new(origin);
                let t = Instant::now();
                while t.elapsed().as_secs_f64() < secs {
                    reader.read(&mut rec, &mut reader_chk, oracle);
                }
                rec
            });
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < secs {
                let body = writer.next();
                chk.sent("commit", rec.time("commit", || db.transaction(body)));
            }
            reading.join().expect("reader thread")
        });
        rec.merge(reader_rec);
        chk.join(reader_chk);
    }

    /// One client, no reader, in-memory instances of two sizes: the
    /// transactions on an exclusive `Database`, which copies nothing, against
    /// the same on a `SharedDatabase` with a fresh pin before each. The
    /// difference is what copy-on-write costs a commit, and the two sizes show
    /// how it grows with the tables.
    fn layers(&mut self, cfg: &Config, _rec: &Recorder, out: &mut Layers) {
        let pins: Vec<f64> = (0..1_000)
            .map(|_| timed_us(|| self.db.snapshot()).1)
            .collect();
        out.insert("core.snapshot_us".into(), stats::median(&pins));
        for (n_r, label) in [(cfg.n_r() / 11, "2k"), (cfg.n_r(), "22k")] {
            let scale = Scale {
                n_r,
                seed: cfg.seed,
            };
            let mut writer = Writer {
                rng: Rng::stream(cfg.seed, "replay"),
                next_id: FIRST_NEW_ID,
                scale,
            };
            let mut db = loaded_db(cfg, None, "M2", &scale).0;
            let alone: Vec<f64> = (0..REPLAY_COMMITS)
                .map(|_| {
                    let body = writer.next();
                    timed_us(|| db.transaction(body).expect("replay commit")).1
                })
                .collect();
            let db = db.into_shared();
            let pinned: Vec<f64> = (0..REPLAY_COMMITS)
                .map(|_| {
                    let _pin = db.snapshot();
                    let body = writer.next();
                    timed_us(|| db.transaction(body).expect("replay commit")).1
                })
                .collect();
            out.insert(
                format!("core.nocow_commit_us_{label}"),
                stats::median(&alone),
            );
            out.insert(
                format!("core.cow_commit_us_{label}"),
                stats::median(&pinned),
            );
        }
    }

    /// Every acknowledged insert must be there: four per commit.
    fn finish(self, _cfg: &Config, _rec: &mut Recorder, chk: &mut Checker, _out: &mut Layers) {
        let want: Vec<Vec<Value>> = (FIRST_NEW_ID..self.writer.next_id)
            .map(|id| vec![Value::Int(id)])
            .collect();
        let sql = format!("SELECT r.r_id FROM R r WHERE r.r_id >= {FIRST_NEW_ID}");
        if let Some(got) = chk.sent("inserted key set", self.db.query(&sql)) {
            chk.check_against("inserted key set", digest(&got.rows), digest(&want));
        }
    }
}
