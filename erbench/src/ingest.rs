//! `ingest_bounded`: the one workload larger than the program's own cache.
//! A durable database (M2: arrays inline, so reads touch row pages) with a
//! buffer pool of about an eighth of the row pages its data needs is bulk
//! loaded, checkpointed, closed, reopened, and then read.

use crate::data::{self, Scale, BATCH};
use crate::harness::{open_db, Bench, Config, Layers, Recorder, REOPENS};
use crate::oracle::{by_key, digest, Checker, Digest};
use crate::rng::{Rng, Zipf};
use crate::trace::{self, Counters};
use erbium_core::{BulkEntity, Database, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One read in this many is an E2 scan; the others are point reads.
const SCAN_EVERY: u64 = 200;

/// Row pages the loaded instance occupies per thousand `R` entities, measured
/// once (1,658 pages at 80,000). The pool gets an eighth of that.
const PAGES_PER_1000: usize = 21;

pub struct IngestBounded {
    /// `None` only while the database is closed for the reopen.
    db: Option<Database>,
    dir: PathBuf,
    frames: usize,
    scale: Scale,
    batches: Vec<(&'static str, Vec<BulkEntity>)>,
    user_bytes: u64,
    pages: usize,
    oracle: BTreeMap<i64, Digest>,
    rng: Rng,
    keys: Zipf,
    sent: u64,
    recovered: Option<Counters>,
}

impl IngestBounded {
    fn db(&self) -> &Database {
        self.db.as_ref().expect("database is open")
    }
}

impl Bench for IngestBounded {
    fn is_primary(class: &str) -> bool {
        class == "point" || class == "e2"
    }

    /// The inputs (the generated batches) and an empty bounded database.
    fn setup(cfg: &Config, dir: &Path) -> Self {
        let scale = cfg.scale();
        let frames = (scale.n_r * PAGES_PER_1000 / 1000 / 8).max(4);
        IngestBounded {
            batches: data::r_and_s_batches(&scale),
            db: Some(open_db(cfg, Some(dir), Some(frames), "M2")),
            dir: dir.to_path_buf(),
            frames,
            scale,
            user_bytes: 0,
            pages: 0,
            oracle: BTreeMap::new(),
            rng: Rng::stream(cfg.seed, "ingest-reads"),
            keys: Zipf::new(scale.n_r as u64, 0.99),
            sent: 0,
            recovered: None,
        }
    }

    /// Load, checkpoint, close, reopen: each `copy_from` batch, the
    /// checkpoint and the reopen are operations of their own class.
    fn prologue(&mut self, cfg: &Config, rec: &mut Recorder, chk: &mut Checker) {
        let mut db = self.db.take().expect("database is open");
        for (entity, rows) in &self.batches {
            for chunk in rows.chunks(BATCH) {
                let done = rec.time("copy_batch", || db.copy_from(entity, chunk));
                if chk.sent("copy_batch", done).is_some() {
                    self.user_bytes += chunk.iter().map(data::entity_user_bytes).sum::<u64>();
                }
            }
        }
        let cat = db.catalog();
        self.pages = cat
            .table_names()
            .iter()
            .map(|n| cat.table(n).expect("listed").page_count())
            .sum();
        chk.sent("checkpoint", rec.time("checkpoint", || db.checkpoint()));
        self.recovered = Some(Counters::read());
        let mut db = Some(db);
        for _ in 0..REOPENS {
            drop(db.take());
            let reopened = rec.time("reopen", || {
                Database::open_with(&self.dir, cfg.durability(Some(self.frames)))
            });
            db = chk.sent("reopen", reopened);
        }
        self.db = Some(db.expect("reopen the loaded database"));
        // Not an operation: the scan the point reads are checked against.
        self.oracle = by_key(
            &self.db().query(data::SCAN_R).expect("oracle scan").rows,
            true,
        );
    }

    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            self.sent += 1;
            if self.sent.is_multiple_of(SCAN_EVERY) {
                let answer = rec.time("e2", || self.db().query(data::E2));
                if let Some(answer) = chk.sent("e2", answer) {
                    chk.check("E2", "M2 bounded", digest(&answer.rows));
                }
            } else {
                let key = self.keys.key(&mut self.rng);
                let sql = data::e3(key);
                let answer = rec.time("point", || self.db().query(&sql));
                if let Some(answer) = chk.sent("point", answer) {
                    chk.check_against("point", digest(&answer.rows), self.oracle[&key]);
                }
            }
        }
    }

    /// Every loaded key must have come back from the reopen.
    fn finish(self, cfg: &Config, rec: &mut Recorder, chk: &mut Checker, out: &mut Layers) {
        for (sql, n) in [
            ("SELECT r.r_id FROM R r", self.scale.n_r as i64),
            ("SELECT s.s_id FROM S s", self.scale.n_s()),
        ] {
            let want: Vec<Vec<Value>> = (0..n).map(|id| vec![Value::Int(id)]).collect();
            if let Some(got) = chk.sent("key set after reopen", self.db().query(sql)) {
                chk.check_against("key set after reopen", digest(&got.rows), digest(&want));
            }
        }
        let load_s: f64 = rec.latencies(|c| c == "copy_batch").iter().sum::<f64>() / 1e3;
        let rows: usize = self.batches.iter().map(|b| b.1.len()).sum();
        out.insert("wl.load_rows_per_s".into(), rows as f64 / load_s);
        out.insert(
            "wl.disk_bytes_per_user_byte".into(),
            trace::dir_bytes(&self.dir, "") as f64 / self.user_bytes as f64,
        );
        if cfg.trace {
            let pool = self.db().buffer_pool_stats();
            out.insert("storage.pool_evictions".into(), pool.evictions as f64);
            out.insert(
                "storage.pool_writebacks".into(),
                pool.dirty_writebacks as f64,
            );
            out.insert("storage.pool_frames".into(), self.frames as f64);
            out.insert("storage.pages_total".into(), self.pages as f64);
            let recovered = self.recovered.as_ref().expect("prologue ran");
            out.insert(
                "storage.recover_replayed_groups".into(),
                recovered.delta("erbium_recovery_replayed_groups_total") / REOPENS as f64,
            );
            trace::checkpoints_into(out, rec, &[trace::dir_bytes(&self.dir, "snapshot") as f64]);
        }
    }
}
