//! `durable_crud`: one client, one transaction per operation, on a durable
//! database under M1, the mapping that spreads an entity over the most tables.
//! The CRUD translator and the WAL, fsync, delta checkpoints and recovery do
//! the work; a point read after every tenth write is a side dish.

use crate::data::{self, Scale};
use crate::harness::{loaded_db, timed_us, Bench, Config, Layers, Recorder, REOPENS};
use crate::oracle::{digest, Checker, Digest};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, is_write, Counters};
use erbium_core::{Database, DbResult, Tx, Value};
use erbium_storage::wal::scan_wal;
use erbium_storage::{SyncPolicy, Wal, WalRecord, WAL_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Twenty operations: 10 inserts, 5 updates, 3 deletes, a link and an unlink.
const PATTERN: [&str; 20] = [
    "insert", "update", "insert", "delete", "insert", "update", "insert", "link", "insert",
    "update", "insert", "delete", "insert", "update", "insert", "unlink", "insert", "update",
    "insert", "delete",
];
/// Keys of inserted entities start here, above every loaded key.
const FIRST_NEW_ID: i64 = 10_000_000;

/// The transactions of this workload on any database, durable or not, and
/// the client's own record of what it wrote.
pub struct Crud {
    /// `None` only while the database is closed for the reopen.
    db: Option<Database>,
    dir: Option<PathBuf>,
    scale: Scale,
    rng: Rng,
    sent: u64,
    next_id: i64,
    /// Commits between checkpoints.
    cycle: u64,
    since_checkpoint: u64,
    /// Live `R1` keys: loaded ones and inserted ones.
    live: Vec<i64>,
    /// `r_b` of every entity this client wrote; `None` once deleted.
    written: BTreeMap<i64, Option<i64>>,
    /// `r1_r3` instances this client created.
    links: BTreeSet<(i64, i64)>,
    user_bytes: u64,
    checkpoint_bytes: Vec<f64>,
}

impl Crud {
    fn new(cfg: &Config, dir: Option<&Path>) -> Crud {
        let scale = cfg.scale();
        let (db, user_bytes) = loaded_db(cfg, dir, "M1", &scale);
        Crud {
            db: Some(db),
            dir: dir.map(Path::to_path_buf),
            scale,
            rng: Rng::stream(cfg.seed, "crud-ops"),
            sent: 0,
            next_id: FIRST_NEW_ID,
            cycle: if cfg.smoke { 20 } else { 200 },
            since_checkpoint: 0,
            live: (0..scale.n_r as i64).filter(|id| id % 5 == 1).collect(),
            written: BTreeMap::new(),
            links: BTreeSet::new(),
            user_bytes,
            checkpoint_bytes: Vec::new(),
        }
    }

    fn db(&mut self) -> &mut Database {
        self.db.as_mut().expect("database is open")
    }

    /// Position and key of a random live `R1`.
    fn pick_live(&mut self) -> (usize, i64) {
        let at = self.rng.below(self.live.len() as u64) as usize;
        (at, self.live[at])
    }

    /// A loaded `R3` key: `r_id % 5 == 3`.
    fn pick_r3(&mut self) -> i64 {
        self.rng.below(self.scale.n_r as u64 / 5) as i64 * 5 + 3
    }

    /// Run `f` as one transaction of `class`; whether it was acknowledged.
    fn commit(
        &mut self,
        class: &str,
        rec: &mut Recorder,
        chk: &mut Checker,
        f: impl FnOnce(&mut Tx<'_>) -> DbResult<()>,
    ) -> bool {
        let db = self.db.as_mut().expect("database is open");
        let done = rec.time(class, || db.transaction(f));
        self.since_checkpoint += 1;
        chk.sent(class, done).is_some()
    }

    /// One transaction of the pattern. Returns the key it wrote.
    fn write(&mut self, rec: &mut Recorder, chk: &mut Checker) -> i64 {
        let class = PATTERN[(self.sent % 20) as usize];
        self.sent += 1;
        let key = |id: i64| [Value::Int(id)];
        match class {
            "insert" => {
                let id = self.next_id;
                self.next_id += 1;
                let s_target = self.rng.range(0, self.scale.n_s());
                let e = data::r_entity(&mut self.rng, id, "R1", s_target);
                let (attrs, links) = data::insert_args(&e);
                if self.commit(class, rec, chk, |tx| tx.insert_linked("R1", &attrs, &links)) {
                    self.user_bytes += data::entity_user_bytes(&e);
                    self.live.push(id);
                    let Value::Int(r_b) = e.data["r_b"] else {
                        unreachable!("r_b is an int")
                    };
                    self.written.insert(id, Some(r_b));
                }
                id
            }
            "update" => {
                let (_, id) = self.pick_live();
                let r_b = self.rng.range(0, 100);
                let mv1 = (0..3)
                    .map(|_| Value::Int(self.rng.range(0, 1_000)))
                    .collect();
                let changes = [("r_b", Value::Int(r_b)), ("r_mv1", Value::Array(mv1))];
                if self.commit(class, rec, chk, |tx| {
                    tx.update_entity("R1", &key(id), &changes)
                }) {
                    self.user_bytes += changes
                        .iter()
                        .map(|(_, v)| data::user_bytes(v))
                        .sum::<u64>();
                    self.written.insert(id, Some(r_b));
                }
                id
            }
            "delete" => {
                let (at, id) = self.pick_live();
                if self.commit(class, rec, chk, |tx| tx.delete_entity("R1", &key(id))) {
                    self.live.swap_remove(at);
                    self.written.insert(id, None);
                    self.links.retain(|l| l.0 != id);
                }
                id
            }
            "link" => {
                // From an entity this client inserted, so that the pair cannot
                // be one of the loaded ones.
                let (from, to) = loop {
                    let (_, from) = self.pick_live();
                    let to = self.pick_r3();
                    if from >= FIRST_NEW_ID && !self.links.contains(&(from, to)) {
                        break (from, to);
                    }
                };
                if self.commit(class, rec, chk, |tx| {
                    tx.link("r1_r3", &key(from), &key(to), &[])
                }) {
                    self.user_bytes += 16;
                    self.links.insert((from, to));
                }
                from
            }
            _ => {
                let Some(&(from, to)) = self.links.iter().next() else {
                    // The linked entity has been deleted since.
                    return self.write(rec, chk);
                };
                if self.commit(class, rec, chk, |tx| {
                    tx.unlink("r1_r3", &key(from), &key(to))
                }) {
                    self.links.remove(&(from, to));
                }
                from
            }
        }
    }

    /// What a point read of `key` must answer, if this client wrote it.
    fn want(&self, key: i64) -> Option<Digest> {
        self.written.get(&key).map(|r_b| match r_b {
            Some(r_b) => digest(&[vec![Value::Int(key), Value::Int(*r_b)]]),
            None => Digest::default(),
        })
    }

    fn read(&mut self, key: i64, rec: &mut Recorder, chk: &mut Checker) {
        let sql = format!("SELECT r.r_id, r.r_b FROM R r WHERE r.r_id = {key}");
        let db = self.db.as_ref().expect("database is open");
        let answer = rec.time("read", || db.query(&sql));
        if let (Some(answer), Some(want)) = (chk.sent("read", answer), self.want(key)) {
            chk.check_against("read-your-write", digest(&answer.rows), want);
        }
    }

    fn checkpoint(&mut self, rec: &mut Recorder, chk: &mut Checker) {
        let db = self.db.as_mut().expect("database is open");
        let done = rec.time("checkpoint", || db.checkpoint());
        chk.sent("checkpoint", done);
        self.since_checkpoint = 0;
        // The newest snapshot file, base or delta, is the one just written.
        let newest = std::fs::read_dir(self.dir.as_ref().expect("durable"))
            .expect("list database directory")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("snapshot"))
            .filter_map(|e| e.metadata().ok())
            .max_by_key(|m| m.modified().ok());
        self.checkpoint_bytes.extend(newest.map(|m| m.len() as f64));
    }

    fn step(&mut self, rec: &mut Recorder, chk: &mut Checker) {
        let key = self.write(rec, chk);
        if self.sent.is_multiple_of(10) {
            self.read(key, rec, chk);
        }
        if self.dir.is_some() && self.since_checkpoint >= self.cycle {
            self.checkpoint(rec, chk);
        }
    }

    fn run_for(&mut self, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            self.step(rec, chk);
        }
    }
}

/// What one close-and-reopen found: the directory just before it, and what
/// recovery replayed.
struct Recovery {
    disk_bytes: u64,
    /// User bytes in the writes acknowledged by then, the load included.
    user_bytes: u64,
    delta_files: usize,
    wal_groups: Vec<(u64, Vec<WalRecord>)>,
    reopen_ms: Vec<f64>,
    replayed_groups: f64,
    /// WAL bytes per commit group over the whole prologue, whose operations
    /// are counted and not timed, so that it repeats exactly.
    wal_bytes_per_commit: f64,
}

impl Crud {
    /// Go on to half a cycle after a checkpoint, so that the WAL suffix a
    /// reopen replays always has the same length.
    fn settle(&mut self, rec: &mut Recorder, chk: &mut Checker) {
        while self.since_checkpoint != self.cycle / 2 {
            self.step(rec, chk);
        }
    }

    /// Close without a final checkpoint and reopen, `times` in a row, and read
    /// back everything acknowledged: the key set by digest, and fifty written
    /// keys one by one. The process stays alive, so this proves WAL and delta
    /// replay, not fsync ordering.
    fn reopen(&mut self, cfg: &Config, chk: &mut Checker, times: usize) -> Recovery {
        let dir = self.dir.clone().expect("durable");
        let delta_files = std::fs::read_dir(&dir)
            .expect("list database directory")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".delta."))
            .count();
        let mut found = Recovery {
            disk_bytes: trace::dir_bytes(&dir, ""),
            user_bytes: self.user_bytes,
            delta_files,
            wal_groups: scan_wal(&dir.join(WAL_FILE)).expect("scan WAL").committed,
            reopen_ms: Vec::new(),
            replayed_groups: 0.0,
            wal_bytes_per_commit: 0.0,
        };
        let counters = Counters::read();
        for _ in 0..times {
            drop(self.db.take());
            let (reopened, us) = timed_us(|| Database::open_with(&dir, cfg.durability(None)));
            self.db = Some(chk.sent("reopen", reopened).expect("reopen the database"));
            found.reopen_ms.push(us / 1e3);
        }
        found.replayed_groups =
            counters.delta("erbium_recovery_replayed_groups_total") / times as f64;

        // Every live R1, and every R3 (an R1 too, and never deleted).
        let r3 = (0..self.scale.n_r as i64).filter(|id| id % 5 == 3);
        let want: Vec<Vec<Value>> = self
            .live
            .iter()
            .copied()
            .chain(r3)
            .map(|id| vec![Value::Int(id)])
            .collect();
        let got = self.db().query("SELECT r.r_id FROM R1 r");
        if let Some(got) = chk.sent("key set after reopen", got) {
            chk.check_against("key set after reopen", digest(&got.rows), digest(&want));
        }
        let written: Vec<i64> = self.written.keys().copied().collect();
        let mut spot_reads = Recorder::new(Instant::now());
        for &key in written.iter().step_by((written.len() / 50).max(1)) {
            self.read(key, &mut spot_reads, chk);
        }
        found
    }
}

pub struct DurableCrud {
    crud: Crud,
    recovery: Option<Recovery>,
}

impl Bench for DurableCrud {
    fn is_primary(class: &str) -> bool {
        is_write(class)
    }

    fn setup(cfg: &Config, dir: &Path) -> Self {
        DurableCrud {
            crud: Crud::new(cfg, Some(dir)),
            recovery: None,
        }
    }

    /// A recovery of fixed size, so that its time, its memory and the bytes
    /// on disk repeat: four checkpoint cycles, half a cycle of WAL, reopen.
    fn prologue(&mut self, cfg: &Config, rec: &mut Recorder, chk: &mut Checker) {
        let counters = Counters::read();
        while self.crud.checkpoint_bytes.len() < 4 {
            self.crud.step(rec, chk);
        }
        self.crud.settle(rec, chk);
        let wal_bytes_per_commit = counters.delta("erbium_wal_bytes_total")
            / counters.delta("erbium_wal_commit_groups_total");
        let found = self.crud.reopen(cfg, chk, REOPENS);
        for &ms in &found.reopen_ms {
            rec.record("reopen", ms);
        }
        self.recovery = Some(Recovery {
            wal_bytes_per_commit,
            ..found
        });
    }

    fn run(&mut self, _cfg: &Config, secs: f64, rec: &mut Recorder, chk: &mut Checker) {
        self.crud.run_for(secs, rec, chk)
    }

    /// The same transactions on an in-memory database: the CRUD translator
    /// and the undo log without WAL, fsync or checkpoint.
    fn layers(&mut self, cfg: &Config, rec: &Recorder, out: &mut Layers) {
        let mut replay = Crud::new(cfg, None);
        let mut replay_rec = Recorder::new(Instant::now());
        replay.run_for(
            cfg.seconds.min(1.0),
            &mut replay_rec,
            &mut Checker::default(),
        );
        let crud_us = replay_rec.p50(is_write) * 1e3;
        out.insert("mapping.crud_us".into(), crud_us);
        out.insert(
            "mapping.crud_share".into(),
            crud_us / (rec.p50(is_write) * 1e3),
        );
    }

    /// Once more close, reopen and read back, now with everything the
    /// measured phase wrote. Verification only: not timed, not in the metrics.
    fn finish(mut self, cfg: &Config, rec: &mut Recorder, chk: &mut Checker, out: &mut Layers) {
        self.crud.settle(&mut Recorder::new(Instant::now()), chk);
        self.crud.reopen(cfg, chk, 1);
        let found = self.recovery.expect("prologue ran");
        // The loaded instance counts as user bytes, the measured phase's
        // later writes do not: both sides are taken at the first reopen.
        out.insert(
            "wl.disk_bytes_per_user_byte".into(),
            found.disk_bytes as f64 / found.user_bytes as f64,
        );
        if cfg.trace {
            // The WAL suffix the first reopen replayed, appended to a scratch log.
            let scratch = self.crud.dir.expect("durable").join("replay.wal");
            let mut wal = Wal::open(scratch, SyncPolicy::Never, 1).expect("scratch WAL");
            let appends: Vec<f64> = found
                .wal_groups
                .iter()
                .map(|(_, records)| timed_us(|| wal.append_group(records).expect("append")).1)
                .collect();
            out.insert("storage.wal_append_us".into(), stats::median(&appends));
            out.insert(
                "storage.wal_bytes_per_commit".into(),
                found.wal_bytes_per_commit,
            );
            out.insert(
                "storage.recover_replayed_groups".into(),
                found.replayed_groups,
            );
            out.insert(
                "storage.recover_delta_files".into(),
                found.delta_files as f64,
            );
            trace::checkpoints_into(out, rec, &self.crud.checkpoint_bytes);
        }
    }
}
