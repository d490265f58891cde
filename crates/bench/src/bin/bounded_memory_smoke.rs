//! Bounded-memory smoke for the tier-1 gate: run the experiment workload
//! under every paper mapping with a row-page buffer pool of **4 frames**,
//! on a dataset that spans strictly more pages than the budget, and prove
//! three things per mapping:
//!
//! 1. the pool actually worked for its living — pages were evicted, dirty
//!    pages were written back to the spill file, and cold pages were
//!    faulted back in (`misses > 0`);
//! 2. memory is bounded — after the end-of-workload reclaim the resident
//!    frame count is back at (or under) the budget, and the process-wide
//!    peak RSS stays under a fixed ceiling across the whole sweep;
//! 3. nothing changed semantically — the M1–M6 query results and the full
//!    row-store fingerprint are bit-identical to an unbounded reopen of
//!    the same database directory.
//!
//! Exits nonzero (with a message) on the first violated invariant.

use erbium_bench::{mapping_by_name, queries, MAPPING_NAMES};
use erbium_core::{BulkEntity, Database, DurabilityOptions};
use erbium_storage::Value;

const FRAME_BUDGET: usize = 4;
/// Process-wide peak-RSS tripwire (KiB). Generous on purpose: the point
/// is to catch the pool silently keeping every page resident (which grows
/// with the dataset), not to shave allocator noise.
const PEAK_RSS_CEILING_KIB: u64 = 512 * 1024;

const DDL: &str = "
    CREATE ENTITY R (r_id int KEY, r_a text, r_b int,
        r_mv1 int MULTIVALUED, r_mv2 int MULTIVALUED,
        r_mv3 text MULTIVALUED) PARTIAL DISJOINT;
    CREATE ENTITY R1 EXTENDS R (r1_a int NULLABLE, r1_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R2 EXTENDS R (r2_a int NULLABLE, r2_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R3 EXTENDS R1 (r3_a int NULLABLE);
    CREATE ENTITY R4 EXTENDS R2 (r4_a text NULLABLE);
    CREATE ENTITY S (s_id int KEY, s_a text, s_b int);
    CREATE RELATIONSHIP s_s1 FROM S1 MANY TOTAL TO S ONE;
    CREATE RELATIONSHIP s_s2 FROM S2 MANY TOTAL TO S ONE;
    CREATE WEAK ENTITY S1 OWNED BY S VIA s_s1
        (s1_no int KEY, s1_a int NULLABLE, s1_b text NULLABLE);
    CREATE WEAK ENTITY S2 OWNED BY S VIA s_s2 (s2_no int KEY, s2_a text NULLABLE);
    CREATE RELATIONSHIP r_s FROM R MANY TO S ONE;
    CREATE RELATIONSHIP r2_s1 FROM R2 MANY TO S1 MANY;
    CREATE RELATIONSHIP r1_r3 FROM R1 ROLE src MANY TO R3 ROLE dst MANY;
";

fn fail(msg: String) -> ! {
    eprintln!("bounded_memory_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// `VmHWM` (peak resident set) of this process in KiB, from procfs.
/// `None` where procfs is unavailable (non-Linux dev machines).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Canonical answer digest: every experiment query's sorted result rows,
/// plus a sorted row-store fingerprint of every table (factorized members
/// and link tables included). The fingerprint part deliberately walks the *row* pages (the
/// columnar working set answers most of the queries), so a bounded run
/// must fault evicted pages back in to produce it.
fn digest(db: &Database) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let sweep = [
        queries::E1,
        queries::E2,
        &queries::e3(2),
        queries::E4,
        queries::E5,
        queries::E6,
        queries::E8,
        queries::E9A,
        queries::E9B,
    ];
    for sql in sweep {
        let mut rows: Vec<String> = db
            .query(sql)
            .unwrap_or_else(|e| fail(format!("query failed: {e}\n{sql}")))
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        writeln!(out, "Q {sql} -> {rows:?}").unwrap();
    }
    let cat = db.catalog();
    let mut names = cat.table_names();
    names.sort();
    for name in names {
        let t = cat.table(&name).unwrap();
        let mut rows: Vec<String> = t.scan().map(|(rid, r)| format!("{}:{r:?}", rid.0)).collect();
        rows.sort();
        writeln!(out, "T {name} {rows:?}").unwrap();
    }
    out
}

/// Seed the experiment instance through the public bulk + CRUD surface:
/// enough `S` and `R2` rows to span several 64 KiB row pages, weak `S1`
/// members, and `r_s` / `r2_s1` relationship instances.
fn seed(db: &mut Database) {
    let s_batch: Vec<BulkEntity> = (0..1600)
        .map(|i| {
            BulkEntity::new(&[
                ("s_id", Value::Int(i)),
                ("s_a", Value::str(format!("s{i}"))),
                ("s_b", Value::Int(i % 13)),
            ])
        })
        .collect();
    db.copy_from("S", &s_batch).unwrap_or_else(|e| fail(format!("copy_from S: {e}")));
    let r_batch: Vec<BulkEntity> = (0..600)
        .map(|i| {
            BulkEntity::new(&[
                ("r_id", Value::Int(i)),
                ("r_a", Value::str(format!("r{i}"))),
                ("r_b", Value::Int(i % 7)),
                ("r_mv1", Value::Array(vec![Value::Int(i), Value::Int(i + 1)])),
                ("r_mv2", Value::Array(vec![Value::Int(-i)])),
                ("r_mv3", Value::Array(vec![Value::str(format!("m{}", i % 3))])),
                ("r2_a", Value::Int(1000 + i)),
                ("r2_b", Value::str(format!("b{i}"))),
            ])
        })
        .collect();
    db.copy_from("R2", &r_batch).unwrap_or_else(|e| fail(format!("copy_from R2: {e}")));
    for no in 0..40i64 {
        db.insert(
            "S1",
            &[("s_id", Value::Int(no % 16)), ("s1_no", Value::Int(no)), ("s1_a", Value::Int(no))],
        )
        .unwrap_or_else(|e| fail(format!("insert S1 #{no}: {e}")));
    }
    for i in 0..40i64 {
        db.link("r2_s1", &[Value::Int(i)], &[Value::Int(i % 16), Value::Int(i % 40)], &[])
            .unwrap_or_else(|e| fail(format!("link r2_s1 #{i}: {e}")));
        db.link("r_s", &[Value::Int(i)], &[Value::Int(i)], &[])
            .unwrap_or_else(|e| fail(format!("link r_s #{i}: {e}")));
    }
    // A small mutation tail so recovery replays more than bulk groups.
    for i in 0..8i64 {
        db.update_entity("S", &[Value::Int(i)], &[("s_b", Value::Int(999))])
            .unwrap_or_else(|e| fail(format!("update S #{i}: {e}")));
    }
    db.delete_entity("R2", &[Value::Int(599)])
        .unwrap_or_else(|e| fail(format!("delete R2: {e}")));
}

fn run_mapping(name: &str) {
    let dir = std::env::temp_dir()
        .join(format!("erbium-bounded-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts =
        DurabilityOptions { buffer_pool_frames: Some(FRAME_BUDGET), ..Default::default() };

    let mut db = Database::open_with(&dir, opts.clone())
        .unwrap_or_else(|e| fail(format!("[{name}] open bounded: {e}")));
    db.execute(DDL).unwrap_or_else(|e| fail(format!("[{name}] ddl: {e}")));
    db.install(mapping_by_name(name)).unwrap_or_else(|e| fail(format!("[{name}] install: {e}")));
    seed(&mut db);

    let pages: usize = {
        let cat = db.catalog();
        cat.table_names().iter().map(|n| cat.table(n).unwrap().page_count()).sum()
    };
    if pages <= FRAME_BUDGET {
        fail(format!("[{name}] dataset spans {pages} pages — not larger than the {FRAME_BUDGET}-frame budget"));
    }

    let bounded = digest(&db);
    db.checkpoint().unwrap_or_else(|e| fail(format!("[{name}] checkpoint: {e}")));
    let stats = db.buffer_pool_stats();
    if stats.evictions == 0 || stats.dirty_writebacks == 0 || stats.misses == 0 {
        fail(format!("[{name}] pool never cycled pages: {stats:?}"));
    }
    if stats.resident > FRAME_BUDGET {
        fail(format!("[{name}] {} pages resident after reclaim (budget {FRAME_BUDGET})", stats.resident));
    }
    drop(db);

    // Unbounded reopen of the same directory: recovery through an
    // unconstrained pool must land on the exact same answers and rows.
    let udb =
        Database::open(&dir).unwrap_or_else(|e| fail(format!("[{name}] open unbounded: {e}")));
    if digest(&udb) != bounded {
        fail(format!("[{name}] bounded and unbounded runs disagree"));
    }
    drop(udb);

    // And a bounded recovery of the same state agrees too.
    let bdb = Database::open_with(&dir, opts)
        .unwrap_or_else(|e| fail(format!("[{name}] bounded reopen: {e}")));
    if digest(&bdb) != bounded {
        fail(format!("[{name}] bounded recovery disagrees with the original run"));
    }
    drop(bdb);
    let _ = std::fs::remove_dir_all(&dir);
    println!("bounded_memory_smoke: [{name}] OK ({pages} pages through {FRAME_BUDGET} frames)");
}

fn main() {
    for name in MAPPING_NAMES {
        run_mapping(name);
    }
    match peak_rss_kib() {
        Some(kib) if kib > PEAK_RSS_CEILING_KIB => fail(format!(
            "peak RSS {kib} KiB exceeds the {PEAK_RSS_CEILING_KIB} KiB ceiling"
        )),
        Some(kib) => println!("bounded_memory_smoke: peak RSS {kib} KiB (ceiling {PEAK_RSS_CEILING_KIB})"),
        None => println!("bounded_memory_smoke: procfs unavailable; RSS ceiling not checked"),
    }
    println!("bounded_memory_smoke: OK");
}
