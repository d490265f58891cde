//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **A-index** — the paper attributes M1's 145x point-lookup loss to a
//!   missing index on the side table; adding one should close most of the
//!   gap (the rest is the extra fetch);
//! * **A-m6-format** — denormalized vs. factorized co-location: join
//!   speed and single-entity scan speed (the paper argues compact
//!   multi-relation formats are what make M6 viable);
//! * **A-crud** — logical insert and entity-centric erase cost across
//!   mappings (the write amplification the mapping choice implies);
//! * **A-remap** — full physical migration between mappings;
//! * **A-stats** — cost-based optimization on vs. off: the same queries
//!   over the same instance, with and without ANALYZE-gathered statistics
//!   (stats unlock build-side selection, join reordering, and
//!   selectivity-ranked filters; without them those passes are no-ops);
//! * **A-bufferpool** — row-page buffer pool unbounded vs. an 8-frame
//!   budget: full row-store scan cost when every page must be spilled and
//!   re-faulted each pass, and query cost over the same bounded catalog
//!   (the columnar working set answers queries, so bounding row pages
//!   should cost queries ~nothing). Pool hit/miss/eviction counters are
//!   printed once at the end.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use erbium_bench::{build, mapping_by_name, queries, BenchDb};
use erbium_datagen::{populate_experiment, ExperimentConfig};
use erbium_evolve::Migrator;
use erbium_mapping::{EntityData, EntityStore, Lowering};
use erbium_model::fixtures;
use erbium_storage::{BufferPool, Catalog, IndexKind, Transaction, Value};

fn config() -> ExperimentConfig {
    ExperimentConfig { n_r: 4_000, mv_avg: 3, seed: 42 }
}

fn bench_index_ablation(c: &mut Criterion) {
    let cfg = config();
    let mut g = c.benchmark_group("A-index");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let sql = queries::e3((cfg.n_r / 2) as i64);

    let db = build("M1", &cfg);
    g.bench_function("M1_no_side_index", |b| {
        b.iter(|| std::hint::black_box(db.run(&sql)))
    });

    let mut db2 = build("M1", &cfg);
    db2.catalog
        .table_mut("R__r_mv1")
        .unwrap()
        .create_index("side_by_rid", vec![0], IndexKind::Hash)
        .unwrap();
    g.bench_function("M1_with_side_index", |b| {
        b.iter(|| std::hint::black_box(db2.run(&sql)))
    });

    let db3 = build("M2", &cfg);
    g.bench_function("M2_inline", |b| b.iter(|| std::hint::black_box(db3.run(&sql))));
    g.finish();
}

fn bench_m6_format(c: &mut Criterion) {
    let cfg = config();
    let mut g = c.benchmark_group("A-m6-format");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let dbs = [build("M6d", &cfg), build("M6f", &cfg)];
    for db in &dbs {
        g.bench_function(format!("{}_join", db.name), |b| {
            b.iter(|| std::hint::black_box(db.run(queries::E9A)))
        });
        g.bench_function(format!("{}_single_entity", db.name), |b| {
            b.iter(|| std::hint::black_box(db.run(queries::E9B)))
        });
    }
    g.finish();
}

fn bench_crud(c: &mut Criterion) {
    let cfg = ExperimentConfig { n_r: 2_000, mv_avg: 3, seed: 42 };
    let mut g = c.benchmark_group("A-crud");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for name in ["M1", "M2", "M3", "M4", "M5"] {
        // Logical insert of an R3 instance (multi-table under M1, single
        // row under M3/M4).
        g.bench_function(format!("insert_r3_{name}"), |b| {
            let mut db = build(name, &cfg);
            let mut next_id = cfg.n_r as i64;
            b.iter(|| {
                let store = EntityStore::new(&db.lowering);
                let mut data = EntityData::default();
                data.insert("r_id".into(), Value::Int(next_id));
                data.insert("r_a".into(), Value::str("bench"));
                data.insert("r_b".into(), Value::Int(1));
                data.insert("r_mv1".into(), Value::Array(vec![Value::Int(1), Value::Int(2)]));
                data.insert("r_mv2".into(), Value::Array(vec![Value::Int(3)]));
                data.insert("r_mv3".into(), Value::Array(vec![Value::str("x")]));
                data.insert("r1_a".into(), Value::Int(5));
                data.insert("r1_b".into(), Value::str("y"));
                data.insert("r3_a".into(), Value::Int(7));
                let mut txn = Transaction::new();
                store
                    .insert(&mut db.catalog, &mut txn, "R3", &data, &[("r_s", vec![Value::Int(0)])])
                    .unwrap();
                txn.commit();
                next_id += 1;
            });
        });
        // Entity-centric erase: each iteration deletes an instance the
        // (untimed) setup inserted, so the pool never runs dry.
        g.bench_function(format!("erase_{name}"), |b| {
            let mut db = build(name, &cfg);
            let next_id = std::cell::Cell::new(10 * cfg.n_r as i64);
            let db = std::cell::RefCell::new(&mut db);
            b.iter_batched(
                || {
                    let id = next_id.get();
                    next_id.set(id + 1);
                    let mut dbr = db.borrow_mut();
                    let lowering = dbr.lowering.clone();
                    let store = EntityStore::new(&lowering);
                    let mut data = EntityData::default();
                    data.insert("r_id".into(), Value::Int(id));
                    data.insert("r_a".into(), Value::str("bench"));
                    data.insert("r_b".into(), Value::Int(1));
                    data.insert("r_mv1".into(), Value::Array(vec![Value::Int(1)]));
                    data.insert("r_mv2".into(), Value::Array(vec![]));
                    data.insert("r_mv3".into(), Value::Array(vec![]));
                    data.insert("r2_a".into(), Value::Int(2));
                    data.insert("r2_b".into(), Value::str("y"));
                    let mut txn = Transaction::new();
                    store
                        .insert(&mut dbr.catalog, &mut txn, "R2", &data, &[("r_s", vec![Value::Int(0)])])
                        .unwrap();
                    txn.commit();
                    id
                },
                |id| {
                    let mut dbr = db.borrow_mut();
                    let lowering = dbr.lowering.clone();
                    let store = EntityStore::new(&lowering);
                    let mut txn = Transaction::new();
                    store.delete(&mut dbr.catalog, &mut txn, "R", &[Value::Int(id)]).unwrap();
                    txn.commit();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let cfg = config();
    let mut g = c.benchmark_group("A-stats");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // E6 is the skewed VIA join (build-side choice); E5 under M1 is the
    // paper's 3-way hierarchy join (join-order choice).
    for (qid, sql) in [("E5", queries::E5), ("E6", queries::E6)] {
        for name in ["M1", "M4"] {
            let db = build(name, &cfg);
            g.bench_function(format!("{name}_{qid}_stats_off"), |b| {
                b.iter(|| std::hint::black_box(db.run(sql)))
            });
            let mut db2 = build(name, &cfg);
            db2.catalog.analyze();
            g.bench_function(format!("{name}_{qid}_stats_on"), |b| {
                b.iter(|| std::hint::black_box(db2.run(sql)))
            });
        }
    }
    g.finish();
}

fn bench_remap(c: &mut Criterion) {
    let cfg = ExperimentConfig { n_r: 1_000, mv_avg: 3, seed: 42 };
    let mut g = c.benchmark_group("A-remap");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for target in ["M2", "M3", "M4", "M5"] {
        g.bench_function(format!("M1_to_{target}"), |b| {
            b.iter_batched(
                || build("M1", &cfg),
                |mut db| {
                    let mapping = erbium_bench::mapping_by_name(target);
                    Migrator::remap(&mut db.catalog, &db.lowering, mapping).unwrap();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

/// Like [`build`], but the catalog's row pages live behind a bounded
/// buffer pool: `frames` resident pages, everything else spilled to a
/// transient file under the system temp dir.
fn build_bounded(name: &str, cfg: &ExperimentConfig, frames: usize) -> BenchDb {
    let spill = std::env::temp_dir()
        .join(format!("erbium-ablation-bufferpool-{}-{name}-{frames}.erb", std::process::id()));
    let schema = fixtures::experiment();
    let mapping = mapping_by_name(name);
    let lowering = Lowering::build(&schema, &mapping).expect("paper mapping is valid");
    let mut catalog = Catalog::with_pool(BufferPool::bounded(frames, spill));
    lowering.install(&mut catalog).expect("fresh catalog");
    let stats = populate_experiment(&mut catalog, &lowering, cfg).expect("population succeeds");
    catalog.reclaim_pages();
    BenchDb { name: name.to_string(), catalog, lowering, stats }
}

/// Full row-store walk: every row of every plain table. Under a bounded
/// pool this faults every non-resident page back from the spill file.
fn scan_all_rows(catalog: &Catalog) -> usize {
    catalog
        .table_names()
        .iter()
        .map(|n| catalog.table(n).unwrap().scan().count())
        .sum()
}

fn bench_bufferpool(c: &mut Criterion) {
    const FRAMES: usize = 8;
    let cfg = config();
    let mut g = c.benchmark_group("A-bufferpool");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));

    // Unbounded scan: all pages resident, pure in-memory walk.
    let db = build("M1", &cfg);
    g.bench_function("M1_scan_unbounded", |b| {
        b.iter(|| std::hint::black_box(scan_all_rows(&db.catalog)))
    });

    // Bounded scan: each pass reclaims down to the budget first, so the
    // walk re-faults (and, the first time, writes back) nearly every page.
    // This is the worst case — a working set FRAMES/page_count the size of
    // the data, touched in full every pass.
    let mut bdb = build_bounded("M1", &cfg, FRAMES);
    g.bench_function(format!("M1_scan_bounded_{FRAMES}f"), |b| {
        b.iter(|| {
            bdb.catalog.reclaim_pages();
            std::hint::black_box(scan_all_rows(&bdb.catalog))
        })
    });
    let scan_stats = bdb.catalog.pool().stats();

    // Query cost under the same bounded catalog: E1 (scan-shaped) and E5
    // (3-way hierarchy join) run off the columnar working set, so the
    // frame budget on row pages should be ~invisible here.
    for (qid, sql) in [("E1", queries::E1), ("E5", queries::E5)] {
        g.bench_function(format!("M1_{qid}_unbounded"), |b| {
            b.iter(|| std::hint::black_box(db.run(sql)))
        });
        g.bench_function(format!("M1_{qid}_bounded_{FRAMES}f"), |b| {
            b.iter(|| {
                bdb.catalog.reclaim_pages();
                std::hint::black_box(bdb.run(sql))
            })
        });
    }
    g.finish();

    let end = bdb.catalog.pool().stats();
    let hit_rate = |s: &erbium_storage::BufferPoolStats| {
        100.0 * s.hits as f64 / (s.hits + s.misses).max(1) as f64
    };
    eprintln!(
        "A-bufferpool pool counters (budget {FRAMES} frames):\n  \
         after scans: hits={} misses={} evictions={} dirty_writebacks={} hit-rate={:.1}%\n  \
         after queries: hits={} misses={} evictions={} dirty_writebacks={} hit-rate={:.1}%",
        scan_stats.hits,
        scan_stats.misses,
        scan_stats.evictions,
        scan_stats.dirty_writebacks,
        hit_rate(&scan_stats),
        end.hits,
        end.misses,
        end.evictions,
        end.dirty_writebacks,
        hit_rate(&end),
    );
}

criterion_group!(
    benches,
    bench_index_ablation,
    bench_m6_format,
    bench_crud,
    bench_stats,
    bench_remap,
    bench_bufferpool
);
criterion_main!(benches);
