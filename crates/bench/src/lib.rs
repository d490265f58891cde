//! # erbium-bench
//!
//! Benchmark harness reproducing the paper's Section-6 evaluation.
//!
//! The paper reports relative query performance across six physical
//! mappings (M1–M6) of the Figure-4 schema at ~5M entries. This crate
//! provides:
//!
//! * [`build`] — materialize the experiment instance under any paper
//!   mapping at a configurable scale;
//! * [`queries`] — the ERQL text of every experiment query (E1–E9);
//! * [`measure`] — median-of-N wall-clock timing, as the paper does ("all
//!   queries were run 10 times, and the median time is reported");
//! * the `repro` binary — runs every experiment, prints measured times and
//!   ratios next to the paper's, and flags direction mismatches;
//! * criterion benches (`experiments`, `engine_micro`, `ablations`).

use erbium_datagen::{populate_experiment, ExperimentConfig, PopulationStats};
use erbium_mapping::presets::paper;
use erbium_mapping::rewrite::run_query;
use erbium_mapping::{CoFormat, Lowering, Mapping};
use erbium_model::fixtures;
use erbium_storage::Catalog;
use std::time::{Duration, Instant};

/// The mappings of the evaluation, by paper name. `M6d`/`M6f` are the
/// denormalized and factorized variants of M6.
pub const MAPPING_NAMES: [&str; 7] = ["M1", "M2", "M3", "M4", "M5", "M6d", "M6f"];

/// Build the paper mapping with the given name over the experiment schema.
pub fn mapping_by_name(name: &str) -> Mapping {
    let schema = fixtures::experiment();
    match name {
        "M1" => paper::m1(&schema),
        "M2" => paper::m2(&schema),
        "M3" => paper::m3(&schema),
        "M4" => paper::m4(&schema),
        "M5" => paper::m5(&schema).expect("experiment schema supports M5"),
        "M6d" => paper::m6(&schema, CoFormat::Denormalized).expect("schema supports M6"),
        "M6f" => paper::m6(&schema, CoFormat::Factorized).expect("schema supports M6"),
        other => panic!("unknown mapping '{other}'"),
    }
}

/// A populated experiment database under one mapping.
pub struct BenchDb {
    pub name: String,
    pub catalog: Catalog,
    pub lowering: Lowering,
    pub stats: PopulationStats,
}

impl BenchDb {
    /// Row count of a query (executes it once).
    pub fn run(&self, sql: &str) -> usize {
        run_query(&self.lowering, &self.catalog, sql)
            .unwrap_or_else(|e| panic!("[{}] query failed: {e}\n{sql}", self.name))
            .1
            .len()
    }
}

/// Materialize the experiment instance under one mapping.
pub fn build(name: &str, cfg: &ExperimentConfig) -> BenchDb {
    let schema = fixtures::experiment();
    let mapping = mapping_by_name(name);
    let lowering = Lowering::build(&schema, &mapping).expect("paper mapping is valid");
    let mut catalog = Catalog::new();
    lowering.install(&mut catalog).expect("fresh catalog");
    let stats = populate_experiment(&mut catalog, &lowering, cfg).expect("population succeeds");
    BenchDb { name: name.to_string(), catalog, lowering, stats }
}

/// Median wall-clock time of `reps` runs of `f` (plus one warm-up run).
pub fn measure(reps: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// The experiment queries (Section 6).
pub mod queries {
    use erbium_datagen::ExperimentConfig;

    /// E1: the three multi-valued attributes for all R entities
    /// (paper: M1 = 66.42 s vs M2 = 2.88 s — 22x in favour of M2).
    pub const E1: &str = "SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r";

    /// E2: all values of one multi-valued attribute
    /// (paper: M1 = 0.39 s vs M2 = 0.5 s — M1 ~30% faster).
    pub const E2: &str = "SELECT UNNEST(r.r_mv1) FROM R r";

    /// E3: r_mv1 for one r_id (paper: M1 = 40 ms vs M2 = 0.3 ms — 145x,
    /// M1 cannot use an index).
    pub fn e3(r_id: i64) -> String {
        format!("SELECT r.r_mv1 FROM R r WHERE r.r_id = {r_id}")
    }

    /// E4: per-tuple intersection of r_mv1 and r_mv2
    /// (paper: M1 = 0.63 s vs M2 = 2.29 s — M1 3.6x faster; unnesting
    /// overhead hurts M2).
    pub const E4: &str = "SELECT r.r_id, UNNEST(r.r_mv1) AS v FROM R r \
                          WHERE UNNEST(r.r_mv1) = UNNEST(r.r_mv2)";

    /// E5: all (single-valued) information for the R3 entities
    /// (paper: M1 = 2 s vs M3 = 0.4 s — 5x; M3 vs M4 — 2.7x).
    pub const E5: &str =
        "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r";

    /// E6: R ⋈ S with predicates on both sides (paper: M1 ≈ M4 despite the
    /// 5-relation union).
    pub const E6: &str = "SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s \
                          WHERE r.r_b < 10 AND s.s_b < 5";

    /// E7: all information across S, S1, S2 for a set of s_ids
    /// (paper: 10,000 ids; M1 2.2x slower than M5).
    pub fn e7(cfg: &ExperimentConfig) -> String {
        // The paper fetches 10,000 of ~80,000 S entities (1/8); keep the
        // proportion at any scale.
        let n = (cfg.n_s() / 8).max(1);
        let ids: Vec<String> = (0..n as i64).map(|i| (i * 8).to_string()).collect();
        format!(
            "SELECT s.s_id, s.s_a, w.s1_no, w.s1_a, z.s2_no, z.s2_a \
             FROM S s JOIN S1 w VIA s_s1 LEFT JOIN S2 z VIA s_s2 \
             WHERE s.s_id IN ({})",
            ids.join(", ")
        )
    }

    /// E8: S1 ⋈ R join (paper: ~4x slower on M5 than M1 — unnesting the
    /// folded weak entities).
    pub const E8: &str =
        "SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w JOIN R2 r VIA r2_s1";

    /// E9a: the co-located join (paper: much faster on M6).
    pub const E9A: &str = "SELECT r.r_id, r.r2_a, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1";

    /// E9b: a single-entity query on a co-located entity (paper: more
    /// expensive on M6).
    pub const E9B: &str = "SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r";
}

/// One experiment: id, description, the mappings compared, query builder,
/// and the paper's observation.
pub struct Experiment {
    pub id: &'static str,
    pub description: &'static str,
    pub mappings: &'static [&'static str],
    pub paper_claim: &'static str,
    /// Build the query for a given scale.
    pub query: fn(&ExperimentConfig) -> String,
    /// `(winner, loser)` mapping names for the direction check.
    pub direction: (&'static str, &'static str),
}

/// Every quantitative claim of Section 6, as a runnable experiment.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            description: "all three multi-valued attributes for all R",
            mappings: &["M1", "M2"],
            paper_claim: "M1=66.42s vs M2=2.88s (M2 ~22x faster)",
            query: |_| queries::E1.to_string(),
            direction: ("M2", "M1"),
        },
        Experiment {
            id: "E2",
            description: "all values of r_mv1 (unnested)",
            mappings: &["M1", "M2"],
            paper_claim: "M1=0.39s vs M2=0.5s (M1 ~30% faster)",
            query: |_| queries::E2.to_string(),
            direction: ("M1", "M2"),
        },
        Experiment {
            id: "E3",
            description: "r_mv1 for a single r_id (point lookup)",
            mappings: &["M1", "M2"],
            paper_claim: "M1=40ms vs M2=0.3ms (M2 ~145x faster; no index reach on M1)",
            query: |cfg| queries::e3((cfg.n_r / 2) as i64),
            direction: ("M2", "M1"),
        },
        Experiment {
            id: "E4",
            description: "per-tuple intersection of r_mv1 and r_mv2",
            mappings: &["M1", "M2"],
            paper_claim: "M1=0.63s vs M2=2.29s (M1 ~3.6x faster; unnest overhead)",
            query: |_| queries::E4.to_string(),
            direction: ("M1", "M2"),
        },
        Experiment {
            id: "E5a",
            description: "all information for R3 entities (M1 vs M3)",
            mappings: &["M1", "M3"],
            paper_claim: "M1=2s vs M3=0.4s (M3 ~5x faster; 3-way join on M1)",
            query: |_| queries::E5.to_string(),
            direction: ("M3", "M1"),
        },
        Experiment {
            id: "E5b",
            description: "all information for R3 entities (M3 vs M4)",
            mappings: &["M3", "M4"],
            paper_claim: "M3 ~2.7x slower than M4 (less data scanned on M4)",
            query: |_| queries::E5.to_string(),
            direction: ("M4", "M3"),
        },
        Experiment {
            id: "E6",
            description: "R ⋈ S with predicates on both sides",
            mappings: &["M1", "M3", "M4"],
            paper_claim: "M1 ≈ M4 despite the 5-relation union",
            query: |_| queries::E6.to_string(),
            direction: ("M1", "M1"), // parity: no strict winner expected
        },
        Experiment {
            id: "E7",
            description: "S, S1, S2 info for a set of s_ids",
            mappings: &["M1", "M5"],
            paper_claim: "M1 ~2.2x slower than M5 (extra joins)",
            query: |cfg| queries::e7(cfg),
            direction: ("M5", "M1"),
        },
        Experiment {
            id: "E8",
            description: "S1 ⋈ R2 relationship join",
            mappings: &["M1", "M5"],
            paper_claim: "M5 ~4x slower than M1 (unnesting composite arrays)",
            query: |_| queries::E8.to_string(),
            direction: ("M1", "M5"),
        },
        Experiment {
            id: "E9a",
            description: "the pre-computed R2 ⋈ S1 join",
            mappings: &["M1", "M6d", "M6f"],
            paper_claim: "significantly faster on M6 (pre-computed join)",
            query: |_| queries::E9A.to_string(),
            direction: ("M6f", "M1"),
        },
        Experiment {
            id: "E9b",
            description: "single-entity query on a co-located entity",
            mappings: &["M1", "M6d", "M6f"],
            paper_claim: "queries on one of the two tables get more expensive on (denormalized) M6",
            query: |_| queries::E9B.to_string(),
            direction: ("M1", "M6d"),
        },
    ]
}
