//! The inputs: the Figure-4 schema, the paper mappings, the E1–E9 texts and
//! the generated instance.
//!
//! All of it is the benchmark's own copy. The repository has the same schema
//! and queries in `erbium_model::fixtures`, `erbium_datagen` and
//! `erbium_bench::queries`; a change there must not be able to change what is
//! measured here, so nothing is imported from them. The instance is loaded
//! through the public bulk API (`copy_from`, `transaction`), which is also the
//! only way to fill a durable database.

use crate::rng::Rng;
use erbium_core::{BulkEntity, Database, DbResult, Value};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Mapping};

/// Figure 4 as ERQL DDL: a five-set hierarchy under `R` with three
/// multi-valued attributes, `S` with the weak sets `S1` and `S2`, and the
/// relationships `r_s` (many-to-one), `r2_s1` and `r1_r3` (many-to-many).
pub const DDL: &str = "
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

/// The paper mapping of that name over the schema `db` holds.
pub fn mapping(db: &Database, name: &str) -> Mapping {
    let s = db.schema();
    match name {
        "M1" => paper::m1(s),
        "M2" => paper::m2(s),
        "M4" => paper::m4(s),
        "M5" => paper::m5(s).expect("Figure-4 schema supports M5"),
        "M6f" => paper::m6(s, CoFormat::Factorized).expect("Figure-4 schema supports M6"),
        other => panic!("unknown mapping '{other}'"),
    }
}

// ---- the experiment queries (Section 6) --------------------------------------

pub const E1: &str = "SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r";
pub const E2: &str = "SELECT UNNEST(r.r_mv1) FROM R r";
pub const E4: &str = "SELECT r.r_id, UNNEST(r.r_mv1) AS v FROM R r \
                      WHERE UNNEST(r.r_mv1) = UNNEST(r.r_mv2)";
pub const E5: &str = "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r";
pub const E6: &str = "SELECT r.r_id, s.s_id FROM R r JOIN S s VIA r_s \
                      WHERE r.r_b < 10 AND s.s_b < 5";
pub const E8: &str = "SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w JOIN R2 r VIA r2_s1";
pub const E9A: &str = "SELECT r.r_id, r.r2_a, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1";
pub const E9B: &str = "SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r";

/// E3: `r_mv1` of one `R`.
pub fn e3(r_id: i64) -> String {
    format!("SELECT r.r_mv1 FROM R r WHERE r.r_id = {r_id}")
}

/// E7: everything across `S`, `S1`, `S2` for every eighth `s_id`, the paper's
/// 10,000 of 80,000 at any scale.
pub fn e7(scale: &Scale) -> String {
    let ids: Vec<String> = (0..(scale.n_s() / 8).max(1))
        .map(|i| (i * 8).to_string())
        .collect();
    format!(
        "SELECT s.s_id, s.s_a, w.s1_no, w.s1_a, z.s2_no, z.s2_a \
         FROM S s JOIN S1 w VIA s_s1 LEFT JOIN S2 z VIA s_s2 WHERE s.s_id IN ({})",
        ids.join(", ")
    )
}

/// The point templates of `point_lookup` and `tcp_point`: E3, and the scalar
/// attributes of one `S`. (The README says why not `S JOIN S1 VIA s_s1` for
/// one `s_id`.)
pub const POINT_R: &str = "SELECT r.r_mv1 FROM R r WHERE r.r_id = ?";
pub const POINT_S: &str = "SELECT s.s_a, s.s_b FROM S s WHERE s.s_id = ?";

/// The full-extent queries whose answers, grouped by key, are the oracle for
/// the two point templates: a scan answers what the index path must.
pub const SCAN_R: &str = "SELECT r.r_id, r.r_mv1 FROM R r";
pub const SCAN_S: &str = "SELECT s.s_id, s.s_a, s.s_b FROM S s";

// ---- the generated instance ----------------------------------------------------

const TYPES: [&str; 5] = ["R", "R1", "R2", "R3", "R4"];
const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// `copy_from` batch size everywhere.
pub const BATCH: usize = 4096;

/// Size and seed of one generated instance.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Instances in the `R` hierarchy, a fifth of each type by `r_id % 5`.
    pub n_r: usize,
    pub seed: u64,
}

impl Scale {
    pub fn n_s(&self) -> i64 {
        (self.n_r as i64 / 5).max(1)
    }
    fn n_s1(&self) -> i64 {
        (self.n_r as i64 * 2 / 5).max(1)
    }
    fn n_s2(&self) -> i64 {
        (self.n_s() / 2).max(1)
    }
    /// The type of preloaded `r_id`.
    pub fn type_of(r_id: i64) -> &'static str {
        TYPES[(r_id % 5) as usize]
    }
}

fn vocab(rng: &mut Rng) -> Value {
    Value::str(VOCAB[rng.below(8) as usize])
}

fn int_array(rng: &mut Rng) -> Value {
    // 1..=5 values, 3 on average, as in the paper's instance.
    Value::Array(
        (0..rng.range(1, 6))
            .map(|_| Value::Int(rng.range(0, 1_000)))
            .collect(),
    )
}

/// One `R`-hierarchy instance of type `ty` with all its attributes, linked
/// through `r_s` to `s_target`.
pub fn r_entity(rng: &mut Rng, r_id: i64, ty: &str, s_target: i64) -> BulkEntity {
    let mut data: Vec<(&str, Value)> = vec![
        ("r_id", Value::Int(r_id)),
        (
            "r_a",
            Value::str(format!("r-{}-{r_id}", VOCAB[(r_id % 7) as usize])),
        ),
        ("r_b", Value::Int(rng.range(0, 100))),
        ("r_mv1", int_array(rng)),
        ("r_mv2", int_array(rng)),
        (
            "r_mv3",
            Value::Array((0..rng.range(1, 6)).map(|_| vocab(rng)).collect()),
        ),
    ];
    if matches!(ty, "R1" | "R3") {
        data.push(("r1_a", Value::Int(rng.range(0, 1_000))));
        data.push(("r1_b", vocab(rng)));
    }
    if matches!(ty, "R2" | "R4") {
        data.push(("r2_a", Value::Int(rng.range(0, 1_000))));
        data.push(("r2_b", vocab(rng)));
    }
    if ty == "R3" {
        data.push(("r3_a", Value::Int(rng.range(0, 1_000))));
    }
    if ty == "R4" {
        data.push(("r4_a", vocab(rng)));
    }
    BulkEntity::linked(&data, &[("r_s", vec![Value::Int(s_target)])])
}

/// `e` as the borrowed argument lists `insert_linked` takes.
#[allow(clippy::type_complexity)]
pub fn insert_args(e: &BulkEntity) -> (Vec<(&str, Value)>, Vec<(&str, Vec<Value>)>) {
    (
        e.data
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect(),
        e.links
            .iter()
            .map(|(r, k)| (r.as_str(), k.clone()))
            .collect(),
    )
}

pub fn s_entity(s_id: i64) -> BulkEntity {
    BulkEntity::new(&[
        ("s_id", Value::Int(s_id)),
        (
            "s_a",
            Value::str(format!("s-{}-{s_id}", VOCAB[(s_id % 8) as usize])),
        ),
        ("s_b", Value::Int(s_id % 50)),
    ])
}

/// The `R` and `S` batches of an instance, grouped by entity set: what
/// `ingest_bounded` loads and what [`load`] starts from.
pub fn r_and_s_batches(scale: &Scale) -> Vec<(&'static str, Vec<BulkEntity>)> {
    let mut rng = Rng::stream(scale.seed, "instance");
    let n_s = scale.n_s();
    let mut out = vec![("S", (0..n_s).map(s_entity).collect::<Vec<_>>())];
    let mut by_type: [Vec<BulkEntity>; 5] = Default::default();
    for r_id in 0..scale.n_r as i64 {
        let s_target = rng.range(0, n_s);
        by_type[(r_id % 5) as usize].push(r_entity(&mut rng, r_id, Scale::type_of(r_id), s_target));
    }
    out.extend(TYPES.into_iter().zip(by_type));
    out
}

/// Bytes of user values in `v` by the fixed rule of the README: int, float
/// and bool 8, string its UTF-8 length, array and struct the sum of their
/// elements, null 0.
pub fn user_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Str(s) => s.len() as u64,
        Value::Array(vs) | Value::Struct(vs) => vs.iter().map(user_bytes).sum(),
        _ => 8,
    }
}

pub fn entity_user_bytes(e: &BulkEntity) -> u64 {
    e.data.values().map(user_bytes).sum::<u64>()
        + e.links
            .iter()
            .flat_map(|(_, k)| k)
            .map(user_bytes)
            .sum::<u64>()
}

/// `copy_from` in batches of [`BATCH`]; returns the user bytes loaded.
pub fn copy_batches(db: &mut Database, entity: &str, rows: &[BulkEntity]) -> DbResult<u64> {
    for chunk in rows.chunks(BATCH) {
        db.copy_from(entity, chunk)?;
    }
    Ok(rows.iter().map(entity_user_bytes).sum())
}

/// Load the whole Figure-4 instance: `S`, its weak sets, the `R` hierarchy
/// with `r_s`, then `r2_s1` (nearly one-to-one, the M6 target) and `r1_r3`.
/// Returns the user bytes loaded.
pub fn load(db: &mut Database, scale: &Scale) -> DbResult<u64> {
    let mut rng = Rng::stream(scale.seed, "weak");
    let (n_s, n_s1) = (scale.n_s(), scale.n_s1());
    let mut bytes = 0;
    let batches = r_and_s_batches(scale);
    bytes += copy_batches(db, "S", &batches[0].1)?;
    let s1: Vec<BulkEntity> = (0..n_s1)
        .map(|i| {
            BulkEntity::new(&[
                ("s_id", Value::Int(i % n_s)),
                ("s1_no", Value::Int(i / n_s)),
                ("s1_a", Value::Int(rng.range(0, 10_000))),
                ("s1_b", Value::str(format!("w{}-{}", i % n_s, i / n_s))),
            ])
        })
        .collect();
    bytes += copy_batches(db, "S1", &s1)?;
    let s2: Vec<BulkEntity> = (0..scale.n_s2())
        .map(|i| {
            BulkEntity::new(&[
                ("s_id", Value::Int((i * 2) % n_s)),
                ("s2_no", Value::Int(i / n_s + 100)),
                ("s2_a", vocab(&mut rng)),
            ])
        })
        .collect();
    bytes += copy_batches(db, "S2", &s2)?;
    for (entity, rows) in &batches[1..] {
        bytes += copy_batches(db, entity, rows)?;
    }

    // r2_s1: every member of the R2 subtree (r_id % 5 in {2, 4}) links to one
    // S1, every sixteenth to a second one. r1_r3: every fourth member of the
    // R1 subtree links to an R3.
    let ids = |keep: fn(i64) -> bool| (0..scale.n_r as i64).filter(move |&i| keep(i % 5));
    let s1_key = |i: i64| vec![Value::Int(i % n_s), Value::Int(i / n_s)];
    let r2: Vec<i64> = ids(|t| t == 2 || t == 4).collect();
    let r3: Vec<i64> = ids(|t| t == 3).collect();
    let mut links: Vec<(&str, i64, Vec<Value>)> = Vec::new();
    for (idx, &r) in r2.iter().enumerate() {
        let target = idx as i64 % n_s1;
        links.push(("r2_s1", r, s1_key(target)));
        if idx % 16 == 0 {
            links.push(("r2_s1", r, s1_key((target + 1) % n_s1)));
        }
    }
    for (idx, r1) in ids(|t| t == 1 || t == 3).enumerate() {
        let target = r3[idx % r3.len().max(1)];
        if idx % 4 == 0 && !r3.is_empty() && r1 != target {
            links.push(("r1_r3", r1, vec![Value::Int(target)]));
        }
    }
    for chunk in links.chunks(BATCH) {
        db.transaction(|tx| {
            chunk
                .iter()
                .try_for_each(|(rel, from, to)| tx.link(rel, &[Value::Int(*from)], to, &[]))
        })?;
    }
    bytes += links
        .iter()
        .map(|(_, _, to)| 8 + 8 * to.len() as u64)
        .sum::<u64>();
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_bytes_rule() {
        let v = Value::Array(vec![
            Value::Int(1),
            Value::str("abc"),
            Value::Null,
            Value::Float(0.5),
        ]);
        assert_eq!(user_bytes(&v), 8 + 3 + 8);
    }

    #[test]
    fn instance_is_a_function_of_the_seed() {
        let gen = |seed| {
            format!(
                "{:?}",
                r_and_s_batches(&Scale { n_r: 50, seed })[2].1[3].data
            )
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(7));
    }
}
