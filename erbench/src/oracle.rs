//! The correctness oracle: every answer is reduced to a row count plus a
//! checksum that ignores row order and the order inside arrays (mappings that
//! rebuild a multi-valued attribute from a side table return its values in
//! another order than those that store the array).
//!
//! Two checks use it. Across mappings, the same query must give the same
//! digest under every mapping it runs on: logical data independence, the
//! paper's own oracle. Against `expected.json`, for the seeds 42 and 7, the
//! digest must be the one recorded when the benchmark was defined.

use erbium_core::{DbResult, Value};
use std::collections::BTreeMap;

/// Row count and order-insensitive checksum of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => mix(1),
        Value::Bool(b) => mix(2 + *b as u64),
        // An integral float hashes as the integer: `Float` columns accept both.
        Value::Int(i) => mix(*i as u64 ^ 0x10),
        Value::Float(x) if x.fract() == 0.0 => mix(*x as i64 as u64 ^ 0x10),
        Value::Float(x) => mix(x.to_bits() ^ 0x20),
        Value::Str(s) => s.bytes().fold(0x30, |h, b| mix(h ^ b as u64)),
        // A multiset: the sum of the element hashes.
        Value::Array(vs) => mix(vs.iter().map(value_hash).fold(0x40, u64::wrapping_add)),
        Value::Struct(vs) => vs.iter().fold(0x50, |h, v| mix(h ^ value_hash(v))),
    }
}

pub fn row_hash(row: &[Value]) -> u64 {
    row.iter()
        .fold(0x60, |h, v| mix(h.wrapping_mul(31) ^ value_hash(v)))
}

pub fn digest(rows: &[Vec<Value>]) -> Digest {
    Digest {
        rows: rows.len() as u64,
        sum: rows.iter().map(|r| row_hash(r)).fold(0, u64::wrapping_add),
    }
}

/// The answers of a full-extent query grouped by their first column: what a
/// point query for that key must return (without the key column when
/// `drop_key`).
pub fn by_key(rows: &[Vec<Value>], drop_key: bool) -> BTreeMap<i64, Digest> {
    let mut out: BTreeMap<i64, Digest> = BTreeMap::new();
    for row in rows {
        let Value::Int(key) = row[0] else {
            panic!("oracle key column is not an int")
        };
        let d = out.entry(key).or_default();
        d.rows += 1;
        d.sum = d.sum.wrapping_add(row_hash(&row[drop_key as usize..]));
    }
    out
}

/// The digests recorded in `expected.json` for one `(seed, n_r)`, by query
/// name. Empty for a seed that has none, which leaves the cross-mapping check.
pub fn expected(seed: u64, n_r: usize) -> BTreeMap<String, Digest> {
    let doc: serde_json::Value =
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses");
    let mut out = BTreeMap::new();
    if let Some(queries) = doc
        .get(&format!("seed{seed}_n{n_r}"))
        .and_then(|v| v.as_object())
    {
        for (name, d) in queries {
            let field = |k| {
                d.get(k)
                    .and_then(|v| v.as_str())
                    .and_then(|s| s.parse().ok())
            };
            let (Some(rows), Some(sum)) = (field("rows"), field("sum")) else {
                panic!("expected.json: malformed digest for {name}")
            };
            out.insert(name.clone(), Digest { rows, sum });
        }
    }
    out
}

/// Collects digests per query name and counts what was sent, what was
/// checked and what failed.
#[derive(Debug, Default)]
pub struct Checker {
    expected: BTreeMap<String, Digest>,
    seen: BTreeMap<String, Digest>,
    /// Operations sent, reads and writes.
    pub attempted: u64,
    /// Answers compared against the oracle.
    pub checked: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(expected: BTreeMap<String, Digest>) -> Checker {
        Checker {
            expected,
            ..Checker::default()
        }
    }

    /// A checker for another client thread: same recorded and first-seen
    /// digests, counts at zero. [`Checker::join`] adds its counts back.
    pub fn fork(&self) -> Checker {
        Checker {
            expected: self.expected.clone(),
            seen: self.seen.clone(),
            ..Checker::default()
        }
    }

    pub fn join(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.checked += other.checked;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (query, digest) in other.seen {
            self.seen.entry(query).or_insert(digest);
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Count one operation sent; a refused or failed one is a failure.
    pub fn sent<T>(&mut self, what: &str, result: DbResult<T>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// Check one answer to `query` (a name such as `E4`), obtained `via` a
    /// mapping or a path, against the first digest seen for that query and
    /// against the recorded one.
    pub fn check(&mut self, query: &str, via: &str, got: Digest) {
        self.checked += 1;
        let first = *self.seen.entry(query.to_string()).or_insert(got);
        let recorded = self.expected.get(query).copied().unwrap_or(got);
        if got != first || got != recorded {
            self.fail(format!(
                "{query} via {via}: got {got:?}, first seen {first:?}, recorded {recorded:?}"
            ));
        }
    }

    /// Check an answer against a digest the benchmark derived itself.
    pub fn check_against(&mut self, what: &str, got: Digest, want: Digest) {
        self.checked += 1;
        if got != want {
            self.fail(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// The digests seen, as the `expected.json` object for one instance.
    pub fn render_expected(&self) -> String {
        let items: Vec<String> = self
            .seen
            .iter()
            .map(|(q, d)| {
                format!(
                    "\"{q}\": {{\"rows\": \"{}\", \"sum\": \"{}\"}}",
                    d.rows, d.sum
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64, arr: &[i64]) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Array(arr.iter().map(|&i| Value::Int(i)).collect()),
        ]
    }

    #[test]
    fn digest_ignores_row_and_array_order_but_not_content() {
        let a = digest(&[row(1, &[1, 2, 3]), row(2, &[4])]);
        let b = digest(&[row(2, &[4]), row(1, &[3, 1, 2])]);
        assert_eq!(a, b);
        assert_ne!(a, digest(&[row(1, &[1, 2, 3]), row(2, &[5])]));
        assert_ne!(a, digest(&[row(1, &[1, 2, 3])]));
        // Columns are ordered: (1, 2) is not (2, 1).
        assert_ne!(
            digest(&[vec![Value::Int(1), Value::Int(2)]]),
            digest(&[vec![Value::Int(2), Value::Int(1)]])
        );
    }

    #[test]
    fn checker_flags_disagreement_between_mappings() {
        let mut c = Checker::new(BTreeMap::new());
        c.check("E1", "M1", digest(&[row(1, &[1, 2])]));
        c.check("E1", "M2", digest(&[row(1, &[2, 1])]));
        assert_eq!(c.failed, 0);
        c.check("E1", "M4", digest(&[row(1, &[2, 2])]));
        assert_eq!((c.checked, c.failed, c.failures.len()), (3, 1, 1));
    }

    #[test]
    fn by_key_groups_a_scan_into_point_answers() {
        let scan = [row(1, &[1, 2]), row(2, &[3]), row(1, &[9])];
        let m = by_key(&scan, true);
        assert_eq!(m[&1].rows, 2);
        assert_eq!(m[&2], digest(&[row(2, &[3])[1..].to_vec()]));
    }
}
