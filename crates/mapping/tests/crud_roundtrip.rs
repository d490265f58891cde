//! Reversibility: the paper's requirement (1) — "the entities and
//! relationships stored in the database must be recoverable" — must hold
//! under EVERY mapping. These tests populate the same logical instance
//! through the CRUD translator under all seven mappings (M1, M2, M3, M4,
//! M5, M6-denormalized, M6-factorized) and assert that extraction recovers
//! identical logical content.
//!
//! Every test takes [`serial`]: `random_crud_agrees_across_mappings_without_scans`
//! reads the process-wide table-scan counter, and extraction scans.

use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, EntityData, EntityStore, Lowering, Mapping};
use erbium_model::fixtures;
use erbium_model::ErSchema;
use erbium_storage::{Catalog, Transaction, Value};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn all_mappings(s: &ErSchema) -> Vec<Mapping> {
    vec![
        paper::m1(s),
        paper::m2(s),
        paper::m3(s),
        paper::m4(s),
        paper::m5(s).unwrap(),
        paper::m6(s, CoFormat::Denormalized).unwrap(),
        paper::m6(s, CoFormat::Factorized).unwrap(),
    ]
}

fn data(pairs: &[(&str, Value)]) -> EntityData {
    pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

fn ints(vals: &[i64]) -> Value {
    Value::Array(vals.iter().map(|&v| Value::Int(v)).collect())
}

/// Populate a small instance of the experiment schema.
fn populate(cat: &mut Catalog, store: &EntityStore<'_>) {
    let mut txn = Transaction::new();
    // S entities.
    for sid in 1..=3i64 {
        store
            .insert(
                cat,
                &mut txn,
                "S",
                &data(&[
                    ("s_id", Value::Int(sid)),
                    ("s_a", Value::str(format!("s{sid}"))),
                    ("s_b", Value::Int(sid * 10)),
                ]),
                &[],
            )
            .unwrap();
    }
    // Weak entities S1 (two per S), S2 (one per S).
    for sid in 1..=3i64 {
        for no in 1..=2i64 {
            store
                .insert(
                    cat,
                    &mut txn,
                    "S1",
                    &data(&[
                        ("s_id", Value::Int(sid)),
                        ("s1_no", Value::Int(no)),
                        ("s1_a", Value::Int(sid * 100 + no)),
                        ("s1_b", Value::str(format!("w{sid}-{no}"))),
                    ]),
                    &[],
                )
                .unwrap();
        }
        store
            .insert(
                cat,
                &mut txn,
                "S2",
                &data(&[
                    ("s_id", Value::Int(sid)),
                    ("s2_no", Value::Int(1)),
                    ("s2_a", Value::str(format!("z{sid}"))),
                ]),
                &[],
            )
            .unwrap();
    }
    // Hierarchy instances: one plain R, one R1, one R2, one R3, one R4.
    let base = |id: i64| {
        data(&[
            ("r_id", Value::Int(id)),
            ("r_a", Value::str(format!("r{id}"))),
            ("r_b", Value::Int(id * 2)),
            ("r_mv1", ints(&[id, id + 1])),
            ("r_mv2", ints(&[id * 7])),
            ("r_mv3", Value::Array(vec![Value::str("x"), Value::str("y")])),
        ])
    };
    let link_s = |sid: i64| vec![("r_s", vec![Value::Int(sid)])];

    store.insert(cat, &mut txn, "R", &base(10), &link_s(1)).unwrap();
    let mut r1 = base(11);
    r1.insert("r1_a".into(), Value::Int(111));
    r1.insert("r1_b".into(), Value::str("one"));
    store.insert(cat, &mut txn, "R1", &r1, &link_s(2)).unwrap();
    let mut r2 = base(12);
    r2.insert("r2_a".into(), Value::Int(222));
    r2.insert("r2_b".into(), Value::str("two"));
    store.insert(cat, &mut txn, "R2", &r2, &link_s(3)).unwrap();
    let mut r3 = base(13);
    r3.insert("r1_a".into(), Value::Int(311));
    r3.insert("r1_b".into(), Value::str("three-one"));
    r3.insert("r3_a".into(), Value::Int(333));
    store.insert(cat, &mut txn, "R3", &r3, &link_s(1)).unwrap();
    let mut r4 = base(14);
    r4.insert("r2_a".into(), Value::Int(422));
    r4.insert("r2_b".into(), Value::str("four-two"));
    r4.insert("r4_a".into(), Value::str("fff"));
    store.insert(cat, &mut txn, "R4", &r4, &link_s(2)).unwrap();

    // Many-to-many links.
    store
        .link(cat, &mut txn, "r2_s1", &[Value::Int(12)], &[Value::Int(1), Value::Int(1)], &EntityData::default())
        .unwrap();
    store
        .link(cat, &mut txn, "r2_s1", &[Value::Int(12)], &[Value::Int(2), Value::Int(2)], &EntityData::default())
        .unwrap();
    store
        .link(cat, &mut txn, "r2_s1", &[Value::Int(14)], &[Value::Int(3), Value::Int(1)], &EntityData::default())
        .unwrap();
    store
        .link(cat, &mut txn, "r1_r3", &[Value::Int(11)], &[Value::Int(13)], &EntityData::default())
        .unwrap();
    txn.commit();
}

/// Canonical form of an extent for comparison: sorted key→sorted attrs.
type CanonRow = Vec<(String, Value)>;

fn canon_entities(store: &EntityStore<'_>, cat: &Catalog, entity: &str) -> Vec<CanonRow> {
    let mut rows: Vec<CanonRow> = store
        .extract_entities(cat, entity)
        .unwrap()
        .into_iter()
        .map(|d| {
            let mut kv: Vec<(String, Value)> = d
                .into_iter()
                .map(|(k, mut v)| {
                    // Multi-valued attributes are sets: order-insensitive.
                    if let Value::Array(vs) = &mut v {
                        vs.sort();
                    }
                    (k, v)
                })
                .collect();
            kv.sort();
            kv
        })
        .collect();
    rows.sort();
    rows
}

type KeyPair = (Vec<Value>, Vec<Value>);

fn canon_rel(store: &EntityStore<'_>, cat: &Catalog, rel: &str) -> Vec<KeyPair> {
    let mut rows: Vec<KeyPair> = store
        .extract_relationship(cat, rel)
        .unwrap()
        .into_iter()
        .map(|i| (i.from_key, i.to_key))
        .collect();
    rows.sort();
    rows
}

#[test]
fn extents_identical_across_all_mappings() {
    let _g = serial();
    let schema = fixtures::experiment();
    let mut reference: Option<Vec<(String, Vec<CanonRow>)>> = None;
    for mapping in all_mappings(&schema) {
        let lw = Lowering::build(&schema, &mapping).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        let store = EntityStore::new(&lw);
        populate(&mut cat, &store);

        let snapshot: Vec<(String, Vec<CanonRow>)> = schema
            .entities()
            .iter()
            .map(|e| (e.name.clone(), canon_entities(&store, &cat, &e.name)))
            .collect();
        match &reference {
            None => reference = Some(snapshot),
            Some(reference) => {
                for ((name, expect), (name2, got)) in reference.iter().zip(snapshot.iter()) {
                    assert_eq!(name, name2);
                    assert_eq!(
                        expect, got,
                        "extent of '{name}' differs under mapping '{}'",
                        mapping.name
                    );
                }
            }
        }
    }
}

#[test]
fn relationships_identical_across_all_mappings() {
    let _g = serial();
    let schema = fixtures::experiment();
    let mut reference: Option<Vec<(String, Vec<KeyPair>)>> = None;
    for mapping in all_mappings(&schema) {
        let lw = Lowering::build(&schema, &mapping).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        let store = EntityStore::new(&lw);
        populate(&mut cat, &store);

        let snapshot: Vec<(String, Vec<KeyPair>)> = schema
            .relationships()
            .iter()
            .map(|r| (r.name.clone(), canon_rel(&store, &cat, &r.name)))
            .collect();
        match &reference {
            None => reference = Some(snapshot),
            Some(reference) => {
                for ((name, expect), (name2, got)) in reference.iter().zip(snapshot.iter()) {
                    assert_eq!(name, name2);
                    assert_eq!(
                        expect, got,
                        "relationship '{name}' differs under mapping '{}'",
                        mapping.name
                    );
                }
            }
        }
    }
}

#[test]
fn get_update_delete_under_each_mapping() {
    let _g = serial();
    let schema = fixtures::experiment();
    for mapping in all_mappings(&schema) {
        let lw = Lowering::build(&schema, &mapping).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        let store = EntityStore::new(&lw);
        populate(&mut cat, &store);
        let m = &mapping.name;

        // get: R3 sees inherited + own attributes.
        let r3 = store.get(&cat, "R3", &[Value::Int(13)]).unwrap().expect("r3 exists");
        assert_eq!(r3.get("r_a"), Some(&Value::str("r13")), "mapping {m}");
        assert_eq!(r3.get("r1_a"), Some(&Value::Int(311)), "mapping {m}");
        assert_eq!(r3.get("r3_a"), Some(&Value::Int(333)), "mapping {m}");
        match r3.get("r_mv1") {
            Some(Value::Array(vs)) => assert_eq!(vs.len(), 2, "mapping {m}"),
            other => panic!("mapping {m}: expected array, got {other:?}"),
        }

        // get at superclass level sees only R attributes but same instance.
        let as_r = store.get(&cat, "R", &[Value::Int(13)]).unwrap().expect("visible as R");
        assert_eq!(as_r.get("r_a"), Some(&Value::str("r13")), "mapping {m}");

        // type_of identifies the most specific type.
        assert_eq!(store.type_of(&cat, "R", &[Value::Int(13)]).unwrap().as_deref(), Some("R3"));
        assert_eq!(store.type_of(&cat, "R", &[Value::Int(10)]).unwrap().as_deref(), Some("R"));

        // update: scalar + multi-valued + weak attribute.
        let mut txn = Transaction::new();
        store
            .update(&mut cat, &mut txn, "R3", &[Value::Int(13)], &data(&[
                ("r_b", Value::Int(999)),
                ("r_mv2", ints(&[1, 2, 3])),
                ("r3_a", Value::Int(42)),
            ]))
            .unwrap();
        store
            .update(&mut cat, &mut txn, "S1", &[Value::Int(1), Value::Int(2)], &data(&[
                ("s1_b", Value::str("updated")),
            ]))
            .unwrap();
        txn.commit();
        let r3 = store.get(&cat, "R3", &[Value::Int(13)]).unwrap().unwrap();
        assert_eq!(r3.get("r_b"), Some(&Value::Int(999)), "mapping {m}");
        assert_eq!(r3.get("r3_a"), Some(&Value::Int(42)), "mapping {m}");
        match r3.get("r_mv2") {
            Some(Value::Array(vs)) => assert_eq!(vs.len(), 3, "mapping {m}"),
            other => panic!("mapping {m}: expected array, got {other:?}"),
        }
        let s1 = store.get(&cat, "S1", &[Value::Int(1), Value::Int(2)]).unwrap().unwrap();
        assert_eq!(s1.get("s1_b"), Some(&Value::str("updated")), "mapping {m}");

        // delete R2 instance 12: hierarchy rows, mv rows, r2_s1 links gone.
        let mut txn = Transaction::new();
        store.delete(&mut cat, &mut txn, "R", &[Value::Int(12)]).unwrap();
        txn.commit();
        assert!(store.get(&cat, "R", &[Value::Int(12)]).unwrap().is_none(), "mapping {m}");
        assert!(store.get(&cat, "R2", &[Value::Int(12)]).unwrap().is_none(), "mapping {m}");
        let links = canon_rel(&store, &cat, "r2_s1");
        assert_eq!(links.len(), 1, "mapping {m}: only R4's link remains: {links:?}");
        // The S1 partners survive the unlink.
        assert!(store.get(&cat, "S1", &[Value::Int(1), Value::Int(1)]).unwrap().is_some());

        // delete S 1 cascades to its weak children and their links.
        let mut txn = Transaction::new();
        store.delete(&mut cat, &mut txn, "S", &[Value::Int(1)]).unwrap();
        txn.commit();
        assert!(store.get(&cat, "S1", &[Value::Int(1), Value::Int(1)]).unwrap().is_none());
        assert!(store.get(&cat, "S2", &[Value::Int(1), Value::Int(1)]).unwrap().is_none());
        // r_s links pointing at S 1 are gone (R 10 and R3 13 were linked).
        let rs = canon_rel(&store, &cat, "r_s");
        assert!(
            rs.iter().all(|(_, to)| to != &vec![Value::Int(1)]),
            "mapping {m}: dangling r_s link to deleted S: {rs:?}"
        );
    }
}

#[test]
fn transaction_rollback_spans_logical_insert() {
    let _g = serial();
    let schema = fixtures::experiment();
    let mapping = paper::m1(&schema);
    let lw = Lowering::build(&schema, &mapping).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    let store = EntityStore::new(&lw);

    let mut txn = Transaction::new();
    let mut r3 = data(&[
        ("r_id", Value::Int(1)),
        ("r_a", Value::str("a")),
        ("r_b", Value::Int(1)),
        ("r_mv1", ints(&[1, 2, 3])),
        ("r1_a", Value::Int(1)),
        ("r3_a", Value::Int(3)),
    ]);
    r3.insert("r_mv2".into(), ints(&[]));
    r3.insert("r_mv3".into(), Value::Array(vec![]));
    store.insert(&mut cat, &mut txn, "R3", &r3, &[]).unwrap();
    assert!(txn.len() >= 4, "insert touched root, R1, R3 delta + mv rows");
    txn.rollback(&mut cat).unwrap();
    assert!(store.get(&cat, "R3", &[Value::Int(1)]).unwrap().is_none());
    assert_eq!(cat.table("R").unwrap().len(), 0);
    assert_eq!(cat.table("R__r_mv1").unwrap().len(), 0);
}

#[test]
fn university_roundtrip_normalized_vs_inline() {
    let _g = serial();
    let schema = fixtures::university();
    let m1 = erbium_mapping::presets::normalized(&schema);
    let m2 = erbium_mapping::presets::inline_all_multivalued(
        erbium_mapping::presets::normalized(&schema),
        &schema,
    );
    let mut snapshots = Vec::new();
    for mapping in [m1, m2] {
        let lw = Lowering::build(&schema, &mapping).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        let store = EntityStore::new(&lw);
        let mut txn = Transaction::new();
        store
            .insert(
                &mut cat,
                &mut txn,
                "department",
                &data(&[("dept_name", Value::str("cs")), ("building", Value::str("AVW"))]),
                &[],
            )
            .unwrap();
        store
            .insert(
                &mut cat,
                &mut txn,
                "instructor",
                &data(&[
                    ("id", Value::Int(1)),
                    ("name", Value::str("ada")),
                    (
                        "address",
                        Value::Struct(vec![Value::str("Main St"), Value::str("College Park")]),
                    ),
                    ("phone", Value::Array(vec![Value::str("555-1"), Value::str("555-2")])),
                    ("rank", Value::str("prof")),
                ]),
                &[("member_of", vec![Value::str("cs")])],
            )
            .unwrap();
        store
            .insert(
                &mut cat,
                &mut txn,
                "student",
                &data(&[
                    ("id", Value::Int(2)),
                    ("name", Value::str("bob")),
                    ("phone", Value::Array(vec![])),
                    ("tot_credits", Value::Int(30)),
                ]),
                &[("advisor", vec![Value::Int(1)])],
            )
            .unwrap();
        txn.commit();
        let store_ref = &store;
        let snap: Vec<_> = ["person", "instructor", "student", "department"]
            .iter()
            .map(|e| canon_entities(store_ref, &cat, e))
            .collect();
        let advisors = canon_rel(store_ref, &cat, "advisor");
        snapshots.push((snap, advisors));
    }
    assert_eq!(snapshots[0], snapshots[1]);
}

// ---- random CRUD sequences under every mapping -------------------------------

/// The R hierarchy, most specific type by index.
const R_TYPES: [&str; 5] = ["R", "R1", "R2", "R3", "R4"];

/// One generated step. Selectors pick among the live instances of the
/// shadow [`Model`] (modulo their count), so every step is valid.
#[derive(Debug, Clone)]
enum Op {
    InsertR { ty: usize, s: Option<usize>, mv: Vec<i64> },
    InsertS,
    InsertWeak { s: usize, s2: bool },
    UpdateR { r: usize, b: i64, mv: Option<Vec<i64>> },
    UpdateS1 { w: usize, b: i64 },
    /// `rel` indexes `r_s`, `r1_r3`, `r2_s1`.
    Link { rel: usize, a: usize, b: usize },
    Unlink { rel: usize, i: usize },
    DeleteR { r: usize },
    DeleteS { s: usize },
    DeleteS1 { w: usize },
}

/// One entity-level CRUD call, as every mapping receives it.
#[derive(Debug)]
enum Call {
    Insert(&'static str, EntityData, Vec<(&'static str, Vec<Value>)>),
    Update(&'static str, Vec<Value>, EntityData),
    Link(&'static str, Vec<Value>, Vec<Value>),
    Unlink(&'static str, Vec<Value>, Vec<Value>),
    Delete(&'static str, Vec<Value>),
}

const RELS: [&str; 3] = ["r_s", "r1_r3", "r2_s1"];

/// What the instance should hold after each step: the oracle for the
/// relationship ends, which the seven mappings could otherwise get wrong
/// together (`r1_r3` is a join table under all of them).
#[derive(Debug, Default)]
struct Model {
    next: i64,
    rs: Vec<(i64, usize)>,
    ss: Vec<i64>,
    /// `(S1 or S2, owner s_id, partial key)`.
    weak: Vec<(&'static str, i64, i64)>,
    links: Vec<(&'static str, Vec<Value>, Vec<Value>)>,
}

fn pick<T: Clone>(items: &[T], i: usize) -> Option<T> {
    (!items.is_empty()).then(|| items[i % items.len()].clone())
}

impl Model {
    fn fresh(&mut self) -> i64 {
        self.next += 1;
        self.next
    }

    fn rs_of(&self, types: &[usize]) -> Vec<i64> {
        self.rs.iter().filter(|(_, t)| types.contains(t)).map(|(id, _)| *id).collect()
    }

    fn s1_keys(&self) -> Vec<Vec<Value>> {
        self.weak
            .iter()
            .filter(|(e, ..)| *e == "S1")
            .map(|(_, s, no)| vec![Value::Int(*s), Value::Int(*no)])
            .collect()
    }

    /// Drop every link with an end at `key` (the deleted instance).
    fn forget(&mut self, key: &[Value]) {
        self.links.retain(|(_, f, t)| f != key && t != key);
    }

    fn resolve(&mut self, op: &Op) -> Option<Call> {
        Some(match op.clone() {
            Op::InsertR { ty, s, mv } => {
                let id = self.fresh();
                let ty = ty % R_TYPES.len();
                let mut d = data(&[
                    ("r_id", Value::Int(id)),
                    ("r_a", Value::str(format!("r{id}"))),
                    ("r_b", Value::Int(id * 2)),
                    ("r_mv1", ints(&mv)),
                    ("r_mv2", ints(&[id])),
                    ("r_mv3", Value::Array(vec![Value::str("x")])),
                ]);
                let levels: &[&str] = match R_TYPES[ty] {
                    "R1" => &["r1"],
                    "R2" => &["r2"],
                    "R3" => &["r1", "r3"],
                    "R4" => &["r2", "r4"],
                    _ => &[],
                };
                for (attr, v) in [
                    ("r1_a", Value::Int(id)),
                    ("r1_b", Value::str("b1")),
                    ("r2_a", Value::Int(-id)),
                    ("r2_b", Value::str("b2")),
                    ("r3_a", Value::Int(id * 3)),
                    ("r4_a", Value::str("a4")),
                ] {
                    if levels.iter().any(|l| attr.starts_with(l)) {
                        d.insert(attr.into(), v);
                    }
                }
                let mut links = Vec::new();
                if let Some(sid) = s.and_then(|s| pick(&self.ss, s)) {
                    links.push(("r_s", vec![Value::Int(sid)]));
                    self.links.push(("r_s", vec![Value::Int(id)], vec![Value::Int(sid)]));
                }
                self.rs.push((id, ty));
                Call::Insert(R_TYPES[ty], d, links)
            }
            Op::InsertS => {
                let id = self.fresh();
                self.ss.push(id);
                Call::Insert(
                    "S",
                    data(&[
                        ("s_id", Value::Int(id)),
                        ("s_a", Value::str(format!("s{id}"))),
                        ("s_b", Value::Int(id)),
                    ]),
                    vec![],
                )
            }
            Op::InsertWeak { s, s2 } => {
                let sid = pick(&self.ss, s)?;
                let no = self.fresh();
                let (entity, d) = if s2 {
                    ("S2", data(&[("s2_no", Value::Int(no)), ("s2_a", Value::str("z"))]))
                } else {
                    ("S1", data(&[
                        ("s1_no", Value::Int(no)),
                        ("s1_a", Value::Int(no)),
                        ("s1_b", Value::str("w")),
                    ]))
                };
                let mut d = d;
                d.insert("s_id".into(), Value::Int(sid));
                self.weak.push((entity, sid, no));
                Call::Insert(entity, d, vec![])
            }
            Op::UpdateR { r, b, mv } => {
                let (id, _) = pick(&self.rs, r)?;
                let mut changes = data(&[("r_b", Value::Int(b))]);
                if let Some(mv) = mv {
                    changes.insert("r_mv1".into(), ints(&mv));
                }
                Call::Update("R", vec![Value::Int(id)], changes)
            }
            Op::UpdateS1 { w, b } => {
                let key = pick(&self.s1_keys(), w)?;
                Call::Update("S1", key, data(&[("s1_b", Value::str(format!("u{b}")))]))
            }
            Op::Link { rel, a, b } => {
                let rel = RELS[rel % RELS.len()];
                let (from, to): (Vec<Vec<Value>>, Vec<Vec<Value>>) = match rel {
                    // A folded foreign key holds one target: only unlinked R.
                    "r_s" => (
                        self.rs_of(&[0, 1, 2, 3, 4])
                            .into_iter()
                            .map(|id| vec![Value::Int(id)])
                            .filter(|k| !self.links.iter().any(|(r, f, _)| *r == "r_s" && f == k))
                            .collect(),
                        self.ss.iter().map(|s| vec![Value::Int(*s)]).collect(),
                    ),
                    "r1_r3" => (
                        self.rs_of(&[1, 3]).into_iter().map(|id| vec![Value::Int(id)]).collect(),
                        self.rs_of(&[3]).into_iter().map(|id| vec![Value::Int(id)]).collect(),
                    ),
                    _ => (
                        self.rs_of(&[2, 4]).into_iter().map(|id| vec![Value::Int(id)]).collect(),
                        self.s1_keys(),
                    ),
                };
                let (from, to) = (pick(&from, a)?, pick(&to, b)?);
                if self.links.iter().any(|(r, f, t)| *r == rel && *f == from && *t == to) {
                    return None;
                }
                self.links.push((rel, from.clone(), to.clone()));
                Call::Link(rel, from, to)
            }
            Op::Unlink { rel, i } => {
                let rel = RELS[rel % RELS.len()];
                let of_rel: Vec<usize> =
                    (0..self.links.len()).filter(|&j| self.links[j].0 == rel).collect();
                let (_, from, to) = self.links.remove(pick(&of_rel, i)?);
                Call::Unlink(rel, from, to)
            }
            Op::DeleteR { r } => {
                let (id, _) = pick(&self.rs, r)?;
                self.rs.retain(|(x, _)| *x != id);
                self.forget(&[Value::Int(id)]);
                Call::Delete("R", vec![Value::Int(id)])
            }
            Op::DeleteS { s } => {
                let sid = pick(&self.ss, s)?;
                self.ss.retain(|x| *x != sid);
                self.forget(&[Value::Int(sid)]);
                for (_, s, no) in self.weak.clone() {
                    if s == sid {
                        self.forget(&[Value::Int(s), Value::Int(no)]);
                    }
                }
                self.weak.retain(|(_, s, _)| *s != sid);
                Call::Delete("S", vec![Value::Int(sid)])
            }
            Op::DeleteS1 { w } => {
                let key = pick(&self.s1_keys(), w)?;
                self.forget(&key);
                self.weak.retain(|(e, s, no)| {
                    !(*e == "S1" && key == [Value::Int(*s), Value::Int(*no)])
                });
                Call::Delete("S1", key)
            }
        })
    }

    fn rel_pairs(&self, rel: &str) -> Vec<KeyPair> {
        let mut out: Vec<KeyPair> = self
            .links
            .iter()
            .filter(|(r, ..)| *r == rel)
            .map(|(_, f, t)| (f.clone(), t.clone()))
            .collect();
        out.sort();
        out
    }
}

/// A fixed opening: an S with one S1 and one S2, an R3 at both ends of
/// `r1_r3` (`x → y → z`), an R4 linked to the S1. Then the R3 is deleted,
/// then the R4 (under M6 the S1 must survive its only co-located row), then
/// the S, which cascades to both weak instances.
fn opening() -> Vec<Op> {
    vec![
        Op::InsertS,
        Op::InsertWeak { s: 0, s2: false },
        Op::InsertWeak { s: 0, s2: true },
        Op::InsertR { ty: 1, s: None, mv: vec![1, 2] },
        Op::InsertR { ty: 3, s: Some(0), mv: vec![] },
        Op::InsertR { ty: 3, s: None, mv: vec![3] },
        Op::InsertR { ty: 4, s: Some(0), mv: vec![4, 4] },
        Op::Link { rel: 1, a: 0, b: 0 },
        Op::Link { rel: 1, a: 1, b: 1 },
        Op::Link { rel: 2, a: 0, b: 0 },
        Op::DeleteR { r: 1 },
        Op::DeleteR { r: 2 },
        Op::DeleteS { s: 0 },
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let fields = (0..22u32, any::<usize>(), any::<usize>(), any::<bool>(), 0..100i64);
    (fields, prop::collection::vec(0..4i64, 0..3)).prop_map(|((kind, a, b, flag, n), mv)| {
        let rel = (n % 3) as usize;
        // Weighted: inserts and links dominate so instances accumulate.
        match kind {
            0..=3 => Op::InsertR { ty: a % 5, s: flag.then_some(b), mv },
            4..=5 => Op::InsertS,
            6..=8 => Op::InsertWeak { s: a, s2: flag },
            9..=10 => Op::UpdateR { r: a, b: n, mv: flag.then_some(mv) },
            11 => Op::UpdateS1 { w: a, b: n },
            12..=15 => Op::Link { rel, a, b },
            16..=17 => Op::Unlink { rel, i: a },
            18..=19 => Op::DeleteR { r: a },
            20 => Op::DeleteS { s: a },
            _ => Op::DeleteS1 { w: a },
        }
    })
}

fn table_scans() -> u64 {
    erbium_obs::Registry::global().counter("erbium_storage_table_scans_total", "").get()
}

fn apply(store: &EntityStore<'_>, cat: &mut Catalog, call: &Call) {
    let before = table_scans();
    let mut txn = Transaction::new();
    let none = EntityData::default();
    let done = match call {
        Call::Insert(e, d, links) => {
            let links: Vec<(&str, Vec<Value>)> =
                links.iter().map(|(r, k)| (*r, k.clone())).collect();
            store.insert(cat, &mut txn, e, d, &links)
        }
        Call::Update(e, key, changes) => store.update(cat, &mut txn, e, key, changes),
        Call::Link(r, from, to) => store.link(cat, &mut txn, r, from, to, &none),
        Call::Unlink(r, from, to) => store.unlink(cat, &mut txn, r, from, to),
        Call::Delete(e, key) => store.delete(cat, &mut txn, e, key),
    };
    txn.commit();
    let scans = table_scans() - before;
    let mapping = &store.lowering().mapping.name;
    done.unwrap_or_else(|e| panic!("{mapping}: {call:?} failed: {e}"));
    assert_eq!(scans, 0, "{mapping}: {call:?} scanned {scans} table(s)");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One random CRUD sequence under all seven presets: after every step
    /// the extracted entities and relationships agree across mappings and
    /// the relationships match the shadow model, and no CRUD call scanned
    /// a table (`erbium_storage_table_scans_total` stays flat).
    #[test]
    fn random_crud_agrees_across_mappings_without_scans(
        tail in prop::collection::vec(op_strategy(), 0..32),
    ) {
        let _g = serial();
        let schema = fixtures::experiment();
        let lowerings: Vec<Lowering> = all_mappings(&schema)
            .iter()
            .map(|m| Lowering::build(&schema, m).unwrap())
            .collect();
        let mut cats: Vec<Catalog> = lowerings
            .iter()
            .map(|lw| {
                let mut cat = Catalog::new();
                lw.install(&mut cat).unwrap();
                cat
            })
            .collect();
        let mut model = Model::default();
        for op in opening().iter().chain(&tail) {
            let Some(call) = model.resolve(op) else { continue };
            let mut reference = None;
            for (lw, cat) in lowerings.iter().zip(cats.iter_mut()) {
                let store = EntityStore::new(lw);
                apply(&store, cat, &call);
                let entities: Vec<Vec<CanonRow>> = schema
                    .entities()
                    .iter()
                    .map(|e| canon_entities(&store, cat, &e.name))
                    .collect();
                let rels: Vec<Vec<KeyPair>> = schema
                    .relationships()
                    .iter()
                    .map(|r| canon_rel(&store, cat, &r.name))
                    .collect();
                for rel in RELS {
                    prop_assert_eq!(
                        canon_rel(&store, cat, rel),
                        model.rel_pairs(rel),
                        "{} after {:?}",
                        lw.mapping.name,
                        call
                    );
                }
                match &reference {
                    None => reference = Some((entities, rels)),
                    Some(r) => prop_assert!(
                        r == &(entities, rels),
                        "{} disagrees with {} after {:?}",
                        lw.mapping.name,
                        lowerings[0].mapping.name,
                        call
                    ),
                }
            }
        }
    }
}
