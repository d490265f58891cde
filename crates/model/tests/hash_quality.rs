//! Hash quality of `FxHasher` over the key shapes the engine hashes most:
//! primary and secondary index keys, hash-join builds, GROUP BY, DISTINCT,
//! `IN` sets and ANALYZE's distinct-value sets are all `Value`-keyed
//! tables. A hash whose low bits collapse puts every key into one probe
//! chain, and a hash whose top seven bits collapse defeats the tag byte
//! std's `HashMap` filters each probe group with.

use erbium_model::Value;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

const N: usize = 1 << 16;

fn fx(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Hash `N` keys and require the low 16 bits to take at least half of
/// their `N` possible values (a uniform hash takes about 63 %) and the top
/// 7 bits to take all 128.
fn assert_spread(shape: &str, keys: impl Iterator<Item = Value>) {
    let mut low = vec![false; N];
    let mut tag = [false; 128];
    for k in keys {
        let h = fx(&k);
        low[(h & 0xffff) as usize] = true;
        tag[(h >> 57) as usize] = true;
    }
    let low_share = low.iter().filter(|b| **b).count() as f64 / N as f64;
    let tags = tag.iter().filter(|b| **b).count();
    assert!(
        low_share >= 0.5,
        "{shape}: low 16 bits take {:.1} % of their values",
        low_share * 100.0
    );
    assert_eq!(tags, 128, "{shape}: top 7 bits take {tags} of 128 values");
}

#[test]
fn sequential_ints_spread() {
    assert_spread("Int 0..", (0..N as i64).map(Value::Int));
}

#[test]
fn large_ints_spread() {
    assert_spread("Int 10^7..", (10_000_000..10_000_000 + N as i64).map(Value::Int));
}

#[test]
fn integral_floats_spread() {
    assert_spread("integral Float", (0..N).map(|i| Value::Float(i as f64)));
}

#[test]
fn composite_int_keys_spread() {
    assert_spread(
        "Struct([Int, Int])",
        (0..N as i64).map(|i| Value::Struct(vec![Value::Int(i / 256), Value::Int(i % 256)])),
    );
}

#[test]
fn short_strings_spread() {
    assert_spread("short Str", (0..N).map(|i| Value::str(format!("k{i}"))));
}

#[test]
fn int_and_integral_float_still_hash_equal() {
    for i in [0i64, 3, -7, 10_000_000] {
        assert_eq!(fx(&Value::Int(i)), fx(&Value::Float(i as f64)));
    }
}
