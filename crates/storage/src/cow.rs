//! Copy-on-write pieces: the unit a commit copies when a snapshot shares it.
//!
//! A published read view holds the same `Arc`s as the writer, so the
//! writer's next change to anything a view can see detaches a private copy
//! first ([`cow_mut`]). What that copy costs is decided by how big the
//! piece is. [`ShardedMap`] keeps a hash map as a power-of-two array of
//! independently shared shards, so a write copies one shard of a bounded
//! size instead of the whole map: the hash indexes and the string
//! dictionaries' reverse maps are built on it.

use rustc_hash::{FxBuildHasher, FxHashMap};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

fn m_cow_copies() -> &'static erbium_obs::Counter {
    static H: std::sync::OnceLock<std::sync::Arc<erbium_obs::Counter>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_storage_cow_copies_total",
            "Copy-on-write copies of a table, page, index shard or dictionary chunk",
        )
    })
}

/// `Arc::make_mut`, counting in `erbium_storage_cow_copies_total` the
/// calls that really copy because another owner (a snapshot) shares `a`.
pub(crate) fn cow_mut<T: Clone>(a: &mut Arc<T>) -> &mut T {
    let before = Arc::as_ptr(a);
    let out = Arc::make_mut(a);
    if !std::ptr::eq(before, out) {
        m_cow_copies().inc();
    }
    out
}

/// Average entries per shard above which the shard count doubles.
const SHARD_TARGET: usize = 64;

/// A hash map split into `2^k` shards by key hash, each behind its own
/// `Arc`. Cloning copies one pointer per shard; a write copies at most the
/// one shard it lands in. The shard count follows the entry count: it
/// doubles once the average shard holds more than [`SHARD_TARGET`] keys,
/// so a shard copy stays bounded whatever the map's size.
#[derive(Debug, Clone)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Arc<FxHashMap<K, V>>>,
    len: usize,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap { shards: vec![Arc::default()], len: 0 }
    }
}

/// The shard of a key with hash `h` among `n` (a power of two). Bits from
/// the middle of the hash: the shard's own table indexes buckets with the
/// low bits and tags them with the top seven, so keys sharing a shard must
/// not share those.
#[inline]
fn shard_index(h: u64, n: usize) -> usize {
    (h >> 32) as usize & (n - 1)
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    #[inline]
    fn shard_of<Q: Hash + ?Sized>(&self, k: &Q) -> usize {
        shard_index(FxBuildHasher::default().hash_one(k), self.shards.len())
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard_of(k)].get(k)
    }

    /// Mutable access to the value of `k`. Copies the key's shard only when
    /// the key is present and a snapshot shares the shard.
    pub(crate) fn get_mut<Q>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.shard_of(k);
        let shard = &mut self.shards[i];
        if Arc::get_mut(shard).is_none() && !shard.contains_key(k) {
            return None;
        }
        cow_mut(shard).get_mut(k)
    }

    /// Insert `k`, or edit its present value: `new` builds the value of an
    /// absent key, `update` edits a present one.
    pub(crate) fn upsert(&mut self, k: K, new: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        let i = self.shard_of(&k);
        match cow_mut(&mut self.shards[i]).entry(k) {
            Entry::Occupied(mut o) => return update(o.get_mut()),
            Entry::Vacant(v) => {
                v.insert(new());
            }
        }
        self.grew();
    }

    /// The value of `k`; when absent, `key()` is inserted with `new()`
    /// first. A present key copies nothing.
    pub(crate) fn get_or_insert_with<Q>(
        &mut self,
        k: &Q,
        key: impl FnOnce() -> K,
        new: impl FnOnce() -> V,
    ) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Copy,
    {
        let i = self.shard_of(k);
        if let Some(&v) = self.shards[i].get(k) {
            return v;
        }
        let v = new();
        cow_mut(&mut self.shards[i]).insert(key(), v);
        self.grew();
        v
    }

    /// Count one new key; split once the shards are full on average.
    fn grew(&mut self) {
        self.len += 1;
        if self.len > self.shards.len() * SHARD_TARGET {
            self.split();
        }
    }

    /// Remove `k`, returning its value. Copies the key's shard only when
    /// the key is present.
    pub(crate) fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.shard_of(k);
        let shard = &mut self.shards[i];
        if Arc::get_mut(shard).is_none() && !shard.contains_key(k) {
            return None;
        }
        let v = cow_mut(shard).remove(k);
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Double the shard count. Shard `i` splits into `i` and `i + n` (the
    /// next hash bit decides): the keys that move are extracted into the
    /// new shard, the rest stay where they are.
    fn split(&mut self) {
        let n = self.shards.len();
        let mut high = Vec::with_capacity(n);
        for shard in &mut self.shards {
            let moves = |k: &K| shard_index(FxBuildHasher::default().hash_one(k), 2 * n) >= n;
            let moved: FxHashMap<K, V> = match Arc::get_mut(shard) {
                Some(map) => {
                    let mut hi =
                        FxHashMap::with_capacity_and_hasher(map.len() / 2, FxBuildHasher::default());
                    hi.extend(map.extract_if(|k, _| moves(k)));
                    hi
                }
                None => {
                    // A snapshot shares the shard: both halves are copies.
                    m_cow_copies().inc();
                    let (hi, lo): (FxHashMap<K, V>, FxHashMap<K, V>) = shard
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .partition(|(k, _)| moves(k));
                    *shard = Arc::new(lo);
                    hi
                }
            };
            high.push(Arc::new(moved));
        }
        self.shards.extend(high);
    }

    /// Shards of `self` that are not the very same allocation as the
    /// matching shard of `other` (a clone that has since diverged).
    #[cfg(test)]
    pub(crate) fn unshared_with(&self, other: &Self) -> usize {
        unshared(&self.shards, &other.shards)
    }

    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Positions where two piece vectors hold different allocations (a piece
/// only one side has counts as unshared).
#[cfg(test)]
pub(crate) fn unshared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
    a.len().max(b.len()) - a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_grows_and_answers_like_a_map() {
        let mut m: ShardedMap<u64, u64> = ShardedMap::default();
        for k in 0..10_000u64 {
            m.upsert(k, || k * 2, |_| unreachable!("fresh key"));
        }
        assert_eq!(m.len(), 10_000);
        assert!(m.shard_count() >= 10_000 / SHARD_TARGET / 2, "shards follow the entry count");
        m.upsert(7, || unreachable!("present key"), |v| *v += 1);
        assert_eq!(m.get(&7), Some(&15));
        *m.get_mut(&8).unwrap() = 0;
        assert_eq!(m.get(&8), Some(&0));
        assert_eq!(m.remove(&9), Some(18));
        assert_eq!(m.remove(&9), None);
        assert_eq!(m.get_mut(&9), None);
        assert_eq!(m.len(), 9_999);
        for k in (0..10_000u64).filter(|k| ![7, 8, 9].contains(k)) {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn a_write_to_a_clone_copies_one_shard() {
        let mut m: ShardedMap<u64, u64> = ShardedMap::default();
        for k in 0..5_000u64 {
            m.upsert(k, || k, |_| {});
        }
        let snap = m.clone();
        assert_eq!(m.unshared_with(&snap), 0);
        m.upsert(1, || 0, |v| *v = 100);
        m.remove(&1_000_000);
        m.get_mut(&2_000_000);
        assert_eq!(m.unshared_with(&snap), 1, "only the written shard detaches");
        assert_eq!(snap.get(&1), Some(&1), "the clone keeps its answer");
        assert_eq!(m.get(&1), Some(&100));
    }

    #[test]
    fn a_split_under_a_clone_leaves_the_clone_whole() {
        let mut m: ShardedMap<u64, u64> = ShardedMap::default();
        let mut k = 0;
        while m.len() < 4 * SHARD_TARGET {
            m.upsert(k, || k, |_| {});
            k += 1;
        }
        let shards = m.shard_count();
        let snap = m.clone();
        m.upsert(k, || k, |_| {});
        assert_eq!(m.shard_count(), 2 * shards, "the insert split the map");
        assert_eq!(snap.shard_count(), shards);
        for key in 0..k {
            assert_eq!((m.get(&key), snap.get(&key)), (Some(&key), Some(&key)));
        }
        assert_eq!((m.get(&k), snap.get(&k)), (Some(&k), None));
        assert_eq!(m.get_or_insert_with(&(k + 1), || k + 1, || 7), 7);
        assert_eq!(m.get_or_insert_with(&(k + 1), || unreachable!(), || 8), 7);
    }
}
