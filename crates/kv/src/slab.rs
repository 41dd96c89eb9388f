//! The per-key state of a store automaton: one append-only slab.
//!
//! A storage node and a store client each keep one state per key they have
//! touched and never forget a key, so the map is a `Vec` of entries in
//! insertion order plus a hash index from key to slot. A lookup is one hash
//! probe; an empty index bucket costs a key and a slot number, not a whole
//! register. The index hashes with a fixed multiplicative hasher, so nothing
//! depends on the process the store runs in, and nothing walks the index
//! anyway: the only walks, [`KeySlab::iter`] and [`KeySlab::values_mut`], go
//! in ascending key order, which keeps snapshot bytes and the order in which
//! corruption draws randomness independent of the order keys arrived in.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;

use crate::messages::Key;

/// Keys mapped to values of type `V`, append-only.
#[derive(Debug)]
pub struct KeySlab<V> {
    index: HashMap<Key, u32, BuildHasherDefault<KeyHasher>>,
    entries: Vec<(Key, V)>,
}

impl<V> Default for KeySlab<V> {
    fn default() -> Self {
        Self { index: HashMap::default(), entries: Vec::new() }
    }
}

impl<V> KeySlab<V> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is held.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.index.contains_key(key)
    }

    /// `key`'s value, if held.
    pub fn get(&self, key: &Key) -> Option<&V> {
        self.index.get(key).map(|&at| &self.entries[at as usize].1)
    }

    /// `key`'s value, mutably, if held.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut V> {
        self.index.get(key).map(|&at| &mut self.entries[at as usize].1)
    }

    /// `key`'s value, appending `make()` first if the key is new.
    pub fn get_or_insert_with(&mut self, key: Key, make: impl FnOnce() -> V) -> &mut V {
        let entries = &mut self.entries;
        let at = *self.index.entry(key).or_insert_with(|| {
            entries.push((key, make()));
            slot(entries.len() - 1)
        });
        &mut self.entries[at as usize].1
    }

    /// Set `key`'s value: in place if the key is held, else appended.
    pub fn insert(&mut self, key: Key, value: V) {
        match self.index.get(&key) {
            Some(&at) => self.entries[at as usize].1 = value,
            None => {
                self.index.insert(key, slot(self.entries.len()));
                self.entries.push((key, value));
            }
        }
    }

    /// Every entry, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        let mut walk: Vec<&(Key, V)> = self.entries.iter().collect();
        walk.sort_unstable_by_key(|e| e.0);
        walk.into_iter().map(|(key, value)| (key, value))
    }

    /// Every value, mutably, in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        let mut walk: Vec<&mut (Key, V)> = self.entries.iter_mut().collect();
        walk.sort_unstable_by_key(|e| e.0);
        walk.into_iter().map(|e| &mut e.1)
    }
}

impl<V> Index<&Key> for KeySlab<V> {
    type Output = V;

    fn index(&self, key: &Key) -> &V {
        self.get(key).expect("key is in the slab")
    }
}

fn slot(at: usize) -> u32 {
    u32::try_from(at).expect("a slab holds under 2^32 keys")
}

/// The index's hasher: a Fibonacci multiply of the key (the constant of
/// `ShardRouter::shard_of`) with the high half folded into the low half, so
/// the bucket bits depend on every key bit. Being unkeyed, it does not
/// resist keys crafted to collide: such keys make each other's probes
/// linear in their number.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_follow_inserts_and_walks_are_ascending() {
        let mut slab = KeySlab::new();
        for key in [9u64, 3, 1 << 40, 7] {
            slab.insert(key, key * 10);
        }
        slab.insert(3, 31);
        *slab.get_or_insert_with(5, || 50) += 1;
        assert_eq!(*slab.get_or_insert_with(9, || 0), 90);
        assert_eq!(slab.len(), 5);
        assert_eq!((slab.get(&3), slab[&5], slab.get(&4)), (Some(&31), 51, None));
        let keys: Vec<Key> = slab.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, [3, 5, 7, 9, 1 << 40]);
        for v in slab.values_mut() {
            *v += 1;
        }
        let values: Vec<u64> = slab.iter().map(|(_, &v)| v).collect();
        assert_eq!(values, [32, 52, 71, 91, (1 << 40) * 10 + 1]);
    }
}
