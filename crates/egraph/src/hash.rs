//! The hasher behind the e-graph's tables: rustc's Fx hash, written out so
//! the crate keeps its single dependency.
//!
//! Fx mixes a word in with one rotate, one xor and one multiply, where the
//! standard library's SipHash spends dozens of operations per key. E-nodes
//! are a few words each and are hashed on every `add`, on every node of
//! every rebuild and once per node for the operator index: with SipHash in
//! its place, a `Config::fast` corpus sweep spent about a fifth more time in
//! the runner (six interleaved runs on a 2-core x86-64 VM).
//!
//! Fx is not keyed, so an adversary who controls the keys can make them
//! collide. That is safe here, where the compile daemon saturates untrusted
//! FPCore, for three reasons:
//!
//! * no table is ever iterated, so the hash decides no result, only speed;
//! * the only keys a request can steer are its literal constants: operators
//!   come from a fixed set, variables hash as their interned index, and
//!   child ids are handed out by the e-graph in order;
//! * every table is bounded by the runner's node limit, so even a request
//!   whose constants all collide costs a bounded, quadratic number of key
//!   comparisons, inside the same deadline as any other compile.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// rustc's Fx hasher: for each word, `hash = (hash.rotl(5) ^ word) * K`.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// The multiplier rustc uses (from the golden ratio, made odd).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_words_are_mixed() {
        assert_eq!(fx(&(3u32, [1u32, 2])), fx(&(3u32, [1u32, 2])));
        assert_ne!(fx(&[1u32, 2]), fx(&[2u32, 1]));
        // A tail shorter than a word still reaches the state.
        let mut a = FxHasher::default();
        a.write(b"123456789");
        let mut b = FxHasher::default();
        b.write(b"12345678");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut map: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert(vec![i, i / 7], i as usize);
        }
        assert!((0..1000u32).all(|i| map[&vec![i, i / 7]] == i as usize));
    }
}
