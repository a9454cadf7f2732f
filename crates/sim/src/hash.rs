//! A fixed, fast hasher for the simulator's internal maps.
//!
//! The cluster simulator resolves action names and model ids to dense ids
//! where they enter: when an action is registered, a trace or a session is
//! added, a model is prewarmed or a container-kill fault fires.  `std`'s default hasher, SipHash, resists keys chosen to
//! collide, which these names do not need, so the simulator's private
//! name-to-id maps use [`FxHashMap`] instead: rustc's FxHash, one rotate,
//! one xor and one multiply per word of input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's 64-bit FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: each word of input is folded into the state with one
/// rotate, one xor and one multiply.  The state starts at zero and is never
/// keyed, so the same keys hash the same way in every process.
///
/// It is safe only where the simulator uses it.  An unkeyed hash lets
/// whoever picks the keys force collisions, but every key these maps see is
/// a name the simulator's configuration creates (action names, model ids),
/// never bytes from outside the program.  And no simulated output
/// depends on map iteration order: none can, because `std`'s `RandomState`
/// reseeds in every process while every golden stays byte-identical across
/// processes.
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                rest[..4].try_into().expect("4-byte prefix"),
            )));
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u64::from(u16::from_le_bytes(
                rest[..2].try_into().expect("2-byte prefix"),
            )));
            rest = &rest[2..];
        }
        if let Some(&byte) = rest.first() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn hashes_are_fixed_across_processes() {
        // One word from the zero state is a single multiply.
        assert_eq!(hash_of(1u64), SEED);
        assert_eq!(hash_of(0u64), 0);
        // `str` hashes its bytes then a 0xff terminator: "abc" folds a
        // two-byte word, one byte, then the terminator.
        let mut expected = FxHasher::default();
        expected.add(u64::from(u16::from_le_bytes(*b"ab")));
        expected.add(u64::from(b'c'));
        expected.add(0xff);
        assert_eq!(hash_of("abc"), expected.finish());
    }

    #[test]
    fn byte_writes_fold_little_endian_words() {
        let mut bytes = FxHasher::default();
        bytes.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(bytes.finish(), hash_of(0x0102_0304_0506_0708u64));
        // Strings that differ only in their tail bytes still differ.
        let names = ["pool-mbnet", "pool-dsnet", "pool-rsnet", "pool-mbnet-0"];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(hash_of(a), hash_of(b), "{a} vs {b}");
            }
        }
    }
}
