//! Small internal utilities: a fast, deterministic hasher for the
//! simulator's and detector's hot lookups.
//!
//! The simulator's per-line and per-page tables (the coherence directory's
//! page index, the sharded executor's exception and settling maps) and the
//! detector's per-line and per-object tables are probed on every access or
//! sample, so the default SipHash would dominate the run time. Keys are
//! cache-line ids, page numbers and addresses (already well distributed), so
//! a Fibonacci multiply-xor hash is both fast and collision-resistant
//! enough. Determinism also matters: the std `RandomState` would make
//! iteration order differ between runs, and although the simulator never
//! iterates maps for ordering, a fixed hasher removes the temptation
//! entirely.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher64`]; used for the workspace's keyed hot tables.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher64>>;

/// A `HashSet` using [`FxHasher64`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher64>>;

/// Multiply-xor hasher specialised for integer-like keys.
///
/// Not cryptographic; do not expose to untrusted input. All keys hashed with
/// it inside this workspace are internally generated ids.
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    state: u64,
}

/// 2^64 / phi, the canonical Fibonacci hashing constant.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher64 {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(value: T) -> u64 {
        let mut hasher = FxHasher64::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("abc"), hash_one("abc"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential line ids (the common key distribution) must not collide.
        let hashes: FastSet<u64> = (0u64..10_000).map(hash_one).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn map_smoke() {
        let mut map: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000 {
            map.insert(i, (i * 2) as u32);
        }
        assert_eq!(map.get(&500), Some(&1000));
        assert_eq!(map.len(), 1000);
    }
}
