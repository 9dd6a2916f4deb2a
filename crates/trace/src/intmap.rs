//! A cheap hasher for maps keyed by small integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Folded-multiply hasher for integer keys: the compact-trace word intern
/// map and the emulator's page map, both hit once per recorded record,
/// and the board TLB's page map, hit once per translation.
/// Their keys are trusted, and `std`'s SipHash costs several times more
/// per lookup than one 64×64→128-bit multiply. Folding the product's high
/// half onto its low half lets every key bit reach the low bits the table
/// takes its bucket index from (a plain multiply only carries bits
/// upwards, so keys differing in their top bits would share buckets).
/// Not DoS-resistant: never key it with untrusted input.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p >> 64) as u64 ^ p as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // Page numbers count up and instruction words differ in their
        // immediate (the top 28 bits): either kind of run must spread over
        // the low bits a table's bucket index comes from. Uniformly random
        // hashes would fill about 647 of 1024 buckets.
        for (what, shift) in [("low", 0), ("high", 40)] {
            let buckets: HashSet<u64> = (0..1024u64).map(|k| hash(k << shift) & 1023).collect();
            assert!(
                buckets.len() > 600,
                "{what}: {} of 1024 buckets",
                buckets.len()
            );
        }
    }
}
