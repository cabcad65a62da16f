//! A fixed, fast hasher for the per-trace maps of the §5 statistics: the
//! connections of Table 2, its alias-resolution extension and Figure 9,
//! and Table 3's AS ranking.
//!
//! Their keys are simulator output (IP pairs, path fingerprints, ASNs),
//! not input an adversary picks, and every such map is read back through
//! a sort, so neither SipHash's flood resistance nor its random seed buys
//! anything there. Each word is folded in with one multiply: the 128-bit
//! product of (state XOR word) and an odd constant, low half XOR high
//! half. The high half carries the word's top bits down into the low bits
//! that hashbrown picks a bucket with; a rotate-multiply (FxHash) leaves
//! keys that differ only above bit 40 all in one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`FoldHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;
/// A `HashSet` over [`FoldHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<FoldHasher>>;

/// The odd multiplier: 2^64 over the golden ratio.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded-multiply hasher with a fixed seed (see the module doc).
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    /// Byte keys fold in one byte at a time; the keys these maps use are
    /// integers, which take the word-at-a-time paths below.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// The fullest of 2^16 buckets picked by a hash's low 16 bits.
    fn fullest_bucket<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<FoldHasher>::default();
        let mut buckets = vec![0usize; 1 << 16];
        for k in keys {
            buckets[(build.hash_one(k) & 0xffff) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    /// 65,536 keys that differ only in their high bits land at most 16 to
    /// a bucket; a rotate-multiply puts every `u64` key in bucket 0.
    #[test]
    fn keys_differing_only_in_high_bits_spread_over_the_low_bits() {
        let words = fullest_bucket((0..1u64 << 16).map(|i| i << 40));
        assert!(words <= 16, "u64 keys i << 40: {words} in one bucket");
        let pairs = fullest_bucket((0..1u32 << 16).map(|i| (i << 16, 0u32)));
        assert!(pairs <= 16, "(i << 16, 0) pairs: {pairs} in one bucket");
    }
}
