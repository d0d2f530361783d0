//! FNV-1a hashing for the hot hash tables of the evaluation and serving
//! layers.
//!
//! Rust's default `HashMap` hasher (SipHash-1-3) is keyed to resist
//! collision flooding from attacker-chosen keys, at roughly an order of
//! magnitude more cost per short key than a multiply-xor hash.  The tables
//! that use this one hash workload specs (small enums of integers) and
//! short human-chosen label strings on every report build, cache probe and
//! wire decode, and each table is bounded — the serving layer's report
//! cache by its capacity config, the label interner
//! ([`Interner`](crate::report::Interner)) by a hard entry cap — so a
//! crafted key set can at worst slow probes of one bounded table, never
//! grow memory.  That trade (bounded worst case for a ~10× cheaper common
//! case) is right for paths that hash several thousand keys per burst.

use std::hash::{BuildHasher, Hasher};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `BuildHasher` for [`FnvHasher`]; the zero-sized plug for `HashMap` /
/// `HashSet` type parameters.
#[derive(Clone, Default)]
pub struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(OFFSET)
    }
}

/// FNV-1a, with whole-word mixing for the integer writes that dominate
/// derived `Hash` impls over spec enums (byte-at-a-time only for raw byte
/// slices, i.e. strings).
pub struct FnvHasher(u64);

// The methods are `#[inline]` because the tables that hash with them live
// in other crates (the serving layer's cache, interner probes and wire
// dictionaries), and calls across a crate boundary do not inline without
// it.

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(PRIME);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(PRIME);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(PRIME);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(PRIME);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn distinct_inputs_hash_differently() {
        let build = FnvBuild;
        let h = |bytes: &[u8]| {
            let mut hasher = build.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"rsn-xnn"), h(b"rsn-gpu"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn word_writes_mix_every_bit() {
        let build = FnvBuild;
        let h = |n: u64| {
            let mut hasher = build.build_hasher();
            hasher.write_u64(n);
            hasher.finish()
        };
        // Neighbouring integers (the common workload-size pattern) must not
        // collide or cluster into the same low bits.
        let lows: std::collections::HashSet<u64> = (0..64u64).map(|n| h(n) & 0xfff).collect();
        assert!(lows.len() > 48, "low-bit clustering: {}", lows.len());
    }
}
