//! FNV-1a, the workspace's one non-cryptographic hash.
//!
//! Transport frame checksums, fault-plan coordinate mixing, the serve
//! layer's record digests and its shard function all hash with this
//! 64-bit FNV-1a. Its output is pinned (records, shard placement and frame
//! checksums are part of the reproducible surface), so this module is the
//! single definition every caller shares.
//!
//! # Examples
//!
//! ```
//! use clique_sim::hash::{fnv1a64, Fnv1a};
//!
//! assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
//! let mut h = Fnv1a::new();
//! h.write(b"a");
//! assert_eq!(h.finish(), fnv1a64(b"a"));
//! ```

/// The 64-bit FNV offset basis (the hash of the empty input).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a state: `h' = (h ^ byte) · prime` per byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A state at the standard offset basis.
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// A state whose basis is the offset XOR `seed` — the seeded variant
    /// fault plans use to mix coordinates under their seed.
    pub const fn with_seed(seed: u64) -> Self {
        Self(seed ^ FNV_OFFSET)
    }

    /// Hashes `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes the little-endian bytes of `value` (platform independent).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fnv1a_test_vectors() {
        // The published 64-bit FNV-1a vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        let mut seeded = Fnv1a::with_seed(0);
        seeded.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            seeded.finish(),
            fnv1a64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }
}
