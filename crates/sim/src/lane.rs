//! The machine-word lane of the packed kernels.
//!
//! Every packed data path in the workspace — [`BitString`](crate::bits),
//! [`BitMatrix`](crate::linalg), the bit-sliced circuit evaluator in
//! `clique-circuits` — stores its bits in `u64` words, one column (or one
//! assignment) per bit. [`DefaultLane`] names that word and
//! [`Word::BITS`] its width, so kernel code derives all lane geometry
//! from one named constant instead of a literal.
//!
//! The lane width is an implementation detail of the *local computation*;
//! it is never observable in a protocol transcript. Message lengths are
//! counted in bits ([`BitString::len`](crate::bits::BitString::len)),
//! integrity checksums are computed over the canonical little-endian byte
//! serialisation of the bits, and fault plans draw from message
//! coordinates only.

/// A machine-word lane: the unit of bit-parallelism in the packed kernels.
pub trait Word {
    /// Lane width in bits.
    const BITS: usize;
}

impl Word for u64 {
    const BITS: usize = u64::BITS as usize;
}

/// The lane word the whole workspace runs on.
pub type DefaultLane = u64;
