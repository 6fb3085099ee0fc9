//! 128-bit state digests.
//!
//! [`sip128`] hashes one value with two SipHash passes that differ only
//! in a leading prefix word, giving 128 independent bits (deriving one
//! half from the other would leave 64). It is the element hash of the
//! *maintained* digests: a container such as [`crate::rob::Rob`] keeps
//! the XOR of `sip128` over its elements (Zobrist hashing), and each
//! mutator XORs the old element's hash out and the new one in, so a
//! write costs one element hash instead of a pass over the container.
//! XOR over a set is order-free, so the digest is a function of the
//! contents alone, and two different sets collide only if the XOR of
//! their symmetric difference is zero: about 2⁻¹²⁸ for pseudo-random
//! element hashes, the same bound as one `sip128` over the whole
//! container.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Two SipHash passes over `x` with distinct prefixes, high half first.
pub fn sip128<T: Hash + ?Sized>(x: &T) -> u128 {
    let pass = |prefix: u64| {
        let mut h = DefaultHasher::new();
        prefix.hash(&mut h);
        x.hash(&mut h);
        h.finish()
    };
    (u128::from(pass(0x5c7)) << 64) | u128::from(pass(0xa5a5_0f0f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_are_independent_and_stable() {
        let d = sip128(&(1u64, 2u64));
        assert_ne!(d >> 64, d & u128::from(u64::MAX));
        assert_eq!(d, sip128(&(1u64, 2u64)));
        assert_ne!(d, sip128(&(2u64, 1u64)));
    }
}
