//! Content fingerprints for mobile code.
//!
//! Every [`WireGroup`](crate::wire::WireGroup) / [`WireObj`](crate::wire::WireObj)
//! image is identified by a stable 128-bit hash over its *canonical codec
//! bytes* (the bytes the image holds and ships — see
//! [`codec::code_bytes`](crate::codec::code_bytes)). Because the codec is
//! the hardware-independent form of the paper's byte-code, two sites
//! compiling or re-shipping the same class always agree on the digest, and
//! the digest of a received image is re-derived from the bytes that
//! arrived to detect tampering in transit.
//!
//! The hash is a from-scratch MurmurHash3 x64/128 (public domain
//! algorithm): non-cryptographic, but 128 bits of well-mixed output make
//! accidental collisions implausible for a code cache, and the trust story
//! does not rest on it — cached images are re-screened by the static
//! verifier at insertion time (see DESIGN.md §12).

use std::fmt;

/// A 128-bit content fingerprint of a code image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub u128);

impl Digest {
    /// Encoded size on the wire, in bytes.
    pub const SIZE: usize = 16;

    /// Fingerprint a byte string.
    pub fn of(bytes: &[u8]) -> Digest {
        Digest(murmur3_x64_128(bytes, 0))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51afd7ed558ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ceb9fe1a85ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3 x64/128 over `data` with the given seed.
fn murmur3_x64_128(data: &[u8], seed: u64) -> u128 {
    const C1: u64 = 0x87c37b91114253d5;
    const C2: u64 = 0x4cf5ad432745937f;
    let mut h1 = seed;
    let mut h2 = seed;

    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut k1 = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 = (h1 ^ k1)
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dce729);
        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 = (h2 ^ k2)
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x38495ab5);
    }

    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; 16];
        buf[..tail.len()].copy_from_slice(tail);
        let mut k1 = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        if tail.len() > 8 {
            k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
            h2 ^= k2;
        }
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    ((h2 as u128) << 64) | h1 as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = Digest::of(b"def Adder(x, r) = r![x + 40]");
        let b = Digest::of(b"def Adder(x, r) = r![x + 40]");
        let c = Digest::of(b"def Adder(x, r) = r![x + 41]");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Digest::of(b""));
    }

    #[test]
    fn every_tail_length_hashes_distinctly() {
        // Exercise all chunk remainders (0..16) and check no trivial
        // prefix collisions among them.
        let data: Vec<u8> = (0u8..64).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=data.len() {
            assert!(seen.insert(Digest::of(&data[..n])), "collision at len {n}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base: Vec<u8> = (0u8..48).map(|i| i.wrapping_mul(37)).collect();
        let d0 = Digest::of(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(Digest::of(&m), d0, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let s = format!("{}", Digest(0x1f));
        assert_eq!(s.len(), 32);
        assert!(s.ends_with("1f"));
        assert_eq!(format!("{}", Digest(0)), "0".repeat(32));
    }
}
