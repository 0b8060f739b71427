//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal, API-compatible subset of `bytes`: the
//! `Bytes` / `BytesMut` buffer types and the `Buf` / `BufMut` cursor
//! traits, exactly as used by the codec, image, fabric and daemon code.
//! Semantics match the real crate for this subset: `Bytes` is a cheaply
//! cloneable immutable view, `advance` consumes from the front, and all
//! multi-byte accessors default to big-endian with `_le` variants.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable immutable byte buffer (refcounted slice view).
/// Backed by `Arc<Vec<u8>>` so freezing a buffer moves it without
/// copying the bytes, like the real crate.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view sharing the same allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && self.start + range.end <= self.end);
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Split off the first `at` bytes into a new `Bytes`, advancing self.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:?}", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Bytes the buffer can hold without reallocating. `freeze` keeps
    /// the whole allocation alive behind the `Bytes` it returns, so this
    /// — not `len` — is what a retained view pins.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Grow (zero-filling) or shrink to `new_len`, like the real crate.
    /// With `DerefMut` this lets readers fill the buffer in place —
    /// `resize`, `read` into the tail, `truncate` to what arrived —
    /// instead of staging through a scratch buffer.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    pub fn truncate(&mut self, new_len: usize) {
        self.vec.truncate(new_len);
    }

    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

/// Read cursor over a byte buffer. Multi-byte reads are big-endian unless
/// suffixed `_le`.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_u128_le(&mut self) -> u128 {
        let mut b = [0u8; 16];
        self.copy_to_slice(&mut b);
        u128::from_le_bytes(b)
    }

    fn get_i64(&mut self) -> i64 {
        self.get_u64() as i64
    }

    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of Bytes");
        self.start += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor over a growable byte buffer. Multi-byte writes are
/// big-endian unless suffixed `_le`.
pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u128_le(&mut self, v: u128) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_u64_le(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_views() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(1);
        m.put_u16(0x0203);
        m.put_u32(0x04050607);
        m.put_u64(0x08090a0b0c0d0e0f);
        m.put_i64(-5);
        let mut b = m.freeze();
        assert_eq!(b.len(), 23);
        let c = b.clone();
        assert_eq!(b.get_u8(), 1);
        assert_eq!(b.get_u16(), 0x0203);
        assert_eq!(b.get_u32(), 0x04050607);
        assert_eq!(b.get_u64(), 0x08090a0b0c0d0e0f);
        assert_eq!(b.get_i64(), -5);
        assert!(!b.has_remaining());
        assert_eq!(c.len(), 23, "clone is an independent view");
    }

    #[test]
    fn split_and_slice() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&b[..], &[2, 3, 4]);
        assert_eq!(&b.slice(1..3)[..], &[3, 4]);
    }
}
