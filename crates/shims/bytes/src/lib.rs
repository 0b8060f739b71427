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
    #[inline]
    pub fn new() -> Bytes {
        Bytes::default()
    }

    #[inline]
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    #[inline]
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view sharing the same allocation.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && self.start + range.end <= self.end);
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Bytes of the allocation this view keeps alive: the capacity of
    /// the buffer it was frozen from, however short the view. Not in the
    /// real crate; a reader that keeps a small view of a big read buffer
    /// checks it to bound what the view pins.
    #[inline]
    pub fn backing_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// The buffer back as a [`BytesMut`] holding this view's bytes, if
    /// this is the only view of its allocation; otherwise `self` again.
    /// A reader reclaims its accumulator this way once every view it
    /// handed out has been dropped, and reads on into the same
    /// allocation.
    #[inline]
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes {
            mut data,
            start,
            end,
        } = self;
        match Arc::get_mut(&mut data) {
            Some(vec) => {
                let mut vec = std::mem::take(vec);
                vec.truncate(end);
                vec.drain(..start);
                Ok(BytesMut {
                    vec,
                    spare: Some(data),
                })
            }
            None => Err(Bytes { data, start, end }),
        }
    }

    /// Split off the first `at` bytes into a new `Bytes`, advancing self.
    #[inline]
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
    #[inline]
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
    #[inline]
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    #[inline]
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl From<BytesMut> for Bytes {
    #[inline]
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
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
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
///
/// A buffer reclaimed from its frozen views ([`Bytes::try_into_mut`])
/// keeps the refcounted box it was frozen into, so freezing it again
/// allocates nothing: a reader that freezes its accumulator, hands out
/// views and reclaims it once they are gone reuses one allocation for
/// good.
#[derive(Default, Debug)]
pub struct BytesMut {
    vec: Vec<u8>,
    /// The emptied box of an earlier freeze, unshared.
    spare: Option<Arc<Vec<u8>>>,
}

impl Clone for BytesMut {
    #[inline]
    fn clone(&self) -> BytesMut {
        BytesMut {
            vec: self.vec.clone(),
            spare: None,
        }
    }
}

impl BytesMut {
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
            spare: None,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Bytes the buffer can hold without reallocating. `freeze` keeps
    /// the whole allocation alive behind the `Bytes` it returns, so this
    /// — not `len` — is what a retained view pins.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    #[inline]
    pub fn freeze(self) -> Bytes {
        let BytesMut { vec, spare } = self;
        let end = vec.len();
        let data = match spare {
            Some(mut data) => {
                *Arc::get_mut(&mut data).expect("a spare box is unshared") = vec;
                data
            }
            None => Arc::new(vec),
        };
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    #[inline]
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Grow (zero-filling) or shrink to `new_len`, like the real crate.
    /// With `DerefMut` this lets readers fill the buffer in place —
    /// `resize`, `read` into the tail, `truncate` to what arrived —
    /// instead of staging through a scratch buffer.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    #[inline]
    pub fn truncate(&mut self, new_len: usize) {
        self.vec.truncate(new_len);
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
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

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    #[inline]
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    #[inline]
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    #[inline]
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    #[inline]
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn get_u128_le(&mut self) -> u128 {
        let mut b = [0u8; 16];
        self.copy_to_slice(&mut b);
        u128::from_le_bytes(b)
    }

    #[inline]
    fn get_i64(&mut self) -> i64 {
        self.get_u64() as i64
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    #[inline]
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of Bytes");
        self.start += n;
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor over a growable byte buffer. Multi-byte writes are
/// big-endian unless suffixed `_le`.
pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u128_le(&mut self, v: u128) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_u64_le(v as u64);
    }

    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
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
    fn a_reclaimed_buffer_freezes_into_its_old_box() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"abcdef");
        let b = m.freeze();
        let view = b.slice(2..4);
        let b = b.try_into_mut().expect_err("a view is still out");
        drop(view);
        let mut m = b.try_into_mut().expect("the only view");
        assert_eq!(&m[..], b"abcdef");
        assert!(m.capacity() >= 64, "the allocation comes back");
        let boxed = Arc::as_ptr(m.spare.as_ref().expect("the box comes back"));
        m.clear();
        m.extend_from_slice(b"xy");
        let again = m.freeze();
        assert_eq!(Arc::as_ptr(&again.data), boxed, "no new box");
        assert_eq!(&again[..], b"xy");
        assert!(
            again.backing_capacity() >= 64,
            "a view pins the whole allocation"
        );
        let view = again.slice(1..2);
        drop(again);
        let tail = view.try_into_mut().expect("the only view");
        assert_eq!(&tail[..], b"y", "a reclaimed view keeps only its bytes");
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
