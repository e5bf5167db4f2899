//! Minimal `bytes` stand-in: a growable byte buffer with cheap front-advance
//! and a cheaply clonable frozen form.
//!
//! Implements the subset of the upstream API used by this workspace:
//! `BytesMut` with `Buf::advance` / `BufMut::{put_u32_le, put_slice}` semantics,
//! `split_to`, `resize`, `freeze`, and [`Bytes`] — an immutable `Arc`-backed
//! view whose `Clone` is a reference-count bump, not a copy.
//!
//! Both types are `(Arc<Vec<u8>>, start, end)` views over one shared
//! allocation, which is what makes the decode path allocation-free:
//! [`BytesMut::split_to`] and [`BytesMut::freeze`] are O(1) refcount bumps
//! (upstream semantics — no memmove, no copy), and a frozen frame stays valid
//! after the decoder that produced it keeps reading. Mutation goes through a
//! copy-on-write gate: the writer reuses its buffer in place while it is the
//! sole owner and silently re-allocates when outstanding views still alias it,
//! so readers never observe a write. The safe read-into tail
//! ([`BytesMut::tail_mut`] / [`BytesMut::advance_tail`]) replaces upstream's
//! `unsafe` `chunk_mut` with an initialized spare region a socket can read
//! straight into: zeroed on first use, then possibly stale bytes of an earlier
//! fill, never uninitialized memory.

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// Cloning shares the underlying allocation (upstream `bytes::Bytes`
/// semantics), so a frame encoded once can be queued to several peers or
/// retried after a reconnect without copying the payload.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if no readable bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view of `range` (in readable-byte coordinates), sharing
    /// the allocation — the upstream `Bytes::slice`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Returns `true` if this is the only handle on the underlying allocation
    /// (no other `Bytes` or `BytesMut` aliases it) — upstream
    /// `Bytes::is_unique`. A unique buffer can be reclaimed for reuse via
    /// [`Bytes::try_into_mut`] without copying.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Converts back into a [`BytesMut`] without copying if this is the sole
    /// handle on the allocation; returns `self` unchanged otherwise (upstream
    /// `Bytes::try_into_mut`). This is the reclaim half of the zero-allocation
    /// encode cycle: a spent batch buffer whose socket writer has dropped its
    /// view surrenders its allocation to the next batch.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when other views still share the allocation.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        if self.is_unique() {
            Ok(BytesMut { data: self.data, start: self.start, end: self.end })
        } else {
            Err(self)
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
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

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes { data: Arc::new(data), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }
}

impl Buf for Bytes {
    fn advance(&mut self, count: usize) {
        assert!(count <= self.len(), "advance past end of buffer");
        self.start += count;
    }
}

/// A mutable, growable byte buffer.
///
/// A `(shared allocation, start, end)` view like [`Bytes`], so
/// [`BytesMut::advance`], [`BytesMut::split_to`], and [`BytesMut::freeze`] are
/// O(1) bookkeeping with no copy. Writes require unique ownership: while split
/// heads or frozen frames still alias the allocation, the next write
/// transparently moves the readable bytes to a fresh buffer (copy-on-write);
/// once all views are gone, the whole capacity is reused in place.
pub struct BytesMut {
    data: Arc<Vec<u8>>,
    /// First readable byte.
    start: usize,
    /// One past the last readable byte. The backing vector's length is the
    /// *initialized watermark* — it may exceed `end` after an `advance_tail`
    /// under-fill or a shrinking `resize`, and that spare region is reused by
    /// the next write without re-zeroing.
    end: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least `capacity` bytes of capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Arc::new(Vec::with_capacity(capacity)), start: 0, end: 0 }
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if no readable bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if no other `Bytes` or `BytesMut` view shares the
    /// allocation, so the next write lands in place instead of copying
    /// (upstream `BytesMut` has no shared form; see [`Bytes::is_unique`]).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Ensures space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.writable(additional);
    }

    /// Appends `bytes` to the buffer.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        let count = bytes.len();
        self.writable(count)[..count].copy_from_slice(bytes);
        self.end += count;
    }

    /// Appends at `Vec` speed: re-establishes the writer invariants **once**
    /// (sole ownership of the allocation — copy-on-write when views alias it —
    /// and a bounded dead prefix), then hands `fill` the backing vector, cut
    /// off at the readable end, to push onto directly. Everything `fill`
    /// leaves appended becomes readable.
    ///
    /// This is the bulk-write path of the frame encoder: one ownership check
    /// per frame instead of one per [`BytesMut::extend_from_slice`] call.
    /// Positions in the vector are stable for the duration of the call, so
    /// `fill` may back-patch bytes it appended (a length prefix) or truncate
    /// back to the length it was handed (roll-back); they are offsets into the
    /// allocation, not into the readable region.
    ///
    /// # Panics
    ///
    /// Panics if `fill` shrinks the vector below the length it was handed.
    pub fn append_with<R>(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let (vec, end) = self.unique_vec();
        vec.truncate(end);
        let result = fill(vec);
        let filled = vec.len();
        assert!(filled >= end, "append_with: fill cut into the readable region");
        self.end = filled;
        result
    }

    /// Exposes at least `min` writable bytes past the readable region, for a
    /// reader to fill directly (e.g. a socket `read`); commit what was actually
    /// written with [`BytesMut::advance_tail`]. The returned slice may be
    /// longer than `min`; its bytes are zeroed on first use, then possibly
    /// stale bytes of an earlier fill (a recycled buffer's), so only what
    /// `advance_tail` commits becomes readable.
    ///
    /// This is the safe stand-in for upstream's `chunk_mut`: one buffer serves
    /// as both the read destination and the decode source, removing the
    /// staging-chunk copy.
    pub fn tail_mut(&mut self, min: usize) -> &mut [u8] {
        self.writable(min)
    }

    /// Marks `count` bytes of the [`BytesMut::tail_mut`] region as filled,
    /// extending the readable region over them.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the initialized tail capacity.
    pub fn advance_tail(&mut self, count: usize) {
        assert!(self.end + count <= self.data.len(), "advance_tail past initialized tail");
        self.end += count;
    }

    /// Splits off and returns the first `count` readable bytes as a view
    /// sharing the allocation — O(1), no copy.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of readable bytes.
    pub fn split_to(&mut self, count: usize) -> BytesMut {
        assert!(count <= self.len(), "split_to past end of buffer");
        let head =
            BytesMut { data: Arc::clone(&self.data), start: self.start, end: self.start + count };
        self.start += count;
        head
    }

    /// Resizes the readable region to `new_len`, filling with `fill` when growing.
    pub fn resize(&mut self, new_len: usize, fill: u8) {
        let len = self.len();
        if new_len <= len {
            self.end = self.start + new_len;
            return;
        }
        let grow = new_len - len;
        self.writable(grow)[..grow].fill(fill);
        self.end += grow;
    }

    /// Discards all readable bytes, keeping the allocation.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Converts the buffer into an immutable [`Bytes`] without copying — the
    /// view keeps sharing the allocation (O(1), upstream semantics).
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data, start: self.start, end: self.end }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Returns a uniquely owned, initialized slice of at least `min` bytes
    /// starting at `end` (the writable tail).
    fn writable(&mut self, min: usize) -> &mut [u8] {
        let (vec, end) = self.unique_vec();
        if vec.len() < end + min {
            vec.resize(end + min, 0);
        }
        &mut vec[end..]
    }

    /// Re-establishes the writer invariants — sole ownership of the allocation
    /// (copy-on-write when views alias it) and a bounded dead prefix (compact
    /// when the dead bytes outweigh the live ones: amortized O(1) per byte
    /// advanced) — and returns the backing vector with the offset in it of
    /// the readable end, which normalizing may have moved.
    fn unique_vec(&mut self) -> (&mut Vec<u8>, usize) {
        if Arc::get_mut(&mut self.data).is_none() {
            // Outstanding views alias the buffer: move the readable bytes to a
            // fresh allocation and leave the old one to the views.
            let len = self.end - self.start;
            let mut fresh = Vec::with_capacity(len.max(self.data.capacity()));
            fresh.extend_from_slice(&self.data[self.start..self.end]);
            self.data = Arc::new(fresh);
            self.start = 0;
            self.end = len;
        } else if self.start == self.end {
            // Nothing readable: restart at offset zero, reusing the whole
            // capacity (and watermark) with no copy.
            self.start = 0;
            self.end = 0;
        } else if self.start > 0 && self.start >= self.end - self.start {
            // The dead prefix dominates: reclaim it with one memmove of the
            // live bytes (each byte moves at most once per 2x it was advanced
            // past, so advance stays amortized O(1)).
            let (start, end) = (self.start, self.end);
            let vec = Arc::get_mut(&mut self.data).expect("checked unique");
            vec.copy_within(start..end, 0);
            vec.truncate(end - start);
            self.start = 0;
            self.end = end - start;
        }
        (Arc::get_mut(&mut self.data).expect("unique after normalization"), self.end)
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut { data: Arc::new(Vec::new()), start: 0, end: 0 }
    }
}

impl Clone for BytesMut {
    /// Deep copy of the readable bytes (upstream semantics: a `BytesMut` clone
    /// must be independently mutable).
    fn clone(&self) -> Self {
        BytesMut::from(self.as_slice())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BytesMut {}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        // Route through the copy-on-write gate, which keeps the length.
        let len = self.len();
        let (vec, end) = self.unique_vec();
        &mut vec[end - len..end]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", self.as_slice())
    }
}

impl From<&[u8]> for BytesMut {
    fn from(bytes: &[u8]) -> Self {
        BytesMut { data: Arc::new(bytes.to_vec()), start: 0, end: bytes.len() }
    }
}

/// Read-side methods (subset of the upstream `Buf` trait).
pub trait Buf {
    /// Discards the first `count` readable bytes.
    fn advance(&mut self, count: usize);
}

impl Buf for BytesMut {
    /// O(1) bookkeeping; dead-prefix space is reclaimed lazily by the next
    /// write (see [`BytesMut::tail_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of readable bytes.
    fn advance(&mut self, count: usize) {
        assert!(count <= self.len(), "advance past end of buffer");
        self.start += count;
    }
}

/// Write-side methods (subset of the upstream `BufMut` trait).
pub trait BufMut {
    /// Appends `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, value: u32) {
        self.put_slice(&value.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_shares_the_allocation() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"payload");
        let frozen = buf.freeze();
        let alias = frozen.clone();
        assert_eq!(&frozen[..], b"payload");
        assert_eq!(frozen, alias);
        assert_eq!(alias.as_ref().as_ptr(), frozen.as_ref().as_ptr());
        assert_eq!(&frozen.slice(..3)[..], b"pay");
        assert_eq!(&frozen.slice(3..)[..], b"load");
        assert_eq!(frozen.slice(3..).as_ref().as_ptr(), frozen.as_ref()[3..].as_ptr());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"abc");
        buf.advance(1);
        buf.clear();
        assert!(buf.is_empty());
        buf.put_slice(b"xyz");
        assert_eq!(&buf[..], b"xyz");
    }

    #[test]
    fn append_advance_split() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(5);
        buf.put_slice(b"hello");
        assert_eq!(buf.len(), 9);
        buf.advance(4);
        let head = buf.split_to(3);
        assert_eq!(&head[..], b"hel");
        assert_eq!(&buf[..], b"lo");
        buf.resize(4, 0);
        assert_eq!(&buf[..], b"lo\0\0");
    }

    #[test]
    fn split_and_freeze_are_zero_copy_views() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"frame-a|frame-b");
        let base = buf.as_ref().as_ptr();
        let head = buf.split_to(8);
        assert_eq!(&head[..], b"frame-a|");
        assert_eq!(head.as_ref().as_ptr(), base, "split head aliases the allocation");
        let frozen = head.freeze();
        assert_eq!(frozen.as_ref().as_ptr(), base, "freeze does not copy");
        // The view stays valid and intact while the source keeps mutating.
        buf.put_slice(b"|frame-c");
        assert_eq!(&frozen[..], b"frame-a|");
        assert_eq!(&buf[..], b"frame-b|frame-c");
    }

    #[test]
    fn writes_reuse_capacity_once_views_are_dropped() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"0123456789");
        let view = buf.split_to(10).freeze();
        drop(view);
        buf.put_slice(b"ab");
        // All views gone and nothing readable was pending: the buffer restarts
        // at offset zero instead of growing.
        assert_eq!(&buf[..], b"ab");
        assert_eq!(buf.start, 0);
    }

    #[test]
    fn writes_never_disturb_live_views() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"first");
        let view = buf.split_to(5).freeze();
        buf.put_slice(b"second");
        assert_eq!(&view[..], b"first");
        assert_eq!(&buf[..], b"second");
        let mut clone_source = BytesMut::from(&b"deep"[..]);
        let deep = clone_source.clone();
        clone_source.extend_from_slice(b"er");
        assert_eq!(&deep[..], b"deep");
        assert_eq!(&clone_source[..], b"deeper");
    }

    #[test]
    fn advance_reclaims_lazily_without_quadratic_cost() {
        let mut buf = BytesMut::with_capacity(32);
        // Many advance cycles over a bounded buffer must not grow it without
        // bound: the dead prefix is reclaimed whenever it dominates.
        for _ in 0..10_000 {
            buf.put_slice(&[7u8; 16]);
            buf.advance(16);
        }
        assert!(buf.is_empty());
        assert!(buf.data.capacity() < 4096, "capacity stayed bounded");
    }

    #[test]
    fn tail_read_into_round_trips() {
        let mut buf = BytesMut::new();
        let tail = buf.tail_mut(8);
        assert!(tail.len() >= 8);
        tail[..3].copy_from_slice(b"abc");
        buf.advance_tail(3);
        assert_eq!(&buf[..], b"abc");
        // A second fill appends after the first.
        buf.tail_mut(4)[..2].copy_from_slice(b"de");
        buf.advance_tail(2);
        assert_eq!(&buf[..], b"abcde");
    }

    #[test]
    fn append_with_matches_extend_and_keeps_capacity() {
        let mut bulk = BytesMut::with_capacity(64);
        let mut plain = BytesMut::new();
        bulk.put_slice(b"head|");
        plain.put_slice(b"head|");
        bulk.advance(2);
        plain.advance(2);
        let base = bulk.data.as_ptr();
        let patched = bulk.append_with(|out| {
            let at = out.len();
            out.extend_from_slice(b"?body");
            out[at] = b'!';
            at
        });
        plain.put_slice(b"!body");
        assert_eq!(bulk, plain);
        assert_eq!(patched, 5, "positions are offsets into the allocation");
        assert_eq!(bulk.data.as_ptr(), base, "sole owner appends in place");
        // A roll-back to the handed length appends nothing.
        bulk.append_with(|out| {
            let at = out.len();
            out.extend_from_slice(b"discarded");
            out.truncate(at);
        });
        assert_eq!(bulk, plain);
    }

    #[test]
    fn append_with_never_disturbs_live_views() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"first|second");
        let view = buf.split_to(6).freeze();
        buf.append_with(|out| out.extend_from_slice(b"|third"));
        assert_eq!(&view[..], b"first|");
        assert_eq!(&buf[..], b"second|third");
        // An under-filled tail (initialized past the readable end) is dropped,
        // not exposed as appended bytes.
        buf.tail_mut(16)[..2].copy_from_slice(b"xy");
        buf.append_with(|out| out.push(b'.'));
        assert_eq!(&buf[..], b"second|third.");
    }

    #[test]
    fn try_into_mut_reclaims_unique_buffers_without_copying() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"batch-one");
        let frozen = buf.freeze();
        let base = frozen.as_ref().as_ptr();
        assert!(frozen.is_unique());
        let mut reclaimed = frozen.try_into_mut().expect("sole owner reclaims");
        assert_eq!(&reclaimed[..], b"batch-one");
        reclaimed.clear();
        reclaimed.put_slice(b"batch-two");
        assert_eq!(reclaimed.as_ref().as_ptr(), base, "reclaim reuses the allocation in place");
    }

    #[test]
    fn is_unique_tracks_split_views() {
        let mut buf = BytesMut::from(&b"head|tail"[..]);
        assert!(buf.is_unique());
        let head = buf.split_to(5).freeze();
        assert!(!buf.is_unique(), "a split head aliases the allocation");
        drop(head);
        assert!(buf.is_unique());
    }

    #[test]
    fn try_into_mut_refuses_while_views_are_live() {
        let frozen = Bytes::from(&b"shared"[..]);
        let alias = frozen.clone();
        assert!(!frozen.is_unique());
        let back = frozen.try_into_mut().expect_err("aliased buffer cannot be reclaimed");
        assert_eq!(&back[..], b"shared");
        drop(alias);
        assert!(back.is_unique());
        assert!(back.try_into_mut().is_ok());
    }

    #[test]
    fn equality_ignores_view_offsets() {
        let mut a = BytesMut::from(&b"xxhello"[..]);
        a.advance(2);
        let b = BytesMut::from(&b"hello"[..]);
        assert_eq!(a, b);
        assert_eq!(a.freeze(), Bytes::from(&b"hello"[..]));
    }
}
