//! Length-prefixed framing for stream transports.
//!
//! TCP delivers a byte stream, so the networked replicas delimit messages with a
//! 4-byte little-endian length prefix followed by the wire-format payload. The
//! [`FrameDecoder`] is an incremental decoder suitable for feeding arbitrary chunks
//! (as produced by socket reads), [`encode_frame`] produces one framed message, and
//! [`FrameEncoder`] batches many frames into a single contiguous buffer, written
//! from in place or handed off as [`Bytes`] without copying — the write-side
//! coalescing path.
//!
//! Both sides can hand their buffers out as refcounted views (a taken batch to
//! its writer, a read chunk's frames to their consumer) and recycle them the
//! same way: a buffer that still has live views is kept as a reclaim candidate
//! and reused, with no allocation and no zero-fill, once the last view is
//! dropped.

use bytes::{Buf, Bytes, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::{Error, Result};

/// Default maximum frame size (16 MiB) to guard against corrupt length prefixes.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Serializes `value` and appends a length-prefixed frame to `out`.
///
/// Ownership of `out`'s allocation is established once for the whole frame
/// ([`BytesMut::append_with`]); the payload then serializes into the backing
/// vector directly (the length prefix is back-filled afterwards), so no
/// intermediate vector is built per frame and no byte pays an ownership check.
///
/// # Errors
///
/// Returns an error if serialization fails or the encoded payload exceeds `u32::MAX`;
/// `out` is rolled back to its pre-call state.
pub fn encode_frame<T: Serialize + ?Sized>(value: &T, out: &mut BytesMut) -> Result<()> {
    out.append_with(|out| {
        let frame_start = out.len();
        out.extend_from_slice(&[0; 4]);
        let payload_len = match crate::to_writer(value, out) {
            Ok(()) => out.len() - frame_start - 4,
            Err(err) => {
                out.truncate(frame_start);
                return Err(err);
            }
        };
        let Ok(len) = u32::try_from(payload_len) else {
            out.truncate(frame_start);
            return Err(Error::LengthOverflow(payload_len as u64));
        };
        out[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
        Ok(())
    })
}

/// How many spent batches the encoder keeps around as reclaim candidates.
/// Steady state needs two allocations in flight (the batch being written by
/// the socket and the one being filled); the headroom absorbs a slow writer.
const SPENT_CAP: usize = 4;

/// How many aliased read buffers the decoder keeps around as reclaim
/// candidates. A chunk's frames are usually consumed within a read or two of
/// it, so two candidates let almost every read continue in a recycled buffer;
/// a longer list mostly keeps more memory resident.
const READ_SPENT_CAP: usize = 2;

/// Buffers handed out as [`Bytes`] views and kept, at most `CAP` of them, as
/// reclaim candidates: once every view of one is dropped, [`Spent::reclaim`]
/// returns its allocation for reuse. The recycling both the encoder's batches
/// and the decoder's read buffers go through.
#[derive(Debug, Default)]
struct Spent<const CAP: usize>(Vec<Bytes>);

impl<const CAP: usize> Spent<CAP> {
    /// Remembers `buf` as a reclaim candidate while there is room.
    fn keep(&mut self, buf: Bytes) {
        if self.0.len() < CAP {
            self.0.push(buf);
        }
    }

    /// Returns a candidate nothing else references anymore, cleared for reuse
    /// (its initialized length kept, so refilling it zero-fills nothing), or
    /// `None` while every candidate still has live views.
    fn reclaim(&mut self) -> Option<BytesMut> {
        let index = self.0.iter().position(Bytes::is_unique)?;
        let mut buf = self.0.swap_remove(index).try_into_mut().ok()?;
        buf.clear();
        Some(buf)
    }
}

/// Batching frame encoder: serializes values back-to-back into one owned
/// buffer, each behind its length prefix, so a whole outbound queue becomes a
/// single socket write.
///
/// Values serialize directly into the accumulating [`BytesMut`]'s backing
/// vector ([`encode_frame`]: one ownership check per frame, the length prefix
/// back-filled after the payload is written — no intermediate `Vec` per
/// message), and [`FrameEncoder::take`] converts the batch into [`Bytes`]
/// with an O(1) `freeze` — no copy, no allocation.
///
/// A writer that owns the encoder writes straight from
/// [`FrameEncoder::bytes`] and empties it with `truncate(0)`, keeping the
/// allocation for the next batch — `TcpMesh`'s cycle, which never takes. A
/// batch that must outlive the encoder is taken instead, and the encoder
/// *recycles* taken allocations: every taken batch is remembered as a reclaim
/// candidate, and once the consumer drops its view, the next
/// [`FrameEncoder::take`] reclaims the buffer via [`Bytes::try_into_mut`]
/// instead of allocating. In steady state two allocations ping-pong between
/// "being filled" and "being written". Both cycles perform **zero**
/// allocations — the outbound mirror of [`FrameDecoder::read_buf`]'s recycled
/// read buffers, all enforced by the `alloc_gate` bench.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    buf: BytesMut,
    /// Taken batches kept as reclaim candidates.
    spent: Spent<SPENT_CAP>,
    /// Frames encoded into the pending batch (reset by [`FrameEncoder::take`]),
    /// so transports can report frames-per-coalesced-write without parsing
    /// the batch back.
    frames: u64,
}

impl FrameEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        FrameEncoder::default()
    }

    /// Appends one length-prefixed frame for `value`.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails or the encoded payload exceeds
    /// `u32::MAX`; the buffer is rolled back to its pre-call state.
    pub fn encode<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        encode_frame(value, &mut self.buf)?;
        self.frames += 1;
        Ok(())
    }

    /// Number of encoded bytes pending.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The encoded bytes pending, for a writer that writes from the encoder
    /// and then empties it in place ([`FrameEncoder::truncate`] to 0) rather
    /// than taking the batch.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of frames in the pending batch.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Returns `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards encoded bytes past `len`, a frame boundary (e.g. to roll a
    /// multi-frame fill back to a known-good boundary after a mid-batch
    /// failure). Emptying the encoder (`len` 0) keeps its allocation for the
    /// next batch.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`FrameEncoder::len`].
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.buf.len(), "truncate past end of batch");
        if len == 0 {
            self.frames = 0;
        } else {
            // Uncount the discarded frames by walking their length prefixes:
            // a rollback pays for what it discards, emptying pays nothing.
            let mut position = len;
            while position + 4 <= self.buf.len() {
                let prefix: [u8; 4] = self.buf[position..position + 4].try_into().expect("4 bytes");
                position += 4 + u32::from_le_bytes(prefix) as usize;
                self.frames = self.frames.saturating_sub(1);
            }
        }
        self.buf.resize(len, 0);
    }

    /// Takes the encoded batch as [`Bytes`], leaving the encoder empty.
    ///
    /// O(1) and allocation-free in steady state: the batch buffer is frozen as
    /// it is, and the buffer for the *next* batch is reclaimed from an earlier
    /// batch whose consumer has dropped its view.
    pub fn take(&mut self) -> Bytes {
        self.frames = 0;
        // Swap in a recycled buffer (or a fresh one if every candidate is still
        // in flight) for the next batch; the batch's allocation is then held by
        // the returned view and the spent list alone, so the consumer's drop
        // makes it reclaimable.
        let next = self.spent.reclaim().unwrap_or_default();
        let batch = std::mem::replace(&mut self.buf, next).freeze();
        self.spent.keep(batch.clone());
        batch
    }
}

/// Incremental frame decoder.
///
/// Feed raw bytes with [`FrameDecoder::extend`] — or read them straight into
/// its buffer with [`FrameDecoder::read_buf`] and [`FrameDecoder::commit`] —
/// and drain complete messages with [`FrameDecoder::decode_next`], or frames
/// as zero-copy views of the buffer with [`FrameDecoder::decode_next_view`].
///
/// The decoder *recycles* its read buffers: a read that finds the buffer still
/// shared by frame views of earlier reads continues in a spent buffer whose
/// views are all gone (at most two are kept as candidates), copying only the
/// partial frame over, and keeps the shared one as a candidate. So a consumer
/// that drops each frame within a read or two of receiving it costs the read
/// loop **zero** allocations per chunk, enforced by the `alloc_gate` bench;
/// only when every candidate is still viewed does a read allocate a fresh
/// buffer ([`FrameDecoder::buffers_allocated`] counts those).
#[derive(Debug)]
pub struct FrameDecoder {
    buffer: BytesMut,
    /// Earlier read buffers kept until their frame views are gone.
    spent: Spent<READ_SPENT_CAP>,
    /// Fresh buffers [`FrameDecoder::read_buf`] had to allocate.
    allocated: u64,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_FRAME)
    }
}

impl FrameDecoder {
    /// Creates a decoder that rejects frames larger than `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buffer: BytesMut::with_capacity(4096),
            spent: Spent::default(),
            allocated: 0,
            max_frame,
        }
    }

    /// Appends freshly received bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.read_buf(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Exposes at least `min` writable bytes at the buffer tail, so a socket
    /// read can land directly in the frame buffer instead of staging through a
    /// separate chunk that [`FrameDecoder::extend`] would copy.
    ///
    /// Follow the read with [`FrameDecoder::commit`] to mark the bytes
    /// actually written as received frame data. The span is initialized but
    /// not necessarily zeroed: in a recycled buffer it may hold stale bytes of
    /// an earlier read, which only a `commit` makes readable.
    pub fn read_buf(&mut self, min: usize) -> &mut [u8] {
        if !self.buffer.is_unique() {
            // Frame views of earlier reads still share the buffer, so writing
            // to it would copy the partial frame to a fresh, zero-filled
            // allocation. Continue in a spent buffer no view reads anymore
            // instead — only the partial frame is copied — and keep this one
            // until its views are gone.
            let mut next = self.spent.reclaim().unwrap_or_else(|| {
                self.allocated += 1;
                BytesMut::with_capacity(self.buffer.len() + min)
            });
            next.extend_from_slice(&self.buffer);
            let shared = std::mem::replace(&mut self.buffer, next);
            self.spent.keep(shared.freeze());
        }
        self.buffer.tail_mut(min)
    }

    /// Fresh buffers [`FrameDecoder::read_buf`] has allocated because its
    /// buffer and every reclaim candidate were still shared by frame views
    /// (the buffer [`FrameDecoder::new`] starts with is not counted). Zero in
    /// steady state when frames are dropped within a read or two.
    pub fn buffers_allocated(&self) -> u64 {
        self.allocated
    }

    /// Marks `count` bytes at the tail — just written through
    /// [`FrameDecoder::read_buf`] — as received frame data.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the writable span the last
    /// [`FrameDecoder::read_buf`] call exposed.
    pub fn commit(&mut self, count: usize) {
        self.buffer.advance_tail(count);
    }

    /// Number of buffered, not yet decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Attempts to decode the next complete frame into a value of type `T`.
    ///
    /// Returns `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] for oversized frames and any payload decoding
    /// error from [`crate::from_slice`].
    pub fn decode_next<T: DeserializeOwned>(&mut self) -> Result<Option<T>> {
        match self.next_frame()? {
            Some(payload) => Ok(Some(crate::from_slice(&payload)?)),
            None => Ok(None),
        }
    }

    /// Extracts the next complete frame as a zero-copy [`Bytes`] view.
    ///
    /// The view aliases the decoder's read buffer (refcounted, no copy) and
    /// stays valid after the decoder buffers more data or is dropped: while it
    /// lives, later reads land in another buffer — a recycled one whose views
    /// are all gone, or a fresh one — never in the bytes it reads.
    /// Decode it with [`crate::from_bytes`] to borrow payload fields straight
    /// out of the socket buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] for oversized frames.
    pub fn decode_next_view(&mut self) -> Result<Option<Bytes>> {
        Ok(self.next_frame()?.map(BytesMut::freeze))
    }

    /// Extracts the next complete frame's raw payload without deserializing.
    ///
    /// Returns `Ok(None)` if more bytes are needed. Lets a transport hand the
    /// undecoded payload across a channel and defer (or skip) deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] for oversized frames.
    pub fn next_frame(&mut self) -> Result<Option<BytesMut>> {
        if self.buffer.len() < 4 {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&self.buffer[..4]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > self.max_frame {
            return Err(Error::FrameTooLarge { announced: len, max: self.max_frame });
        }
        if self.buffer.len() < 4 + len {
            return Ok(None);
        }
        self.buffer.advance(4);
        Ok(Some(self.buffer.split_to(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Msg {
        id: u64,
        body: String,
    }

    #[test]
    fn frame_roundtrip() {
        let msg = Msg { id: 9, body: "payload".into() };
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf).unwrap();

        let mut decoder = FrameDecoder::default();
        decoder.extend(&buf);
        let decoded: Msg = decoder.decode_next().unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let msg = Msg { id: 1, body: "x".repeat(100) };
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf).unwrap();

        let mut decoder = FrameDecoder::default();
        // Feed one byte at a time; only the final byte completes the frame.
        for (i, byte) in buf.iter().enumerate() {
            decoder.extend(&[*byte]);
            let result: Option<Msg> = decoder.decode_next().unwrap();
            if i + 1 < buf.len() {
                assert!(result.is_none());
            } else {
                assert_eq!(result.unwrap(), msg);
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut buf = BytesMut::new();
        for id in 0..5u64 {
            encode_frame(&Msg { id, body: format!("m{id}") }, &mut buf).unwrap();
        }
        let mut decoder = FrameDecoder::default();
        decoder.extend(&buf);
        for id in 0..5u64 {
            let msg: Msg = decoder.decode_next().unwrap().unwrap();
            assert_eq!(msg.id, id);
        }
        let none: Option<Msg> = decoder.decode_next().unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn frame_encoder_batches_without_copying() {
        let mut encoder = FrameEncoder::new();
        for id in 0..4u64 {
            encoder.encode(&Msg { id, body: format!("b{id}") }).unwrap();
        }
        let batch = encoder.take();
        assert!(encoder.is_empty());

        // The batch must be byte-identical to four individually encoded frames.
        let mut reference = BytesMut::new();
        for id in 0..4u64 {
            encode_frame(&Msg { id, body: format!("b{id}") }, &mut reference).unwrap();
        }
        assert_eq!(&batch[..], &reference[..]);

        let mut decoder = FrameDecoder::default();
        decoder.extend(&batch);
        for id in 0..4u64 {
            let msg: Msg = decoder.decode_next().unwrap().unwrap();
            assert_eq!(msg.id, id);
        }
    }

    #[test]
    fn take_recycles_batch_allocations_once_views_drop() {
        let mut encoder = FrameEncoder::new();
        // Warm up: let the ping-pong buffers reach their steady-state shape.
        let mut previous = None;
        for round in 0..8u64 {
            encoder.encode(&Msg { id: round, body: "steady-state".into() }).unwrap();
            let batch = encoder.take();
            assert!(!batch.is_empty());
            // Simulate the socket writer finishing the *previous* batch while
            // the current one is still in flight.
            previous = Some(batch);
        }
        drop(previous);

        // Steady state: every subsequent take must reuse one of the warmed
        // allocations rather than allocate fresh ones.
        let mut seen = std::collections::HashSet::new();
        for round in 0..16u64 {
            encoder.encode(&Msg { id: round, body: "steady-state".into() }).unwrap();
            let batch = encoder.take();
            seen.insert(batch.as_ref().as_ptr() as usize);
            drop(batch);
        }
        // At most three warmed allocations circulate (being filled, in
        // flight at the writer, spare) — never a fresh one per batch.
        assert!(seen.len() <= 3, "steady-state batches cycle through recycled allocations");
    }

    #[test]
    fn recycled_batches_are_byte_identical_to_fresh_ones() {
        let mut recycled = FrameEncoder::new();
        for round in 0..12u64 {
            let mut fresh = FrameEncoder::new();
            for id in 0..3u64 {
                let msg = Msg { id: round * 3 + id, body: format!("r{round}m{id}") };
                recycled.encode(&msg).unwrap();
                fresh.encode(&msg).unwrap();
            }
            assert_eq!(&recycled.take()[..], &fresh.take()[..]);
        }
    }

    #[test]
    fn truncate_rolls_back_to_a_frame_boundary() {
        let mut encoder = FrameEncoder::new();
        encoder.encode(&Msg { id: 1, body: "keep".into() }).unwrap();
        let boundary = encoder.len();
        encoder.encode(&Msg { id: 2, body: "discard".into() }).unwrap();
        assert_eq!(encoder.frames(), 2);
        encoder.truncate(boundary);
        assert_eq!(encoder.frames(), 1, "truncate recounts surviving frames");
        let mut decoder = FrameDecoder::default();
        decoder.extend(&encoder.take());
        let msg: Msg = decoder.decode_next().unwrap().unwrap();
        assert_eq!(msg.id, 1);
        assert!(decoder.decode_next::<Msg>().unwrap().is_none());
    }

    #[test]
    fn next_frame_returns_raw_payloads() {
        let msg = Msg { id: 3, body: "raw".into() };
        let mut encoder = FrameEncoder::new();
        encoder.encode(&msg).unwrap();
        let mut decoder = FrameDecoder::default();
        decoder.extend(&encoder.take());
        let payload = decoder.next_frame().unwrap().unwrap();
        let decoded: Msg = crate::from_slice(&payload).unwrap();
        assert_eq!(decoded, msg);
        assert!(decoder.next_frame().unwrap().is_none());
    }

    #[test]
    fn failed_encode_rolls_back_the_batch() {
        // Unknown-length sequences are unserializable in this format.
        struct Unsized;
        impl Serialize for Unsized {
            fn serialize<S: serde::Serializer>(
                &self,
                serializer: S,
            ) -> std::result::Result<S::Ok, S::Error> {
                use serde::ser::SerializeSeq;
                let mut seq = serializer.serialize_seq(None)?;
                seq.serialize_element(&1u8)?;
                seq.end()
            }
        }

        let mut encoder = FrameEncoder::new();
        encoder.encode(&Msg { id: 1, body: "keep".into() }).unwrap();
        let len_before = encoder.len();
        assert!(encoder.encode(&Unsized).is_err());
        assert_eq!(encoder.len(), len_before);
        let mut decoder = FrameDecoder::default();
        decoder.extend(&encoder.take());
        let msg: Msg = decoder.decode_next().unwrap().unwrap();
        assert_eq!(msg.id, 1);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decode_next_view_aliases_the_read_buffer() {
        let msg = Msg { id: 11, body: "view".into() };
        let mut encoder = FrameEncoder::new();
        encoder.encode(&msg).unwrap();
        let mut decoder = FrameDecoder::default();
        decoder.extend(&encoder.take());

        let view = decoder.decode_next_view().unwrap().unwrap();
        // Buffer more frames and drop the decoder: the view must stay intact.
        let mut encoder = FrameEncoder::new();
        encoder.encode(&Msg { id: 12, body: "later".into() }).unwrap();
        decoder.extend(&encoder.take());
        drop(decoder);
        let decoded: Msg = crate::from_bytes(&view).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn read_buf_commit_feeds_frames_without_staging_copies() {
        let mut reference = BytesMut::new();
        for id in 0..3u64 {
            encode_frame(&Msg { id, body: format!("direct{id}") }, &mut reference).unwrap();
        }

        // Simulate socket reads of awkward sizes landing directly in the tail.
        let mut decoder = FrameDecoder::default();
        let mut offset = 0;
        let mut seen = 0u64;
        while offset < reference.len() {
            let take = (reference.len() - offset).min(7);
            let buf = decoder.read_buf(7);
            assert!(buf.len() >= 7);
            buf[..take].copy_from_slice(&reference[offset..offset + take]);
            decoder.commit(take);
            offset += take;
            while let Some(msg) = decoder.decode_next::<Msg>().unwrap() {
                assert_eq!(msg.id, seen);
                seen += 1;
            }
        }
        assert_eq!(seen, 3);
        assert_eq!(decoder.buffered(), 0);
    }

    /// Frame `index`'s payload of `len` bytes: its bytes depend on the index,
    /// so a view that reads another frame's bytes shows it.
    fn reference_payload(index: usize, len: usize) -> Vec<u8> {
        (0..len).map(|byte| (index * 31 + byte) as u8).collect()
    }

    /// `payloads` back to back, each behind its length prefix.
    fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for payload in payloads {
            stream.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            stream.extend_from_slice(payload);
        }
        stream
    }

    #[test]
    fn held_views_cost_no_buffers_once_recycling_is_warm() {
        // `TcpMesh`'s read loop: every chunk's frame is still held (in a
        // channel, a mailbox) when the next read begins.
        let payloads: Vec<Vec<u8>> =
            (0..1_000).map(|index| reference_payload(index, 140)).collect();
        let stream = framed(&payloads);
        let chunk = stream.len() / payloads.len();
        let mut decoder = FrameDecoder::default();
        let mut held: Option<Bytes> = None;
        let mut buffers = std::collections::HashSet::new();
        for (index, bytes) in stream.chunks(chunk).enumerate() {
            let buf = decoder.read_buf(64 * 1024);
            buffers.insert(buf.as_ptr() as usize);
            buf[..bytes.len()].copy_from_slice(bytes);
            decoder.commit(bytes.len());
            if let Some(previous) = held.take() {
                assert_eq!(&previous[..], &payloads[index - 1][..]);
            }
            held = decoder.decode_next_view().unwrap();
            assert_eq!(&held.as_ref().unwrap()[..], &payloads[index][..]);
        }
        // The first held view forces one fresh buffer; from then on the
        // buffer and one candidate take turns.
        assert_eq!(decoder.buffers_allocated(), 1);
        assert_eq!(buffers.len(), 2, "reads cycle through two allocations");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random frame sizes (empty ones, ones larger than a read chunk),
        /// random read splits, and views held for a random number of reads —
        /// some to the end — and so dropped out of order: no read may land in
        /// bytes a live view reads, and the decoder holds at most its buffer
        /// and `READ_SPENT_CAP` candidates.
        #[test]
        fn recycled_read_buffers_never_disturb_live_views(
            frames in proptest::collection::vec(
                (
                    proptest::prop_oneof![
                        proptest::Just(0usize),
                        1usize..24,
                        24usize..200,
                    ],
                    0usize..6,
                ),
                1..48,
            ),
            reads in proptest::collection::vec((1usize..64, 1usize..96), 1..24),
        ) {
            const TO_THE_END: usize = 5;
            let payloads: Vec<Vec<u8>> = frames
                .iter()
                .enumerate()
                .map(|(index, &(len, _))| reference_payload(index, len))
                .collect();
            let stream = framed(&payloads);
            let mut decoder = FrameDecoder::default();
            // (frame index, last read it survives, view)
            let mut held: Vec<(usize, usize, Bytes)> = Vec::new();
            let mut decoded = 0;
            let mut offset = 0;
            let mut read = 0;
            while offset < stream.len() {
                let (min, fill) = reads[read % reads.len()];
                let buf = decoder.read_buf(min);
                proptest::prop_assert!(buf.len() >= min);
                let count = fill.min(buf.len()).min(stream.len() - offset);
                buf[..count].copy_from_slice(&stream[offset..offset + count]);
                decoder.commit(count);
                offset += count;
                proptest::prop_assert!(decoder.spent.0.len() <= READ_SPENT_CAP);
                for (index, _, view) in &held {
                    proptest::prop_assert_eq!(&view[..], &payloads[*index][..]);
                }
                while let Some(view) = decoder.decode_next_view().unwrap() {
                    proptest::prop_assert_eq!(&view[..], &payloads[decoded][..]);
                    let hold = frames[decoded].1;
                    let until = if hold == TO_THE_END { usize::MAX } else { read + hold };
                    held.push((decoded, until, view));
                    decoded += 1;
                }
                held.retain(|&(_, until, _)| until > read);
                read += 1;
            }
            proptest::prop_assert_eq!(decoded, payloads.len());
            proptest::prop_assert_eq!(decoder.buffered(), 0);
            for (index, _, view) in &held {
                proptest::prop_assert_eq!(&view[..], &payloads[*index][..]);
            }
        }
    }

    #[test]
    fn views_dropped_on_another_thread_are_reclaimed_intact() {
        const FRAMES: usize = 20_000;
        let payloads: Vec<Vec<u8>> =
            (0..FRAMES).map(|index| reference_payload(index, index % 300)).collect();
        let stream = framed(&payloads);
        let (views, dropper) = std::sync::mpsc::sync_channel::<(usize, Bytes)>(4);
        std::thread::scope(|scope| {
            let payloads = &payloads;
            let checker = scope.spawn(move || {
                // Holds each frame until the next one arrives, as a worker's
                // mailbox does, and checks it before and as it lets go.
                let mut previous: Option<(usize, Bytes)> = None;
                for (index, view) in dropper {
                    assert_eq!(&view[..], &payloads[index][..], "frame {index} on arrival");
                    if let Some((index, view)) = previous.replace((index, view)) {
                        assert_eq!(&view[..], &payloads[index][..], "frame {index} when dropped");
                    }
                }
                previous.map(|(index, _)| index)
            });
            let mut decoder = FrameDecoder::default();
            let mut decoded = 0;
            for bytes in stream.chunks(997) {
                let buf = decoder.read_buf(bytes.len());
                buf[..bytes.len()].copy_from_slice(bytes);
                decoder.commit(bytes.len());
                assert!(decoder.spent.0.len() <= READ_SPENT_CAP);
                while let Some(view) = decoder.decode_next_view().unwrap() {
                    views.send((decoded, view)).unwrap();
                    decoded += 1;
                }
            }
            drop(views);
            assert_eq!(checker.join().unwrap(), Some(FRAMES - 1));
            assert_eq!(decoded, FRAMES);
        });
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut decoder = FrameDecoder::new(8);
        decoder.extend(&1024u32.to_le_bytes());
        let err = decoder.decode_next::<Msg>().unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { announced: 1024, max: 8 }));
    }
}
