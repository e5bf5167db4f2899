//! Owned ↔ borrowed decode equivalence laws for the wire codec.
//!
//! The inbound hot path decodes straight from refcounted [`bytes::Bytes`]
//! views of the socket read buffer (`wire::from_bytes`), while tests, tools,
//! and the cold paths decode from plain slices (`wire::from_slice`). These
//! properties pin the two entry points to each other over generated protocol
//! envelopes: identical values on every complete encoding, identical
//! accept/reject verdicts on every truncated prefix, and frame views that
//! stay valid after the decoder that produced them is gone.
//!
//! The outbound side is pinned the same way: whatever state its recycled,
//! possibly shared batch buffer is in, [`FrameEncoder`] writes exactly the bytes
//! of `wire::to_vec` behind a length prefix; and an in-place decode into a
//! scratch message whose map a live snapshot still shares leaves the snapshot
//! alone.

use bytes::{Bytes, BytesMut};
use crdt::{GCounter, LatticeMap, ReplicaId};
use crdt_paxos_core::{
    Envelope, Message, Payload, PrepareRound, RequestId, Round, RoundId, ShardEnvelope, ShardId,
    ShardMessage,
};
use proptest::prelude::*;
use wire::framing::{encode_frame, FrameDecoder, FrameEncoder};

type Kv = LatticeMap<u64, GCounter>;

fn arb_counter() -> impl Strategy<Value = GCounter> {
    proptest::collection::vec((0u64..8, 1u64..1000), 0..6).prop_map(|slots| {
        let mut counter = GCounter::new();
        for (replica, amount) in slots {
            counter.increment(ReplicaId::new(replica), amount);
        }
        counter
    })
}

fn arb_map() -> impl Strategy<Value = Kv> {
    proptest::collection::vec((0u64..16, arb_counter()), 0..4).prop_map(|entries| {
        let mut map = Kv::default();
        for (key, counter) in entries {
            map.merge_entry(key, &counter);
        }
        map
    })
}

fn arb_payload() -> impl Strategy<Value = Payload<Kv>> {
    prop_oneof![arb_map().prop_map(Payload::Full), arb_map().prop_map(Payload::Delta)]
}

fn arb_round() -> impl Strategy<Value = Round> {
    (0u64..1000, 0u64..100, 0u64..8).prop_map(|(number, seq, id)| {
        Round::new(number, RoundId::proposer(seq, ReplicaId::new(id)))
    })
}

fn arb_message() -> impl Strategy<Value = Message<Kv>> {
    prop_oneof![
        (any::<u64>(), arb_payload())
            .prop_map(|(request, payload)| Message::Merge { request: RequestId(request), payload }),
        any::<u64>().prop_map(|request| Message::MergeAck { request: RequestId(request) }),
        (any::<u64>(), arb_round(), proptest::option::of(arb_payload()), 0u64..100).prop_map(
            |(request, round, payload, basis)| Message::Prepare {
                request: RequestId(request),
                round: PrepareRound::Fixed(round),
                payload,
                basis,
            }
        ),
        (any::<u64>(), 0u64..8, proptest::option::of(arb_payload()), 0u64..100).prop_map(
            |(request, id, payload, basis)| Message::Prepare {
                request: RequestId(request),
                round: PrepareRound::Incremental {
                    id: RoundId::proposer(basis, ReplicaId::new(id)),
                },
                payload,
                basis,
            }
        ),
        (any::<u64>(), arb_round(), arb_payload(), 0u64..100, 0u64..100).prop_map(
            |(request, round, state, reveal, basis)| Message::PrepareAck {
                request: RequestId(request),
                round,
                state,
                reveal,
                basis,
            }
        ),
        (any::<u64>(), arb_round(), arb_payload(), 0u64..100).prop_map(
            |(request, round, payload, basis)| Message::Vote {
                request: RequestId(request),
                round,
                payload,
                basis,
            }
        ),
    ]
}

fn arb_shard_message() -> impl Strategy<Value = ShardMessage<Kv>> {
    prop_oneof![
        (0u64..10, 1u32..16, 0u32..16, arb_message()).prop_map(
            |(epoch, shards, shard, message)| ShardMessage::Protocol {
                epoch,
                shards,
                shard: ShardId(shard % shards),
                message,
            }
        ),
        Just(ShardMessage::PlanRequest),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope<Kv>> {
    (0u64..8, 0u64..8, arb_message()).prop_map(|(from, to, message)| Envelope {
        from: ReplicaId::new(from),
        to: ReplicaId::new(to),
        message,
    })
}

fn arb_shard_envelope() -> impl Strategy<Value = ShardEnvelope<Kv>> {
    (0u64..8, 0u64..8, arb_shard_message()).prop_map(|(from, to, message)| ShardEnvelope {
        from: ReplicaId::new(from),
        to: ReplicaId::new(to),
        message,
    })
}

/// Both decode entry points, fed the same complete encoding, produce the
/// original value; fed the same truncated prefix, they agree byte for byte on
/// whether it decodes and on what it decodes to.
fn assert_equivalent<T>(value: &T, encoded: &[u8])
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let frame = Bytes::from(encoded.to_vec());
    let from_slice: T = wire::from_slice(encoded).expect("from_slice decodes its own encoding");
    let from_bytes: T = wire::from_bytes(&frame).expect("from_bytes decodes its own encoding");
    assert_eq!(&from_slice, value);
    assert_eq!(&from_bytes, value);

    for cut in 0..encoded.len() {
        let prefix = &encoded[..cut];
        let prefix_bytes = frame.slice(0..cut);
        let owned: Result<T, _> = wire::from_slice(prefix);
        let borrowed: Result<T, _> = wire::from_bytes(&prefix_bytes);
        match (owned, borrowed) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "prefix of {cut} bytes decodes differently"),
            (Err(_), Err(_)) => {}
            (owned, borrowed) => panic!(
                "prefix of {cut}/{} bytes: from_slice {:?} but from_bytes {:?}",
                encoded.len(),
                owned.map(|_| "Ok"),
                borrowed.map(|_| "Ok"),
            ),
        }
    }
}

/// What one frame is on the wire, built without any batch buffer: the length
/// prefix, then `wire::to_vec`'s bytes.
fn reference_frame(message: &ShardMessage<Kv>) -> Vec<u8> {
    let body = wire::to_vec(message).expect("encode");
    let mut frame = u32::try_from(body.len()).expect("small frame").to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Serializes `.0` completely, then fails: an encode that dies mid-frame, with
/// bytes of it already in the batch buffer.
struct FailsAfter<'a>(&'a ShardMessage<Kv>);

impl serde::Serialize for FailsAfter<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let mut tuple = serializer.serialize_tuple(2)?;
        tuple.serialize_element(self.0)?;
        Err(serde::ser::Error::custom("dies mid-frame"))
    }
}

/// The three messages a delta-mode proposer and acceptor exchange most, each
/// carrying a `Payload::Delta` of a map: an update's `MERGE`, a first phase's
/// `ACK` and a vote's `NACK`, framed as shard 2 of 4 in epoch 3.
fn delta_frames() -> Vec<ShardMessage<Kv>> {
    let mut delta = Kv::default();
    delta.update(7, |counter| counter.increment(ReplicaId::new(1), 300));
    delta.update(1_000, |counter| {
        counter.increment(ReplicaId::new(0), 5);
        counter.increment(ReplicaId::new(2), 70_000);
    });
    let round = Round::new(9, RoundId::proposer(4, ReplicaId::new(2)));
    [
        Message::Merge { request: RequestId(41), payload: Payload::Delta(delta.clone()) },
        Message::PrepareAck {
            request: RequestId(42),
            round,
            state: Payload::Delta(delta.clone()),
            reveal: 6,
            basis: 5,
        },
        Message::Nack { request: RequestId(43), round, state: Payload::Delta(delta), basis: 5 },
    ]
    .into_iter()
    .map(|message| ShardMessage::Protocol { epoch: 3, shards: 4, shard: ShardId(2), message })
    .collect()
}

/// The exact bytes of [`delta_frames`] on the wire, length prefix included.
/// The payload is the map whichever variant carries it, so a delta frame is a
/// full frame with the other variant tag.
const DELTA_FRAMES: [&[u8]; 3] = [
    &[22, 0, 0, 0, 0, 3, 4, 2, 0, 41, 1, 2, 7, 1, 1, 172, 2, 232, 7, 2, 0, 5, 2, 240, 162, 4],
    &[
        28, 0, 0, 0, 0, 3, 4, 2, 3, 42, 9, 2, 4, 2, 1, 2, 7, 1, 1, 172, 2, 232, 7, 2, 0, 5, 2, 240,
        162, 4, 6, 5,
    ],
    &[
        27, 0, 0, 0, 0, 3, 4, 2, 6, 43, 9, 2, 4, 2, 1, 2, 7, 1, 1, 172, 2, 232, 7, 2, 0, 5, 2, 240,
        162, 4, 5,
    ],
];

#[test]
fn delta_payload_frames_keep_their_bytes() {
    let mut encoder = FrameEncoder::new();
    for (message, golden) in delta_frames().iter().zip(DELTA_FRAMES) {
        assert_eq!(reference_frame(message), golden, "{message:?}");
        assert_eq!(wire::from_slice::<ShardMessage<Kv>>(&golden[4..]).expect("decode"), *message);
        encoder.encode(message).expect("encode");
    }
    assert_eq!(encoder.bytes(), DELTA_FRAMES.concat());
}

/// A full-mode acceptor's `ACK` to a `PREPARE` whose payload is its state:
/// the empty delta, with no reveal and no basis, framed as [`delta_frames`]
/// are. The map is one length byte, whatever the shard holds.
const EMPTY_DELTA_ACK_FRAME: &[u8] = &[14, 0, 0, 0, 0, 3, 4, 2, 3, 44, 9, 2, 4, 2, 1, 0, 0, 0];

#[test]
fn an_empty_delta_ack_frame_keeps_its_bytes() {
    let message = ShardMessage::Protocol {
        epoch: 3,
        shards: 4,
        shard: ShardId(2),
        message: Message::PrepareAck {
            request: RequestId(44),
            round: Round::new(9, RoundId::proposer(4, ReplicaId::new(2))),
            state: Payload::Delta(Kv::default()),
            reveal: 0,
            basis: 0,
        },
    };
    assert_eq!(reference_frame(&message), EMPTY_DELTA_ACK_FRAME);
    let decoded = wire::from_slice::<ShardMessage<Kv>>(&EMPTY_DELTA_ACK_FRAME[4..]);
    assert_eq!(decoded.expect("decode"), message);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across take/reclaim cycles — with earlier batches dropped at once (their
    /// buffers come back recycled) or held (they cannot) — and across a failed
    /// fill rolled back with `truncate`, every batch is byte for byte the
    /// concatenation of its messages' reference frames.
    #[test]
    fn frame_encoder_batches_match_the_reference_encoding(
        batches in proptest::collection::vec(
            (proptest::collection::vec(arb_shard_message(), 0..5), proptest::bool::ANY, proptest::bool::ANY),
            1..8,
        ),
    ) {
        let mut encoder = FrameEncoder::new();
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for (messages, hold, fail_midway) in &batches {
            let mut expected = Vec::new();
            for (index, message) in messages.iter().enumerate() {
                if *fail_midway && index == 2 {
                    // A fill (frames 1..) that dies on its second frame, as
                    // `send_with` sees it: the failed frame rolls itself back,
                    // `truncate` takes the fill's first frame with it and the
                    // frame of the fill before stays.
                    let boundary = reference_frame(&messages[0]).len();
                    prop_assert!(encoder.encode(&FailsAfter(message)).is_err());
                    prop_assert_eq!(encoder.len(), expected.len());
                    encoder.truncate(boundary);
                    expected.truncate(boundary);
                    prop_assert_eq!(encoder.frames(), 1);
                }
                encoder.encode(message).expect("encode");
                expected.extend_from_slice(&reference_frame(message));
            }
            prop_assert_eq!(encoder.len(), expected.len());
            let batch = encoder.take();
            prop_assert_eq!(&batch[..], &expected[..]);
            if *hold {
                held.push((batch, expected));
            }
        }
        // Batches still alive were never written over by later ones.
        for (batch, expected) in &held {
            prop_assert_eq!(&batch[..], &expected[..]);
        }
    }

    /// `encode_frame` into a buffer that live views still share — the state a
    /// batch buffer is in when part of it was split off and not yet written —
    /// appends the reference bytes and leaves the views as they were.
    #[test]
    fn encode_frame_into_a_shared_buffer_matches_the_reference(
        first in arb_shard_message(),
        second in arb_shard_message(),
    ) {
        let mut buffer = BytesMut::new();
        encode_frame(&first, &mut buffer).expect("encode");
        encode_frame(&second, &mut buffer).expect("encode");
        let first_frame = reference_frame(&first);
        let view = buffer.split_to(first_frame.len()).freeze();
        // `view` and `buffer` now share one allocation.
        encode_frame(&first, &mut buffer).expect("encode");
        prop_assert_eq!(&view[..], &first_frame[..]);
        prop_assert_eq!(&buffer[..], &[reference_frame(&second), first_frame].concat()[..]);
    }

    /// The worker's scratch message is decoded in place; when a snapshot taken
    /// out of it still shares the map (a proposer keeps `ACK` states), the decode
    /// must produce the new message and must not write through to the snapshot.
    #[test]
    fn in_place_decode_leaves_aliased_snapshots_alone(
        resident in arb_map(),
        resident_request in any::<u64>(),
        incoming in arb_shard_message(),
    ) {
        let untouched: Kv = resident.iter().map(|(key, value)| (*key, value.clone())).collect();
        let snapshot = resident.clone();
        let mut scratch: ShardMessage<Kv> = ShardMessage::Protocol {
            epoch: 1,
            shards: 4,
            shard: ShardId(0),
            message: Message::Merge {
                request: RequestId(resident_request),
                payload: Payload::Full(resident),
            },
        };
        let frame = Bytes::from(wire::to_vec(&incoming).expect("encode"));
        wire::from_bytes_in_place(&frame, &mut scratch).expect("decode");
        prop_assert_eq!(&scratch, &incoming);
        prop_assert_eq!(&snapshot, &untouched);
        // With the snapshot gone the scratch is rewritten where it stands.
        drop(snapshot);
        wire::from_bytes_in_place(&frame, &mut scratch).expect("decode");
        prop_assert_eq!(&scratch, &incoming);
    }

    #[test]
    fn envelope_owned_and_borrowed_decode_agree(envelope in arb_envelope()) {
        let encoded = wire::to_vec(&envelope).expect("encode");
        assert_equivalent(&envelope, &encoded);
    }

    #[test]
    fn shard_envelope_owned_and_borrowed_decode_agree(envelope in arb_shard_envelope()) {
        let encoded = wire::to_vec(&envelope).expect("encode");
        assert_equivalent(&envelope, &encoded);
    }

    /// A `Bytes` frame view handed out by the decoder remains valid — same
    /// bytes, same decoded value — after the decoder (and the read buffer it
    /// owns) is dropped.
    #[test]
    fn frame_view_outlives_its_decoder(envelope in arb_shard_envelope()) {
        let encoded = wire::to_vec(&envelope).expect("encode");
        let mut encoder = FrameEncoder::new();
        encoder.encode(&envelope).expect("frame");
        let wire_bytes = encoder.take();

        let view = {
            let mut decoder = FrameDecoder::default();
            let buf = decoder.read_buf(wire_bytes.len());
            buf[..wire_bytes.len()].copy_from_slice(&wire_bytes);
            decoder.commit(wire_bytes.len());
            decoder.decode_next_view().expect("well-formed").expect("complete")
            // decoder dropped here; `view` keeps the backing buffer alive
        };

        prop_assert_eq!(&view[..], &encoded[..]);
        let decoded: ShardEnvelope<Kv> = wire::from_bytes(&view).expect("decode view");
        prop_assert_eq!(decoded, envelope);
    }
}
