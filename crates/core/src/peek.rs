//! Reading a [`ShardMessage`] frame's routing preamble without decoding it.
//!
//! An engine routes and fences every protocol frame it receives, and picks
//! where to decode it, by what the first few bytes say; this is the one place
//! that reads them, beside the types whose wire layout it depends on.

use crate::msg::RequestId;
use crate::shard::ShardId;
use crate::shard_core::Stamp;
#[cfg(doc)]
use crate::{Message, ShardMessage};

/// The wire variant index of [`ShardMessage::Protocol`] — the first declared
/// variant, encoded by the `wire` format as a leading varint tag.
/// [`peek_protocol`] depends on this staying the first variant; the
/// `peek_matches_full_decode` test pins the coupling.
const PROTOCOL_TAG: u64 = 0;

/// How many kinds of [`Message`] there are: the wire variant indices
/// [`Peek::kind`] ranges over. Pinned, like the two reply kinds below, by
/// `peek_matches_full_decode`: `Message`'s variant order is part of what the
/// peek reads.
pub const MESSAGE_KINDS: usize = 7;

/// The wire variant indices of the two replies that carry an acceptor's state,
/// [`Message::PrepareAck`] and [`Message::Nack`].
const STATE_REPLY_KINDS: [usize; 2] = [3, 6];

/// What [`peek_protocol`] reads off the front of a frame. Only the peek
/// builds one, so [`Peek::kind`] is always below [`MESSAGE_KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peek {
    stamp: Stamp,
    shard: ShardId,
    kind: usize,
    request: RequestId,
}

impl Peek {
    /// The assignment the sender routed by.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// The shard the message is for.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Which [`Message`] variant the frame holds, as its wire variant index
    /// (always below [`MESSAGE_KINDS`]).
    pub fn kind(&self) -> usize {
        self.kind
    }

    /// The protocol instance the message belongs to.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// Whether the frame is an `ACK` or a `NACK`: a reply that carries the
    /// acceptor's whole state, and is worth nothing once its instance is gone.
    pub fn is_state_reply(&self) -> bool {
        STATE_REPLY_KINDS.contains(&self.kind)
    }
}

/// Reads the preamble of an encoded [`ShardMessage`] frame without decoding
/// (or allocating) the message body.
///
/// A [`ShardMessage::Protocol`] frame starts with six LEB128 varints — the
/// variant tag, the `epoch`, `shards` and `shard` fields in declaration order,
/// then the inner [`Message`]'s own variant tag and its first field, which in
/// every variant is `request` — which is everything the fence needs to route
/// the frame and everything a worker needs to pick where to decode it, or
/// whether to. Returns `None` for any other variant tag and for frames too
/// mangled to carry a preamble; both take the owned full-decode path instead.
#[inline]
pub fn peek_protocol(frame: &[u8]) -> Option<Peek> {
    let mut rest = frame;
    let mut varint = || wire::varint::decode_u64(&mut rest).ok();
    if varint()? != PROTOCOL_TAG {
        return None;
    }
    let epoch = varint()?;
    let shards = u32::try_from(varint()?).ok()?;
    let shard = u32::try_from(varint()?).ok()?;
    let kind = usize::try_from(varint()?).ok().filter(|&kind| kind < MESSAGE_KINDS)?;
    let request = RequestId(varint()?);
    Some(Peek { stamp: (epoch, shards), shard: ShardId(shard), kind, request })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, Payload, PrepareRound, RebalancePlan, Round, ShardMessage};
    use crdt::{GCounter, LatticeMap, ReplicaId};

    type Kv = LatticeMap<String, GCounter>;

    /// One message of every kind, in [`Message`]'s declaration order, for the
    /// given protocol instance.
    fn one_of_each_kind(request: RequestId) -> [Message<Kv>; MESSAGE_KINDS] {
        let mut counter = GCounter::default();
        counter.increment(ReplicaId::new(3), 17);
        let mut state = Kv::default();
        state.merge_entry("clicks".to_string(), &counter);
        let full = || Payload::Full(state.clone());
        [
            Message::Merge { request, payload: full() },
            Message::MergeAck { request },
            Message::Prepare {
                request,
                round: PrepareRound::Fixed(Round::ZERO),
                payload: Some(full()),
                basis: 0,
            },
            Message::PrepareAck { request, round: Round::ZERO, state: full(), reveal: 0, basis: 0 },
            Message::Vote { request, round: Round::ZERO, payload: full(), basis: 0 },
            Message::VoteAck { request },
            Message::Nack { request, round: Round::ZERO, state: full(), basis: 0 },
        ]
    }

    /// The peek must agree with a full decode on every frame: same stamp,
    /// shard, kind and request for `Protocol`, `None` exactly for the other
    /// variants. This is the property that lets [`Assignment::dispatch`] fence
    /// frames without decoding their bodies, and a worker pick a decode target
    /// — or skip the decode — by kind and instance. It pins what the peek is
    /// coupled to: `Protocol` being `ShardMessage`'s first variant, `Message`'s
    /// variant order, and `request` being every variant's first field.
    #[test]
    fn peek_matches_full_decode() {
        // Stamps and request ids straddling every varint width boundary the
        // fields can hit.
        let stamps: Vec<(u64, u32, u32)> = vec![
            (0, 1, 0),
            (1, 2, 1),
            (127, 127, 127),
            (128, 128, 128),
            (300, 4, 3),
            (u64::MAX, u32::MAX, u32::MAX),
        ];
        let requests =
            [0, 7, (1 << 7) - 1, 1 << 7, (1 << 14) - 1, 1 << 14, u64::MAX].map(RequestId);
        for request in requests {
            for (kind, message) in one_of_each_kind(request).into_iter().enumerate() {
                for &(epoch, shards, shard) in &stamps {
                    let shard = ShardId(shard);
                    let sent =
                        ShardMessage::Protocol { epoch, shards, shard, message: message.clone() };
                    let frame = wire::to_vec(&sent).unwrap();
                    let peek = peek_protocol(&frame).expect("a protocol frame");
                    assert_eq!(peek, Peek { stamp: (epoch, shards), shard, kind, request });
                    // What the peek says is what a decode finds.
                    assert_eq!(wire::from_slice::<ShardMessage<Kv>>(&frame).unwrap(), sent);
                    assert_eq!(message.request(), request);
                    assert_eq!(
                        peek.is_state_reply(),
                        matches!(message, Message::PrepareAck { .. } | Message::Nack { .. }),
                        "{}",
                        message.kind()
                    );
                }
            }
        }

        let others: Vec<ShardMessage<Kv>> = vec![
            ShardMessage::PlanRequest,
            ShardMessage::Rebalance { plan: RebalancePlan { epoch: 300, shards: 7 } },
            ShardMessage::Control { message: Message::MergeAck { request: RequestId(1) } },
        ];
        for message in &others {
            let frame = wire::to_vec(message).unwrap();
            assert_eq!(peek_protocol(&frame), None, "{message:?}");
        }
    }

    /// Mangled frames must fail the peek instead of misrouting.
    #[test]
    fn peek_rejects_mangled_preambles() {
        assert_eq!(peek_protocol(&[]), None);
        // Unterminated varint.
        assert_eq!(peek_protocol(&[0x80]), None);
        // A valid Protocol tag but a preamble cut short: after the stamp, after
        // the shard, after the kind, inside the request id.
        assert_eq!(peek_protocol(&[0, 5]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1, 3]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1, 3, 0x80]), None);
        assert!(peek_protocol(&[0, 5, 4, 1, 3, 9]).is_some());
        // `shards` overflowing u32 must not wrap into a bogus stamp.
        let mut frame = vec![0, 1];
        wire::varint::encode_u64(u64::from(u32::MAX) + 1, &mut frame);
        frame.extend([0, 1, 9]);
        assert_eq!(peek_protocol(&frame), None);
        // A kind no `Message` variant has: no resident to aim at, and nothing a
        // full decode would accept either.
        let unknown_kind = [0, 5, 4, 1, MESSAGE_KINDS as u8, 9];
        assert_eq!(peek_protocol(&unknown_kind), None);
        assert!(wire::from_slice::<ShardMessage<Kv>>(&unknown_kind).is_err());
    }
}
