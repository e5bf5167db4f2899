//! Where a shard worker receives a frame: one long-lived decode target per
//! kind of protocol message.
//!
//! An in-place decode (`wire::from_slice_in_place`) costs nothing to speak of
//! when the target already has the shape of what arrives — every map node,
//! every counter of the previous state is overwritten where it lies — and
//! costs a whole fresh message when it does not: the derived decode of an
//! enum whose resident variant differs drops the resident and builds the
//! incoming one from nothing. A worker never sees a stream of one kind. An
//! acceptor serving reads and writes alternates `MERGE` and `PREPARE`, a
//! proposer `MERGED` and `ACK`, and on a single target each flip would throw
//! away one state-sized tree and build another. So the target is chosen by
//! what the frame's preamble says it holds — the [`Peek`] the dispatcher read
//! with [`peek_protocol`] to fence the frame, carried to the worker with it —
//! before any of it is decoded, and the same look settles two more things for
//! free: a frame routed under another assignment than the worker's goes back
//! to the router as the bytes it came in, and a state-bearing reply to an
//! instance that has already retired — the second `ACK` of a quiet read under
//! a three-replica quorum of two — is not decoded at all. A frame whose
//! preamble does not peek never gets here: the dispatcher hands it to the
//! router instead.
//!
//! Only the outer kind gets a target of its own. Inside a message a
//! `Payload::Full` ↔ `Payload::Delta` flip (the same state type under the
//! other tag, which the derived decode does not know), or a `PREPARE` with and
//! without a payload, still rebuilds that field. Those flips mark first
//! contact, retries and fallbacks — and an `ACK` that raced a write: a quiet
//! read's `ACK` is the empty delta in either payload mode, and one from an
//! acceptor that holds a write the `PREPARE` lacked ships its full state in
//! full mode. Under a steady read/write mix that flip recurs at the rate of
//! such races, and the delta a proposer resolves is left in its resident, so
//! the common empty-delta `ACK` decodes in place.
//!
//! [`peek_protocol`]: crdt_paxos_core::peek_protocol

use crdt::Crdt;
use crdt_paxos_core::{Message, Peek, RequestId, ShardMessage, Stamp, MESSAGE_KINDS};
use serde::de::DeserializeOwned;

/// What became of one frame handed to [`Residents::receive`].
#[derive(Debug)]
pub enum Received<'a, C: Crdt> {
    /// Decoded, under the receiver's own stamp: the message to step the
    /// protocol with. It lives in the resident of its kind until the next
    /// frame of that kind overwrites it.
    Message(&'a mut Message<C>),
    /// Routed under a stamp other than the receiver's; not decoded. The frame
    /// belongs to the router, which runs it through the current fence.
    Stale,
    /// An `ACK` or `NACK` nobody is waiting for; not decoded.
    Skipped,
    /// A frame whose body does not decode. Dropped, like any lost message.
    Undecodable,
}

/// The decode targets of one shard worker: a resident [`ShardMessage`] per
/// [`Message`] kind, each holding whatever the last frame of its kind left in
/// it (see the module docs).
///
/// A resident is a unit placeholder until its kind first arrives, so a worker
/// holds state-sized targets only for the kinds it actually receives. Nothing
/// here assumes a resident's allocations are its own: a state inside one that
/// something else still shares (a snapshot taken by the protocol, the bottom
/// state a fresh reply slot starts from) is left to its other holders and
/// decoded afresh, by `Arc`'s in-place decode.
#[derive(Debug)]
pub struct Residents<C: Crdt> {
    /// Indexed by [`Message`]'s wire variant index.
    kinds: [ShardMessage<C>; MESSAGE_KINDS],
}

impl<C: Crdt> Default for Residents<C> {
    fn default() -> Self {
        Residents { kinds: std::array::from_fn(|_| ShardMessage::PlanRequest) }
    }
}

impl<C> Residents<C>
where
    C: Crdt,
    ShardMessage<C>: DeserializeOwned,
{
    /// A set of residents with nothing in them yet.
    pub fn new() -> Self {
        Residents::default()
    }

    /// Receives one encoded [`ShardMessage::Protocol`] frame on behalf of a
    /// shard core whose assignment is `stamp`: decodes it into the resident of
    /// its kind, unless its preamble already shows it is not for this core to
    /// step. `peek` is what [`crdt_paxos_core::peek_protocol`] read off
    /// `frame`; the frame is not read again before the decode.
    ///
    /// `wants_reply` is asked about a state-bearing reply's instance before
    /// the reply is decoded (`Replica::wants_reply` /
    /// `ShardCore::wants_reply`); a reply it declines is [`Received::Skipped`].
    pub fn receive(
        &mut self,
        frame: &[u8],
        peek: Peek,
        stamp: Stamp,
        wants_reply: impl FnOnce(RequestId) -> bool,
    ) -> Received<'_, C> {
        if peek.stamp() != stamp {
            return Received::Stale;
        }
        if peek.is_state_reply() && !wants_reply(peek.request()) {
            return Received::Skipped;
        }
        let target = &mut self.kinds[peek.kind()];
        if wire::from_slice_in_place(frame, target).is_err() {
            return Received::Undecodable;
        }
        match target {
            ShardMessage::Protocol { message, .. } => Received::Message(message),
            _ => Received::Undecodable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{GCounter, LatticeMap, ReplicaId};
    use crdt_paxos_core::{peek_protocol, Payload, PrepareRound, Round, RoundId, ShardId};

    type Kv = LatticeMap<u64, GCounter>;

    const STAMP: Stamp = (3, 4);

    fn state(keys: u64, seed: u64) -> Kv {
        let mut map = Kv::default();
        for key in 0..keys {
            map.update(key, |counter| counter.increment(ReplicaId::new(key % 3), seed + key));
        }
        map
    }

    fn frame(stamp: Stamp, message: &Message<Kv>) -> Vec<u8> {
        let (epoch, shards) = stamp;
        wire::to_vec(&ShardMessage::Protocol {
            epoch,
            shards,
            shard: ShardId(1),
            message: message.clone(),
        })
        .expect("encode")
    }

    fn merge(request: u64, state: Kv) -> Message<Kv> {
        Message::Merge { request: RequestId(request), payload: Payload::Full(state) }
    }

    fn prepare(request: u64, state: Option<Kv>) -> Message<Kv> {
        Message::Prepare {
            request: RequestId(request),
            round: PrepareRound::Incremental { id: RoundId::proposer(request, ReplicaId::new(0)) },
            payload: state.map(Payload::Full),
            basis: 0,
        }
    }

    fn ack(request: u64, state: Payload<Kv>) -> Message<Kv> {
        let round = Round::new(request, RoundId::proposer(request, ReplicaId::new(0)));
        Message::PrepareAck { request: RequestId(request), round, state, reveal: 0, basis: 0 }
    }

    /// Whether the two maps read their entries from one allocation.
    fn share_entries(a: &Kv, b: &Kv) -> bool {
        match (a.iter().next(), b.iter().next()) {
            (Some((_, x)), Some((_, y))) => std::ptr::eq(x, y),
            _ => false,
        }
    }

    /// Receives `frame` as a worker does: with the peek the dispatcher read
    /// to fence it.
    fn receive<'a>(
        residents: &'a mut Residents<Kv>,
        frame: &[u8],
        wants_reply: impl FnOnce(RequestId) -> bool,
    ) -> Received<'a, Kv> {
        let peek = peek_protocol(frame).expect("a protocol preamble");
        residents.receive(frame, peek, STAMP, wants_reply)
    }

    fn expect_message<'a>(received: Received<'a, Kv>) -> &'a mut Message<Kv> {
        match received {
            Received::Message(message) => message,
            other => panic!("expected a decoded message, got {other:?}"),
        }
    }

    /// A mixed stream decodes to exactly what arrived, kind after kind, with
    /// every nested flip along the way: payloads appearing and disappearing,
    /// full and delta, states growing and shrinking.
    #[test]
    fn a_mixed_stream_decodes_to_what_was_sent() {
        let stream = vec![
            merge(1, state(40, 1)),
            prepare(2, None),
            Message::MergeAck { request: RequestId(3) },
            ack(4, Payload::Full(state(40, 2))),
            prepare(5, Some(state(12, 3))),
            merge(6, state(3, 4)),
            ack(7, Payload::Delta(state(2, 5))),
            Message::Nack {
                request: RequestId(8),
                round: Round::ZERO,
                state: Payload::Full(state(9, 6)),
                basis: 0,
            },
            Message::Vote {
                request: RequestId(9),
                round: Round::ZERO,
                payload: Payload::Full(state(40, 7)),
                basis: 0,
            },
            Message::VoteAck { request: RequestId(10) },
            ack(11, Payload::Full(state(64, 8))),
            prepare(12, None),
            merge(13, state(64, 9)),
        ];
        let mut residents = Residents::<Kv>::new();
        for round in 0..3 {
            for message in &stream {
                let received = receive(&mut residents, &frame(STAMP, message), |_| true);
                assert_eq!(expect_message(received), message, "round {round}");
            }
        }
    }

    /// A state something else still reads is never written through: the
    /// resident gets a fresh one and the other holder keeps what it had — for
    /// every kind that carries a state.
    #[test]
    fn a_shared_resident_state_is_left_alone() {
        let carriers: Vec<fn(Kv) -> Message<Kv>> = vec![
            |state| merge(1, state),
            |state| prepare(2, Some(state)),
            |state| ack(3, Payload::Full(state)),
            |state| Message::Vote {
                request: RequestId(4),
                round: Round::ZERO,
                payload: Payload::Full(state),
                basis: 0,
            },
            |state| Message::Nack {
                request: RequestId(5),
                round: Round::ZERO,
                state: Payload::Full(state),
                basis: 0,
            },
        ];
        for carry in carriers {
            let mut residents = Residents::<Kv>::new();
            let first = frame(STAMP, &carry(state(20, 1)));
            let snapshot = {
                let message = expect_message(receive(&mut residents, &first, |_| true));
                message.payload().and_then(|payload| match payload {
                    Payload::Full(state) => Some(state.clone()),
                    Payload::Delta(_) => None,
                })
            }
            .expect("a full payload");
            assert_eq!(snapshot, state(20, 1));

            let second = carry(state(20, 50));
            let message = expect_message(receive(&mut residents, &frame(STAMP, &second), |_| true));
            assert_eq!(*message, second);
            assert_eq!(snapshot, state(20, 1), "the snapshot moved under its holder");
            let Some(Payload::Full(resident)) = message.payload() else { panic!("full payload") };
            assert!(!share_entries(resident, &snapshot));

            // With the snapshot gone the resident is its own again, and the next
            // frame is written over it where it lies.
            drop(snapshot);
            let Some(Payload::Full(resident)) = message.payload() else { panic!("full payload") };
            let before = resident.iter().next().map(|(_, value)| std::ptr::from_ref(value));
            let third = carry(state(20, 90));
            let message = expect_message(receive(&mut residents, &frame(STAMP, &third), |_| true));
            assert_eq!(*message, third);
            let Some(Payload::Full(resident)) = message.payload() else { panic!("full payload") };
            let after = resident.iter().next().map(|(_, value)| std::ptr::from_ref(value));
            assert_eq!(before, after, "an unshared resident was rebuilt instead of overwritten");
        }
    }

    /// The preamble alone turns away a frame of another assignment and a reply
    /// nobody waits for: neither reaches a resident.
    #[test]
    fn stale_and_unwanted_frames_are_not_decoded() {
        let mut residents = Residents::<Kv>::new();
        let wanted = ack(7, Payload::Full(state(8, 1)));
        let received = receive(&mut residents, &frame(STAMP, &wanted), |request| {
            assert_eq!(request, RequestId(7));
            true
        });
        assert_eq!(*expect_message(received), wanted);

        // A truncated body would fail any decode; the verdicts below come from
        // the preamble.
        let unwanted = frame(STAMP, &ack(8, Payload::Full(state(8, 2))));
        let received = receive(&mut residents, &unwanted[..unwanted.len() - 3], |_| false);
        assert!(matches!(received, Received::Skipped), "{received:?}");
        let nack = Message::Nack {
            request: RequestId(9),
            round: Round::ZERO,
            state: Payload::Full(state(8, 3)),
            basis: 0,
        };
        let received = receive(&mut residents, &frame(STAMP, &nack), |_| false);
        assert!(matches!(received, Received::Skipped), "{received:?}");
        let old = frame((2, 4), &merge(10, state(8, 4)));
        let received = receive(&mut residents, &old[..old.len() - 3], |_| false);
        assert!(matches!(received, Received::Stale), "{received:?}");
        // Requests and acks without a state are never put to `wants_reply`.
        for message in [merge(11, state(2, 5)), Message::MergeAck { request: RequestId(12) }] {
            let received = receive(&mut residents, &frame(STAMP, &message), |_| {
                panic!("only state-bearing replies are optional")
            });
            assert_eq!(*expect_message(received), message);
        }

        // The `ACK` resident still holds the one reply that was decoded.
        let ShardMessage::Protocol { message, .. } = &residents.kinds[3] else {
            panic!("the ACK resident is a protocol message");
        };
        assert_eq!(*message, wanted);
    }

    /// A frame whose preamble peeks but whose body does not decode is dropped
    /// without disturbing the residents of other kinds. Frames whose preamble
    /// does not peek never reach a worker: `Assignment::dispatch` hands them to
    /// the router (`router::tests::dispatch_hands_back_what_does_not_peek`), and
    /// `peek_protocol` turns them down (`peek_rejects_mangled_preambles`).
    #[test]
    fn undecodable_frames_are_dropped() {
        let mut residents = Residents::<Kv>::new();
        let held = ack(1, Payload::Full(state(5, 1)));
        assert_eq!(*expect_message(receive(&mut residents, &frame(STAMP, &held), |_| true)), held);

        let truncated = frame(STAMP, &merge(2, state(5, 2)));
        // A frame cut short fails in the resident of its kind; the next whole
        // frame of that kind decodes over whatever that left behind.
        let received = receive(&mut residents, &truncated[..truncated.len() - 1], |_| true);
        assert!(matches!(received, Received::Undecodable), "{received:?}");
        let ShardMessage::Protocol { message, .. } = &residents.kinds[3] else {
            panic!("the ACK resident is a protocol message");
        };
        assert_eq!(*message, held);
        let next = merge(4, state(7, 3));
        assert_eq!(*expect_message(receive(&mut residents, &frame(STAMP, &next), |_| true)), next);
    }
}
