//! Protocol messages (Algorithm 2) and client-facing request/response types.

use crdt::{Crdt, ReplicaId};
use serde::{Deserialize, Serialize};

use crate::round::{PrepareRound, Round};

/// Identifies a protocol instance (one update round or one query attempt) at a
/// proposer. Fresh ids are allocated per attempt so stale replies can be discarded.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RequestId(pub u64);

/// Identifies a client session submitting commands to a proposer.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u64);

/// Correlates a client command with its eventual response.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CommandId(pub u64);

/// The state carried by a state-bearing protocol message.
///
/// The paper ships the full CRDT state in every `MERGE`/`PREPARE`/`VOTE`; for large
/// payloads (a 64-slot counter, a populated `LatticeMap`) this is quadratic pain. A
/// proposer that knows a lower bound of the receiver's state (tracked from
/// `MERGED`/`ACK`/`NACK` replies) may instead ship a [`DeltaCrdt::delta_since`]
/// delta — see [`crate::PayloadMode`]. Both variants hold a state of the same
/// lattice and are joined the same way; joining `Full(s)` and joining `Delta(d)`
/// into an acceptor whose state contains the delta's baseline produce the same
/// state, so the protocol's safety argument is untouched.
///
/// [`DeltaCrdt::delta_since`]: crdt::DeltaCrdt::delta_since
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload<C> {
    /// The sender's full payload state.
    Full(C),
    /// A delta covering everything the receiver is known to be missing.
    Delta(C),
}

impl<C: Crdt> Payload<C> {
    /// The state the payload carries, whole or as a delta.
    pub fn content(&self) -> &C {
        match self {
            Payload::Full(content) | Payload::Delta(content) => content,
        }
    }

    /// Joins the payload's content into `state`.
    pub fn join_into(&self, state: &mut C) {
        state.join(self.content());
    }
}

/// A replica-to-replica protocol message, generic over the replicated CRDT `C`.
///
/// Message names follow Algorithm 2: `MERGE`/`MERGED` implement the single-round-trip
/// update path, `PREPARE`/`ACK` and `VOTE`/`VOTED` implement the two-phase query path,
/// and `NACK` tells a proposer to retry. Per the optimizations of §3.6, `VOTED` omits
/// the payload state (the proposer already knows what it proposed) and `PREPARE` may
/// omit the payload when it would not grow any acceptor state.
///
/// State-bearing messages carry a [`Payload`] — either the full state (as in the
/// paper) or a delta (Almeida et al.), a smaller state of the same `C`, depending
/// on [`crate::PayloadMode`] and on what the proposer knows about the receiver.
/// Replies (`ACK`, `NACK`) carry a [`Payload`] too: in delta mode the acceptor
/// diffs its post-join state against a baseline both sides hold **exactly** — the
/// [`Payload::content`] of the very request being answered, joined with the
/// acceptor-state snapshot whose `reveal` sequence number the request echoed back
/// (`basis`). Exactness matters: the proposer's consistent-quorum check compares
/// acceptor states for equality, so reply deltas must reconstruct to the acceptor's
/// precise state, not a lower or upper bound. Replies without a usable baseline
/// ship the acceptor's full state, and so do the paper-faithful full mode's, except
/// an `ACK` whose state equals its `PREPARE`'s payload: that one is the empty
/// delta against the payload (basis 0), which the proposer resolves to the very
/// state it sent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message<C: Crdt> {
    /// Update path: "join this payload into your state" (paper line 4).
    Merge {
        /// Protocol instance this message belongs to.
        request: RequestId,
        /// The proposer's payload state after applying the update locally (full or
        /// as a delta on top of what the receiver is known to hold).
        payload: Payload<C>,
    },
    /// Acknowledgement of a [`Message::Merge`] (paper line 35, `MERGED`).
    MergeAck {
        /// Protocol instance being acknowledged.
        request: RequestId,
    },
    /// First query phase: announce the intent to learn a state (paper line 10).
    Prepare {
        /// Protocol instance this message belongs to.
        request: RequestId,
        /// Incremental or fixed round.
        round: PrepareRound,
        /// Optional payload to speed up convergence (omitted when it equals `s0`).
        /// A query's first `PREPARE` carries the proposer's state after its
        /// cycle's updates, and when that cycle opened an update instance too it
        /// stands in for the update's `MERGE`: the acceptor joins it before
        /// answering, so every reply also acknowledges the update.
        payload: Option<Payload<C>>,
        /// Reveal sequence number of the receiver's newest state snapshot this
        /// proposer holds (delta-mode reply handshake, see [`Message::PrepareAck`]);
        /// `0` when none is held or delta payloads are disabled.
        basis: u64,
    },
    /// Acceptor acknowledgement of a prepare (paper line 42, `ACK`).
    PrepareAck {
        /// Protocol instance being acknowledged.
        request: RequestId,
        /// The acceptor's round after processing the prepare.
        round: Round,
        /// The acceptor's payload state after processing the prepare — full, or a
        /// delta against `content(request payload) ⊔ snapshot(basis)`, both of
        /// which the proposer holds exactly (in full mode: the empty delta when
        /// the state is the request's payload).
        state: Payload<C>,
        /// Sequence number under which the acceptor remembers the revealed state, so
        /// the proposer can echo it as the `basis` of future requests (0 = none).
        reveal: u64,
        /// The reveal sequence number whose snapshot the delta was diffed against
        /// (0 = the request's own payload content only).
        basis: u64,
    },
    /// Second query phase: propose a state to learn (paper line 17).
    Vote {
        /// Protocol instance this message belongs to.
        request: RequestId,
        /// The round agreed on in the first phase.
        round: Round,
        /// The proposed payload state (LUB of all first-phase payloads).
        payload: Payload<C>,
        /// Reveal sequence echo, as in [`Message::Prepare`] (0 = none).
        basis: u64,
    },
    /// Acceptor acknowledgement of a vote (paper line 47, `VOTED`).
    ///
    /// The payload state is omitted (optimization §3.6): the proposer remembers what
    /// it proposed.
    VoteAck {
        /// Protocol instance being acknowledged.
        request: RequestId,
    },
    /// Rejection of a fixed prepare or a vote; carries the acceptor's current round
    /// and payload so the proposer can retry with more information (§3.2, "Retrying
    /// Requests").
    Nack {
        /// Protocol instance being rejected.
        request: RequestId,
        /// The acceptor's current round.
        round: Round,
        /// The acceptor's current payload state — full, or (for vote rejections in
        /// delta mode) a delta against the `VOTE`'s own payload and basis snapshot.
        state: Payload<C>,
        /// The reveal sequence number whose snapshot the delta was diffed against
        /// (0 = the request's own payload content only).
        basis: u64,
    },
}

impl<C: Crdt> Message<C> {
    /// Returns the protocol instance id the message belongs to.
    pub fn request(&self) -> RequestId {
        match self {
            Message::Merge { request, .. }
            | Message::MergeAck { request }
            | Message::Prepare { request, .. }
            | Message::PrepareAck { request, .. }
            | Message::Vote { request, .. }
            | Message::VoteAck { request }
            | Message::Nack { request, .. } => *request,
        }
    }

    /// Short, human-readable message kind (used by traces, tests, and the wire
    /// byte-accounting reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Merge { .. } => "MERGE",
            Message::MergeAck { .. } => "MERGED",
            Message::Prepare { .. } => "PREPARE",
            Message::PrepareAck { .. } => "ACK",
            Message::Vote { .. } => "VOTE",
            Message::VoteAck { .. } => "VOTED",
            Message::Nack { .. } => "NACK",
        }
    }

    /// The byte-accounting key: the message kind with the payload
    /// representation appended for state-bearing messages ("MERGE:full" /
    /// "MERGE:delta"). Every combination maps to a static string so hot-loop
    /// accounting never allocates per message.
    pub fn wire_kind(&self) -> &'static str {
        match (self, self.payload()) {
            (_, None) => self.kind(),
            (Message::Merge { .. }, Some(Payload::Full(_))) => "MERGE:full",
            (Message::Merge { .. }, Some(Payload::Delta(_))) => "MERGE:delta",
            (Message::Prepare { .. }, Some(Payload::Full(_))) => "PREPARE:full",
            (Message::Prepare { .. }, Some(Payload::Delta(_))) => "PREPARE:delta",
            (Message::PrepareAck { .. }, Some(Payload::Full(_))) => "ACK:full",
            (Message::PrepareAck { .. }, Some(Payload::Delta(_))) => "ACK:delta",
            (Message::Vote { .. }, Some(Payload::Full(_))) => "VOTE:full",
            (Message::Vote { .. }, Some(Payload::Delta(_))) => "VOTE:delta",
            (Message::Nack { .. }, Some(Payload::Full(_))) => "NACK:full",
            (Message::Nack { .. }, Some(Payload::Delta(_))) => "NACK:delta",
            (Message::MergeAck { .. } | Message::VoteAck { .. }, Some(_)) => {
                unreachable!("acks carry no payload")
            }
        }
    }

    /// The byte-accounting key for control-shard traffic: [`Message::kind`]
    /// with a `CTRL:` prefix, as a static string so accounting never
    /// allocates per message.
    pub fn ctrl_wire_kind(&self) -> &'static str {
        match self {
            Message::Merge { .. } => "CTRL:MERGE",
            Message::MergeAck { .. } => "CTRL:MERGED",
            Message::Prepare { .. } => "CTRL:PREPARE",
            Message::PrepareAck { .. } => "CTRL:ACK",
            Message::Vote { .. } => "CTRL:VOTE",
            Message::VoteAck { .. } => "CTRL:VOTED",
            Message::Nack { .. } => "CTRL:NACK",
        }
    }

    /// The payload carried by a state-bearing message (request or reply), if any.
    pub fn payload(&self) -> Option<&Payload<C>> {
        match self {
            Message::Merge { payload, .. } | Message::Vote { payload, .. } => Some(payload),
            Message::Prepare { payload, .. } => payload.as_ref(),
            Message::PrepareAck { state, .. } | Message::Nack { state, .. } => Some(state),
            Message::MergeAck { .. } | Message::VoteAck { .. } => None,
        }
    }
}

/// A message addressed from one replica to another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<C: Crdt> {
    /// Sending replica.
    pub from: ReplicaId,
    /// Receiving replica.
    pub to: ReplicaId,
    /// The protocol message.
    pub message: Message<C>,
}

/// A command submitted by a client to a proposer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(bound(
    serialize = "C::Update: Serialize, C::Query: Serialize",
    deserialize = "C::Update: Deserialize<'de>, C::Query: Deserialize<'de>"
))]
pub enum Command<C: Crdt> {
    /// An update command carrying an update function `f_u ∈ U`.
    Update(C::Update),
    /// A query command carrying a query function `f_q ∈ Q`.
    Query(C::Query),
}

/// The proposer's reply to a client command.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse<C: Crdt> {
    /// The client the response is addressed to.
    pub client: ClientId,
    /// The command being answered.
    pub command: CommandId,
    /// The actual result.
    pub body: ResponseBody<C>,
    /// Number of quorum round trips the command needed (1 for every update; 1 for a
    /// consistent-quorum read, 2 for a read by vote, more when retries were needed).
    pub round_trips: u32,
}

/// Result payload of a [`ClientResponse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody<C: Crdt> {
    /// The update has been applied on a quorum (paper line 6, `UPDATE_DONE`).
    UpdateDone,
    /// The query has learned a state and evaluated the query function on it
    /// (paper lines 15 and 24, `QUERY_DONE`).
    QueryDone(C::Output),
    /// The query gave up without learning a state.
    ///
    /// Never produced: as in the paper, a query retries until it learns. The
    /// variant remains only for callers that still match on it.
    QueryFailed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{DeltaCrdt, GCounter};

    #[test]
    fn message_kind_and_request_accessors() {
        let state = GCounter::new();
        let request = RequestId(7);
        let messages: Vec<Message<GCounter>> = vec![
            Message::Merge { request, payload: Payload::Full(state.clone()) },
            Message::MergeAck { request },
            Message::Prepare {
                request,
                round: PrepareRound::Fixed(Round::ZERO),
                payload: Some(Payload::Full(state.clone())),
                basis: 0,
            },
            Message::PrepareAck {
                request,
                round: Round::ZERO,
                state: Payload::Full(state.clone()),
                reveal: 0,
                basis: 0,
            },
            Message::Vote {
                request,
                round: Round::ZERO,
                payload: Payload::Full(state.clone()),
                basis: 0,
            },
            Message::VoteAck { request },
            Message::Nack { request, round: Round::ZERO, state: Payload::Full(state), basis: 0 },
        ];
        let kinds: Vec<&str> = messages.iter().map(Message::kind).collect();
        assert_eq!(kinds, ["MERGE", "MERGED", "PREPARE", "ACK", "VOTE", "VOTED", "NACK"]);
        assert!(messages.iter().all(|m| m.request() == request));
    }

    #[test]
    fn messages_survive_the_wire_format() {
        let mut state = GCounter::new();
        state.increment(ReplicaId::new(1), 5);
        let message: Message<GCounter> = Message::PrepareAck {
            request: RequestId(3),
            round: Round::new(2, crate::round::RoundId::proposer(1, ReplicaId::new(0))),
            state: Payload::Full(state),
            reveal: 7,
            basis: 3,
        };
        let envelope = Envelope { from: ReplicaId::new(0), to: ReplicaId::new(2), message };
        let bytes = wire::to_vec(&envelope).unwrap();
        let decoded: Envelope<GCounter> = wire::from_slice(&bytes).unwrap();
        assert_eq!(decoded, envelope);
    }

    #[test]
    fn delta_payloads_survive_the_wire_format() {
        let mut state = GCounter::new();
        let delta = state.increment_delta(ReplicaId::new(2), 9);
        let message: Message<GCounter> =
            Message::Merge { request: RequestId(11), payload: Payload::Delta(delta) };
        let bytes = wire::to_vec(&message).unwrap();
        let decoded: Message<GCounter> = wire::from_slice(&bytes).unwrap();
        assert_eq!(decoded, message);
        assert!(matches!(decoded.payload(), Some(Payload::Delta(_))));
    }

    #[test]
    fn message_overhead_is_a_single_round() {
        // The paper's claim: coordination overhead per message is a single counter.
        // A MERGE-ACK (no payload) must encode to just a handful of bytes.
        let ack: Message<GCounter> = Message::MergeAck { request: RequestId(1) };
        let bytes = wire::to_vec(&ack).unwrap();
        assert!(bytes.len() <= 3, "MergeAck encoded to {} bytes", bytes.len());
    }

    #[test]
    fn payload_join_into_is_equivalent_for_full_and_delta() {
        let mut sender = GCounter::new();
        sender.increment(ReplicaId::new(0), 3);
        let known = sender.clone();
        sender.increment(ReplicaId::new(0), 2);

        let mut via_full = known.clone();
        Payload::Full(sender.clone()).join_into(&mut via_full);
        let mut via_delta = known.clone();
        Payload::<GCounter>::Delta(sender.delta_since(&known)).join_into(&mut via_delta);
        assert_eq!(via_full, via_delta);
        assert_eq!(via_full.value(), 5);
    }
}
