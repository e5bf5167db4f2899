//! The acceptor role: the replicated storage of the CRDT (Algorithm 2, right column).
//!
//! An acceptor holds exactly two pieces of state: the current CRDT payload `s` and the
//! highest round `r` it has observed. There is no command log; updates and merges
//! modify the payload *in place* by monotone growth.
//!
//! The message-facing handlers operate on [`Payload`]s, so an acceptor absorbs full
//! states and deltas uniformly; the `*_local` variants are the allocation-free entry
//! points the co-located proposer uses for its own acceptor.

use crdt::{Crdt, ReplicaId};

use crate::msg::Payload;
use crate::round::{PrepareRound, Round, RoundId};

/// Outcome of handling a `PREPARE` or `VOTE` message.
///
/// Deliberately carries only the round, not the payload: the caller that needs
/// the post-decision state borrows it via [`Acceptor::state`] and clones only
/// on the paths that actually ship it (a `VOTED` reply, for instance, carries
/// no state at all — §3.6 — so its hot path is clone-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The request was accepted; reply with `ACK`/`VOTED`.
    Ack {
        /// The acceptor's round after processing the request.
        round: Round,
    },
    /// The request was rejected; reply with `NACK` carrying the current round
    /// (and, on the wire, the payload the caller borrows separately) so the
    /// proposer can retry with more information.
    Nack {
        /// The acceptor's current round.
        round: Round,
    },
}

/// The acceptor role of one replica.
#[derive(Debug, Clone)]
pub struct Acceptor<C> {
    replica: ReplicaId,
    state: C,
    round: Round,
}

impl<C: Crdt> Acceptor<C> {
    /// Creates an acceptor with the initial payload `s0` and round `(0, ⊥)`
    /// (paper lines 25–27).
    pub fn new(replica: ReplicaId, initial: C) -> Self {
        Acceptor { replica, state: initial, round: Round::ZERO }
    }

    /// The replica this acceptor belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Read access to the current payload state.
    pub fn state(&self) -> &C {
        &self.state
    }

    /// The highest round observed so far.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Applies an update function locally (paper lines 28–31, `apply_update`).
    ///
    /// The round id is set to the write marker, invalidating any in-flight
    /// proposal that prepared against the previous state. The caller reads the
    /// grown payload through [`Acceptor::state`] (and clones it once per
    /// protocol instance, not once per applied update, when broadcasting
    /// `MERGE` messages).
    pub fn apply_update(&mut self, update: &C::Update) {
        self.state.apply(self.replica, update);
        self.round = self.round.with_write_marker();
    }

    /// Handles a `MERGE` message (paper lines 32–35): joins the received payload
    /// (full state or delta) and installs the write marker. The caller replies with
    /// `MERGED`.
    pub fn handle_merge(&mut self, payload: &Payload<C>) {
        payload.join_into(&mut self.state);
        self.round = self.round.with_write_marker();
    }

    /// Joins `state` directly into the payload and installs the write marker,
    /// exactly as a `MERGE` carrying that state would.
    ///
    /// This is the lattice-join half of a state handoff: during resharding the
    /// sharded engine grafts a moved key range into the destination instance by
    /// absorbing the source's sub-state. The write marker invalidates in-flight
    /// proposals prepared against the pre-handoff state, like any other merge.
    pub fn absorb(&mut self, state: &C) {
        self.state.join(state);
        self.round = self.round.with_write_marker();
    }

    /// Handles a `PREPARE` message (paper lines 36–42).
    ///
    /// The optional payload is joined into the local state first. An incremental
    /// prepare is always accepted (the local round number strictly increases); a fixed
    /// prepare is accepted only if its round number is strictly larger than the
    /// current one, otherwise a `NACK` outcome is returned.
    ///
    /// Also returns whether the payload covered the state it was joined into
    /// (`old ⊑ payload`, from the join's own walk): then the state is now exactly
    /// the payload's content, which the proposer holds, and an `ACK` need not
    /// ship it back. `false` without a payload.
    pub fn handle_prepare(
        &mut self,
        round: PrepareRound,
        payload: Option<&Payload<C>>,
    ) -> (AcceptOutcome, bool) {
        let covered = payload.is_some_and(|payload| self.state.join_report(payload.content()).1);
        (self.decide_prepare(round), covered)
    }

    /// [`Acceptor::handle_prepare`] for the proposer's own acceptor, which holds the
    /// payload state by reference and never wraps it in a [`Payload`].
    pub fn prepare_local(&mut self, round: PrepareRound, state: Option<&C>) -> AcceptOutcome {
        if let Some(state) = state {
            self.state.join(state);
        }
        self.decide_prepare(round)
    }

    fn decide_prepare(&mut self, round: PrepareRound) -> AcceptOutcome {
        let requested = match round {
            PrepareRound::Incremental { id } => Round::new(self.round.number + 1, id),
            PrepareRound::Fixed(round) => round,
        };
        if requested.number > self.round.number {
            self.round = requested;
            AcceptOutcome::Ack { round: self.round }
        } else {
            AcceptOutcome::Nack { round: self.round }
        }
    }

    /// Handles a `VOTE` message (paper lines 43–47).
    ///
    /// The proposed payload is always joined into the local state (line 44). The vote
    /// succeeds only if the acceptor's round still equals the proposal's round, i.e.
    /// no concurrent update, merge, or competing prepare has intervened since the
    /// first phase (invariant I4).
    pub fn handle_vote(&mut self, round: Round, payload: &Payload<C>) -> AcceptOutcome {
        payload.join_into(&mut self.state);
        self.decide_vote(round)
    }

    /// [`Acceptor::handle_vote`] for the proposer's own acceptor (no [`Payload`]
    /// wrapping, no clone).
    pub fn vote_local(&mut self, round: Round, state: &C) -> AcceptOutcome {
        self.state.join(state);
        self.decide_vote(round)
    }

    fn decide_vote(&mut self, round: Round) -> AcceptOutcome {
        if round == self.round {
            AcceptOutcome::Ack { round: self.round }
        } else {
            AcceptOutcome::Nack { round: self.round }
        }
    }

    /// Returns `true` if the acceptor's round carries the write marker, i.e. the last
    /// payload modification came from an update or merge.
    pub fn has_pending_write_marker(&self) -> bool {
        self.round.id == RoundId::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{CounterUpdate, DeltaCrdt, GCounter, Lattice};

    fn acceptor() -> Acceptor<GCounter> {
        Acceptor::new(ReplicaId::new(0), GCounter::new())
    }

    fn proposer_id(seq: u64) -> RoundId {
        RoundId::proposer(seq, ReplicaId::new(9))
    }

    #[test]
    fn initial_state_is_bottom_round_and_s0() {
        let acceptor = acceptor();
        assert_eq!(acceptor.round(), Round::ZERO);
        assert_eq!(acceptor.state().value(), 0);
        assert_eq!(acceptor.replica(), ReplicaId::new(0));
        assert!(!acceptor.has_pending_write_marker());
    }

    #[test]
    fn apply_update_grows_state_and_marks_write() {
        let mut acceptor = acceptor();
        acceptor.apply_update(&CounterUpdate::Increment(3));
        assert_eq!(acceptor.state().value(), 3);
        assert!(acceptor.has_pending_write_marker());
        assert_eq!(acceptor.round().number, 0, "updates do not change the round number");
    }

    #[test]
    fn merge_joins_state_and_marks_write() {
        let mut acceptor = acceptor();
        let mut remote = GCounter::new();
        remote.increment(ReplicaId::new(1), 7);
        acceptor.handle_merge(&Payload::Full(remote.clone()));
        assert_eq!(acceptor.state().value(), 7);
        assert!(acceptor.has_pending_write_marker());
        // Merges are idempotent.
        acceptor.handle_merge(&Payload::Full(remote));
        assert_eq!(acceptor.state().value(), 7);
    }

    #[test]
    fn delta_merge_has_the_same_effect_as_a_full_merge() {
        let mut sender = GCounter::new();
        sender.increment(ReplicaId::new(1), 7);

        let mut by_full = acceptor();
        by_full.handle_merge(&Payload::Full(sender.clone()));

        // The acceptor's pre-state (s0) is trivially contained in the sender, so a
        // delta against s0 carries everything.
        let delta = sender.delta_since(&GCounter::new());
        let mut by_delta = acceptor();
        by_delta.handle_merge(&Payload::Delta(delta));

        assert_eq!(by_full.state(), by_delta.state());
        assert!(by_delta.has_pending_write_marker());
    }

    #[test]
    fn incremental_prepare_is_always_accepted_and_increments_round() {
        let mut acceptor = acceptor();
        match acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(1) }, None).0 {
            AcceptOutcome::Ack { round } => {
                assert_eq!(round.number, 1);
                assert_eq!(round.id, proposer_id(1));
                assert_eq!(acceptor.state().value(), 0);
            }
            other => panic!("expected ack, got {other:?}"),
        }
        // A second incremental prepare keeps increasing the round number.
        match acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(2) }, None).0 {
            AcceptOutcome::Ack { round, .. } => assert_eq!(round.number, 2),
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn fixed_prepare_requires_strictly_larger_round_number() {
        let mut acceptor = acceptor();
        let high = Round::new(5, proposer_id(1));
        assert!(matches!(
            acceptor.handle_prepare(PrepareRound::Fixed(high), None).0,
            AcceptOutcome::Ack { .. }
        ));
        // Same round number is rejected.
        let same = Round::new(5, proposer_id(2));
        assert!(matches!(
            acceptor.handle_prepare(PrepareRound::Fixed(same), None).0,
            AcceptOutcome::Nack { round, .. } if round == high
        ));
        // Smaller round number is rejected.
        let low = Round::new(3, proposer_id(3));
        assert!(matches!(
            acceptor.handle_prepare(PrepareRound::Fixed(low), None).0,
            AcceptOutcome::Nack { .. }
        ));
    }

    #[test]
    fn prepare_joins_the_included_payload() {
        let mut acceptor = acceptor();
        let mut payload = GCounter::new();
        payload.increment(ReplicaId::new(2), 4);
        assert!(matches!(
            acceptor
                .handle_prepare(
                    PrepareRound::Incremental { id: proposer_id(1) },
                    Some(&Payload::Full(payload)),
                )
                .0,
            AcceptOutcome::Ack { .. }
        ));
        assert_eq!(acceptor.state().value(), 4);
        // Joining a payload during prepare does NOT set the write marker.
        assert!(!acceptor.has_pending_write_marker());
    }

    #[test]
    fn prepare_reports_whether_its_payload_covered_the_state() {
        let prepare = PrepareRound::Incremental { id: proposer_id(1) };
        let mut acceptor = acceptor();
        assert!(!acceptor.handle_prepare(prepare, None).1, "no payload covers nothing");

        let mut payload = GCounter::new();
        payload.increment(ReplicaId::new(2), 4);
        assert!(acceptor.handle_prepare(prepare, Some(&Payload::Full(payload.clone()))).1);
        assert_eq!(acceptor.state(), &payload, "a covered state is the payload");
        assert!(acceptor.handle_prepare(prepare, Some(&Payload::Full(payload.clone()))).1);

        // A write the payload lacks leaves the state above it.
        acceptor.apply_update(&CounterUpdate::Increment(1));
        assert!(!acceptor.handle_prepare(prepare, Some(&Payload::Full(payload))).1);
        assert_eq!(acceptor.state().value(), 5);
    }

    #[test]
    fn local_variants_match_the_payload_handlers() {
        let mut payload = GCounter::new();
        payload.increment(ReplicaId::new(2), 4);

        let mut via_payload = acceptor();
        via_payload.handle_prepare(
            PrepareRound::Incremental { id: proposer_id(1) },
            Some(&Payload::Full(payload.clone())),
        );
        let mut via_local = acceptor();
        via_local.prepare_local(PrepareRound::Incremental { id: proposer_id(1) }, Some(&payload));
        assert_eq!(via_payload.state(), via_local.state());
        assert_eq!(via_payload.round(), via_local.round());

        let round = via_payload.round();
        via_payload.handle_vote(round, &Payload::Full(payload.clone()));
        via_local.vote_local(round, &payload);
        assert_eq!(via_payload.state(), via_local.state());
    }

    #[test]
    fn vote_succeeds_only_for_the_current_round() {
        let mut acceptor = acceptor();
        let outcome =
            acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(1) }, None).0;
        let round = match outcome {
            AcceptOutcome::Ack { round, .. } => round,
            other => panic!("expected ack, got {other:?}"),
        };
        let mut proposed = GCounter::new();
        proposed.increment(ReplicaId::new(1), 1);
        assert!(matches!(
            acceptor.handle_vote(round, &Payload::Full(proposed)),
            AcceptOutcome::Ack { .. }
        ));
        assert_eq!(acceptor.state().value(), 1, "vote joins the proposed payload");
    }

    #[test]
    fn vote_is_rejected_after_a_concurrent_update() {
        let mut acceptor = acceptor();
        let round =
            match acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(1) }, None).0
            {
                AcceptOutcome::Ack { round, .. } => round,
                other => panic!("expected ack, got {other:?}"),
            };
        // An update arrives between the prepare and the vote.
        acceptor.apply_update(&CounterUpdate::Increment(1));
        let proposed = GCounter::new();
        match acceptor.handle_vote(round, &Payload::Full(proposed)) {
            AcceptOutcome::Nack { round: current } => {
                assert_eq!(current.id, RoundId::Write);
                assert_eq!(acceptor.state().value(), 1);
            }
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn vote_is_rejected_after_a_competing_prepare() {
        let mut acceptor = acceptor();
        let round =
            match acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(1) }, None).0
            {
                AcceptOutcome::Ack { round, .. } => round,
                other => panic!("expected ack, got {other:?}"),
            };
        // A competing proposer prepares with a higher round in between (invariant I4).
        acceptor.handle_prepare(PrepareRound::Incremental { id: proposer_id(2) }, None);
        assert!(matches!(
            acceptor.handle_vote(round, &Payload::Full(GCounter::new())),
            AcceptOutcome::Nack { .. }
        ));
    }

    #[test]
    fn vote_still_joins_payload_even_when_rejected() {
        // Lemma 3.4 (ii) requires acceptors to merge the proposed payload before
        // replying, and the pseudocode joins even when the round check then fails.
        let mut acceptor = acceptor();
        acceptor.apply_update(&CounterUpdate::Increment(1));
        let stale_round = Round::new(9, proposer_id(9));
        let mut proposed = GCounter::new();
        proposed.increment(ReplicaId::new(2), 5);
        assert!(matches!(
            acceptor.handle_vote(stale_round, &Payload::Full(proposed)),
            AcceptOutcome::Nack { .. }
        ));
        assert_eq!(acceptor.state().value(), 6);
    }

    #[test]
    fn payload_grows_monotonically_under_any_message_sequence() {
        // Lemma 3.2: the payload state of each acceptor increases monotonically.
        let mut acceptor = acceptor();
        let mut previous = acceptor.state().clone();
        let mut remote = GCounter::new();
        remote.increment(ReplicaId::new(1), 2);

        type Step = Box<dyn Fn(&mut Acceptor<GCounter>)>;
        let steps: Vec<Step> = vec![
            Box::new(|a| {
                a.apply_update(&CounterUpdate::Increment(1));
            }),
            Box::new({
                let remote = remote.clone();
                move |a| a.handle_merge(&Payload::Full(remote.clone()))
            }),
            Box::new(|a| {
                a.handle_prepare(PrepareRound::Incremental { id: proposer_id(3) }, None);
            }),
            Box::new({
                let remote = remote.clone();
                move |a| {
                    a.handle_vote(Round::new(42, proposer_id(4)), &Payload::Full(remote.clone()));
                }
            }),
        ];
        for step in steps {
            step(&mut acceptor);
            assert!(previous.leq(acceptor.state()), "payload must never shrink");
            previous = acceptor.state().clone();
        }
    }
}
