//! The first query phase decides from what its joins reported (`Agreement`):
//! the same case, LUB and round as the fold over the stored `ACK`s that it
//! replaced, for one comparison per remote `ACK`.

use std::cell::Cell;

use crdt::{
    CounterQuery, CounterUpdate, DeltaCrdt, GCounter, Lattice, LatticeMap, MapQuery, MapUpdate,
};
use proptest::prelude::*;

use super::*;

type Kv = LatticeMap<u8, GCounter>;

/// What a first phase decided (paper Algorithm 2, lines 11–21). Equal LUBs
/// are held alike whatever order they were joined in, so `==` compares them.
#[derive(Debug, PartialEq)]
enum Outcome<C> {
    ConsistentQuorum(C),
    Vote(Round, C),
    Retry(u64),
}

/// Whether a `PREPARE` shipped `state`: nothing while it is still s0.
fn ships<C: Crdt + PartialEq>(payload: &Option<Payload<C>>, state: &C) -> bool {
    match payload {
        None => state.leq(&C::default()),
        Some(Payload::Full(shipped)) => shipped == state,
        Some(Payload::Delta(_)) => false,
    }
}

/// The decision as the proposer made it before it learned from its joins, kept
/// as the reference: fold the stored `ACK`s into their LUB, then compare each
/// of them with it.
fn reference<C: Crdt>(acks: &[(ReplicaId, Round, C)]) -> Outcome<C> {
    let mut lub: Option<C> = None;
    for (_, _, state) in acks {
        match &mut lub {
            Some(acc) => acc.join(state),
            None => lub = Some(state.clone()),
        }
    }
    let lub = lub.expect("quorum is non-empty");
    if acks.iter().all(|(_, _, state)| state.equivalent(&lub)) {
        return Outcome::ConsistentQuorum(lub);
    }
    let first = acks[0].1;
    if acks.iter().all(|(_, round, _)| *round == first) {
        Outcome::Vote(first, lub)
    } else {
        Outcome::Retry(acks.iter().map(|(_, round, _)| round.number).max().expect("non-empty"))
    }
}

/// One first phase at replica 0, its `ACK`s hand-made.
#[derive(Debug, Clone)]
struct Case<C> {
    /// 3 or 5.
    replicas: u64,
    /// The proposer's acceptor state when the query starts.
    local: C,
    /// Whether the phase under test is a retry whose fixed prepare the local
    /// acceptor `NACK`s (else it is the query's first, locally `ACK`ed, phase).
    local_nack: bool,
    /// The payload of the other proposer's prepare that makes it `NACK`.
    foreign: C,
    /// The `ACK`s, in delivery order, until a quorum has answered: the sender
    /// (an index into the peers, so senders repeat and `ACK`s get replaced),
    /// what the sender holds beyond the payload, whether it holds the payload
    /// at all (0: no; 1, 2: yes; 3: exactly the payload, which it answers with
    /// the empty delta), and its round (two in three draw the first `ACK`'s).
    acks: Vec<(usize, C, u8, u8)>,
    /// The state of a `NACK` that reaches the vote phase, if there is one.
    nack: C,
}

fn gcounter() -> impl Strategy<Value = GCounter> {
    proptest::collection::vec((0u64..4, 0u64..3), 0..3).prop_map(|increments| {
        let mut counter = GCounter::new();
        for (replica, amount) in increments {
            counter.increment(ReplicaId::new(replica), amount);
        }
        counter
    })
}

fn kv() -> impl Strategy<Value = Kv> {
    proptest::collection::vec((0u8..4, gcounter()), 0..3)
        .prop_map(|entries| entries.into_iter().collect())
}

fn case<S: Strategy>(state: fn() -> S) -> impl Strategy<Value = Case<S::Value>> {
    (
        prop_oneof![Just(3u64), Just(5u64)],
        state(),
        proptest::bool::ANY,
        state(),
        proptest::collection::vec((0usize..4, state(), 0u8..4, 0u8..3), 4..9),
        state(),
    )
        .prop_map(|(replicas, local, local_nack, foreign, acks, nack)| Case {
            replicas,
            local,
            local_nack,
            foreign,
            acks,
            nack,
        })
}

/// How often each path was taken, so the test shows it covered them all.
#[derive(Debug, Default)]
struct Seen {
    outcomes: [u32; 3],
    local_nacks: u32,
    replaced: u32,
    empty_deltas: u32,
}

fn the_phase<C: Crdt>(replica: &Replica<C>, request: RequestId) -> (&QueryPhase<C>, &C) {
    match replica.requests.get(&request) {
        Some(InFlight::Query { phase, gathered, .. }) => (phase, gathered),
        other => panic!("no query {request:?} in flight: {other:?}"),
    }
}

/// The request id and round of the `PREPARE`s in the outbox, which it empties.
fn prepared<C: Crdt>(replica: &mut Replica<C>) -> (RequestId, PrepareRound) {
    let outbox = replica.take_outbox();
    outbox
        .iter()
        .find_map(|env| match env.message {
            Message::Prepare { request, round, .. } => Some((request, round)),
            _ => None,
        })
        .expect("a PREPARE was sent")
}

/// Drives the first phase of `request` into a retry whose fixed prepare the
/// proposer's own acceptor `NACK`s, and returns the retry's request id. Another
/// proposer's prepare (carrying `foreign`) lifts the local acceptor's round above
/// any this query proposes; then a quorum of `ACK`s of `more` — which must
/// differ from the local `ACK`'s state — in another round makes the phase retry.
fn retry_nacked_locally<C: Crdt>(
    proposer: &mut Replica<C>,
    request: RequestId,
    foreign: C,
    more: &C,
) -> RequestId {
    let other = RoundId::proposer(1, ReplicaId::new(1));
    let foreign = Message::Prepare {
        request: RequestId(u64::MAX),
        round: PrepareRound::Fixed(Round::new(50, other)),
        payload: Some(Payload::Full(foreign)),
        basis: 0,
    };
    proposer.handle_message(ReplicaId::new(1), foreign);
    for peer in (1..proposer.quorum_size as u64).map(ReplicaId::new) {
        let more = Payload::Full(more.clone());
        proposer.handle_message(peer, ack(request, Round::new(2, other), more));
    }
    let (retry, round) = prepared(proposer);
    let PrepareRound::Fixed(round) = round else { panic!("the retry is not fixed") };
    assert!(proposer.acceptor.round() >= round, "the retry's prepare won locally");
    retry
}

fn ack<C: Crdt>(request: RequestId, round: Round, state: Payload<C>) -> Message<C> {
    Message::PrepareAck { request, round, state, reveal: 0, basis: 0 }
}

/// Runs `case`'s phase at a real proposer and holds what it decides — and the
/// `gathered` state it goes on with — to [`reference`] over the same `ACK`s.
fn decides_as_the_fold<C>(case: Case<C>, query: C::Query, grow: fn(&mut C), seen: &mut Seen)
where
    C: Crdt + PartialEq,
{
    let ids: Vec<ReplicaId> = (0..case.replicas).map(ReplicaId::new).collect();
    let peers = &ids[1..];
    // GLA-Stability keeps the learned state where the test can read it.
    let config = ProtocolConfig { gla_stability: true, ..ProtocolConfig::default() };
    let mut proposer = Replica::new(ids[0], ids.clone(), C::default(), config);
    proposer.absorb_state(&case.local);
    proposer.submit_query(ClientId(1), query);
    let (mut request, _) = prepared(&mut proposer);
    let quorum = proposer.quorum_size;
    let other = RoundId::proposer(1, ReplicaId::new(case.replicas - 1));

    if case.local_nack {
        let mut more = case.local.clone();
        grow(&mut more);
        request = retry_nacked_locally(&mut proposer, request, case.foreign.clone(), &more);
        seen.local_nacks += 1;
    }

    // The phase under test: what it stored so far, and what it gathered.
    let (phase, gathered) = the_phase(&proposer, request);
    let QueryPhase::Prepare { acks: stored, sent_state, .. } = phase else {
        panic!("not in the first phase")
    };
    let mut stored: Vec<_> =
        stored.iter().map(|(peer, round, state)| (*peer, *round, state.clone())).collect();
    let sent = sent_state.is_some();
    let payload = sent_state.clone().unwrap_or_default();
    // Everything the instance has seen: the payload and the local acceptor's
    // state, whether it ACKed or NACKed.
    let mut all = payload.clone().joined(proposer.acceptor.state());
    assert_eq!(gathered, &all, "what the instance gathered");
    let first_round = stored.first().map_or(Round::new(60, other), |&(_, round, _)| round);
    let rounds = [first_round, first_round, Round::new(first_round.number + 1, other)];
    for (peer, extra, on_payload, round) in case.acks {
        if stored.len() >= quorum {
            break;
        }
        let peer = peers[peer % peers.len()];
        let (state, reply) = match on_payload {
            0 => (extra.clone(), Payload::Full(extra)),
            3 if sent => {
                seen.empty_deltas += 1;
                (payload.clone(), Payload::Delta(C::default()))
            }
            _ => {
                let state = payload.clone().joined(&extra);
                (state.clone(), Payload::Full(state))
            }
        };
        let round = rounds[usize::from(round)];
        all.join(&state);
        match stored.iter_mut().find(|(id, _, _)| *id == peer) {
            Some(entry) => {
                *entry = (peer, round, state.clone());
                seen.replaced += 1;
            }
            None => stored.push((peer, round, state.clone())),
        }
        proposer.handle_message(peer, ack(request, round, reply));
    }
    if stored.len() < quorum {
        return;
    }

    let expected = reference(&stored);
    let outbox = proposer.take_outbox();
    let vote = outbox.iter().find_map(|env| match &env.message {
        Message::Vote { round, payload: Payload::Full(proposed), .. } => {
            Some(Outcome::Vote(*round, proposed.clone()))
        }
        _ => None,
    });
    let retry = outbox.iter().find_map(|env| match &env.message {
        Message::Prepare { round: PrepareRound::Fixed(round), payload, .. } => {
            Some((round.number - 1, payload.clone()))
        }
        _ => None,
    });
    let decided = match (vote, retry) {
        (Some(vote), None) => vote,
        (None, Some((max_number, payload))) => {
            // The retry ships everything the instance gathered, the local NACK's
            // state included.
            assert!(ships(&payload, &all), "the retry's payload {payload:?}, gathered {all:?}");
            Outcome::Retry(max_number)
        }
        (None, None) => {
            assert_eq!(proposer.metrics.queries_consistent_quorum, 1, "no decision at all");
            Outcome::ConsistentQuorum(proposer.largest_learned.clone().expect("learned"))
        }
        (vote, retry) => panic!("both a vote and a retry: {vote:?}, {retry:?}"),
    };
    assert_eq!(decided, expected, "decided, and the fold; ACKs {stored:?}");
    seen.outcomes[match decided {
        Outcome::ConsistentQuorum(_) => 0,
        Outcome::Vote(..) => 1,
        Outcome::Retry(_) => 2,
    }] += 1;

    if matches!(decided, Outcome::Vote(..)) {
        // A NACK to the vote retries with everything gathered, the local NACK's
        // state included.
        let nack = Message::Nack {
            request,
            round: Round::new(70, other),
            state: Payload::Full(case.nack.clone()),
            basis: 0,
        };
        proposer.handle_message(peers[0], nack);
        all.join(&case.nack);
        let payload = proposer.take_outbox().into_iter().find_map(|env| match env.message {
            Message::Prepare { payload, .. } => Some(payload),
            _ => None,
        });
        let payload = payload.expect("a NACK to a vote retries");
        assert!(ships(&payload, &all), "the retry after a vote's NACK: {payload:?}, {all:?}");
    }
}

/// Runs `cases` random cases of one state type and checks every path was taken.
fn decides_as_the_fold_for<S>(
    name: &str,
    state: fn() -> S,
    query: <S::Value as Crdt>::Query,
    grow: fn(&mut S::Value),
) where
    S: Strategy,
    S::Value: Crdt + PartialEq,
{
    let cases = case(state);
    let mut seen = Seen::default();
    for index in 0..512 {
        let mut rng = proptest::test_rng(module_path!(), name, index);
        decides_as_the_fold(cases.generate(&mut rng), query.clone(), grow, &mut seen);
    }
    assert!(seen.outcomes.iter().all(|&count| count > 0), "a decision never taken: {seen:?}");
    assert!(
        seen.local_nacks > 0 && seen.replaced > 0 && seen.empty_deltas > 0,
        "a path never taken: {seen:?}"
    );
}

#[test]
fn the_first_phase_decides_as_the_fold_over_its_acks() {
    let grow = |counter: &mut GCounter| counter.increment(ReplicaId::new(9), 1);
    decides_as_the_fold_for("gcounter", gcounter, CounterQuery::Value, grow);
    let grow = |map: &mut Kv| map.update(9, |counter| counter.increment(ReplicaId::new(9), 1));
    decides_as_the_fold_for("kv", kv, MapQuery::Len, grow);
}

thread_local! {
    /// `join`, `join_report`, `leq` and `equivalent` calls on [`Counted`] states
    /// of this thread.
    static CALLS: Cell<[u32; 4]> = const { Cell::new([0; 4]) };
}

fn count(call: usize) {
    CALLS.with(|calls| {
        let mut counts = calls.get();
        counts[call] += 1;
        calls.set(counts);
    });
}

/// A lattice that counts the walks it is asked for.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counted(Kv);

impl Lattice for Counted {
    fn join(&mut self, other: &Self) {
        count(0);
        self.0.join(&other.0);
    }

    fn join_report(&mut self, other: &Self) -> (bool, bool) {
        count(1);
        self.0.join_report(&other.0)
    }

    fn leq(&self, other: &Self) -> bool {
        count(2);
        self.0.leq(&other.0)
    }

    fn equivalent(&self, other: &Self) -> bool {
        count(3);
        self.0.equivalent(&other.0)
    }
}

impl Crdt for Counted {
    type Update = <Kv as Crdt>::Update;
    type Query = <Kv as Crdt>::Query;
    type Output = <Kv as Crdt>::Output;

    fn apply(&mut self, replica: ReplicaId, update: &Self::Update) {
        self.0.apply(replica, update);
    }

    fn query(&self, query: &Self::Query) -> Self::Output {
        self.0.query(query)
    }
}

impl DeltaCrdt for Counted {
    fn delta_since(&self, known: &Self) -> Self {
        Counted(self.0.delta_since(&known.0))
    }
}

/// A quiet read walks no state at the proposer: each remote `ACK` of its first
/// phase is the empty delta, which resolves to the instance's own snapshot by a
/// `join` of nothing, and the `join_report` that gathers it finds that very
/// snapshot in `gathered` — and no state is compared again.
#[test]
fn a_quiet_read_walks_no_state_per_ack() {
    for replicas in [3, 5] {
        let ids: Vec<ReplicaId> = (0..replicas).map(ReplicaId::new).collect();
        let mut cluster: Vec<Replica<Counted>> = ids
            .iter()
            .map(|&id| Replica::new(id, ids.clone(), Counted::default(), ProtocolConfig::default()))
            .collect();
        for key in 0..4 {
            let update = MapUpdate::Apply { key, update: CounterUpdate::Increment(1) };
            cluster[0].submit_update(ClientId(0), update);
        }
        loop {
            let envelopes: Vec<_> = cluster.iter_mut().flat_map(Replica::take_outbox).collect();
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                cluster[env.to.as_u64() as usize].handle_message(env.from, env.message);
            }
        }

        cluster[0].submit_query(ClientId(1), MapQuery::Len);
        let mut acks = Vec::new();
        for env in cluster[0].take_outbox() {
            let peer = &mut cluster[env.to.as_u64() as usize];
            peer.handle_message(env.from, env.message);
            acks.extend(peer.take_outbox());
        }
        let quorum = cluster[0].quorum_size;
        for (index, env) in acks.into_iter().enumerate() {
            assert!(matches!(&env.message, Message::PrepareAck { state: Payload::Delta(_), .. }));
            CALLS.with(|calls| calls.set([0; 4]));
            cluster[0].handle_message(env.from, env.message);
            // Before the quorum, each ACK is a join of the empty delta and a
            // join_report of a snapshot with itself, neither a walk; after it,
            // the instance is gone and a late ACK is not even resolved.
            let walks = if index + 1 < quorum { [1, 1, 0, 0] } else { [0; 4] };
            let calls = CALLS.with(Cell::get);
            assert_eq!(calls, walks, "[join, join_report, leq, equivalent], ACK {index}");
        }
        assert_eq!(cluster[0].metrics.queries_consistent_quorum, 1);
    }
}
