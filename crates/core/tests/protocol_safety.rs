//! Property-based safety tests of the replication protocol.
//!
//! The paper proves five conditions (§3.1/§3.3): Validity, Stability, Consistency,
//! Update Stability, and Update Visibility. These tests drive small clusters through
//! randomly interleaved, randomly delayed (and optionally duplicated) message
//! schedules — the same idea as the protocol scheduler used for the Erlang
//! implementation — and assert the conditions on every learned state.

use std::collections::BTreeMap;

use crdt::{CounterQuery, CounterUpdate, GCounter, Lattice, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, Envelope, Message, ProtocolConfig, Replica, ResponseBody,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

type Counter = GCounter;

/// One client command injected at a particular replica at a particular step.
#[derive(Debug, Clone)]
enum Op {
    Update { replica: usize, amount: u64 },
    Query { replica: usize },
}

fn op_strategy(replicas: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..replicas, 1u64..4).prop_map(|(replica, amount)| Op::Update { replica, amount }),
        (0..replicas).prop_map(|replica| Op::Query { replica }),
    ]
}

struct Harness {
    replicas: Vec<Replica<Counter>>,
    /// Messages currently "in the network".
    network: Vec<Envelope<Counter>>,
    rng: StdRng,
    duplicate_probability: f64,
    /// Chance that a message is lost on its way into the network (0 unless a
    /// test sets it; the RNG is not consulted then).
    loss_probability: f64,
}

struct QueryRecord {
    replica: usize,
    /// Value returned to the client.
    value: i64,
    /// The order in which the query completed (for Stability checks).
    completion_index: usize,
}

impl Harness {
    fn new(n: usize, seed: u64, config: ProtocolConfig, duplicate_probability: f64) -> Self {
        let ids: Vec<ReplicaId> = (0..n as u64).map(ReplicaId::new).collect();
        let replicas = ids
            .iter()
            .map(|&id| Replica::new(id, ids.clone(), Counter::default(), config.clone()))
            .collect();
        Harness {
            replicas,
            network: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            duplicate_probability,
            loss_probability: 0.0,
        }
    }

    fn collect_outgoing(&mut self) {
        for index in 0..self.replicas.len() {
            for envelope in self.replicas[index].take_outbox() {
                self.post(envelope);
            }
        }
    }

    /// Puts one envelope into the network, unless it is lost; it may be
    /// duplicated on the way.
    fn post(&mut self, envelope: Envelope<Counter>) {
        if self.loss_probability > 0.0 && self.rng.gen_bool(self.loss_probability) {
            return;
        }
        if self.rng.gen_bool(self.duplicate_probability) {
            self.network.push(envelope.clone());
        }
        self.network.push(envelope);
    }

    /// Delivers one randomly chosen in-flight message.
    fn deliver_one(&mut self) -> bool {
        self.collect_outgoing();
        if self.network.is_empty() {
            return false;
        }
        let index = self.rng.gen_range(0..self.network.len());
        let envelope = self.network.swap_remove(index);
        let target = self
            .replicas
            .iter_mut()
            .find(|r| r.id() == envelope.to)
            .expect("message addressed to known replica");
        target.handle_message(envelope.from, envelope.message);
        true
    }

    fn run_until_quiescent(&mut self) {
        while self.deliver_one() {}
        // Allow retransmissions to fire in case duplicates confused an instance.
        for now in [200u64, 400, 600] {
            for replica in &mut self.replicas {
                replica.tick(now);
            }
            while self.deliver_one() {}
        }
    }
}

/// Runs a random schedule and returns (total updates applied, completed query records).
fn run_schedule(
    ops: &[Op],
    seed: u64,
    config: ProtocolConfig,
    duplicate_probability: f64,
) -> (u64, Vec<QueryRecord>) {
    let n = 3;
    let mut harness = Harness::new(n, seed, config, duplicate_probability);
    let mut total_increment = 0u64;
    let mut shuffled = ops.to_vec();
    shuffled.shuffle(&mut harness.rng);

    // Inject every command, interleaving random message deliveries between them.
    for op in &shuffled {
        match op {
            Op::Update { replica, amount } => {
                total_increment += amount;
                harness.replicas[*replica]
                    .submit(ClientId(0), Command::Update(CounterUpdate::Increment(*amount)));
            }
            Op::Query { replica } => {
                harness.replicas[*replica].submit(ClientId(1), Command::Query(CounterQuery::Value));
            }
        }
        let deliveries = harness.rng.gen_range(0..4);
        for _ in 0..deliveries {
            if !harness.deliver_one() {
                break;
            }
        }
    }
    harness.run_until_quiescent();

    let mut records = Vec::new();
    let mut completion_index = 0usize;
    for (replica_index, replica) in harness.replicas.iter_mut().enumerate() {
        for response in replica.take_responses() {
            if let ResponseBody::QueryDone(value) = response.body {
                records.push(QueryRecord { replica: replica_index, value, completion_index });
                completion_index += 1;
            }
        }
    }

    // Validity of the final acceptor states: every replica's payload is built only
    // from submitted updates, so its value never exceeds the total submitted.
    for replica in &harness.replicas {
        assert!(replica.local_state().value() <= total_increment);
    }

    (total_increment, records)
}

/// One proposer step of [`cycles_preserve_safety_under_message_loss`]: the
/// commands a driver drained together at `replica` (`Some` = increment by that
/// much, `None` = read).
fn cycle_strategy() -> impl Strategy<Value = (usize, Vec<Option<u64>>)> {
    let command = prop_oneof![(1u64..4).prop_map(Some), Just(None)];
    (0..3usize, proptest::collection::vec(command, 1..9))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Validity: any learned value corresponds to a subset of the submitted updates
    /// (never more than the total submitted, never negative).
    #[test]
    fn learned_values_are_valid(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        seed in any::<u64>(),
    ) {
        let (total, records) = run_schedule(&ops, seed, ProtocolConfig::default(), 0.0);
        for record in &records {
            prop_assert!(record.value >= 0);
            prop_assert!(record.value as u64 <= total,
                "learned {} but only {} was submitted", record.value, total);
        }
    }

    /// GLA-Stability (§3.4): with the flag enabled, the states learned at the same
    /// proposer increase monotonically in completion order, even for concurrent
    /// queries whose replies arrive out of order. (Without the flag the paper only
    /// guarantees Stability for *subsequent* queries; the simulator-level
    /// linearizability tests in the `cluster` crate cover that case.)
    #[test]
    fn gla_stability_makes_per_proposer_reads_monotone(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        seed in any::<u64>(),
    ) {
        let config = ProtocolConfig::default().with_gla_stability();
        let (_, mut records) = run_schedule(&ops, seed, config, 0.0);
        records.sort_by_key(|r| r.completion_index);
        for replica in 0..3 {
            let mut last = i64::MIN;
            for record in records.iter().filter(|r| r.replica == replica) {
                prop_assert!(record.value >= last,
                    "replica {replica} observed {} after {}", record.value, last);
                last = record.value;
            }
        }
    }

    /// Message duplication must not violate validity (merges and joins are idempotent).
    #[test]
    fn duplicated_messages_do_not_break_safety(
        ops in proptest::collection::vec(op_strategy(3), 1..20),
        seed in any::<u64>(),
    ) {
        let (total, records) = run_schedule(&ops, seed, ProtocolConfig::default(), 0.3);
        for record in &records {
            prop_assert!(record.value as u64 <= total);
        }
    }

    /// The batched configuration obeys the same safety conditions.
    #[test]
    fn batching_preserves_safety(
        ops in proptest::collection::vec(op_strategy(3), 1..24),
        seed in any::<u64>(),
    ) {
        let (total, records) = run_schedule(&ops, seed, ProtocolConfig::batched(), 0.0);
        for record in &records {
            prop_assert!(record.value as u64 <= total);
        }
    }

    /// Commands submitted as a cycle ([`Replica::submit_cycle`]) share one update
    /// and one query instance. Under message loss every one of them is still
    /// answered exactly once, no read exceeds what was submitted, and every read
    /// contains the writes its own proposer had applied when the read's instance
    /// opened — its own cycle's included.
    #[test]
    fn cycles_preserve_safety_under_message_loss(
        cycles in proptest::collection::vec(cycle_strategy(), 1..10),
        seed in any::<u64>(),
    ) {
        let mut harness = Harness::new(3, seed, ProtocolConfig::default(), 0.0);
        harness.loss_probability = 0.2;
        let mut total = 0u64;
        // Per replica: what it has applied locally, and per read it was handed
        // `(command id, that figure at the time)`.
        let mut applied = [0u64; 3];
        let mut reads: [Vec<(u64, u64)>; 3] = Default::default();
        let mut submitted = [0usize; 3];
        for (replica, commands) in &cycles {
            let increment: u64 = commands.iter().flatten().sum();
            total += increment;
            applied[*replica] += increment;
            let ids = harness.replicas[*replica].submit_cycle(commands.iter().map(|command| {
                match command {
                    Some(amount) => {
                        (ClientId(0), Command::Update(CounterUpdate::Increment(*amount)))
                    }
                    None => (ClientId(1), Command::Query(CounterQuery::Value)),
                }
            }));
            prop_assert_eq!(ids.len(), commands.len());
            submitted[*replica] += ids.len();
            for (id, command) in ids.iter().zip(commands) {
                if command.is_none() {
                    reads[*replica].push((id.0, applied[*replica]));
                }
            }
            for _ in 0..harness.rng.gen_range(0..4) {
                if !harness.deliver_one() {
                    break;
                }
            }
        }
        // Lost messages are re-sent on the retransmission timer; fair loss lets
        // every instance through eventually.
        let mut now = 0;
        while harness.replicas.iter().any(|replica| replica.in_flight() > 0) {
            now += 200;
            prop_assert!(now < 200 * 500, "instances still open after 500 retransmissions");
            for replica in &mut harness.replicas {
                replica.tick(now);
            }
            while harness.deliver_one() {}
        }
        for (index, replica) in harness.replicas.iter_mut().enumerate() {
            let responses = replica.take_responses();
            let mut answered: Vec<u64> = responses.iter().map(|r| r.command.0).collect();
            answered.sort_unstable();
            answered.dedup();
            prop_assert_eq!(answered.len(), submitted[index], "answered exactly once each");
            prop_assert_eq!(responses.len(), submitted[index]);
            for response in &responses {
                let floor = reads[index].iter().find(|(id, _)| *id == response.command.0);
                match (&response.body, floor) {
                    (ResponseBody::UpdateDone, None) => {}
                    (ResponseBody::QueryDone(value), Some((_, floor))) => {
                        prop_assert!(*value as u64 <= total);
                        prop_assert!(*value as u64 >= *floor,
                            "read {value} misses writes its proposer had applied ({floor})");
                    }
                    (body, _) => prop_assert!(false, "command {:?}: {body:?}", response.command),
                }
            }
        }
    }

    /// A cycle with writes and reads sends no `MERGE`: the reads' `PREPARE`s
    /// carry the writes and their replies complete the update. Under the
    /// harness's reordering, duplication and loss, histories of such cycles
    /// still meet all five conditions, in either payload mode.
    #[test]
    fn mixed_cycles_stay_linearizable_under_reordering_duplication_and_loss(
        cycles in proptest::collection::vec(
            (0..3usize, proptest::collection::vec(proptest::bool::ANY, 1..6)),
            1..9,
        ),
        seed in any::<u64>(),
    ) {
        check_mixed_cycles(&cycles, seed, ProtocolConfig::default());
        check_mixed_cycles(&cycles, seed, ProtocolConfig::default().with_delta_payloads());
    }

    /// Eventual liveness (§3.5): once updates stop, every submitted query eventually
    /// completes (our harness keeps delivering messages until quiescence, so all
    /// queries must have completed by then).
    #[test]
    fn all_queries_eventually_complete(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        seed in any::<u64>(),
    ) {
        let queries_submitted = ops.iter().filter(|op| matches!(op, Op::Query { .. })).count();
        let (_, records) = run_schedule(&ops, seed, ProtocolConfig::default(), 0.0);
        prop_assert_eq!(records.len(), queries_submitted);
    }

    /// Validity holds unchanged when state-bearing messages carry deltas.
    #[test]
    fn delta_payloads_preserve_validity(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        seed in any::<u64>(),
    ) {
        let config = ProtocolConfig::default().with_delta_payloads();
        let (total, records) = run_schedule(&ops, seed, config, 0.0);
        for record in &records {
            prop_assert!(record.value >= 0);
            prop_assert!(record.value as u64 <= total);
        }
    }

    /// Joins are idempotent, so duplicated delta messages are as harmless as
    /// duplicated full-state messages.
    #[test]
    fn duplicated_delta_messages_do_not_break_safety(
        ops in proptest::collection::vec(op_strategy(3), 1..20),
        seed in any::<u64>(),
    ) {
        let config = ProtocolConfig::default().with_delta_payloads();
        let (total, records) = run_schedule(&ops, seed, config, 0.3);
        for record in &records {
            prop_assert!(record.value as u64 <= total);
        }
    }

    /// The payload representation is invisible to clients: under the *same* random
    /// schedule, DeltaWhenPossible mode returns exactly the values Full mode does
    /// (the harness's RNG is consumed identically because the message flow is
    /// identical — only the payload encoding differs).
    #[test]
    fn delta_mode_returns_the_same_values_as_full_mode(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        seed in any::<u64>(),
    ) {
        let (full_total, full_records) =
            run_schedule(&ops, seed, ProtocolConfig::default(), 0.0);
        let (delta_total, delta_records) =
            run_schedule(&ops, seed, ProtocolConfig::default().with_delta_payloads(), 0.0);
        prop_assert_eq!(full_total, delta_total);
        prop_assert_eq!(full_records.len(), delta_records.len());
        for (full, delta) in full_records.iter().zip(delta_records.iter()) {
            prop_assert_eq!(full.replica, delta.replica);
            prop_assert_eq!(full.value, delta.value);
            prop_assert_eq!(full.completion_index, delta.completion_index);
        }
    }
}

/// One answered command of [`check_mixed_cycles`], timed in harness steps.
struct Timed {
    invoked: u64,
    answered: u64,
    /// A write's own bit, or the writes a read saw.
    bits: u64,
    read: bool,
}

/// The commands submitted and not yet answered, by `(replica, command id)`:
/// the step they were submitted at, and a write's bit (`None` for a read).
type Open = BTreeMap<(usize, u64), (u64, Option<u64>)>;

/// Moves every answer out of the replicas into `history`, timed at `step`.
fn collect_answers(harness: &mut Harness, open: &mut Open, history: &mut Vec<Timed>, step: u64) {
    for (index, replica) in harness.replicas.iter_mut().enumerate() {
        for response in replica.take_responses() {
            let (invoked, write) =
                open.remove(&(index, response.command.0)).expect("answered once, and only that");
            let bits = match (write, response.body) {
                (Some(bit), ResponseBody::UpdateDone) => bit,
                (None, ResponseBody::QueryDone(value)) => value as u64,
                (_, body) => panic!("command {:?}: {body:?}", response.command),
            };
            history.push(Timed { invoked, answered: step, bits, read: write.is_none() });
        }
    }
}

/// Runs `cycles` — per cycle its proposer and its commands, `true` for a
/// write — through a harness that reorders, duplicates and loses messages,
/// checks that a cycle with both kinds sends only `PREPARE`s, and holds the
/// history to the paper's five conditions. Every write adds its own power of
/// two, so a read's value names exactly the writes it saw.
fn check_mixed_cycles(cycles: &[(usize, Vec<bool>)], seed: u64, config: ProtocolConfig) {
    let mut harness = Harness::new(3, seed, config, 0.2);
    harness.loss_probability = 0.2;
    let (mut open, mut history) = (Open::new(), Vec::new());
    let (mut step, mut writes) = (0u64, 0u32);
    for (replica, commands) in cycles {
        // What earlier deliveries made this replica say goes out first.
        harness.collect_outgoing();
        step += 1;
        let bits: Vec<Option<u64>> = commands
            .iter()
            .map(|&write| {
                write.then(|| {
                    writes += 1;
                    1 << (writes - 1)
                })
            })
            .collect();
        let ids = harness.replicas[*replica].submit_cycle(bits.iter().map(|bit| match bit {
            Some(bit) => (ClientId(0), Command::Update(CounterUpdate::Increment(*bit))),
            None => (ClientId(1), Command::Query(CounterQuery::Value)),
        }));
        for (id, bit) in ids.iter().zip(&bits) {
            open.insert((*replica, id.0), (step, *bit));
        }
        let sent = harness.replicas[*replica].take_outbox();
        if bits.iter().any(Option::is_some) && bits.iter().any(Option::is_none) {
            let prepares = sent.iter().all(|env| matches!(env.message, Message::Prepare { .. }));
            assert!(prepares, "a mixed cycle sent {sent:?}");
        }
        for envelope in sent {
            harness.post(envelope);
        }
        for _ in 0..harness.rng.gen_range(0..4) {
            step += 1;
            if !harness.deliver_one() {
                break;
            }
            collect_answers(&mut harness, &mut open, &mut history, step);
        }
    }
    let mut now = 0;
    while harness.replicas.iter().any(|replica| replica.in_flight() > 0) {
        now += 200;
        assert!(now < 200 * 500, "instances still open after 500 retransmissions");
        for replica in &mut harness.replicas {
            replica.tick(now);
        }
        loop {
            step += 1;
            if !harness.deliver_one() {
                break;
            }
            collect_answers(&mut harness, &mut open, &mut history, step);
        }
    }
    assert!(open.is_empty(), "{} commands never answered", open.len());

    let (reads, writes): (Vec<&Timed>, Vec<&Timed>) = history.iter().partition(|t| t.read);
    let before = |a: &Timed, b: &Timed| a.answered < b.invoked;
    let writes_where = |pick: &dyn Fn(&Timed) -> bool| {
        writes.iter().filter(|write| pick(write)).fold(0, |bits, write| bits | write.bits)
    };
    for read in &reads {
        let invoked = writes_where(&|write| write.invoked < read.answered);
        assert_eq!(read.bits & !invoked, 0, "validity: a read saw a write not yet invoked");
        let done = writes_where(&|write| before(write, read));
        assert_eq!(read.bits & done, done, "update visibility: a read missed a finished write");
        for other in &reads {
            let common = read.bits & other.bits;
            assert!(common == read.bits || common == other.bits, "consistency: incomparable reads");
            if before(read, other) {
                assert_eq!(common, read.bits, "stability: a later read saw less");
            }
        }
        for (first, second) in writes.iter().flat_map(|w| writes.iter().map(move |v| (w, v))) {
            if before(first, second) && read.bits & second.bits != 0 {
                assert_ne!(
                    read.bits & first.bits,
                    0,
                    "update stability: a read saw a later write only"
                );
            }
        }
    }
}

/// Update Visibility (Theorem 3.10) exercised deterministically across every pair of
/// (updating replica, querying replica).
#[test]
fn update_visibility_holds_for_every_replica_pair() {
    for updater in 0..3usize {
        for reader in 0..3usize {
            let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
            let mut replicas: Vec<Replica<Counter>> = ids
                .iter()
                .map(|&id| {
                    Replica::new(id, ids.clone(), Counter::default(), ProtocolConfig::default())
                })
                .collect();

            replicas[updater].submit(ClientId(0), Command::Update(CounterUpdate::Increment(7)));
            deliver_all(&mut replicas);
            assert!(matches!(replicas[updater].take_responses()[0].body, ResponseBody::UpdateDone));

            replicas[reader].submit(ClientId(1), Command::Query(CounterQuery::Value));
            deliver_all(&mut replicas);
            let responses = replicas[reader].take_responses();
            assert_eq!(
                responses[0].body,
                ResponseBody::QueryDone(7),
                "update at {updater} not visible to query at {reader}"
            );
        }
    }
}

/// Consistency (Theorem 3.8): states learned by concurrent queries at different
/// replicas are comparable — exercised by checking that two interleaved counters read
/// values that are consistent with a single linearization point.
#[test]
fn concurrent_queries_learn_comparable_states() {
    let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mut replicas: Vec<Replica<Counter>> = ids
        .iter()
        .map(|&id| Replica::new(id, ids.clone(), Counter::default(), ProtocolConfig::default()))
        .collect();

    // Start an update whose MERGE only reaches replica 1.
    replicas[0].submit(ClientId(0), Command::Update(CounterUpdate::Increment(1)));
    let merges = replicas[0].take_outbox();
    for env in merges {
        if env.to == ReplicaId::new(1) {
            replicas[1].handle_message(env.from, env.message);
        }
    }
    replicas[1].take_outbox();

    // Two concurrent queries at replicas 1 and 2.
    replicas[1].submit(ClientId(1), Command::Query(CounterQuery::Value));
    replicas[2].submit(ClientId(2), Command::Query(CounterQuery::Value));
    deliver_all(&mut replicas);

    let v1 = query_value(&mut replicas[1]);
    let v2 = query_value(&mut replicas[2]);
    // Both learned states are elements of the chain 0 ⊑ 1, hence comparable.
    assert!(v1 <= 1 && v2 <= 1);

    // After the system quiesces, the final acceptor states are all comparable with
    // both learned states (they only grew).
    for replica in &replicas {
        assert!(replica.local_state().value() >= v1.max(v2) as u64 || v1.max(v2) == 0);
    }
}

fn query_value(replica: &mut Replica<Counter>) -> i64 {
    replica
        .take_responses()
        .into_iter()
        .find_map(|response| match response.body {
            ResponseBody::QueryDone(value) => Some(value),
            _ => None,
        })
        .expect("query completed")
}

fn deliver_all(replicas: &mut [Replica<Counter>]) {
    loop {
        let mut envelopes = Vec::new();
        for replica in replicas.iter_mut() {
            envelopes.extend(replica.take_outbox());
        }
        if envelopes.is_empty() {
            break;
        }
        for env in envelopes {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
        }
    }
}

/// Update Stability (Theorem 3.9): if update u1 completes before u2 is submitted, any
/// learned state including u2 also includes u1. On a counter this means a learned
/// value that reflects the second update also reflects the first.
#[test]
fn update_stability_orders_sequential_updates() {
    let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mut replicas: Vec<Replica<Counter>> = ids
        .iter()
        .map(|&id| Replica::new(id, ids.clone(), Counter::default(), ProtocolConfig::default()))
        .collect();

    // u1: +1 at replica 0, runs to completion.
    replicas[0].submit(ClientId(0), Command::Update(CounterUpdate::Increment(1)));
    deliver_all(&mut replicas);
    replicas[0].take_responses();

    // u2: +10 at replica 1, runs to completion.
    replicas[1].submit(ClientId(1), Command::Update(CounterUpdate::Increment(10)));
    deliver_all(&mut replicas);
    replicas[1].take_responses();

    // Any learned state that includes u2 (value >= 10) must also include u1 (>= 11).
    replicas[2].submit(ClientId(2), Command::Query(CounterQuery::Value));
    deliver_all(&mut replicas);
    let value = query_value(&mut replicas[2]);
    assert_eq!(value, 11);

    // The acceptors' final payloads also include both updates.
    for replica in &replicas {
        let state = replica.local_state();
        let mut expected = Counter::default();
        expected.increment(ReplicaId::new(0), 1);
        assert!(expected.leq(state));
    }
}
