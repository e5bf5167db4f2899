//! Pooled ↔ fresh outbound construction equivalence laws.
//!
//! The outbound hot path drains replies into recycled storage — one persistent
//! drain buffer, cleared after each round, and frames serialized into a
//! persistent [`FrameEncoder`] whose buffer cycles between rounds — while tests
//! and cold paths build everything fresh (`take_outbox` plus a new encoder per
//! envelope). These properties pin the two construction paths to each other
//! over generated protocol histories: byte-identical wire output on every
//! drain, including drains straddling the lifecycle events that could leave
//! stale state behind in recycled storage ([`Replica::cancel_in_flight`],
//! [`ShardedReplica::install_plan`] rebalances).

use crdt::{CounterQuery, CounterUpdate, GCounter, LatticeMap, MapQuery, MapUpdate, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, Envelope, Message, Payload, PrepareRound, ProtocolConfig, RebalancePlan,
    Replica, RequestId, Round, RoundId, ShardEnvelope, ShardId, ShardMessage, ShardedReplica,
};
use proptest::prelude::*;
use wire::framing::FrameEncoder;

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

/// One stimulus applied identically to both construction twins.
#[derive(Debug, Clone)]
enum Op {
    Update { client: u64, key: u64, amount: u64 },
    Query { client: u64, key: u64 },
    Deliver { from: u64, message: Message<Kv> },
    Tick { advance: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, 0u64..16, 1u64..100).prop_map(|(client, key, amount)| Op::Update {
            client,
            key,
            amount
        }),
        (0u64..4, 0u64..16).prop_map(|(client, key)| Op::Query { client, key }),
        (1u64..3, arb_message()).prop_map(|(from, message)| Op::Deliver { from, message }),
        (1u64..40).prop_map(|advance| Op::Tick { advance }),
    ]
}

fn apply(replica: &mut Replica<Kv>, op: &Op, now_ms: &mut u64) {
    match op {
        Op::Update { client, key, amount } => {
            replica.submit(
                ClientId(*client),
                Command::Update(MapUpdate::Apply {
                    key: *key,
                    update: CounterUpdate::Increment(*amount),
                }),
            );
        }
        Op::Query { client, key } => {
            replica.submit(
                ClientId(*client),
                Command::Query(MapQuery::Get { key: *key, query: CounterQuery::Value }),
            );
        }
        Op::Deliver { from, message } => {
            replica.handle_message(ReplicaId::new(*from), message.clone());
        }
        Op::Tick { advance } => {
            *now_ms += advance;
            replica.tick(*now_ms);
        }
    }
}

/// The fresh-allocation construction: `take_outbox` hands out a brand-new
/// vector of owned envelopes and every frame goes through its own encoder.
fn drain_fresh(replica: &mut Replica<Kv>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for envelope in replica.take_outbox() {
        let mut encoder = FrameEncoder::new();
        encoder.encode(&envelope).expect("fresh encode");
        bytes.extend_from_slice(&encoder.take());
    }
    bytes
}

/// The recycled construction: shells drain into one persistent batch and
/// frames serialize into a persistent encoder whose buffer cycles via `take`.
fn drain_pooled(
    replica: &mut Replica<Kv>,
    batch: &mut Vec<Envelope<Kv>>,
    encoder: &mut FrameEncoder,
) -> Vec<u8> {
    assert!(batch.is_empty(), "a recycled batch must carry no stale shells");
    replica.drain_outbox_into(batch);
    for envelope in batch.iter() {
        encoder.encode(envelope).expect("pooled encode");
    }
    batch.clear();
    encoder.take().to_vec()
}

fn twins() -> (Replica<Kv>, Replica<Kv>) {
    let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let fresh = Replica::new(ids[0], ids.clone(), Kv::default(), ProtocolConfig::default());
    let pooled = Replica::new(ids[0], ids, Kv::default(), ProtocolConfig::default());
    (fresh, pooled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replies drained through one recycled batch and a cycling encoder
    /// are byte-identical on the wire to replies built with fresh
    /// allocations, at every drain point of a generated history.
    #[test]
    fn pooled_and_fresh_reply_construction_agree(
        ops in proptest::collection::vec(arb_op(), 1..24),
        drain_every in 1usize..4,
    ) {
        let (mut fresh, mut pooled) = twins();
        let mut batch = Vec::new();
        let mut encoder = FrameEncoder::new();
        let (mut fresh_now, mut pooled_now) = (0u64, 0u64);
        for (index, op) in ops.iter().enumerate() {
            apply(&mut fresh, op, &mut fresh_now);
            apply(&mut pooled, op, &mut pooled_now);
            if index % drain_every == 0 {
                let expected = drain_fresh(&mut fresh);
                let recycled = drain_pooled(&mut pooled, &mut batch, &mut encoder);
                prop_assert_eq!(expected, recycled, "drain after op {} diverged", index);
            }
        }
        let expected = drain_fresh(&mut fresh);
        let recycled = drain_pooled(&mut pooled, &mut batch, &mut encoder);
        prop_assert_eq!(expected, recycled);
    }

    /// Cancelling every in-flight request mid-history must not leave stale
    /// shells or bytes in the recycled storage: the post-cancel drains still
    /// match the fresh-allocation twin byte for byte.
    #[test]
    fn recycled_storage_is_clean_after_cancel_in_flight(
        before in proptest::collection::vec(arb_op(), 1..12),
        after in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let (mut fresh, mut pooled) = twins();
        let mut batch = Vec::new();
        let mut encoder = FrameEncoder::new();
        let (mut fresh_now, mut pooled_now) = (0u64, 0u64);
        for op in &before {
            apply(&mut fresh, op, &mut fresh_now);
            apply(&mut pooled, op, &mut pooled_now);
        }
        // Warm the recycled storage with the pre-cancel traffic, then cancel
        // with replies still potentially in flight on both twins.
        let expected = drain_fresh(&mut fresh);
        let recycled = drain_pooled(&mut pooled, &mut batch, &mut encoder);
        prop_assert_eq!(expected, recycled);
        fresh.cancel_in_flight();
        pooled.cancel_in_flight();
        for op in &after {
            apply(&mut fresh, op, &mut fresh_now);
            apply(&mut pooled, op, &mut pooled_now);
            let expected = drain_fresh(&mut fresh);
            let recycled = drain_pooled(&mut pooled, &mut batch, &mut encoder);
            prop_assert_eq!(expected, recycled);
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded plane: the same laws across an epoch-fenced rebalance.
// ---------------------------------------------------------------------------

fn arb_shard_message() -> impl Strategy<Value = ShardMessage<Kv>> {
    prop_oneof![
        (0u64..3, 1u32..8, 0u32..8, arb_message()).prop_map(|(epoch, shards, shard, message)| {
            ShardMessage::Protocol { epoch, shards, shard: ShardId(shard % shards), message }
        }),
        Just(ShardMessage::PlanRequest),
    ]
}

#[derive(Debug, Clone)]
enum ShardOp {
    Update { client: u64, key: u64, amount: u64 },
    Deliver { from: u64, message: ShardMessage<Kv> },
    Tick { advance: u64 },
}

fn arb_shard_op() -> impl Strategy<Value = ShardOp> {
    prop_oneof![
        (0u64..4, 0u64..64, 1u64..100).prop_map(|(client, key, amount)| ShardOp::Update {
            client,
            key,
            amount
        }),
        (1u64..3, arb_shard_message())
            .prop_map(|(from, message)| ShardOp::Deliver { from, message }),
        (1u64..40).prop_map(|advance| ShardOp::Tick { advance }),
    ]
}

fn apply_shard(replica: &mut ShardedReplica<u64, GCounter>, op: &ShardOp, now_ms: &mut u64) {
    match op {
        ShardOp::Update { client, key, amount } => {
            replica.submit_update(ClientId(*client), *key, CounterUpdate::Increment(*amount));
        }
        ShardOp::Deliver { from, message } => {
            replica.handle_message(ReplicaId::new(*from), message.clone());
        }
        ShardOp::Tick { advance } => {
            *now_ms += advance;
            replica.tick(*now_ms);
        }
    }
}

fn drain_shard_fresh(replica: &mut ShardedReplica<u64, GCounter>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for envelope in replica.take_outbox() {
        let mut encoder = FrameEncoder::new();
        encoder.encode(&envelope).expect("fresh encode");
        bytes.extend_from_slice(&encoder.take());
    }
    bytes
}

fn drain_shard_pooled(
    replica: &mut ShardedReplica<u64, GCounter>,
    batch: &mut Vec<ShardEnvelope<Kv>>,
    encoder: &mut FrameEncoder,
) -> Vec<u8> {
    assert!(batch.is_empty(), "a recycled batch must carry no stale shells");
    replica.drain_outbox_into(batch);
    for envelope in batch.iter() {
        encoder.encode(envelope).expect("pooled encode");
    }
    batch.clear();
    encoder.take().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An epoch-fenced rebalance re-homes every shard instance (handoffs,
    /// deferred-message replays, control traffic). None of it may leave stale
    /// shells or bytes behind in the recycled storage: drains on both sides
    /// of `install_plan` match the fresh-allocation twin byte for byte.
    #[test]
    fn recycled_storage_is_clean_across_rebalance(
        before in proptest::collection::vec(arb_shard_op(), 1..10),
        after in proptest::collection::vec(arb_shard_op(), 1..10),
        plan_shards in 1u32..8,
    ) {
        let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
        let mut fresh: ShardedReplica<u64, GCounter> =
            ShardedReplica::new(ids[0], ids.clone(), 4, ProtocolConfig::default());
        let mut pooled: ShardedReplica<u64, GCounter> =
            ShardedReplica::new(ids[0], ids, 4, ProtocolConfig::default());
        let mut batch = Vec::new();
        let mut encoder = FrameEncoder::new();
        let (mut fresh_now, mut pooled_now) = (0u64, 0u64);
        for op in &before {
            apply_shard(&mut fresh, op, &mut fresh_now);
            apply_shard(&mut pooled, op, &mut pooled_now);
        }
        let expected = drain_shard_fresh(&mut fresh);
        let recycled = drain_shard_pooled(&mut pooled, &mut batch, &mut encoder);
        prop_assert_eq!(expected, recycled);
        let plan = RebalancePlan { epoch: 1, shards: plan_shards };
        fresh.install_plan(plan);
        pooled.install_plan(plan);
        for op in &after {
            apply_shard(&mut fresh, op, &mut fresh_now);
            apply_shard(&mut pooled, op, &mut pooled_now);
            let expected = drain_shard_fresh(&mut fresh);
            let recycled = drain_shard_pooled(&mut pooled, &mut batch, &mut encoder);
            prop_assert_eq!(expected, recycled);
        }
    }
}
