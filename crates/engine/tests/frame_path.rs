//! End-to-end exercise of the zero-copy frame ingress.
//!
//! Three engine nodes are wired through an in-process mesh that behaves like a
//! real network transport: every envelope is encoded to a `wire` frame on send
//! and delivered to the destination through [`NodeIngress::deliver_frame`], so
//! every inter-replica message crosses the full encode → peek → in-place
//! decode path — dispatch-time varint peek, per-kind resident decode targets,
//! borrowed payload decode — instead of the in-process shortcut `LocalMesh`
//! takes. Writes, linearizable reads, and live rebalances must all work exactly
//! as they do over the decoded-message path.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{check_keyed_history, HistoryOp, OpKind};
use crdt::{CounterQuery, CounterUpdate, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate};
use crdt_paxos_core::ShardMessage;
use crdt_paxos_core::{ClientId, Command, CommandId, ProtocolConfig, ResponseBody};
use engine::{EngineCluster, EngineNode, Outbound};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::FrameMesh;

type KvMap = LatticeMap<String, GCounter>;

fn call(node: &EngineNode<String, GCounter>, command: Command<KvMap>) -> ResponseBody<KvMap> {
    let id = node.submit(ClientId(3), command);
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(response) = node.wait_response(Duration::from_millis(10)) {
            if response.command == id {
                return response.body;
            }
        }
    }
    panic!("no response before the deadline");
}

#[test]
fn frames_cross_an_encoded_mesh_end_to_end() {
    use crdt::ReplicaId;

    let members: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mesh = FrameMesh::<String>::new(members.len());
    let nodes: Vec<EngineNode<String, GCounter>> = members
        .iter()
        .map(|&id| {
            EngineNode::start(
                id,
                members.clone(),
                2,
                ProtocolConfig::default(),
                Arc::clone(&mesh) as Arc<dyn Outbound<String, GCounter>>,
            )
        })
        .collect();
    for (index, node) in nodes.iter().enumerate() {
        mesh.register(index, node.ingress());
    }

    // Writes on different keys via different replicas — each one a quorum of
    // Merge/MergeAck frames through the in-place decode path.
    for (replica, key, amount) in
        [(0usize, "clicks", 2u64), (1, "views", 3), (2, "carts", 5), (0, "views", 4)]
    {
        let update = Command::Update(MapUpdate::Apply {
            key: key.to_string(),
            update: CounterUpdate::Increment(amount),
        });
        assert!(
            matches!(call(&nodes[replica], update), ResponseBody::UpdateDone),
            "update {key} += {amount} via replica {replica}"
        );
    }

    // Linearizable reads at other replicas (Prepare/Vote frames both ways).
    for (replica, key, expected) in [(2usize, "clicks", 2u64), (0, "views", 7), (1, "carts", 5)] {
        let query =
            Command::Query(MapQuery::Get { key: key.to_string(), query: CounterQuery::Value });
        match call(&nodes[replica], query) {
            ResponseBody::QueryDone(MapOutput::Value(Some(value))) => {
                assert_eq!(value, expected as i64, "read {key} via replica {replica}")
            }
            other => panic!("read {key} via replica {replica}: unexpected {other:?}"),
        }
    }

    // A live 2 -> 4 split: plan agreement (Control frames), plan gossip
    // (Rebalance frames), and the handoff all cross the frame path; bounced
    // and deferred stamps exercise the router's owned-decode fallback.
    nodes[0].begin_rebalance(4);
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let installed = nodes.iter().all(|node| node.epoch() >= 1 && node.shard_count() == 4);
        if installed && nodes[0].rebalance_idle() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(nodes.iter().all(|node| node.shard_count() == 4), "split installed everywhere");

    // Every value survives the handoff, still linearizable.
    for (replica, key, expected) in [(1usize, "clicks", 2i64), (2, "views", 7), (0, "carts", 5)] {
        let query =
            Command::Query(MapQuery::Get { key: key.to_string(), query: CounterQuery::Value });
        match call(&nodes[replica], query) {
            ResponseBody::QueryDone(MapOutput::Value(Some(value))) => {
                assert_eq!(value, expected, "read {key} after the split via replica {replica}")
            }
            other => panic!("read {key} after the split via replica {replica}: {other:?}"),
        }
    }

    // The owned-message ingress still works alongside the frame ingress.
    let ingress = nodes[0].ingress();
    ingress.deliver(ReplicaId::new(1), ShardMessage::PlanRequest);

    for node in nodes {
        node.shutdown();
    }
}

/// How many commands [`drive_mixed`] keeps in flight.
const WINDOW: usize = 8;
/// The keys it spreads them over, all on one shard to begin with.
const KEYS: u64 = 12;
/// Its rebalances, each begun when that fraction of the script has been
/// submitted: a split, a shrink that retires shard 2's worker, and a split
/// that puts that worker — and whatever its decode residents held under the
/// second assignment — back to work under the fourth.
const REBALANCES: [(usize, u32); 3] = [(1, 3), (2, 2), (3, 3)];

/// What [`drive_mixed`] saw: the per-key history, and every key's value as
/// read through another node after the last command.
struct MixedRun {
    history: Vec<(u64, HistoryOp)>,
    values: Vec<i64>,
}

/// Drives a seeded script of interleaved increments and reads through node 0,
/// [`WINDOW`] at a time, with [`REBALANCES`] begun along the way and commands
/// kept flowing across each cutover. Panics on a command answered twice, never,
/// or with the wrong kind of body.
fn drive_mixed(nodes: &[&EngineNode<String, GCounter>], seed: u64) -> MixedRun {
    const COMMANDS: usize = 600;
    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    let client = ClientId(11);
    let node = nodes[0];
    let mut rng = StdRng::seed_from_u64(seed);
    // Per open command: its key, invocation time, and the increment it makes
    // (`None` for a read).
    let mut open: BTreeMap<CommandId, (u64, u64, Option<u64>)> = BTreeMap::new();
    let mut history: Vec<(u64, HistoryOp)> = Vec::new();
    let mut settle = |open: &mut BTreeMap<CommandId, (u64, u64, Option<u64>)>, limit: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while open.len() > limit {
            assert!(Instant::now() < deadline, "{} commands lost", open.len());
            let Some(response) = node.wait_response(Duration::from_millis(10)) else { continue };
            let (key, invoked_us, amount) =
                open.remove(&response.command).expect("a command answered twice");
            let kind = match (amount, response.body) {
                (Some(amount), ResponseBody::UpdateDone) => OpKind::Increment(amount),
                (None, ResponseBody::QueryDone(MapOutput::Value(value))) => {
                    OpKind::Read(value.unwrap_or(0))
                }
                (_, other) => panic!("unexpected response body {other:?}"),
            };
            history.push((key, HistoryOp { invoked_us, responded_us: now_us(), kind }));
        }
    };
    let await_installed = |epoch: u64, shards: u32| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !(nodes.iter().all(|n| n.epoch() == epoch && n.shard_count() == shards)
            && node.rebalance_idle())
        {
            assert!(Instant::now() < deadline, "rebalance to {shards} shards did not complete");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    for index in 0..COMMANDS {
        let due = REBALANCES.iter().position(|&(quarter, _)| index == quarter * COMMANDS / 4);
        if let Some(round) = due {
            // One plan at a time: the previous one is installed everywhere
            // before the next is proposed. The window stays open meanwhile.
            if round > 0 {
                await_installed(round as u64, REBALANCES[round - 1].1);
            }
            node.begin_rebalance(REBALANCES[round].1);
        }
        let key = rng.gen_range(0..KEYS);
        let amount = rng.gen_bool(0.5).then(|| rng.gen_range(1..4u64));
        let command = match amount {
            Some(amount) => Command::Update(MapUpdate::Apply {
                key: format!("key-{key}"),
                update: CounterUpdate::Increment(amount),
            }),
            None => Command::Query(MapQuery::Get {
                key: format!("key-{key}"),
                query: CounterQuery::Value,
            }),
        };
        let invoked_us = now_us();
        open.insert(node.submit(client, command), (key, invoked_us, amount));
        settle(&mut open, WINDOW - 1);
    }
    settle(&mut open, 0);
    let (_, last) = REBALANCES[REBALANCES.len() - 1];
    await_installed(REBALANCES.len() as u64, last);
    assert!(node.try_response().is_none(), "a response nobody was waiting for");

    let values = (0..KEYS)
        .map(|key| {
            let query = MapQuery::Get { key: format!("key-{key}"), query: CounterQuery::Value };
            match call(nodes[1], Command::Query(query)) {
                ResponseBody::QueryDone(MapOutput::Value(value)) => value.unwrap_or(0),
                other => panic!("final read of key {key}: {other:?}"),
            }
        })
        .collect();
    MixedRun { history, values }
}

/// The mix a worker's decode residents are built for — reads between writes on
/// one shard, so `MERGE`/`PREPARE` alternate at the acceptors and
/// `MERGED`/`ACK` at the proposer, with late `ACK`s behind every quiet read —
/// carried across three cutovers, the last of which hands a retired worker's
/// residents traffic of an assignment they have never seen. Over the encoding
/// mesh every command must be answered exactly once, every per-key history
/// must be linearizable, and the keyspace must end up exactly where the same
/// script leaves a cluster that passes owned messages and never decodes a
/// frame: what a resident held under one assignment must not show under the
/// next.
#[test]
fn a_mixed_stream_survives_cutovers_like_the_owned_message_path() {
    use crdt::ReplicaId;

    let members: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mesh = FrameMesh::<String>::new(members.len());
    let framed: Vec<EngineNode<String, GCounter>> = members
        .iter()
        .map(|&id| {
            let outbound = Arc::clone(&mesh) as Arc<dyn Outbound<String, GCounter>>;
            EngineNode::start(id, members.clone(), 1, ProtocolConfig::default(), outbound)
        })
        .collect();
    for (index, node) in framed.iter().enumerate() {
        mesh.register(index, node.ingress());
    }
    let owned = EngineCluster::<String, GCounter>::new(3, 1, ProtocolConfig::default());

    let over_frames = drive_mixed(&framed.iter().collect::<Vec<_>>(), 0x5EED);
    let over_messages = drive_mixed(&(0..3).map(|i| owned.node(i)).collect::<Vec<_>>(), 0x5EED);

    for run in [&over_frames, &over_messages] {
        if let Err((key, violation)) = check_keyed_history(&run.history) {
            panic!("key {key}: {violation}");
        }
    }
    // The same script acknowledged the same increments on both clusters, so
    // both must read back the same keyspace — the sum of them, per key.
    let mut expected = vec![0i64; KEYS as usize];
    for (key, op) in &over_frames.history {
        if let OpKind::Increment(amount) = op.kind {
            expected[*key as usize] += amount as i64;
        }
    }
    assert_eq!(over_frames.values, expected);
    assert_eq!(over_messages.values, expected);

    // Mixed traffic over frames means late `ACK`s, and none of the frames was
    // lost to a decode error on the way.
    let counter = |name: &str| framed.iter().map(|n| n.obs_snapshot().counter(name)).sum::<u64>();
    assert!(counter("replies_skipped") > 0);
    assert_eq!(counter("frames_undecodable"), 0);

    for node in framed {
        node.shutdown();
    }
    owned.shutdown();
}
