//! End-to-end exercise of the zero-copy frame ingress.
//!
//! Three engine nodes are wired through an in-process mesh that behaves like a
//! real network transport: every envelope is encoded to a `wire` frame on send
//! and delivered to the destination through [`NodeIngress::deliver_frame`], so
//! every inter-replica message crosses the full encode → peek → in-place
//! decode path — dispatch-time varint peek, worker scratch reuse, borrowed payload
//! decode — instead of the in-process shortcut `LocalMesh` takes. Writes,
//! linearizable reads, and a live 2 → 4 shard split must all work exactly as
//! they do over the decoded-message path.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use crdt::{CounterQuery, CounterUpdate, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate};
use crdt_paxos_core::ShardMessage;
use crdt_paxos_core::{ClientId, Command, ProtocolConfig, ResponseBody};
use engine::{EngineNode, Outbound};

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
