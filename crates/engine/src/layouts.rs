//! The stress cases of `tests/stress.rs` at pinned worker counts.
//!
//! How many worker threads a node runs follows the cores of the box, so the
//! integration tests only ever see one layout. These run the same harness
//! with every node capped at 1, 2 and 8 workers — all shards on one thread,
//! two per thread, one thread each through a 4 → 8 split — which takes the
//! crate-private parameter, and therefore a seat inside the crate. What the
//! cutover cases add under sharing: new shards adopted by threads that are
//! mid-cycle, and the `Install`s of two shards arriving in one mailbox.

#[path = "../tests/common/mod.rs"]
mod common;
#[path = "../tests/common/stress.rs"]
mod harness;

use std::sync::Arc;

use crdt::GCounter;
use crdt_paxos_core::ProtocolConfig;

use crate::node::NodeShared;
use crate::{EngineCluster, EngineNode};
use harness::{Key, Node};

const LAYOUTS: [usize; 3] = [1, 2, 8];

fn cluster(workers: usize) -> EngineCluster<Key, GCounter> {
    EngineCluster::with_workers(3, 4, ProtocolConfig::default(), Some(workers))
}

/// Three four-shard nodes over an encoding mesh, `workers` threads each.
fn frame_cluster(workers: usize) -> Vec<Node> {
    harness::frame_cluster(|id, members, sink| {
        let (shared, config) = (NodeShared::new(4), ProtocolConfig::default());
        EngineNode::start_with_shared(id, members, 4, config, shared, sink, Some(workers))
    })
}

#[test]
fn concurrent_clients_are_per_key_linearizable_at_every_layout() {
    for workers in LAYOUTS {
        harness::concurrent_clients(cluster(workers));
    }
}

#[test]
fn live_rebalance_loses_nothing_at_every_layout() {
    for workers in LAYOUTS {
        harness::live_rebalance(cluster(workers));
    }
}

#[test]
fn rebalance_chain_races_direct_submit_and_message_ingress_at_every_layout() {
    for workers in LAYOUTS {
        harness::rebalance_chain_under_direct_traffic(Arc::new(cluster(workers)), 0xD1CE);
    }
}

#[test]
fn rebalance_chain_races_direct_submit_and_frame_ingress_at_every_layout() {
    for workers in LAYOUTS {
        harness::rebalance_chain_under_direct_traffic(Arc::new(frame_cluster(workers)), 0xFACADE);
    }
}
