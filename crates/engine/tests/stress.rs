//! End-to-end stress tests for the engine, at the layout this box gives it
//! (`min(shards, cores)` worker threads per node; `src/layouts.rs` runs the
//! same cases at pinned worker counts).
//!
//! The deterministic simulator establishes the protocol's safety; these tests
//! establish that the parallel executor preserves it: under seeded
//! multi-threaded clients — including across a live 4 → 8 rebalance, and
//! across a chain of back-to-back rebalances racing the direct submit and
//! ingress paths — every submitted command completes exactly once and every
//! per-key history is linearizable by the same checker the simulator uses.

mod common;
#[path = "common/stress.rs"]
mod harness;

use std::sync::Arc;

use crdt::GCounter;
use crdt_paxos_core::ProtocolConfig;
use engine::{EngineCluster, EngineNode};

use harness::Key;

fn cluster() -> EngineCluster<Key, GCounter> {
    EngineCluster::new(3, 4, ProtocolConfig::default())
}

#[test]
fn concurrent_clients_are_per_key_linearizable() {
    harness::concurrent_clients(cluster());
}

#[test]
fn live_rebalance_preserves_linearizability_and_loses_nothing() {
    harness::live_rebalance(cluster());
}

#[test]
fn rebalance_chain_races_direct_submit_and_message_ingress() {
    harness::rebalance_chain_under_direct_traffic(Arc::new(cluster()), 0xD1CE);
}

#[test]
fn rebalance_chain_races_direct_submit_and_frame_ingress() {
    let nodes = harness::frame_cluster(|id, members, sink| {
        EngineNode::start(id, members, 4, ProtocolConfig::default(), sink)
    });
    harness::rebalance_chain_under_direct_traffic(Arc::new(nodes), 0xFACADE);
}
