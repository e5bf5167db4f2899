//! One engine replica on real sockets: [`TcpNode`] is an [`EngineNode`] wired
//! to a [`TcpMesh`] in both directions.
//!
//! * **Engine → sockets.** The node's [`Outbound`] sink encodes each
//!   destination run of a drained outbox straight into that peer's outbound
//!   buffer ([`TcpMesh::send_with`]), on the worker thread that produced
//!   it: one contiguous wire batch per peer per engine cycle, no dispatcher
//!   task, no owned envelopes crossing a channel.
//! * **Sockets → engine.** The mesh's sink is [`NodeIngress::deliver_frame`]:
//!   no queue or task in between, the socket's read loop peeks the routing
//!   preamble of each frame, the owning shard worker decodes the body in
//!   place, so the receive path never copies a frame and in steady state
//!   never allocates for it.
//!
//! The transports are message-agnostic, so protocol traffic, control-shard
//! traffic and rebalance plans all cross the sockets as ordinary `wire`
//! frames. This is the only module of the crate that touches the async
//! runtime, and only from [`TcpNode::bind`]: a node started over any other
//! [`Outbound`] runs on its own OS threads alone.

use std::io;
use std::ops::Deref;
use std::sync::Arc;

use crdt::{LatticeMap, ReplicaId};
use crdt_paxos_core::{ProtocolConfig, ShardEnvelope};
use obs::TraceConfig;
use transport::tcp::TcpMesh;
use transport::TransportError;

use crate::mesh::Outbound;
use crate::node::{EngineNode, NodeIngress, NodeShared};
use crate::{EngineKey, EngineValue};

/// The engine → mesh half of the bridge.
struct MeshOutbound {
    mesh: Arc<TcpMesh>,
}

impl MeshOutbound {
    /// Encodes a run of envelopes for one peer as one batch. A send fails only
    /// for an unknown peer or once the mesh is shutting down; the protocol
    /// treats either as a lost message.
    fn send_run<K: EngineKey, V: EngineValue>(&self, run: &[ShardEnvelope<LatticeMap<K, V>>]) {
        let Some(first) = run.first() else { return };
        let _ = self.mesh.send_with(first.to.as_u64(), |encoder| {
            run.iter().try_for_each(|envelope| encoder.encode(&envelope.message))
        });
    }
}

impl<K: EngineKey, V: EngineValue> Outbound<K, V> for MeshOutbound {
    fn send(&self, envelope: ShardEnvelope<LatticeMap<K, V>>) {
        self.send_run(std::slice::from_ref(&envelope));
    }

    fn send_batch(&self, envelopes: &mut Vec<ShardEnvelope<LatticeMap<K, V>>>) {
        // Batches arrive grouped by destination.
        envelopes.chunk_by(|a, b| a.to == b.to).for_each(|run| self.send_run(run));
        envelopes.clear();
    }
}

/// An [`EngineNode`] serving its replica group over loopback or real TCP: the
/// node and its [`TcpMesh`] endpoint, whose sink delivers into the node.
/// Dereferences to the node for everything a client does (`submit`,
/// `wait_response`, `begin_rebalance`, `obs_snapshot`, ...).
///
/// [`TcpNode::shutdown`] — or dropping the value — stops the node and then the
/// mesh, releasing the listening address and the mesh's hold on the node.
pub struct TcpNode<K: EngineKey, V: EngineValue> {
    node: EngineNode<K, V>,
    mesh: Arc<TcpMesh>,
}

impl<K: EngineKey, V: EngineValue> TcpNode<K, V> {
    /// Binds replica `id`'s endpoint on `listen`, starts its engine node with
    /// `shards` shards over the replica group `addrs` (`(id, address)` pairs,
    /// this replica included), and wires the two together. Peers that are not
    /// up yet are dialed in the background. With a sampling `trace` the node
    /// records trace events (see [`EngineNode::start_observed`]); the mesh's
    /// socket statistics join the node's instrument registry either way, so
    /// one [`EngineNode::obs_snapshot`] covers the whole replica.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `addrs` does not name `id`.
    pub async fn bind(
        id: u64,
        listen: &str,
        addrs: &[(u64, String)],
        shards: u32,
        config: ProtocolConfig,
        trace: TraceConfig,
    ) -> io::Result<Self> {
        // The mesh delivers from its first frame on: what arrives before the
        // router runs waits in the node's queues.
        let shared = NodeShared::new_observed(shards, trace);
        let ingress = NodeIngress::from_shared(&shared);
        let sink = move |from, frame| ingress.deliver_frame(ReplicaId::new(from), frame);
        let mesh = match TcpMesh::bind_with(id, listen, addrs, sink).await {
            Ok(mesh) => Arc::new(mesh),
            Err(TransportError::Io(err)) => return Err(err),
            Err(other) => return Err(io::Error::other(other)),
        };
        let members = addrs.iter().map(|(peer, _)| ReplicaId::new(*peer)).collect();
        let outbound = Arc::new(MeshOutbound { mesh: Arc::clone(&mesh) });
        let node = EngineNode::start_with_shared(
            ReplicaId::new(id),
            members,
            shards,
            config,
            shared,
            outbound,
            None,
        );
        mesh.stats().register_into(&node.obs());
        Ok(TcpNode { node, mesh })
    }

    /// Stops the node (joining its threads) and then the mesh. Queued work is
    /// dropped; in-flight commands never answer.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<K: EngineKey, V: EngineValue> Deref for TcpNode<K, V> {
    type Target = EngineNode<K, V>;

    fn deref(&self) -> &EngineNode<K, V> {
        &self.node
    }
}

impl<K: EngineKey, V: EngineValue> Drop for TcpNode<K, V> {
    fn drop(&mut self) {
        self.node.stop();
        self.mesh.shutdown();
    }
}
