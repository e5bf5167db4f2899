//! Where outgoing envelopes go: the [`Outbound`] trait and the in-process
//! [`LocalMesh`].
//!
//! Workers and routers hand every produced [`ShardEnvelope`] to an `Outbound`
//! sink. In-process clusters use [`LocalMesh`], which hands the envelope
//! straight to the destination node's ingress — in steady state onto the
//! owning shard worker's mailbox (no serialization, no router hop on either
//! side). A replica on sockets is a [`crate::TcpNode`], whose sink encodes
//! into a `transport::tcp::TcpMesh` and whose mesh hands each received frame
//! back to [`NodeIngress::deliver_frame`] (zero-copy: the socket's read loop
//! peeks the routing preamble, the shard worker decodes the body in place).
//! Any other transport implements `Outbound` the same way and delivers frames
//! like that, or decoded messages through [`NodeIngress::deliver`].
//!
//! [`NodeIngress::deliver_frame`]: crate::NodeIngress::deliver_frame

use crdt::{LatticeMap, ReplicaId};
use crdt_paxos_core::{ShardEnvelope, ShardMessage};

use crate::node::NodeIngress;
use crate::{EngineKey, EngineValue};

/// A sink for outgoing protocol envelopes. Implementations must be cheap and
/// non-blocking: workers call this from their hot loop.
pub trait Outbound<K: EngineKey, V: EngineValue>: Send + Sync {
    /// Ships one addressed envelope towards `envelope.to`. Delivery may be
    /// delayed, reordered, or dropped — the protocol tolerates all three.
    fn send(&self, envelope: ShardEnvelope<LatticeMap<K, V>>);

    /// Ships a drained outbox, leaving `envelopes` empty. Callers group the
    /// batch by destination (runs of equal `to`) so networked implementations
    /// can hand each peer's run to the transport as one unit — one wire batch
    /// per peer per cycle instead of one per message. The default forwards
    /// each envelope to [`Outbound::send`].
    fn send_batch(&self, envelopes: &mut Vec<ShardEnvelope<LatticeMap<K, V>>>) {
        for envelope in envelopes.drain(..) {
            self.send(envelope);
        }
    }
}

/// The in-process transport: every node's ingress handle, indexed by replica
/// id. Sends are a single mailbox push at the destination.
pub struct LocalMesh<K: EngineKey, V: EngineValue> {
    ingress: Vec<NodeIngress<K, V>>,
}

impl<K: EngineKey, V: EngineValue> LocalMesh<K, V> {
    /// Builds a mesh over the given ingress handles; node `i` must be replica
    /// id `i`.
    pub fn new(ingress: Vec<NodeIngress<K, V>>) -> Self {
        LocalMesh { ingress }
    }

    /// Delivers a message to a node directly (test hook).
    pub fn deliver(&self, to: ReplicaId, from: ReplicaId, message: ShardMessage<LatticeMap<K, V>>) {
        if let Some(ingress) = self.ingress.get(to.as_u64() as usize) {
            ingress.deliver(from, message);
        }
    }
}

impl<K: EngineKey, V: EngineValue> Outbound<K, V> for LocalMesh<K, V> {
    fn send(&self, envelope: ShardEnvelope<LatticeMap<K, V>>) {
        let (to, from, message) = (envelope.to, envelope.from, envelope.message);
        self.deliver(to, from, message);
    }
}
