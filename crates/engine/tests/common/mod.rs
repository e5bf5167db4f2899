//! Shared by the integration tests: an in-process mesh that behaves like a
//! networked transport.

use std::sync::{Arc, RwLock};

use bytes::Bytes;
use crdt::{GCounter, LatticeMap};
use crdt_paxos_core::ShardEnvelope;
use engine::{EngineKey, NodeIngress, Outbound};

/// An in-process stand-in for a networked mesh: sends encode the message to a
/// frame (exactly the bytes a TCP peer would receive) and deliver it through
/// the frame ingress. Nodes register their ingress handles after starting;
/// frames for unregistered nodes are dropped, which the protocol tolerates.
pub struct FrameMesh<K: EngineKey> {
    ingress: RwLock<Vec<Option<NodeIngress<K, GCounter>>>>,
}

impl<K: EngineKey> FrameMesh<K> {
    pub fn new(replicas: usize) -> Arc<Self> {
        Arc::new(FrameMesh { ingress: RwLock::new(vec![None; replicas]) })
    }

    pub fn register(&self, index: usize, ingress: NodeIngress<K, GCounter>) {
        self.ingress.write().unwrap()[index] = Some(ingress);
    }
}

impl<K: EngineKey> Outbound<K, GCounter> for FrameMesh<K> {
    fn send(&self, envelope: ShardEnvelope<LatticeMap<K, GCounter>>) {
        let frame = Bytes::from(wire::to_vec(&envelope.message).expect("encode envelope"));
        let ingress = self.ingress.read().unwrap();
        if let Some(Some(target)) = ingress.get(envelope.to.as_u64() as usize) {
            target.deliver_frame(envelope.from, frame);
        }
    }
}
