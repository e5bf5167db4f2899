//! # engine — parallel execution of the sharded CRDT Paxos on real threads
//!
//! The protocol crates are sans-IO: [`crdt_paxos_core::ShardCore`] is a pure
//! state machine per shard, [`crdt_paxos_core::RouterCore`] a pure state
//! machine for the routing policy above them, and the single-threaded
//! [`crdt_paxos_core::ShardedReplica`] that the deterministic simulator steps
//! is just one way to drive the two. This crate is the other way: a
//! **real-parallel executor** that spreads the shard cores over as many worker
//! threads as the box has cores, puts the router core on one more, and
//! connects everything with mailboxes, so non-conflicting commands on
//! different shards are agreed genuinely concurrently — the multi-core payoff
//! of the paper's per-key independence argument. A shard is a protocol
//! instance, not a thread: how finely the keyspace is cut and how many threads
//! serve it are separate decisions.
//!
//! ## Topology
//!
//! Per replica ([`EngineNode`]):
//!
//! * `min(shards, cores)` **worker threads** — shard `s` is a *slot* of worker
//!   `s mod cores`: its [`ShardCore`], stamp, in-flight bookkeeping and decode
//!   residents. A worker pumps all its slots in one cycle: drain the one
//!   mailbox → tick every core → apply each input to the slot it names →
//!   ship every slot's outbox as one batch per peer → hand completed
//!   commands to the node's response queue. With as many cores as shards
//!   that is one shard per thread; with fewer, the threads that would only
//!   have taken turns on a core are one thread and one wake-up;
//! * one **router thread** — the control plane: it owns the node's
//!   `RouterCore` (stamp, fence, control shard, cutover choreography, fan-out
//!   aggregation), feeds it the slow half of the ingress demux, and applies
//!   its effects across the mailboxes (see the `router` module's docs). In
//!   steady state no command and no protocol message passes through it;
//! * one published **assignment snapshot** — stamp, partitioner and the
//!   mailbox of every active shard, replaced wholesale by the router.
//!   [`EngineNode::submit`] and [`NodeIngress`] read it, fence and route
//!   against it exactly as the router would, and push straight onto the owning
//!   worker's mailbox, tagging what they push with the snapshot's stamp;
//! * **mailboxes** ([`mailbox`]) — unbounded FIFO queues (a `VecDeque` under
//!   a mutex, held for one push or one buffer swap) with condvar wakeups for
//!   every inter-thread edge, and one counting admission gate in front of
//!   client submissions so callers feel backpressure.
//!
//! A pusher's snapshot can be superseded between its read and its push, so
//! workers re-check the tag and hand a mismatch back to the router instead of
//! applying it (the `worker` module's docs say who may touch a mailbox and
//! why); while the router has the snapshot un-published — at start-up and for
//! the length of a cutover — everything takes the router's queues.
//!
//! Outgoing envelopes leave through an [`Outbound`] sink: [`LocalMesh`] for
//! in-process clusters ([`EngineCluster`]), [`TcpNode`] for a replica on real
//! sockets (the one bridge to `transport::tcp::TcpMesh`, and the only thing
//! here that touches the async runtime), or any transport of your own.
//! Threads park when idle — untimed unless a retransmission or batch timer is
//! pending — and the engine never busy-spins. More shards than cores costs no
//! extra threads: the placement rule folds them onto the workers there are.
//!
//! Because the engine executes the *same* `ShardCore` and `RouterCore` types
//! the simulator drives, every safety property the deterministic tests
//! establish transfers to the parallel execution; the engine adds only
//! scheduling. The stress tests in `tests/` check the combination end to end:
//! per-key linearizable histories under concurrent multi-threaded clients
//! across live rebalances, in process and over loopback sockets.
//!
//! [`ShardCore`]: crdt_paxos_core::ShardCore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::Hash;

use crdt::Crdt;
use crdt_paxos_core::ProtocolConfig;
use serde::de::DeserializeOwned;
use serde::Serialize;

// The integration tests' harness, compiled into the crate's own tests as well
// (`layouts`), names this crate the way they do.
#[cfg(test)]
extern crate self as engine;

#[cfg(test)]
mod layouts;
pub mod mailbox;
mod mesh;
mod node;
mod resident;
mod router;
pub mod tcp;
mod telemetry;
mod worker;

pub use mesh::{LocalMesh, Outbound};
pub use node::{EngineNode, NodeIngress};
pub use resident::{Received, Residents};
pub use router::RouterRequest;
pub use tcp::TcpNode;

/// Everything the engine requires of a key: the sharded keyspace's own bounds
/// plus `Hash` (the engine partitions by hash), `Send + Sync` (keys cross thread
/// boundaries inside shard-state snapshots that several threads read through one
/// shared allocation), and both halves of the wire codec (the engine decodes received
/// frames itself — see [`NodeIngress::deliver_frame`] — and any transport
/// bridge must be able to encode its envelopes without extra bounds).
pub trait EngineKey:
    Ord + Clone + Hash + fmt::Debug + Serialize + DeserializeOwned + Send + Sync + 'static
{
}
impl<K> EngineKey for K where
    K: Ord + Clone + Hash + fmt::Debug + Serialize + DeserializeOwned + Send + Sync + 'static
{
}

/// Everything the engine requires of a value CRDT: the protocol's own bounds
/// plus `Send + Sync` (states cross thread boundaries, and a shard's `LatticeMap`
/// snapshots share one allocation across them) and the wire codec (a delta is a
/// state too, so full and delta payloads ship the same type).
pub trait EngineValue: Crdt + Serialize + DeserializeOwned + Send + Sync + 'static {}
impl<V> EngineValue for V where V: Crdt + Serialize + DeserializeOwned + Send + Sync + 'static {}

/// An in-process engine cluster: `replicas` nodes wired through a
/// [`LocalMesh`], each running its own router and workers.
///
/// This is the parallel counterpart of the facade's simulator-style local
/// cluster: same protocol, same cores, real threads.
pub struct EngineCluster<K: EngineKey, V: EngineValue> {
    nodes: Vec<EngineNode<K, V>>,
}

impl<K: EngineKey, V: EngineValue> EngineCluster<K, V> {
    /// Starts `replicas` nodes with `shards` hash-partitioned shards each.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `shards` is zero.
    pub fn new(replicas: u64, shards: u32, config: ProtocolConfig) -> Self {
        Self::with_workers(replicas, shards, config, None)
    }

    /// [`EngineCluster::new`] with every node's worker threads capped at
    /// `workers` (`None`: one per core) — how tests pin a layout.
    pub(crate) fn with_workers(
        replicas: u64,
        shards: u32,
        config: ProtocolConfig,
        workers: Option<usize>,
    ) -> Self {
        use crdt::ReplicaId;
        use std::sync::Arc;

        assert!(replicas > 0, "a cluster needs at least one replica");
        let members: Vec<ReplicaId> = (0..replicas).map(ReplicaId::new).collect();
        let shareds: Vec<_> = members.iter().map(|_| node::NodeShared::new(shards)).collect();
        let mesh = Arc::new(LocalMesh::new(
            shareds.iter().map(|shared| node::NodeIngress::from_shared(shared)).collect(),
        ));
        let nodes = members
            .iter()
            .zip(shareds)
            .map(|(&id, shared)| {
                EngineNode::start_with_shared(
                    id,
                    members.clone(),
                    shards,
                    config.clone(),
                    shared,
                    Arc::<LocalMesh<K, V>>::clone(&mesh),
                    workers,
                )
            })
            .collect();
        EngineCluster { nodes }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no replicas (never true — see
    /// [`EngineCluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node handle for replica `index`.
    pub fn node(&self, index: usize) -> &EngineNode<K, V> {
        &self.nodes[index]
    }

    /// Shuts every node down, joining all threads.
    pub fn shutdown(mut self) {
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
    }
}
