//! Boots and tears down the system under test: `replicas` engine nodes wired
//! either through loopback `TcpMesh` sockets or straight into each other's
//! ingress. The bridges (the `Outbound` sink and the frame pump) live here, in
//! the benchmark, so a traced run can time every call that crosses into
//! `transport` or `engine`.

use std::net::TcpListener;
use std::sync::{Arc, OnceLock};

use crdt::{GCounter, LatticeMap, ReplicaId};
use crdt_paxos_core::{ProtocolConfig, ShardEnvelope};
use engine::{EngineNode, NodeIngress, Outbound};
use obs::TraceConfig;
use transport::tcp::TcpMesh;

use crate::spec::Transport;
use crate::trace::Tracer;

pub type Node = EngineNode<u64, GCounter>;
pub type KvMap = LatticeMap<u64, GCounter>;

/// One in this many commands keeps spans and engine stage events.
pub const TRACE_SAMPLE: u64 = 16;
/// Slots per engine trace ring.
const TRACE_CAPACITY: usize = 4096;
/// `bind(0)` hands out a port nothing listens on, but another socket can take
/// it between our release and the mesh's bind; a fresh set is then drawn.
const BOOT_ATTEMPTS: usize = 5;

/// Engine → `TcpMesh`: each destination run of a drained outbox is encoded
/// straight into that peer's recycled batch buffer by one `send_with`.
struct TcpBridge {
    mesh: Arc<TcpMesh>,
    tracer: Option<Arc<Tracer>>,
}

impl TcpBridge {
    fn send_run(&self, peer: ReplicaId, run: &[ShardEnvelope<KvMap>]) {
        let send = || {
            // A send only fails once the mesh is shutting down; the protocol
            // treats it as a lost message.
            let _ = self.mesh.send_with(peer.as_u64(), |encoder| {
                run.iter().try_for_each(|envelope| encoder.encode(&envelope.message))
            });
        };
        match &self.tracer {
            Some(tracer) => tracer.time(&tracer.send_with, "transport.send_with", send),
            None => send(),
        }
    }
}

impl Outbound<u64, GCounter> for TcpBridge {
    fn send(&self, envelope: ShardEnvelope<KvMap>) {
        self.send_run(envelope.to, std::slice::from_ref(&envelope));
    }

    fn send_batch(&self, envelopes: &mut Vec<ShardEnvelope<KvMap>>) {
        for run in envelopes.chunk_by(|a, b| a.to == b.to) {
            self.send_run(run[0].to, run);
        }
        envelopes.clear();
    }
}

/// Engine → engine in one process: the decoded message goes straight onto the
/// destination's ingress queue (what `engine::LocalMesh` does, rebuilt here so
/// node 0 can be started observed and the call timed).
struct InProcessBridge {
    /// Filled once every node exists; a message sent before that is dropped,
    /// like any lost message.
    ingress: OnceLock<Vec<NodeIngress<u64, GCounter>>>,
    tracer: Option<Arc<Tracer>>,
}

impl Outbound<u64, GCounter> for InProcessBridge {
    fn send(&self, envelope: ShardEnvelope<KvMap>) {
        let Some(ingress) =
            self.ingress.get().and_then(|all| all.get(envelope.to.as_u64() as usize))
        else {
            return;
        };
        let deliver = || ingress.deliver(envelope.from, envelope.message);
        // Only deliveries *into* node 0 are timed, matching the TCP pump.
        match &self.tracer {
            Some(tracer) if envelope.to.as_u64() == 0 => {
                tracer.time(&tracer.deliver, "engine.deliver", deliver)
            }
            _ => deliver(),
        }
    }
}

#[derive(Default)]
pub struct Cluster {
    pub nodes: Vec<Node>,
    /// Node 0's start instant as nanoseconds on the tracer's clock (0 when
    /// untraced): the offset of the engine's trace timestamps.
    pub node0_start_ns: u64,
    meshes: Vec<Arc<TcpMesh>>,
    pumps: Vec<tokio::JoinHandle<()>>,
}

impl Cluster {
    /// Starts `replicas` nodes of `shards` shards each. With a tracer, node 0
    /// samples stage events and its bridge times every crossing.
    pub fn boot(
        transport: Transport,
        replicas: u64,
        shards: u32,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Cluster, String> {
        match transport {
            Transport::InProcess => Ok(Self::boot_in_process(replicas, shards, tracer)),
            Transport::Tcp => {
                let mut last = String::new();
                for _ in 0..BOOT_ATTEMPTS {
                    match Self::boot_tcp(replicas, shards, tracer) {
                        Ok(cluster) => return Ok(cluster),
                        Err(err) => last = err,
                    }
                }
                Err(format!("no TCP cluster after {BOOT_ATTEMPTS} attempts: {last}"))
            }
        }
    }

    fn start_node(
        id: u64,
        replicas: u64,
        shards: u32,
        outbound: Arc<dyn Outbound<u64, GCounter>>,
        tracer: Option<&Arc<Tracer>>,
    ) -> (Node, u64) {
        let members: Vec<ReplicaId> = (0..replicas).map(ReplicaId::new).collect();
        let config = ProtocolConfig::default();
        match tracer {
            Some(tracer) if id == 0 => {
                let started_ns = tracer.now_ns();
                let node = EngineNode::start_observed(
                    ReplicaId::new(id),
                    members,
                    shards,
                    config,
                    outbound,
                    TraceConfig::sampled(TRACE_SAMPLE, TRACE_CAPACITY),
                );
                (node, started_ns)
            }
            _ => (EngineNode::start(ReplicaId::new(id), members, shards, config, outbound), 0),
        }
    }

    fn boot_in_process(replicas: u64, shards: u32, tracer: Option<&Arc<Tracer>>) -> Cluster {
        let bridge =
            Arc::new(InProcessBridge { ingress: OnceLock::new(), tracer: tracer.cloned() });
        let mut node0_start_ns = 0;
        let nodes: Vec<Node> = (0..replicas)
            .map(|id| {
                let (node, started_ns) =
                    Self::start_node(id, replicas, shards, bridge.clone(), tracer);
                node0_start_ns = node0_start_ns.max(started_ns);
                node
            })
            .collect();
        let ingress = nodes.iter().map(Node::ingress).collect();
        assert!(bridge.ingress.set(ingress).is_ok(), "ingress table set once");
        Cluster { nodes, node0_start_ns, meshes: Vec::new(), pumps: Vec::new() }
    }

    fn boot_tcp(
        replicas: u64,
        shards: u32,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Cluster, String> {
        let addrs = free_loopback_addrs(replicas)?;
        let mut cluster = Cluster::default();
        for (id, listen) in &addrs {
            let mesh = match tokio::runtime::block_on(TcpMesh::bind(*id, listen, &addrs)) {
                Ok(mesh) => Arc::new(mesh),
                Err(err) => {
                    cluster.shutdown();
                    return Err(format!("bind {listen}: {err}"));
                }
            };
            // Only node 0 is observed: its bridge is the timed one.
            let traced = tracer.filter(|_| *id == 0).cloned();
            let bridge = Arc::new(TcpBridge { mesh: Arc::clone(&mesh), tracer: traced.clone() });
            let (node, started_ns) = Self::start_node(*id, replicas, shards, bridge, tracer);
            cluster.node0_start_ns = cluster.node0_start_ns.max(started_ns);
            // One snapshot of the node then covers its sockets too.
            mesh.stats().register_into(&node.obs());
            let ingress = node.ingress();
            let pump_mesh = Arc::clone(&mesh);
            cluster.pumps.push(tokio::spawn(async move {
                while let Ok((from, frame)) = pump_mesh.recv_frame().await {
                    let deliver = || ingress.deliver_frame(ReplicaId::new(from), frame);
                    match &traced {
                        Some(tracer) => {
                            tracer.time(&tracer.deliver, "engine.deliver_frame", deliver)
                        }
                        None => deliver(),
                    }
                }
            }));
            cluster.meshes.push(mesh);
            cluster.nodes.push(node);
        }
        Ok(cluster)
    }

    /// Stops every node (joining its threads), every pump and every mesh task,
    /// so nothing of this cluster runs when the next one boots.
    pub fn shutdown(&mut self) {
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
        for pump in self.pumps.drain(..) {
            pump.abort();
        }
        for mesh in self.meshes.drain(..) {
            mesh.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One free loopback address per replica, assigned by the OS: every listener
/// is bound to port 0 and held until all ports are known, so the set is
/// distinct, then released for the meshes to bind.
pub fn free_loopback_addrs(count: u64) -> Result<Vec<(u64, String)>, String> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|err| format!("bind 127.0.0.1:0: {err}")))
        .collect::<Result<_, _>>()?;
    (0..count)
        .zip(&listeners)
        .map(|(id, listener)| {
            let addr = listener.local_addr().map_err(|err| format!("local_addr: {err}"))?;
            Ok((id, addr.to_string()))
        })
        .collect()
}
