//! The public handle on one engine replica: submission, responses, rebalance
//! control, and transport bridging.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crdt::{LatticeMap, ReplicaId};
use crdt_paxos_core::{ClientId, ClientResponse, Command, CommandId, ProtocolConfig, ShardMessage};
use obs::{ObsRegistry, ObsSnapshot, Stage, StageSet, TraceConfig, TraceEvent, TraceRing};

use crate::mailbox::{Gate, Mailbox, Signal};
use crate::mesh::Outbound;
use crate::router::{Assignment, Router, RouterRequest};
use crate::telemetry::now_nanos;
use crate::worker::WorkerFeedback;
use crate::{EngineKey, EngineValue};

/// How many submitted commands may wait for an engine thread to dequeue them
/// before `submit` blocks. Deep enough to keep pipelined clients busy, shallow
/// enough that stalled workers push back instead of buffering without bound.
const SUBMIT_QUEUE_DEPTH: usize = 1024;

/// One peer message entering a node: either already decoded (in-process
/// meshes skip the codec entirely) or still as the raw wire frame it arrived
/// in (networked transports hand frames over untouched; the dispatcher peeks
/// the routing preamble and the shard worker decodes the rest in place — see
/// [`NodeIngress::deliver_frame`]).
pub(crate) enum IngressItem<K: EngineKey, V: EngineValue> {
    /// A decoded message, as delivered by [`NodeIngress::deliver`].
    Message(ReplicaId, ShardMessage<LatticeMap<K, V>>),
    /// An encoded frame, as delivered by [`NodeIngress::deliver_frame`].
    Frame(ReplicaId, Bytes),
}

/// State shared between the node handle, its router thread, and (via
/// [`NodeIngress`]) the transport feeding it.
pub(crate) struct NodeShared<K: EngineKey, V: EngineValue> {
    /// The router's wakeup latch; every inbound queue below notifies it.
    pub router_signal: Arc<Signal>,
    /// The published assignment snapshot that [`EngineNode::submit`] and
    /// [`NodeIngress`] dispatch under, straight into the worker mailboxes.
    /// `None` — at start-up and for the length of a cutover — sends everything
    /// through the router's queues below. Only the router writes it.
    pub assignment: RwLock<Option<Arc<Assignment<K, V>>>>,
    /// Bounds submitted-but-not-yet-dequeued commands: `submit` takes a slot,
    /// the first engine thread to dequeue the command returns it.
    pub admission: Gate,
    /// Peer messages the direct dispatch could not place: everything but
    /// protocol traffic of the published assignment.
    pub ingress: Mailbox<IngressItem<K, V>>,
    /// Rebalance requests, plus the submissions the direct path leaves to the
    /// router (keyspace-wide queries, anything while nothing is published).
    pub requests: Mailbox<RouterRequest<K, V>>,
    /// Worker → router feedback (fan-out legs, cutover replies, reroutes).
    /// Unbounded on purpose: the router does not drain `requests` inside the
    /// cutover barrier, so a worker must never wait on a queue to reach it.
    pub feedback: Mailbox<WorkerFeedback<K, V>>,
    /// Completed client commands, pushed by the workers (and by the router for
    /// keyspace-wide queries), drained by the node handle.
    pub responses: Mailbox<ClientResponse<LatticeMap<K, V>>>,
    /// Wakes one response consumer; see [`EngineNode::wait_response`].
    pub response_signal: Arc<Signal>,
    /// Outer command-id allocator (handles allocate, the router just routes).
    pub next_command: AtomicU64,
    /// The installed partitioning epoch (mirrors the router's stamp).
    pub epoch: AtomicU64,
    /// The active shard count (mirrors the router's stamp).
    pub shards: AtomicU32,
    /// False while a rebalance initiated on this node is still choreographing.
    pub rebalance_idle: AtomicBool,
    /// Set by [`EngineNode::shutdown`]; the router joins its workers and exits.
    pub shutdown: AtomicBool,
    /// The node's time base: every observability timestamp (queue stamps,
    /// trace events, the cores' tick clock) is relative to this instant.
    pub start: Instant,
    /// Where the router and every worker file their instruments.
    pub obs: Arc<ObsRegistry>,
    /// The node-level stage histograms: samples taken on whichever thread runs
    /// the ingress dispatch (`RouterIngress`), plus the router's own.
    pub stages: StageSet,
    /// Trace sampling configuration inherited by every trace ring.
    pub trace: TraceConfig,
    /// Every trace ring spawned under this node (router first, then workers),
    /// collected so [`EngineNode::trace_events`] can snapshot them. Pushed
    /// only at thread spawn — never touched on the hot path.
    pub rings: Mutex<Vec<Arc<TraceRing>>>,
}

impl<K: EngineKey, V: EngineValue> NodeShared<K, V> {
    pub(crate) fn new(shards: u32) -> Arc<Self> {
        Self::new_observed(shards, TraceConfig::disabled())
    }

    pub(crate) fn new_observed(shards: u32, trace: TraceConfig) -> Arc<Self> {
        let router_signal = Arc::new(Signal::new());
        let response_signal = Arc::new(Signal::new());
        let obs = Arc::new(ObsRegistry::new());
        let stages = StageSet::new();
        stages.register_into(&obs);
        Arc::new(NodeShared {
            assignment: RwLock::new(None),
            admission: Gate::new(SUBMIT_QUEUE_DEPTH),
            ingress: Mailbox::new(Arc::clone(&router_signal)),
            requests: Mailbox::new(Arc::clone(&router_signal)),
            feedback: Mailbox::new(Arc::clone(&router_signal)),
            router_signal,
            responses: Mailbox::new(Arc::clone(&response_signal)),
            response_signal,
            next_command: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            shards: AtomicU32::new(shards),
            rebalance_idle: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            obs,
            stages,
            trace,
            rings: Mutex::new(Vec::new()),
        })
    }

    /// The currently published assignment snapshot, if any.
    pub(crate) fn published(&self) -> Option<Arc<Assignment<K, V>>> {
        self.assignment.read().expect("assignment lock poisoned").clone()
    }

    /// Makes a newly spawned thread's trace ring visible to
    /// [`EngineNode::trace_events`].
    pub(crate) fn track_ring(&self, ring: &Arc<TraceRing>) {
        self.rings.lock().expect("trace ring list poisoned").push(Arc::clone(ring));
    }

    /// Hands a completed command to the response consumer.
    pub(crate) fn respond(&self, response: ClientResponse<LatticeMap<K, V>>) {
        self.responses.push(response);
    }

    /// The ingress edge: protocol traffic of the published assignment goes
    /// straight to its shard worker, everything else to the router.
    fn deliver(&self, item: IngressItem<K, V>) {
        let at = now_nanos(self.start);
        let rejected = match self.published() {
            Some(assignment) => assignment.dispatch(item, at).err(),
            None => Some(item),
        };
        if let Some(item) = rejected {
            self.ingress.push(item);
        }
        self.stages.record(Stage::RouterIngress, now_nanos(self.start).saturating_sub(at));
    }
}

/// A cloneable handle for delivering peer messages into a node — the receive
/// half of a transport bridge ([`crate::LocalMesh`] in process, or a real
/// transport reader task).
pub struct NodeIngress<K: EngineKey, V: EngineValue> {
    shared: Arc<NodeShared<K, V>>,
}

impl<K: EngineKey, V: EngineValue> Clone for NodeIngress<K, V> {
    fn clone(&self) -> Self {
        NodeIngress { shared: Arc::clone(&self.shared) }
    }
}

impl<K: EngineKey, V: EngineValue> NodeIngress<K, V> {
    pub(crate) fn from_shared(shared: &Arc<NodeShared<K, V>>) -> Self {
        NodeIngress { shared: Arc::clone(shared) }
    }

    /// Delivers one peer message to the node: protocol traffic of the current
    /// assignment straight to its shard worker, anything else to the router.
    pub fn deliver(&self, from: ReplicaId, message: ShardMessage<LatticeMap<K, V>>) {
        self.shared.deliver(IngressItem::Message(from, message));
    }

    /// Delivers one peer message still in its encoded wire frame — the
    /// zero-copy receive path for networked transports (a
    /// `transport::tcp::TcpMesh` sink, as [`crate::TcpNode`] binds it).
    ///
    /// The calling thread reads only the few-byte routing preamble of the
    /// frame; protocol traffic that passes the epoch fence is decoded on its
    /// shard's worker thread, in place, into a long-lived scratch message, so
    /// in steady state a delta frame reaches the protocol without allocating
    /// and without visiting the router. Undecodable frames are dropped, like
    /// any other lost message.
    pub fn deliver_frame(&self, from: ReplicaId, frame: Bytes) {
        self.shared.deliver(IngressItem::Frame(from, frame));
    }
}

/// One replica of an engine cluster: its shard cores spread over
/// `min(shards, cores)` worker threads, plus a router thread for everything
/// that needs a single authority (rebalances, keyspace-wide queries,
/// fenced-off traffic).
///
/// The handle is `Send + Sync`; `submit` may be called from any number of
/// client threads concurrently. Responses are drained from a single queue —
/// use one consumer thread (or demultiplex by [`ClientResponse::command`] /
/// client id) when multiple clients share a node. Dropping the handle shuts
/// the node down.
pub struct EngineNode<K: EngineKey, V: EngineValue> {
    id: ReplicaId,
    shared: Arc<NodeShared<K, V>>,
    router: Option<JoinHandle<()>>,
}

impl<K: EngineKey, V: EngineValue> EngineNode<K, V> {
    /// Starts a standalone node over a custom transport ([`Outbound`] for
    /// sends; feed receives through [`EngineNode::ingress`]). For in-process
    /// clusters use [`crate::EngineCluster::new`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `members` does not contain `id`.
    pub fn start(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
        outbound: Arc<dyn Outbound<K, V>>,
    ) -> Self {
        let shared = NodeShared::new(shards);
        Self::start_with_shared(id, members, shards, config, shared, outbound, None)
    }

    /// Like [`EngineNode::start`], but with trace sampling enabled: one in
    /// `trace.sample` commands logs a compact event at every instrumentation
    /// station it passes, into preallocated per-thread rings readable via
    /// [`EngineNode::trace_events`]. Stage histograms and runtime counters
    /// are always on regardless — recording them is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `members` does not contain `id`.
    pub fn start_observed(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
        outbound: Arc<dyn Outbound<K, V>>,
        trace: TraceConfig,
    ) -> Self {
        let shared = NodeShared::new_observed(shards, trace);
        Self::start_with_shared(id, members, shards, config, shared, outbound, None)
    }

    /// `workers` caps the node's worker threads (see `Router::new`): `None`
    /// everywhere but in tests that pin a layout. The arguments are checked
    /// here, so that bad ones panic in the caller and not on the router thread.
    pub(crate) fn start_with_shared(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
        shared: Arc<NodeShared<K, V>>,
        outbound: Arc<dyn Outbound<K, V>>,
        workers: Option<usize>,
    ) -> Self {
        assert!(shards > 0, "a keyspace needs at least one shard");
        assert!(members.contains(&id), "replica {id} must be part of the membership");
        let router_shared = Arc::clone(&shared);
        let router = std::thread::Builder::new()
            .name(format!("router-{}", id.as_u64()))
            .spawn(move || {
                Router::new(id, members, shards, config, router_shared, outbound, workers).run();
            })
            .expect("spawn router");
        EngineNode { id, shared, router: Some(router) }
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// A handle for delivering peer messages into this node.
    pub fn ingress(&self) -> NodeIngress<K, V> {
        NodeIngress { shared: Arc::clone(&self.shared) }
    }

    /// Submits a client command; blocks while 1024 earlier submissions are
    /// still waiting for an engine thread to dequeue them (backpressure).
    /// Returns the id the response will carry.
    ///
    /// A single-key command goes straight onto its owner's mailbox under the
    /// published assignment; keyspace-wide queries, and everything while a
    /// cutover has the assignment un-published, go through the router.
    pub fn submit(&self, client: ClientId, command: Command<LatticeMap<K, V>>) -> CommandId {
        let outer = CommandId(self.shared.next_command.fetch_add(1, Ordering::Relaxed));
        let queued_at = now_nanos(self.shared.start);
        self.shared.admission.acquire();
        let rejected = match self.shared.published() {
            Some(assignment) => {
                assignment.route_single(client, outer, command, Some(queued_at), None).err()
            }
            None => Some(command),
        };
        if let Some(command) = rejected {
            self.shared.requests.push(RouterRequest::Submit { client, outer, command, queued_at });
        }
        outer
    }

    /// The registry the node's threads file their instruments into. Transport
    /// bridges register their own stats here so one snapshot covers the whole
    /// node.
    pub fn obs(&self) -> Arc<ObsRegistry> {
        Arc::clone(&self.shared.obs)
    }

    /// An aggregated point-in-time view of every instrument: per-stage
    /// latency histograms (merged across the router and all workers), runtime
    /// counters, and queue-depth high-water marks.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.shared.obs.snapshot()
    }

    /// The node's instruments as Prometheus-style text exposition.
    pub fn obs_prometheus(&self) -> String {
        self.obs_snapshot().to_prometheus()
    }

    /// Drains a stable copy of every trace ring's sampled events (empty
    /// unless the node was started with tracing via
    /// [`EngineNode::start_observed`]). Feed the result to
    /// [`obs::assemble_timelines`] to reconstruct per-command timelines.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let rings = self.shared.rings.lock().expect("trace ring list poisoned");
        for ring in rings.iter() {
            ring.snapshot_into(&mut events);
        }
        events
    }

    /// Initiates a rebalance of the whole cluster to `target` shards,
    /// coordinated by this node. Poll [`EngineNode::epoch`] /
    /// [`EngineNode::shard_count`] / [`EngineNode::rebalance_idle`] for
    /// completion.
    pub fn begin_rebalance(&self, target: u32) {
        self.shared.rebalance_idle.store(false, Ordering::Release);
        self.shared.requests.push(RouterRequest::Rebalance { target });
    }

    /// The partitioning epoch this node has installed.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The active shard count this node routes by.
    pub fn shard_count(&self) -> u32 {
        self.shared.shards.load(Ordering::Acquire)
    }

    /// Whether no rebalance initiated on this node is still in flight.
    pub fn rebalance_idle(&self) -> bool {
        self.shared.rebalance_idle.load(Ordering::Acquire)
    }

    /// Dequeues one completed command, if any.
    pub fn try_response(&self) -> Option<ClientResponse<LatticeMap<K, V>>> {
        self.shared.responses.try_pop()
    }

    /// Blocks until a completed command is available or `timeout` elapses.
    /// Intended for a single consumer thread per node.
    pub fn wait_response(&self, timeout: Duration) -> Option<ClientResponse<LatticeMap<K, V>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(response) = self.shared.responses.try_pop() {
                return Some(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let remaining = deadline - now;
            self.shared.response_signal.wait_timeout(remaining.min(Duration::from_millis(5)));
        }
    }

    /// Stops the router and every worker, joining their threads. Queued work
    /// is dropped; in-flight commands never produce a response.
    pub fn shutdown(mut self) {
        self.stop();
    }

    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.router_signal.notify();
        if let Some(router) = self.router.take() {
            router.join().ok();
        }
    }
}

impl<K: EngineKey, V: EngineValue> Drop for EngineNode<K, V> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Condvar, OnceLock};

    use crdt::{CounterQuery, CounterUpdate, GCounter, MapQuery, MapUpdate};
    use crdt_paxos_core::{
        HashPartitioner, Message, Payload, PayloadMode, RequestId, ResponseBody, ShardEnvelope,
        ShardId,
    };
    use obs::{Histogram, Stopwatch};

    type Node = EngineNode<u64, GCounter>;
    type KvMap = LatticeMap<u64, GCounter>;

    fn members() -> Vec<ReplicaId> {
        (0..3).map(ReplicaId::new).collect()
    }

    fn increment(key: u64) -> Command<KvMap> {
        Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(1) })
    }

    fn read(key: u64) -> Command<KvMap> {
        Command::Query(MapQuery::Get { key, query: CounterQuery::Value })
    }

    /// A sink whose sends block while `closed`: a worker that has something
    /// to ship stalls inside its pump cycle.
    struct StallingSink {
        closed: Mutex<bool>,
        opened: Condvar,
        entered: AtomicBool,
    }

    impl Outbound<u64, GCounter> for StallingSink {
        fn send(&self, _: ShardEnvelope<KvMap>) {
            self.entered.store(true, Ordering::Release);
            let closed = self.closed.lock().unwrap();
            drop(self.opened.wait_while(closed, |closed| *closed).unwrap());
        }
    }

    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Bad arguments panic in the caller: on the router thread the panic
    /// would go unseen, and the node would take commands it never answers.
    #[test]
    #[should_panic(expected = "at least one shard")]
    fn a_cluster_without_shards_panics_in_the_caller() {
        let _ = crate::EngineCluster::<u64, GCounter>::new(3, 0, ProtocolConfig::default());
    }

    #[test]
    #[should_panic(expected = "must be part of the membership")]
    fn a_node_outside_its_membership_panics_in_the_caller() {
        let outbound = Arc::new(crate::LocalMesh::new(Vec::new()));
        let _ = Node::start(ReplicaId::new(9), members(), 2, ProtocolConfig::default(), outbound);
    }

    /// `SUBMIT_QUEUE_DEPTH` bounds what is submitted and not yet dequeued,
    /// also now that submits bypass the router: with the only worker stalled,
    /// exactly that many further submits are admitted, the next one blocks,
    /// and it resumes once the worker drains.
    #[test]
    fn submit_blocks_at_the_queue_depth_until_workers_drain() {
        let sink = Arc::new(StallingSink {
            closed: Mutex::new(true),
            opened: Condvar::new(),
            entered: AtomicBool::new(false),
        });
        let outbound = Arc::clone(&sink) as Arc<dyn Outbound<u64, GCounter>>;
        let node = Arc::new(Node::start(
            ReplicaId::new(0),
            members(),
            1,
            ProtocolConfig::default(),
            outbound,
        ));
        eventually("the assignment to be published", || node.shared.published().is_some());
        // The first command is dequeued (its slot returned) and proposed; the
        // worker then stalls shipping the proposal.
        node.submit(ClientId(1), increment(0));
        eventually("the worker to stall", || sink.entered.load(Ordering::Acquire));

        let admitted = Arc::new(AtomicUsize::new(0));
        let submitter = {
            let (node, admitted) = (Arc::clone(&node), Arc::clone(&admitted));
            std::thread::spawn(move || {
                for key in 0..=SUBMIT_QUEUE_DEPTH as u64 {
                    node.submit(ClientId(1), increment(key));
                    admitted.fetch_add(1, Ordering::Release);
                }
            })
        };
        eventually("the queue to fill", || admitted.load(Ordering::Acquire) == SUBMIT_QUEUE_DEPTH);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(admitted.load(Ordering::Acquire), SUBMIT_QUEUE_DEPTH, "one submit too many");
        assert!(!submitter.is_finished());

        *sink.closed.lock().unwrap() = false;
        sink.opened.notify_all();
        submitter.join().expect("submitter thread");
        assert_eq!(admitted.load(Ordering::Acquire), SUBMIT_QUEUE_DEPTH + 1);
    }

    /// Plan agreement runs on the router core's control shard, which never
    /// batches: with a batching config a rebalance must not sit out the data
    /// shards' flush interval (twice — the proposal, then the read-back).
    #[test]
    fn a_rebalance_does_not_wait_for_the_batch_interval() {
        let config = ProtocolConfig::default().with_batch_interval_ms(2_000);
        let cluster = crate::EngineCluster::<u64, GCounter>::new(3, 2, config);
        let started = Instant::now();
        cluster.node(0).begin_rebalance(4);
        eventually("the split to install everywhere", || {
            (0..cluster.len())
                .map(|index| cluster.node(index))
                .all(|node| node.epoch() == 1 && node.shard_count() == 4 && node.rebalance_idle())
        });
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "plan agreement took {took:?}");
        cluster.shutdown();
    }

    /// An encoding mesh, like a socket transport: frames in through
    /// `deliver_frame`, the hand-off timed as its "socket write".
    struct FrameMesh {
        ingress: OnceLock<Vec<NodeIngress<u64, GCounter>>>,
        write_nanos: Arc<Histogram>,
        /// Protocol frames handed to each node.
        delivered: [AtomicU64; 3],
        /// Taken by every send: a test holding it stalls each worker at its
        /// first send, so what is submitted meanwhile queues up behind it.
        hold: Mutex<()>,
        /// Senders waiting for `hold` or past it, ever.
        arrived: AtomicU64,
        /// Every `send_batch` node 0 made: the `(destination, shard, instance)`
        /// of each protocol frame in it, in batch order.
        batches: Mutex<Vec<Vec<(u64, ShardId, RequestId)>>>,
    }

    impl FrameMesh {
        /// Three two-shard nodes wired through a mesh of their own, every
        /// assignment published, at the layout the box gives them.
        fn cluster(config: ProtocolConfig, trace: TraceConfig) -> (Arc<Self>, Vec<Node>) {
            Self::cluster_of(2, None, config, trace)
        }

        /// The same with `shards` shards a node, on at most `workers` threads.
        fn cluster_of(
            shards: u32,
            workers: Option<usize>,
            config: ProtocolConfig,
            trace: TraceConfig,
        ) -> (Arc<Self>, Vec<Node>) {
            let mesh = Arc::new(FrameMesh {
                ingress: OnceLock::new(),
                write_nanos: Arc::new(Histogram::new()),
                delivered: Default::default(),
                hold: Mutex::new(()),
                arrived: AtomicU64::new(0),
                batches: Mutex::new(Vec::new()),
            });
            let nodes: Vec<Node> = members()
                .into_iter()
                .map(|id| {
                    let outbound = Arc::clone(&mesh) as Arc<dyn Outbound<u64, GCounter>>;
                    let shared = NodeShared::new_observed(shards, trace);
                    let config = config.clone();
                    Node::start_with_shared(
                        id,
                        members(),
                        shards,
                        config,
                        shared,
                        outbound,
                        workers,
                    )
                })
                .collect();
            assert!(mesh.ingress.set(nodes.iter().map(Node::ingress).collect()).is_ok());
            eventually("every assignment to be published", || {
                nodes.iter().all(|node| node.shared.published().is_some())
            });
            (mesh, nodes)
        }
    }

    impl FrameMesh {
        /// Where every sender stalls while a test has the mesh held.
        fn pass_hold(&self) {
            self.arrived.fetch_add(1, Ordering::Release);
            drop(self.hold.lock().unwrap());
        }

        /// Encodes and delivers one envelope.
        fn ship(&self, envelope: ShardEnvelope<KvMap>) {
            let to = envelope.to.as_u64() as usize;
            let Some(target) = self.ingress.get().and_then(|all| all.get(to)) else {
                return;
            };
            let write = Stopwatch::start();
            let frame = Bytes::from(wire::to_vec(&envelope.message).expect("encode envelope"));
            if crdt_paxos_core::peek_protocol(&frame).is_some() {
                self.delivered[to].fetch_add(1, Ordering::Relaxed);
            }
            target.deliver_frame(envelope.from, frame);
            self.write_nanos.record(write.elapsed_nanos());
        }
    }

    impl Outbound<u64, GCounter> for FrameMesh {
        fn send(&self, envelope: ShardEnvelope<KvMap>) {
            self.pass_hold();
            self.ship(envelope);
        }

        fn send_batch(&self, envelopes: &mut Vec<ShardEnvelope<KvMap>>) {
            self.pass_hold();
            if envelopes.first().is_some_and(|envelope| envelope.from == ReplicaId::new(0)) {
                let frames = envelopes.iter().filter_map(|envelope| match &envelope.message {
                    ShardMessage::Protocol { shard, message, .. } => {
                        Some((envelope.to.as_u64(), *shard, message.request()))
                    }
                    _ => None,
                });
                self.batches.lock().unwrap().push(frames.collect());
            }
            envelopes.drain(..).for_each(|envelope| self.ship(envelope));
        }
    }

    /// Collects responses at `node` until every id in `commands` is answered.
    fn await_all(node: &Node, commands: &[CommandId]) {
        let mut open: Vec<CommandId> = commands.to_vec();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !open.is_empty() {
            assert!(Instant::now() < deadline, "{} commands unanswered", open.len());
            if let Some(response) = node.wait_response(Duration::from_millis(10)) {
                let slot = open.iter().position(|&id| id == response.command);
                open.swap_remove(slot.expect("a response to a command not in flight"));
                assert!(
                    matches!(response.body, ResponseBody::UpdateDone | ResponseBody::QueryDone(_)),
                    "{:?}",
                    response.body
                );
            }
        }
    }

    /// The accounting contract the benchmark's traced run and `tests/tcp_node.rs`
    /// hold the engine to: every command a node proposes files exactly one
    /// submit-queue and one quorum-wait sample (and one ring event per
    /// station) — through a cutover that re-homes in-flight commands, and for
    /// commands and frames routed under a superseded snapshot, which the
    /// workers hand back — and every stage has data over an encoding mesh.
    #[test]
    fn stage_accounting_is_exact_across_a_cutover_with_reroutes() {
        let (mesh, nodes) =
            FrameMesh::cluster(ProtocolConfig::default(), TraceConfig::sampled(1, 4096));
        let node = &nodes[0];
        node.obs().register_histogram("stage_socket_write_nanos", Arc::clone(&mesh.write_nanos));
        let client = ClientId(7);
        let mut proposed = Vec::new();

        // Steady state, one at a time: writes and reads over eight keys.
        for key in 0..8u64 {
            let update = node.submit(client, increment(key));
            await_all(node, &[update]);
            let query = node.submit(client, read(key));
            await_all(node, &[query]);
            proposed.extend([update, query]);
        }

        // A burst left in flight across a 2 → 4 split: the cutover cancels
        // and re-homes whatever it catches open.
        let stale = node.shared.published().expect("published");
        let burst: Vec<CommandId> = (0..64u64)
            .map(|n| match n % 2 {
                0 => node.submit(client, increment(n % 8)),
                _ => node.submit(client, read(n % 8)),
            })
            .collect();
        node.begin_rebalance(4);
        eventually("the split to install", || {
            nodes.iter().all(|node| node.epoch() == 1 && node.shard_count() == 4)
                && node.rebalance_idle()
                && node.shared.published().is_some()
        });
        await_all(node, &burst);
        proposed.extend(burst);

        // Commands routed under the superseded snapshot — what a submitter
        // that read it just before the cutover would push.
        let late: Vec<CommandId> = (0..8u64)
            .map(|key| {
                let outer = CommandId(node.shared.next_command.fetch_add(1, Ordering::Relaxed));
                node.shared.admission.acquire();
                let queued_at = now_nanos(node.shared.start);
                assert!(stale
                    .route_single(client, outer, increment(key), Some(queued_at), None)
                    .is_ok());
                outer
            })
            .collect();
        await_all(node, &late);
        proposed.extend(late);
        // The same for peer traffic, encoded and decoded: handed back and
        // bounced, never applied.
        let message = ShardMessage::Protocol {
            epoch: 0,
            shards: 2,
            shard: ShardId(0),
            message: Message::MergeAck { request: RequestId(u64::MAX) },
        };
        let frame = Bytes::from(wire::to_vec(&message).expect("encode"));
        let at = now_nanos(node.shared.start);
        // The worker reads the superseded stamp off the frame's preamble and
        // hands the bytes back as they came: a frame whose body would not
        // even decode is rerouted all the same, not dropped as undecodable.
        let merge = ShardMessage::Protocol {
            epoch: 0,
            shards: 2,
            shard: ShardId(0),
            message: Message::Merge {
                request: RequestId(u64::MAX),
                payload: Payload::Full([(3, GCounter::new())].into_iter().collect::<KvMap>()),
            },
        };
        let merge = wire::to_vec(&merge).expect("encode");
        let cut_short = Bytes::from(merge[..merge.len() - 1].to_vec());
        assert!(stale.dispatch(IngressItem::Frame(ReplicaId::new(1), cut_short), at).is_ok());
        assert!(stale.dispatch(IngressItem::Frame(ReplicaId::new(1), frame), at).is_ok());
        assert!(stale.dispatch(IngressItem::Message(ReplicaId::new(1), message), at).is_ok());
        // Eleven forced here; the cutover may have overtaken some of the burst
        // too (a submit drained together with the `Install` is applied after
        // it).
        eventually("the reroutes to be counted", || node.obs_snapshot().counter("rerouted") >= 11);
        assert_eq!(node.obs_snapshot().counter("frames_undecodable"), 0);

        // Steady state under the new assignment.
        for key in 0..8u64 {
            let update = node.submit(client, increment(key));
            await_all(node, &[update]);
            proposed.push(update);
        }

        let snapshot = node.obs_snapshot();
        let samples = |stage: Stage| {
            let name = format!("stage_{}_nanos", stage.name());
            snapshot.histogram(&name).map_or(0, |histogram| histogram.count())
        };
        assert_eq!(samples(Stage::SubmitQueue), proposed.len() as u64);
        assert_eq!(samples(Stage::QuorumWait), proposed.len() as u64);
        for stage in Stage::ALL {
            assert!(samples(stage) > 0, "no samples recorded for {}", stage.name());
        }
        let events = node.trace_events();
        for stage in [Stage::SubmitQueue, Stage::MailboxDwell, Stage::QuorumWait] {
            let mut logged: Vec<u64> =
                events.iter().filter(|event| event.stage == stage).map(|e| e.command).collect();
            logged.sort_unstable();
            let mut expected: Vec<u64> = proposed.iter().map(|id| id.0).collect();
            expected.sort_unstable();
            assert_eq!(logged, expected, "{} ring events", stage.name());
        }
        assert_eq!(node.try_response().map(|response| response.command), None);
    }

    /// The pump cycle is the unit of agreement: commands a worker drains
    /// together share one update and one query instance, commands that arrive
    /// one at a time get one each. Either way every command is answered once,
    /// under its own id, and the per-key history is linearizable. A cycle that
    /// opens both sends no `MERGE` — its `PREPARE`s carry the writes — so the
    /// burst costs fewer than two frames (and two replies) per instance.
    #[test]
    fn a_burst_drained_together_opens_one_instance_per_kind() {
        use cluster::{check_keyed_history, HistoryOp, OpKind};
        use crdt::MapOutput;

        // No retransmissions: a re-sent `MERGE` would be answered again.
        let config = ProtocolConfig { retransmit_after_ms: 0, ..Default::default() };
        let (mesh, nodes) = FrameMesh::cluster(config, TraceConfig::disabled());
        let node = &nodes[0];
        let client = ClientId(7);
        let partitioner = HashPartitioner::new(2);
        let keys: Vec<u64> =
            (0..).filter(|key| partitioner.shard_of(key) == ShardId(0)).take(4).collect();
        let opened = || node.obs_snapshot().counter("instances_opened");
        let delivered = || mesh.delivered[0].load(Ordering::Relaxed);
        let sent = || mesh.batches.lock().unwrap().iter().map(Vec::len).sum::<usize>() as u64;

        let start = Instant::now();
        let micros = || start.elapsed().as_micros() as u64;
        // The `n`th command — a write and a read of each key in turn —
        // submitted: `(id, key, invocation time)`.
        let submit = |n: u64| {
            let key = keys[(n / 2) as usize % keys.len()];
            let command = match n % 2 {
                0 => increment(key),
                _ => read(key),
            };
            let invoked_us = micros();
            (node.submit(client, command), key, invoked_us)
        };
        // Waits until each of `open` is answered, once: `(key, operation)`.
        let collect = |mut open: Vec<(CommandId, u64, u64)>| -> Vec<(u64, HistoryOp)> {
            let mut history = Vec::new();
            while !open.is_empty() {
                let response =
                    node.wait_response(Duration::from_secs(30)).expect("a command unanswered");
                let slot = open.iter().position(|&(id, _, _)| id == response.command);
                let (_, key, invoked_us) =
                    open.swap_remove(slot.expect("answered twice, or never submitted"));
                let kind = match response.body {
                    ResponseBody::UpdateDone => OpKind::Increment(1),
                    ResponseBody::QueryDone(MapOutput::Value(value)) => {
                        OpKind::Read(value.unwrap_or(0))
                    }
                    other => panic!("{other:?}"),
                };
                history.push((key, HistoryOp { invoked_us, responded_us: micros(), kind }));
            }
            history
        };

        // One at a time: a cycle of one, an instance per command, two replies
        // to each.
        let mut history: Vec<(u64, HistoryOp)> =
            (0..16).flat_map(|n| collect(vec![submit(n)])).collect();
        eventually("the late replies", || delivered() == 2 * 16);
        assert_eq!((opened(), sent()), (16, 2 * 16));

        // A burst submitted while the mesh is held: the worker stalls shipping
        // the first cycle's proposals, whatever that cycle caught, and finds
        // the rest of the burst queued when it comes back. Two cycles at
        // most, so four instances at most — for 64 commands — and at least
        // one of the cycles has both kinds.
        let held = mesh.hold.lock().unwrap();
        let burst: Vec<_> = (16..16 + 64).map(submit).collect();
        drop(held);
        history.extend(collect(burst));
        assert_eq!(history.len(), 16 + 64);
        let instances = opened() - 16;
        assert!((2..=4).contains(&instances), "{instances} instances for 64 commands");
        eventually("the late replies", || delivered() == sent());
        let frames = sent() - 2 * 16;
        assert!(frames < 2 * instances, "{frames} frames for {instances} instances");

        assert_eq!(node.try_response().map(|response| response.command), None);
        if let Err((key, violation)) = check_keyed_history(&history) {
            panic!("key {key}: {violation}");
        }
        // Per-command accounting is untouched by the grouping.
        let snapshot = node.obs_snapshot();
        for stage in [Stage::SubmitQueue, Stage::QuorumWait] {
            let name = format!("stage_{}_nanos", stage.name());
            assert_eq!(snapshot.histogram(&name).map_or(0, |h| h.count()), 16 + 64);
        }
    }

    /// The first key of each of `shards` hash-partitioned shards.
    fn a_key_of_every_shard(shards: u32) -> Vec<u64> {
        let partitioner = HashPartitioner::new(shards);
        let first_of = |shard| (0..).find(|key| partitioner.shard_of(key) == ShardId(shard));
        (0..shards).map(|shard| first_of(shard).expect("a key of every shard")).collect()
    }

    /// A worker that serves four shards ships what all of them said in one
    /// cycle as one batch: with the mesh held behind a first command, commands
    /// for keys of all four shards queue up, and on release they leave node 0
    /// in a single `send_batch`, one run per peer. Eight instances open, but
    /// each peer gets four frames: a shard's update rides the `PREPARE` of its
    /// query, which carries the writes. Every command is still answered once,
    /// linearizably, and accounted on its own.
    #[test]
    fn four_shards_on_one_worker_ship_one_batch_per_peer() {
        use cluster::{check_keyed_history, HistoryOp, OpKind};
        use crdt::MapOutput;

        // No retransmissions: a re-sent proposal would be a batch of its own.
        let config = ProtocolConfig { retransmit_after_ms: 0, ..Default::default() };
        let (mesh, nodes) = FrameMesh::cluster_of(4, Some(1), config, TraceConfig::disabled());
        let node = &nodes[0];
        assert_eq!(node.obs_snapshot().counter("worker_threads"), 1);
        let client = ClientId(7);
        let keys = a_key_of_every_shard(4);
        let start = Instant::now();
        let micros = || start.elapsed().as_micros() as u64;

        // The plug: the worker takes it alone and stalls shipping its `MERGE`.
        let held = mesh.hold.lock().unwrap();
        let arrived = mesh.arrived.load(Ordering::Acquire);
        let mut open = vec![(node.submit(client, increment(keys[0])), keys[0], micros())];
        eventually("the worker to stall", || mesh.arrived.load(Ordering::Acquire) > arrived);
        // A write and a read of a key of every shard, queued behind it.
        for &key in &keys {
            open.push((node.submit(client, increment(key)), key, micros()));
            open.push((node.submit(client, read(key)), key, micros()));
        }
        let commands = open.len() as u64;
        drop(held);

        let mut history = Vec::new();
        while !open.is_empty() {
            let response =
                node.wait_response(Duration::from_secs(30)).expect("a command unanswered");
            let slot = open.iter().position(|&(id, _, _)| id == response.command);
            let (_, key, invoked_us) =
                open.swap_remove(slot.expect("answered twice, or never submitted"));
            let kind = match response.body {
                ResponseBody::UpdateDone => OpKind::Increment(1),
                ResponseBody::QueryDone(MapOutput::Value(value)) => {
                    OpKind::Read(value.unwrap_or(0))
                }
                other => panic!("{other:?}"),
            };
            history.push((key, HistoryOp { invoked_us, responded_us: micros(), kind }));
        }
        assert_eq!(node.try_response().map(|response| response.command), None);
        if let Err((key, violation)) = check_keyed_history(&history) {
            panic!("key {key}: {violation}");
        }

        // The plug's batch, then everything else in one.
        let batches = mesh.batches.lock().unwrap().clone();
        assert_eq!(batches.len(), 2, "{batches:?}");
        assert_eq!(batches[0].len(), 2, "one MERGE to each peer: {:?}", batches[0]);
        let burst = &batches[1];
        assert!(burst.windows(2).all(|pair| pair[0].0 <= pair[1].0), "one run per peer: {burst:?}");
        for peer in [1, 2] {
            let mut instances: Vec<_> = burst.iter().filter(|frame| frame.0 == peer).collect();
            // The query instance of each shard, carrying its update.
            assert_eq!(instances.len(), 4, "to {peer}: {burst:?}");
            instances.sort_unstable();
            instances.dedup();
            assert_eq!(instances.len(), 4, "to {peer}: {burst:?}");
            for shard in 0..4 {
                let of_shard = instances.iter().filter(|frame| frame.1 == ShardId(shard));
                assert_eq!(of_shard.count(), 1, "shard {shard} to {peer}: {burst:?}");
            }
        }

        let snapshot = node.obs_snapshot();
        for stage in [Stage::SubmitQueue, Stage::QuorumWait] {
            let name = format!("stage_{}_nanos", stage.name());
            assert_eq!(snapshot.histogram(&name).map_or(0, |h| h.count()), commands);
        }
        assert_eq!(snapshot.counter("instances_opened"), 1 + 8);
        // One wake-up served all four shards.
        let (cycles, shard_cycles) =
            (snapshot.counter("worker_cycles"), snapshot.counter("shard_cycles"));
        assert!(shard_cycles >= cycles + 3, "{shard_cycles} shards served in {cycles} cycles");
    }

    /// A node runs `min(shards, cores)` worker threads — `cores` being the
    /// test's cap where it pins one — and a thread is spawned only when its
    /// first shard appears.
    #[test]
    fn a_node_runs_as_many_workers_as_it_has_shards_or_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
        let threads = |node: &Node| node.obs_snapshot().counter("worker_threads");
        let layouts =
            [(Some(1), 1), (Some(2), 2), (Some(4), 4), (Some(8), 4), (None, cores.min(4))];
        for (workers, expected) in layouts {
            let (config, trace) = (ProtocolConfig::default(), TraceConfig::disabled());
            let (_mesh, nodes) = FrameMesh::cluster_of(4, workers, config, trace);
            for node in &nodes {
                assert_eq!(threads(node), expected as u64, "4 shards, capped at {workers:?}");
            }
        }

        let (config, trace) = (ProtocolConfig::default(), TraceConfig::disabled());
        let (_mesh, nodes) = FrameMesh::cluster_of(2, Some(4), config, trace);
        assert!(nodes.iter().all(|node| threads(node) == 2));
        nodes[0].begin_rebalance(6);
        // Shards 2 and 3 bring a thread each, 4 and 5 join those of 0 and 1.
        eventually("the split to spawn two more threads", || {
            nodes.iter().all(|node| node.shard_count() == 6 && threads(node) == 4)
        });
        eventually("the split to settle", || {
            nodes.iter().all(|node| node.obs_snapshot().counter("plans_installed") == 1)
        });
        assert!(nodes.iter().all(|node| threads(node) == 4));
    }

    /// Commands that arrive one at a time are cycles of one on whatever
    /// thread serves their shard: 16 commands over the keys of four shards
    /// open 16 instances and bring node 0 two replies each, with a thread per
    /// shard (the layout every node had before shards shared threads) and with
    /// all four on one.
    #[test]
    fn one_command_at_a_time_costs_the_same_frames_at_any_layout() {
        for workers in [4, 1] {
            // No retransmissions: a re-sent `MERGE` would be answered again.
            let config = ProtocolConfig { retransmit_after_ms: 0, ..Default::default() };
            let (mesh, nodes) =
                FrameMesh::cluster_of(4, Some(workers), config, TraceConfig::disabled());
            let node = &nodes[0];
            let keys = a_key_of_every_shard(4);
            for n in 0..16 {
                let key = keys[n / 2 % keys.len()];
                let command = if n % 2 == 0 { increment(key) } else { read(key) };
                await_all(node, &[node.submit(ClientId(7), command)]);
            }
            eventually("the late replies", || mesh.delivered[0].load(Ordering::Relaxed) == 2 * 16);
            assert_eq!(node.obs_snapshot().counter("instances_opened"), 16, "{workers} workers");
        }
    }

    /// Runs `reads` updates and then as many quiet reads through node 0 of a
    /// three-replica cluster over the encoding mesh, one command at a time,
    /// and returns per node `(protocol frames delivered, frames decoded,
    /// replies skipped)` once every frame has been accounted for.
    fn frame_accounting(payload_mode: PayloadMode, reads: u64) -> Vec<(u64, u64, u64)> {
        // No retransmissions: on a slow machine a re-sent `PREPARE` would be
        // answered by `ACK`s of its own.
        let config = ProtocolConfig { payload_mode, retransmit_after_ms: 0, ..Default::default() };
        let (mesh, nodes) = FrameMesh::cluster(config, TraceConfig::disabled());
        let client = ClientId(7);
        for command in (0..reads).map(increment).chain((0..reads).map(read)) {
            let id = nodes[0].submit(client, command);
            await_all(&nodes[0], &[id]);
        }
        let accounts = || -> Vec<(u64, u64, u64)> {
            nodes
                .iter()
                .zip(&mesh.delivered)
                .map(|(node, delivered)| {
                    let snapshot = node.obs_snapshot();
                    let decoded = snapshot.histogram("stage_decode_nanos").map_or(0, |h| h.count());
                    assert_eq!(snapshot.counter("frames_undecodable"), 0);
                    assert_eq!(snapshot.counter("rerouted"), 0);
                    let skipped = snapshot.counter("replies_skipped");
                    (delivered.load(Ordering::Relaxed), decoded, skipped)
                })
                .collect()
        };
        // A command is answered at quorum; the third replica's frames are
        // still on their way then. Every frame there will ever be — two out
        // and two back per command — has to be in before the books can close:
        // a worker that has decoded its backlog has not yet shipped the
        // replies.
        eventually("every frame to be delivered and decoded or skipped", || {
            let accounts = accounts();
            accounts.iter().map(|&(delivered, _, _)| delivered).sum::<u64>() == 8 * reads
                && accounts
                    .iter()
                    .all(|&(delivered, decoded, skipped)| delivered == decoded + skipped)
        });
        let accounts = accounts();
        for node in nodes {
            node.shutdown();
        }
        accounts
    }

    /// In the paper's full-state mode a quiet read is answered by the first
    /// peer `ACK`; the second arrives for an instance that is gone, and is
    /// dropped at the peek — exactly one per read, nothing else, and only at
    /// the proposer. Every other frame is decoded, and counted as decoded.
    #[test]
    fn late_acks_are_skipped_undecoded_in_full_mode() {
        let reads = 40;
        let accounts = frame_accounting(PayloadMode::Full, reads);
        // Per command the proposer hears from both peers, each peer once
        // from the proposer.
        assert_eq!(accounts[0], (4 * reads, 3 * reads, reads));
        assert_eq!(accounts[1], (2 * reads, 2 * reads, 0));
        assert_eq!(accounts[2], (2 * reads, 2 * reads, 0));
    }

    /// With delta payloads a late reply still teaches the proposer what its
    /// peer holds, so none is skipped.
    #[test]
    fn late_acks_are_decoded_in_delta_mode() {
        let reads = 40;
        for (delivered, decoded, skipped) in frame_accounting(PayloadMode::DeltaWhenPossible, reads)
        {
            assert_eq!((delivered - decoded, skipped), (0, 0));
        }
    }
}
