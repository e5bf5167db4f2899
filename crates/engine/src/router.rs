//! The per-node router thread: the engine-side twin of the single-threaded
//! [`ShardedReplica`] router, driving worker threads instead of an in-place
//! `Vec<ShardCore>` — and, in steady state, **off the per-command path**.
//!
//! The router is a node's single stamp authority: it alone decides what the
//! current assignment is. What it decided is written down in an
//! [`Assignment`] — stamp, partitioner and the active workers' mailboxes, one
//! immutable value — and *published* on [`NodeShared`]. Whoever holds traffic
//! for the node (a client thread in `submit`, a transport pump or a peer's
//! worker in `NodeIngress::deliver*`) reads the published snapshot, runs the
//! same [`Assignment::dispatch`] / [`Assignment::route_single`] the router
//! runs, and pushes straight onto the owning worker's mailbox. The router
//! keeps what needs one authority:
//!
//! * **The slow half of the ingress demux** — whatever `dispatch` hands back:
//!   control traffic, plans and plan requests, protocol messages the fence
//!   bounces or defers, and everything that arrives while nothing is
//!   published.
//! * **Control shard** — the `Replica<ControlState>` that agrees rebalance
//!   plans runs inline on the router (it is tiny and latency-insensitive).
//! * **Rebalance choreography** — a plan install sends `Install` to every
//!   worker, gathers their handoff/re-home replies at a barrier, then ships
//!   the joined sub-states and resyncs to the destination workers. The barrier
//!   only blocks the router (workers keep draining their mailboxes), and
//!   mirrors the single-threaded install step for step.
//! * **Fan-out aggregation** — keyspace-wide queries fan one leg per shard and
//!   the router folds the answers, filtered to the keys each shard owns under
//!   the current assignment.
//!
//! ## Publish / un-publish
//!
//! A cutover must not let traffic of the new assignment reach a worker before
//! that worker's `Absorb` (a read could miss the handed-off state). When the
//! router was the only producer, blocking in the barrier was enough. Now the
//! install **un-publishes** the snapshot before the first `Install` is pushed
//! — from then on every direct producer falls back to the router's queues,
//! which the barrier does not drain — and publishes the new one only after the
//! last `Absorb` and the re-homed resubmits are on their mailboxes. A producer
//! that read the *old* snapshot just before may still push behind an
//! `Install`; the worker catches that by re-checking the stamp tag and hands
//! the input back ([`WorkerFeedback::Stale`]); the barrier sets those aside
//! and routes them once the absorbs are out.
//!
//! [`ShardedReplica`]: crdt_paxos_core::ShardedReplica

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crdt::{
    GSetUpdate, Lattice, LatticeMap, MapOutput, MapQuery, MapUpdate, ReplicaId, SetOutput, SetQuery,
};
use crdt_paxos_core::{
    fence_decision, winning_shards, ClientId, ClientResponse, Command, CommandId, ControlState,
    Envelope, FenceDecision, Message, PlanPartitioner, ProtocolConfig, RebalancePlan,
    RehomedCommand, Replica, RequestId, ResponseBody, ShardEnvelope, ShardMessage, Stamp,
};
use quorum::{EpochPartitioner, HashPartitioner, Partitioner, ShardId};

use obs::{Stage, Stopwatch};

use crate::mailbox::Mailbox;
use crate::mesh::Outbound;
use crate::node::{IngressItem, NodeShared};
use crate::telemetry::{now_nanos, RouterObs, WorkerObs};
use crate::worker::{
    spawn_worker, StaleInput, Submit, WorkerFeedback, WorkerHandle, WorkerInput, PARK,
};
use crate::{EngineKey, EngineValue};

/// The wire variant index of [`ShardMessage::Protocol`] — the first declared
/// variant, encoded by the `wire` format as a leading varint tag.
/// [`peek_protocol`] depends on this staying the first variant; the
/// `peek_matches_full_decode` test pins the coupling.
const PROTOCOL_TAG: u64 = 0;

/// How many kinds of [`Message`] there are: the wire variant indices
/// [`Peek::kind`] ranges over. Pinned, like the two reply kinds below, by
/// `peek_matches_full_decode`: `Message`'s variant order is part of what the
/// peek reads.
pub(crate) const MESSAGE_KINDS: usize = 7;

/// The wire variant indices of the two replies that carry an acceptor's state,
/// [`Message::PrepareAck`] and [`Message::Nack`].
const STATE_REPLY_KINDS: [usize; 2] = [3, 6];

/// What [`peek_protocol`] reads off the front of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Peek {
    /// The assignment the sender routed by.
    pub stamp: Stamp,
    /// The shard the message is for.
    pub shard: ShardId,
    /// Which [`Message`] variant the frame holds, as its wire variant index
    /// (always below [`MESSAGE_KINDS`]).
    pub kind: usize,
    /// The protocol instance the message belongs to.
    pub request: RequestId,
}

impl Peek {
    /// Whether the frame is an `ACK` or a `NACK`: a reply that carries the
    /// acceptor's whole state, and is worth nothing once its instance is gone.
    pub(crate) fn is_state_reply(&self) -> bool {
        STATE_REPLY_KINDS.contains(&self.kind)
    }
}

/// Reads the preamble of an encoded [`ShardMessage`] frame without decoding
/// (or allocating) the message body.
///
/// A [`ShardMessage::Protocol`] frame starts with six LEB128 varints — the
/// variant tag, the `epoch`, `shards` and `shard` fields in declaration order,
/// then the inner [`Message`]'s own variant tag and its first field, which in
/// every variant is `request` — which is everything the fence needs to route
/// the frame and everything a worker needs to pick where to decode it, or
/// whether to. Returns `None` for any other variant tag and for frames too
/// mangled to carry a preamble; both take the owned full-decode path instead.
pub(crate) fn peek_protocol(frame: &[u8]) -> Option<Peek> {
    let mut rest = frame;
    let mut varint = || wire::varint::decode_u64(&mut rest).ok();
    if varint()? != PROTOCOL_TAG {
        return None;
    }
    let epoch = varint()?;
    let shards = u32::try_from(varint()?).ok()?;
    let shard = u32::try_from(varint()?).ok()?;
    let kind = usize::try_from(varint()?).ok().filter(|&kind| kind < MESSAGE_KINDS)?;
    let request = RequestId(varint()?);
    Some(Peek { stamp: (epoch, shards), shard: ShardId(shard), kind, request })
}

/// One assignment, as the router decided it: the stamp, the partitioner that
/// maps keys to shards under it, and the mailboxes of the shard workers active
/// under it. Immutable — a cutover replaces the whole value — so any thread
/// can route by a snapshot of it without coordinating with the router; what a
/// snapshot cannot promise is that it is still current when the push lands,
/// which is why everything routed here is tagged with `stamp` for the worker
/// to re-check.
pub(crate) struct Assignment<K: EngineKey, V: EngineValue> {
    stamp: Stamp,
    partitioner: HashPartitioner,
    workers: Vec<Arc<Mailbox<WorkerInput<K, V>>>>,
}

impl<K: EngineKey, V: EngineValue> Assignment<K, V> {
    /// Enqueues `input` for `shard`; traffic for a shard beyond the active
    /// set is dropped, like any lost message.
    fn push(&self, shard: ShardId, input: WorkerInput<K, V>) {
        if let Some(mailbox) = self.workers.get(shard.as_usize()) {
            mailbox.push(input);
        }
    }

    fn admits(&self, stamp: Stamp) -> bool {
        fence_decision(self.stamp, stamp) == FenceDecision::Process
    }

    /// The fast half of the ingress demux: protocol traffic whose stamp passes
    /// the fence goes to its shard worker — a frame still encoded, after a
    /// [`peek_protocol`] of its preamble; the body decode happens on the
    /// worker thread. Everything else is handed back for the router: control
    /// traffic, plans, plan requests, and protocol messages the fence bounces
    /// or defers (which need the owned decode for the deferred queue).
    pub(crate) fn dispatch(
        &self,
        item: IngressItem<K, V>,
        at: u64,
    ) -> Result<(), IngressItem<K, V>> {
        match item {
            IngressItem::Frame(from, frame) => match peek_protocol(&frame) {
                Some(peek) if self.admits(peek.stamp) => {
                    self.push(peek.shard, WorkerInput::Frame { from, frame, at });
                    Ok(())
                }
                _ => Err(IngressItem::Frame(from, frame)),
            },
            IngressItem::Message(
                from,
                ShardMessage::Protocol { epoch, shards, shard, message },
            ) if self.admits((epoch, shards)) => {
                self.push(shard, WorkerInput::Peer { from, stamp: self.stamp, message, at });
                Ok(())
            }
            other => Err(other),
        }
    }

    /// Routes a single-key command to its owner's mailbox — the same split as
    /// `ShardedReplica::submit`; keyspace-wide queries are handed back for the
    /// router's fan-out. See [`Submit`] for the two timestamps.
    pub(crate) fn route_single(
        &self,
        client: ClientId,
        outer: CommandId,
        command: Command<LatticeMap<K, V>>,
        queued_at: Option<u64>,
        routed_at: Option<u64>,
    ) -> Result<(), Command<LatticeMap<K, V>>> {
        let key = match &command {
            Command::Update(MapUpdate::Apply { key, .. })
            | Command::Query(MapQuery::Get { key, .. }) => key.clone(),
            Command::Query(MapQuery::Len | MapQuery::Keys) => return Err(command),
        };
        let stamp = self.stamp;
        let submit = Submit { client, outer, key, command, stamp, queued_at, routed_at };
        self.push(self.partitioner.shard_of(&submit.key), WorkerInput::Submit(submit));
        Ok(())
    }
}

/// Client-facing requests the node handle leaves to the router.
pub enum RouterRequest<K: EngineKey, V: EngineValue> {
    /// A client command under a handle-allocated outer id, still holding its
    /// admission slot.
    Submit {
        /// The submitting client.
        client: ClientId,
        /// The outer command id allocated by the node handle.
        outer: CommandId,
        /// The command to route.
        command: Command<LatticeMap<K, V>>,
        /// When the handle queued the request (nanoseconds on the node's
        /// observability time base); the first dequeue time minus this is the
        /// submit-queue dwell.
        queued_at: u64,
    },
    /// Coordinate a rebalance of the cluster to `target` shards.
    Rebalance {
        /// The requested number of shards.
        target: u32,
    },
}

/// Messages deferred because their stamp is ahead of the local assignment.
type Deferred<K, V> = (ReplicaId, Stamp, ShardId, Message<LatticeMap<K, V>>);

/// The coordinator's two-step rebalance choreography (commit the proposal,
/// then read back the deterministic winner).
#[derive(Debug, Clone, Copy)]
enum ControlPhase {
    Committing { command: CommandId, epoch: u64 },
    Reading { command: CommandId, epoch: u64 },
}

/// A keyspace-wide query being aggregated across shard legs.
struct Fanout<K> {
    client: ClientId,
    remaining: usize,
    round_trips: u32,
    failed: bool,
    acc: FanoutAcc<K>,
}

enum FanoutAcc<K> {
    Len(u64),
    Keys(Vec<K>),
}

pub(crate) struct Router<K: EngineKey, V: EngineValue> {
    id: ReplicaId,
    members: Vec<ReplicaId>,
    config: ProtocolConfig,
    partitioner: EpochPartitioner<HashPartitioner>,
    plan: Option<RebalancePlan>,
    control: Replica<ControlState>,
    control_phase: Option<ControlPhase>,
    queued_target: Option<u32>,
    fanouts: BTreeMap<CommandId, Fanout<K>>,
    deferred: Vec<Deferred<K, V>>,
    /// Persistent scratch for [`Router::flush_control_outbox`]: the drained
    /// control envelopes and the wrapped batch handed to the outbound sink.
    /// Both keep their capacity across flushes, so a steady-state flush
    /// allocates nothing.
    control_scratch: Vec<Envelope<ControlState>>,
    control_outbox: Vec<ShardEnvelope<LatticeMap<K, V>>>,
    /// Every worker ever spawned, retired ones included (a shrink keeps them).
    workers: Vec<WorkerHandle<K, V>>,
    /// The assignment the router itself routes by — the one it last built,
    /// published or not.
    assignment: Arc<Assignment<K, V>>,
    shared: Arc<NodeShared<K, V>>,
    outbound: Arc<dyn Outbound<K, V>>,
    start: Instant,
    obs: RouterObs,
}

impl<K: EngineKey, V: EngineValue> Router<K, V> {
    /// Future-stamped messages buffered per node (same cap as the
    /// single-threaded router).
    const DEFERRED_CAP: usize = 4096;

    pub(crate) fn new(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
        shared: Arc<NodeShared<K, V>>,
        outbound: Arc<dyn Outbound<K, V>>,
        start: Instant,
    ) -> Self {
        assert!(shards > 0, "a keyspace needs at least one shard");
        let control = Replica::new(id, members.clone(), ControlState::default(), config.clone());
        let obs = RouterObs::new(&shared.obs, shared.trace);
        shared.rings.lock().expect("trace ring list poisoned").push(Arc::clone(&obs.ring));
        let partitioner = EpochPartitioner::new(HashPartitioner::new(shards));
        let assignment = Arc::new(Assignment {
            stamp: (0, shards),
            partitioner: *partitioner.inner(),
            workers: Vec::new(),
        });
        let mut router = Router {
            id,
            members,
            config,
            partitioner,
            plan: None,
            control,
            control_phase: None,
            queued_target: None,
            fanouts: BTreeMap::new(),
            deferred: Vec::new(),
            control_scratch: Vec::new(),
            control_outbox: Vec::new(),
            workers: Vec::new(),
            assignment,
            shared,
            outbound,
            start,
            obs,
        };
        for shard in 0..shards {
            router.spawn_shard(ShardId(shard));
        }
        router.assignment = router.current_assignment();
        router.publish(Some(Arc::clone(&router.assignment)));
        router
    }

    /// The router's current decision as a routable value: its stamp and
    /// partitioner plus the mailboxes of the workers active under them.
    fn current_assignment(&self) -> Arc<Assignment<K, V>> {
        Arc::new(Assignment {
            stamp: self.stamp(),
            partitioner: *self.partitioner.inner(),
            workers: self.workers[..self.active()]
                .iter()
                .map(|worker| Arc::clone(&worker.mailbox))
                .collect(),
        })
    }

    /// Replaces the snapshot direct producers route by; `None` sends them to
    /// the router's queues.
    fn publish(&self, assignment: Option<Arc<Assignment<K, V>>>) {
        *self.shared.assignment.write().expect("assignment lock poisoned") = assignment;
    }

    fn spawn_shard(&mut self, shard: ShardId) {
        let worker_obs = WorkerObs::new(&self.shared.obs, self.shared.trace);
        self.shared
            .rings
            .lock()
            .expect("trace ring list poisoned")
            .push(Arc::clone(&worker_obs.ring));
        let handle = spawn_worker(
            shard,
            self.id,
            self.members.clone(),
            self.config.clone(),
            self.stamp(),
            Arc::clone(&self.shared),
            Arc::clone(&self.outbound),
            worker_obs,
        );
        self.workers.push(handle);
    }

    fn stamp(&self) -> Stamp {
        (self.partitioner.epoch(), Partitioner::<K>::shards(&self.partitioner))
    }

    fn active(&self) -> usize {
        Partitioner::<K>::shards(&self.partitioner) as usize
    }

    fn control_client(&self) -> ClientId {
        ClientId(self.id.as_u64())
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn now_nanos(&self) -> u64 {
        now_nanos(self.start)
    }

    pub(crate) fn run(mut self) {
        let mut ingress = Vec::new();
        let mut requests = Vec::new();
        let mut feedback = Vec::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            // First, so that nothing below proposes against the stale clock an
            // untimed park leaves behind.
            self.control.tick(self.now_ms());
            let mut busy = 0;
            let drained = self.shared.ingress.drain_into(&mut ingress);
            self.obs.ingress_depth.observe(drained as u64);
            busy += drained;
            for item in ingress.drain(..) {
                let station = Stopwatch::start();
                self.handle_ingress(item);
                self.shared.stages.record(Stage::RouterIngress, station.elapsed_nanos());
            }
            let drained = self.shared.requests.drain_into(&mut requests);
            self.obs.submit_depth.observe(drained as u64);
            busy += drained;
            for request in requests.drain(..) {
                match request {
                    RouterRequest::Submit { client, outer, command, queued_at } => {
                        self.shared.admission.release();
                        self.submit(client, outer, command, Some(queued_at));
                    }
                    RouterRequest::Rebalance { target } => self.begin_rebalance(target),
                }
            }
            let drained = self.shared.feedback.drain_into(&mut feedback);
            self.obs.feedback_depth.observe(drained as u64);
            busy += drained;
            for item in feedback.drain(..) {
                self.handle_feedback(item);
            }
            self.poll_control();
            self.flush_control_outbox();
            if busy == 0 {
                self.obs.parks.incr();
                // Only plan agreement runs on a timer here (the control
                // replica's retransmissions, and deferred traffic waiting on a
                // plan); with none of it pending, wake on the signal alone.
                let timed = self.control.in_flight() > 0
                    || self.control_phase.is_some()
                    || !self.deferred.is_empty();
                if timed {
                    self.shared.router_signal.wait_timeout(PARK);
                } else {
                    self.shared.router_signal.wait();
                }
            }
        }
        self.publish(None);
        for worker in &self.workers {
            worker.mailbox.push(WorkerInput::Shutdown);
        }
        for worker in self.workers.drain(..) {
            worker.join.join().ok();
        }
    }

    /// Ships the control replica's outbox (plan agreement traffic), batched
    /// per destination like the worker outboxes. Drains through persistent
    /// scratch vectors — no per-flush allocation once their capacity is warm.
    fn flush_control_outbox(&mut self) {
        self.control.drain_outbox_into(&mut self.control_scratch);
        if self.control_scratch.is_empty() {
            return;
        }
        self.control_outbox.extend(self.control_scratch.drain(..).map(|envelope| ShardEnvelope {
            from: envelope.from,
            to: envelope.to,
            message: ShardMessage::Control { message: envelope.message },
        }));
        self.control_outbox.sort_by_key(|envelope| envelope.to);
        self.outbound.send_batch(&mut self.control_outbox);
        self.control_outbox.clear();
    }

    /// Handles one ingress item: [`Assignment::dispatch`] first — the same
    /// call the direct producers make — then, for what it hands back, the same
    /// demux as `ShardedReplica::handle_message`. Frames that reach the slow
    /// half take the owned decode; those that fail it are dropped (the
    /// protocol tolerates lost messages).
    fn handle_ingress(&mut self, item: IngressItem<K, V>) {
        let (from, message) = match self.assignment.dispatch(item, self.now_nanos()) {
            Ok(()) => return,
            Err(IngressItem::Message(from, message)) => (from, message),
            Err(IngressItem::Frame(from, frame)) => match wire::from_bytes(&frame) {
                Ok(message) => (from, message),
                Err(_) => return,
            },
        };
        match message {
            ShardMessage::Protocol { epoch, shards, shard, message } => {
                self.handle_fenced(from, (epoch, shards), shard, message);
            }
            ShardMessage::Control { message } => {
                self.control.handle_message(from, message);
                self.poll_control();
            }
            ShardMessage::Rebalance { plan } => self.install_plan(plan),
            ShardMessage::PlanRequest => self.send_plan(from),
        }
    }

    /// Tells `to` the installed plan, if there is one.
    fn send_plan(&self, to: ReplicaId) {
        if let Some(plan) = self.plan {
            let message = ShardMessage::Rebalance { plan };
            self.outbound.send(ShardEnvelope { from: self.id, to, message });
        }
    }

    /// Answers one protocol message the dispatch fenced off.
    fn handle_fenced(
        &mut self,
        from: ReplicaId,
        stamp: Stamp,
        shard: ShardId,
        message: Message<LatticeMap<K, V>>,
    ) {
        match fence_decision(self.stamp(), stamp) {
            FenceDecision::Bounce => self.send_plan(from),
            FenceDecision::Defer => {
                if self.deferred.len() < Self::DEFERRED_CAP {
                    self.deferred.push((from, stamp, shard, message));
                }
                self.outbound.send(ShardEnvelope {
                    from: self.id,
                    to: from,
                    message: ShardMessage::PlanRequest,
                });
            }
            // A matching stamp never comes back from `dispatch`.
            FenceDecision::Process => self.deliver_fenced(from, shard, message),
        }
    }

    /// Enqueues a protocol message of the router's own assignment.
    fn deliver_fenced(&self, from: ReplicaId, shard: ShardId, message: Message<LatticeMap<K, V>>) {
        let (stamp, at) = (self.stamp(), self.now_nanos());
        self.assignment.push(shard, WorkerInput::Peer { from, stamp, message, at });
    }

    /// Routes a client command the node handle left to the router: single-key
    /// to its owner, through the same [`Assignment::route_single`] the handle
    /// tries first; keyspace-wide as a fan-out. `queued_at` is the submit time
    /// while no worker has accounted for it.
    fn submit(
        &mut self,
        client: ClientId,
        outer: CommandId,
        command: Command<LatticeMap<K, V>>,
        queued_at: Option<u64>,
    ) {
        let now = self.now_nanos();
        let Err(query) = self.assignment.route_single(client, outer, command, queued_at, Some(now))
        else {
            return;
        };
        if let Some(queued_at) = queued_at {
            self.shared.stages.record(Stage::SubmitQueue, now.saturating_sub(queued_at));
            self.obs.ring.record(outer.0, Stage::SubmitQueue, now);
        }
        let acc = match query {
            Command::Query(MapQuery::Len) => FanoutAcc::Len(0),
            Command::Query(MapQuery::Keys) => FanoutAcc::Keys(Vec::new()),
            _ => unreachable!("single-key commands are routed above"),
        };
        self.fanouts
            .insert(outer, Fanout { client, remaining: 0, round_trips: 0, failed: false, acc });
        self.launch_fanout_legs(outer, client);
    }

    fn launch_fanout_legs(&mut self, outer: CommandId, client: ClientId) {
        let active = self.active();
        if let Some(fanout) = self.fanouts.get_mut(&outer) {
            fanout.remaining = active;
        }
        for index in 0..active {
            self.assignment.push(ShardId(index as u32), WorkerInput::FanoutLeg { client, outer });
        }
    }

    /// Folds one worker feedback item into router state. `Rehomed` replies are
    /// consumed by the install barrier and must not appear here.
    fn handle_feedback(&mut self, item: WorkerFeedback<K, V>) {
        match item {
            WorkerFeedback::FanoutLeg { stamp, command, shard, round_trips, keys } => {
                // Legs drained under a superseded assignment are the parallel
                // analogue of purged buffered responses: the fan-out has been
                // restarted, drop them.
                if stamp == self.stamp() {
                    self.absorb_fanout_leg(command, shard, round_trips, keys);
                }
            }
            WorkerFeedback::Stale(StaleInput::Ingress(item)) => self.handle_ingress(item),
            WorkerFeedback::Stale(StaleInput::Submit { client, outer, command, queued_at }) => {
                self.submit(client, outer, command, queued_at);
            }
            WorkerFeedback::Rehomed { .. } => {
                unreachable!("cutover replies are consumed by the install barrier")
            }
        }
    }

    /// Folds one shard's key-list answer into its fan-out aggregate — the same
    /// ownership filtering as `ShardedReplica::absorb_fanout_leg`.
    fn absorb_fanout_leg(
        &mut self,
        command: CommandId,
        shard: ShardId,
        round_trips: u32,
        keys: Option<Vec<K>>,
    ) {
        let owned: Option<Vec<K>> = keys.map(|keys| {
            keys.into_iter().filter(|key| self.partitioner.shard_of(key) == shard).collect()
        });
        let Some(fanout) = self.fanouts.get_mut(&command) else { return };
        fanout.remaining = fanout.remaining.saturating_sub(1);
        fanout.round_trips = fanout.round_trips.max(round_trips);
        match owned {
            Some(keys) => match &mut fanout.acc {
                FanoutAcc::Len(total) => *total += keys.len() as u64,
                FanoutAcc::Keys(all) => all.extend(keys),
            },
            None => fanout.failed = true,
        }
        if fanout.remaining == 0 {
            let fanout = self.fanouts.remove(&command).expect("fan-out present");
            let body = if fanout.failed {
                ResponseBody::QueryFailed
            } else {
                match fanout.acc {
                    FanoutAcc::Len(total) => ResponseBody::QueryDone(MapOutput::Len(total)),
                    FanoutAcc::Keys(mut keys) => {
                        keys.sort();
                        ResponseBody::QueryDone(MapOutput::Keys(keys))
                    }
                }
            };
            self.shared.respond(ClientResponse {
                client: fanout.client,
                command,
                body,
                round_trips: fanout.round_trips,
            });
        }
    }

    /// Starts coordinating a rebalance — the same two-phase control-shard
    /// choreography as `ShardedReplica::begin_rebalance`.
    fn begin_rebalance(&mut self, target: u32) {
        if target == 0 {
            self.refresh_idle();
            return;
        }
        if self.control_phase.is_some() {
            self.queued_target = Some(target);
            return;
        }
        let epoch = self.partitioner.epoch() + 1;
        let command = self.control.submit(
            self.control_client(),
            Command::Update(MapUpdate::Apply { key: epoch, update: GSetUpdate::Insert(target) }),
        );
        self.control_phase = Some(ControlPhase::Committing { command, epoch });
        self.refresh_idle();
    }

    fn refresh_idle(&self) {
        let idle = self.control_phase.is_none() && self.queued_target.is_none();
        self.shared.rebalance_idle.store(idle, Ordering::Release);
    }

    /// Advances the coordinator choreography with control-shard responses.
    fn poll_control(&mut self) {
        for response in self.control.take_responses() {
            let Some(phase) = self.control_phase else { continue };
            match phase {
                ControlPhase::Committing { command, epoch } if command == response.command => {
                    let read = self.control.submit(
                        self.control_client(),
                        Command::Query(MapQuery::Get { key: epoch, query: SetQuery::Elements }),
                    );
                    self.control_phase = Some(ControlPhase::Reading { command: read, epoch });
                }
                ControlPhase::Reading { command, epoch } if command == response.command => {
                    self.control_phase = None;
                    if let ResponseBody::QueryDone(MapOutput::Value(Some(SetOutput::Elements(
                        proposals,
                    )))) = response.body
                    {
                        if let Some(shards) = winning_shards(&proposals) {
                            self.install_plan(RebalancePlan { epoch, shards });
                        }
                    }
                    if let Some(target) = self.queued_target.take() {
                        self.begin_rebalance(target);
                    }
                }
                _ => {}
            }
            self.refresh_idle();
        }
    }

    /// Installs a committed plan across the worker fleet. Mirrors
    /// `ShardedReplica::install_plan` step for step; the structural differences
    /// are the barrier that gathers each worker's cutover reply before the
    /// handoff sub-states are shipped to their destinations, and the
    /// un-publish / publish bracket that keeps direct producers out of the
    /// worker mailboxes in between (see the module docs).
    fn install_plan(&mut self, plan: RebalancePlan) {
        if plan.epoch == 0 || (plan.epoch, plan.shards) <= self.stamp() {
            return;
        }
        let Some(new_inner) = HashPartitioner::from_plan(&plan) else {
            return;
        };
        let old_active = self.active();
        let instances_before = self.workers.len();
        if !self.partitioner.supersede(plan.epoch, new_inner) {
            return;
        }
        self.plan = Some(plan);
        self.shared.epoch.store(plan.epoch, Ordering::Release);
        self.shared.shards.store(plan.shards, Ordering::Release);
        let stamp = self.stamp();
        let new_active = self.active();

        // From here until the publish below, direct producers queue at the
        // router, which does not look at those queues before it is done.
        self.publish(None);

        // Grow the worker fleet; new workers start already fenced at the new
        // stamp. A shrink keeps retired workers: their cores hold harmless
        // lower bounds a later split reactivates in place.
        while self.workers.len() < new_active {
            self.spawn_shard(ShardId(self.workers.len() as u32));
        }
        self.assignment = self.current_assignment();

        // Cutover on every pre-existing worker; handoff extraction only from
        // the previously active ones. The FIFO mailbox orders this before
        // anything the router routes under the new assignment afterwards.
        let partitioner = *self.partitioner.inner();
        for (index, worker) in self.workers.iter().enumerate().take(instances_before) {
            worker.mailbox.push(WorkerInput::Install {
                stamp,
                partitioner,
                extract: index < old_active,
            });
        }

        // Barrier: gather every cutover reply. Workers keep draining their
        // mailboxes, so the replies arrive promptly; fan-out legs that
        // interleave are processed as usual. Inputs a worker hands back — a
        // direct producer's push under the old snapshot that landed behind the
        // `Install` — wait until the absorbs are out: routed now, a command
        // could reach its new owner ahead of the state it has to see.
        let mut stale = Vec::new();
        let mut moves: Vec<LatticeMap<K, V>> =
            (0..self.workers.len()).map(|_| LatticeMap::default()).collect();
        let mut rehome_resync: BTreeMap<usize, Vec<(ClientId, CommandId, K)>> = BTreeMap::new();
        let mut resubmit: Vec<RehomedCommand<K, V>> = Vec::new();
        let mut replies = 0;
        let mut feedback = Vec::new();
        while replies < instances_before {
            if self.shared.feedback.drain_into(&mut feedback) == 0 {
                self.shared.router_signal.wait_timeout(PARK);
                continue;
            }
            for item in feedback.drain(..) {
                match item {
                    WorkerFeedback::Rehomed { moves: worker_moves, rehome } => {
                        replies += 1;
                        for (destination, sub) in worker_moves {
                            moves[destination.as_usize()].join(&sub);
                        }
                        for (client, command, key) in rehome.applied {
                            let owner = self.partitioner.shard_of(&key).as_usize();
                            rehome_resync.entry(owner).or_default().push((client, command, key));
                        }
                        resubmit.extend(rehome.resubmit);
                    }
                    held @ WorkerFeedback::Stale(_) => stale.push(held),
                    other => self.handle_feedback(other),
                }
            }
        }

        // Handoff + one resync per destination: handed-off ranges become
        // quorum-durable ahead of client traffic, and cut-over updates
        // complete exactly once.
        for (index, moved) in moves.into_iter().enumerate().take(new_active) {
            let rehomed = rehome_resync.remove(&index).unwrap_or_default();
            if rehomed.is_empty() && moved.is_empty() {
                continue;
            }
            self.assignment
                .push(ShardId(index as u32), WorkerInput::Absorb { sub: moved, rehomed });
        }

        // Re-homed commands were accounted where they were first accepted.
        for (client, outer, command) in resubmit {
            self.submit(client, outer, command, None);
        }
        for held in stale {
            self.handle_feedback(held);
        }

        // Keyspace-wide fan-outs restart from scratch against the new shard
        // set (stale legs are dropped by the stamp check in
        // `handle_feedback`).
        let fanout_ids: Vec<CommandId> = self.fanouts.keys().copied().collect();
        for outer in fanout_ids {
            self.restart_fanout(outer);
        }

        // Deferred messages waiting for exactly this assignment are delivered;
        // anything still newer keeps waiting, anything older turned stale.
        let installed = (plan.epoch, plan.shards);
        let deferred = std::mem::take(&mut self.deferred);
        for (from, message_stamp, shard, message) in deferred {
            match message_stamp.cmp(&installed) {
                std::cmp::Ordering::Equal => self.deliver_fenced(from, shard, message),
                std::cmp::Ordering::Greater => {
                    self.deferred.push((from, message_stamp, shard, message));
                }
                std::cmp::Ordering::Less => {}
            }
        }

        // Every worker now has its `Absorb` ahead of anything a direct
        // producer can push: hand the mailboxes back.
        self.publish(Some(Arc::clone(&self.assignment)));

        // Gossip the plan once per install so idle replicas converge without
        // waiting to be bounced.
        for &peer in self.members.iter().filter(|&&peer| peer != self.id) {
            self.send_plan(peer);
        }
    }

    /// Resets a fan-out's aggregate and resubmits its legs on the active
    /// shards.
    fn restart_fanout(&mut self, outer: CommandId) {
        let client = {
            let Some(fanout) = self.fanouts.get_mut(&outer) else { return };
            fanout.failed = false;
            fanout.acc = match fanout.acc {
                FanoutAcc::Len(_) => FanoutAcc::Len(0),
                FanoutAcc::Keys(_) => FanoutAcc::Keys(Vec::new()),
            };
            fanout.client
        };
        self.launch_fanout_legs(outer, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::GCounter;
    use crdt_paxos_core::{Payload, PrepareRound, Round};

    type Kv = LatticeMap<String, GCounter>;

    /// One message of every kind, in [`Message`]'s declaration order, for the
    /// given protocol instance.
    fn one_of_each_kind(request: RequestId) -> [Message<Kv>; MESSAGE_KINDS] {
        let mut counter = GCounter::default();
        counter.increment(ReplicaId::new(3), 17);
        let mut state = Kv::default();
        state.merge_entry("clicks".to_string(), &counter);
        let full = || Payload::Full(state.clone());
        [
            Message::Merge { request, payload: full() },
            Message::MergeAck { request },
            Message::Prepare {
                request,
                round: PrepareRound::Fixed(Round::ZERO),
                payload: Some(full()),
                basis: 0,
            },
            Message::PrepareAck { request, round: Round::ZERO, state: full(), reveal: 0, basis: 0 },
            Message::Vote { request, round: Round::ZERO, payload: full(), basis: 0 },
            Message::VoteAck { request },
            Message::Nack { request, round: Round::ZERO, state: full(), basis: 0 },
        ]
    }

    /// The peek must agree with a full decode on every frame: same stamp,
    /// shard, kind and request for `Protocol`, `None` exactly for the other
    /// variants. This is the property that lets [`Assignment::dispatch`] fence
    /// frames without decoding their bodies, and a worker pick a decode target
    /// — or skip the decode — by kind and instance. It pins what the peek is
    /// coupled to: `Protocol` being `ShardMessage`'s first variant, `Message`'s
    /// variant order, and `request` being every variant's first field.
    #[test]
    fn peek_matches_full_decode() {
        // Stamps and request ids straddling every varint width boundary the
        // fields can hit.
        let stamps: Vec<(u64, u32, u32)> = vec![
            (0, 1, 0),
            (1, 2, 1),
            (127, 127, 127),
            (128, 128, 128),
            (300, 4, 3),
            (u64::MAX, u32::MAX, u32::MAX),
        ];
        let requests =
            [0, 7, (1 << 7) - 1, 1 << 7, (1 << 14) - 1, 1 << 14, u64::MAX].map(RequestId);
        for request in requests {
            for (kind, message) in one_of_each_kind(request).into_iter().enumerate() {
                for &(epoch, shards, shard) in &stamps {
                    let shard = ShardId(shard);
                    let sent =
                        ShardMessage::Protocol { epoch, shards, shard, message: message.clone() };
                    let frame = wire::to_vec(&sent).unwrap();
                    let peek = peek_protocol(&frame).expect("a protocol frame");
                    assert_eq!(peek, Peek { stamp: (epoch, shards), shard, kind, request });
                    // What the peek says is what a decode finds.
                    assert_eq!(wire::from_slice::<ShardMessage<Kv>>(&frame).unwrap(), sent);
                    assert_eq!(message.request(), request);
                    assert_eq!(
                        peek.is_state_reply(),
                        matches!(message, Message::PrepareAck { .. } | Message::Nack { .. }),
                        "{}",
                        message.kind()
                    );
                }
            }
        }

        let others: Vec<ShardMessage<Kv>> = vec![
            ShardMessage::PlanRequest,
            ShardMessage::Rebalance { plan: RebalancePlan { epoch: 300, shards: 7 } },
            ShardMessage::Control { message: Message::MergeAck { request: RequestId(1) } },
        ];
        for message in &others {
            let frame = wire::to_vec(message).unwrap();
            assert_eq!(peek_protocol(&frame), None, "{message:?}");
        }
    }

    /// Mangled frames must fail the peek instead of misrouting.
    #[test]
    fn peek_rejects_mangled_preambles() {
        assert_eq!(peek_protocol(&[]), None);
        // Unterminated varint.
        assert_eq!(peek_protocol(&[0x80]), None);
        // A valid Protocol tag but a preamble cut short: after the stamp, after
        // the shard, after the kind, inside the request id.
        assert_eq!(peek_protocol(&[0, 5]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1, 3]), None);
        assert_eq!(peek_protocol(&[0, 5, 4, 1, 3, 0x80]), None);
        assert!(peek_protocol(&[0, 5, 4, 1, 3, 9]).is_some());
        // `shards` overflowing u32 must not wrap into a bogus stamp.
        let mut frame = vec![0, 1];
        wire::varint::encode_u64(u64::from(u32::MAX) + 1, &mut frame);
        frame.extend([0, 1, 9]);
        assert_eq!(peek_protocol(&frame), None);
        // A kind no `Message` variant has: no resident to aim at, and nothing a
        // full decode would accept either.
        let unknown_kind = [0, 5, 4, 1, MESSAGE_KINDS as u8, 9];
        assert_eq!(peek_protocol(&unknown_kind), None);
        assert!(wire::from_slice::<ShardMessage<Kv>>(&unknown_kind).is_err());
    }
}
