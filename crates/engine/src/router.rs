//! The per-node router thread: the engine's driver of
//! [`crdt_paxos_core::RouterCore`], applying its effects across worker threads
//! where the single-threaded [`ShardedReplica`] applies them to an in-place
//! `Vec<ShardCore>` — and, in steady state, **off the per-command path**.
//!
//! The routing policy — the stamp, the epoch fence and its deferred queue, plan
//! agreement on the control shard, the order of a cutover, fan-out aggregation
//! — lives in the router core, one copy for both drivers; this module holds
//! none of it. What it holds is what only an engine has:
//!
//! * **The worker fleet and its placement rule** — shard `s` lives on worker
//!   thread `s mod W`, where `W` is the cores the process may use
//!   (`std::thread::available_parallelism`, read once when the router starts):
//!   a node runs `min(shards, cores)` workers, one shard per thread when it
//!   has the cores and several shards per thread when it does not. A thread is
//!   spawned when its first shard appears; every shard, first or later, is
//!   handed to its thread with a [`WorkerInput::Adopt`] pushed **before any
//!   [`Assignment`] that names the shard is built**, so nothing can reach a
//!   mailbox ahead of the slot it is for. Placement never changes: a core
//!   never migrates between threads, and a shrink keeps retired shards where
//!   they are.
//! * **The published [`Assignment`]** — the core's decision (stamp,
//!   partitioner) plus the mailbox of every active shard (shards of one worker
//!   share theirs), one immutable value on [`NodeShared`]. Whoever holds
//!   traffic for the node (a client thread in `submit`, a socket's read loop
//!   or a peer's worker in `NodeIngress::deliver*`) reads the published snapshot,
//!   runs the same [`Assignment::dispatch`] / [`Assignment::route_single`] the
//!   router runs, and pushes straight onto the owning worker's mailbox.
//! * **The slow half of the ingress demux** — whatever `dispatch` hands back
//!   (control traffic, plans and plan requests, protocol messages the fence
//!   bounces or defers, everything that arrives while nothing is published)
//!   is decoded and fed to [`RouterCore::on_message`].
//! * **Applying effects** — a [`RouterEffect`] for a shard becomes a
//!   [`WorkerInput`] pushed through the router's own `Assignment`, tagged with
//!   its stamp; `ToPeer` goes to the [`Outbound`] sink, `Respond` to the
//!   node's response queue.
//! * **The barrier** — the driver's half of a plan install runs on the worker
//!   threads: one `Install` per pre-existing shard, one reply each, gathered
//!   into the core's [`Cutover`]. Only the router blocks; workers keep
//!   draining their mailboxes.
//! * **The stamp tag** — workers tag fan-out legs with the stamp they held;
//!   the router drops legs of a superseded assignment before they reach the
//!   core (the parallel analogue of `ShardCore::purge_fanout_legs`).
//!
//! ## Publish / un-publish
//!
//! A cutover must not let traffic of the new assignment reach a worker before
//! that worker's `Absorb` (a read could miss the handed-off state). When the
//! router was the only producer, blocking in the barrier was enough. Now the
//! install **un-publishes** the snapshot before the first `Install` is pushed
//! — from then on every direct producer falls back to the router's queues,
//! which the barrier does not drain — and publishes the new one only after
//! everything `finish_install` emits ahead of the gossip (the `Absorb`s, the
//! re-homed submits, restarted fan-out legs, deferred deliveries) is on its
//! mailbox. A producer that read the *old* snapshot just before may still push
//! behind an `Install`; the worker catches that by re-checking the stamp tag
//! and hands the input back ([`WorkerFeedback::Stale`]); the barrier sets
//! those aside and routes them once the absorbs are out. The gossip leaves
//! last, after the publish.
//!
//! [`ShardedReplica`]: crdt_paxos_core::ShardedReplica
//! [`RouterCore::on_message`]: crdt_paxos_core::RouterCore::on_message

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crdt::{LatticeMap, MapQuery, MapUpdate, ReplicaId};
use crdt_paxos_core::{
    fence_decision, peek_protocol, ClientId, Command, CommandId, Cutover, FenceDecision,
    HashPartitioner, ProtocolConfig, RouterCore, RouterEffect, ShardEnvelope, ShardId,
    ShardMessage, Stamp,
};

use obs::{Stage, Stopwatch};

use crate::mailbox::Mailbox;
use crate::mesh::Outbound;
use crate::node::{IngressItem, NodeShared};
use crate::telemetry::{now_nanos, RouterObs};
use crate::worker::{
    spawn_worker, StaleInput, Submit, WorkerFeedback, WorkerHandle, WorkerInput, PARK,
};
use crate::{EngineKey, EngineValue};

/// The mailbox of the worker thread that serves some shard.
type ShardMailbox<K, V> = Arc<Mailbox<WorkerInput<K, V>>>;

/// One assignment, as the router decided it: the stamp, the partitioner that
/// maps keys to shards under it, and for every shard active under it the
/// mailbox of the worker that serves it. Immutable — a cutover replaces the
/// whole value — so any thread can route by a snapshot of it without
/// coordinating with the router; what a snapshot cannot promise is that it is
/// still current when the push lands, which is why everything routed here is
/// tagged with `stamp` for the worker to re-check.
pub(crate) struct Assignment<K: EngineKey, V: EngineValue> {
    stamp: Stamp,
    partitioner: HashPartitioner,
    /// Indexed by shard; shards of one worker share a mailbox.
    workers: Vec<ShardMailbox<K, V>>,
}

impl<K: EngineKey, V: EngineValue> Assignment<K, V> {
    /// The core's current decision as a routable value: its stamp and
    /// partitioner plus the mailboxes of the shards active under them, out of
    /// `shards` — every shard the node has placed so far.
    fn snapshot(core: &RouterCore<K, V>, shards: &[ShardMailbox<K, V>]) -> Arc<Self> {
        Arc::new(Assignment {
            stamp: core.stamp(),
            partitioner: *core.partitioner(),
            workers: shards.iter().take(core.active()).cloned().collect(),
        })
    }

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
                Some(peek) if self.admits(peek.stamp()) => {
                    self.push(peek.shard(), WorkerInput::Frame { peek, from, frame, at });
                    Ok(())
                }
                _ => Err(IngressItem::Frame(from, frame)),
            },
            IngressItem::Message(
                from,
                ShardMessage::Protocol { epoch, shards, shard, message },
            ) if self.admits((epoch, shards)) => {
                let stamp = self.stamp;
                self.push(shard, WorkerInput::Peer { shard, from, stamp, message, at });
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
        let (shard, stamp) = (self.partitioner.shard_of(&key), self.stamp);
        let submit = Submit { shard, client, outer, key, command, stamp, queued_at, routed_at };
        self.push(shard, WorkerInput::Submit(submit));
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

/// The router thread's state: the shared routing policy plus what is the
/// engine's own — worker fleet, published assignment, queues and instruments.
pub(crate) struct Router<K: EngineKey, V: EngineValue> {
    config: ProtocolConfig,
    /// The routing policy — stamp, fence, control shard, cutover choreography,
    /// fan-out aggregation — shared with the single-threaded `ShardedReplica`.
    /// Everything below only applies its effects across the mailboxes.
    core: RouterCore<K, V>,
    /// Reused buffer for the core's effects.
    effects: Vec<RouterEffect<K, V>>,
    /// Reused batch for the control shard's outgoing envelopes.
    control_outbox: Vec<ShardEnvelope<LatticeMap<K, V>>>,
    /// The most worker threads this node runs: shard `s` lives on thread
    /// `s % stride`.
    stride: usize,
    /// The worker threads spawned so far, `min(shards.len(), stride)` of them.
    threads: Vec<WorkerHandle<K, V>>,
    /// Every shard ever placed, retired ones included (a shrink keeps them),
    /// as the mailbox of its thread.
    shards: Vec<ShardMailbox<K, V>>,
    /// The assignment the router itself routes by — the one it last built,
    /// published or not.
    assignment: Arc<Assignment<K, V>>,
    /// What `NodeShared::rebalance_idle` holds, as far as the router knows.
    idle: bool,
    shared: Arc<NodeShared<K, V>>,
    outbound: Arc<dyn Outbound<K, V>>,
    obs: RouterObs,
}

impl<K: EngineKey, V: EngineValue> Router<K, V> {
    /// `workers` caps the worker threads — tests pin a layout with it;
    /// `None` is one per core the process may use.
    pub(crate) fn new(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
        shared: Arc<NodeShared<K, V>>,
        outbound: Arc<dyn Outbound<K, V>>,
        workers: Option<usize>,
    ) -> Self {
        let core = RouterCore::new(id, members, shards, &config);
        let obs = RouterObs::new(&shared.obs, shared.trace);
        shared.track_ring(&obs.ring);
        let cores = || std::thread::available_parallelism().map_or(1, |cores| cores.get());
        let mut router = Router {
            config,
            assignment: Assignment::snapshot(&core, &[]),
            core,
            effects: Vec::new(),
            control_outbox: Vec::new(),
            stride: workers.unwrap_or_else(cores).max(1),
            threads: Vec::new(),
            shards: Vec::new(),
            idle: true,
            shared,
            outbound,
            obs,
        };
        router.grow_to(shards as usize);
        router.assignment = Assignment::snapshot(&router.core, &router.shards);
        router.publish(Some(Arc::clone(&router.assignment)));
        router
    }

    /// Replaces the snapshot direct producers route by; `None` sends them to
    /// the router's queues.
    fn publish(&self, assignment: Option<Arc<Assignment<K, V>>>) {
        *self.shared.assignment.write().expect("assignment lock poisoned") = assignment;
    }

    /// Places shards until there are `count`, each on thread `s % stride`
    /// (spawned when its first shard appears) and fenced at the core's current
    /// stamp. The `Adopt` is on the thread's mailbox before this returns —
    /// before the caller builds an assignment that names the shard.
    fn grow_to(&mut self, count: usize) {
        for shard in self.shards.len()..count {
            let index = shard % self.stride;
            if index == self.threads.len() {
                self.threads.push(spawn_worker(
                    index,
                    self.stride,
                    self.core.id(),
                    self.core.members().to_vec(),
                    self.config.clone(),
                    Arc::clone(&self.shared),
                    Arc::clone(&self.outbound),
                ));
            }
            let mailbox = &self.threads[index].mailbox;
            let (shard, stamp) = (ShardId(shard as u32), self.core.stamp());
            mailbox.push(WorkerInput::Adopt { shard, stamp });
            self.shards.push(Arc::clone(mailbox));
        }
    }

    pub(crate) fn run(mut self) {
        let mut ingress = VecDeque::new();
        let mut requests = VecDeque::new();
        let mut feedback = VecDeque::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            // First, so that nothing below proposes against the stale clock an
            // untimed park leaves behind.
            self.core.tick(self.shared.start.elapsed().as_millis() as u64);
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
                    RouterRequest::Rebalance { target } => {
                        // The handle cleared the flag when it queued this.
                        self.idle = false;
                        self.core.begin_rebalance(target);
                    }
                }
            }
            let drained = self.shared.feedback.drain_into(&mut feedback);
            self.obs.feedback_depth.observe(drained as u64);
            busy += drained;
            for item in feedback.drain(..) {
                self.handle_feedback(item);
            }
            let cutover = self.core.poll_control();
            self.settle(cutover);
            self.flush_control_outbox();
            if busy == 0 {
                self.obs.parks.incr();
                // Only plan agreement runs on a timer here; with none of it
                // pending, wake on the signal alone.
                if self.core.needs_tick() {
                    self.shared.router_signal.wait_timeout(PARK);
                } else {
                    self.shared.router_signal.wait();
                }
            }
        }
        self.publish(None);
        for thread in &self.threads {
            thread.mailbox.push(WorkerInput::Shutdown);
        }
        for thread in self.threads.drain(..) {
            thread.join.join().ok();
        }
    }

    /// Ships the control replica's outbox (plan agreement traffic), batched
    /// per destination like the worker outboxes.
    fn flush_control_outbox(&mut self) {
        self.core.drain_control_outbox_into(&mut self.control_outbox);
        if !self.control_outbox.is_empty() {
            self.control_outbox.sort_by_key(|envelope| envelope.to);
            self.outbound.send_batch(&mut self.control_outbox);
            self.control_outbox.clear();
        }
    }

    /// Handles one ingress item: [`Assignment::dispatch`] first — the same
    /// call the direct producers make — then, for what it hands back, the
    /// router core. Frames that reach the slow half take the owned decode;
    /// those that fail it are dropped (the protocol tolerates lost messages).
    fn handle_ingress(&mut self, item: IngressItem<K, V>) {
        let (from, message) = match self.assignment.dispatch(item, now_nanos(self.shared.start)) {
            Ok(()) => return,
            Err(IngressItem::Message(from, message)) => (from, message),
            Err(IngressItem::Frame(from, frame)) => match wire::from_bytes(&frame) {
                Ok(message) => (from, message),
                Err(_) => return,
            },
        };
        let cutover = self.core.on_message(from, message, &mut self.effects);
        self.settle(cutover);
    }

    /// Routes a client command the node handle left to the router: single-key
    /// to its owner, through the same [`Assignment::route_single`] the handle
    /// tries first; keyspace-wide through the core's fan-out. `queued_at` is
    /// the submit time while no worker has accounted for it.
    fn submit(
        &mut self,
        client: ClientId,
        outer: CommandId,
        command: Command<LatticeMap<K, V>>,
        queued_at: Option<u64>,
    ) {
        let now = now_nanos(self.shared.start);
        let Err(query) = self.assignment.route_single(client, outer, command, queued_at, Some(now))
        else {
            return;
        };
        if let Some(queued_at) = queued_at {
            self.shared.stages.record(Stage::SubmitQueue, now.saturating_sub(queued_at));
            self.obs.ring.record(outer.0, Stage::SubmitQueue, now);
        }
        self.core.submit(client, outer, query, &mut self.effects);
        self.apply_effects();
    }

    /// Folds one worker feedback item into router state. `Rehomed` replies are
    /// consumed by the install barrier and must not appear here.
    fn handle_feedback(&mut self, item: WorkerFeedback<K, V>) {
        match item {
            WorkerFeedback::FanoutLeg { stamp, command, shard, round_trips, keys } => {
                // Legs drained under a superseded assignment are the parallel
                // analogue of purged buffered responses: the fan-out has been
                // restarted, drop them.
                if stamp == self.core.stamp() {
                    let effects = &mut self.effects;
                    self.core.on_fanout_leg(command, shard, round_trips, keys, effects);
                    self.apply_effects();
                }
            }
            WorkerFeedback::Stale(StaleInput::Ingress(item)) => self.handle_ingress(item),
            WorkerFeedback::Stale(StaleInput::Submit { client, outer, command, queued_at }) => {
                self.submit(client, outer, command, queued_at);
            }
            WorkerFeedback::Rehomed { .. } => unreachable!("consumed by the install barrier"),
        }
    }

    /// Carries a plan install the core started through, if there is one,
    /// applies the effects of the input that led here, and reports.
    fn settle(&mut self, cutover: Option<Cutover<K, V>>) {
        if let Some(cutover) = cutover {
            self.install(cutover);
        }
        self.apply_effects();
        self.obs.mirror(self.core.stats());
        // Only a change is written to the handle's flag: the handle clears it
        // itself when it queues a request, and a write per pump cycle could
        // set it back before that request is dequeued.
        let idle = self.core.rebalance_idle();
        if idle != self.idle {
            self.idle = idle;
            self.shared.rebalance_idle.store(idle, Ordering::Release);
        }
    }

    fn apply_effects(&mut self) {
        let mut effects = std::mem::take(&mut self.effects);
        effects.drain(..).for_each(|effect| self.apply(effect));
        self.effects = effects;
    }

    /// Applies one decision of the core: onto a worker's mailbox under the
    /// router's own assignment, out through the transport, or to the client.
    fn apply(&self, effect: RouterEffect<K, V>) {
        let (assignment, stamp) = (&self.assignment, self.assignment.stamp);
        match effect {
            RouterEffect::ToShard { shard, from, message } => {
                let at = now_nanos(self.shared.start);
                assignment.push(shard, WorkerInput::Peer { shard, from, stamp, message, at });
            }
            RouterEffect::FanoutLeg { shard, client, outer } => {
                assignment.push(shard, WorkerInput::FanoutLeg { shard, client, outer });
            }
            RouterEffect::Submit { shard, client, outer, key, command } => {
                // Re-homed by a cutover: accounted where it was first accepted.
                let (queued_at, routed_at) = (None, Some(now_nanos(self.shared.start)));
                let submit =
                    Submit { shard, client, outer, key, command, stamp, queued_at, routed_at };
                assignment.push(shard, WorkerInput::Submit(submit));
            }
            RouterEffect::Absorb { shard, sub, rehomed } => {
                assignment.push(shard, WorkerInput::Absorb { shard, sub, rehomed });
            }
            RouterEffect::ToPeer(envelope) => self.outbound.send(envelope),
            RouterEffect::Respond(response) => self.shared.respond(response),
        }
    }

    /// The engine's half of a plan install (see `crdt_paxos_core::RouterCore`):
    /// the gather runs on the worker threads, so it is a barrier, bracketed by
    /// an un-publish / publish of the assignment (see the module docs).
    fn install(&mut self, mut cutover: Cutover<K, V>) {
        let stamp = cutover.stamp;
        self.shared.epoch.store(stamp.0, Ordering::Release);
        self.shared.shards.store(stamp.1, Ordering::Release);

        // From here until the publish below, direct producers queue at the
        // router, which does not look at those queues before it is done.
        self.publish(None);

        // A shrink keeps retired shards: their cores hold harmless lower
        // bounds a later split reactivates in place.
        let before = self.shards.len();
        self.grow_to(stamp.1 as usize);
        self.assignment = Assignment::snapshot(&self.core, &self.shards);

        // Cutover on every pre-existing shard. The FIFO mailbox orders this
        // before anything the router routes under the new assignment
        // afterwards — also where two shards share one.
        let partitioner = *self.core.partitioner();
        for (index, mailbox) in self.shards.iter().enumerate().take(before) {
            let (shard, extract) = (ShardId(index as u32), index < cutover.old_active);
            mailbox.push(WorkerInput::Install { shard, stamp, partitioner, extract });
        }

        // Barrier: gather every shard's cutover reply. Workers keep draining
        // their mailboxes, so the replies arrive promptly; fan-out legs that
        // interleave are processed as usual. Inputs a worker hands back — a
        // direct producer's push under the old snapshot that landed behind the
        // `Install` — wait until the absorbs are out: routed now, a command
        // could reach its new owner ahead of the state it has to see.
        let mut awaited = before;
        let mut stale = Vec::new();
        let mut feedback = VecDeque::new();
        while awaited > 0 {
            if self.shared.feedback.drain_into(&mut feedback) == 0 {
                self.shared.router_signal.wait_timeout(PARK);
                continue;
            }
            for item in feedback.drain(..) {
                match item {
                    WorkerFeedback::Rehomed { moves, rehome } => {
                        awaited -= 1;
                        cutover.absorb(moves, rehome);
                    }
                    held @ WorkerFeedback::Stale(_) => stale.push(held),
                    other => self.handle_feedback(other),
                }
            }
        }

        // Everything but the gossip goes onto the mailboxes, then the held
        // hand-backs; every worker now has its `Absorb` ahead of anything a
        // direct producer can push, so the mailboxes are handed back before
        // the plan is announced.
        self.core.finish_install(cutover, &mut self.effects);
        let first_gossip = self.effects.iter().position(|e| matches!(e, RouterEffect::ToPeer(_)));
        let gossip = self.effects.split_off(first_gossip.unwrap_or(self.effects.len()));
        self.apply_effects();
        for held in stale {
            self.handle_feedback(held);
        }
        self.publish(Some(Arc::clone(&self.assignment)));
        gossip.into_iter().for_each(|effect| self.apply(effect));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crdt::GCounter;
    use crdt_paxos_core::{Message, RebalancePlan, RequestId, MESSAGE_KINDS};

    use crate::mailbox::Signal;

    type Kv = LatticeMap<String, GCounter>;

    const STAMP: Stamp = (2, 2);

    /// An assignment at [`STAMP`] whose two shards have a mailbox each.
    fn assignment() -> Assignment<String, GCounter> {
        let mailbox = || Arc::new(Mailbox::new(Arc::new(Signal::new())));
        Assignment {
            stamp: STAMP,
            partitioner: HashPartitioner::new(STAMP.1),
            workers: vec![mailbox(), mailbox()],
        }
    }

    fn encode(message: &ShardMessage<Kv>) -> Bytes {
        Bytes::from(wire::to_vec(message).expect("encode"))
    }

    fn protocol(stamp: Stamp, shard: u32, request: u64) -> Bytes {
        let (epoch, shards) = stamp;
        let message = Message::MergeAck { request: RequestId(request) };
        encode(&ShardMessage::Protocol { epoch, shards, shard: ShardId(shard), message })
    }

    fn assert_mailboxes_empty(assignment: &Assignment<String, GCounter>) {
        for (shard, mailbox) in assignment.workers.iter().enumerate() {
            assert!(mailbox.is_empty(), "shard {shard} was handed a frame");
        }
    }

    /// Every frame whose preamble does not peek goes back to the router as
    /// the bytes it came in, and nothing reaches a worker: this is what lets
    /// a worker act on the dispatcher's peek without a fallback decode.
    #[test]
    fn dispatch_hands_back_what_does_not_peek() {
        let assignment = assignment();
        let mut unknown_kind = protocol(STAMP, 1, 3).to_vec();
        unknown_kind[4] = MESSAGE_KINDS as u8;
        let frames = [
            encode(&ShardMessage::PlanRequest),
            encode(&ShardMessage::Rebalance { plan: RebalancePlan { epoch: 3, shards: 4 } }),
            encode(&ShardMessage::Control { message: Message::MergeAck { request: RequestId(1) } }),
            protocol(STAMP, 1, 2).slice(..3),
            Bytes::from(unknown_kind),
        ];
        let from = ReplicaId::new(1);
        for frame in frames {
            match assignment.dispatch(IngressItem::Frame(from, frame.clone()), 0) {
                Err(IngressItem::Frame(back, bytes)) => {
                    assert_eq!((back, &bytes), (from, &frame));
                }
                _ => panic!("{frame:?} was not handed back as a frame"),
            }
        }
        assert_mailboxes_empty(&assignment);
    }

    /// A frame the fence admits reaches its shard's mailbox carrying the peek
    /// the dispatcher read; one it bounces or defers is handed back.
    #[test]
    fn dispatch_pushes_an_admitted_frame_with_its_peek() {
        let assignment = assignment();
        let from = ReplicaId::new(2);
        for stamp in [(1, 2), (3, 4)] {
            let frame = protocol(stamp, 1, 5);
            let handed_back = assignment.dispatch(IngressItem::Frame(from, frame), 0).is_err();
            assert!(handed_back, "a frame of {stamp:?} passed the fence");
        }
        assert_mailboxes_empty(&assignment);

        let frame = protocol(STAMP, 1, 7);
        assert!(assignment.dispatch(IngressItem::Frame(from, frame.clone()), 42).is_ok());
        assert!(assignment.workers[0].is_empty());
        let mut inputs = VecDeque::new();
        assert_eq!(assignment.workers[1].drain_into(&mut inputs), 1);
        let Some(WorkerInput::Frame { peek, from: sender, frame: pushed, at }) = inputs.pop_front()
        else {
            panic!("shard 1 was not handed a frame");
        };
        assert_eq!(Some(peek), peek_protocol(&frame));
        assert_eq!((peek.stamp(), peek.shard(), peek.request()), (STAMP, ShardId(1), RequestId(7)));
        assert_eq!((sender, pushed, at), (from, frame, 42));
    }
}
