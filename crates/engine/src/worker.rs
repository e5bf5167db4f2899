//! The executor of shard cores: an OS thread that owns a set of shard
//! **slots** — each a [`ShardCore`] with everything that is that shard's alone
//! — and pumps all of them from one mailbox.
//!
//! A shard is a protocol instance, not a thread. The router places shard `s`
//! on worker `s mod W` (`W` = the cores the process may use, so a node runs
//! `min(shards, cores)` workers) and hands it over with
//! [`WorkerInput::Adopt`]; every later input names its shard and the worker
//! applies it to that slot. With as many cores as shards this is one shard
//! per thread. With fewer, the threads that would only have taken turns on a
//! core are one thread that does their work in one go: one wake-up, one drain,
//! and one batch per peer for everything its shards have to say.
//!
//! The worker is a pump around the sans-IO cores: apply every queued input,
//! advance the cores' clocks, ship the outboxes, hand completed commands to
//! the node's response queue, park when idle. Policy — fencing, rebalance
//! choreography, fan-out aggregation — lives in the router.
//!
//! **One cycle**: drain the mailbox once; tick every core; apply peer and
//! control inputs in arrival order, each to the slot it names; then each
//! slot's commands as one [`ShardCore::submit_cycle`]; then **every slot's
//! outbox into one vector, grouped by destination, one
//! [`Outbound::send_batch`]** — one socket write per peer per cycle however
//! many shards spoke; then the completed commands; and a park only when no
//! slot had inputs or outputs (timed while any slot has instances in flight).
//!
//! **The pump cycle is the unit of agreement**, per shard. Whatever single-key
//! commands one drain of the mailbox brought in for a shard are proposed
//! together: every update applied and *one* update
//! instance opened for them (one snapshot), then *one* query instance for all
//! the reads (one `PREPARE` per peer, each read evaluated on the learned
//! state), each command answered under its own id. The `PREPARE` carries the
//! snapshot, so a cycle with reads sends its update no `MERGE`: the replies to
//! the `PREPARE` complete both instances, and each peer is sent the shard's
//! state once per cycle. A cycle of writes alone sends one `MERGE` per peer.
//! This is the paper's §3.6 batching with the wait taken out: nothing is held
//! back for company, so a command that arrives alone is a cycle of one and
//! costs what it always did, and under load the cost of an instance — the
//! state snapshot, its encode per peer, the quorum walk over the replies — is
//! shared by everything that queued up while the previous cycle ran
//! (`instances_opened` against the `SubmitQueue` sample count is the ratio).
//! [`ProtocolConfig::batch_interval_ms`] is something else: *waiting* for
//! more. Two orders inside a cycle are protocol-level signals, not style:
//! peer traffic is applied before the cycle's commands, and the update
//! instance opens before the query instance, so the reads' `PREPARE` carries
//! the writes — and stands in for the writes' `MERGE`.
//! Stamp re-check, admission release and stage accounting stay per command.
//!
//! A worker's mailbox has many producers. Client threads
//! ([`EngineNode::submit`]) and delivering threads ([`NodeIngress`]) push
//! protocol traffic and single-key commands straight into it under the
//! *published* assignment snapshot; the router pushes the same, plus the
//! control inputs only it may send (`Adopt`, `FanoutLeg`, `Install`, `Absorb`,
//! `Shutdown`). A direct producer read its snapshot some time before it
//! pushed, so its item can land behind the `Install` of a newer assignment.
//! That is why every `Peer`, `Frame` and [`Submit`] carries the stamp it was
//! routed under (a frame in its own preamble) and the worker **re-checks it
//! against the slot's own**: on a mismatch
//! the input is not applied — this core may no longer own the key — but handed
//! back to the router over `feedback` ([`WorkerFeedback::Stale`]), which runs
//! it through the current fence (stale peer traffic is bounced, a command is
//! routed to its new owner). The hand-back never blocks: `feedback` is
//! unbounded, because the router does not drain its request queue while it
//! waits in the cutover barrier.
//!
//! A `Frame` is the one input the worker has to pay to read, and what it pays
//! is what a command costs once a shard holds more than a few keys. So it
//! acts on the frame's six-varint preamble first — read once, by the
//! dispatcher, with `core`'s [`peek_protocol`], and carried in the input as a
//! [`Peek`] — and decides from that alone ([`Residents::receive`]): a stamp
//! other than the slot's — the frame goes back as the bytes it came in; an
//! `ACK`/`NACK` for an instance that has retired
//! ([`ShardCore::wants_reply`]) — dropped and counted; anything else —
//! decoded in place into the long-lived message of that *kind*, whose maps,
//! counters and slots the previous frame of the kind left behind for this one
//! to overwrite. The residents are **per slot, not per thread**: two shards
//! hold different keys, and consecutive frames of one kind from two of them
//! would each tear down what the other left and build its own. In steady
//! state receiving a frame allocates nothing, whatever order the kinds — and
//! the shards — arrive in (`alloc_gate`'s mixed cases hold one slot to that,
//! `tests/slot_residents.rs` a worker serving two).
//!
//! [`EngineNode::submit`]: crate::EngineNode::submit
//! [`NodeIngress`]: crate::NodeIngress
//! [`peek_protocol`]: crdt_paxos_core::peek_protocol

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crdt::{LatticeMap, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, CommandId, CoreRehome, HashPartitioner, Message, Peek, ProtocolConfig,
    ShardCore, ShardEnvelope, ShardId, ShardMessage, ShardOutput, Stamp,
};

use obs::{Stage, Stopwatch};

use crate::mailbox::{Mailbox, Signal};
use crate::mesh::Outbound;
use crate::node::{IngressItem, NodeShared};
use crate::resident::{Received, Residents};
use crate::telemetry::{now_nanos, WorkerObs};
use crate::{EngineKey, EngineValue};

/// How long a worker with protocol instances in flight (or batches to flush)
/// parks before ticking its cores again. Retransmission timers are tens of
/// milliseconds, so a millisecond of tick granularity is plenty. A worker with
/// nothing to time parks untimed and wakes on its mailbox signal alone.
pub(crate) const PARK: Duration = Duration::from_millis(1);

/// Everything a worker can be asked. Delivered in FIFO order; everything but
/// `Shutdown` names the shard it is for. `Peer`, `Frame` and `Submit` may come
/// from any dispatching thread and are re-checked against the slot's stamp
/// (see the module docs); the rest come from the router alone, which orders a
/// shard's [`WorkerInput::Adopt`] before anything else for it and every
/// [`WorkerInput::Install`] before its own traffic of the new assignment.
pub(crate) enum WorkerInput<K: EngineKey, V: EngineValue> {
    /// A shard to serve from now on: a fresh core, fenced at `stamp`. Pushed
    /// before any assignment that names the shard is built, so no other input
    /// for it can be ahead in the mailbox.
    Adopt { shard: ShardId, stamp: Stamp },
    /// One fenced protocol message from a peer's same-shard instance, tagged
    /// with the stamp it was fenced under. `at` is when it was enqueued.
    Peer {
        shard: ShardId,
        from: ReplicaId,
        stamp: Stamp,
        message: Message<LatticeMap<K, V>>,
        at: u64,
    },
    /// One fenced protocol message still in its encoded wire frame, with the
    /// preamble the dispatcher read ([`crdt_paxos_core::peek_protocol`]) and
    /// fenced: the shard is `peek.shard()`, and the tag the worker re-checks
    /// is `peek.stamp()`, the frame's own. The worker decodes the body in place
    /// into the slot's resident message of its kind ([`Residents`]), so
    /// steady-state frames reach the core without allocating.
    Frame { peek: Peek, from: ReplicaId, frame: Bytes, at: u64 },
    /// A single-key client command.
    Submit(Submit<K, V>),
    /// One leg of a keyspace-wide fan-out.
    FanoutLeg { shard: ShardId, client: ClientId, outer: CommandId },
    /// A rebalance cutover: extract handoff sub-states (when `extract`),
    /// cancel in-flight work, purge fan-out legs, adopt the new stamp, and
    /// reply with [`WorkerFeedback::Rehomed`].
    Install { shard: ShardId, stamp: Stamp, partitioner: HashPartitioner, extract: bool },
    /// The destination half of a handoff: absorb the moved sub-state and start
    /// the resync that makes it quorum-durable (completing the given cut-over
    /// updates exactly once).
    Absorb { shard: ShardId, sub: LatticeMap<K, V>, rehomed: Vec<(ClientId, CommandId, K)> },
    /// Drain and exit; queued items behind this are dropped by the mailbox.
    Shutdown,
}

/// A single-key client command on its way to `shard`, which owns `key` under
/// `stamp`.
pub(crate) struct Submit<K: EngineKey, V: EngineValue> {
    pub shard: ShardId,
    pub client: ClientId,
    pub outer: CommandId,
    pub key: K,
    pub command: Command<LatticeMap<K, V>>,
    pub stamp: Stamp,
    /// When the client submitted it; `None` for a command a cutover re-homed,
    /// whose submit was accounted on its previous owner.
    pub queued_at: Option<u64>,
    /// When the router forwarded it; `None` when the client thread pushed it
    /// here itself, still holding its admission slot.
    pub routed_at: Option<u64>,
}

/// What workers report back to their router. Completed single-key commands
/// are not among it: workers push those onto the node's response queue
/// themselves.
pub(crate) enum WorkerFeedback<K: EngineKey, V: EngineValue> {
    /// One shard's answer to a fan-out leg (the fields of
    /// [`ShardOutput::FanoutLeg`]), tagged with the stamp the slot held when
    /// it was drained. The router uses the tag to discard legs that completed
    /// under a superseded assignment (the parallel equivalent of
    /// [`ShardCore::purge_fanout_legs`] catching buffered responses).
    FanoutLeg {
        stamp: Stamp,
        command: CommandId,
        shard: ShardId,
        round_trips: u32,
        keys: Option<Vec<K>>,
    },
    /// One shard's reply to a [`WorkerInput::Install`]: handoff sub-states
    /// grouped by destination shard plus the reclaimed in-flight work.
    Rehomed { moves: Vec<(ShardId, LatticeMap<K, V>)>, rehome: CoreRehome<K, V> },
    /// An input whose stamp tag is not the slot's own, handed back unapplied
    /// for the router to fence and route under the current assignment.
    Stale(StaleInput<K, V>),
}

/// The payload of [`WorkerFeedback::Stale`].
pub(crate) enum StaleInput<K: EngineKey, V: EngineValue> {
    /// Peer traffic, in the form it entered the node.
    Ingress(IngressItem<K, V>),
    /// A client command, with its submit time if that is still unaccounted.
    Submit {
        client: ClientId,
        outer: CommandId,
        command: Command<LatticeMap<K, V>>,
        queued_at: Option<u64>,
    },
}

/// The router's handle on one spawned worker thread.
pub(crate) struct WorkerHandle<K: EngineKey, V: EngineValue> {
    pub mailbox: Arc<Mailbox<WorkerInput<K, V>>>,
    pub join: JoinHandle<()>,
}

/// Spawns worker thread `index` of a node that runs at most `stride` of them,
/// with no shard yet: it serves what it is sent to [`WorkerInput::Adopt`].
pub(crate) fn spawn_worker<K: EngineKey, V: EngineValue>(
    index: usize,
    stride: usize,
    id: ReplicaId,
    members: Vec<ReplicaId>,
    config: ProtocolConfig,
    shared: Arc<NodeShared<K, V>>,
    outbound: Arc<dyn Outbound<K, V>>,
) -> WorkerHandle<K, V> {
    let obs = WorkerObs::new(&shared.obs, shared.trace);
    shared.track_ring(&obs.ring);
    let signal = Arc::new(Signal::new());
    let mailbox = Arc::new(Mailbox::new(Arc::clone(&signal)));
    let worker = Worker {
        slots: Vec::new(),
        stride,
        id,
        members,
        config,
        inbox: Arc::clone(&mailbox),
        signal,
        outbound,
        desk: Desk { shared, obs },
        inputs: VecDeque::new(),
        outbox: Vec::new(),
        outputs: Vec::new(),
    };
    let join = std::thread::Builder::new()
        .name(format!("worker-{}-{index}", id.as_u64()))
        .spawn(move || worker.run())
        .expect("spawn worker thread");
    WorkerHandle { mailbox, join }
}

/// What the slots of one worker have in common: the node they belong to and
/// the thread's instruments.
struct Desk<K: EngineKey, V: EngineValue> {
    shared: Arc<NodeShared<K, V>>,
    obs: WorkerObs,
}

impl<K: EngineKey, V: EngineValue> Desk<K, V> {
    fn now(&self) -> u64 {
        now_nanos(self.shared.start)
    }

    /// Hands an input routed under another stamp back to the router.
    fn reroute(&self, input: StaleInput<K, V>) {
        self.obs.rerouted.incr();
        self.shared.feedback.push(WorkerFeedback::Stale(input));
    }
}

/// One shard on its worker: the core and everything that is the shard's
/// alone.
struct Slot<K: EngineKey, V: EngineValue> {
    core: ShardCore<K, V>,
    /// The assignment this core is fenced at.
    stamp: Stamp,
    /// The cycle's commands for this shard, set aside until its peer and
    /// control inputs have been applied.
    submits: Vec<Submit<K, V>>,
    /// Those of them this core accepted, on their way into it.
    accepted: Vec<Submit<K, V>>,
    /// Commands whose proposal this core opened and has not yet seen learned:
    /// `(outer id, open timestamp)`, feeding the quorum-wait histogram. The
    /// vector stays warm at the steady-state in-flight window, so pushes stop
    /// allocating after warm-up; entries are reclaimed by the response drain
    /// (or at a cutover, for the commands it moves to another owner).
    pending: Vec<(CommandId, u64)>,
    /// How many of the core's opened instances the counter has been told of.
    instances_seen: u64,
    /// Decode targets reused across frames, one per message kind: a shard's
    /// inbound stream alternates kinds (`MERGE`/`PREPARE` at an acceptor,
    /// `MERGED`/`ACK` at a proposer), and a single target would be torn down
    /// and rebuilt on every flip. Per slot for the same reason (see the
    /// module docs).
    residents: Residents<LatticeMap<K, V>>,
    /// Whether the current cycle brought this shard an input or an output.
    served: bool,
}

impl<K: EngineKey, V: EngineValue> Slot<K, V> {
    fn peer(
        &mut self,
        desk: &Desk<K, V>,
        from: ReplicaId,
        routed: Stamp,
        message: Message<LatticeMap<K, V>>,
        dwell: u64,
    ) {
        if routed != self.stamp {
            let (epoch, shards) = routed;
            let shard = self.core.shard_id();
            desk.reroute(StaleInput::Ingress(IngressItem::Message(
                from,
                ShardMessage::Protocol { epoch, shards, shard, message },
            )));
            return;
        }
        desk.obs.stages.record(Stage::MailboxDwell, dwell);
        let step = Stopwatch::start();
        self.core.handle_message(from, message);
        desk.obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
    }

    fn frame(&mut self, desk: &Desk<K, V>, peek: Peek, from: ReplicaId, frame: Bytes, dwell: u64) {
        let obs = &desk.obs;
        obs.stages.record(Stage::MailboxDwell, dwell);
        let decode = Stopwatch::start();
        let core = &mut self.core;
        let wanted = |request| core.wants_reply(request);
        match self.residents.receive(&frame, peek, self.stamp, wanted) {
            Received::Message(message) => {
                obs.stages.record(Stage::Decode, decode.elapsed_nanos());
                let step = Stopwatch::start();
                core.handle_message_mut(from, message);
                obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
            }
            Received::Stale => desk.reroute(StaleInput::Ingress(IngressItem::Frame(from, frame))),
            Received::Skipped => obs.replies_skipped.incr(),
            // The protocol tolerates losses; the counter is the only trace a
            // dropped frame leaves.
            Received::Undecodable => obs.frames_undecodable.incr(),
        }
    }

    /// Mirrors one iteration of the single-threaded install: extract before
    /// any absorb (the router's barrier orders every extraction before the
    /// first `Absorb`), then cancel and purge. Completed-but-undrained single
    /// responses survive (their pending entries remain); undrained fan-out
    /// legs are discarded, exactly like the purge in
    /// `ShardedReplica::install_plan`.
    fn install(
        &mut self,
        desk: &Desk<K, V>,
        stamp: Stamp,
        partitioner: HashPartitioner,
        extract: bool,
    ) {
        let moves = if extract {
            self.core.extract_moves(|key| partitioner.shard_of(key))
        } else {
            Vec::new()
        };
        let rehome = self.core.cancel_and_rehome();
        self.core.purge_fanout_legs();
        self.stamp = stamp;
        // The cancelled proposals restart their quorum wait at their new owner
        // (resubmits when it accepts them, applied updates when its `Absorb`
        // opens their resync).
        self.pending.retain(|&(outer, _)| {
            !rehome.applied.iter().any(|&(_, command, _)| command == outer)
                && !rehome.resubmit.iter().any(|&(_, command, _)| command == outer)
        });
        desk.shared.feedback.push(WorkerFeedback::Rehomed { moves, rehome });
    }

    fn absorb(
        &mut self,
        desk: &Desk<K, V>,
        sub: LatticeMap<K, V>,
        rehomed: Vec<(ClientId, CommandId, K)>,
    ) {
        if !sub.is_empty() {
            self.core.absorb_moved(&sub);
        }
        let opened = desk.now();
        self.pending.extend(rehomed.iter().map(|&(_, command, _)| (command, opened)));
        self.core.begin_resync(rehomed);
    }

    /// Proposes the cycle's commands. Each is checked and accounted on its
    /// own; the ones this core accepts then go to it in one call (see the
    /// module docs). `now` is the cycle's dwell reference.
    fn propose(&mut self, desk: &Desk<K, V>, now: u64) {
        let (obs, shared) = (&desk.obs, &desk.shared);
        let first_opened = self.pending.len();
        for submit in self.submits.drain(..) {
            // This is the first engine thread to dequeue a command the client
            // thread pushed itself: its slot is free again, whether or not the
            // command stays here.
            if submit.routed_at.is_none() {
                shared.admission.release();
            }
            if submit.stamp != self.stamp {
                let Submit { client, outer, command, queued_at, .. } = submit;
                desk.reroute(StaleInput::Submit { client, outer, command, queued_at });
                continue;
            }
            // The accepting worker files the command's whole way in: submit →
            // first dequeue (the router's forward, or here), then the
            // forward's dwell in this mailbox, if any.
            let outer = submit.outer;
            let dequeued = submit.routed_at.unwrap_or(now);
            if let Some(queued_at) = submit.queued_at {
                obs.stages.record(Stage::SubmitQueue, dequeued.saturating_sub(queued_at));
                obs.ring.record(outer.0, Stage::SubmitQueue, dequeued);
                obs.ring.record(outer.0, Stage::MailboxDwell, now);
            }
            if submit.routed_at.is_some() {
                obs.stages.record(Stage::MailboxDwell, now.saturating_sub(dequeued));
            }
            self.pending.push((outer, 0));
            self.accepted.push(submit);
        }
        if !self.accepted.is_empty() {
            let step = Stopwatch::start();
            let accepted = self.accepted.drain(..);
            self.core.submit_cycle(accepted.map(|s| (s.client, s.outer, s.key, s.command)));
            obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
            let opened = desk.now();
            for (_, at) in &mut self.pending[first_opened..] {
                *at = opened;
            }
        }
    }

    /// Hands this shard's completed commands to the client and its fan-out
    /// legs to the router. Returns whether there were any.
    fn answer(&mut self, desk: &Desk<K, V>, outputs: &mut Vec<ShardOutput<K, V>>) -> bool {
        self.core.drain_outputs(outputs);
        let any = !outputs.is_empty();
        for output in outputs.drain(..) {
            match output {
                ShardOutput::Response(response) => {
                    if let Some(at) =
                        self.pending.iter().position(|&(outer, _)| outer == response.command)
                    {
                        let (_, opened) = self.pending.swap_remove(at);
                        let learned = desk.now();
                        desk.obs.stages.record(Stage::QuorumWait, learned.saturating_sub(opened));
                        desk.obs.ring.record(response.command.0, Stage::QuorumWait, learned);
                    }
                    desk.shared.respond(response);
                }
                ShardOutput::FanoutLeg { command, shard, round_trips, keys } => {
                    desk.shared.feedback.push(WorkerFeedback::FanoutLeg {
                        stamp: self.stamp,
                        command,
                        shard,
                        round_trips,
                        keys,
                    });
                }
            }
        }
        any
    }
}

/// The slot serving `shard` on a worker of a node that runs `stride` of them,
/// marked as having had work this cycle. The router adopts a shard before it
/// builds an assignment that names it and never moves one, so anything routed
/// here finds its slot; an input for a shard this worker does not serve is
/// dropped, like any lost message.
fn slot_of<K: EngineKey, V: EngineValue>(
    slots: &mut [Slot<K, V>],
    stride: usize,
    shard: ShardId,
) -> Option<&mut Slot<K, V>> {
    let slot = slots.get_mut(shard.as_usize() / stride)?;
    (slot.core.shard_id() == shard).then(|| {
        slot.served = true;
        slot
    })
}

/// One worker thread's state: its slots, its mailbox, and the buffers one
/// cycle reuses for all of them.
struct Worker<K: EngineKey, V: EngineValue> {
    /// The shards this thread serves, in adoption order: the router places
    /// shard `s` on worker `s % stride`, in rising order, so it is slot
    /// `s / stride` here.
    slots: Vec<Slot<K, V>>,
    stride: usize,
    /// What a core is built from when a shard is adopted.
    id: ReplicaId,
    members: Vec<ReplicaId>,
    config: ProtocolConfig,
    inbox: Arc<Mailbox<WorkerInput<K, V>>>,
    signal: Arc<Signal>,
    outbound: Arc<dyn Outbound<K, V>>,
    desk: Desk<K, V>,
    inputs: VecDeque<WorkerInput<K, V>>,
    /// Every slot's outgoing envelopes of one cycle.
    outbox: Vec<ShardEnvelope<LatticeMap<K, V>>>,
    outputs: Vec<ShardOutput<K, V>>,
}

impl<K: EngineKey, V: EngineValue> Worker<K, V> {
    /// The worker pump. Exits on [`WorkerInput::Shutdown`].
    fn run(mut self) {
        while self.cycle() {}
    }

    /// One pump cycle over every slot; `false` once told to shut down.
    fn cycle(&mut self) -> bool {
        let drained = self.inbox.drain_into(&mut self.inputs);
        self.desk.obs.mailbox_depth.observe(drained as u64);
        let had_inputs = drained > 0;
        // One dwell reference per pump cycle: everything drained together has
        // been waiting at least until now, and one clock read per batch keeps
        // the per-input overhead to the histogram's atomic add.
        let now = if had_inputs { self.desk.now() } else { 0 };
        // The clocks advance before the inputs are applied: after an untimed
        // park a core's notion of now is arbitrarily old, and a proposal
        // opened against it would look overdue for retransmission at once.
        let now_ms = self.desk.shared.start.elapsed().as_millis() as u64;
        for slot in &mut self.slots {
            slot.core.tick(now_ms);
        }
        // Peer traffic and control inputs first, each shard's new commands
        // after them: finish what is in flight before opening more. It is the
        // order the router used to impose (it drained ingress before
        // requests), and it matters: a proposal opened ahead of a queued
        // `Merge` carries a state its acceptors are one message past, which
        // costs a read on a contended key its single round trip.
        for input in self.inputs.drain(..) {
            match input {
                WorkerInput::Adopt { shard, stamp } => {
                    debug_assert_eq!(shard.as_usize() / self.stride, self.slots.len());
                    let (members, config) = (self.members.clone(), self.config.clone());
                    let mut core = ShardCore::new(shard, self.id, members, config);
                    core.tick(now_ms);
                    self.slots.push(Slot {
                        core,
                        stamp,
                        submits: Vec::new(),
                        accepted: Vec::new(),
                        pending: Vec::new(),
                        instances_seen: 0,
                        residents: Residents::new(),
                        served: false,
                    });
                }
                WorkerInput::Submit(submit) => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, submit.shard) {
                        slot.submits.push(submit);
                    }
                }
                WorkerInput::Peer { shard, from, stamp, message, at } => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, shard) {
                        slot.peer(&self.desk, from, stamp, message, now.saturating_sub(at));
                    }
                }
                WorkerInput::Frame { peek, from, frame, at } => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, peek.shard()) {
                        slot.frame(&self.desk, peek, from, frame, now.saturating_sub(at));
                    }
                }
                WorkerInput::FanoutLeg { shard, client, outer } => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, shard) {
                        slot.core.submit_fanout_leg(client, outer);
                    }
                }
                WorkerInput::Install { shard, stamp, partitioner, extract } => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, shard) {
                        slot.install(&self.desk, stamp, partitioner, extract);
                    }
                }
                WorkerInput::Absorb { shard, sub, rehomed } => {
                    if let Some(slot) = slot_of(&mut self.slots, self.stride, shard) {
                        slot.absorb(&self.desk, sub, rehomed);
                    }
                }
                WorkerInput::Shutdown => return false,
            }
        }

        let obs = &self.desk.obs;
        for slot in &mut self.slots {
            slot.propose(&self.desk, now);
            // Fan-out legs and resyncs open instances too; the core's own
            // count covers them all.
            let opened = slot.core.instances_opened();
            if opened != slot.instances_seen {
                obs.instances_opened.add(opened - slot.instances_seen);
                slot.instances_seen = opened;
            }
            slot.core.drain_outbox_into(slot.stamp, &mut self.outbox);
        }
        if !self.outbox.is_empty() {
            // Group by destination (stable: per-peer, per-shard order is
            // preserved) so the mesh ships one batch per peer for everything
            // this worker's shards said this cycle.
            self.outbox.sort_by_key(|envelope| envelope.to);
            let encode = Stopwatch::start();
            self.outbound.send_batch(&mut self.outbox);
            obs.stages.record(Stage::ReplyEncode, encode.elapsed_nanos());
        }
        let mut had_outputs = false;
        let mut served = 0;
        for slot in &mut self.slots {
            let answered = slot.answer(&self.desk, &mut self.outputs);
            had_outputs |= answered;
            served += u64::from(std::mem::take(&mut slot.served) || answered);
        }
        if served > 0 {
            obs.cycles.incr();
            obs.shard_cycles.add(served);
        }
        if !had_inputs && !had_outputs {
            obs.parks.incr();
            // A core with nothing in flight has no timer to serve — unless it
            // batches, in which case queued commands wait for the flush tick.
            if self.config.batch_interval_ms.is_some()
                || self.slots.iter().any(|slot| slot.core.in_flight() > 0)
            {
                self.signal.wait_timeout(PARK);
            } else {
                self.signal.wait();
            }
        }
        true
    }
}
