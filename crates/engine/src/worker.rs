//! One shard's executor: an OS thread owning a [`ShardCore`] and draining a
//! lock-free mailbox.
//!
//! The worker is a pump around the sans-IO core: apply every queued input,
//! advance the core's clock, ship the outbox, hand completed commands to the
//! node's response queue, park when idle. Policy — fencing, rebalance
//! choreography, fan-out aggregation — lives in the router.
//!
//! **The pump cycle is the unit of agreement.** Whatever single-key commands
//! one drain of the mailbox brought in are proposed together
//! ([`ShardCore::submit_cycle`]): every update applied and *one* update
//! instance opened for them (one snapshot, one `MERGE` per peer), then *one*
//! query instance for all the reads (one `PREPARE` per peer, each read
//! evaluated on the learned state), each command answered under its own id.
//! This is the paper's §3.6 batching with the wait taken out: nothing is held
//! back for company, so a command that arrives alone is a cycle of one and
//! costs what it always did, and under load the cost of an instance — the
//! state snapshot, its encode per peer, the quorum walk over the replies — is
//! shared by everything that queued up while the previous cycle ran
//! (`instances_opened` against the `SubmitQueue` sample count is the ratio).
//! [`ProtocolConfig::batching`] is something else: *waiting* for more. Two
//! orders inside a cycle are protocol-level signals, not style: peer traffic
//! is applied before the cycle's commands, and the update instance opens
//! before the query instance, so the reads' `PREPARE` carries the writes.
//! Stamp re-check, admission release and stage accounting stay per command.
//!
//! A worker's mailbox has many producers. Client threads
//! ([`EngineNode::submit`]) and delivering threads ([`NodeIngress`]) push
//! protocol traffic and single-key commands straight into it under the
//! *published* assignment snapshot; the router pushes the same, plus the
//! control inputs only it may send (`FanoutLeg`, `Install`, `Absorb`,
//! `Shutdown`). A direct producer read its snapshot some time before it
//! pushed, so its item can land behind the `Install` of a newer assignment.
//! That is why every `Peer`, `Frame` and [`Submit`] carries the stamp it was
//! routed under (a frame in its own preamble) and the worker **re-checks it
//! against its own**: on a mismatch
//! the input is not applied — this core may no longer own the key — but handed
//! back to the router over `feedback` ([`WorkerFeedback::Stale`]), which runs
//! it through the current fence (stale peer traffic is bounced, a command is
//! routed to its new owner). The hand-back never blocks: `feedback` is
//! unbounded, because the router does not drain its request queue while it
//! waits in the cutover barrier.
//!
//!
//! A `Frame` is the one input the worker has to pay to read, and what it pays
//! is what a command costs once a shard holds more than a few keys. So it
//! reads the frame's six-varint preamble first ([`Residents::receive`]) and
//! decides from that alone: a stamp other than its own — the frame goes back
//! as the bytes it came in; an `ACK`/`NACK` for an instance that has retired
//! ([`ShardCore::wants_reply`]) — dropped and counted; anything else — decoded
//! in place into the long-lived message of that *kind*, whose maps, counters
//! and slots the previous frame of the kind left behind for this one to
//! overwrite. In steady state receiving a frame allocates nothing, whatever
//! order the kinds arrive in (`alloc_gate`'s mixed cases hold it to that).
//!
//! [`EngineNode::submit`]: crate::EngineNode::submit
//! [`NodeIngress`]: crate::NodeIngress

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crdt::{LatticeMap, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, CommandId, CoreRehome, Message, ProtocolConfig, ShardCore, ShardMessage,
    ShardOutput, Stamp,
};
use quorum::{HashPartitioner, Partitioner, ShardId};

use obs::{Stage, Stopwatch};

use crate::mailbox::{Mailbox, Signal};
use crate::mesh::Outbound;
use crate::node::{IngressItem, NodeShared};
use crate::resident::{Received, Residents};
use crate::telemetry::{now_nanos, WorkerObs};
use crate::{EngineKey, EngineValue};

/// How long a worker with protocol instances in flight (or batches to flush)
/// parks before ticking its core again. Retransmission timers are tens of
/// milliseconds, so a millisecond of tick granularity is plenty. A worker with
/// nothing to time parks untimed and wakes on its mailbox signal alone.
pub(crate) const PARK: Duration = Duration::from_millis(1);

/// Everything a shard worker can be asked. Delivered in FIFO order. The first
/// three variants may come from any dispatching thread and are re-checked
/// against the worker's stamp (see the module docs); the rest come from the
/// router alone, which orders every [`WorkerInput::Install`] before its own
/// traffic of the new assignment.
pub(crate) enum WorkerInput<K: EngineKey, V: EngineValue> {
    /// One fenced protocol message from a peer's same-shard instance, tagged
    /// with the stamp it was fenced under. `at` is when it was enqueued.
    Peer { from: ReplicaId, stamp: Stamp, message: Message<LatticeMap<K, V>>, at: u64 },
    /// One fenced protocol message still in its encoded wire frame. The
    /// dispatcher has peeked the stamp and applied the fence; the worker
    /// peeks again — the tag it re-checks is the stamp in the frame's own
    /// preamble — and decodes the body in place into the resident message of
    /// its kind ([`Residents`]), so steady-state frames reach the core
    /// without allocating.
    Frame { from: ReplicaId, frame: Bytes, at: u64 },
    /// A single-key client command.
    Submit(Submit<K, V>),
    /// One leg of a keyspace-wide fan-out.
    FanoutLeg { client: ClientId, outer: CommandId },
    /// A rebalance cutover: extract handoff sub-states (when `extract`),
    /// cancel in-flight work, purge fan-out legs, adopt the new stamp, and
    /// reply with [`WorkerFeedback::Rehomed`].
    Install { stamp: Stamp, partitioner: HashPartitioner, extract: bool },
    /// The destination half of a handoff: absorb the moved sub-state and start
    /// the resync that makes it quorum-durable (completing the given cut-over
    /// updates exactly once).
    Absorb { sub: LatticeMap<K, V>, rehomed: Vec<(ClientId, CommandId, K)> },
    /// Drain and exit; queued items behind this are dropped by the mailbox.
    Shutdown,
}

/// A single-key client command on its way to the shard that owns `key` under
/// `stamp`.
pub(crate) struct Submit<K: EngineKey, V: EngineValue> {
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
    /// [`ShardOutput::FanoutLeg`]), tagged with the stamp the worker held when
    /// it drained it. The router uses the tag to discard legs that completed
    /// under a superseded assignment (the parallel equivalent of
    /// [`ShardCore::purge_fanout_legs`] catching buffered responses).
    FanoutLeg {
        stamp: Stamp,
        command: CommandId,
        shard: ShardId,
        round_trips: u32,
        keys: Option<Vec<K>>,
    },
    /// The reply to a [`WorkerInput::Install`]: handoff sub-states grouped by
    /// destination shard plus the reclaimed in-flight work.
    Rehomed { moves: Vec<(ShardId, LatticeMap<K, V>)>, rehome: CoreRehome<K, V> },
    /// An input whose stamp tag is not the worker's own, handed back unapplied
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

/// The router's handle on one spawned worker.
pub(crate) struct WorkerHandle<K: EngineKey, V: EngineValue> {
    pub mailbox: Arc<Mailbox<WorkerInput<K, V>>>,
    pub join: JoinHandle<()>,
}

/// Spawns the worker thread for `shard`, already fenced at `stamp`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_worker<K: EngineKey, V: EngineValue>(
    shard: ShardId,
    id: ReplicaId,
    members: Vec<ReplicaId>,
    config: ProtocolConfig,
    stamp: Stamp,
    shared: Arc<NodeShared<K, V>>,
    outbound: Arc<dyn Outbound<K, V>>,
    obs: WorkerObs,
) -> WorkerHandle<K, V> {
    let signal = Arc::new(Signal::new());
    let mailbox = Arc::new(Mailbox::new(Arc::clone(&signal)));
    let inbox = Arc::clone(&mailbox);
    let join = std::thread::Builder::new()
        .name(format!("shard-{}-{}", id.as_u64(), shard.as_u32()))
        .spawn(move || {
            // A core with nothing in flight has no timer to serve — unless it
            // batches, in which case queued commands wait for the flush tick.
            let timed_when_idle = config.batching;
            let core = ShardCore::new(shard, id, members, config);
            run(core, stamp, timed_when_idle, inbox, signal, shared, outbound, obs);
        })
        .expect("spawn shard worker");
    WorkerHandle { mailbox, join }
}

/// The worker pump. Exits on [`WorkerInput::Shutdown`].
#[allow(clippy::too_many_arguments)]
fn run<K: EngineKey, V: EngineValue>(
    mut core: ShardCore<K, V>,
    mut stamp: Stamp,
    timed_when_idle: bool,
    inbox: Arc<Mailbox<WorkerInput<K, V>>>,
    signal: Arc<Signal>,
    shared: Arc<NodeShared<K, V>>,
    outbound: Arc<dyn Outbound<K, V>>,
    obs: WorkerObs,
) {
    let start = shared.start;
    let reroute = |input: StaleInput<K, V>| {
        obs.rerouted.incr();
        shared.feedback.push(WorkerFeedback::Stale(input));
    };
    let mut inputs = Vec::new();
    let mut submits = Vec::new();
    // The cycle's commands this core accepted, on their way into it.
    let mut accepted = Vec::new();
    let mut instances_seen = 0;
    let mut outbox = Vec::new();
    let mut outputs = Vec::new();
    // Commands whose proposal this worker opened and has not yet seen learned:
    // `(outer id, open timestamp)`, feeding the quorum-wait histogram. The
    // vector stays warm at the steady-state in-flight window, so pushes stop
    // allocating after warm-up; entries are reclaimed by the response drain
    // (or at a cutover, for the commands it moves to another owner).
    let mut pending: Vec<(CommandId, u64)> = Vec::new();
    // Decode targets reused across frames, one per message kind: a worker's
    // inbound stream alternates kinds (`MERGE`/`PREPARE` at an acceptor,
    // `MERGED`/`ACK` at a proposer), and a single target would be torn down
    // and rebuilt on every flip.
    let mut residents: Residents<LatticeMap<K, V>> = Residents::new();
    loop {
        let drained = inbox.drain_into(&mut inputs);
        obs.mailbox_depth.observe(drained as u64);
        let had_inputs = !inputs.is_empty();
        // One dwell reference per pump cycle: everything drained together has
        // been waiting at least until now, and one clock read per batch keeps
        // the per-input overhead to the histogram's atomic add.
        let now = if had_inputs { now_nanos(start) } else { 0 };
        // The clock advances before the inputs are applied: after an untimed
        // park the core's notion of now is arbitrarily old, and a proposal
        // opened against it would look overdue for retransmission at once.
        core.tick(start.elapsed().as_millis() as u64);
        // Peer traffic and control inputs first, the cycle's new commands
        // after them: finish what is in flight before opening more. It is the
        // order the router used to impose (it drained ingress before
        // requests), and it matters: a proposal opened ahead of a queued
        // `Merge` carries a state its acceptors are one message past, which
        // costs a read on a contended key its single round trip.
        for input in inputs.drain(..) {
            match input {
                WorkerInput::Submit(submit) => submits.push(submit),
                WorkerInput::Peer { from, stamp: routed, message, at } => {
                    if routed != stamp {
                        let (epoch, shards) = routed;
                        let shard = core.shard_id();
                        reroute(StaleInput::Ingress(IngressItem::Message(
                            from,
                            ShardMessage::Protocol { epoch, shards, shard, message },
                        )));
                        continue;
                    }
                    obs.stages.record(Stage::MailboxDwell, now.saturating_sub(at));
                    let step = Stopwatch::start();
                    core.handle_message(from, message);
                    obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
                }
                WorkerInput::Frame { from, frame, at } => {
                    obs.stages.record(Stage::MailboxDwell, now.saturating_sub(at));
                    let decode = Stopwatch::start();
                    let wanted = |request| core.wants_reply(request);
                    match residents.receive(&frame, stamp, wanted) {
                        Received::Message(message) => {
                            obs.stages.record(Stage::Decode, decode.elapsed_nanos());
                            let step = Stopwatch::start();
                            core.handle_message_mut(from, message);
                            obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
                        }
                        Received::Stale => {
                            reroute(StaleInput::Ingress(IngressItem::Frame(from, frame)));
                        }
                        Received::Skipped => obs.replies_skipped.incr(),
                        // The protocol tolerates losses; the counter is the
                        // only trace a dropped frame leaves.
                        Received::Undecodable => obs.frames_undecodable.incr(),
                    }
                }
                WorkerInput::FanoutLeg { client, outer } => core.submit_fanout_leg(client, outer),
                WorkerInput::Install { stamp: new_stamp, partitioner, extract } => {
                    // Mirrors one iteration of the single-threaded install:
                    // extract before any absorb (the router's barrier orders
                    // every extraction before the first Absorb), then cancel
                    // and purge. Completed-but-undrained single responses
                    // survive (their pending entries remain); undrained
                    // fan-out legs are discarded, exactly like the purge in
                    // `ShardedReplica::install_plan`.
                    let moves = if extract {
                        core.extract_moves(|key| partitioner.shard_of(key))
                    } else {
                        Vec::new()
                    };
                    let rehome = core.cancel_and_rehome();
                    core.purge_fanout_legs();
                    stamp = new_stamp;
                    // The cancelled proposals restart their quorum wait at
                    // their new owner (resubmits when it accepts them, applied
                    // updates when its `Absorb` opens their resync).
                    pending.retain(|&(outer, _)| {
                        !rehome.applied.iter().any(|&(_, command, _)| command == outer)
                            && !rehome.resubmit.iter().any(|&(_, command, _)| command == outer)
                    });
                    shared.feedback.push(WorkerFeedback::Rehomed { moves, rehome });
                }
                WorkerInput::Absorb { sub, rehomed } => {
                    if !sub.is_empty() {
                        core.absorb_moved(&sub);
                    }
                    let opened = now_nanos(start);
                    pending.extend(rehomed.iter().map(|&(_, command, _)| (command, opened)));
                    core.begin_resync(rehomed);
                }
                WorkerInput::Shutdown => return,
            }
        }
        // Each command is checked and accounted on its own; the ones this core
        // accepts then go to it in one call (see the module docs).
        let first_opened = pending.len();
        for submit in submits.drain(..) {
            let Submit { client, outer, key, command, stamp: routed, queued_at, routed_at } =
                submit;
            // This is the first engine thread to dequeue a command the client
            // thread pushed itself: its slot is free again, whether or not the
            // command stays here.
            if routed_at.is_none() {
                shared.admission.release();
            }
            if routed != stamp {
                reroute(StaleInput::Submit { client, outer, command, queued_at });
                continue;
            }
            // The accepting worker files the command's whole way in: submit →
            // first dequeue (the router's forward, or here), then the
            // forward's dwell in this mailbox, if any.
            let dequeued = routed_at.unwrap_or(now);
            if let Some(queued_at) = queued_at {
                obs.stages.record(Stage::SubmitQueue, dequeued.saturating_sub(queued_at));
                obs.ring.record(outer.0, Stage::SubmitQueue, dequeued);
                obs.ring.record(outer.0, Stage::MailboxDwell, now);
            }
            if routed_at.is_some() {
                obs.stages.record(Stage::MailboxDwell, now.saturating_sub(dequeued));
            }
            pending.push((outer, 0));
            accepted.push((client, outer, key, command));
        }
        if !accepted.is_empty() {
            let step = Stopwatch::start();
            core.submit_cycle(accepted.drain(..));
            obs.stages.record(Stage::ProtocolStep, step.elapsed_nanos());
            let opened = now_nanos(start);
            for (_, at) in &mut pending[first_opened..] {
                *at = opened;
            }
        }
        // Fan-out legs and resyncs open instances too; the core's own count
        // covers them all.
        let opened = core.instances_opened();
        if opened != instances_seen {
            obs.instances_opened.add(opened - instances_seen);
            instances_seen = opened;
        }
        core.drain_outbox_into(stamp, &mut outbox);
        if !outbox.is_empty() {
            // Group by destination (stable: per-peer order is preserved) so
            // the mesh ships one batch per peer for this whole cycle.
            outbox.sort_by_key(|envelope| envelope.to);
            let encode = Stopwatch::start();
            outbound.send_batch(&mut outbox);
            obs.stages.record(Stage::ReplyEncode, encode.elapsed_nanos());
        }
        core.drain_outputs(&mut outputs);
        let had_outputs = !outputs.is_empty();
        for output in outputs.drain(..) {
            match output {
                ShardOutput::Response(response) => {
                    if let Some(slot) =
                        pending.iter().position(|&(outer, _)| outer == response.command)
                    {
                        let (_, opened) = pending.swap_remove(slot);
                        let learned = now_nanos(start);
                        obs.stages.record(Stage::QuorumWait, learned.saturating_sub(opened));
                        obs.ring.record(response.command.0, Stage::QuorumWait, learned);
                    }
                    shared.respond(response);
                }
                ShardOutput::FanoutLeg { command, shard, round_trips, keys } => {
                    shared.feedback.push(WorkerFeedback::FanoutLeg {
                        stamp,
                        command,
                        shard,
                        round_trips,
                        keys,
                    });
                }
            }
        }
        if !had_inputs && !had_outputs {
            obs.parks.incr();
            if timed_when_idle || core.in_flight() > 0 {
                signal.wait_timeout(PARK);
            } else {
                signal.wait();
            }
        }
    }
}
