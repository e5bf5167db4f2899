//! The routing policy above the shard cores, as one sans-IO state machine.
//!
//! A log-less, leaderless protocol needs no auxiliary machinery, and per-key
//! instances are safe because nothing orders commands across keys — so
//! everything above a [`ShardCore`](crate::ShardCore) is *routing policy*: which
//! assignment is current, which messages may reach a core under it, how a new
//! assignment is agreed and cut over to, and how a keyspace-wide query is
//! answered from per-shard legs. [`RouterCore`] is that policy and nothing
//! else. It has no clock, channel or thread, never touches a shard core, and
//! does not know how many threads execute them. It owns
//!
//! * the **stamp**: the epoch, the [`HashPartitioner`] of that epoch and the
//!   installed [`RebalancePlan`] — a router core is its node's single stamp
//!   authority;
//! * the **epoch fence** ([`fence_decision`]) with its bounded queue of
//!   deferred future-stamp messages;
//! * the **control shard**, the `Replica<ControlState>` on which plans are
//!   agreed, and the coordinator's commit → read-back choreography;
//! * the **fan-out table** aggregating keyspace-wide queries;
//! * [`RebalanceStats`].
//!
//! # Inputs and effects
//!
//! A driver feeds it inputs — [`RouterCore::on_message`],
//! [`RouterCore::submit`], [`RouterCore::on_fanout_leg`],
//! [`RouterCore::begin_rebalance`], [`RouterCore::tick`],
//! [`RouterCore::poll_control`] — and each pushes what must happen next onto a
//! caller-owned `Vec<`[`RouterEffect`]`>`, in the order it must happen. The
//! driver *applies* effects: [`crate::ShardedReplica`] by calling into its
//! `Vec<ShardCore>` in place, the `engine` crate by pushing onto worker
//! mailboxes and its transport. Both therefore run one choreography, and the
//! simulator's linearizability proptests cover the engine's routing logic by
//! construction.
//!
//! # Installing a plan
//!
//! A plan install is the one step that is not a plain input → effects call,
//! because the driver has work of its own in the middle of it (the engine: a
//! barrier across its worker threads):
//!
//! 1. [`RouterCore::begin_install`] (or an input that leads to it) runs the
//!    idempotence / supersede check and swaps the partitioner; from here on
//!    the fence judges by the new stamp. It returns a [`Cutover`].
//! 2. The **driver** grows its instance table to the new shard count — a
//!    shrink keeps retired instances: their states are harmless lower bounds a
//!    later split reactivates in place — then for every instance that existed
//!    before extracts the handoff moves (previously active instances only),
//!    cancels and reclaims the in-flight work and purges the fan-out legs,
//!    and feeds each result to [`Cutover::absorb`].
//! 3. [`RouterCore::finish_install`] emits, in this fixed order: one
//!    [`RouterEffect::Absorb`] per destination, the re-homed
//!    [`RouterEffect::Submit`]s, the restarted fan-outs'
//!    [`RouterEffect::FanoutLeg`]s, the deferred messages whose stamp is now
//!    current as [`RouterEffect::ToShard`], and the plan gossip as
//!    [`RouterEffect::ToPeer`].
//!
//! The order is protocol-visible: every extraction precedes the first absorb
//! (extraction reads the acceptor state an absorb grows), and an `Absorb`
//! precedes the re-homed submits (a command must not reach its new owner ahead
//! of the state it has to see).

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

use crdt::{
    Crdt, GSetUpdate, Lattice, LatticeMap, MapOutput, MapQuery, MapUpdate, ReplicaId, SetOutput,
    SetQuery,
};

use crate::config::ProtocolConfig;
use crate::msg::{ClientId, ClientResponse, Command, CommandId, Envelope, Message, ResponseBody};
use crate::rebalance::{winning_shards, ControlState, RebalancePlan, RebalanceStats};
use crate::replica::Replica;
use crate::shard::{HashPartitioner, ShardEnvelope, ShardId, ShardMessage};
use crate::shard_core::{fence_decision, CoreRehome, FenceDecision, RehomedCommand, Stamp};

/// How many future-stamp messages are buffered while a plan is on its way;
/// overflow is dropped (the sender's retransmission recovers it).
const DEFERRED_CAP: usize = 4096;

/// One thing a [`RouterCore`] wants done. Effects are pushed in the order they
/// must be applied; a driver applies each one completely before the next.
#[derive(Debug)]
pub enum RouterEffect<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Deliver a peer's protocol message, which passed the fence, to `shard`.
    ToShard {
        /// The (active) shard the message is for.
        shard: ShardId,
        /// The sending replica.
        from: ReplicaId,
        /// The message.
        message: Message<LatticeMap<K, V>>,
    },
    /// Start one leg of the keyspace-wide query `outer` on `shard`.
    FanoutLeg {
        /// The shard to ask.
        shard: ShardId,
        /// The querying client.
        client: ClientId,
        /// The fan-out's command id.
        outer: CommandId,
    },
    /// Submit a single-key command on the shard that owns its key.
    Submit {
        /// The owner of `key` under the current assignment.
        shard: ShardId,
        /// The submitting client.
        client: ClientId,
        /// The id the response must carry.
        outer: CommandId,
        /// The command's key.
        key: K,
        /// The command.
        command: Command<LatticeMap<K, V>>,
    },
    /// The destination half of a handoff: join `sub` into `shard`'s acceptor
    /// (when it is not empty), then start the resync that makes it
    /// quorum-durable and completes the cut-over updates in `rehomed` exactly
    /// once.
    Absorb {
        /// The destination shard.
        shard: ShardId,
        /// Every sub-state the new assignment moved to it, joined.
        sub: LatticeMap<K, V>,
        /// Cut-over updates whose effects `sub` already contains.
        rehomed: Vec<(ClientId, CommandId, K)>,
    },
    /// Send an envelope to another replica.
    ToPeer(ShardEnvelope<LatticeMap<K, V>>),
    /// Answer a client.
    Respond(ClientResponse<LatticeMap<K, V>>),
}

/// A protocol message held back because it is stamped with a future
/// assignment: `(sender, stamp, shard, message)`.
type Deferred<K, V> = (ReplicaId, Stamp, ShardId, Message<LatticeMap<K, V>>);

/// Partial aggregate of a keyspace-wide query.
#[derive(Debug)]
enum FanoutAcc<K> {
    Len(u64),
    Keys(Vec<K>),
}

/// An in-flight keyspace-wide query, waiting for every shard's answer.
#[derive(Debug)]
struct Fanout<K> {
    client: ClientId,
    remaining: usize,
    /// Worst round-trip count over the legs (they run in parallel, so the
    /// slowest leg is the fan-out's latency).
    round_trips: u32,
    failed: bool,
    acc: FanoutAcc<K>,
}

/// Coordinator-side choreography of an initiated rebalance: commit the
/// proposal on the control shard, then read back the agreed winner.
#[derive(Debug, Clone, Copy)]
enum ControlPhase {
    /// Waiting for the shard-count proposal to commit.
    Committing { command: CommandId, epoch: u64 },
    /// Waiting for the linearizable read of the agreed proposals.
    Reading { command: CommandId, epoch: u64 },
}

/// A plan install in progress: what [`RouterCore::begin_install`] decided, and
/// the accumulator for what the driver gathers from its shard instances (see
/// the module docs).
pub struct Cutover<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// The assignment being installed; the driver grows its instance table to
    /// its shard count before gathering.
    pub stamp: Stamp,
    /// How many shards were active before. Only those instances are extracted
    /// from; one retired earlier holds nothing but stale lower bounds.
    pub old_active: usize,
    /// Handoff sub-states joined per destination shard.
    moves: BTreeMap<ShardId, LatticeMap<K, V>>,
    keys_moved: u64,
    applied: Vec<(ClientId, CommandId, K)>,
    resubmit: Vec<RehomedCommand<K, V>>,
}

impl<K, V> Cutover<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Folds in what one instance gave up — owed exactly once by every
    /// instance that existed before the install: the sub-states the new
    /// assignment routes away from it (`ShardCore::extract_moves`; none for a
    /// retired instance), joined per destination, and its reclaimed in-flight
    /// work (`ShardCore::cancel_and_rehome`).
    pub fn absorb(&mut self, moves: Vec<(ShardId, LatticeMap<K, V>)>, rehome: CoreRehome<K, V>) {
        for (destination, sub) in moves {
            self.keys_moved += sub.len() as u64;
            self.moves.entry(destination).or_default().join(&sub);
        }
        self.applied.extend(rehome.applied);
        self.resubmit.extend(rehome.resubmit);
    }
}

/// One replica's routing policy: stamp, fence, plan agreement, cutover
/// choreography and fan-out aggregation, with no execution policy. See the
/// module docs.
#[derive(Debug)]
pub struct RouterCore<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// The partitioning generation: 0 is the construction-time assignment.
    epoch: u64,
    /// The key→shard assignment of `epoch`.
    partitioner: HashPartitioner,
    /// The last installed plan (`None` until the first rebalance); echoed to
    /// stragglers by the fence.
    plan: Option<RebalancePlan>,
    /// The control shard: plans are agreed here through the ordinary protocol.
    /// Also what knows this replica's id and the replica group.
    control: Replica<ControlState>,
    control_phase: Option<ControlPhase>,
    /// A rebalance target requested while another initiated here was still in
    /// flight; started as soon as that one resolves (latest request wins).
    queued_target: Option<u32>,
    fanouts: BTreeMap<CommandId, Fanout<K>>,
    deferred: Vec<Deferred<K, V>>,
    /// Reused drain buffer for control-shard envelopes.
    control_scratch: Vec<Envelope<ControlState>>,
    stats: RebalanceStats,
}

impl<K, V> RouterCore<K, V>
where
    K: Ord + Clone + Hash + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Creates the router core of replica `id`, hash-routing over `shards`
    /// shards at epoch 0.
    ///
    /// The control shard takes `config` with batching off: plan agreement is
    /// rare, tiny and latency-sensitive — the whole cluster fences on its
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `members` does not contain `id`.
    pub fn new(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: &ProtocolConfig,
    ) -> Self {
        let partitioner = HashPartitioner::new(shards);
        let control_config = ProtocolConfig { batch_interval_ms: None, ..config.clone() };
        RouterCore {
            control: Replica::new(id, members, ControlState::default(), control_config),
            epoch: 0,
            partitioner,
            plan: None,
            control_phase: None,
            queued_target: None,
            fanouts: BTreeMap::new(),
            deferred: Vec::new(),
            control_scratch: Vec::new(),
            stats: RebalanceStats::default(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.control.id()
    }

    /// The replica group, in id order.
    pub fn members(&self) -> &[ReplicaId] {
        self.control.membership().members()
    }

    /// The partitioner routing keys to shards under the current epoch.
    pub fn partitioner(&self) -> &HashPartitioner {
        &self.partitioner
    }

    /// Number of active shards.
    pub fn active(&self) -> usize {
        self.partitioner.shards() as usize
    }

    /// The current assignment stamp: `(epoch, active shard count)`.
    pub fn stamp(&self) -> Stamp {
        (self.epoch, self.partitioner.shards())
    }

    /// The last installed rebalance plan, if any.
    pub fn plan(&self) -> Option<RebalancePlan> {
        self.plan
    }

    /// Counters describing this replica's view of past and ongoing rebalances.
    pub fn stats(&self) -> RebalanceStats {
        self.stats
    }

    /// Whether no rebalance initiated here is in flight (committing or reading
    /// back the plan on the control shard) or queued behind one that is.
    pub fn rebalance_idle(&self) -> bool {
        self.control_phase.is_none() && self.queued_target.is_none()
    }

    /// Whether anything here waits on [`RouterCore::tick`]: control-shard
    /// retransmissions, or deferred traffic waiting for its plan. A driver
    /// with none of it pending may sleep until the next input.
    pub fn needs_tick(&self) -> bool {
        self.control.in_flight() > 0 || self.control_phase.is_some() || !self.deferred.is_empty()
    }

    /// Advances the control shard's notion of time (retransmissions).
    pub fn tick(&mut self, now_ms: u64) {
        self.control.tick(now_ms);
    }

    /// Handles a shard-tagged message from another replica; protocol traffic
    /// goes through the assignment fence. A returned [`Cutover`] is a plan
    /// install the driver must now carry through.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        message: ShardMessage<LatticeMap<K, V>>,
        effects: &mut Vec<RouterEffect<K, V>>,
    ) -> Option<Cutover<K, V>> {
        let (stamp, shard, message) = match message {
            ShardMessage::Protocol { epoch, shards, shard, message } => {
                ((epoch, shards), shard, message)
            }
            ShardMessage::Control { message } => {
                self.control.handle_message(from, message);
                return self.poll_control();
            }
            ShardMessage::Rebalance { plan } => return self.begin_install(plan),
            ShardMessage::PlanRequest => {
                self.send_plan(from, effects);
                return None;
            }
        };
        match fence_decision(self.stamp(), stamp) {
            FenceDecision::Bounce => {
                // The sender routes by a superseded assignment. Its data must
                // not bypass the handoff copies, so answer with the plan
                // instead of processing; the sender installs it, re-homes,
                // and retries.
                self.stats.epoch_bounces += 1;
                self.send_plan(from, effects);
            }
            FenceDecision::Defer => {
                // The sender is ahead: its plan has not reached this replica
                // yet. Processing early would bypass the local handoff copy,
                // so buffer until the plan installs — and ask the sender for
                // it, because the one-shot gossip may have been lost and the
                // sender's retransmissions would otherwise just pile up here
                // with the same future stamp.
                if self.deferred.len() < DEFERRED_CAP {
                    self.stats.messages_deferred += 1;
                    self.deferred.push((from, stamp, shard, message));
                }
                effects.push(self.to_peer(from, ShardMessage::PlanRequest));
            }
            // Equal stamps mean the identical assignment, so in-range shard
            // ids are guaranteed for well-behaved peers; anything else is
            // dropped rather than corrupting another instance.
            FenceDecision::Process if shard.as_usize() < self.active() => {
                effects.push(RouterEffect::ToShard { shard, from, message });
            }
            FenceDecision::Process => {}
        }
        None
    }

    fn to_peer(
        &self,
        to: ReplicaId,
        message: ShardMessage<LatticeMap<K, V>>,
    ) -> RouterEffect<K, V> {
        RouterEffect::ToPeer(ShardEnvelope { from: self.id(), to, message })
    }

    /// Tells `to` the installed plan, if there is one.
    fn send_plan(&self, to: ReplicaId, effects: &mut Vec<RouterEffect<K, V>>) {
        if let Some(plan) = self.plan {
            effects.push(self.to_peer(to, ShardMessage::Rebalance { plan }));
        }
    }

    /// Routes a client command under the id `outer`: a single-key command to
    /// the shard owning its key, a keyspace-wide query as one leg per active
    /// shard, answered once every leg has reported
    /// ([`RouterCore::on_fanout_leg`]).
    pub fn submit(
        &mut self,
        client: ClientId,
        outer: CommandId,
        command: Command<LatticeMap<K, V>>,
        effects: &mut Vec<RouterEffect<K, V>>,
    ) {
        let acc = match &command {
            Command::Update(MapUpdate::Apply { key, .. })
            | Command::Query(MapQuery::Get { key, .. }) => {
                let (shard, key) = (self.partitioner.shard_of(key), key.clone());
                effects.push(RouterEffect::Submit { shard, client, outer, key, command });
                return;
            }
            Command::Query(MapQuery::Len) => FanoutAcc::Len(0),
            Command::Query(MapQuery::Keys) => FanoutAcc::Keys(Vec::new()),
        };
        let active = self.active();
        let fanout = Fanout { client, remaining: 0, round_trips: 0, failed: false, acc };
        let fanout = self.fanouts.entry(outer).or_insert(fanout);
        Self::launch_fanout_legs(outer, fanout, active, effects);
    }

    /// (Re)starts the fan-out `outer` from scratch: one `Keys` leg per active
    /// shard.
    ///
    /// Legs always ask for the shard's key list — even for `Len` — because the
    /// aggregate must filter each answer down to the keys the shard currently
    /// owns: handed-off ranges leave stale lower-bound copies at their source,
    /// and counting those would double-count moved keys.
    fn launch_fanout_legs(
        outer: CommandId,
        fanout: &mut Fanout<K>,
        active: usize,
        effects: &mut Vec<RouterEffect<K, V>>,
    ) {
        fanout.remaining = active;
        fanout.failed = false;
        fanout.acc = match fanout.acc {
            FanoutAcc::Len(_) => FanoutAcc::Len(0),
            FanoutAcc::Keys(_) => FanoutAcc::Keys(Vec::new()),
        };
        let client = fanout.client;
        effects.extend((0..active as u32).map(|shard| RouterEffect::FanoutLeg {
            shard: ShardId(shard),
            client,
            outer,
        }));
    }

    /// Folds one shard's key-list answer (`None`: the leg failed) into its
    /// fan-out aggregate — filtered to the keys the shard currently owns,
    /// because a shard answers for every key in its acceptor state, stale
    /// handoff leftovers included — and responds once every shard has
    /// answered. The driver must not feed legs that completed under a
    /// superseded assignment: an install restarts every open fan-out.
    pub fn on_fanout_leg(
        &mut self,
        command: CommandId,
        shard: ShardId,
        round_trips: u32,
        keys: Option<Vec<K>>,
        effects: &mut Vec<RouterEffect<K, V>>,
    ) {
        let partitioner = &self.partitioner;
        let Some(fanout) = self.fanouts.get_mut(&command) else { return };
        fanout.remaining = fanout.remaining.saturating_sub(1);
        fanout.round_trips = fanout.round_trips.max(round_trips);
        match keys {
            Some(keys) => {
                let owned = keys.into_iter().filter(|key| partitioner.shard_of(key) == shard);
                match &mut fanout.acc {
                    FanoutAcc::Len(total) => *total += owned.count() as u64,
                    FanoutAcc::Keys(all) => all.extend(owned),
                }
            }
            None => fanout.failed = true,
        }
        if fanout.remaining > 0 {
            return;
        }
        let fanout = self.fanouts.remove(&command).expect("fan-out present");
        let body = match fanout.acc {
            _ if fanout.failed => ResponseBody::QueryFailed,
            FanoutAcc::Len(total) => ResponseBody::QueryDone(MapOutput::Len(total)),
            FanoutAcc::Keys(mut keys) => {
                // Shards own disjoint key ranges; one sort restores the
                // keyspace-wide order `MapQuery::Keys` promises.
                keys.sort();
                ResponseBody::QueryDone(MapOutput::Keys(keys))
            }
        };
        effects.push(RouterEffect::Respond(ClientResponse {
            client: fanout.client,
            command,
            body,
            round_trips: fanout.round_trips,
        }));
    }

    /// Initiates a rebalance to `target_shards` hash-partitioned shards: the
    /// proposal is committed on the control shard through the ordinary
    /// protocol; once durable, this replica reads back the (deterministically
    /// resolved) winner and installs it ([`RouterCore::poll_control`]).
    ///
    /// Returns `false` if nothing was started: `target_shards` is zero, or a
    /// rebalance initiated here is still in flight — the new target is then
    /// queued (latest wins) and starts once the current choreography
    /// resolves. One runs at a time per coordinator; racing coordinators on
    /// different replicas are resolved by the control lattice plus the
    /// stamp-supersede rule.
    pub fn begin_rebalance(&mut self, target_shards: u32) -> bool {
        if target_shards == 0 {
            return false;
        }
        if self.control_phase.is_some() {
            self.queued_target = Some(target_shards);
            return false;
        }
        let epoch = self.epoch + 1;
        let proposal = MapUpdate::Apply { key: epoch, update: GSetUpdate::Insert(target_shards) };
        let command = self.control.submit(ClientId(self.id().as_u64()), Command::Update(proposal));
        self.control_phase = Some(ControlPhase::Committing { command, epoch });
        true
    }

    /// Starts the rebalance queued behind the one that just resolved.
    fn start_queued(&mut self) {
        if self.control_phase.is_none() {
            if let Some(target) = self.queued_target.take() {
                self.begin_rebalance(target);
            }
        }
    }

    /// Advances the coordinator choreography with the control shard's
    /// responses. A returned [`Cutover`] is the agreed plan's install, which
    /// the driver must now carry through.
    pub fn poll_control(&mut self) -> Option<Cutover<K, V>> {
        let mut cutover = None;
        for response in self.control.take_responses() {
            let done = response.command;
            match self.control_phase {
                Some(ControlPhase::Committing { command, epoch }) if command == done => {
                    // The proposal is durable; a linearizable read resolves
                    // racing proposals for the epoch to one deterministic
                    // winner.
                    let read = MapQuery::Get { key: epoch, query: SetQuery::Elements };
                    let command =
                        self.control.submit(ClientId(self.id().as_u64()), Command::Query(read));
                    self.control_phase = Some(ControlPhase::Reading { command, epoch });
                }
                Some(ControlPhase::Reading { command, epoch }) if command == done => {
                    self.control_phase = None;
                    if let ResponseBody::QueryDone(MapOutput::Value(Some(SetOutput::Elements(
                        proposals,
                    )))) = response.body
                    {
                        cutover = winning_shards(&proposals)
                            .and_then(|shards| self.begin_install(RebalancePlan { epoch, shards }));
                    }
                    // A rebalance requested meanwhile targets the next epoch:
                    // it starts when this install is through, or at once if
                    // there is none.
                    if cutover.is_none() {
                        self.start_queued();
                    }
                }
                _ => {}
            }
        }
        cutover
    }

    /// Starts installing a committed plan: from here on the fence judges by
    /// the plan's stamp. Idempotent — returns `None` for a plan whose
    /// `(epoch, shards)` stamp does not supersede the current assignment, and
    /// for a plan with zero shards (plans come from peers). A
    /// same-epoch plan with a larger shard count **does** supersede: racing
    /// coordinators may transiently install different assignments under one
    /// epoch, and the larger-shard-count winner (the growth bias of
    /// [`winning_shards`]) displaces the loser with a fresh handoff from the
    /// replica's current assignment; the full-stamp fence keeps the two from
    /// ever forming a mixed quorum in the interim.
    ///
    /// The driver must carry a returned [`Cutover`] through
    /// [`RouterCore::finish_install`] before it feeds any other input.
    pub fn begin_install(&mut self, plan: RebalancePlan) -> Option<Cutover<K, V>> {
        // Epoch 0 is reserved for the construction-time assignment.
        if plan.epoch == 0 || plan.shards == 0 || (plan.epoch, plan.shards) <= self.stamp() {
            return None;
        }
        let old_active = self.active();
        self.epoch = plan.epoch;
        self.partitioner = HashPartitioner::new(plan.shards);
        self.plan = Some(plan);
        self.stats.plans_installed += 1;
        Some(Cutover {
            stamp: self.stamp(),
            old_active,
            moves: BTreeMap::new(),
            keys_moved: 0,
            applied: Vec::new(),
            resubmit: Vec::new(),
        })
    }

    /// Completes a plan install with what the driver gathered: emits the
    /// handoff, the re-homed work, the restarted fan-outs, the deferred
    /// messages that were waiting for exactly this assignment, and the plan
    /// gossip — in that order (see the module docs).
    pub fn finish_install(
        &mut self,
        cutover: Cutover<K, V>,
        effects: &mut Vec<RouterEffect<K, V>>,
    ) {
        let Cutover { stamp: installed, mut moves, keys_moved, applied, resubmit, .. } = cutover;
        self.stats.keys_moved += keys_moved;
        self.stats.commands_rehomed += (applied.len() + resubmit.len()) as u64;
        let active = self.active();

        // Cut-over commands: their old-assignment quorum can no longer be
        // trusted to complete (peers that installed the plan bounce). Updates
        // already applied locally are contained in the handoff copies, so they
        // complete via the resync on their new owner — one `Absorb` per
        // destination makes handed-off ranges quorum-durable ahead of client
        // traffic; unapplied updates and queries are resubmitted there.
        let mut rehomed: BTreeMap<ShardId, Vec<(ClientId, CommandId, K)>> = BTreeMap::new();
        for (client, command, key) in applied {
            let owner = self.partitioner.shard_of(&key);
            rehomed.entry(owner).or_default().push((client, command, key));
        }
        for shard in (0..active as u32).map(ShardId) {
            let sub = moves.remove(&shard).unwrap_or_default();
            let rehomed = rehomed.remove(&shard).unwrap_or_default();
            if !(rehomed.is_empty() && sub.is_empty()) {
                effects.push(RouterEffect::Absorb { shard, sub, rehomed });
            }
        }
        for (client, outer, command) in resubmit {
            self.submit(client, outer, command, effects);
        }

        // Keyspace-wide fan-outs restart from scratch against the new shard
        // set (the driver purged or drops the old legs).
        for (&outer, fanout) in &mut self.fanouts {
            Self::launch_fanout_legs(outer, fanout, active, effects);
        }

        // Anything still newer keeps waiting, anything older turned stale.
        for (from, stamp, shard, message) in std::mem::take(&mut self.deferred) {
            if stamp > installed {
                self.deferred.push((from, stamp, shard, message));
            } else if stamp == installed && shard.as_usize() < active {
                effects.push(RouterEffect::ToShard { shard, from, message });
            }
        }

        // Gossip the plan once per install, so idle replicas converge without
        // waiting to be bounced (and a crashed coordinator cannot strand the
        // plan: any installed replica re-announces it).
        for peer in self.control.membership().others(self.id()) {
            self.send_plan(peer, effects);
        }
        self.start_queued();
    }

    /// Drains the control shard's outgoing messages into `sink`, wrapped as
    /// [`ShardMessage::Control`], preserving both buffers' capacity.
    pub fn drain_control_outbox_into(&mut self, sink: &mut Vec<ShardEnvelope<LatticeMap<K, V>>>) {
        self.control.drain_outbox_into(&mut self.control_scratch);
        sink.extend(self.control_scratch.drain(..).map(|envelope| ShardEnvelope {
            from: envelope.from,
            to: envelope.to,
            message: ShardMessage::Control { message: envelope.message },
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RequestId;
    use crdt::{CounterUpdate, GCounter};

    type Core = RouterCore<u64, GCounter>;
    type Effects = Vec<RouterEffect<u64, GCounter>>;

    const PEER: ReplicaId = ReplicaId::new(1);

    fn core(shards: u32) -> Core {
        let members = (0..3).map(ReplicaId::new).collect();
        RouterCore::new(ReplicaId::new(0), members, shards, &ProtocolConfig::default())
    }

    /// Installs `plan` with nothing gathered, discarding the effects.
    fn install(core: &mut Core, epoch: u64, shards: u32) {
        let cutover = core.begin_install(RebalancePlan { epoch, shards }).expect("supersedes");
        core.finish_install(cutover, &mut Vec::new());
    }

    fn stamped(
        epoch: u64,
        shards: u32,
        shard: u32,
        request: u64,
    ) -> ShardMessage<LatticeMap<u64, GCounter>> {
        let message = Message::MergeAck { request: RequestId(request) };
        ShardMessage::Protocol { epoch, shards, shard: ShardId(shard), message }
    }

    /// One letter per effect: `A`bsorb, `S`ubmit, `F`anoutLeg, `T`oShard,
    /// to`P`eer, `R`espond.
    fn kinds(effects: &Effects) -> String {
        effects
            .iter()
            .map(|effect| match effect {
                RouterEffect::Absorb { .. } => 'A',
                RouterEffect::Submit { .. } => 'S',
                RouterEffect::FanoutLeg { .. } => 'F',
                RouterEffect::ToShard { .. } => 'T',
                RouterEffect::ToPeer(_) => 'P',
                RouterEffect::Respond(_) => 'R',
            })
            .collect()
    }

    fn state(keys: &[u64]) -> LatticeMap<u64, GCounter> {
        let mut counter = GCounter::default();
        counter.increment(ReplicaId::new(0), 1);
        let mut state = LatticeMap::default();
        for &key in keys {
            state.merge_entry(key, &counter);
        }
        state
    }

    fn increment(key: u64) -> Command<LatticeMap<u64, GCounter>> {
        Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(1) })
    }

    /// The first key `from` that `shards_before` shards route to `before` and
    /// `shards_after` shards route to `after`.
    fn key_routed(shards_before: u32, before: u32, shards_after: u32, after: u32) -> u64 {
        let (old, new) = (HashPartitioner::new(shards_before), HashPartitioner::new(shards_after));
        (0..10_000u64)
            .find(|key| old.shard_of(key) == ShardId(before) && new.shard_of(key) == ShardId(after))
            .expect("a key with that route")
    }

    /// A plan comes from a peer: one with no shards could route nothing and
    /// is ignored, whatever its epoch; a valid one becomes the partitioner.
    #[test]
    fn hash_plans_realize_and_zero_shard_plans_do_not() {
        let mut core = core(2);
        assert!(core.begin_install(RebalancePlan { epoch: 3, shards: 0 }).is_none());
        assert_eq!((core.stamp(), core.plan()), ((0, 2), None));
        install(&mut core, 3, 8);
        assert_eq!((core.stamp(), *core.partitioner()), ((3, 8), HashPartitioner::new(8)));
    }

    /// The whole fence table, as a function of the incoming stamp alone.
    #[test]
    fn the_fence_bounces_defers_delivers_or_drops() {
        let mut core = core(2);
        install(&mut core, 1, 4);
        let mut effects = Effects::new();

        // Older: exactly one plan back to the sender, nothing to a shard.
        assert!(core.on_message(PEER, stamped(0, 2, 0, 7), &mut effects).is_none());
        assert!(core.on_message(PEER, stamped(1, 2, 0, 7), &mut effects).is_none());
        assert_eq!(kinds(&effects), "PP");
        for effect in effects.drain(..) {
            let RouterEffect::ToPeer(envelope) = effect else { unreachable!() };
            assert_eq!((envelope.from, envelope.to), (ReplicaId::new(0), PEER));
            let plan = RebalancePlan { epoch: 1, shards: 4 };
            assert_eq!(envelope.message, ShardMessage::Rebalance { plan });
        }
        assert_eq!(core.stats().epoch_bounces, 2);

        // Newer: held back, and the sender is asked for its plan — also for
        // the message that no longer fits the queue.
        for request in 0..=DEFERRED_CAP as u64 {
            assert!(core.on_message(PEER, stamped(2, 8, 5, request), &mut effects).is_none());
            assert_eq!(kinds(&effects), "P");
            let Some(RouterEffect::ToPeer(envelope)) = effects.pop() else { unreachable!() };
            assert_eq!((envelope.to, envelope.message), (PEER, ShardMessage::PlanRequest));
        }
        assert_eq!(core.stats().messages_deferred, DEFERRED_CAP as u64);
        assert!(core.needs_tick(), "deferred traffic waits on a timer");

        // Equal: to the shard, if there is one.
        core.on_message(PEER, stamped(1, 4, 3, 9), &mut effects);
        assert_eq!(kinds(&effects), "T");
        let Some(RouterEffect::ToShard { shard, from, message }) = effects.pop() else {
            unreachable!()
        };
        assert_eq!((shard, from, message.request()), (ShardId(3), PEER, RequestId(9)));
        core.on_message(PEER, stamped(1, 4, 4, 9), &mut effects);
        assert!(effects.is_empty(), "shard 4 of 4 does not exist");
        assert_eq!(core.stats().epoch_bounces, 2);

        // The deferred queue drains when its plan installs: all 4096, in
        // arrival order, and only those.
        let cutover = core.begin_install(RebalancePlan { epoch: 2, shards: 8 }).expect("newer");
        core.finish_install(cutover, &mut effects);
        assert_eq!(kinds(&effects), "T".repeat(DEFERRED_CAP) + "PP");
        let requests = effects.iter().filter_map(|effect| match effect {
            RouterEffect::ToShard { message, .. } => Some(message.request().0),
            _ => None,
        });
        assert!(requests.eq(0..DEFERRED_CAP as u64));
        assert!(!core.needs_tick(), "nothing is left waiting");
    }

    /// `finish_install` emits its effects grouped and in the protocol-visible
    /// order, every moved key in exactly one `Absorb`, every cancelled command
    /// in exactly one of `Absorb::rehomed` / `Submit`.
    #[test]
    fn finish_install_orders_handoff_rehoming_fanouts_deferrals_gossip() {
        let mut core = core(2);
        let mut effects = Effects::new();
        core.submit(ClientId(5), CommandId(100), Command::Query(MapQuery::Len), &mut effects);
        assert_eq!(kinds(&effects), "FF");
        core.on_message(PEER, stamped(1, 4, 2, 1), &mut effects);
        effects.clear();

        // Keys leaving shard 0 for 2 and shard 1 for 3, one staying on each.
        let (to_2, to_3) = (key_routed(2, 0, 4, 2), key_routed(2, 1, 4, 3));
        let (on_0, on_1) = (key_routed(2, 0, 4, 0), key_routed(2, 1, 4, 1));
        let mut cutover = core.begin_install(RebalancePlan { epoch: 1, shards: 4 }).expect("newer");
        assert_eq!((cutover.stamp, cutover.old_active), ((1, 4), 2));
        let applied = |command, key| (ClientId(1), CommandId(command), key);
        let resubmit = |command, key| (ClientId(2), CommandId(command), increment(key));
        cutover.absorb(
            vec![(ShardId(2), state(&[to_2]))],
            CoreRehome { applied: vec![applied(1, to_2), applied(2, on_0)], resubmit: vec![] },
        );
        cutover.absorb(
            vec![(ShardId(3), state(&[to_3]))],
            CoreRehome { applied: vec![applied(3, to_2)], resubmit: vec![resubmit(4, on_1)] },
        );
        core.finish_install(cutover, &mut effects);

        // Absorbs for shards 0 (a re-homed update only), 2 and 3; one
        // resubmit; the fan-out's four new legs; the deferred message; gossip
        // to both peers.
        assert_eq!(kinds(&effects), "AAASFFFFTPP");
        let mut moved = Vec::new();
        let mut commands = Vec::new();
        for effect in &effects {
            match effect {
                RouterEffect::Absorb { shard, sub, rehomed } => {
                    let owner = |key| core.partitioner().shard_of(key) == *shard;
                    assert!(sub.iter().all(|(key, _)| owner(key)));
                    assert!(rehomed.iter().all(|(_, _, key)| owner(key)));
                    moved.extend(sub.iter().map(|(key, _)| *key));
                    commands.extend(rehomed.iter().map(|(_, command, _)| command.0));
                }
                RouterEffect::Submit { shard, outer, key, .. } => {
                    assert_eq!(core.partitioner().shard_of(key), *shard);
                    commands.push(outer.0);
                }
                RouterEffect::FanoutLeg { outer, client, .. } => {
                    assert_eq!((*outer, *client), (CommandId(100), ClientId(5)));
                }
                RouterEffect::ToShard { shard, .. } => assert_eq!(*shard, ShardId(2)),
                RouterEffect::ToPeer(envelope) => {
                    let plan = RebalancePlan { epoch: 1, shards: 4 };
                    assert_eq!(envelope.message, ShardMessage::Rebalance { plan });
                }
                RouterEffect::Respond(_) => unreachable!(),
            }
        }
        moved.sort_unstable();
        let mut expected = [to_2, to_3];
        expected.sort_unstable();
        assert_eq!(moved, expected);
        commands.sort_unstable();
        assert_eq!(commands, [1, 2, 3, 4]);
        let stats = core.stats();
        assert_eq!((stats.plans_installed, stats.keys_moved, stats.commands_rehomed), (1, 2, 4));
    }

    /// A fan-out open across an install restarts, answers once, and counts a
    /// key that changed owner once — whether its legs reported before or
    /// after the restart; same-epoch plans supersede by shard count only.
    #[test]
    fn a_fanout_across_an_install_answers_once_and_counts_moved_keys_once() {
        let mut core = core(2);
        let mut effects = Effects::new();
        let (outer, client) = (CommandId(7), ClientId(3));
        core.submit(client, outer, Command::Query(MapQuery::Len), &mut effects);
        assert_eq!(kinds(&effects), "FF");
        effects.clear();

        // `moved` lives on shard 0 of 2 and on shard 2 of 4; its old copy
        // stays behind on shard 0 as a stale lower bound.
        let (moved, stays) = (key_routed(2, 0, 4, 2), key_routed(2, 0, 4, 0));
        core.on_fanout_leg(outer, ShardId(0), 1, Some(vec![moved, stays]), &mut effects);
        assert!(effects.is_empty(), "one leg of two");

        install(&mut core, 1, 4);
        // The restarted fan-out wants all four legs again; the last one
        // answers, with the slowest leg's round trips.
        let answers: [&[u64]; 4] = [&[moved, stays], &[], &[moved], &[]];
        for (shard, keys) in answers.into_iter().enumerate() {
            assert!(effects.is_empty(), "answered after {shard} legs of four");
            let round_trips = 1 + (shard == 1) as u32;
            core.on_fanout_leg(
                outer,
                ShardId(shard as u32),
                round_trips,
                Some(keys.to_vec()),
                &mut effects,
            );
        }
        assert_eq!(kinds(&effects), "R");
        let Some(RouterEffect::Respond(response)) = effects.pop() else { unreachable!() };
        assert_eq!((response.client, response.command, response.round_trips), (client, outer, 2));
        assert_eq!(response.body, ResponseBody::QueryDone(MapOutput::Len(2)));
        // Answered once: a late leg finds nothing to add to.
        core.on_fanout_leg(outer, ShardId(0), 1, Some(vec![stays]), &mut effects);
        assert!(effects.is_empty());

        // Same epoch: more shards supersede, fewer (or as many) do not.
        assert!(core.begin_install(RebalancePlan { epoch: 1, shards: 2 }).is_none());
        assert!(core.begin_install(RebalancePlan { epoch: 1, shards: 4 }).is_none());
        let cutover =
            core.begin_install(RebalancePlan { epoch: 1, shards: 8 }).expect("supersedes");
        assert_eq!((cutover.stamp, cutover.old_active), ((1, 8), 4));
        core.finish_install(cutover, &mut effects);
        assert_eq!((core.stamp(), core.stats().plans_installed), ((1, 8), 2));
        assert!(core.begin_install(RebalancePlan { epoch: 0, shards: 16 }).is_none());
    }
}
