//! One shard's sans-IO core: a protocol instance plus the bookkeeping that maps
//! its command ids back to the sharded engine's command ids.
//!
//! [`ShardCore`] is the unit both execution models drive. The single-threaded
//! driver ([`crate::ShardedReplica`]) owns a `Vec<ShardCore>` and steps them in
//! shard order; the parallel executor (`crates/engine`) spreads the cores over
//! its worker threads — several to a thread when there are more shards than
//! CPU cores — and feeds each through its thread's mailbox. The core itself is a
//! pure state machine — no channels, clocks, or sockets: inputs arrive as method
//! calls (`handle_message`, `submit_single`, `tick`), outputs are drained as
//! value batches ([`ShardCore::drain_outbox_into`],
//! [`ShardCore::drain_outputs`]) — so the two drivers are behaviourally
//! interchangeable, and the deterministic simulator exercises exactly the code
//! the parallel engine runs.
//!
//! The rebalance-facing methods ([`ShardCore::cancel_and_rehome`],
//! [`ShardCore::extract_moves`], [`ShardCore::absorb_moved`],
//! [`ShardCore::begin_resync`], [`ShardCore::purge_fanout_legs`]) are the
//! per-shard halves of a plan installation. The choreography that sequences
//! them — and the epoch fence deciding when a message may reach a core at all
//! ([`fence_decision`]) — is [`crate::RouterCore`]'s, the one owner of the
//! stamp: it tells a driver *what* to do to which core
//! ([`crate::RouterEffect`]), and the driver — single-threaded or spread over
//! worker threads — only decides *where* that call runs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crdt::{Crdt, LatticeMap, MapOutput, MapQuery, ReplicaId};

use crate::config::ProtocolConfig;
use crate::metrics::Metrics;
use crate::msg::{
    ClientId, ClientResponse, Command, CommandId, Envelope, Message, RequestId, ResponseBody,
};
use crate::replica::Replica;
use crate::shard::{ShardEnvelope, ShardId, ShardMessage};

/// One partitioning assignment's identity: `(epoch, shard count)`, ordered
/// lexicographically. Within an epoch the larger shard count supersedes (the
/// same growth bias as [`crate::rebalance::winning_shards`]).
pub type Stamp = (u64, u32);

/// What the epoch fence decides about one stamped protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceDecision {
    /// Stamps match: deliver the message to its shard core.
    Process,
    /// The sender routes by a superseded assignment: do not process (its data
    /// would bypass the handoff copies); answer with the current plan instead.
    Bounce,
    /// The sender is ahead: buffer the message until its plan installs here,
    /// and ask the sender for the plan (the one-shot gossip may have been lost).
    Defer,
}

/// The assignment fence: compares a message's stamp against the receiver's.
///
/// Every incoming protocol message goes through this before it can reach a
/// [`ShardCore`]: in [`crate::RouterCore::on_message`] for both drivers, and —
/// the same function — on the parallel engine's direct ingress path, which
/// admits matching stamps without visiting the router. Comparing full `(epoch, shards)`
/// stamps (not just epochs) keeps racing same-epoch assignments fenced from
/// each other, so mixed-assignment quorums can never form.
pub fn fence_decision(current: Stamp, incoming: Stamp) -> FenceDecision {
    match incoming.cmp(&current) {
        std::cmp::Ordering::Less => FenceDecision::Bounce,
        std::cmp::Ordering::Greater => FenceDecision::Defer,
        std::cmp::Ordering::Equal => FenceDecision::Process,
    }
}

/// What a completed inner command maps back to at the sharded layer.
#[derive(Debug, Clone)]
enum Pending<K> {
    /// A single-shard command; answer with the outer command id. The key is
    /// kept so a rebalance can re-home the work onto the key's new owner shard
    /// (the command payload itself is reclaimed from the instance at cancel
    /// time).
    Single { command: CommandId, key: K },
    /// One leg of a keyspace-wide fan-out query.
    FanoutLeg { command: CommandId },
}

/// Inner command id → [`Pending`], for the commands still open.
///
/// The protocol instance hands inner ids out in sequence, so the table is a
/// window over that sequence: slot `i` belongs to inner id `first + i`, an
/// answered command leaves `None` behind, and the window's front advances past
/// whatever is answered. Unlike a tree it keeps its buffer when it empties — a
/// cycle's worth of entries comes and goes without allocating — and it is only
/// as long as the oldest open command is old.
#[derive(Debug)]
struct PendingTable<K> {
    first: u64,
    slots: VecDeque<Option<Pending<K>>>,
}

impl<K> PendingTable<K> {
    fn insert(&mut self, inner: CommandId, pending: Pending<K>) {
        if self.slots.is_empty() {
            self.first = inner.0;
        }
        let next = self.first + self.slots.len() as u64;
        assert_eq!(inner.0, next, "inner ids are handed out in sequence");
        self.slots.push_back(Some(pending));
    }

    fn remove(&mut self, inner: CommandId) -> Option<Pending<K>> {
        let index = inner.0.checked_sub(self.first)?;
        let pending = self.slots.get_mut(usize::try_from(index).ok()?)?.take();
        self.trim();
        pending
    }

    /// Empties the slots `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(&Pending<K>) -> bool) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|pending| !keep(pending)) {
                *slot = None;
            }
        }
        self.trim();
    }

    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
    }
}

/// One output of [`ShardCore::drain_outputs`]: either a finished single-shard
/// command (already translated to the outer command id) or one leg of a
/// keyspace-wide fan-out, which the driver aggregates across shards.
#[derive(Debug)]
pub enum ShardOutput<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// A completed single-shard command.
    Response(ClientResponse<LatticeMap<K, V>>),
    /// One shard's answer to a fan-out leg. `keys` is the shard's **unfiltered**
    /// key list (`None` if the leg failed); the aggregating driver filters it to
    /// the keys the shard owns under the current assignment, because handed-off
    /// ranges leave stale lower-bound copies behind at their source.
    FanoutLeg {
        /// The outer (fan-out) command id this leg belongs to.
        command: CommandId,
        /// The shard that answered.
        shard: ShardId,
        /// Round trips this leg took (the slowest leg is the fan-out's latency).
        round_trips: u32,
        /// The shard's key list, or `None` if the leg failed.
        keys: Option<Vec<K>>,
    },
}

/// One command reclaimed by a rebalance for plain resubmission: the client,
/// the outer command id, and the unapplied command itself.
pub type RehomedCommand<K, V> = (ClientId, CommandId, Command<LatticeMap<K, V>>);

/// The in-flight work a rebalance reclaimed from one core, translated to outer
/// command ids and ready to be re-homed under the new assignment.
#[derive(Debug, Default)]
pub struct CoreRehome<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Updates already applied to the local acceptor: their effects travel in
    /// the handoff copies, so they complete exactly once via a resync on the
    /// key's new owner ([`ShardCore::begin_resync`]).
    pub applied: Vec<(ClientId, CommandId, K)>,
    /// Unapplied updates and queries, handed back with their payloads: the
    /// driver simply resubmits them on the new owner shard.
    pub resubmit: Vec<RehomedCommand<K, V>>,
}

/// One shard's pure sans-IO core: the protocol instance (acceptor + proposer)
/// plus the inner→outer command-id bookkeeping, with no execution policy.
///
/// Everything timing- or transport-shaped lives in the driver: the core is
/// advanced by method calls and drained by value. See the module docs for the
/// two drivers and the split of rebalance responsibilities.
#[derive(Debug)]
pub struct ShardCore<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    shard: ShardId,
    replica: Replica<LatticeMap<K, V>>,
    pending: PendingTable<K>,
    /// Reused drain buffer for the instance outbox (no per-cycle allocs).
    scratch: Vec<Envelope<LatticeMap<K, V>>>,
    /// Reused drain buffer for the instance's completed commands.
    completed: Vec<ClientResponse<LatticeMap<K, V>>>,
}

impl<K, V> ShardCore<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Creates the core of shard `shard` for replica `id`.
    pub fn new(
        shard: ShardId,
        id: ReplicaId,
        members: Vec<ReplicaId>,
        config: ProtocolConfig,
    ) -> Self {
        ShardCore {
            shard,
            replica: Replica::new(id, members, LatticeMap::default(), config),
            pending: PendingTable { first: 0, slots: VecDeque::new() },
            scratch: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The shard this core serves.
    pub fn shard_id(&self) -> ShardId {
        self.shard
    }

    /// Read access to the wrapped protocol instance (metrics, local state).
    pub fn replica(&self) -> &Replica<LatticeMap<K, V>> {
        &self.replica
    }

    /// The local acceptor's payload state.
    pub fn local_state(&self) -> &LatticeMap<K, V> {
        self.replica.local_state()
    }

    /// Protocol instances currently in flight on this core.
    pub fn in_flight(&self) -> usize {
        self.replica.in_flight()
    }

    /// Protocol instances this core's proposer has opened so far
    /// ([`Replica::instances_opened`]).
    pub fn instances_opened(&self) -> u64 {
        self.replica.instances_opened()
    }

    /// Proposer metrics of this core's instance.
    pub fn metrics(&self) -> &Metrics {
        self.replica.metrics()
    }

    /// Submits a single-key command under the outer id `outer`. The driver has
    /// already routed the command here; `key` is retained so a later rebalance
    /// can re-home the work onto the key's new owner.
    pub fn submit_single(
        &mut self,
        client: ClientId,
        outer: CommandId,
        key: K,
        command: Command<LatticeMap<K, V>>,
    ) {
        self.submit_cycle([(client, outer, key, command)]);
    }

    /// Submits every given single-key command `(client, outer id, key, command)`
    /// as one cycle ([`Replica::submit_cycle`]): at most one update instance and
    /// one query instance for all of them, each command answered under its own
    /// outer id. [`ShardCore::submit_single`] is a cycle of one.
    pub fn submit_cycle(
        &mut self,
        commands: impl IntoIterator<Item = (ClientId, CommandId, K, Command<LatticeMap<K, V>>)>,
    ) {
        for (client, outer, key, command) in commands {
            let inner = self.replica.enqueue(client, command);
            self.pending.insert(inner, Pending::Single { command: outer, key });
        }
        self.replica.end_cycle();
    }

    /// Submits one leg of the keyspace-wide fan-out `outer`.
    ///
    /// Legs always ask for the shard's key list — even when the fan-out is a
    /// `Len` — because the aggregate must filter each answer down to the keys
    /// the shard currently owns (see [`ShardOutput::FanoutLeg`]).
    pub fn submit_fanout_leg(&mut self, client: ClientId, outer: CommandId) {
        let inner = self.replica.submit(client, Command::Query(MapQuery::Keys));
        self.pending.insert(inner, Pending::FanoutLeg { command: outer });
    }

    /// Delivers one protocol message from a peer's same-shard instance. The
    /// driver has already passed the message through the epoch fence
    /// ([`fence_decision`]).
    pub fn handle_message(&mut self, from: ReplicaId, message: Message<LatticeMap<K, V>>) {
        self.replica.handle_message(from, message);
    }

    /// [`ShardCore::handle_message`] over a borrowed message — the
    /// allocation-free entry point for frames decoded into a worker scratch.
    pub fn handle_message_mut(&mut self, from: ReplicaId, message: &mut Message<LatticeMap<K, V>>) {
        self.replica.handle_message_mut(from, message);
    }

    /// Whether a state-bearing reply to `request` can still have an effect on
    /// this core's instance ([`Replica::wants_reply`]).
    pub fn wants_reply(&self, request: RequestId) -> bool {
        self.replica.wants_reply(request)
    }

    /// Advances this core's notion of time (batch flushes, retransmissions).
    pub fn tick(&mut self, now_ms: u64) {
        self.replica.tick(now_ms);
    }

    /// Drains the instance's outgoing messages into `sink`, wrapping each in a
    /// [`ShardMessage::Protocol`] stamped with the driver's current assignment.
    pub fn drain_outbox_into(
        &mut self,
        stamp: Stamp,
        sink: &mut Vec<ShardEnvelope<LatticeMap<K, V>>>,
    ) {
        let (epoch, shards) = stamp;
        self.replica.drain_outbox_into(&mut self.scratch);
        sink.extend(self.scratch.drain(..).map(|envelope| ShardEnvelope {
            from: envelope.from,
            to: envelope.to,
            message: ShardMessage::Protocol {
                epoch,
                shards,
                shard: self.shard,
                message: envelope.message,
            },
        }));
    }

    /// Drains the instance's completed commands into `out`, translating inner
    /// command ids back to outer ones. Responses whose pending entry is gone
    /// (purged fan-out legs, cancelled resyncs) are absorbed silently.
    pub fn drain_outputs(&mut self, out: &mut Vec<ShardOutput<K, V>>) {
        self.replica.drain_responses_into(&mut self.completed);
        for response in self.completed.drain(..) {
            let Some(pending) = self.pending.remove(response.command) else {
                continue;
            };
            match pending {
                Pending::Single { command, .. } => {
                    out.push(ShardOutput::Response(ClientResponse {
                        client: response.client,
                        command,
                        body: response.body,
                        round_trips: response.round_trips,
                    }));
                }
                Pending::FanoutLeg { command } => {
                    let keys = match response.body {
                        ResponseBody::QueryDone(MapOutput::Keys(keys)) => Some(keys),
                        _ => None,
                    };
                    out.push(ShardOutput::FanoutLeg {
                        command,
                        shard: self.shard,
                        round_trips: response.round_trips,
                        keys,
                    });
                }
            }
        }
    }

    /// Cancels every in-flight command on this core and hands the reclaimed
    /// work back for re-homing under a new assignment (the cutover half of a
    /// plan installation). Fan-out legs are dropped — the driver restarts its
    /// fan-outs wholesale against the new shard set.
    pub fn cancel_and_rehome(&mut self) -> CoreRehome<K, V> {
        let mut rehome = CoreRehome { applied: Vec::new(), resubmit: Vec::new() };
        let cancelled = self.replica.cancel_in_flight();
        for (client, inner) in cancelled.applied_updates {
            if let Some(Pending::Single { command, key }) = self.pending.remove(inner) {
                rehome.applied.push((client, command, key));
            }
            // `None` is a cancelled waiterless resync: nothing to re-home.
        }
        for (client, inner, update) in cancelled.unapplied_updates {
            if let Some(Pending::Single { command, .. }) = self.pending.remove(inner) {
                rehome.resubmit.push((client, command, Command::Update(update)));
            }
        }
        for (client, inner, query) in cancelled.queries {
            match self.pending.remove(inner) {
                Some(Pending::Single { command, .. }) => {
                    rehome.resubmit.push((client, command, Command::Query(query)));
                }
                // Fan-out legs restart wholesale at the driver.
                Some(Pending::FanoutLeg { .. }) | None => {}
            }
        }
        rehome
    }

    /// The sub-states a new assignment routes away from this core, grouped by
    /// destination shard (`owner_of` is the new partitioner). Nothing is
    /// deleted at the source — the log-less design needs no truncation, and
    /// stale copies are lower bounds a future move-back absorbs.
    pub fn extract_moves(
        &self,
        mut owner_of: impl FnMut(&K) -> ShardId,
    ) -> Vec<(ShardId, LatticeMap<K, V>)> {
        let mut moves: BTreeMap<u32, LatticeMap<K, V>> = BTreeMap::new();
        for (key, value) in self.local_state().iter() {
            let destination = owner_of(key);
            if destination != self.shard {
                moves.entry(destination.as_u32()).or_default().merge_entry(key.clone(), value);
            }
        }
        moves.into_iter().map(|(shard, sub)| (ShardId(shard), sub)).collect()
    }

    /// Grafts a handed-off key range into this core's acceptor by lattice join
    /// (the destination half of a state handoff).
    pub fn absorb_moved(&mut self, sub: &LatticeMap<K, V>) {
        self.replica.absorb_state(sub);
    }

    /// Starts the resync instance that makes this core's freshly handed-off
    /// ranges quorum-durable, completing the given cut-over updates exactly
    /// once (their effects are already contained in the absorbed copies).
    pub fn begin_resync(&mut self, rehomed: Vec<(ClientId, CommandId, K)>) {
        let clients: Vec<ClientId> = rehomed.iter().map(|(client, _, _)| *client).collect();
        let inner_ids = self.replica.submit_resync(&clients);
        for ((_, outer, key), inner) in rehomed.into_iter().zip(inner_ids) {
            self.pending.insert(inner, Pending::Single { command: outer, key });
        }
    }

    /// Forgets every fan-out-leg mapping. Run before restarting fan-outs after
    /// a plan install: legs that completed with their responses still buffered
    /// in the instance must not leak into the restarted aggregate.
    pub fn purge_fanout_legs(&mut self) {
        self.pending.retain(|pending| !matches!(pending, Pending::FanoutLeg { .. }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crdt::{CounterUpdate, GCounter, MapUpdate};

    fn core(shard: u32) -> ShardCore<String, GCounter> {
        let members: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
        ShardCore::new(ShardId(shard), ReplicaId::new(0), members, ProtocolConfig::default())
    }

    #[test]
    fn fence_orders_full_stamps_lexicographically() {
        assert_eq!(fence_decision((1, 4), (1, 4)), FenceDecision::Process);
        assert_eq!(fence_decision((1, 4), (0, 8)), FenceDecision::Bounce);
        assert_eq!(fence_decision((1, 4), (1, 2)), FenceDecision::Bounce);
        assert_eq!(fence_decision((1, 4), (1, 8)), FenceDecision::Defer);
        assert_eq!(fence_decision((1, 4), (2, 1)), FenceDecision::Defer);
    }

    #[test]
    fn outputs_carry_outer_command_ids() {
        let mut core = core(0);
        core.submit_single(
            ClientId(7),
            CommandId(42),
            "k".to_string(),
            Command::Update(MapUpdate::Apply {
                key: "k".to_string(),
                update: CounterUpdate::Increment(1),
            }),
        );
        // Outgoing merges are stamped with the driver's assignment.
        let mut outbox = Vec::new();
        core.drain_outbox_into((0, 2), &mut outbox);
        assert!(!outbox.is_empty());
        for envelope in &outbox {
            assert!(matches!(
                envelope.message,
                ShardMessage::Protocol { epoch: 0, shards: 2, shard: ShardId(0), .. }
            ));
        }
        // Complete the quorum by acking from both peers.
        for envelope in outbox {
            if let ShardMessage::Protocol { message: Message::Merge { request, .. }, .. } =
                envelope.message
            {
                core.handle_message(envelope.to, Message::MergeAck { request });
            }
        }
        let mut out = Vec::new();
        core.drain_outputs(&mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            ShardOutput::Response(response) => {
                assert_eq!(response.command, CommandId(42));
                assert_eq!(response.client, ClientId(7));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn cancel_returns_applied_updates_for_rehoming() {
        let mut core = core(0);
        core.submit_single(
            ClientId(1),
            CommandId(5),
            "k".to_string(),
            Command::Update(MapUpdate::Apply {
                key: "k".to_string(),
                update: CounterUpdate::Increment(3),
            }),
        );
        let rehome = core.cancel_and_rehome();
        assert_eq!(rehome.applied.len(), 1);
        let (client, outer, key) = &rehome.applied[0];
        assert_eq!((*client, *outer, key.as_str()), (ClientId(1), CommandId(5), "k"));
        assert!(rehome.resubmit.is_empty());
    }

    #[test]
    fn extract_moves_groups_disowned_keys_by_destination() {
        let mut core = core(0);
        let mut sub = LatticeMap::<String, GCounter>::default();
        let mut counter = GCounter::new();
        counter.increment(ReplicaId::new(0), 1);
        sub.merge_entry("a".to_string(), &counter);
        sub.merge_entry("b".to_string(), &counter);
        core.absorb_moved(&sub);

        // A partitioner that disowns everything, alternating destinations.
        let moves = core.extract_moves(|key| if key == "a" { ShardId(1) } else { ShardId(2) });
        assert_eq!(moves.len(), 2);
        assert_eq!(moves[0].0, ShardId(1));
        assert!(moves[0].1.get(&"a".to_string()).is_some());
        assert_eq!(moves[1].0, ShardId(2));
        assert!(moves[1].1.get(&"b".to_string()).is_some());

        // A partitioner that keeps everything home moves nothing.
        assert!(core.extract_moves(|_| ShardId(0)).is_empty());
    }
}
