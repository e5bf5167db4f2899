//! Sharded keyspace: one independent protocol instance per key range, with
//! epoch-stamped dynamic resharding.
//!
//! The paper's fine-granularity argument (§1) is that linearizable CRDT access is
//! most useful *per key*, not per database: commands on different keys do not
//! conflict, so serializing a whole keyspace through a single round counter (one
//! [`Replica<LatticeMap>`] replicating the entire map) wastes the protocol's
//! leaderless parallelism. Generalized lattice agreement (Faleiro et al., PODC'12)
//! makes the finer granularity safe: per-key linearizability needs no ordering
//! *across* keys, so disjoint key ranges may run entirely independent protocol
//! instances.
//!
//! A key's instance is its [`ShardId`] under a [`HashPartitioner`]. Routing must
//! be **deterministic and identical on every replica**: if two replicas disagreed
//! on which shard owns a key, they would submit commands for the same key to
//! different protocol instances and per-key linearizability would be lost. The
//! partitioner therefore avoids any per-process randomness: it uses a fixed-seed
//! FNV-1a hash, not the process-seeded `RandomState` of the standard library.
//!
//! [`ShardedReplica`] is the single-threaded driver of that idea. Each shard
//! is a [`ShardCore`](crate::ShardCore) — an independent
//! [`Replica<LatticeMap<K, V>>`] with its own acceptor state, round counter,
//! in-flight quorums, and batching timers, packaged as a pure sans-io state
//! machine. Which core a key, a message or a handed-off range goes to is
//! decided by a [`RouterCore`] — the assignment stamp, the epoch fence, plan
//! agreement on the control shard, the cutover choreography and fan-out
//! aggregation, as a second pure state machine that emits
//! [`RouterEffect`]s — and this type does nothing but *apply* those effects to
//! its `Vec<ShardCore>` in place and collect the outboxes. Outgoing traffic is
//! multiplexed behind [`ShardEnvelope`]/[`ShardMessage`] (the inner protocol
//! message tagged with its [`ShardId`] and the sender's partitioning
//! **epoch**), so a single transport connection per peer carries all shards
//! while quorums on different shards advance concurrently: an update on shard
//! 0 never waits behind a contended read quorum on shard 3. The same cores and
//! the same router core, behind the same wire format, are alternatively
//! executed on real threads — the cores spread over `min(shards, cores)`
//! workers — by the `engine` crate: this is the
//! deterministic (simulator- and test-friendly) driver, the engine is the
//! parallel one, and neither holds routing logic of its own.
//!
//! # Dynamic resharding
//!
//! The key→shard assignment is no longer fixed at construction: the hash
//! partitioner is stamped with an epoch and a committed [`RebalancePlan`] moves the
//! keyspace to a new assignment while traffic continues (see [`crate::rebalance`]
//! for the full protocol). The log-less design makes the handoff a pure lattice
//! join — a moved key range is grafted into its destination instance's acceptor by
//! [`Replica::absorb_state`], with no log truncation, snapshotting, or replay:
//!
//! * a plan is agreed through the existing protocol on a dedicated **control
//!   shard** ([`ShardMessage::Control`] traffic) and then gossiped as
//!   [`ShardMessage::Rebalance`];
//! * installing a plan copies moving sub-states into their destinations, cancels
//!   in-flight commands and re-homes them on their new owner (applied updates via
//!   [`Replica::submit_resync`], everything else by resubmission), and submits a
//!   resync per destination so handed-off ranges become quorum-durable;
//! * from then on the **epoch fence** keeps routing unambiguous: protocol messages
//!   stamped with an older epoch are answered with the plan instead of being
//!   processed, and messages from newer epochs are deferred until the plan arrives.
//!
//! Per-key linearizability holds across the transition by quorum intersection: an
//! update committed at the old epoch was joined by a quorum of source-shard
//! acceptors before each of them fenced, so the same quorum's handoff copies carry
//! it into the destination shard, where every new-epoch read quorum intersects it.
//!
//! Keyspace-wide queries ([`MapQuery::Len`], [`MapQuery::Keys`]) fan out to every
//! shard and aggregate the per-shard answers, counting every key exactly once (a
//! shard's answer is filtered to the keys it currently owns, because handed-off
//! ranges deliberately leave stale lower-bound copies behind at the source); each
//! per-shard answer is individually linearizable, the aggregate is not a keyspace
//! snapshot (exactly the trade the paper's per-key granularity makes).

use std::fmt;
use std::hash::{Hash, Hasher};

use crdt::{Crdt, Lattice, LatticeMap, MapQuery, MapUpdate, ReplicaId};
use serde::{Deserialize, Serialize};

use crate::config::ProtocolConfig;
use crate::membership::Membership;
use crate::metrics::Metrics;
use crate::msg::{ClientId, ClientResponse, Command, CommandId, Message};
use crate::rebalance::{ControlState, RebalancePlan, RebalanceStats};
use crate::replica::Replica;
use crate::router_core::{Cutover, RouterCore, RouterEffect};
use crate::shard_core::{ShardCore, ShardOutput};
// Names the in-file tests reach through `super::*`.
#[cfg(test)]
use {crate::msg::ResponseBody, crdt::MapOutput};

/// Identifies one shard: one independent protocol instance over a key range.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ShardId(pub u32);

impl ShardId {
    /// Returns the raw index value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the raw index as a `usize` (for indexing shard vectors).
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// 64-bit FNV-1a, used instead of the standard library's `DefaultHasher` because the
/// routing hash must be identical across processes and runs (no random seeding).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Uniform hash partitioning: `shard = fnv1a(key) mod shards`.
///
/// Spreads a uniform workload evenly without any tuning. Rebalancing changes only
/// the shard count, so a [`HashPartitioner`] is the whole key→shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashPartitioner {
    shards: u32,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a keyspace needs at least one shard");
        HashPartitioner { shards }
    }

    /// Number of shards this partitioner routes onto (at least 1).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Returns the shard owning `key`, always smaller than
    /// [`HashPartitioner::shards`].
    pub fn shard_of<K: Hash + ?Sized>(&self, key: &K) -> ShardId {
        let mut hasher = Fnv1a::new();
        key.hash(&mut hasher);
        ShardId((hasher.finish() % u64::from(self.shards)) as u32)
    }
}

/// What peers exchange in a sharded deployment: ordinary protocol traffic tagged
/// with its shard and partitioning epoch, control-shard traffic, or a rebalance
/// plan. The `wire` codec encodes the variant tag and the small integer fields as
/// single-byte varints in front of the inner message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardMessage<C: Crdt> {
    /// Protocol traffic of one data shard, stamped with the sender's epoch.
    ///
    /// The `(epoch, shards)` stamp names the sender's exact assignment and is what
    /// makes routing unambiguous during a rebalance: a receiver on a newer stamp
    /// answers with [`ShardMessage::Rebalance`] instead of processing the message
    /// (its data may belong to a moved key range), and a receiver on an older
    /// stamp defers the message until it has installed the plan itself. The stamp
    /// carries the shard count and not just the epoch because racing coordinators
    /// may transiently install *different* assignments under the same epoch
    /// (resolved by the larger-shard-count plan superseding, mirroring
    /// [`crate::winning_shards`]); comparing full stamps keeps the fence airtight during
    /// that window — mixed-assignment quorums can never form.
    Protocol {
        /// The sender's partitioning epoch.
        epoch: u64,
        /// The shard count of the sender's assignment at that epoch.
        shards: u32,
        /// The protocol instance this message belongs to.
        shard: ShardId,
        /// The inner protocol message.
        message: Message<C>,
    },
    /// Traffic of the control shard, the protocol instance on which rebalance
    /// plans are agreed (see [`ControlState`]). Never epoch-fenced: the control
    /// shard is the meta layer the epochs come from.
    Control {
        /// The inner control-shard protocol message.
        message: Message<ControlState>,
    },
    /// A committed rebalance plan: gossiped once per installed epoch, and sent as
    /// the reply to old-epoch [`ShardMessage::Protocol`] traffic (the epoch
    /// bounce) and to [`ShardMessage::PlanRequest`]s. Installation is idempotent,
    /// so duplicates are harmless.
    Rebalance {
        /// The plan to install.
        plan: RebalancePlan,
    },
    /// "Send me your current rebalance plan."
    ///
    /// Emitted when future-stamp traffic is deferred: the sender of that traffic
    /// provably holds a plan this replica has not installed, and the one-shot
    /// gossip that should have delivered it may have been lost. Without this,
    /// a replica with no old-stamp traffic of its own (nothing to get bounced
    /// on) could stay behind indefinitely while its deferral buffer overflows.
    PlanRequest,
}

/// An addressed [`ShardMessage`]: the sharded counterpart of [`crate::Envelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEnvelope<C: Crdt> {
    /// Sending replica.
    pub from: ReplicaId,
    /// Receiving replica.
    pub to: ReplicaId,
    /// The shard-multiplexed message.
    pub message: ShardMessage<C>,
}

impl<C: Crdt> ShardEnvelope<C> {
    /// Splits the envelope into its destination and the transferable message.
    pub fn into_parts(self) -> (ReplicaId, ShardMessage<C>) {
        (self.to, self.message)
    }
}
/// A replicated keyspace partitioned over independent protocol instances, with
/// epoch-stamped dynamic resharding.
///
/// One `ShardedReplica` is one *process* of the cluster: it holds this replica's
/// acceptor+proposer pair for **every** shard (plus the control shard) and routes
/// between them. Drive it exactly like a [`Replica`] — [`ShardedReplica::submit`],
/// [`ShardedReplica::handle_message`], [`ShardedReplica::tick`], then drain
/// [`ShardedReplica::take_outbox`] / [`ShardedReplica::take_responses`]. Trigger a
/// live resharding with [`ShardedReplica::begin_rebalance`].
///
/// # Example
///
/// ```
/// use crdt::{CounterUpdate, GCounter, ReplicaId};
/// use crdt_paxos_core::{ClientId, ProtocolConfig, ResponseBody, ShardedReplica};
///
/// let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
/// let mut nodes: Vec<ShardedReplica<String, GCounter>> = ids
///     .iter()
///     .map(|&id| ShardedReplica::new(id, ids.clone(), 4, ProtocolConfig::default()))
///     .collect();
///
/// // Updates on different keys run on independent protocol instances.
/// nodes[0].submit_update(ClientId(0), "clicks".to_string(), CounterUpdate::Increment(2));
/// nodes[1].submit_update(ClientId(1), "views".to_string(), CounterUpdate::Increment(5));
///
/// // Deliver all produced messages until quiescence.
/// loop {
///     let mut envelopes = Vec::new();
///     for node in &mut nodes {
///         envelopes.extend(node.take_outbox());
///     }
///     if envelopes.is_empty() {
///         break;
///     }
///     for envelope in envelopes {
///         let from = envelope.from;
///         let (to, message) = envelope.into_parts();
///         nodes[to.as_u64() as usize].handle_message(from, message);
///     }
/// }
/// let responses = nodes[0].take_responses();
/// assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
/// ```
#[derive(Debug)]
pub struct ShardedReplica<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    config: ProtocolConfig,
    /// The routing policy: stamp, fence, control shard, cutover choreography,
    /// fan-out aggregation. Everything below only applies its effects.
    router: RouterCore<K, V>,
    /// Per-shard sans-IO cores, indexed by shard id. May exceed the active count
    /// after a shrinking rebalance: retired instances keep their (stale,
    /// lower-bound) states and are reactivated in place by a later growth.
    /// These are the same cores the parallel engine drives — this
    /// router is simply their single-threaded driver.
    shards: Vec<ShardCore<K, V>>,
    next_command: u64,
    responses: Vec<ClientResponse<LatticeMap<K, V>>>,
    /// Bounce replies and plan gossip produced outside the per-core outboxes.
    extra: Vec<ShardEnvelope<LatticeMap<K, V>>>,
    /// Reused buffer for the router core's effects (no per-cycle allocs).
    effects: Vec<RouterEffect<K, V>>,
    /// Reused drain buffer for the per-core outputs (no per-cycle allocs).
    output_scratch: Vec<ShardOutput<K, V>>,
}

impl<K, V> ShardedReplica<K, V>
where
    K: Ord + Clone + Hash + fmt::Debug + Send + 'static,
    V: Crdt,
{
    /// Creates a sharded replica with `shards` hash-partitioned protocol instances
    /// at epoch 0.
    ///
    /// Every replica of the cluster must be constructed with the same shard
    /// count: routing a key to different shards on different replicas would
    /// split the key's history over unrelated protocol instances.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `members` does not contain `id`.
    pub fn new(
        id: ReplicaId,
        members: Vec<ReplicaId>,
        shards: u32,
        config: ProtocolConfig,
    ) -> Self {
        let mut replica = ShardedReplica {
            router: RouterCore::new(id, members, shards, &config),
            config,
            shards: Vec::new(),
            next_command: 0,
            responses: Vec::new(),
            extra: Vec::new(),
            effects: Vec::new(),
            output_scratch: Vec::new(),
        };
        replica.grow_to(replica.router.active());
        replica
    }

    /// Grows the instance table to `count` cores, deterministically (every
    /// replica constructs the same instances).
    fn grow_to(&mut self, count: usize) {
        while self.shards.len() < count {
            self.shards.push(ShardCore::new(
                ShardId(self.shards.len() as u32),
                self.router.id(),
                self.router.members().to_vec(),
                self.config.clone(),
            ));
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.router.id()
    }

    /// Number of **active** shards (independent protocol instances the current
    /// partitioning routes onto). See [`ShardedReplica::instance_count`] for the
    /// total including retired instances.
    pub fn shard_count(&self) -> u32 {
        self.router.stamp().1
    }

    /// Total number of protocol instances held, including instances retired by a
    /// shrinking rebalance (kept as reactivatable lower bounds).
    pub fn instance_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The current partitioning epoch (0 until the first rebalance completes).
    pub fn epoch(&self) -> u64 {
        self.router.stamp().0
    }

    /// The last installed rebalance plan, if any.
    pub fn current_plan(&self) -> Option<RebalancePlan> {
        self.router.plan()
    }

    /// Counters describing this replica's view of past and ongoing rebalances.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.router.stats()
    }

    /// The shard owning `key` under the current epoch.
    pub fn shard_of(&self, key: &K) -> ShardId {
        self.router.partitioner().shard_of(key)
    }

    /// The replica group (identical across shards).
    pub fn membership(&self) -> &Membership<ReplicaId> {
        self.shards[0].replica().membership()
    }

    /// Read access to one shard's protocol instance (tests, observability).
    pub fn shard(&self, shard: ShardId) -> &Replica<LatticeMap<K, V>> {
        self.shards[shard.as_usize()].replica()
    }

    /// Iterates over all shard instances in shard order (including retired ones).
    pub fn shards(&self) -> impl Iterator<Item = &Replica<LatticeMap<K, V>>> {
        self.shards.iter().map(ShardCore::replica)
    }

    /// Total number of protocol instances currently in flight over all data
    /// shards (the control shard is excluded).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(ShardCore::in_flight).sum()
    }

    /// Proposer metrics aggregated over all data shards.
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::default();
        for shard in &self.shards {
            total.merge(shard.metrics());
        }
        total
    }

    /// The whole keyspace as one map: the join of every shard's local acceptor
    /// state (observability and tests; linearizable reads go through
    /// [`ShardedReplica::submit`]). Stale handoff leftovers are absorbed by the
    /// join, so this is invariant across a rebalance.
    pub fn merged_state(&self) -> LatticeMap<K, V> {
        let mut merged = LatticeMap::default();
        for shard in &self.shards {
            merged.join(shard.local_state());
        }
        merged
    }

    /// Submits a client command, routing it to the owning shard (or fanning it out
    /// to all shards for keyspace-wide queries). Returns the id used to correlate
    /// the response.
    pub fn submit(&mut self, client: ClientId, command: Command<LatticeMap<K, V>>) -> CommandId {
        let outer = CommandId(self.next_command);
        self.next_command += 1;
        self.router.submit(client, outer, command, &mut self.effects);
        self.apply_effects();
        outer
    }

    /// Convenience wrapper: apply a nested update to `key`.
    pub fn submit_update(&mut self, client: ClientId, key: K, update: V::Update) -> CommandId {
        self.submit(client, Command::Update(MapUpdate::Apply { key, update }))
    }

    /// Convenience wrapper: run a nested query against `key`.
    pub fn submit_query(&mut self, client: ClientId, key: K, query: V::Query) -> CommandId {
        self.submit(client, Command::Query(MapQuery::Get { key, query }))
    }

    /// Handles a shard-tagged message from another replica.
    pub fn handle_message(&mut self, from: ReplicaId, message: ShardMessage<LatticeMap<K, V>>) {
        let cutover = self.router.on_message(from, message, &mut self.effects);
        self.settle(cutover);
    }

    /// Initiates a rebalance to `target_shards` hash-partitioned shards.
    ///
    /// The proposal is committed on the control shard through the ordinary
    /// protocol; once durable, this replica reads back the (deterministically
    /// resolved) winner, installs it, and gossips the plan — see
    /// [`RouterCore`] for the full choreography. Returns `false` if a
    /// rebalance initiated here is still in flight — the new target is then
    /// queued (latest wins) and starts once the current choreography resolves;
    /// one runs at a time per coordinator, and racing coordinators on different
    /// replicas are resolved by the control lattice plus the assignment-stamp
    /// supersede rule.
    pub fn begin_rebalance(&mut self, target_shards: u32) -> bool {
        self.router.begin_rebalance(target_shards)
    }

    /// Installs a committed rebalance plan: grows the instance table, performs the
    /// lattice-join state handoff, fences the old assignment, re-homes in-flight
    /// work, and gossips the plan. Idempotent — plans whose `(epoch, shards)`
    /// stamp does not supersede the current assignment are ignored; a same-epoch
    /// plan with a larger shard count **does** supersede (see
    /// [`RouterCore::begin_install`]).
    pub fn install_plan(&mut self, plan: RebalancePlan) {
        let cutover = self.router.begin_install(plan);
        self.settle(cutover);
    }

    /// Carries a plan install the router core started through, if there is
    /// one, and applies the effects of the input that led here.
    fn settle(&mut self, cutover: Option<Cutover<K, V>>) {
        if let Some(mut cutover) = cutover {
            // The driver's half of an install (see [`crate::router_core`]): every
            // key the new assignment routes away from its old instance is
            // extracted for its destination — nothing is deleted, stale source
            // copies are lower bounds a future move-back absorbs — and every
            // in-flight command is reclaimed for re-homing.
            let before = self.shards.len();
            self.grow_to(cutover.stamp.1 as usize);
            for (index, core) in self.shards.iter_mut().enumerate().take(before) {
                let moves = if index < cutover.old_active {
                    core.extract_moves(|key| self.router.partitioner().shard_of(key))
                } else {
                    Vec::new()
                };
                let rehome = core.cancel_and_rehome();
                // Legs that completed with their responses still buffered in
                // the instance would otherwise leak into the restarted
                // aggregate, double-counting keys.
                core.purge_fanout_legs();
                cutover.absorb(moves, rehome);
            }
            self.router.finish_install(cutover, &mut self.effects);
        }
        self.apply_effects();
    }

    /// Applies what the router core decided to the cores and the outboxes.
    fn apply_effects(&mut self) {
        for effect in self.effects.drain(..) {
            match effect {
                RouterEffect::ToShard { shard, from, message } => {
                    self.shards[shard.as_usize()].handle_message(from, message);
                }
                RouterEffect::FanoutLeg { shard, client, outer } => {
                    self.shards[shard.as_usize()].submit_fanout_leg(client, outer);
                }
                RouterEffect::Submit { shard, client, outer, key, command } => {
                    self.shards[shard.as_usize()].submit_single(client, outer, key, command);
                }
                RouterEffect::Absorb { shard, sub, rehomed } => {
                    let core = &mut self.shards[shard.as_usize()];
                    if !sub.is_empty() {
                        core.absorb_moved(&sub);
                    }
                    core.begin_resync(rehomed);
                }
                RouterEffect::ToPeer(envelope) => self.extra.push(envelope),
                RouterEffect::Respond(response) => self.responses.push(response),
            }
        }
    }

    /// Advances every shard's notion of time (batch flushes, retransmissions).
    pub fn tick(&mut self, now_ms: u64) {
        for shard in &mut self.shards {
            shard.tick(now_ms);
        }
        self.router.tick(now_ms);
    }

    /// Drains the shard-tagged messages produced since the last call.
    pub fn take_outbox(&mut self) -> Vec<ShardEnvelope<LatticeMap<K, V>>> {
        let mut out = Vec::new();
        self.drain_outbox_into(&mut out);
        out
    }

    /// Drains the shard-tagged messages produced since the last call into
    /// `sink`, preserving its capacity — the allocation-free form of
    /// [`ShardedReplica::take_outbox`]. Callers recycle one drain buffer and
    /// steady-state cycles push into resident storage.
    pub fn drain_outbox_into(&mut self, sink: &mut Vec<ShardEnvelope<LatticeMap<K, V>>>) {
        // Polled every pump cycle; almost never with a plan to install.
        if let Some(cutover) = self.router.poll_control() {
            self.settle(Some(cutover));
        }
        let stamp = self.router.stamp();
        sink.append(&mut self.extra);
        for core in &mut self.shards {
            core.drain_outbox_into(stamp, sink);
        }
        self.router.drain_control_outbox_into(sink);
    }

    /// Drains the client responses produced since the last call, with fan-out
    /// queries aggregated across shards.
    pub fn take_responses(&mut self) -> Vec<ClientResponse<LatticeMap<K, V>>> {
        let cutover = self.router.poll_control();
        self.settle(cutover);
        let mut outputs = std::mem::take(&mut self.output_scratch);
        for index in 0..self.shards.len() {
            self.shards[index].drain_outputs(&mut outputs);
            for output in outputs.drain(..) {
                match output {
                    ShardOutput::Response(response) => self.responses.push(response),
                    ShardOutput::FanoutLeg { command, shard, round_trips, keys } => {
                        let effects = &mut self.effects;
                        self.router.on_fanout_leg(command, shard, round_trips, keys, effects);
                        self.apply_effects();
                    }
                }
            }
        }
        self.output_scratch = outputs;
        std::mem::take(&mut self.responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{CounterQuery, CounterUpdate, GCounter};

    type Node = ShardedReplica<String, GCounter>;

    fn ids(n: u64) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId::new).collect()
    }

    fn cluster(replicas: u64, shards: u32, config: ProtocolConfig) -> Vec<Node> {
        ids(replicas)
            .iter()
            .map(|&id| ShardedReplica::new(id, ids(replicas), shards, config.clone()))
            .collect()
    }

    fn run_to_quiescence(nodes: &mut [Node]) {
        loop {
            let mut envelopes = Vec::new();
            for node in nodes.iter_mut() {
                for envelope in node.take_outbox() {
                    envelopes.push((envelope.from, envelope.into_parts()));
                }
            }
            if envelopes.is_empty() {
                break;
            }
            for (from, (to, message)) in envelopes {
                let index = nodes.iter().position(|n| n.id() == to).expect("known replica");
                nodes[index].handle_message(from, message);
            }
        }
    }

    #[test]
    fn updates_and_reads_route_through_the_owning_shard() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        nodes[0].submit_update(ClientId(0), "alpha".into(), CounterUpdate::Increment(2));
        nodes[1].submit_update(ClientId(1), "beta".into(), CounterUpdate::Increment(5));
        run_to_quiescence(&mut nodes);
        assert_eq!(nodes[0].take_responses().len(), 1);
        assert_eq!(nodes[1].take_responses().len(), 1);

        // Reads at a third replica observe both committed updates.
        nodes[2].submit_query(ClientId(2), "alpha".into(), CounterQuery::Value);
        nodes[2].submit_query(ClientId(2), "beta".into(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        let responses = nodes[2].take_responses();
        let values: Vec<_> = responses
            .iter()
            .map(|r| match &r.body {
                ResponseBody::QueryDone(MapOutput::Value(Some(v))) => *v,
                other => panic!("unexpected response {other:?}"),
            })
            .collect();
        assert_eq!(values, vec![2, 5]);

        // The keys live on the shards the partitioner says they do.
        let alpha_shard = nodes[0].shard_of(&"alpha".to_string());
        assert!(nodes[0].shard(alpha_shard).local_state().get(&"alpha".to_string()).is_some());
    }

    #[test]
    fn shards_advance_independent_round_counters() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        // Find two keys on different shards.
        let (mut key_a, mut key_b) = (None, None);
        for i in 0..64u32 {
            let key = format!("k{i}");
            match nodes[0].shard_of(&key).as_u32() {
                0 if key_a.is_none() => key_a = Some(key),
                1 if key_b.is_none() => key_b = Some(key),
                _ => {}
            }
        }
        let (key_a, key_b) = (key_a.unwrap(), key_b.unwrap());

        // A read on shard A proceeds even while shard B has an update stuck
        // in flight (its merges are never delivered).
        nodes[0].submit_update(ClientId(0), key_b.clone(), CounterUpdate::Increment(1));
        let stuck: Vec<_> = nodes[0].take_outbox();
        assert!(!stuck.is_empty(), "shard B has undelivered merges");

        nodes[1].submit_query(ClientId(1), key_a.clone(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        let responses = nodes[1].take_responses();
        assert_eq!(responses.len(), 1, "shard A's quorum is not blocked by shard B");
        assert_eq!(responses[0].round_trips, 1, "uncontended shard reads stay one round trip");
        assert!(nodes[0].take_responses().is_empty(), "shard B's update is still pending");
        assert_eq!(nodes[0].in_flight(), 1);
    }

    #[test]
    fn keyspace_wide_queries_aggregate_over_all_shards() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        for (i, key) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            nodes[i % 3].submit_update(ClientId(9), (*key).into(), CounterUpdate::Increment(1));
            run_to_quiescence(&mut nodes);
            nodes[i % 3].take_responses();
        }

        nodes[0].submit(ClientId(9), Command::Query(MapQuery::Len));
        nodes[0].submit(ClientId(9), Command::Query(MapQuery::Keys));
        run_to_quiescence(&mut nodes);
        let responses = nodes[0].take_responses();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(MapOutput::Len(5)));
        match &responses[1].body {
            ResponseBody::QueryDone(MapOutput::Keys(keys)) => {
                let expected: Vec<String> =
                    ["a", "b", "c", "d", "e"].iter().map(|k| k.to_string()).collect();
                assert_eq!(keys, &expected, "fan-out keys come back in keyspace order");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn merged_state_joins_all_shards() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        nodes[0].submit_update(ClientId(0), "x".into(), CounterUpdate::Increment(3));
        nodes[0].submit_update(ClientId(0), "y".into(), CounterUpdate::Increment(4));
        run_to_quiescence(&mut nodes);
        let merged = nodes[2].merged_state();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(&"x".to_string()).unwrap().value(), 3);
        assert_eq!(merged.get(&"y".to_string()).unwrap().value(), 4);
    }

    #[test]
    fn messages_for_unknown_shards_are_dropped() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        let bogus: ShardMessage<LatticeMap<String, GCounter>> = ShardMessage::Protocol {
            epoch: 0,
            shards: 2,
            shard: ShardId(9),
            message: Message::MergeAck { request: crate::msg::RequestId(0) },
        };
        nodes[0].handle_message(ReplicaId::new(1), bogus);
        assert!(nodes[0].take_outbox().is_empty(), "bogus shard ids produce no traffic");
    }

    #[test]
    fn shard_envelopes_survive_the_wire_format() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        nodes[0].submit_update(ClientId(0), "k".into(), CounterUpdate::Increment(1));
        let envelopes = nodes[0].take_outbox();
        assert!(!envelopes.is_empty());
        for envelope in envelopes {
            let bytes = wire::to_vec(&envelope).unwrap();
            let decoded: ShardEnvelope<LatticeMap<String, GCounter>> =
                wire::from_slice(&bytes).unwrap();
            assert_eq!(decoded, envelope);
            // The variant tag, epoch, shard count, and shard id cost four bytes
            // on the wire for small values.
            if let ShardMessage::Protocol { message, .. } = &envelope.message {
                let inner = crate::Envelope {
                    from: envelope.from,
                    to: envelope.to,
                    message: message.clone(),
                };
                let inner_bytes = wire::to_vec(&inner).unwrap();
                assert!(bytes.len() <= inner_bytes.len() + 4);
            }
        }
    }

    #[test]
    fn metrics_aggregate_over_shards() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        for key in ["a", "b", "c"] {
            nodes[0].submit_update(ClientId(0), key.into(), CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        for key in ["a", "b", "c"] {
            nodes[0].submit_query(ClientId(0), key.into(), CounterQuery::Value);
        }
        run_to_quiescence(&mut nodes);
        assert_eq!(nodes[0].take_responses().len(), 6);
        let metrics = nodes[0].metrics();
        assert_eq!(metrics.queries_consistent_quorum + metrics.queries_by_vote, 3);
        assert_eq!(nodes[0].shard_count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Node::new(ReplicaId::new(0), ids(3), 0, ProtocolConfig::default());
    }

    // ----- dynamic resharding ---------------------------------------------------

    /// Runs the full coordinator choreography to quiescence: control commit, read,
    /// install, gossip, handoff resyncs.
    fn rebalance_to(nodes: &mut [Node], coordinator: usize, target: u32) {
        assert!(nodes[coordinator].begin_rebalance(target));
        run_to_quiescence(nodes);
    }

    #[test]
    fn split_preserves_values_and_advances_the_epoch_everywhere() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        let keys: Vec<String> = (0..16).map(|i| format!("key{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            nodes[i % 3].submit_update(
                ClientId(0),
                key.clone(),
                CounterUpdate::Increment(i as u64 + 1),
            );
        }
        run_to_quiescence(&mut nodes);
        for node in nodes.iter_mut() {
            node.take_responses();
        }
        let before: Vec<_> = nodes.iter().map(|n| n.merged_state()).collect();

        rebalance_to(&mut nodes, 0, 8);

        for node in &nodes {
            assert_eq!(node.epoch(), 1, "every replica installs the plan");
            assert_eq!(node.shard_count(), 8);
            assert_eq!(node.current_plan(), Some(RebalancePlan { epoch: 1, shards: 8 }));
            assert!(node.rebalance_stats().plans_installed == 1);
        }
        // The handoff preserves the keyspace exactly.
        for (node, before) in nodes.iter().zip(&before) {
            assert_eq!(&node.merged_state(), before, "handoff must not change merged_state");
        }
        // Post-split reads are linearizable and see every pre-split update.
        for (i, key) in keys.iter().enumerate() {
            nodes[i % 3].submit_query(ClientId(1), key.clone(), CounterQuery::Value);
            run_to_quiescence(&mut nodes);
            let responses = nodes[i % 3].take_responses();
            assert_eq!(responses.len(), 1);
            match &responses[0].body {
                ResponseBody::QueryDone(MapOutput::Value(Some(v))) => {
                    assert_eq!(*v as usize, i + 1, "value of {key} survives the split");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn merge_then_split_round_trips_through_retired_instances() {
        let mut nodes = cluster(3, 8, ProtocolConfig::default());
        for i in 0..12 {
            nodes[0].submit_update(ClientId(0), format!("k{i}"), CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();

        rebalance_to(&mut nodes, 1, 4);
        assert_eq!(nodes[0].shard_count(), 4);
        assert_eq!(nodes[0].instance_count(), 8, "retired instances are kept");

        // Write through the merged assignment, then split back out.
        nodes[2].submit_update(ClientId(0), "k3".into(), CounterUpdate::Increment(5));
        run_to_quiescence(&mut nodes);
        nodes[2].take_responses();

        rebalance_to(&mut nodes, 0, 8);
        assert_eq!(nodes[1].epoch(), 2);
        assert_eq!(nodes[1].shard_count(), 8);

        // The post-merge update is visible after moving back: the reactivated
        // instance's stale copy was absorbed by the lattice join.
        nodes[1].submit_query(ClientId(9), "k3".into(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        let responses = nodes[1].take_responses();
        assert_eq!(
            responses[0].body,
            ResponseBody::QueryDone(MapOutput::Value(Some(6))),
            "updates from every epoch survive merge + split"
        );
    }

    #[test]
    fn rebalance_to_the_identical_plan_is_a_noop_for_data_and_routing() {
        let mut nodes = cluster(3, 4, ProtocolConfig::default());
        nodes[0].submit_update(ClientId(0), "a".into(), CounterUpdate::Increment(7));
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();
        let before: Vec<_> = nodes.iter().map(|n| n.merged_state()).collect();

        rebalance_to(&mut nodes, 0, 4);

        for (node, before) in nodes.iter().zip(&before) {
            assert_eq!(node.epoch(), 1, "the epoch still advances (the plan committed)");
            assert_eq!(node.shard_count(), 4);
            assert_eq!(node.instance_count(), 4);
            assert_eq!(&node.merged_state(), before);
            assert_eq!(
                node.rebalance_stats().keys_moved,
                0,
                "no key moves under an identical plan"
            );
        }
        nodes[2].submit_query(ClientId(0), "a".into(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        assert_eq!(
            nodes[2].take_responses()[0].body,
            ResponseBody::QueryDone(MapOutput::Value(Some(7)))
        );
    }

    #[test]
    fn in_flight_updates_cut_over_complete_exactly_once() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        // Start an update but do not deliver its merges yet.
        nodes[0].submit_update(ClientId(0), "pending".into(), CounterUpdate::Increment(3));
        let held: Vec<_> = nodes[0].take_outbox();
        assert!(!held.is_empty());
        assert_eq!(nodes[0].in_flight(), 1);

        // The other replicas agree on a split while the update is in flight; the
        // coordinator's plan gossip reaches replica 0, which re-homes the update.
        assert!(nodes[1].begin_rebalance(4));
        run_to_quiescence(&mut nodes);

        assert_eq!(nodes[0].epoch(), 1);
        let responses = nodes[0].take_responses();
        assert_eq!(responses.len(), 1, "the cut-over update answers exactly once");
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
        assert!(nodes[0].rebalance_stats().commands_rehomed >= 1);

        // Exactly once: the value reflects a single application of the increment.
        nodes[2].submit_query(ClientId(1), "pending".into(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        assert_eq!(
            nodes[2].take_responses()[0].body,
            ResponseBody::QueryDone(MapOutput::Value(Some(3)))
        );
    }

    #[test]
    fn old_epoch_messages_bounce_back_the_plan() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        rebalance_to(&mut nodes, 0, 4);
        assert_eq!(nodes[1].epoch(), 1);

        // A straggler still routing by epoch 0 gets the plan back instead of an ack.
        let stale: ShardMessage<LatticeMap<String, GCounter>> = ShardMessage::Protocol {
            epoch: 0,
            shards: 2,
            shard: ShardId(0),
            message: Message::MergeAck { request: crate::msg::RequestId(99) },
        };
        nodes[1].handle_message(ReplicaId::new(2), stale);
        let bounced = nodes[1].take_outbox();
        assert!(bounced.iter().any(|envelope| matches!(
            envelope.message,
            ShardMessage::Rebalance { plan: RebalancePlan { epoch: 1, shards: 4 } }
        ) && envelope.to == ReplicaId::new(2)));
        assert_eq!(nodes[1].rebalance_stats().epoch_bounces, 1);
    }

    #[test]
    fn future_epoch_messages_are_deferred_until_the_plan_installs() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        // Hand-deliver a future-epoch message: it must not be processed yet.
        let early: ShardMessage<LatticeMap<String, GCounter>> = ShardMessage::Protocol {
            epoch: 1,
            shards: 4,
            shard: ShardId(3),
            message: Message::MergeAck { request: crate::msg::RequestId(7) },
        };
        nodes[0].handle_message(ReplicaId::new(1), early);
        assert_eq!(nodes[0].rebalance_stats().messages_deferred, 1);
        // Deferral asks the ahead sender for its plan (the one-shot gossip may
        // have been lost), and produces nothing else.
        let out = nodes[0].take_outbox();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].message, ShardMessage::PlanRequest));
        assert_eq!(out[0].to, ReplicaId::new(1));

        // Installing the plan drains the buffer (the ack targets a dead request,
        // so it is absorbed silently — the point is that it is routed at all).
        nodes[0].install_plan(RebalancePlan { epoch: 1, shards: 4 });
        assert_eq!(nodes[0].epoch(), 1);
        assert_eq!(nodes[0].shard_count(), 4);
    }

    /// Racing coordinators are the dangerous corner of plan agreement: replica 2
    /// can commit + read + install its plan before replica 0's proposal for the
    /// *same* epoch even commits, so the two read different proposal sets and
    /// derive different winners. The full `(epoch, shards)` stamp keeps the two
    /// assignments fenced from each other, and the larger-shard-count plan
    /// supersedes in place, so the cluster converges to one assignment.
    #[test]
    fn racing_coordinators_converge_to_one_assignment() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        for i in 0..10 {
            nodes[i % 3].submit_update(ClientId(0), format!("k{i}"), CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        for node in nodes.iter_mut() {
            node.take_responses();
        }

        // Both coordinators target epoch 1 with different shard counts; replica
        // 0's traffic is held back so replica 2 commits, reads {4}, and installs
        // (1, 4) everywhere before replica 0's proposal for 8 even lands.
        assert!(nodes[0].begin_rebalance(8));
        assert!(nodes[2].begin_rebalance(4));
        let mut held = Vec::new();
        loop {
            let mut deliverable = Vec::new();
            for node in nodes.iter_mut() {
                for envelope in node.take_outbox() {
                    if envelope.from == ReplicaId::new(0) {
                        held.push(envelope);
                    } else {
                        deliverable.push(envelope);
                    }
                }
            }
            if deliverable.is_empty() {
                break;
            }
            for envelope in deliverable {
                let from = envelope.from;
                let (to, message) = envelope.into_parts();
                let index = nodes.iter().position(|n| n.id() == to).expect("known replica");
                nodes[index].handle_message(from, message);
            }
        }
        assert_eq!(nodes[2].current_plan(), Some(RebalancePlan { epoch: 1, shards: 4 }));

        // Release replica 0's proposal; it commits late, reads {4, 8}, picks the
        // winner 8, and supersedes the same-epoch 4-shard assignment everywhere.
        for envelope in held {
            let from = envelope.from;
            let (to, message) = envelope.into_parts();
            let index = nodes.iter().position(|n| n.id() == to).expect("known replica");
            nodes[index].handle_message(from, message);
        }
        run_to_quiescence(&mut nodes);

        let stamps: Vec<_> =
            nodes.iter().map(|n| (n.epoch(), n.shard_count(), n.current_plan())).collect();
        assert!(
            stamps.iter().all(|stamp| stamp == &stamps[0]),
            "replicas must converge to one assignment, got {stamps:?}"
        );
        assert_eq!(stamps[0].2, Some(RebalancePlan { epoch: 1, shards: 8 }));

        // Data written before the race survives, reads stay linearizable.
        for i in 0..10 {
            nodes[i % 3].submit_query(ClientId(1), format!("k{i}"), CounterQuery::Value);
            run_to_quiescence(&mut nodes);
            let responses = nodes[i % 3].take_responses();
            assert_eq!(
                responses[0].body,
                ResponseBody::QueryDone(MapOutput::Value(Some(1))),
                "k{i} must survive the racing rebalances"
            );
        }
    }

    /// A fan-out leg that completed — with its response still buffered in the
    /// instance — before a plan installs must not leak into the restarted
    /// fan-out: its stale answer would double-count keys and complete the
    /// aggregate early.
    #[test]
    fn buffered_fanout_legs_do_not_leak_into_the_restarted_fanout() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        for i in 0..10 {
            nodes[0].submit_update(ClientId(0), format!("k{i}"), CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();

        // Run the fan-out to full completion at the protocol level WITHOUT
        // draining responses: every leg's answer is now buffered.
        nodes[0].submit(ClientId(5), Command::Query(MapQuery::Len));
        run_to_quiescence(&mut nodes);

        // Install a same-shard-count plan directly: the fan-out restarts while
        // the stale leg responses still sit in their instances.
        for node in nodes.iter_mut() {
            node.install_plan(RebalancePlan { epoch: 1, shards: 2 });
        }
        run_to_quiescence(&mut nodes);
        let responses = nodes[0].take_responses();
        assert_eq!(responses.len(), 1, "exactly one aggregate response");
        assert_eq!(
            responses[0].body,
            ResponseBody::QueryDone(MapOutput::Len(10)),
            "stale buffered legs must not be double-counted"
        );
    }

    /// Losing every copy of the one-shot plan gossip must not strand a passive
    /// replica: the first future-stamp message it defers triggers a
    /// [`ShardMessage::PlanRequest`], the ahead sender replies with the plan, and
    /// the replica installs and catches up — no retransmission timers needed.
    #[test]
    fn a_replica_that_missed_all_gossip_recovers_via_plan_request() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        nodes[0].submit_update(ClientId(0), "seed".into(), CounterUpdate::Increment(1));
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();

        // The rebalance completes on replicas 0 and 1 (a quorum); every message
        // addressed to replica 2 — plan gossip included — is lost.
        assert!(nodes[0].begin_rebalance(4));
        loop {
            let mut envelopes = Vec::new();
            for node in nodes.iter_mut() {
                for envelope in node.take_outbox() {
                    if envelope.to != ReplicaId::new(2) {
                        envelopes.push((envelope.from, envelope.into_parts()));
                    }
                }
            }
            if envelopes.is_empty() {
                break;
            }
            for (from, (to, message)) in envelopes {
                let index = nodes.iter().position(|n| n.id() == to).expect("known replica");
                nodes[index].handle_message(from, message);
            }
        }
        assert_eq!(nodes[0].epoch(), 1);
        assert_eq!(nodes[1].epoch(), 1);
        assert_eq!(nodes[2].epoch(), 0, "replica 2 missed the plan entirely");

        // The next ordinary traffic to replica 2 carries the new stamp; the
        // plan-request handshake brings it back into the group.
        nodes[0].submit_update(ClientId(1), "after".into(), CounterUpdate::Increment(5));
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();
        assert_eq!(nodes[2].epoch(), 1, "deferral requested and installed the plan");
        assert_eq!(nodes[2].shard_count(), 4);

        nodes[2].submit_query(ClientId(2), "after".into(), CounterQuery::Value);
        run_to_quiescence(&mut nodes);
        assert_eq!(
            nodes[2].take_responses()[0].body,
            ResponseBody::QueryDone(MapOutput::Value(Some(5))),
            "the recovered replica serves linearizable reads at the new assignment"
        );
    }

    #[test]
    fn fanouts_straddling_a_rebalance_count_every_key_exactly_once() {
        let mut nodes = cluster(3, 2, ProtocolConfig::default());
        for i in 0..10 {
            nodes[0].submit_update(ClientId(0), format!("k{i}"), CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        nodes[0].take_responses();

        // Start a keyspace-wide Len, hold its traffic, then rebalance mid-flight.
        nodes[1].submit(ClientId(5), Command::Query(MapQuery::Len));
        let _held = nodes[1].take_outbox();
        rebalance_to(&mut nodes, 0, 4);
        run_to_quiescence(&mut nodes);
        let responses = nodes[1].take_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].body,
            ResponseBody::QueryDone(MapOutput::Len(10)),
            "stale handoff leftovers must not be double-counted"
        );
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let partitioner = HashPartitioner::new(8);
        assert_eq!(partitioner.shards(), 8);
        for key in 0u64..1000 {
            let shard = partitioner.shard_of(&key);
            assert!(shard.as_u32() < 8);
            assert_eq!(shard, partitioner.shard_of(&key), "routing must be stable");
        }
    }

    #[test]
    fn hash_partitioner_spreads_a_uniform_keyspace() {
        let partitioner = HashPartitioner::new(4);
        let mut counts = [0u32; 4];
        for key in 0u64..4000 {
            counts[partitioner.shard_of(&key).as_usize()] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&count),
                "shard {shard} owns {count} of 4000 uniform keys"
            );
        }
    }

    #[test]
    fn hash_partitioner_works_for_string_keys() {
        let partitioner = HashPartitioner::new(3);
        let shard = partitioner.shard_of("alice");
        assert!(shard.as_u32() < 3);
        assert_eq!(shard, partitioner.shard_of("alice"));
    }

    /// The key→shard mapping itself, recorded once: every seeded history and
    /// figure routes through it, so a change to the hash shows here first.
    #[test]
    fn hash_partitioner_mapping_is_pinned() {
        #[rustfmt::skip]
        const U64_KEYS: [(u32, [u32; 32]); 3] = [
            (1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (4, [1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2,
                 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2]),
            (8, [5, 4, 7, 6, 1, 0, 3, 2, 5, 4, 7, 6, 1, 0, 3, 2,
                 5, 4, 7, 6, 1, 0, 3, 2, 5, 4, 7, 6, 1, 0, 3, 2]),
        ];
        const STR_KEYS: [(&str, [u32; 3]); 3] =
            [("alice", [0, 0, 0]), ("bob", [0, 1, 1]), ("carol", [0, 3, 7])];
        for (shards, expected) in U64_KEYS {
            let partitioner = HashPartitioner::new(shards);
            let routed: Vec<u32> = (0u64..32).map(|key| partitioner.shard_of(&key).0).collect();
            assert_eq!(routed, expected, "u64 keys 0..32 over {shards} shards");
        }
        for (key, expected) in STR_KEYS {
            let routed = [1, 4, 8].map(|shards| HashPartitioner::new(shards).shard_of(key).0);
            assert_eq!(routed, expected, "{key:?} over 1, 4 and 8 shards");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        let partitioner = HashPartitioner::new(1);
        for key in 0u64..100 {
            assert_eq!(partitioner.shard_of(&key), ShardId(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn a_partitioner_of_zero_shards_panics() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn shard_id_accessors_and_display() {
        let shard = ShardId(7);
        assert_eq!(shard.as_u32(), 7);
        assert_eq!(shard.as_usize(), 7);
        assert_eq!(shard.to_string(), "s7");
    }
}
