//! Adapters that plug the three protocol implementations into the simulator.
//!
//! All three replicate a counter, exactly like the paper's evaluation: CRDT Paxos
//! replicates a G-Counter, Multi-Paxos and Raft replicate a plain integer register
//! through their command logs.

use baselines::{Baseline, CounterOp, CounterRegister, NodeId, ReplyBody, Request};
use crdt::{
    CounterQuery, CounterUpdate, Crdt, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate,
    ReplicaId,
};
use crdt_paxos_core::{
    ClientId, ClientResponse, Command, Envelope, Message, ProtocolConfig, Replica, ResponseBody,
    ShardEnvelope, ShardMessage, ShardedReplica,
};

use crate::sim::{SimNode, SimOp, SimOutcome, SimReply};

/// The replicated keyspace type the KV adapters drive: one G-Counter per key.
pub type KvMap = LatticeMap<u64, GCounter>;

/// A CRDT the simulator's counter workload can run against: how a [`SimOp`]
/// becomes a command on it, and how its response reads as a [`SimOutcome`].
pub trait SimCrdt: Crdt {
    /// Maps a simulator op onto the CRDT's command set.
    fn command(op: SimOp) -> Command<Self>;

    /// Maps a response body onto a simulator outcome.
    fn outcome(body: ResponseBody<Self>) -> SimOutcome;
}

/// A single counter: keyed operations collapse onto it (use [`KvMap`] for per-key
/// semantics).
impl SimCrdt for GCounter {
    fn command(op: SimOp) -> Command<Self> {
        match op {
            SimOp::Increment(amount) | SimOp::KeyIncrement { amount, .. } => {
                Command::Update(CounterUpdate::Increment(amount))
            }
            SimOp::Read | SimOp::KeyRead { .. } => Command::Query(CounterQuery::Value),
        }
    }

    fn outcome(body: ResponseBody<Self>) -> SimOutcome {
        match body {
            ResponseBody::UpdateDone => SimOutcome::UpdateDone,
            ResponseBody::QueryDone(value) => SimOutcome::ReadDone(value),
            ResponseBody::QueryFailed => SimOutcome::Retry,
        }
    }
}

/// One counter per key (unkeyed ops run against key 0).
impl SimCrdt for KvMap {
    fn command(op: SimOp) -> Command<Self> {
        let increment = |key, amount| {
            Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(amount) })
        };
        let read = |key| Command::Query(MapQuery::Get { key, query: CounterQuery::Value });
        match op {
            SimOp::Increment(amount) => increment(0, amount),
            SimOp::Read => read(0),
            SimOp::KeyIncrement { key, amount } => increment(key, amount),
            SimOp::KeyRead { key } => read(key),
        }
    }

    fn outcome(body: ResponseBody<Self>) -> SimOutcome {
        match body {
            ResponseBody::UpdateDone => SimOutcome::UpdateDone,
            ResponseBody::QueryDone(MapOutput::Value(Some(value))) => SimOutcome::ReadDone(value),
            // An absent key reads as zero (no increment ever committed there).
            ResponseBody::QueryDone(MapOutput::Value(None)) => SimOutcome::ReadDone(0),
            ResponseBody::QueryDone(_) => SimOutcome::Retry,
            ResponseBody::QueryFailed => SimOutcome::Retry,
        }
    }
}

fn replica_ids(members: &[u64]) -> Vec<ReplicaId> {
    members.iter().map(|&member| ReplicaId::new(member)).collect()
}

fn sim_replies<C: SimCrdt>(responses: Vec<ClientResponse<C>>) -> Vec<SimReply> {
    responses
        .into_iter()
        .map(|response| SimReply {
            client: response.client.0,
            outcome: C::outcome(response.body),
            round_trips: response.round_trips,
        })
        .collect()
}

/// Simulator adapter for one protocol instance (`crdt_paxos_core::Replica`).
///
/// Over [`GCounter`] it is the paper's CRDT Paxos setup; over [`KvMap`] it is the
/// **single-instance** keyspace the sharded engine is measured against: the same
/// per-key API, but every quorum — regardless of key — contends on one round
/// counter.
#[derive(Debug)]
pub struct ReplicaNode<C: SimCrdt> {
    inner: Replica<C>,
    /// The one outbox drain buffer, so a drain moves shells out of resident
    /// capacity instead of growing a fresh vector.
    drained: Vec<Envelope<C>>,
}

impl<C: SimCrdt> ReplicaNode<C> {
    /// Creates a node with the given protocol configuration.
    pub fn new(id: u64, members: &[u64], config: ProtocolConfig) -> Self {
        ReplicaNode {
            inner: Replica::new(ReplicaId::new(id), replica_ids(members), C::default(), config),
            drained: Vec::new(),
        }
    }
}

impl<C: SimCrdt> SimNode for ReplicaNode<C>
where
    Message<C>: wire::Serialize,
{
    type Message = Message<C>;

    fn id(&self) -> u64 {
        self.inner.id().as_u64()
    }

    fn submit(&mut self, client: u64, op: SimOp) {
        self.inner.submit(ClientId(client), C::command(op));
    }

    fn handle_message(&mut self, from: u64, message: Self::Message) {
        self.inner.handle_message(ReplicaId::new(from), message);
    }

    fn tick(&mut self, now_ms: u64) {
        self.inner.tick(now_ms);
    }

    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)> {
        self.inner.drain_outbox_into(&mut self.drained);
        self.drained.drain(..).map(|envelope| (envelope.to.as_u64(), envelope.message)).collect()
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        sim_replies(self.inner.take_responses())
    }

    fn wire_kind(&self, message: &Self::Message) -> Option<&'static str> {
        // State-bearing messages are keyed by payload representation too
        // ("MERGE:full" / "MERGE:delta"), so one run shows both.
        Some(message.wire_kind())
    }
}

/// Simulator adapter for the **sharded** keyspace engine: `S` independent
/// protocol instances with hash-routed keys and shard-tagged messages.
#[derive(Debug)]
pub struct ShardedKvNode {
    inner: ShardedReplica<u64, GCounter>,
    drained: Vec<ShardEnvelope<KvMap>>,
}

impl ShardedKvNode {
    /// Creates a node with `shards` protocol instances.
    pub fn new(id: u64, members: &[u64], shards: u32, config: ProtocolConfig) -> Self {
        ShardedKvNode {
            inner: ShardedReplica::new(ReplicaId::new(id), replica_ids(members), shards, config),
            drained: Vec::new(),
        }
    }
}

impl SimNode for ShardedKvNode {
    type Message = ShardMessage<KvMap>;

    fn id(&self) -> u64 {
        self.inner.id().as_u64()
    }

    fn lane_of(&self, message: &Self::Message) -> u64 {
        // One processing lane (core) per shard: the sharded engine's messages are
        // handled in parallel across shards under the simulator's CPU model. The
        // (rare, tiny) control and rebalance traffic gets its own lane so plan
        // agreement never queues behind a saturated data shard.
        match message {
            ShardMessage::Protocol { shard, .. } => u64::from(shard.as_u32()),
            ShardMessage::Control { .. }
            | ShardMessage::Rebalance { .. }
            | ShardMessage::PlanRequest => u64::MAX,
        }
    }

    fn submit(&mut self, client: u64, op: SimOp) {
        self.inner.submit(ClientId(client), KvMap::command(op));
    }

    fn handle_message(&mut self, from: u64, message: Self::Message) {
        self.inner.handle_message(ReplicaId::new(from), message);
    }

    fn tick(&mut self, now_ms: u64) {
        self.inner.tick(now_ms);
    }

    fn trigger_rebalance(&mut self, target_shards: u32) {
        self.inner.begin_rebalance(target_shards);
    }

    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)> {
        self.inner.drain_outbox_into(&mut self.drained);
        self.drained
            .drain(..)
            .map(|envelope| {
                let (to, message) = envelope.into_parts();
                (to.as_u64(), message)
            })
            .collect()
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        sim_replies(self.inner.take_responses())
    }

    fn wire_kind(&self, message: &Self::Message) -> Option<&'static str> {
        Some(match message {
            ShardMessage::Protocol { message, .. } => message.wire_kind(),
            ShardMessage::Control { message } => message.ctrl_wire_kind(),
            ShardMessage::Rebalance { .. } => "REBALANCE",
            ShardMessage::PlanRequest => "PLANREQ",
        })
    }
}

/// Simulator adapter for a baseline replica (Multi-Paxos or Raft) replicating a
/// plain integer register. Its messages name no wire kind: no figure compares
/// the baselines' bytes.
#[derive(Debug)]
pub struct BaselineNode<B> {
    id: u64,
    inner: B,
    next_command: u64,
}

impl<B: Baseline<Machine = CounterRegister>> BaselineNode<B> {
    /// Wraps the baseline replica `make(id, members)` builds.
    pub fn new(id: u64, members: &[u64], make: impl FnOnce(NodeId, Vec<NodeId>) -> B) -> Self {
        let members = members.iter().map(|&member| NodeId(member)).collect();
        BaselineNode { id, inner: make(NodeId(id), members), next_command: 0 }
    }
}

impl<B: Baseline<Machine = CounterRegister>> SimNode for BaselineNode<B> {
    type Message = B::Message;

    fn id(&self) -> u64 {
        self.id
    }

    fn submit(&mut self, client: u64, op: SimOp) {
        let request = match op {
            SimOp::Increment(amount) | SimOp::KeyIncrement { amount, .. } => {
                Request::Update(CounterOp::Add(amount as i64))
            }
            SimOp::Read | SimOp::KeyRead { .. } => Request::Read(()),
        };
        let command = baselines::CommandId(self.next_command);
        self.next_command += 1;
        self.inner.submit(baselines::ClientId(client), command, request);
    }

    fn handle_message(&mut self, from: u64, message: Self::Message) {
        self.inner.handle_message(NodeId(from), message);
    }

    fn tick(&mut self, now_ms: u64) {
        self.inner.tick(now_ms);
    }

    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)> {
        self.inner
            .take_outbox()
            .into_iter()
            .map(|outgoing| (outgoing.to.0, outgoing.message))
            .collect()
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        self.inner
            .take_replies()
            .into_iter()
            .map(|reply| {
                let outcome = match reply.body {
                    ReplyBody::UpdateDone => SimOutcome::UpdateDone,
                    ReplyBody::ReadDone(value) => SimOutcome::ReadDone(value),
                    ReplyBody::Retry => SimOutcome::Retry,
                };
                SimReply { client: reply.client.0, outcome, round_trips: 0 }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_simulation, SimConfig};
    use crate::stats::WireMetrics;
    use crate::{run_crdt_paxos, run_multi_paxos, run_raft};

    fn quick_config() -> SimConfig {
        SimConfig { clients: 6, duration_ms: 500, warmup_ms: 50, ..SimConfig::default() }
    }

    #[test]
    fn crdt_paxos_adapter_completes_operations() {
        let config = quick_config();
        let result = run_simulation(&config, |id, members| {
            ReplicaNode::<GCounter>::new(id, members, ProtocolConfig::default())
        });
        assert!(result.completed_reads > 0);
        assert!(result.completed_updates > 0);
        assert_eq!(result.retries, 0);
        assert!(result.read_fraction_within(2) > 0.5);
    }

    #[test]
    fn raft_adapter_completes_operations() {
        let mut config = quick_config();
        config.duration_ms = 1_000;
        config.warmup_ms = 500; // allow for the initial election
        config.measure_wire_bytes = true;
        let result = run_raft(&config);
        assert!(result.completed_reads + result.completed_updates > 0);
        assert!(result.wire.is_empty(), "the baselines name no wire kind and stay uncounted");
    }

    #[test]
    fn multi_paxos_adapter_completes_operations() {
        let mut config = quick_config();
        config.duration_ms = 1_500;
        config.warmup_ms = 700; // allow for the initial take-over
        config.measure_wire_bytes = true;
        let result = run_multi_paxos(&config);
        assert!(result.completed_reads + result.completed_updates > 0);
        assert!(result.wire.is_empty(), "the baselines name no wire kind and stay uncounted");
    }

    /// The simulator's byte tally is nothing but `wire::to_vec(&message).len()`
    /// summed per kind: one client issuing updates at replica 0 sends exactly
    /// the messages a hand-pumped three-replica exchange of the same updates
    /// sends, in the same order, so the tally equals the hand-pumped sum over
    /// as many messages as the run put on the wire.
    #[test]
    fn wire_tally_equals_hand_pumped_encoded_sizes() {
        let config = SimConfig {
            clients: 1,
            read_fraction: 0.0,
            duration_ms: 50,
            latency_jitter_us: 0,
            measure_wire_bytes: true,
            ..SimConfig::default()
        };
        let result = run_crdt_paxos(&config, ProtocolConfig::default());
        let sent: u64 = result.wire.per_kind.values().map(|kind| kind.messages).sum();
        assert!(sent > 100, "the run must exchange messages, sent {sent}");

        let ids = replica_ids(&[0, 1, 2]);
        let mut replicas: Vec<Replica<GCounter>> = ids
            .iter()
            .map(|&id| {
                Replica::new(id, ids.clone(), GCounter::default(), ProtocolConfig::default())
            })
            .collect();
        let mut expected = WireMetrics::default();
        let mut pumped = 0;
        while pumped < sent {
            replicas[0].submit(ClientId(0), GCounter::command(SimOp::Increment(1)));
            // Deliver everything, in order, until the round is quiet.
            loop {
                let outbox: Vec<_> = replicas.iter_mut().flat_map(Replica::take_outbox).collect();
                if outbox.is_empty() {
                    break;
                }
                for envelope in outbox {
                    if pumped < sent {
                        pumped += 1;
                        let bytes = wire::to_vec(&envelope.message).expect("encode").len();
                        expected.record(envelope.message.wire_kind(), bytes as u64);
                    }
                    replicas[envelope.to.as_u64() as usize]
                        .handle_message(envelope.from, envelope.message);
                }
            }
        }
        assert_eq!(result.wire, expected);
    }
}
