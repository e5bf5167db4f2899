//! Adapters that plug the three protocol implementations into the simulator.
//!
//! All three replicate a counter, exactly like the paper's evaluation: CRDT Paxos
//! replicates a G-Counter, Multi-Paxos and Raft replicate a plain integer register
//! through their command logs.

use std::collections::HashMap;

use baselines::paxos::{PaxosConfig, PaxosMessage, PaxosReplica};
use baselines::raft::{RaftConfig, RaftMessage, RaftReplica};
use baselines::{CounterOp, CounterRegister, NodeId, ReplyBody, Request};
use crdt::{
    CounterQuery, CounterUpdate, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate, ReplicaId,
};
use crdt_paxos_core::{
    ClientId, Command, Envelope, EnvelopePool, ProtocolConfig, Replica, ResponseBody,
    ShardEnvelope, ShardMessage, ShardedReplica, WireMetrics,
};

use crate::sim::{SimNode, SimOp, SimOutcome, SimReply};

/// The replicated keyspace type the KV adapters drive: one G-Counter per key.
pub type KvMap = LatticeMap<u64, GCounter>;

/// Simulator adapter for the CRDT Paxos replica (`crdt_paxos_core::Replica`).
#[derive(Debug)]
pub struct CrdtPaxosNode {
    inner: Replica<GCounter>,
    /// Encode every outgoing message with the `wire` codec and account its size in
    /// the replica's [`WireMetrics`] (costs one serialization per message).
    measure_wire: bool,
    /// Reused encode buffer for wire accounting — one allocation for the whole
    /// run instead of one per message.
    scratch: Vec<u8>,
    /// Recycled outbox drain buffers — the same envelope-pool discipline the
    /// networked plane uses, so sim numbers reflect it.
    pool: EnvelopePool<Envelope<GCounter>>,
}

impl CrdtPaxosNode {
    /// Creates a node with the given protocol configuration.
    pub fn new(id: u64, members: &[u64], config: ProtocolConfig) -> Self {
        let member_ids: Vec<ReplicaId> = members.iter().map(|&m| ReplicaId::new(m)).collect();
        CrdtPaxosNode {
            inner: Replica::new(ReplicaId::new(id), member_ids, GCounter::default(), config),
            measure_wire: false,
            scratch: Vec::new(),
            pool: EnvelopePool::default(),
        }
    }

    /// Enables or disables encoded-bytes accounting for outgoing messages.
    #[must_use]
    pub fn with_wire_accounting(mut self, enabled: bool) -> Self {
        self.measure_wire = enabled;
        self
    }

    /// Access to the wrapped replica (metrics, state).
    pub fn replica(&self) -> &Replica<GCounter> {
        &self.inner
    }
}

impl SimNode for CrdtPaxosNode {
    type Message = crdt_paxos_core::Message<GCounter>;

    fn id(&self) -> u64 {
        self.inner.id().as_u64()
    }

    fn submit(&mut self, client: u64, op: SimOp) {
        // This adapter replicates a single counter; keyed operations collapse onto
        // it (use the KV adapters for per-key semantics).
        let command = match op {
            SimOp::Increment(amount) | SimOp::KeyIncrement { amount, .. } => {
                Command::Update(CounterUpdate::Increment(amount))
            }
            SimOp::Read | SimOp::KeyRead { .. } => Command::Query(CounterQuery::Value),
        };
        self.inner.submit(ClientId(client), command);
    }

    fn handle_message(&mut self, from: u64, message: Self::Message) {
        self.inner.handle_message(ReplicaId::new(from), message);
    }

    fn tick(&mut self, now_ms: u64) {
        self.inner.tick(now_ms);
    }

    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)> {
        let mut envelopes = self.pool.checkout();
        self.inner.drain_outbox_into(&mut envelopes);
        if self.measure_wire {
            for envelope in &envelopes {
                // Protocol messages must always encode; failing silently here would
                // quietly undercount the byte-reduction figures.
                self.scratch.clear();
                wire::to_writer(&envelope.message, &mut self.scratch)
                    .expect("protocol messages encode");
                // Key state-bearing messages by payload representation too
                // ("MERGE:full" / "MERGE:delta"), so one run shows both. The
                // key is static: accounting adds no per-message allocation.
                self.inner
                    .record_wire_bytes(envelope.message.wire_kind(), self.scratch.len() as u64);
            }
        }
        let out = envelopes.drain(..).map(|e| (e.to.as_u64(), e.message)).collect();
        self.pool.give_back(envelopes);
        out
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        self.inner
            .take_responses()
            .into_iter()
            .map(|response| {
                let outcome = match response.body {
                    ResponseBody::UpdateDone => SimOutcome::UpdateDone,
                    ResponseBody::QueryDone(value) => SimOutcome::ReadDone(value),
                    ResponseBody::QueryFailed => SimOutcome::Retry,
                };
                SimReply { client: response.client.0, outcome, round_trips: response.round_trips }
            })
            .collect()
    }

    fn wire_metrics(&self) -> Option<WireMetrics> {
        if self.measure_wire {
            Some(self.inner.metrics().wire.clone())
        } else {
            None
        }
    }
}

/// Simulator adapter for a **single-instance** replicated keyspace: one
/// `Replica<LatticeMap>` serializes every key through one round counter.
///
/// This is the baseline the sharded engine is measured against: it offers the
/// same per-key API but every quorum — regardless of key — contends on the same
/// protocol instance.
#[derive(Debug)]
pub struct KeyValueNode {
    inner: Replica<KvMap>,
    measure_wire: bool,
    scratch: Vec<u8>,
    pool: EnvelopePool<Envelope<KvMap>>,
}

impl KeyValueNode {
    /// Creates a node with the given protocol configuration.
    pub fn new(id: u64, members: &[u64], config: ProtocolConfig) -> Self {
        let member_ids: Vec<ReplicaId> = members.iter().map(|&m| ReplicaId::new(m)).collect();
        KeyValueNode {
            inner: Replica::new(ReplicaId::new(id), member_ids, KvMap::default(), config),
            measure_wire: false,
            scratch: Vec::new(),
            pool: EnvelopePool::default(),
        }
    }

    /// Enables or disables encoded-bytes accounting for outgoing messages.
    #[must_use]
    pub fn with_wire_accounting(mut self, enabled: bool) -> Self {
        self.measure_wire = enabled;
        self
    }

    /// Access to the wrapped replica (metrics, state).
    pub fn replica(&self) -> &Replica<KvMap> {
        &self.inner
    }
}

/// Maps a keyed simulator op onto the `LatticeMap` command set (unkeyed ops run
/// against key 0).
fn kv_command(op: SimOp) -> Command<KvMap> {
    match op {
        SimOp::Increment(amount) => {
            Command::Update(MapUpdate::Apply { key: 0, update: CounterUpdate::Increment(amount) })
        }
        SimOp::Read => Command::Query(MapQuery::Get { key: 0, query: CounterQuery::Value }),
        SimOp::KeyIncrement { key, amount } => {
            Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(amount) })
        }
        SimOp::KeyRead { key } => Command::Query(MapQuery::Get { key, query: CounterQuery::Value }),
    }
}

/// Maps a `LatticeMap` response body onto a simulator outcome.
fn kv_outcome(body: ResponseBody<KvMap>) -> SimOutcome {
    match body {
        ResponseBody::UpdateDone => SimOutcome::UpdateDone,
        ResponseBody::QueryDone(MapOutput::Value(Some(value))) => SimOutcome::ReadDone(value),
        // An absent key reads as zero (no increment ever committed there).
        ResponseBody::QueryDone(MapOutput::Value(None)) => SimOutcome::ReadDone(0),
        ResponseBody::QueryDone(_) => SimOutcome::Retry,
        ResponseBody::QueryFailed => SimOutcome::Retry,
    }
}

impl SimNode for KeyValueNode {
    type Message = crdt_paxos_core::Message<KvMap>;

    fn id(&self) -> u64 {
        self.inner.id().as_u64()
    }

    fn submit(&mut self, client: u64, op: SimOp) {
        self.inner.submit(ClientId(client), kv_command(op));
    }

    fn handle_message(&mut self, from: u64, message: Self::Message) {
        self.inner.handle_message(ReplicaId::new(from), message);
    }

    fn tick(&mut self, now_ms: u64) {
        self.inner.tick(now_ms);
    }

    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)> {
        let mut envelopes = self.pool.checkout();
        self.inner.drain_outbox_into(&mut envelopes);
        if self.measure_wire {
            for envelope in &envelopes {
                self.scratch.clear();
                wire::to_writer(&envelope.message, &mut self.scratch)
                    .expect("protocol messages encode");
                self.inner
                    .record_wire_bytes(envelope.message.wire_kind(), self.scratch.len() as u64);
            }
        }
        let out = envelopes.drain(..).map(|e| (e.to.as_u64(), e.message)).collect();
        self.pool.give_back(envelopes);
        out
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        self.inner
            .take_responses()
            .into_iter()
            .map(|response| SimReply {
                client: response.client.0,
                outcome: kv_outcome(response.body),
                round_trips: response.round_trips,
            })
            .collect()
    }

    fn wire_metrics(&self) -> Option<WireMetrics> {
        if self.measure_wire {
            Some(self.inner.metrics().wire.clone())
        } else {
            None
        }
    }
}

/// Simulator adapter for the **sharded** keyspace engine: `S` independent
/// protocol instances with hash-routed keys and shard-tagged messages.
#[derive(Debug)]
pub struct ShardedKvNode {
    inner: ShardedReplica<u64, GCounter>,
    measure_wire: bool,
    scratch: Vec<u8>,
    pool: EnvelopePool<ShardEnvelope<KvMap>>,
}

impl ShardedKvNode {
    /// Creates a node with `shards` protocol instances.
    pub fn new(id: u64, members: &[u64], shards: u32, config: ProtocolConfig) -> Self {
        let member_ids: Vec<ReplicaId> = members.iter().map(|&m| ReplicaId::new(m)).collect();
        ShardedKvNode {
            inner: ShardedReplica::new(ReplicaId::new(id), member_ids, shards, config),
            measure_wire: false,
            scratch: Vec::new(),
            pool: EnvelopePool::default(),
        }
    }

    /// Enables or disables encoded-bytes accounting for outgoing messages.
    #[must_use]
    pub fn with_wire_accounting(mut self, enabled: bool) -> Self {
        self.measure_wire = enabled;
        self
    }

    /// Access to the wrapped sharded replica (per-shard metrics, states).
    pub fn replica(&self) -> &ShardedReplica<u64, GCounter> {
        &self.inner
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
        self.inner.submit(ClientId(client), kv_command(op));
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
        let mut envelopes = self.pool.checkout();
        self.inner.drain_outbox_into(&mut envelopes);
        if self.measure_wire {
            for envelope in &envelopes {
                self.scratch.clear();
                wire::to_writer(&envelope.message, &mut self.scratch)
                    .expect("shard messages encode");
                match &envelope.message {
                    ShardMessage::Protocol { shard, message, .. } => {
                        self.inner.record_wire_bytes(
                            *shard,
                            message.wire_kind(),
                            self.scratch.len() as u64,
                        );
                    }
                    ShardMessage::Control { message } => {
                        self.inner.record_control_wire_bytes(
                            message.ctrl_wire_kind(),
                            self.scratch.len() as u64,
                        );
                    }
                    ShardMessage::Rebalance { .. } => {
                        self.inner
                            .record_control_wire_bytes("REBALANCE", self.scratch.len() as u64);
                    }
                    ShardMessage::PlanRequest => {
                        self.inner.record_control_wire_bytes("PLANREQ", self.scratch.len() as u64);
                    }
                }
            }
        }
        envelopes
            .into_iter()
            .map(|envelope| {
                let (to, message) = envelope.into_parts();
                (to.as_u64(), message)
            })
            .collect()
    }

    fn drain_replies(&mut self) -> Vec<SimReply> {
        self.inner
            .take_responses()
            .into_iter()
            .map(|response| SimReply {
                client: response.client.0,
                outcome: kv_outcome(response.body),
                round_trips: response.round_trips,
            })
            .collect()
    }

    fn wire_metrics(&self) -> Option<WireMetrics> {
        if self.measure_wire {
            let by_shard = self.inner.wire_metrics_by_shard();
            let control = self.inner.control_wire_metrics();
            Some(crate::stats::merge_wire(
                by_shard.iter().map(|(_, wire)| wire).chain(std::iter::once(&control)),
            ))
        } else {
            None
        }
    }
}

/// Simulator adapter for the Raft baseline.
#[derive(Debug)]
pub struct RaftNode {
    inner: RaftReplica<CounterRegister>,
    next_command: u64,
    _pending: HashMap<u64, u64>,
}

impl RaftNode {
    /// Creates a Raft node.
    pub fn new(id: u64, members: &[u64], config: RaftConfig) -> Self {
        let member_ids: Vec<NodeId> = members.iter().map(|&m| NodeId(m)).collect();
        RaftNode {
            inner: RaftReplica::new(NodeId(id), member_ids, config),
            next_command: 0,
            _pending: HashMap::new(),
        }
    }

    /// Access to the wrapped replica.
    pub fn replica(&self) -> &RaftReplica<CounterRegister> {
        &self.inner
    }
}

impl SimNode for RaftNode {
    type Message = RaftMessage<CounterRegister>;

    fn id(&self) -> u64 {
        self.inner.id().0
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

/// Simulator adapter for the Multi-Paxos baseline.
#[derive(Debug)]
pub struct MultiPaxosNode {
    inner: PaxosReplica<CounterRegister>,
    next_command: u64,
}

impl MultiPaxosNode {
    /// Creates a Multi-Paxos node.
    pub fn new(id: u64, members: &[u64], config: PaxosConfig) -> Self {
        let member_ids: Vec<NodeId> = members.iter().map(|&m| NodeId(m)).collect();
        MultiPaxosNode { inner: PaxosReplica::new(NodeId(id), member_ids, config), next_command: 0 }
    }

    /// Access to the wrapped replica.
    pub fn replica(&self) -> &PaxosReplica<CounterRegister> {
        &self.inner
    }
}

impl SimNode for MultiPaxosNode {
    type Message = PaxosMessage<CounterRegister>;

    fn id(&self) -> u64 {
        self.inner.id().0
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

    fn quick_config() -> SimConfig {
        SimConfig { clients: 6, duration_ms: 500, warmup_ms: 50, ..SimConfig::default() }
    }

    #[test]
    fn crdt_paxos_adapter_completes_operations() {
        let config = quick_config();
        let result = run_simulation(&config, |id, members| {
            CrdtPaxosNode::new(id, members, ProtocolConfig::default())
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
        let result = run_simulation(&config, |id, members| {
            RaftNode::new(id, members, RaftConfig::default())
        });
        assert!(result.completed_reads + result.completed_updates > 0);
    }

    #[test]
    fn multi_paxos_adapter_completes_operations() {
        let mut config = quick_config();
        config.duration_ms = 1_500;
        config.warmup_ms = 700; // allow for the initial take-over
        let result = run_simulation(&config, |id, members| {
            MultiPaxosNode::new(id, members, PaxosConfig::default())
        });
        assert!(result.completed_reads + result.completed_updates > 0);
    }
}
