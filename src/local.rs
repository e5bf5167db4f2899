//! Convenience in-process clusters for examples, tests, and embedding.
//!
//! [`LocalCluster`] wires `n` CRDT Paxos replicas together with an in-memory "perfect"
//! network (instant, reliable delivery) and offers a synchronous API: submit a command
//! to a replica and get the response back once the protocol has quiesced. This is the
//! easiest way to embed a linearizable CRDT in a single process, and the entry point
//! used by the quickstart example.
//!
//! [`LocalShardedCluster`] is the keyspace variant: a replicated `LatticeMap<K, V>`
//! partitioned over independent protocol instances (one round counter and one
//! quorum per shard, hash-routed keys), with a synchronous per-key API. It runs
//! on the parallel [`engine`]: each replica is an [`engine::EngineNode`] with
//! one router thread plus its shard cores spread over `min(shards, cores)`
//! worker threads, wired through an in-process mesh — so commands on different
//! shards are agreed genuinely in parallel, as far as the box has cores for it,
//! even behind this blocking facade. It is the entry point used by the
//! replicated key-value example. The partitioning is **dynamic**:
//! [`LocalShardedCluster::rebalance`] resizes the keyspace at runtime — the plan
//! is agreed through the ordinary protocol on a control shard, every replica
//! installs it under a new partitioning epoch, and moved key ranges are handed
//! off by lattice join (the log-less design needs no snapshot/replay machinery),
//! preserving every key's value and per-key linearizability.

use std::time::{Duration, Instant};

use crdt::{Crdt, LatticeMap, MapOutput, MapQuery, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, CommandId, HashPartitioner, ProtocolConfig, Replica, ResponseBody, ShardId,
};
use engine::{EngineCluster, EngineKey, EngineValue};

/// An in-process cluster of CRDT Paxos replicas with synchronous message delivery.
#[derive(Debug)]
pub struct LocalCluster<C: Crdt> {
    replicas: Vec<Replica<C>>,
    now_ms: u64,
}

impl<C: Crdt> LocalCluster<C> {
    /// Creates a cluster of `n` replicas with the given protocol configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, config: ProtocolConfig) -> Self {
        assert!(n > 0, "a cluster needs at least one replica");
        let ids: Vec<ReplicaId> = (0..n).map(ReplicaId::new).collect();
        let replicas = ids
            .iter()
            .map(|&id| Replica::new(id, ids.clone(), C::default(), config.clone()))
            .collect();
        LocalCluster { replicas, now_ms: 0 }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Returns `true` if the cluster has no replicas (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Read-only access to one replica (metrics, local state).
    pub fn replica(&self, index: usize) -> &Replica<C> {
        &self.replicas[index]
    }

    /// Submits a linearizable update at the replica with the given index and waits
    /// for it to complete.
    pub fn update(&mut self, replica: usize, update: C::Update) -> ResponseBody<C> {
        self.submit(replica, Command::Update(update))
    }

    /// Submits a linearizable query at the replica with the given index and returns
    /// its result.
    pub fn query(&mut self, replica: usize, query: C::Query) -> ResponseBody<C> {
        self.submit(replica, Command::Query(query))
    }

    /// Submits any command and runs the protocol to completion.
    pub fn submit(&mut self, replica: usize, command: Command<C>) -> ResponseBody<C> {
        let command_id = self.replicas[replica].submit(ClientId(0), command);
        loop {
            self.pump();
            let response = self.replicas[replica]
                .take_responses()
                .into_iter()
                .find(|response| response.command == command_id);
            if let Some(response) = response {
                return response.body;
            }
            // Batching configurations need time to pass before a batch is flushed.
            self.now_ms += 1;
            let now = self.now_ms;
            for replica in &mut self.replicas {
                replica.tick(now);
            }
        }
    }

    /// Delivers every in-flight message until the cluster is quiescent.
    fn pump(&mut self) {
        loop {
            let mut envelopes = Vec::new();
            for replica in &mut self.replicas {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                return;
            }
            for envelope in envelopes {
                let index = envelope.to.as_u64() as usize;
                self.replicas[index].handle_message(envelope.from, envelope.message);
            }
        }
    }
}

/// An in-process **sharded** key-value cluster: a replicated `LatticeMap<K, V>`
/// partitioned across independent protocol instances, executed by the
/// parallel engine.
///
/// Every key holds a CRDT of type `V`; updates and linearizable reads are routed to
/// the shard owning the key, so commands on different key ranges never contend on a
/// round counter — and, because the shard cores are spread over the machine's
/// cores, need not contend on a CPU core either. The API here is synchronous (each call blocks
/// until its command's quorum completes); use [`engine::EngineCluster`] directly
/// for pipelined multi-client workloads.
///
/// # Example
///
/// ```
/// use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
/// use crdt_paxos::local::LocalShardedCluster;
/// use crdt_paxos::protocol::ProtocolConfig;
///
/// // 3 replicas, 4 shards, one G-Counter per key.
/// let mut cluster =
///     LocalShardedCluster::<String, GCounter>::new(3, 4, ProtocolConfig::default());
/// cluster.update(0, "clicks".into(), CounterUpdate::Increment(3));
/// let value = cluster.query(2, "clicks".into(), CounterQuery::Value);
/// assert_eq!(value, Some(3));
/// ```
pub struct LocalShardedCluster<K: EngineKey, V: EngineValue> {
    cluster: EngineCluster<K, V>,
}

/// How long a synchronous facade call waits for its quorum before concluding
/// the cluster is wedged. Generous: a healthy in-process cluster answers in
/// microseconds.
const FACADE_TIMEOUT: Duration = Duration::from_secs(30);

impl<K: EngineKey, V: EngineValue> LocalShardedCluster<K, V> {
    /// Creates a cluster of `n` replicas, each partitioning the keyspace over
    /// `shards` protocol instances — and spawning `min(shards, cores)` worker
    /// threads plus a router thread per replica.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shards` is zero.
    pub fn new(n: u64, shards: u32, config: ProtocolConfig) -> Self {
        LocalShardedCluster { cluster: EngineCluster::new(n, shards, config) }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.cluster.len()
    }

    /// Returns `true` if the cluster has no replicas (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cluster.is_empty()
    }

    /// Number of shards per replica.
    pub fn shard_count(&self) -> u32 {
        self.cluster.node(0).shard_count()
    }

    /// The shard owning `key` under the current assignment.
    pub fn shard_of(&self, key: &K) -> ShardId {
        HashPartitioner::new(self.shard_count()).shard_of(key)
    }

    /// Applies a linearizable update to `key` at the given replica and waits for
    /// the owning shard's quorum.
    pub fn update(&mut self, replica: usize, key: K, update: V::Update) {
        let command = Command::Update(crdt::MapUpdate::Apply { key, update });
        let body = self.submit(replica, command);
        debug_assert!(matches!(body, ResponseBody::UpdateDone), "updates cannot fail");
    }

    /// Runs a linearizable read of `key` at the given replica; `None` if the key
    /// has never been written.
    pub fn query(&mut self, replica: usize, key: K, query: V::Query) -> Option<V::Output> {
        let command = Command::Query(MapQuery::Get { key, query });
        match self.submit(replica, command) {
            ResponseBody::QueryDone(MapOutput::Value(value)) => value,
            other => panic!("unexpected sharded query response: {other:?}"),
        }
    }

    /// Number of keys in the whole keyspace (a fan-out over every shard; each
    /// shard's answer is linearizable, the sum is not a keyspace snapshot).
    pub fn key_count(&mut self, replica: usize) -> u64 {
        match self.submit(replica, Command::Query(MapQuery::Len)) {
            ResponseBody::QueryDone(MapOutput::Len(count)) => count,
            other => panic!("unexpected sharded len response: {other:?}"),
        }
    }

    /// All keys in the keyspace, in order (fan-out, like
    /// [`LocalShardedCluster::key_count`]).
    pub fn keys(&mut self, replica: usize) -> Vec<K> {
        match self.submit(replica, Command::Query(MapQuery::Keys)) {
            ResponseBody::QueryDone(MapOutput::Keys(keys)) => keys,
            other => panic!("unexpected sharded keys response: {other:?}"),
        }
    }

    /// Submits any `LatticeMap` command at the given replica and blocks until
    /// the engine reports it complete.
    pub fn submit(
        &mut self,
        replica: usize,
        command: Command<LatticeMap<K, V>>,
    ) -> ResponseBody<LatticeMap<K, V>> {
        let command_id = self.cluster.node(replica).submit(ClientId(0), command);
        self.wait_for(replica, command_id)
    }

    fn wait_for(
        &mut self,
        replica: usize,
        command_id: CommandId,
    ) -> ResponseBody<LatticeMap<K, V>> {
        let deadline = Instant::now() + FACADE_TIMEOUT;
        while Instant::now() < deadline {
            let Some(response) =
                self.cluster.node(replica).wait_response(Duration::from_millis(50))
            else {
                continue;
            };
            if response.command == command_id {
                return response.body;
            }
            // Synchronous use means at most one command is outstanding per
            // node; anything else is a left-over from an abandoned call.
        }
        panic!("command {command_id:?} timed out after {FACADE_TIMEOUT:?}")
    }

    /// Resizes the keyspace to `target_shards` shards while preserving every
    /// key's value: commits a [`crdt_paxos_core::RebalancePlan`] on the control
    /// shard via the ordinary protocol, installs it everywhere, and runs the
    /// lattice-join state handoff to completion. Returns the new epoch.
    ///
    /// The facade blocks until the whole cluster has cut over; client traffic
    /// submitted from other threads (via a shared [`engine::EngineCluster`])
    /// keeps flowing during the handoff — that transition is what the
    /// simulator's rebalance workloads and `fig7_rebalance` measure, and what
    /// the engine's stress test exercises live.
    pub fn rebalance(&mut self, replica: usize, target_shards: u32) -> u64 {
        let target_epoch = self.cluster.node(replica).epoch() + 1;
        self.cluster.node(replica).begin_rebalance(target_shards);
        let deadline = Instant::now() + FACADE_TIMEOUT;
        loop {
            let installed = (0..self.cluster.len()).all(|index| {
                let node = self.cluster.node(index);
                node.epoch() >= target_epoch && node.shard_count() == target_shards
            });
            if installed && self.cluster.node(replica).rebalance_idle() {
                return target_epoch;
            }
            assert!(Instant::now() < deadline, "rebalance did not complete");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The current partitioning epoch (0 until the first rebalance).
    pub fn epoch(&self) -> u64 {
        self.cluster.node(0).epoch()
    }

    /// An aggregated observability snapshot of one replica's engine: per-stage
    /// latency histograms (merged across its router and shard workers),
    /// runtime counters, and queue-depth high-water marks. Recording is always
    /// on and allocation-free; snapshotting is the cold path.
    pub fn obs_snapshot(&self, replica: usize) -> obs::ObsSnapshot {
        self.cluster.node(replica).obs_snapshot()
    }

    /// One replica's instruments as Prometheus-style text exposition, ready to
    /// serve from a `/metrics` endpoint.
    pub fn obs_prometheus(&self, replica: usize) -> String {
        self.cluster.node(replica).obs_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{CounterQuery, CounterUpdate, GCounter, ORSet, ORSetUpdate, SetOutput, SetQuery};

    #[test]
    fn counter_cluster_round_trips() {
        let mut cluster = LocalCluster::<GCounter>::new(3, ProtocolConfig::default());
        assert_eq!(cluster.len(), 3);
        assert!(!cluster.is_empty());
        assert!(matches!(cluster.update(0, CounterUpdate::Increment(2)), ResponseBody::UpdateDone));
        assert!(matches!(cluster.update(1, CounterUpdate::Increment(3)), ResponseBody::UpdateDone));
        assert_eq!(cluster.query(2, CounterQuery::Value), ResponseBody::QueryDone(5));
        let metrics = cluster.replica(2).metrics();
        assert_eq!(metrics.queries_consistent_quorum + metrics.queries_by_vote, 1);
    }

    #[test]
    fn batched_cluster_also_completes() {
        let mut cluster = LocalCluster::<GCounter>::new(3, ProtocolConfig::batched());
        cluster.update(0, CounterUpdate::Increment(1));
        assert_eq!(cluster.query(1, CounterQuery::Value), ResponseBody::QueryDone(1));
    }

    #[test]
    fn sharded_cluster_round_trips_across_replicas() {
        let mut cluster =
            LocalShardedCluster::<String, GCounter>::new(3, 4, ProtocolConfig::default());
        assert_eq!(cluster.len(), 3);
        assert_eq!(cluster.shard_count(), 4);
        cluster.update(0, "a".into(), CounterUpdate::Increment(2));
        cluster.update(1, "b".into(), CounterUpdate::Increment(3));
        assert_eq!(cluster.query(2, "a".into(), CounterQuery::Value), Some(2));
        assert_eq!(cluster.query(0, "b".into(), CounterQuery::Value), Some(3));
        assert_eq!(cluster.query(1, "missing".into(), CounterQuery::Value), None);
        assert_eq!(cluster.key_count(2), 2);
        assert_eq!(cluster.keys(0), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn sharded_cluster_rebalances_without_losing_data() {
        let mut cluster =
            LocalShardedCluster::<String, GCounter>::new(3, 4, ProtocolConfig::default());
        for i in 0..12 {
            cluster.update(i % 3, format!("key{i}"), CounterUpdate::Increment(i as u64 + 1));
        }
        assert_eq!(cluster.epoch(), 0);

        // Split 4 -> 8: every value survives the handoff and reads stay per-key
        // linearizable at the new epoch.
        assert_eq!(cluster.rebalance(0, 8), 1);
        assert_eq!(cluster.shard_count(), 8);
        for i in 0..12 {
            let value = cluster.query((i + 1) % 3, format!("key{i}"), CounterQuery::Value);
            assert_eq!(value, Some(i as i64 + 1));
        }

        // Merge back 8 -> 4 and keep writing.
        assert_eq!(cluster.rebalance(2, 4), 2);
        assert_eq!(cluster.shard_count(), 4);
        cluster.update(1, "key3".into(), CounterUpdate::Increment(10));
        assert_eq!(cluster.query(0, "key3".into(), CounterQuery::Value), Some(14));
        assert_eq!(cluster.key_count(1), 12);
    }

    #[test]
    fn sharded_cluster_works_with_batching_and_delta_payloads() {
        let config = ProtocolConfig::batched().with_delta_payloads();
        let mut cluster = LocalShardedCluster::<String, GCounter>::new(3, 2, config);
        cluster.update(0, "k".into(), CounterUpdate::Increment(1));
        cluster.update(2, "k".into(), CounterUpdate::Increment(4));
        assert_eq!(cluster.query(1, "k".into(), CounterQuery::Value), Some(5));
    }

    #[test]
    fn sharded_cluster_of_sets_routes_per_user() {
        let mut cluster =
            LocalShardedCluster::<String, ORSet<String>>::new(3, 4, ProtocolConfig::default());
        cluster.update(0, "alice".into(), ORSetUpdate::Insert("milk".into()));
        cluster.update(1, "alice".into(), ORSetUpdate::Remove("milk".into()));
        cluster.update(2, "bob".into(), ORSetUpdate::Insert("beer".into()));
        match cluster.query(0, "alice".into(), SetQuery::Elements) {
            Some(SetOutput::Elements(elements)) => assert!(elements.is_empty()),
            other => panic!("unexpected result {other:?}"),
        }
        match cluster.query(1, "bob".into(), SetQuery::Contains("beer".into())) {
            Some(SetOutput::Contains(present)) => assert!(present),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn orset_cluster_supports_add_and_remove() {
        let mut cluster = LocalCluster::<ORSet<String>>::new(3, ProtocolConfig::default());
        cluster.update(0, ORSetUpdate::Insert("milk".to_string()));
        cluster.update(1, ORSetUpdate::Insert("eggs".to_string()));
        cluster.update(2, ORSetUpdate::Remove("milk".to_string()));
        let result = cluster.query(0, SetQuery::Elements);
        match result {
            ResponseBody::QueryDone(SetOutput::Elements(elements)) => {
                assert!(elements.contains("eggs"));
                assert!(!elements.contains("milk"));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }
}
