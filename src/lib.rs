//! # crdt-paxos — linearizable state machine replication of state-based CRDTs without logs
//!
//! This is the facade crate of a full Rust reproduction of
//! *Linearizable State Machine Replication of State-Based CRDTs without Logs*
//! (Jan Skrzypczak, Florian Schintke, Thorsten Schütt — PODC 2019). It re-exports the
//! workspace crates under one roof:
//!
//! | module | contents |
//! |--------|----------|
//! | [`crdt`] | join semilattices and state-based CRDTs (G-Counter, PN-Counter, sets, a last-writer-wins register, maps); every CRDT diffs into deltas of its own type (`DeltaCrdt::delta_since`), merged by the same join |
//! | [`wire`] | compact binary serde codec and message framing |
//! | [`protocol`] | the CRDT Paxos protocol core: [`protocol::Replica`], messages, configuration, metrics, the replica group and its majority quorum size ([`protocol::Membership`]); state-bearing messages carry a [`protocol::Payload`] — the full CRDT state or, with [`protocol::PayloadMode::DeltaWhenPossible`], a per-peer delta that cuts large payloads down to what the receiver is missing (replies are delta-encoded too, against the request's own payload and basis snapshot); [`protocol::ShardedReplica`] partitions a `LatticeMap` keyspace over independent protocol instances — one round counter and one quorum per shard — by the hash of each key ([`protocol::HashPartitioner`]) and reshards it **dynamically**: a [`protocol::RebalancePlan`] agreed on a control shard moves key ranges by lattice join under an epoch fence while traffic continues |
//! | [`engine`] | parallel executor: the shards' sans-IO [`protocol::ShardCore`]s spread over `min(shards, cores)` worker threads behind FIFO mailboxes ([`engine::EngineCluster`], [`engine::EngineNode`]) |
//! | [`obs`] | allocation-free observability: log-bucketed latency histograms, per-stage instrumentation ([`obs::Stage`]), runtime counters, sampled trace rings, and a registry with Prometheus-style exposition ([`obs::ObsRegistry`]) |
//! | [`baselines`] | Multi-Paxos (read leases) and Raft baselines |
//! | [`transport`] | the tokio TCP mesh ([`transport::tcp::TcpMesh`]) |
//! | [`cluster`] | deterministic simulator, workloads, statistics (latencies and the per-kind tally of encoded bytes on the wire, [`cluster::WireMetrics`]), linearizability checker |
//!
//! ## Quickstart
//!
//! ```
//! use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
//! use crdt_paxos::local::LocalCluster;
//! use crdt_paxos::protocol::{ProtocolConfig, ResponseBody};
//!
//! // A three-replica in-process cluster replicating a G-Counter.
//! let mut cluster = LocalCluster::<GCounter>::new(3, ProtocolConfig::default());
//!
//! // Linearizable update handled by replica 0 …
//! cluster.update(0, CounterUpdate::Increment(3));
//! // … is visible to a linearizable read at replica 2.
//! let value = cluster.query(2, CounterQuery::Value);
//! assert_eq!(value, ResponseBody::QueryDone(3));
//! ```
//!
//! Large CRDTs can switch the wire format to delta payloads without any other code
//! change — the protocol's behaviour (and its linearizability) is identical, only
//! the bytes shrink:
//!
//! ```
//! use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
//! use crdt_paxos::local::LocalCluster;
//! use crdt_paxos::protocol::{ProtocolConfig, ResponseBody};
//!
//! let config = ProtocolConfig::default().with_delta_payloads();
//! let mut cluster = LocalCluster::<GCounter>::new(3, config);
//! cluster.update(0, CounterUpdate::Increment(3));
//! assert_eq!(cluster.query(2, CounterQuery::Value), ResponseBody::QueryDone(3));
//! ```
//!
//! For a whole **keyspace** instead of a single object, shard it: every key lives
//! on one of `S` independent protocol instances (the paper's fine-granularity
//! argument), so commands on different key ranges commit in parallel:
//!
//! ```
//! use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
//! use crdt_paxos::local::LocalShardedCluster;
//! use crdt_paxos::protocol::ProtocolConfig;
//!
//! // 3 replicas, 4 shards, a linearizable G-Counter under every key.
//! let mut kv = LocalShardedCluster::<String, GCounter>::new(3, 4, ProtocolConfig::default());
//! kv.update(0, "clicks".into(), CounterUpdate::Increment(3));
//! kv.update(1, "views".into(), CounterUpdate::Increment(8));
//! assert_eq!(kv.query(2, "clicks".into(), CounterQuery::Value), Some(3));
//! assert_eq!(kv.key_count(0), 2);
//! ```
//!
//! A sharded cluster can be **resized while running**: the keyspace hands its
//! moving ranges off by lattice join (no log to truncate or replay) under an
//! epoch-stamped partitioner, preserving per-key linearizability throughout:
//!
//! ```
//! use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
//! use crdt_paxos::local::LocalShardedCluster;
//! use crdt_paxos::protocol::ProtocolConfig;
//!
//! let mut kv = LocalShardedCluster::<String, GCounter>::new(3, 4, ProtocolConfig::default());
//! kv.update(0, "clicks".into(), CounterUpdate::Increment(3));
//! // Split 4 -> 8 shards: agreed on the control shard, installed everywhere.
//! assert_eq!(kv.rebalance(0, 8), 1); // the new partitioning epoch
//! assert_eq!(kv.shard_count(), 8);
//! assert_eq!(kv.query(2, "clicks".into(), CounterQuery::Value), Some(3));
//! ```
//!
//! See `examples/` for runnable programs (quickstart, sharded replicated shopping
//! carts, fail-over, TCP deployments — single-object and sharded with a live
//! resize, round-trip histograms) and the `bench` crate for the harnesses that
//! regenerate every figure of the paper's evaluation (including the
//! `fig5_wire_bytes` full-vs-delta byte comparison, the `fig6_sharding`
//! throughput-vs-shards report, and the `fig7_rebalance` live 4→8 split report).
//! Performance numbers — end to end and layer by layer — come from one place,
//! the `benchmark/` package (`benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use cluster;
pub use crdt;
pub use engine;
pub use obs;
pub use transport;
pub use wire;

/// The CRDT Paxos protocol core (re-export of `crdt_paxos_core`).
pub mod protocol {
    pub use crdt_paxos_core::*;
}

pub mod local;
