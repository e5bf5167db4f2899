//! # cluster — deterministic cluster simulation, workloads, and analysis
//!
//! This crate is the evaluation substrate of the CRDT Paxos reproduction. It replaces
//! the paper's physical testbed (three Xeon nodes, 10 GbE, Basho Bench, 10-minute
//! runs) with a seeded discrete-event simulator that drives the very same sans-io
//! protocol state machines the real deployments use. The simulator is one of two
//! executors of those machines — the `engine` crate drives the same
//! `crdt_paxos_core::ShardCore`s on real OS threads, and its stress tests check
//! the parallel histories with this crate's [`linearizability`] checker — so
//! every safety property established deterministically here transfers to the
//! parallel execution:
//!
//! * [`sim`] — the event-driven simulator (network latency/jitter/loss, closed-loop
//!   clients, crash injection, per-interval statistics),
//! * [`adapters`] — plugs CRDT Paxos, Multi-Paxos, and Raft into the simulator,
//! * [`workload`] — read/update mixes à la Basho Bench,
//! * [`stats`] — latency percentiles, interval series, and the tally of encoded
//!   bytes per message kind,
//! * [`linearizability`] — an exact linearizability checker for counter histories.
//!
//! The convenience runners [`run_crdt_paxos`], [`run_single_kv`],
//! [`run_sharded_kv`], [`run_raft`], and [`run_multi_paxos`] execute one full
//! experiment and return a [`SimResult`].
//!
//! ```
//! use cluster::{run_crdt_paxos, SimConfig};
//! use crdt_paxos_core::ProtocolConfig;
//!
//! let config = SimConfig { clients: 8, duration_ms: 300, warmup_ms: 50, ..SimConfig::default() };
//! let result = run_crdt_paxos(&config, ProtocolConfig::default());
//! assert!(result.completed_reads + result.completed_updates > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod linearizability;
pub mod sim;
pub mod stats;
pub mod workload;

pub use adapters::{BaselineNode, KvMap, ReplicaNode, ShardedKvNode, SimCrdt};
pub use linearizability::{
    check_counter_history, check_keyed_history, HistoryOp, OpKind, Violation,
};
pub use sim::{
    run_simulation, CrashEvent, RebalanceEvent, SimConfig, SimNode, SimOp, SimOutcome, SimReply,
    SimResult, CALIBRATED_SERVICE_TIME_US,
};
pub use stats::{wire_reduction, IntervalStats, KindBytes, LatencyStats, WireMetrics};
pub use workload::{ClientWorkload, WorkloadMix};

use baselines::paxos::{PaxosConfig, PaxosReplica};
use baselines::raft::{RaftConfig, RaftReplica};
use crdt::GCounter;
use crdt_paxos_core::ProtocolConfig;

/// Guard for the single-counter adapters: they collapse keyed operations onto one
/// global counter, so recording *per-key* histories against them would report
/// spurious linearizability violations. Keyed history collection needs the KV
/// adapters ([`run_single_kv`] / [`run_sharded_kv`]).
fn assert_unkeyed_history(config: &SimConfig, protocol_name: &str) {
    assert!(
        config.keyspace <= 1 || !config.collect_history,
        "{protocol_name} replicates a single counter and collapses keyed operations onto it; \
         a keyed history against it is not checkable — use run_single_kv or run_sharded_kv \
         for multi-key workloads with collect_history"
    );
}

/// Runs one experiment with CRDT Paxos replicas under the given protocol configuration.
///
/// When [`SimConfig::measure_wire_bytes`] is set, every replica-to-replica message is
/// encoded with the `wire` codec and [`SimResult::wire`] reports bytes per message
/// kind — the basis of the full-vs-delta payload comparison in the `bench` crate.
pub fn run_crdt_paxos(config: &SimConfig, protocol: ProtocolConfig) -> SimResult {
    assert_unkeyed_history(config, "CRDT Paxos (single counter)");
    run_simulation(config, |id, members| {
        ReplicaNode::<GCounter>::new(id, members, protocol.clone())
    })
}

/// Runs one experiment with a **single-instance** replicated keyspace
/// (`Replica<LatticeMap>`): every key is serialized through one round counter.
///
/// This is the baseline of the sharding comparison; drive it with a multi-key
/// workload by setting [`SimConfig::keyspace`] > 1.
pub fn run_single_kv(config: &SimConfig, protocol: ProtocolConfig) -> SimResult {
    run_simulation(config, |id, members| ReplicaNode::<KvMap>::new(id, members, protocol.clone()))
}

/// Runs one experiment with the **sharded** keyspace engine: `shards` independent
/// protocol instances, keys hash-routed, quorums advancing in parallel.
pub fn run_sharded_kv(config: &SimConfig, protocol: ProtocolConfig, shards: u32) -> SimResult {
    run_simulation(config, |id, members| ShardedKvNode::new(id, members, shards, protocol.clone()))
}

/// The canonical multi-key workload of the throughput-vs-shards figure (and its
/// acceptance test): a uniform keyspace driven by enough closed-loop clients that
/// a single protocol instance is both contention-bound (every update invalidates
/// every in-flight read quorum) and CPU-bound (one round counter = one serial
/// message-handling lane, per [`SimConfig::service_time_us`]; the sharded engine
/// gets one lane per shard).
///
/// `quick` shortens the run for smoke tests and CI.
pub fn sharding_workload(quick: bool) -> SimConfig {
    SimConfig {
        clients: 128,
        duration_ms: if quick { 1_500 } else { 4_000 },
        warmup_ms: if quick { 250 } else { 500 },
        read_fraction: 0.9,
        keyspace: 64,
        service_time_us: CALIBRATED_SERVICE_TIME_US,
        seed: 0x5A4D,
        ..SimConfig::default()
    }
}

/// The canonical dynamic-resharding workload of the rebalance figure
/// (`fig7_rebalance`): the saturating uniform keyspace of [`sharding_workload`]
/// starting on `initial_shards`, with one mid-run [`RebalanceEvent`] resizing the
/// keyspace to `target_shards` while the closed-loop clients keep running. The
/// trigger fires at one third of the run, leaving a steady pre-split window to
/// measure the baseline against and a post-split window to measure convergence in.
pub fn rebalance_workload(quick: bool, target_shards: u32) -> SimConfig {
    let duration_ms = if quick { 3_000 } else { 6_000 };
    SimConfig {
        // Twice the clients of the sharding figure: 4 shards must be saturated
        // deep into contention collapse (every update invalidates the in-flight
        // read quorums of its whole shard), so the split has headroom to show.
        clients: 256,
        duration_ms,
        interval_ms: 100,
        rebalances: vec![RebalanceEvent { replica: 0, at_ms: duration_ms / 3, target_shards }],
        ..sharding_workload(quick)
    }
}

/// Runs one experiment with the Raft baseline.
pub fn run_raft(config: &SimConfig) -> SimResult {
    assert_unkeyed_history(config, "Raft (single counter)");
    run_simulation(config, |id, members| {
        BaselineNode::new(id, members, |id, members| {
            RaftReplica::new(id, members, RaftConfig::default())
        })
    })
}

/// Runs one experiment with the Multi-Paxos (read leases) baseline.
pub fn run_multi_paxos(config: &SimConfig) -> SimResult {
    assert_unkeyed_history(config, "Multi-Paxos (single counter)");
    run_simulation(config, |id, members| {
        BaselineNode::new(id, members, |id, members| {
            PaxosReplica::new(id, members, PaxosConfig::default())
        })
    })
}
