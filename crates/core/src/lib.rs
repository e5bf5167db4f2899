//! # crdt-paxos-core — linearizable, leaderless, logless replication of CRDTs
//!
//! This crate implements the protocol of *Linearizable State Machine Replication of
//! State-Based CRDTs without Logs* (Skrzypczak, Schintke, Schütt — PODC 2019), here
//! called **CRDT Paxos** after the name used in the paper's evaluation.
//!
//! ## What the protocol gives you
//!
//! * **Linearizable** reads and updates on any state-based CRDT (`crdt::Crdt`).
//! * **No leader** — every replica accepts commands; there is no election machinery
//!   and no single bottleneck or single point of failure.
//! * **No log** — replicas store the CRDT payload plus a single round; updates modify
//!   the payload in place by joining states, so no truncation or snapshotting exists.
//! * **Updates in one round trip** — an update is applied locally and merged into a
//!   quorum with a single `MERGE`/`MERGED` exchange — or, when the same cycle
//!   has reads, by the reads' `PREPARE`/`ACK` exchange, which carries it.
//! * **Reads in one or two round trips** in the common case — one when a *consistent
//!   quorum* is observed, two when a vote is needed; retries only under contention
//!   with concurrent updates (the paper measures > 97 % of reads within two round
//!   trips under high concurrency when batching is enabled).
//!
//! ## Crate layout
//!
//! * [`Replica`] — the sans-io state machine combining the proposer and acceptor
//!   roles; drive it with [`Replica::submit`], [`Replica::handle_message`] and
//!   [`Replica::tick`], and drain [`Replica::take_outbox`] /
//!   [`Replica::take_responses`].
//! * [`Acceptor`] — the acceptor role alone (payload + round), useful for tests.
//! * [`Message`], [`Envelope`] — the wire-level protocol messages of Algorithm 2.
//! * [`Payload`] — what state-bearing messages carry: the full CRDT state (as in
//!   the paper) or a delta (Almeida et al.), selected per peer when
//!   [`ProtocolConfig::payload_mode`] is [`PayloadMode::DeltaWhenPossible`]. The
//!   proposer tracks, per peer, the largest state the peer is known to contain
//!   (from `MERGED`/`ACK`/`NACK` replies) and diffs against it; first contact,
//!   retries, and retransmissions fall back to full states.
//! * [`ShardCore`] — one shard of a partitioned keyspace as its own sans-io
//!   state machine: a `Replica<LatticeMap>` plus the per-shard bookkeeping
//!   (in-flight routing, fan-out legs, handoff extraction/absorption,
//!   cancel-and-re-home). Pure by construction — no channels, clocks, or
//!   sockets — so the same core is driven single-threaded by [`ShardedReplica`]
//!   and the deterministic simulator, and one-OS-thread-per-core by the
//!   `engine` crate's parallel executor.
//! * [`RouterCore`] — the routing policy above the shard cores, as a second
//!   sans-io state machine: deterministic key routing ([`HashPartitioner`]),
//!   epoch fencing ([`fence_decision`]), plan agreement on the control shard,
//!   the cutover choreography ([`Cutover`]) and fan-out aggregation. Inputs in,
//!   [`RouterEffect`]s out; it touches no shard core, so the single-threaded
//!   and the parallel executor run the *same* policy.
//! * [`ShardedReplica`] — the single-threaded driver of a [`RouterCore`] over a
//!   `Vec<ShardCore>`, with [`ShardEnvelope`]/[`ShardMessage`] multiplexing, so
//!   non-conflicting commands on different key ranges agree in parallel.
//! * [`rebalance`](crate::RebalancePlan) — dynamic resharding: the partitioner is
//!   epoch-stamped (the [`Stamp`] `(epoch, shards)`) and a [`RebalancePlan`] — agreed
//!   through the ordinary protocol on a dedicated control shard — resizes the
//!   keyspace at runtime. The log-less design makes the state handoff a pure
//!   lattice join ([`Replica::absorb_state`]); an epoch fence bounces stale
//!   traffic with the plan, in-flight commands re-home exactly once
//!   ([`Replica::submit_resync`], [`Replica::cancel_in_flight`]), and per-key
//!   linearizability holds across the transition by quorum intersection.
//! * [`Membership`] — the replica group and its majority quorum size; [`ShardId`]
//!   and [`HashPartitioner`] — the shards and the fixed-seed key→shard hash.
//! * [`ProtocolConfig`] — four settings: the batch interval, GLA-stability,
//!   the retransmission timeout and the payload mode.
//! * [`Metrics`] — the learning-path counters: how each query learned
//!   (consistent quorum or vote), prepare retries and `NACK`s. A command's
//!   round trips are on its [`ClientResponse`] (Figure 3 is built from those).
//! * [`peek_protocol`] — reads a [`ShardMessage`] frame's routing preamble
//!   (stamp, shard, message kind, request) without decoding its body.
//!
//! The companion crates provide the substrates and executors: `crdt` (the data
//! types), `cluster` (deterministic simulator and workloads — one driver of
//! these state machines), `engine` (the parallel executor on real threads — the
//! other driver), `transport` (tokio TCP runtime), and `baselines` (Multi-Paxos
//! and Raft used for comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptor;
mod config;
mod membership;
mod metrics;
mod msg;
mod peek;
mod rebalance;
mod replica;
mod round;
mod router_core;
mod shard;
mod shard_core;

pub use acceptor::{AcceptOutcome, Acceptor};
pub use config::{PayloadMode, ProtocolConfig};
pub use membership::Membership;
pub use metrics::Metrics;
pub use msg::{
    ClientId, ClientResponse, Command, CommandId, Envelope, Message, Payload, RequestId,
    ResponseBody,
};
pub use peek::{peek_protocol, Peek, MESSAGE_KINDS};
pub use rebalance::{winning_shards, ControlState, RebalancePlan, RebalanceStats};
pub use replica::{CancelledWork, Replica};
pub use round::{PrepareRound, Round, RoundId};
pub use router_core::{Cutover, RouterCore, RouterEffect};
pub use shard::{HashPartitioner, ShardEnvelope, ShardId, ShardMessage, ShardedReplica};
pub use shard_core::{
    fence_decision, CoreRehome, FenceDecision, RehomedCommand, ShardCore, ShardOutput, Stamp,
};
