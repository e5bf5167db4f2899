//! # baselines — Multi-Paxos and Raft replicas used for comparison
//!
//! The paper's evaluation (§4) compares CRDT Paxos against an open-source Erlang
//! Multi-Paxos (riak_ensemble) and Raft (rabbitmq/ra) replicating a simple integer
//! counter. This crate provides from-scratch Rust implementations of both protocols
//! with the two design features the paper identifies as performance-relevant:
//!
//! * **Multi-Paxos** ([`paxos::PaxosReplica`]) — a stable leader orders all updates
//!   through a replicated command log and serves reads locally under a **read lease**
//!   renewed by heartbeats ("the Multi-Paxos implementation employs leader read
//!   leases").
//! * **Raft** ([`raft::RaftReplica`]) — leader election with randomized timeouts and a
//!   replicated log; **consistent reads are appended to the log** like updates ("the
//!   Raft implementation appends both updates and consistent reads to its command
//!   log, which results in its consistent performance for all load types").
//!
//! Both replicas are sans-io state machines with the same drive surface as
//! `crdt_paxos_core::Replica` (submit / handle_message / tick / take_outbox /
//! take_replies, named by the [`Baseline`] trait), so the simulator can run all
//! three protocols through identical harness code. Logs are kept in memory,
//! mirroring the paper's RAM-disk logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paxos;
pub mod raft;
mod statemachine;

pub use statemachine::{CounterOp, CounterRegister, StateMachine};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use paxos::{PaxosMessage, PaxosReplica};
use raft::{RaftMessage, RaftReplica};

/// Identifies a replica in a baseline cluster (kept separate from `crdt::ReplicaId`
/// so the baselines have no dependency on the CRDT crate).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a client session.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u64);

/// Correlates a client command with its response.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CommandId(pub u64);

/// A client command for a replicated state machine: either a state-mutating command or
/// a linearizable read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(bound(
    serialize = "S::Command: Serialize, S::Query: Serialize",
    deserialize = "S::Command: Deserialize<'de>, S::Query: Deserialize<'de>"
))]
pub enum Request<S: StateMachine> {
    /// Apply a command to the state machine.
    Update(S::Command),
    /// Linearizable read.
    Read(S::Query),
}

/// Response returned to a client by either baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply<S: StateMachine> {
    /// The client the reply is addressed to.
    pub client: ClientId,
    /// The command being answered.
    pub command: CommandId,
    /// The reply body.
    pub body: ReplyBody<S>,
}

/// Body of a [`Reply`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody<S: StateMachine> {
    /// The update was committed and applied.
    UpdateDone,
    /// The read result.
    ReadDone(S::Output),
    /// The command could not be served here; the client should retry (e.g. the
    /// contacted node knows no leader yet). The simulator's clients retry
    /// transparently, which models clients re-sending after a timeout.
    Retry,
}

/// An addressed baseline protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing<M> {
    /// Destination node.
    pub to: NodeId,
    /// The protocol message.
    pub message: M,
}

/// The drive surface the two baseline replicas share, so one harness — the
/// simulator adapter, the TCP figure — is written once and runs either.
pub trait Baseline {
    /// The replicated state machine.
    type Machine: StateMachine;
    /// The protocol's message type.
    type Message: Clone + std::fmt::Debug + Serialize + DeserializeOwned + Send + Sync + 'static;

    /// Submits a client command.
    fn submit(&mut self, client: ClientId, id: CommandId, request: Request<Self::Machine>);
    /// Handles a protocol message from another node.
    fn handle_message(&mut self, from: NodeId, message: Self::Message);
    /// Advances protocol timers to `now_ms`.
    fn tick(&mut self, now_ms: u64);
    /// Drains the addressed messages produced since the last call.
    fn take_outbox(&mut self) -> Vec<Outgoing<Self::Message>>;
    /// Drains the client replies produced since the last call.
    fn take_replies(&mut self) -> Vec<Reply<Self::Machine>>;
}

macro_rules! impl_baseline {
    ($replica:ident, $message:ident) => {
        impl<S> Baseline for $replica<S>
        where
            S: StateMachine,
            S::Command: Serialize + DeserializeOwned + Sync,
            S::Query: Serialize + DeserializeOwned + Sync,
        {
            type Machine = S;
            type Message = $message<S>;

            fn submit(&mut self, client: ClientId, id: CommandId, request: Request<S>) {
                $replica::submit(self, client, id, request);
            }
            fn handle_message(&mut self, from: NodeId, message: Self::Message) {
                $replica::handle_message(self, from, message);
            }
            fn tick(&mut self, now_ms: u64) {
                $replica::tick(self, now_ms);
            }
            fn take_outbox(&mut self) -> Vec<Outgoing<Self::Message>> {
                $replica::take_outbox(self)
            }
            fn take_replies(&mut self) -> Vec<Reply<S>> {
                $replica::take_replies(self)
            }
        }
    };
}

impl_baseline!(PaxosReplica, PaxosMessage);
impl_baseline!(RaftReplica, RaftMessage);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
