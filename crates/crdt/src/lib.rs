//! # crdt — state-based conflict-free replicated data types
//!
//! This crate provides the data-type substrate of the CRDT Paxos reproduction
//! (Skrzypczak, Schintke, Schütt — *Linearizable State Machine Replication of
//! State-Based CRDTs without Logs*, PODC 2019):
//!
//! * the [`Lattice`] trait modelling join semilattices (Definition 1 of the paper),
//!   the [`Max`] lattice, and the set lattice of `BTreeSet` that the sets below
//!   join through,
//! * the [`Crdt`] trait modelling a state-based CRDT `(S, Q, U)` with monotone update
//!   functions and read-only query functions (Definition 3),
//! * concrete CRDTs: [`GCounter`] (the paper's running example, Algorithm 1),
//!   [`PNCounter`], [`GSet`], [`TwoPhaseSet`], [`ORSet`], [`LwwRegister`] and
//!   [`LatticeMap`],
//! * delta-state support ([`delta`]): every [`Crdt`] is a [`DeltaCrdt`], whose
//!   [`DeltaCrdt::delta_since`] diffs two states into a delta — itself a state,
//!   merged by the same join — that the protocol's `Payload::Delta` messages ship
//!   to keep large payloads small.
//!
//! All payload types implement serde's `Serialize`/`Deserialize` so they can be
//! shipped by the `wire` codec of the networked deployment.
//!
//! ## Quick example
//!
//! ```
//! use crdt::{Crdt, CounterQuery, CounterUpdate, GCounter, Lattice, ReplicaId};
//!
//! // Two replicas increment independently …
//! let mut a = GCounter::default();
//! let mut b = GCounter::default();
//! a.apply(ReplicaId::new(0), &CounterUpdate::Increment(2));
//! b.apply(ReplicaId::new(1), &CounterUpdate::Increment(3));
//!
//! // … and converge to the same value once their states are joined.
//! let merged = a.joined(&b);
//! assert_eq!(merged.query(&CounterQuery::Value), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
#[allow(clippy::module_inception)]
mod crdt;
pub mod delta;
mod gset;
mod lattice;
mod ormap;
mod orset;
mod register;
mod replica;

pub use counter::{CounterQuery, CounterUpdate, GCounter, PNCounter, PnUpdate};
pub use crdt::Crdt;
pub use delta::DeltaCrdt;
pub use gset::{GSet, GSetUpdate, SetOutput, SetQuery, TwoPhaseSet, TwoPhaseSetUpdate};
pub use lattice::{Lattice, Max};
pub use ormap::{LatticeMap, MapOutput, MapQuery, MapUpdate};
pub use orset::{ORSet, ORSetUpdate, Tag};
pub use register::{LwwRegister, LwwStamp, RegisterQuery, RegisterUpdate};
pub use replica::ReplicaId;
