//! The state-based CRDT abstraction used by the replication protocol.

use std::fmt;

use crate::delta::DeltaCrdt;
use crate::replica::ReplicaId;

/// A state-based CRDT `(S, Q, U)` as defined in §2.2 of the paper.
///
/// * `S` — the payload state itself, which must form a join semilattice
///   ([`crate::Lattice`]) whose states can be diffed into deltas ([`DeltaCrdt`]).
/// * `U` — a set of monotonically non-decreasing update functions ([`Crdt::Update`]):
///   for every update `u` and state `s`, `s ⊑ u(s)` must hold.
/// * `Q` — a set of query functions ([`Crdt::Query`]) that read the payload without
///   modifying it.
///
/// Updates modify the state without returning a value; queries return a value without
/// modifying the state. Operations that do both are not supported by the protocol
/// (paper §1), which is what allows updates to complete in a single round trip.
///
/// # Example
///
/// ```
/// use crdt::{Crdt, CounterQuery, CounterUpdate, GCounter, ReplicaId};
///
/// let mut counter = GCounter::default();
/// counter.apply(ReplicaId::new(0), &CounterUpdate::Increment(3));
/// assert_eq!(counter.query(&CounterQuery::Value), 3);
/// ```
pub trait Crdt: DeltaCrdt + Default {
    /// Update commands (the set `U`): must be monotone with respect to the lattice.
    type Update: Clone + fmt::Debug + Send + 'static;
    /// Query commands (the set `Q`): read-only.
    type Query: Clone + fmt::Debug + Send + 'static;
    /// Result type returned by queries.
    type Output: Clone + fmt::Debug + PartialEq + Send + 'static;

    /// Applies an update function at the given replica, growing the payload state.
    fn apply(&mut self, replica: ReplicaId, update: &Self::Update);

    /// Evaluates a query function against the payload state.
    fn query(&self, query: &Self::Query) -> Self::Output;
}
