//! The last-writer-wins register CRDT.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::crdt::Crdt;
use crate::lattice::Lattice;
use crate::replica::ReplicaId;

/// Logical timestamp for last-writer-wins resolution: totally ordered by
/// `(time, replica)` so ties between replicas break deterministically.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LwwStamp {
    /// Logical or physical time of the write.
    pub time: u64,
    /// Replica that performed the write (tie breaker).
    pub replica: ReplicaId,
}

impl LwwStamp {
    /// Creates a timestamp.
    pub fn new(time: u64, replica: ReplicaId) -> Self {
        LwwStamp { time, replica }
    }
}

/// Last-writer-wins register.
///
/// The payload is an optional `(stamp, value)` pair; join keeps the pair with the
/// larger stamp. Writes must supply a stamp that is larger than any stamp the writer
/// has observed, which the caller typically derives from a logical clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LwwRegister<T> {
    entry: Option<(LwwStamp, T)>,
}

impl<T> Default for LwwRegister<T> {
    fn default() -> Self {
        LwwRegister { entry: None }
    }
}

impl<T: Clone + fmt::Debug> LwwRegister<T> {
    /// Creates an empty register.
    pub fn new() -> Self {
        LwwRegister::default()
    }

    /// Writes `value` with the given stamp if the stamp is newer than the current one.
    pub fn set(&mut self, stamp: LwwStamp, value: T) {
        match &self.entry {
            Some((current, _)) if *current >= stamp => {}
            _ => self.entry = Some((stamp, value)),
        }
    }

    /// Returns the current value, if any write has been observed.
    pub fn get(&self) -> Option<&T> {
        self.entry.as_ref().map(|(_, value)| value)
    }

    /// Returns the stamp of the current value.
    pub fn stamp(&self) -> Option<LwwStamp> {
        self.entry.as_ref().map(|(stamp, _)| *stamp)
    }
}

impl<T: Clone + fmt::Debug> Lattice for LwwRegister<T> {
    fn join(&mut self, other: &Self) {
        if let Some((stamp, value)) = &other.entry {
            self.set(*stamp, value.clone());
        }
    }

    fn leq(&self, other: &Self) -> bool {
        match (&self.entry, &other.entry) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, _)), Some((b, _))) => a <= b,
        }
    }
}

/// Update commands for [`LwwRegister`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegisterUpdate<T> {
    /// Write a value with an explicit timestamp.
    Set {
        /// Timestamp ordering this write against others.
        stamp: LwwStamp,
        /// The value to store.
        value: T,
    },
}

/// Query commands for registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RegisterQuery {
    /// Read the register.
    #[default]
    Get,
}

impl<T> Crdt for LwwRegister<T>
where
    T: Clone + fmt::Debug + PartialEq + Send + 'static,
{
    type Update = RegisterUpdate<T>;
    type Query = RegisterQuery;
    type Output = Option<T>;

    fn apply(&mut self, _replica: ReplicaId, update: &Self::Update) {
        match update {
            RegisterUpdate::Set { stamp, value } => self.set(*stamp, value.clone()),
        }
    }

    fn query(&self, _query: &Self::Query) -> Self::Output {
        self.get().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64) -> ReplicaId {
        ReplicaId::new(id)
    }

    #[test]
    fn lww_latest_stamp_wins() {
        let mut reg: LwwRegister<&str> = LwwRegister::new();
        assert_eq!(reg.get(), None);
        reg.set(LwwStamp::new(1, r(0)), "old");
        reg.set(LwwStamp::new(5, r(1)), "new");
        reg.set(LwwStamp::new(3, r(2)), "stale");
        assert_eq!(reg.get(), Some(&"new"));
        assert_eq!(reg.stamp(), Some(LwwStamp::new(5, r(1))));
    }

    #[test]
    fn lww_replica_breaks_ties() {
        let mut a: LwwRegister<&str> = LwwRegister::new();
        a.set(LwwStamp::new(7, r(0)), "from r0");
        let mut b: LwwRegister<&str> = LwwRegister::new();
        b.set(LwwStamp::new(7, r(1)), "from r1");
        let ab = a.clone().joined(&b);
        let ba = b.joined(&a);
        assert_eq!(ab, ba, "join must be commutative even on timestamp ties");
        assert_eq!(ab.get(), Some(&"from r1"));
    }

    #[test]
    fn lww_crdt_interface() {
        let mut reg: LwwRegister<u32> = LwwRegister::default();
        reg.apply(r(0), &RegisterUpdate::Set { stamp: LwwStamp::new(1, r(0)), value: 10 });
        assert_eq!(reg.query(&RegisterQuery::Get), Some(10));
    }
}
