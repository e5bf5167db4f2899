//! Minimal `crossbeam` stand-in: the lock-free [`queue`] the engine's
//! mailboxes are built on.

pub mod queue;
