//! The per-command instrumentation stations and their histogram sets.

use std::sync::Arc;

use crate::histogram::Histogram;
use crate::registry::ObsRegistry;

/// The stations a command passes through on its way from client submit to
/// socket write. Each stage is timed into its own histogram; together they
/// break a command's end-to-end latency into the layers built in PRs 6–9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client submit → the first engine thread dequeues the command: in
    /// steady state the owning shard worker itself, the router for what it
    /// still routes (keyspace-wide queries, anything during a cutover).
    SubmitQueue,
    /// Ingress dispatch of one peer message — peek, fence, enqueue on a shard
    /// mailbox — wherever it runs: the delivering thread in steady state, the
    /// router for what the fence hands to it.
    RouterIngress,
    /// Worker mailbox dwell of what an engine thread enqueued: a dispatched
    /// peer message, or a command the router forwarded, push → worker drains
    /// it. A command its client thread pushed has its whole wait under
    /// `SubmitQueue` and adds no sample here.
    MailboxDwell,
    /// In-place decode of a wire frame into the worker's scratch message.
    Decode,
    /// One sans-IO protocol step (`handle_message` / `submit`).
    ProtocolStep,
    /// Quorum wait: proposal opened → command learned (response drained).
    QuorumWait,
    /// Encoding the outbox batch for the destination sockets.
    ReplyEncode,
    /// One coalesced socket write (transport `write_all`).
    SocketWrite,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SubmitQueue,
        Stage::RouterIngress,
        Stage::MailboxDwell,
        Stage::Decode,
        Stage::ProtocolStep,
        Stage::QuorumWait,
        Stage::ReplyEncode,
        Stage::SocketWrite,
    ];

    /// Stable snake_case name used for registry keys and exposition.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SubmitQueue => "submit_queue",
            Stage::RouterIngress => "router_ingress",
            Stage::MailboxDwell => "mailbox_dwell",
            Stage::Decode => "decode",
            Stage::ProtocolStep => "protocol_step",
            Stage::QuorumWait => "quorum_wait",
            Stage::ReplyEncode => "reply_encode",
            Stage::SocketWrite => "socket_write",
        }
    }

    /// Dense index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One owner's histograms, one per [`Stage`].
///
/// Every worker thread holds its own `StageSet` (and each node one more, for
/// samples taken on threads it does not own), so recording is an array index
/// plus a relaxed atomic add — never a shared lock. The sets are reconciled
/// later: registering into an [`ObsRegistry`] files each
/// histogram under `stage_<name>_nanos`, and the registry merges same-named
/// entries at snapshot time.
pub struct StageSet {
    stages: [Arc<Histogram>; Stage::COUNT],
}

impl Default for StageSet {
    fn default() -> Self {
        Self::new()
    }
}

impl StageSet {
    /// Creates a set of empty histograms.
    pub fn new() -> Self {
        StageSet { stages: std::array::from_fn(|_| Arc::new(Histogram::new())) }
    }

    /// Records `nanos` spent in `stage`. Lock-free, allocation-free.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.stages[stage.index()].record(nanos);
    }

    /// The histogram backing `stage`.
    pub fn histogram(&self, stage: Stage) -> &Arc<Histogram> {
        &self.stages[stage.index()]
    }

    /// Files every stage histogram into `registry` as `stage_<name>_nanos`.
    pub fn register_into(&self, registry: &ObsRegistry) {
        for stage in Stage::ALL {
            registry.register_histogram(
                &format!("stage_{}_nanos", stage.name()),
                Arc::clone(self.histogram(stage)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn record_targets_the_right_stage() {
        let set = StageSet::new();
        set.record(Stage::Decode, 100);
        set.record(Stage::Decode, 200);
        set.record(Stage::QuorumWait, 5_000);
        assert_eq!(set.histogram(Stage::Decode).count(), 2);
        assert_eq!(set.histogram(Stage::QuorumWait).count(), 1);
        assert_eq!(set.histogram(Stage::SocketWrite).count(), 0);
    }
}
