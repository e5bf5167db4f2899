//! Engine-side observability wiring: the per-thread instrument bundles the
//! router and workers record into.
//!
//! Each thread owns its bundle outright — recording is an array index plus a
//! relaxed atomic on preallocated memory, never a shared lock. The bundles
//! clone their instruments into the node's [`ObsRegistry`] at construction
//! time (engine startup or worker spawn, both off the hot path), where
//! same-named instruments from different threads are merged at snapshot time.
//! The one exception is the node-level [`StageSet`] on `NodeShared`: ingress
//! dispatch runs on whichever thread delivers (a socket's read loop, a peer's
//! worker, the router), so its `RouterIngress` samples land in one shared set
//! — still lock-free, histograms take concurrent writers.

use std::sync::Arc;
use std::time::Instant;

use crdt_paxos_core::RebalanceStats;
use obs::{Counter, HighWater, ObsRegistry, StageSet, TraceConfig, TraceRing};

/// Nanoseconds since the node's start instant — the shared time base for
/// every queue-dwell measurement and trace timestamp.
pub(crate) fn now_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The router thread's instruments. Its stage samples (`RouterIngress`, and
/// `SubmitQueue` for the keyspace-wide queries it keeps) go to the node-level
/// set.
pub(crate) struct RouterObs {
    /// How often the router parked for lack of work.
    pub parks: Arc<Counter>,
    /// Largest ingress batch drained in one pump cycle.
    pub ingress_depth: Arc<HighWater>,
    /// Largest client-submission batch drained in one pump cycle.
    pub submit_depth: Arc<HighWater>,
    /// Largest worker-feedback batch drained in one pump cycle.
    pub feedback_depth: Arc<HighWater>,
    /// The router core's [`RebalanceStats`] as counters — `plans_installed`,
    /// `keys_moved`, `fence_bounces`, `fence_deferred`, `commands_rehomed` —
    /// each beside the value it currently shows.
    rebalance: [(Arc<Counter>, u64); 5],
    /// The router's trace ring (keyspace-wide queries log `SubmitQueue`
    /// here).
    pub ring: Arc<TraceRing>,
}

impl RouterObs {
    /// Builds the bundle and files every instrument into `registry`.
    pub fn new(registry: &ObsRegistry, trace: TraceConfig) -> Self {
        let parks = Arc::new(Counter::new());
        registry.register_counter("router_parks", Arc::clone(&parks));
        let ingress_depth = Arc::new(HighWater::new());
        registry.register_highwater("router_ingress_depth", Arc::clone(&ingress_depth));
        let submit_depth = Arc::new(HighWater::new());
        registry.register_highwater("submit_queue_depth", Arc::clone(&submit_depth));
        let feedback_depth = Arc::new(HighWater::new());
        registry.register_highwater("router_feedback_depth", Arc::clone(&feedback_depth));
        let rebalance = [
            "plans_installed",
            "keys_moved",
            "fence_bounces",
            "fence_deferred",
            "commands_rehomed",
        ]
        .map(|name| {
            let counter = Arc::new(Counter::new());
            registry.register_counter(name, Arc::clone(&counter));
            (counter, 0)
        });
        RouterObs {
            parks,
            ingress_depth,
            submit_depth,
            feedback_depth,
            rebalance,
            ring: Arc::new(TraceRing::new(trace)),
        }
    }

    /// Brings the rebalance counters up to the router core's `stats`.
    pub fn mirror(&mut self, stats: RebalanceStats) {
        let now = [
            stats.plans_installed,
            stats.keys_moved,
            stats.epoch_bounces,
            stats.messages_deferred,
            stats.commands_rehomed,
        ];
        for ((counter, shown), now) in self.rebalance.iter_mut().zip(now) {
            counter.add(now - *shown);
            *shown = now;
        }
    }
}

/// One worker thread's instruments, shared by the shards it serves.
pub(crate) struct WorkerObs {
    /// Stage histograms: workers record `SubmitQueue`, `MailboxDwell`,
    /// `Decode`, `ProtocolStep`, `QuorumWait`, and `ReplyEncode`.
    pub stages: StageSet,
    /// How often the worker parked for lack of work.
    pub parks: Arc<Counter>,
    /// Pump cycles in which at least one of the worker's shards had an input
    /// or an output.
    pub cycles: Arc<Counter>,
    /// Shards that had an input or an output, summed over those cycles:
    /// `shard_cycles / worker_cycles` is how many shards one wake-up served
    /// (1 with a thread per shard).
    pub shard_cycles: Arc<Counter>,
    /// Directly delivered inputs the worker handed back to the router because
    /// they were routed under an assignment other than the worker's own.
    pub rerouted: Arc<Counter>,
    /// State-bearing replies (`ACK`, `NACK`) to an instance that had already
    /// retired, dropped at the preamble peek instead of decoded.
    pub replies_skipped: Arc<Counter>,
    /// Frames dropped because they did not decode to a protocol message.
    pub frames_undecodable: Arc<Counter>,
    /// Protocol instances the worker's cores have opened. The `SubmitQueue`
    /// sample count over this is commands per instance: 1 when commands
    /// arrive one at a time, the pump cycle's size under load.
    pub instances_opened: Arc<Counter>,
    /// Largest mailbox batch drained in one pump cycle.
    pub mailbox_depth: Arc<HighWater>,
    /// The worker's trace ring (client commands log dwell/step/learn here).
    pub ring: Arc<TraceRing>,
}

impl WorkerObs {
    /// Builds the bundle for a worker thread about to be spawned and files
    /// every instrument into `registry`; `worker_threads` counts the calls.
    pub fn new(registry: &ObsRegistry, trace: TraceConfig) -> Self {
        let stages = StageSet::new();
        stages.register_into(registry);
        let counter = |name| {
            let counter = Arc::new(Counter::new());
            registry.register_counter(name, Arc::clone(&counter));
            counter
        };
        counter("worker_threads").incr();
        let mailbox_depth = Arc::new(HighWater::new());
        registry.register_highwater("worker_mailbox_depth", Arc::clone(&mailbox_depth));
        WorkerObs {
            stages,
            parks: counter("worker_parks"),
            cycles: counter("worker_cycles"),
            shard_cycles: counter("shard_cycles"),
            rerouted: counter("rerouted"),
            replies_skipped: counter("replies_skipped"),
            frames_undecodable: counter("frames_undecodable"),
            instances_opened: counter("instances_opened"),
            mailbox_depth,
            ring: Arc::new(TraceRing::new(trace)),
        }
    }
}
