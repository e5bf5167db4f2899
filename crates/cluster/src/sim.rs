//! Deterministic discrete-event cluster simulator.
//!
//! The paper's evaluation ran on a three-node Xeon cluster driven by Basho Bench for
//! ten minutes per data point. This simulator reproduces that setup in virtual time:
//! replicas are sans-io protocol state machines, the network is a priority queue of
//! timestamped message deliveries with configurable one-way latency, jitter, and loss,
//! clients are closed-loop (one outstanding request each), and failures are injected
//! by dropping every message to/from a crashed replica.
//!
//! Because everything is seeded, runs are bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linearizability::{check_counter_history, HistoryOp, OpKind, Violation};
use crate::stats::{IntervalSeries, IntervalStats, LatencyStats, WireMetrics};
use crate::workload::{ClientWorkload, WorkloadMix};

/// Per-message CPU cost (µs) the keyspace figures charge a shard's event loop, so
/// the simulator's throughput figures are quantitative rather than merely relative.
///
/// Derivation, from two rungs of the benchmark's ladder
/// (`benchmark/run.sh --workload layers`): `core.query_round_small_ns` times a
/// full linearizable read on three hand-pumped replicas whose shards hold 16 keys —
/// the per-shard state shape of the 64-key/4-shard uniform workload — which is one
/// submit plus four remote message handlings (2 `PREPARE` + 2 `ACK`;
/// `core.msgs_per_query` = 4), and `core.update_round_small_ns` the same for an
/// update (2 `MERGE` + 2 `MERGED`). A message costs a quarter of its round;
/// weighted by the canonical 90 %-read mix that is
/// `0.9 × query_round / 4 + 0.1 × update_round / 4`, rounded up to the simulator's
/// whole-microsecond resolution (the round-up also absorbs the outbox-drain and
/// dispatch costs a real event loop pays but a hand pump does not).
///
/// The value was fixed when those rounds read 15.5 µs and 5.9 µs
/// (`0.9 × 3.9 + 0.1 × 1.5 ≈ 3.6`) and is kept: the seeded figures and the split
/// pinned in `tests/rebalancing.rs` are stated against it. The rungs have since
/// fallen to ≈ 1.7 µs and ≈ 1.1 µs (PR 22, 2-core box) — the bare protocol step is now ≈ 0.4 µs of a
/// message's cost, the rest being what the engine's traced run reports as decode,
/// reply encode and socket write. Re-calibrating is: run the ladder, apply the
/// formula, and re-record the pinned figures in the same change.
pub const CALIBRATED_SERVICE_TIME_US: u64 = 4;

/// A client operation as seen by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
    /// Increment the replicated counter by the given amount.
    Increment(u64),
    /// Read the replicated counter.
    Read,
    /// Increment the counter stored under `key` (multi-key workloads, see
    /// [`SimConfig::keyspace`]).
    KeyIncrement {
        /// The key to update.
        key: u64,
        /// The increment amount.
        amount: u64,
    },
    /// Read the counter stored under `key`.
    KeyRead {
        /// The key to read.
        key: u64,
    },
}

impl SimOp {
    /// Returns `true` for read operations.
    pub fn is_read(self) -> bool {
        matches!(self, SimOp::Read | SimOp::KeyRead { .. })
    }

    /// The key the operation addresses, if it is a keyed operation.
    pub fn key(self) -> Option<u64> {
        match self {
            SimOp::KeyIncrement { key, .. } | SimOp::KeyRead { key } => Some(key),
            _ => None,
        }
    }
}

/// Outcome of a client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// The update committed.
    UpdateDone,
    /// The read returned the given value.
    ReadDone(i64),
    /// The contacted replica could not serve the request (e.g. no leader yet); the
    /// client retries after a backoff.
    Retry,
}

/// A reply surfaced by a protocol adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReply {
    /// The client the reply belongs to.
    pub client: u64,
    /// The outcome.
    pub outcome: SimOutcome,
    /// Quorum round trips the command needed (0 when the protocol does not track it).
    pub round_trips: u32,
}

/// A protocol node that can be driven by the simulator.
///
/// Implementations adapt the three protocol cores (CRDT Paxos, Multi-Paxos, Raft) to a
/// common counter workload; see [`crate::adapters`].
pub trait SimNode {
    /// The protocol's message type. Serializable so the simulator can measure its
    /// encoded size ([`SimConfig::measure_wire_bytes`]).
    type Message: Clone + std::fmt::Debug + wire::Serialize;

    /// The replica id of this node.
    fn id(&self) -> u64;

    /// Submits a client operation to this node.
    fn submit(&mut self, client: u64, op: SimOp);

    /// Handles a protocol message from another node.
    fn handle_message(&mut self, from: u64, message: Self::Message);

    /// Advances protocol timers to `now_ms`.
    fn tick(&mut self, now_ms: u64);

    /// Drains outgoing `(destination, message)` pairs.
    fn drain_messages(&mut self) -> Vec<(u64, Self::Message)>;

    /// Drains client replies.
    fn drain_replies(&mut self) -> Vec<SimReply>;

    /// The processing lane a message occupies when [`SimConfig::service_time_us`]
    /// models per-message CPU cost.
    ///
    /// Messages on the same `(replica, lane)` are handled serially; different lanes
    /// of one replica proceed in parallel. A single-instance protocol has one lane
    /// (one round counter, one event loop); a sharded engine reports the message's
    /// shard id here — one core per shard, the deployment model sharding exists
    /// for.
    fn lane_of(&self, _message: &Self::Message) -> u64 {
        0
    }

    /// The kind [`SimResult::wire`] counts `message` under (`"MERGE:full"`,
    /// `"CTRL:ACK"`, `"REBALANCE"`, …) when [`SimConfig::measure_wire_bytes`] is
    /// set. The default names none and the message stays uncounted — the
    /// baselines, whose bytes no figure compares.
    fn wire_kind(&self, _message: &Self::Message) -> Option<&'static str> {
        None
    }

    /// Initiates a rebalance of the keyspace to `target_shards` shards at this
    /// node (see [`RebalanceEvent`]).
    ///
    /// The default is a no-op: single-instance protocols and the baselines have
    /// no resharding to perform.
    fn trigger_rebalance(&mut self, _target_shards: u32) {}
}

/// A crash (and optional recovery) of one replica at a fixed point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The replica to crash.
    pub replica: u64,
    /// Crash time in milliseconds.
    pub at_ms: u64,
    /// Optional recovery time in milliseconds (crash-recovery model).
    pub recover_at_ms: Option<u64>,
}

/// A dynamic-resharding trigger: at `at_ms`, `replica` initiates a rebalance of
/// the keyspace to `target_shards` shards while the workload keeps running.
///
/// `resize(n)` is expressed directly; *splitting* a hot shard under hash
/// partitioning means doubling the modulus (every shard's range halves, including
/// the hot one), so a split of an `S`-shard keyspace is `target_shards = 2 * S`.
/// Protocols that do not support resharding ignore the trigger
/// ([`SimNode::trigger_rebalance`] defaults to a no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceEvent {
    /// The replica that acts as the rebalance coordinator.
    pub replica: u64,
    /// Trigger time in milliseconds.
    pub at_ms: u64,
    /// The shard count to rebalance to.
    pub target_shards: u32,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of replicas (the paper uses 3).
    pub replicas: u64,
    /// Number of closed-loop clients, spread round-robin over the replicas.
    pub clients: u64,
    /// Fraction of read operations (e.g. 0.95 for "95 % reads").
    pub read_fraction: f64,
    /// Virtual duration of the run in milliseconds.
    pub duration_ms: u64,
    /// Samples completed before this point are excluded from the latency statistics.
    pub warmup_ms: u64,
    /// One-way network latency between any two processes, in microseconds.
    pub one_way_latency_us: u64,
    /// Uniform jitter added to each message delivery, in microseconds.
    pub latency_jitter_us: u64,
    /// Probability that a replica-to-replica message is lost.
    pub message_loss: f64,
    /// Interval at which protocol timers fire, in milliseconds.
    pub tick_interval_ms: u64,
    /// CPU cost of handling one replica-to-replica message, in microseconds
    /// (0 disables the CPU model, the paper-faithful zero-cost network fiction).
    ///
    /// When set, each replica handles messages **serially per processing lane**
    /// ([`SimNode::lane_of`]): a single protocol instance is one saturable event
    /// loop, a sharded engine gets one lane per shard — the one-core-per-shard
    /// deployment the throughput-vs-shards figure measures. Use
    /// [`CALIBRATED_SERVICE_TIME_US`] for quantitative figures.
    pub service_time_us: u64,
    /// Backoff before a client retries after a [`SimOutcome::Retry`], in microseconds.
    pub retry_backoff_us: u64,
    /// Length of the aggregation interval for the time series, in milliseconds.
    pub interval_ms: u64,
    /// Seed for all randomness (workload mix, jitter, loss).
    pub seed: u64,
    /// Number of distinct keys the workload spreads over, uniformly. `1` (the
    /// default) reproduces the paper's single-object workload with unkeyed
    /// [`SimOp::Increment`]/[`SimOp::Read`]; larger values issue
    /// [`SimOp::KeyIncrement`]/[`SimOp::KeyRead`] for the keyspace protocols.
    pub keyspace: u64,
    /// Optional crash injection.
    pub crash: Option<CrashEvent>,
    /// Dynamic-resharding triggers, fired in time order while traffic continues
    /// (ignored by protocols without resharding support).
    pub rebalances: Vec<RebalanceEvent>,
    /// Record a full operation history for linearizability checking (bounded; meant
    /// for tests, not for the large throughput runs).
    pub collect_history: bool,
    /// Encode every replica-to-replica message with the `wire` codec and account the
    /// bytes per message kind in [`SimResult::wire`]. Costs one serialization per
    /// message, so it is off by default.
    pub measure_wire_bytes: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            replicas: 3,
            clients: 16,
            read_fraction: 0.9,
            duration_ms: 1_000,
            warmup_ms: 100,
            one_way_latency_us: 100,
            latency_jitter_us: 20,
            message_loss: 0.0,
            tick_interval_ms: 1,
            service_time_us: 0,
            retry_backoff_us: 1_000,
            interval_ms: 1_000,
            seed: 0xC0FFEE,
            keyspace: 1,
            crash: None,
            rebalances: Vec::new(),
            collect_history: false,
            measure_wire_bytes: false,
        }
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Virtual duration of the run (ms).
    pub duration_ms: u64,
    /// Completed read operations (after warm-up).
    pub completed_reads: u64,
    /// Completed update operations (after warm-up).
    pub completed_updates: u64,
    /// Number of [`SimOutcome::Retry`] replies observed.
    pub retries: u64,
    /// Replies for which the client had no outstanding operation — a duplicated
    /// (or conjured) client response. Always 0 for a correct protocol; the
    /// rebalancing tests assert it stays 0 across shard handoffs.
    pub orphan_replies: u64,
    /// Closed-loop clients whose outstanding operation was issued more than half
    /// a second of virtual time before the run ended — a *lost* client response
    /// (retransmissions complete any live operation well within that bound on a
    /// connected cluster). Always 0 for a correct protocol on a loss-free,
    /// crash-free run; the rebalance acceptance asserts it stays 0 across shard
    /// handoffs.
    pub stalled_clients: u64,
    /// Total throughput in operations per second (after warm-up).
    pub throughput_ops_per_sec: f64,
    /// Read latency distribution (µs).
    pub read_latency: LatencyStats,
    /// Update latency distribution (µs).
    pub update_latency: LatencyStats,
    /// Per-interval time series (Figure 4).
    pub intervals: Vec<IntervalStats>,
    /// Histogram of quorum round trips needed per read (Figure 3); empty for
    /// protocols that do not report round trips.
    pub read_round_trips: BTreeMap<u32, u64>,
    /// Encoded bytes-on-the-wire per message kind, over all replicas (only filled
    /// when [`SimConfig::measure_wire_bytes`] was set and the protocol adapter names
    /// its kinds, see [`SimNode::wire_kind`]; empty otherwise).
    pub wire: WireMetrics,
    /// Recorded operation history of unkeyed operations (only when
    /// `collect_history` was set).
    pub history: Vec<HistoryOp>,
    /// Recorded `(key, operation)` history of keyed operations (multi-key
    /// workloads; only when `collect_history` was set).
    pub keyed_history: Vec<(u64, HistoryOp)>,
}

impl SimResult {
    /// Checks the recorded histories for linearizability: the unkeyed history as
    /// one counter history, the keyed history per key.
    ///
    /// # Errors
    ///
    /// Returns the first violation found. Returns `Ok(())` for runs without history.
    pub fn check_linearizable(&self) -> Result<(), Violation> {
        check_counter_history(&self.history)?;
        crate::linearizability::check_keyed_history(&self.keyed_history)
            .map_err(|(_, violation)| violation)
    }

    /// Fraction of reads that completed within `max_round_trips` quorum round trips.
    pub fn read_fraction_within(&self, max_round_trips: u32) -> f64 {
        let total: u64 = self.read_round_trips.values().sum();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = self
            .read_round_trips
            .iter()
            .filter(|(&rt, _)| rt <= max_round_trips)
            .map(|(_, &count)| count)
            .sum();
        within as f64 / total as f64
    }
}

#[derive(Debug)]
enum Event<M> {
    Tick,
    Deliver { to: u64, from: u64, message: M, scheduled: bool },
    ClientIssue { client: u64 },
    ClientArrive { client: u64, replica: u64, op: SimOp },
    Crash { replica: u64 },
    Recover { replica: u64 },
    Rebalance { replica: u64, target_shards: u32 },
}

struct QueueItem<M> {
    time_us: u64,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for QueueItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.seq == other.seq
    }
}
impl<M> Eq for QueueItem<M> {}
impl<M> PartialOrd for QueueItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueItem<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so the BinaryHeap pops the earliest event first.
        (other.time_us, other.seq).cmp(&(self.time_us, self.seq))
    }
}

struct ClientState {
    replica: u64,
    workload: ClientWorkload,
    outstanding: Option<Outstanding>,
}

struct Outstanding {
    issued_us: u64,
    op: SimOp,
}

/// Runs one simulation with nodes built by `make_node(id, all_ids)`.
pub fn run_simulation<N, F>(config: &SimConfig, make_node: F) -> SimResult
where
    N: SimNode,
    F: Fn(u64, &[u64]) -> N,
{
    assert!(config.replicas > 0, "need at least one replica");
    assert!(config.clients > 0, "need at least one client");

    let ids: Vec<u64> = (0..config.replicas).collect();
    let mut nodes: Vec<N> = ids.iter().map(|&id| make_node(id, &ids)).collect();
    let mut alive: Vec<bool> = vec![true; nodes.len()];
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut clients: Vec<ClientState> = (0..config.clients)
        .map(|client| ClientState {
            replica: client % config.replicas,
            workload: ClientWorkload::new(
                WorkloadMix::reads(config.read_fraction),
                config.seed ^ (client.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            outstanding: None,
        })
        .collect();

    let duration_us = config.duration_ms * 1_000;
    let warmup_us = config.warmup_ms * 1_000;
    let mut heap: BinaryHeap<QueueItem<N::Message>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Per-(replica, lane) CPU reservation, used when `service_time_us` models
    // message-handling cost.
    let mut lanes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let push = |heap: &mut BinaryHeap<QueueItem<N::Message>>,
                seq: &mut u64,
                time_us: u64,
                event: Event<N::Message>| {
        *seq += 1;
        heap.push(QueueItem { time_us, seq: *seq, event });
    };

    // Bootstrap events.
    push(&mut heap, &mut seq, 0, Event::Tick);
    for client in 0..config.clients {
        let offset = rng.gen_range(0..1_000);
        push(&mut heap, &mut seq, offset, Event::ClientIssue { client });
    }
    if let Some(crash) = config.crash {
        push(&mut heap, &mut seq, crash.at_ms * 1_000, Event::Crash { replica: crash.replica });
        if let Some(recover_at) = crash.recover_at_ms {
            push(
                &mut heap,
                &mut seq,
                recover_at * 1_000,
                Event::Recover { replica: crash.replica },
            );
        }
    }
    for rebalance in &config.rebalances {
        push(
            &mut heap,
            &mut seq,
            rebalance.at_ms * 1_000,
            Event::Rebalance { replica: rebalance.replica, target_shards: rebalance.target_shards },
        );
    }

    // Result accumulators.
    let mut read_latency = LatencyStats::new();
    let mut update_latency = LatencyStats::new();
    let mut intervals = IntervalSeries::new(config.interval_ms, config.duration_ms);
    let mut read_round_trips: BTreeMap<u32, u64> = BTreeMap::new();
    let mut completed_reads = 0u64;
    let mut completed_updates = 0u64;
    let mut retries = 0u64;
    let mut orphan_replies = 0u64;
    let mut wire = WireMetrics::default();
    // Reused encode buffer for the byte accounting: one allocation per run.
    let mut encoded: Vec<u8> = Vec::new();
    let mut history: Vec<HistoryOp> = Vec::new();
    let mut keyed_history: Vec<(u64, HistoryOp)> = Vec::new();
    const HISTORY_CAP: usize = 250_000;

    let net_latency = |rng: &mut StdRng| -> u64 {
        let jitter = if config.latency_jitter_us > 0 {
            rng.gen_range(0..=config.latency_jitter_us)
        } else {
            0
        };
        config.one_way_latency_us + jitter
    };

    while let Some(item) = heap.pop() {
        let now_us = item.time_us;
        if now_us > duration_us {
            break;
        }
        match item.event {
            Event::Tick => {
                for (index, node) in nodes.iter_mut().enumerate() {
                    if alive[index] {
                        node.tick(now_us / 1_000);
                    }
                }
                push(&mut heap, &mut seq, now_us + config.tick_interval_ms * 1_000, Event::Tick);
            }
            Event::Crash { replica } => {
                alive[replica as usize] = false;
            }
            Event::Recover { replica } => {
                alive[replica as usize] = true;
            }
            Event::Rebalance { replica, target_shards } => {
                if alive[replica as usize] {
                    nodes[replica as usize].trigger_rebalance(target_shards);
                }
            }
            Event::ClientIssue { client } => {
                let state = &mut clients[client as usize];
                if state.outstanding.is_some() {
                    continue;
                }
                // Reconnect to the next alive replica if the client's home replica is down.
                if !alive[state.replica as usize] {
                    let alternatives: Vec<u64> =
                        (0..config.replicas).filter(|&r| alive[r as usize]).collect();
                    if let Some(&target) =
                        alternatives.get(client as usize % alternatives.len().max(1))
                    {
                        state.replica = target;
                    }
                }
                let is_read = state.workload.next_is_read();
                let op = if config.keyspace > 1 {
                    let key = state.workload.next_key(config.keyspace);
                    if is_read {
                        SimOp::KeyRead { key }
                    } else {
                        SimOp::KeyIncrement { key, amount: 1 }
                    }
                } else if is_read {
                    SimOp::Read
                } else {
                    SimOp::Increment(1)
                };
                state.outstanding = Some(Outstanding { issued_us: now_us, op });
                let delay = net_latency(&mut rng);
                let replica = state.replica;
                push(
                    &mut heap,
                    &mut seq,
                    now_us + delay,
                    Event::ClientArrive { client, replica, op },
                );
            }
            Event::ClientArrive { client, replica, op } => {
                if !alive[replica as usize] {
                    // The request is lost; the client re-issues (to an alive replica)
                    // after its retry backoff.
                    clients[client as usize].outstanding = None;
                    retries += 1;
                    push(
                        &mut heap,
                        &mut seq,
                        now_us + config.retry_backoff_us,
                        Event::ClientIssue { client },
                    );
                    continue;
                }
                nodes[replica as usize].submit(client, op);
            }
            Event::Deliver { to, from, message, scheduled } => {
                if !alive[to as usize] {
                    continue;
                }
                if config.service_time_us > 0 && !scheduled {
                    // Reserve the next free slot on the message's processing lane;
                    // if the lane is busy, re-deliver once the slot starts.
                    let lane = nodes[to as usize].lane_of(&message);
                    let busy = lanes.entry((to, lane)).or_insert(0);
                    let start = now_us.max(*busy);
                    *busy = start + config.service_time_us;
                    if start > now_us {
                        push(
                            &mut heap,
                            &mut seq,
                            start,
                            Event::Deliver { to, from, message, scheduled: true },
                        );
                        continue;
                    }
                }
                nodes[to as usize].handle_message(from, message);
            }
        }

        // Pump outputs of every node: outgoing messages become deliveries, replies
        // complete client operations.
        for index in 0..nodes.len() {
            if !alive[index] {
                // A crashed node neither sends nor replies; drop whatever it had queued.
                let _ = nodes[index].drain_messages();
                let _ = nodes[index].drain_replies();
                continue;
            }
            let from = nodes[index].id();
            for (to, message) in nodes[index].drain_messages() {
                if config.measure_wire_bytes {
                    // Counted before the loss draw: a lost message was sent.
                    if let Some(kind) = nodes[index].wire_kind(&message) {
                        encoded.clear();
                        // Failing silently here would quietly undercount the
                        // byte-reduction figures.
                        wire::to_writer(&message, &mut encoded).expect("protocol messages encode");
                        wire.record(kind, encoded.len() as u64);
                    }
                }
                if config.message_loss > 0.0 && rng.gen_bool(config.message_loss) {
                    continue;
                }
                let delay = net_latency(&mut rng);
                push(
                    &mut heap,
                    &mut seq,
                    now_us + delay,
                    Event::Deliver { to, from, message, scheduled: false },
                );
            }
            for reply in nodes[index].drain_replies() {
                let client = reply.client;
                let state = &mut clients[client as usize];
                let Some(outstanding) = state.outstanding.take() else {
                    orphan_replies += 1;
                    continue;
                };
                match reply.outcome {
                    SimOutcome::Retry => {
                        retries += 1;
                        // Put the operation back and retry after a backoff.
                        state.outstanding = None;
                        push(
                            &mut heap,
                            &mut seq,
                            now_us + config.retry_backoff_us,
                            Event::ClientIssue { client },
                        );
                    }
                    outcome => {
                        let completion_us = now_us + net_latency(&mut rng);
                        let latency = completion_us.saturating_sub(outstanding.issued_us);
                        let is_read = outstanding.op.is_read();
                        if completion_us >= warmup_us {
                            if is_read {
                                completed_reads += 1;
                                read_latency.record(latency);
                                if reply.round_trips > 0 {
                                    *read_round_trips.entry(reply.round_trips).or_insert(0) += 1;
                                }
                            } else {
                                completed_updates += 1;
                                update_latency.record(latency);
                            }
                            intervals.record(completion_us / 1_000, latency, is_read);
                        }
                        if config.collect_history
                            && history.len() + keyed_history.len() < HISTORY_CAP
                        {
                            let kind = match (outstanding.op, &outcome) {
                                (
                                    SimOp::Increment(amount) | SimOp::KeyIncrement { amount, .. },
                                    _,
                                ) => OpKind::Increment(amount),
                                (
                                    SimOp::Read | SimOp::KeyRead { .. },
                                    SimOutcome::ReadDone(value),
                                ) => OpKind::Read(*value),
                                (SimOp::Read | SimOp::KeyRead { .. }, _) => OpKind::Read(0),
                            };
                            let op = HistoryOp {
                                invoked_us: outstanding.issued_us,
                                responded_us: completion_us,
                                kind,
                            };
                            match outstanding.op.key() {
                                Some(key) => keyed_history.push((key, op)),
                                None => history.push(op),
                            }
                        }
                        push(&mut heap, &mut seq, completion_us, Event::ClientIssue { client });
                    }
                }
            }
        }
    }

    // A response lost by the protocol permanently stalls its closed-loop client;
    // operations issued comfortably before the end of the run (past any
    // retransmission horizon) that are still outstanding are exactly those.
    const STALL_GRACE_US: u64 = 500_000;
    let stalled_clients = clients
        .iter()
        .filter(|state| {
            state.outstanding.as_ref().is_some_and(|op| op.issued_us + STALL_GRACE_US < duration_us)
        })
        .count() as u64;

    // Operations still in flight when the run ends may already have taken effect at
    // the replicas without their response being observed. Record pending increments
    // as incomplete operations (response time = ∞) so the linearizability checker
    // knows they may or may not be visible to reads.
    if config.collect_history {
        for state in &clients {
            if let Some(outstanding) = &state.outstanding {
                if history.len() + keyed_history.len() >= HISTORY_CAP {
                    break;
                }
                let (key, amount) = match outstanding.op {
                    SimOp::Increment(amount) => (None, amount),
                    SimOp::KeyIncrement { key, amount } => (Some(key), amount),
                    SimOp::Read | SimOp::KeyRead { .. } => continue,
                };
                let op = HistoryOp {
                    invoked_us: outstanding.issued_us,
                    responded_us: u64::MAX,
                    kind: OpKind::Increment(amount),
                };
                match key {
                    Some(key) => keyed_history.push((key, op)),
                    None => history.push(op),
                }
            }
        }
    }

    let measured_ms = config.duration_ms.saturating_sub(config.warmup_ms).max(1);
    let total_ops = completed_reads + completed_updates;
    SimResult {
        duration_ms: config.duration_ms,
        completed_reads,
        completed_updates,
        retries,
        orphan_replies,
        stalled_clients,
        throughput_ops_per_sec: total_ops as f64 * 1_000.0 / measured_ms as f64,
        read_latency,
        update_latency,
        intervals: intervals.finish(),
        read_round_trips,
        wire,
        history,
        keyed_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial "echo" node used to test the simulator machinery itself: it answers
    /// reads with 0 and updates with done, without any replication.
    struct EchoNode {
        id: u64,
        replies: Vec<SimReply>,
    }

    impl SimNode for EchoNode {
        type Message = ();

        fn id(&self) -> u64 {
            self.id
        }
        fn submit(&mut self, client: u64, op: SimOp) {
            let outcome = match op {
                SimOp::Increment(_) | SimOp::KeyIncrement { .. } => SimOutcome::UpdateDone,
                SimOp::Read | SimOp::KeyRead { .. } => SimOutcome::ReadDone(0),
            };
            self.replies.push(SimReply { client, outcome, round_trips: 1 });
        }
        fn handle_message(&mut self, _from: u64, _message: ()) {}
        fn tick(&mut self, _now_ms: u64) {}
        fn drain_messages(&mut self) -> Vec<(u64, ())> {
            Vec::new()
        }
        fn drain_replies(&mut self) -> Vec<SimReply> {
            std::mem::take(&mut self.replies)
        }
    }

    fn echo_config() -> SimConfig {
        SimConfig { clients: 4, duration_ms: 200, warmup_ms: 0, ..SimConfig::default() }
    }

    #[test]
    fn closed_loop_clients_complete_operations() {
        let result = run_simulation(&echo_config(), |id, _| EchoNode { id, replies: Vec::new() });
        assert!(result.completed_reads + result.completed_updates > 0);
        assert!(result.throughput_ops_per_sec > 0.0);
        assert_eq!(result.retries, 0);
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed() {
        let a = run_simulation(&echo_config(), |id, _| EchoNode { id, replies: Vec::new() });
        let b = run_simulation(&echo_config(), |id, _| EchoNode { id, replies: Vec::new() });
        assert_eq!(a.completed_reads, b.completed_reads);
        assert_eq!(a.completed_updates, b.completed_updates);
    }

    #[test]
    fn read_fraction_controls_the_mix() {
        let mut config = echo_config();
        config.read_fraction = 1.0;
        let result = run_simulation(&config, |id, _| EchoNode { id, replies: Vec::new() });
        assert_eq!(result.completed_updates, 0);
        assert!(result.completed_reads > 0);

        config.read_fraction = 0.0;
        let result = run_simulation(&config, |id, _| EchoNode { id, replies: Vec::new() });
        assert_eq!(result.completed_reads, 0);
        assert!(result.completed_updates > 0);
    }

    #[test]
    fn latency_reflects_network_round_trip() {
        let mut config = echo_config();
        config.one_way_latency_us = 500;
        config.latency_jitter_us = 0;
        let mut result = run_simulation(&config, |id, _| EchoNode { id, replies: Vec::new() });
        // Client -> replica -> client = 2 one-way latencies for the echo node.
        assert_eq!(
            result.read_latency.median_us().or(result.update_latency.median_us()),
            Some(1_000)
        );
    }

    #[test]
    fn round_trip_histogram_is_collected() {
        let result = run_simulation(&echo_config(), |id, _| EchoNode { id, replies: Vec::new() });
        assert!(result.read_fraction_within(1) >= 0.999);
    }

    #[test]
    fn crash_of_the_home_replica_reroutes_clients() {
        let mut config = echo_config();
        config.duration_ms = 400;
        config.interval_ms = 100;
        config.crash = Some(CrashEvent { replica: 0, at_ms: 100, recover_at_ms: None });
        let result = run_simulation(&config, |id, _| EchoNode { id, replies: Vec::new() });
        // Clients keep completing operations after the crash because they reconnect.
        let after_crash: u64 = result
            .intervals
            .iter()
            .filter(|interval| interval.start_ms >= 200)
            .map(|interval| interval.operations)
            .sum();
        assert!(after_crash > 0, "operations must continue after the crash");
    }
}
