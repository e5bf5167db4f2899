//! Dynamic resharding correctness under the simulator and against the engine.
//!
//! Property groups:
//!
//! 1. **Per-key linearizability across a live rebalance** — a mid-run 4→8 split
//!    (and a subsequent merge back) under a keyed workload produces linearizable
//!    per-key histories, in both payload modes, including message loss and
//!    crash/recovery; no client response is lost or duplicated, and traffic keeps
//!    completing after the cutover.
//! 2. **Equivalence** — the payload representation never changes outcomes:
//!    `DeltaWhenPossible` histories are bit-identical to `Full` histories through
//!    the same rebalance schedule.
//! 3. **Handoff invariants** — directly against `ShardedReplica`: a rebalance to
//!    the identical plan is a data/routing no-op (the epoch still advances), and
//!    the post-handoff `merged_state` equals the pre-handoff `merged_state` for
//!    arbitrary keyspaces and resize targets.

use cluster::{run_sharded_kv, CrashEvent, RebalanceEvent, SimConfig, SimResult};
use crdt::{CounterUpdate, GCounter, ReplicaId};
use crdt_paxos_core::{ClientId, ProtocolConfig, RebalancePlan, ShardedReplica};
use proptest::prelude::*;

fn rebalancing_config(
    seed: u64,
    clients: u64,
    loss: f64,
    crash: Option<CrashEvent>,
    rebalances: Vec<RebalanceEvent>,
) -> SimConfig {
    SimConfig {
        clients,
        duration_ms: 800,
        warmup_ms: 0,
        interval_ms: 100,
        read_fraction: 0.6,
        keyspace: 16,
        message_loss: loss,
        crash,
        rebalances,
        collect_history: true,
        seed,
        ..SimConfig::default()
    }
}

/// A split at 250 ms and a merge back at 500 ms: both handoff directions (and a
/// reactivated retired instance) inside one run.
fn split_then_merge() -> Vec<RebalanceEvent> {
    vec![
        RebalanceEvent { replica: 0, at_ms: 250, target_shards: 8 },
        RebalanceEvent { replica: 2, at_ms: 500, target_shards: 4 },
    ]
}

fn assert_rebalanced_run_is_sound(result: &SimResult, what: &str) {
    result.check_linearizable().unwrap_or_else(|violation| {
        panic!("{what}: per-key linearizability violated: {violation}")
    });
    assert_eq!(result.orphan_replies, 0, "{what}: duplicated client responses");
    let after_cutover: u64 = result
        .intervals
        .iter()
        .filter(|interval| interval.start_ms >= 600)
        .map(|interval| interval.operations)
        .sum();
    assert!(after_cutover > 0, "{what}: no operations complete after the rebalances");
}

fn assert_histories_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.completed_reads, b.completed_reads, "{what}: completed reads diverged");
    assert_eq!(a.completed_updates, b.completed_updates, "{what}: completed updates diverged");
    assert_eq!(a.retries, b.retries, "{what}: retries diverged");
    assert_eq!(a.keyed_history.len(), b.keyed_history.len(), "{what}: history length diverged");
    for ((key_a, op_a), (key_b, op_b)) in a.keyed_history.iter().zip(b.keyed_history.iter()) {
        assert_eq!(key_a, key_b, "{what}: histories diverged on keys");
        assert_eq!(op_a.kind, op_b.kind, "{what}: histories diverged on op kinds");
        assert_eq!(op_a.invoked_us, op_b.invoked_us, "{what}: invocation times diverged");
        assert_eq!(op_a.responded_us, op_b.responded_us, "{what}: response times diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A live split + merge stays per-key linearizable in both payload modes, with
    /// bit-identical histories (the payload representation changes bytes, never
    /// outcomes — rebalance traffic included).
    #[test]
    fn split_and_merge_stay_per_key_linearizable(
        seed in any::<u64>(),
        clients in 4u64..12,
    ) {
        let config = rebalancing_config(seed, clients, 0.0, None, split_then_merge());
        let full = run_sharded_kv(&config, ProtocolConfig::default(), 4);
        let delta = run_sharded_kv(&config, ProtocolConfig::default().with_delta_payloads(), 4);
        assert_rebalanced_run_is_sound(&full, "full mode, split+merge");
        assert_rebalanced_run_is_sound(&delta, "delta mode, split+merge");
        assert_histories_identical(&full, &delta, "full vs delta through split+merge");
        // Loss-free, crash-free: every client must keep getting responses.
        assert_eq!(full.stalled_clients, 0, "full mode: lost client responses");
        assert_eq!(delta.stalled_clients, 0, "delta mode: lost client responses");
    }

    /// Message loss exercises retransmissions racing the epoch fence: stragglers
    /// get bounced with the plan and their commands re-home without loss or
    /// duplication.
    #[test]
    fn rebalancing_survives_message_loss(seed in any::<u64>()) {
        let config = rebalancing_config(seed, 8, 0.02, None, split_then_merge());
        let full = run_sharded_kv(&config, ProtocolConfig::default(), 4);
        let delta = run_sharded_kv(&config, ProtocolConfig::default().with_delta_payloads(), 4);
        assert_rebalanced_run_is_sound(&full, "full mode, lossy rebalance");
        assert_rebalanced_run_is_sound(&delta, "delta mode, lossy rebalance");
        assert_histories_identical(&full, &delta, "full vs delta, lossy rebalance");
    }

    /// A replica that is down across the split misses the plan gossip entirely; on
    /// recovery its stale-epoch traffic is bounced, it installs the plan, re-homes
    /// its in-flight work, and rejoins without violating linearizability.
    #[test]
    fn rebalancing_survives_a_crash_across_the_split(seed in any::<u64>()) {
        let crash = CrashEvent { replica: 1, at_ms: 200, recover_at_ms: Some(450) };
        let rebalances = vec![RebalanceEvent { replica: 0, at_ms: 300, target_shards: 8 }];
        let config = rebalancing_config(seed, 8, 0.0, Some(crash), rebalances);
        let full = run_sharded_kv(&config, ProtocolConfig::default(), 4);
        let delta = run_sharded_kv(&config, ProtocolConfig::default().with_delta_payloads(), 4);
        assert_rebalanced_run_is_sound(&full, "full mode, crash across split");
        assert_rebalanced_run_is_sound(&delta, "delta mode, crash across split");
        assert_histories_identical(&full, &delta, "full vs delta, crash across split");
    }

    /// Handoff invariants, directly against the engine: for an arbitrary keyspace
    /// and resize target, the post-handoff merged state equals the pre-handoff
    /// merged state on every replica, and resizing to the identical shard count
    /// moves no keys while still advancing the epoch.
    #[test]
    fn handoff_preserves_merged_state(
        keys in proptest::collection::vec(0u64..64, 1..40),
        initial_shards in 1u32..9,
        target_shards in 1u32..17,
    ) {
        let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
        let mut nodes: Vec<ShardedReplica<u64, GCounter>> = ids
            .iter()
            .map(|&id| {
                ShardedReplica::new(id, ids.clone(), initial_shards, ProtocolConfig::default())
            })
            .collect();
        for (i, key) in keys.iter().enumerate() {
            nodes[i % 3].submit_update(ClientId(0), *key, CounterUpdate::Increment(1));
        }
        run_to_quiescence(&mut nodes);
        for node in nodes.iter_mut() {
            node.take_responses();
        }
        let before: Vec<_> = nodes.iter().map(|node| node.merged_state()).collect();

        assert!(nodes[0].begin_rebalance(target_shards));
        run_to_quiescence(&mut nodes);

        for (node, before) in nodes.iter().zip(&before) {
            prop_assert_eq!(node.epoch(), 1);
            prop_assert_eq!(node.shard_count(), target_shards);
            prop_assert_eq!(
                node.current_plan(),
                Some(RebalancePlan { epoch: 1, shards: target_shards })
            );
            prop_assert_eq!(&node.merged_state(), before);
            if target_shards == initial_shards {
                prop_assert_eq!(node.rebalance_stats().keys_moved, 0);
            }
        }
    }
}

fn run_to_quiescence(nodes: &mut [ShardedReplica<u64, GCounter>]) {
    loop {
        let mut envelopes = Vec::new();
        for node in nodes.iter_mut() {
            for envelope in node.take_outbox() {
                envelopes.push((envelope.from, envelope.into_parts()));
            }
        }
        if envelopes.is_empty() {
            break;
        }
        for (from, (to, message)) in envelopes {
            let index = nodes.iter().position(|n| n.id() == to).expect("known replica");
            nodes[index].handle_message(from, message);
        }
    }
}

/// One seeded run through a live 4 → 8 split, pinned to the figures it produced
/// before the routing policy moved into `RouterCore`: the simulator is
/// deterministic, so any change to what the router decides — which messages
/// bounce or defer, in which order an install hands off, re-homes and gossips,
/// how often a read retries — shows up here as a number, in tier-1, and not
/// only in a manual `cmp` of two `fig7_rebalance` runs. A deliberate protocol
/// change re-records the figures and says why.
///
/// Re-recorded once, for the full-mode `ACK` that ships no state when the
/// acceptor's state is its `PREPARE`'s payload: `ACK:full` (18245, 781170)
/// became `ACK:delta` (16247, 265795) plus `ACK:full` (1998, 86722), and the
/// control shard's two `ACK`s 28 → 22 bytes. Only bytes and representation
/// moved: reads, updates, retries, round trips and every other kind are the
/// figures recorded before.
#[test]
fn a_seeded_split_reproduces_its_recorded_figures_exactly() {
    let split = vec![RebalanceEvent { replica: 0, at_ms: 250, target_shards: 8 }];
    let mut config = rebalancing_config(0x5EED, 8, 0.0, None, split);
    config.measure_wire_bytes = true;
    let result = run_sharded_kv(&config, ProtocolConfig::default(), 4);
    assert_rebalanced_run_is_sound(&result, "pinned split");

    assert_eq!((result.completed_reads, result.completed_updates, result.retries), (8405, 5532, 0));
    assert_eq!((result.orphan_replies, result.stalled_clients), (0, 0));
    let round_trips: Vec<(u32, u64)> =
        result.read_round_trips.iter().map(|(&trips, &reads)| (trips, reads)).collect();
    assert_eq!(round_trips, [(1, 7580), (2, 277), (3, 465), (4, 35), (5, 36), (6, 3), (7, 9)]);
    let wire: Vec<(&str, u64, u64)> = result
        .wire
        .per_kind
        .iter()
        .map(|(&kind, entry)| (kind, entry.messages, entry.bytes))
        .collect();
    let recorded = [
        ("ACK:delta", 16247, 265795),
        ("ACK:full", 1998, 86722),
        ("CTRL:ACK", 2, 22),
        ("CTRL:MERGE", 2, 16),
        ("CTRL:MERGED", 2, 6),
        ("CTRL:PREPARE", 2, 28),
        ("MERGE:full", 11092, 386628),
        ("MERGED", 11092, 75332),
        ("NACK:full", 975, 41277),
        ("PLANREQ", 5, 5),
        ("PREPARE", 16, 192),
        ("PREPARE:full", 18368, 771568),
        ("REBALANCE", 21, 63),
        ("VOTE:full", 1498, 63632),
        ("VOTED", 657, 4463),
    ];
    assert_eq!(wire, recorded);
}

/// The acceptance criterion of the rebalance figure (`fig7_rebalance`): a 4→8
/// split under the saturating uniform workload at least doubles committed
/// throughput with a bounded dip and no lost or duplicated responses.
///
/// The saturating workload takes minutes unoptimized, so the assertion runs here
/// in release builds only; the debug tier-1 suite covers it through the workspace
/// smoke test, which executes the release-built `fig7_rebalance --quick --check`.
#[test]
fn split_doubles_throughput_under_saturation() {
    if cfg!(debug_assertions) {
        eprintln!("skipped in debug: asserted via `fig7_rebalance --quick --check` (smoke test)");
        return;
    }
    let config = cluster::rebalance_workload(true, 8);
    let split_at_ms = config.rebalances[0].at_ms;
    let result = run_sharded_kv(&config, ProtocolConfig::default(), 4);
    assert_eq!(result.orphan_replies, 0, "no duplicated client responses");
    let pre: Vec<u64> = result
        .intervals
        .iter()
        .filter(|i| {
            i.start_ms >= config.warmup_ms && i.start_ms + config.interval_ms <= split_at_ms
        })
        .map(|i| i.operations)
        .collect();
    let post: Vec<u64> = result
        .intervals
        .iter()
        .filter(|i| i.start_ms >= config.duration_ms - (config.duration_ms - split_at_ms) / 2)
        .map(|i| i.operations)
        .collect();
    let median = |mut ops: Vec<u64>| -> u64 {
        ops.sort_unstable();
        ops[ops.len() / 2]
    };
    let (pre, post) = (median(pre), median(post));
    assert!(
        post as f64 >= 2.0 * pre as f64,
        "post-split interval median {post} ops is below 2x pre-split ({pre})"
    );
}
