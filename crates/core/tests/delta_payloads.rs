//! Integration tests for delta payloads: byte reduction on the wire and behavioural
//! equivalence with the paper-faithful full-state mode.
//!
//! The headline scenario mirrors the `wire_codec` bench's 64-slot case: a counter
//! that has accumulated contributions from 64 replicas (the worst case the ISSUE and
//! ROADMAP call out). In `DeltaWhenPossible` mode every MERGE after first contact
//! ships a single-slot delta, cutting total MERGE bytes by far more than 50 %.

use crdt::{CounterUpdate, GCounter, ReplicaId};
use crdt_paxos_core::{ClientId, Envelope, Message, Payload, ProtocolConfig, Replica};

/// A counter that already holds contributions from 64 replicas (e.g. a long-lived
/// wide deployment whose membership churned down to three).
fn wide_counter() -> GCounter {
    let mut state = GCounter::new();
    for replica in 0..64 {
        state.increment(ReplicaId::new(replica), replica * 1000 + 17);
    }
    state
}

fn cluster(config: ProtocolConfig) -> Vec<Replica<GCounter>> {
    let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    ids.iter().map(|&id| Replica::new(id, ids.clone(), wide_counter(), config.clone())).collect()
}

/// Runs `updates` increments at replica 0, delivering all messages, and returns the
/// total encoded bytes of every MERGE that went over the (virtual) wire.
fn merge_bytes_for(config: ProtocolConfig, updates: u64) -> u64 {
    let mut replicas = cluster(config);
    let mut merge_bytes = 0u64;
    for step in 0..updates {
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(step + 1));
        loop {
            let mut envelopes: Vec<Envelope<GCounter>> = Vec::new();
            for replica in replicas.iter_mut() {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                if matches!(env.message, Message::Merge { .. }) {
                    merge_bytes += wire::to_vec(&env.message).unwrap().len() as u64;
                }
                let index = env.to.as_u64() as usize;
                replicas[index].handle_message(env.from, env.message);
            }
        }
        replicas[0].take_responses();
    }
    merge_bytes
}

#[test]
fn delta_mode_halves_merge_bytes_on_the_64_slot_counter() {
    let updates = 10;
    let full = merge_bytes_for(ProtocolConfig::default(), updates);
    let delta = merge_bytes_for(ProtocolConfig::default().with_delta_payloads(), updates);
    assert!(
        (delta as f64) <= 0.5 * full as f64,
        "expected ≥ 50 % MERGE byte reduction, got full = {full} B, delta = {delta} B"
    );
}

#[test]
fn single_delta_merge_is_an_order_of_magnitude_smaller_than_full() {
    // The per-message version of the claim, directly comparable to the wire_codec
    // bench's 64-slot encode case.
    let mut state = wide_counter();
    let known = state.clone();
    state.increment(ReplicaId::new(0), 1);

    let full: Message<GCounter> = Message::Merge {
        request: crdt_paxos_core::RequestId(1),
        payload: Payload::Full(state.clone()),
    };
    let delta: Message<GCounter> = Message::Merge {
        request: crdt_paxos_core::RequestId(1),
        payload: Payload::Delta(crdt::DeltaCrdt::delta_since(&state, &known)),
    };
    let full_bytes = wire::to_vec(&full).unwrap().len();
    let delta_bytes = wire::to_vec(&delta).unwrap().len();
    assert!(delta_bytes * 10 <= full_bytes, "full = {full_bytes} B, delta = {delta_bytes} B");
}

/// Runs `queries` reads at replica 0 (after one warm-up update + read that
/// establishes peer knowledge and basis snapshots), returning the total encoded
/// bytes of every ACK reply on the wire. Before each read replica 2 — whose
/// `ACK` arrives after the quorum's — takes a write the reader's `PREPARE`
/// lacks.
fn ack_bytes_for(config: ProtocolConfig, queries: u64) -> u64 {
    let mut replicas = cluster(config);
    let mut ack_bytes = 0u64;
    let mut measuring = false;
    for step in 0..queries + 2 {
        if step == 0 {
            replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        } else {
            let mut write = GCounter::new();
            write.increment(ReplicaId::new(1), 1017 + step);
            replicas[2].absorb_state(&write);
            replicas[0].submit_query(ClientId(0), crdt::CounterQuery::Value);
        }
        loop {
            let mut envelopes: Vec<Envelope<GCounter>> = Vec::new();
            for replica in replicas.iter_mut() {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                if measuring && matches!(env.message, Message::PrepareAck { .. }) {
                    ack_bytes += wire::to_vec(&env.message).unwrap().len() as u64;
                }
                let index = env.to.as_u64() as usize;
                replicas[index].handle_message(env.from, env.message);
            }
        }
        replicas[0].take_responses();
        // The warm-up update + first read prime `peer_known` and the reveal/basis
        // handshake; measure from the second read on (the steady state).
        measuring = step >= 1;
    }
    ack_bytes
}

#[test]
fn delta_mode_halves_ack_bytes_on_the_64_slot_counter() {
    // After delta-encoding MERGE/PREPARE/VOTE, ACK/NACK replies dominated
    // bytes-on-the-wire. An acceptor that holds a write the PREPARE lacks ships
    // its full 64-slot state in full mode, and with the reply handshake a delta
    // of that one slot; the quiet acceptor's ACK is an empty delta in both.
    let queries = 10;
    let full = ack_bytes_for(ProtocolConfig::default(), queries);
    let delta = ack_bytes_for(ProtocolConfig::default().with_delta_payloads(), queries);
    assert!(
        (delta as f64) <= 0.5 * full as f64,
        "expected ≥ 50 % ACK byte reduction, got full = {full} B, delta = {delta} B"
    );
}

#[test]
fn delta_and_full_mode_acceptors_converge_to_identical_states() {
    let updates = 7;
    let mut full = cluster(ProtocolConfig::default());
    let mut delta = cluster(ProtocolConfig::default().with_delta_payloads());
    for replicas in [&mut full, &mut delta] {
        for step in 0..updates {
            let writer = (step % 3) as usize;
            replicas[writer].submit_update(ClientId(0), CounterUpdate::Increment(1));
            loop {
                let mut envelopes: Vec<Envelope<GCounter>> = Vec::new();
                for replica in replicas.iter_mut() {
                    envelopes.extend(replica.take_outbox());
                }
                if envelopes.is_empty() {
                    break;
                }
                for env in envelopes {
                    let index = env.to.as_u64() as usize;
                    replicas[index].handle_message(env.from, env.message);
                }
            }
        }
    }
    for index in 0..3 {
        assert_eq!(full[index].local_state(), delta[index].local_state());
        assert_eq!(full[index].local_state().value(), wide_counter().value() + updates);
    }
}
