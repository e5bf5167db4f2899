//! Figure 5 (extension beyond the paper): bytes-on-the-wire, full vs. delta payloads.
//!
//! Two reports:
//!
//! 1. **Message sizes** — deterministic encoded sizes of a MERGE carrying one
//!    increment on an n-slot G-Counter, full state vs. single-slot delta (the
//!    `wire_codec` bench's 64-slot case, as bytes instead of nanoseconds).
//!    The quiet-read `ACK` table sets a full-state `ACK` beside the empty reply
//!    delta of delta mode. A quiet read's `ACK` in full mode is the empty delta
//!    too (against the `PREPARE`'s payload, with no reveal and no basis); the
//!    full state is what a full-mode acceptor ships when it holds a write the
//!    `PREPARE` lacked.
//! 2. **Simulated cluster** — total encoded bytes per message kind over a simulator
//!    run in `PayloadMode::Full` vs. `PayloadMode::DeltaWhenPossible`. In full
//!    mode `ACK:delta` counts the `ACK`s whose state was their `PREPARE`'s
//!    payload, `ACK:full` the others.
//!
//! Flags: `--sizes-only` skips the simulation (used by CI / the workspace smoke
//! test), `--quick` shortens the simulated runs.

use cluster::{wire_reduction, SimConfig, WireMetrics};
use crdt::{DeltaCrdt, GCounter, ReplicaId};
use crdt_paxos_core::{Message, Payload, ProtocolConfig, RequestId, Round, RoundId};

fn wide_state(slots: u64) -> GCounter {
    let mut state = GCounter::new();
    for replica in 0..slots {
        state.increment(ReplicaId::new(replica), replica * 1000 + 17);
    }
    state
}

fn encoded_len(message: &Message<GCounter>) -> usize {
    wire::to_vec(message).expect("protocol messages encode").len()
}

fn size_report() {
    println!("== MERGE payload size: one increment on an n-slot counter ==");
    println!("{:>6} {:>12} {:>12} {:>10}", "slots", "full [B]", "delta [B]", "saved");
    for slots in [3u64, 16, 64, 256] {
        let known = wide_state(slots);
        let mut state = known.clone();
        state.increment(ReplicaId::new(0), 1);
        let full = Message::Merge { request: RequestId(1), payload: Payload::Full(state.clone()) };
        let delta = Message::Merge {
            request: RequestId(1),
            payload: Payload::Delta(state.delta_since(&known)),
        };
        let (full_bytes, delta_bytes) = (encoded_len(&full), encoded_len(&delta));
        println!(
            "{:>6} {:>12} {:>12} {:>9.1}%",
            slots,
            full_bytes,
            delta_bytes,
            100.0 * (1.0 - delta_bytes as f64 / full_bytes as f64)
        );
    }
    println!();

    println!("== quiet-read ACK size: n-slot counter, full vs reply delta ==");
    println!("{:>6} {:>12} {:>12} {:>10}", "slots", "full [B]", "delta [B]", "saved");
    for slots in [3u64, 16, 64, 256] {
        let state = wide_state(slots);
        let round = Round::new(1, RoundId::proposer(1, ReplicaId::new(0)));
        let full = Message::PrepareAck {
            request: RequestId(1),
            round,
            state: Payload::Full(state.clone()),
            reveal: 9,
            basis: 0,
        };
        // A quiet read: the acceptor's state equals the prepare's content joined
        // with the echoed basis snapshot, so the reply delta is empty.
        let delta = Message::PrepareAck {
            request: RequestId(1),
            round,
            state: Payload::Delta(state.delta_since(&state)),
            reveal: 9,
            basis: 8,
        };
        let (full_bytes, delta_bytes) = (encoded_len(&full), encoded_len(&delta));
        println!(
            "{:>6} {:>12} {:>12} {:>9.1}%",
            slots,
            full_bytes,
            delta_bytes,
            100.0 * (1.0 - delta_bytes as f64 / full_bytes as f64)
        );
    }
    println!();
}

fn print_kinds(label: &str, wire: &WireMetrics) {
    println!("-- {label} --");
    println!("{:>14} {:>10} {:>12} {:>10}", "kind", "msgs", "bytes", "B/msg");
    for (kind, counts) in &wire.per_kind {
        let per_message =
            if counts.messages > 0 { counts.bytes as f64 / counts.messages as f64 } else { 0.0 };
        println!("{:>14} {:>10} {:>12} {:>10.1}", kind, counts.messages, counts.bytes, per_message);
    }
    println!("{:>14} {:>10} {:>12}", "total", "", wire.total_bytes());
}

fn sim_report(quick: bool) {
    let (duration_ms, clients) = if quick { (1_000, 16) } else { (4_000, 64) };
    for read_fraction in [0.2, 0.9] {
        let config = SimConfig {
            clients,
            duration_ms,
            warmup_ms: 0,
            read_fraction,
            measure_wire_bytes: true,
            seed: 0xF1B5 ^ (read_fraction * 100.0) as u64,
            ..SimConfig::default()
        };
        println!(
            "== simulated cluster: {} clients, {:.0}% reads, {} ms ==",
            clients,
            read_fraction * 100.0,
            duration_ms
        );
        let full = cluster::run_crdt_paxos(&config, ProtocolConfig::default());
        let delta =
            cluster::run_crdt_paxos(&config, ProtocolConfig::default().with_delta_payloads());
        print_kinds("PayloadMode::Full", &full.wire);
        print_kinds("PayloadMode::DeltaWhenPossible", &delta.wire);
        println!(
            "MERGE bytes saved: {:.1}%  |  total bytes saved: {:.1}%",
            100.0 * wire_reduction(&full.wire, &delta.wire, "MERGE"),
            100.0 * (1.0 - delta.wire.total_bytes() as f64 / full.wire.total_bytes().max(1) as f64)
        );
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sizes_only = args.iter().any(|arg| arg == "--sizes-only");
    let quick = args.iter().any(|arg| arg == "--quick");

    size_report();
    if !sizes_only {
        sim_report(quick);
    }
}
