//! # bench — figure harnesses for the paper's evaluation and its extensions
//!
//! One binary per figure (run with `--release`; every one takes `--quick`, a
//! reduced sweep used in CI, and those marked ✓ take `--check`, which exits
//! non-zero unless the figure's acceptance criteria hold).
//!
//! The paper's figures, on the deterministic simulator (`cluster::sim`):
//!
//! * `fig1_throughput` — Figure 1: throughput vs. number of clients for five
//!   read/update mixes and four systems,
//! * `fig2_latency` — Figure 2: read and update 95th-percentile latency vs. clients
//!   at 10 % updates,
//! * `fig3_roundtrips` ✓ — Figure 3: cumulative distribution of round trips per
//!   read, with and without batching (≥ 97 % of batched reads within two round
//!   trips at every client count),
//! * `fig4_failover` — Figure 4: 95th-percentile latency over time with a node
//!   failure, with and without batching,
//! * `all_figures` — runs fig1–fig4 back to back.
//!
//! Extensions beyond the paper:
//!
//! * `fig5_wire_bytes` — bytes on the wire, full vs. delta payloads: exact
//!   per-message sizes (`--sizes-only`, deterministic) and per-kind totals over a
//!   simulated run,
//! * `fig6_sharding` ✓ — simulator: committed throughput vs. 1/2/4/8 shards
//!   against the single-instance baseline (≥ 3× at 8 shards); stdout is
//!   byte-identical run to run,
//! * `fig7_rebalance` ✓ — simulator: throughput through a live 4 → 8 split
//!   (post-split ≥ 2× pre-split, bounded dip, convergence ≤ 1 500 ms, nothing
//!   lost or duplicated); stdout is byte-identical run to run,
//! * `fig8_tcp_vs_baselines` ✓ — real loopback TCP: the engine (`engine::TcpNode`
//!   replicas) vs. the Multi-Paxos and Raft baselines under 64/256/1024/4096
//!   closed-loop client connections (zero lost/duplicated replies at every tier),
//! * `alloc_gate` ✓ — a counting allocator over the inbound and outbound hot
//!   paths: zero allocations per decoded frame, per encoded frame and per full
//!   protocol round, also with observability recording on.
//!
//! None of these produces a performance number anyone may quote: timings —
//! end to end and per layer (CRDT join, wire codec, protocol round, transport,
//! engine) — come from the repo's benchmark (`benchmark/`, its own package).

#![forbid(unsafe_code)]

use cluster::{SimConfig, SimResult};
use crdt_paxos_core::ProtocolConfig;

/// The four systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The paper's protocol without batching.
    CrdtPaxos,
    /// The paper's protocol with 5 ms batches.
    CrdtPaxosBatched,
    /// The Raft baseline (reads through the log).
    Raft,
    /// The Multi-Paxos baseline (leader read leases).
    MultiPaxos,
}

impl System {
    /// All four systems, in the order used by the paper's legends.
    pub const ALL: [System; 4] =
        [System::CrdtPaxos, System::CrdtPaxosBatched, System::Raft, System::MultiPaxos];

    /// Human-readable name matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            System::CrdtPaxos => "CRDT Paxos",
            System::CrdtPaxosBatched => "CRDT Paxos w/batching",
            System::Raft => "Raft",
            System::MultiPaxos => "Multi-Paxos",
        }
    }

    /// Runs one experiment with this system.
    pub fn run(self, config: &SimConfig) -> SimResult {
        match self {
            System::CrdtPaxos => cluster::run_crdt_paxos(config, ProtocolConfig::default()),
            System::CrdtPaxosBatched => cluster::run_crdt_paxos(config, ProtocolConfig::batched()),
            System::Raft => cluster::run_raft(config),
            System::MultiPaxos => cluster::run_multi_paxos(config),
        }
    }
}

/// Common scale parameters for the figure harnesses.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Client counts swept on the x-axis.
    pub client_counts: &'static [u64],
    /// Virtual duration per data point (ms).
    pub duration_ms: u64,
    /// Warm-up excluded from statistics (ms).
    pub warmup_ms: u64,
}

impl Scale {
    /// The full sweep (paper-like shape; runs for a few minutes in release mode).
    pub const FULL: Scale =
        Scale { client_counts: &[1, 8, 64, 256, 1024], duration_ms: 4_000, warmup_ms: 1_000 };

    /// A reduced sweep for CI smoke runs.
    pub const QUICK: Scale = Scale { client_counts: &[8, 64], duration_ms: 1_500, warmup_ms: 500 };

    /// Chooses the scale based on the presence of a `--quick` CLI flag.
    pub fn from_args() -> Scale {
        if std::env::args().any(|arg| arg == "--quick") {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }
}

/// Builds a [`SimConfig`] for one data point.
pub fn experiment_config(clients: u64, read_fraction: f64, scale: &Scale) -> SimConfig {
    SimConfig {
        clients,
        read_fraction,
        duration_ms: scale.duration_ms,
        warmup_ms: scale.warmup_ms,
        seed: 0xBA5E ^ clients.wrapping_mul(31) ^ (read_fraction * 1000.0) as u64,
        ..SimConfig::default()
    }
}

/// Formats a latency in microseconds as milliseconds with two decimals.
pub fn format_ms(latency_us: Option<u64>) -> String {
    match latency_us {
        Some(us) => format!("{:.2}", us as f64 / 1000.0),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper_legend() {
        assert_eq!(System::CrdtPaxos.label(), "CRDT Paxos");
        assert_eq!(System::ALL.len(), 4);
    }

    #[test]
    fn experiment_config_uses_requested_parameters() {
        let config = experiment_config(64, 0.95, &Scale::QUICK);
        assert_eq!(config.clients, 64);
        assert!((config.read_fraction - 0.95).abs() < 1e-12);
        assert_eq!(config.duration_ms, Scale::QUICK.duration_ms);
    }

    #[test]
    fn format_ms_handles_missing_values() {
        assert_eq!(format_ms(None), "-");
        assert_eq!(format_ms(Some(1500)), "1.50");
    }
}
