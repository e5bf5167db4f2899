//! Protocol configuration.

use serde::{Deserialize, Serialize};

/// How state-bearing messages (`MERGE`, `PREPARE`, `VOTE`) carry their payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PayloadMode {
    /// Ship the full CRDT state in every request, exactly as in the paper
    /// (Algorithm 2). Replies ship it too, with one exception that drops state
    /// the proposer holds, as `VOTED` does (§3.6): an acceptor whose state after
    /// joining a `PREPARE`'s payload *is* that payload — every quiet read —
    /// answers with an empty [`crate::Payload::Delta`] against it.
    #[default]
    Full,
    /// Ship a [`crate::Payload::Delta`] when the proposer knows (from a previous
    /// `MERGED`/`ACK`/`NACK` of that peer) a state the receiver is guaranteed to
    /// contain; fall back to the full state on first contact, query retries, and
    /// retransmissions. Acceptors reply in kind: `ACK`s (and vote `NACK`s) are
    /// delta-encoded against the payload of the request they answer, so quiet reads
    /// ship near-empty replies. Cuts bytes-on-the-wire roughly by the ratio of
    /// changed to total state — on the 64-slot counter benchmark well over 50 %.
    DeltaWhenPossible,
}

/// Tunable knobs of the replication protocol.
///
/// The defaults correspond to the base protocol of §3.2 with batching disabled
/// ("CRDT Paxos" in the figures). The optimizations of §3.6 (the proposer's state
/// rides in `PREPARE`, never `s0`) and the incremental-prepare retry of §3.5 are
/// not knobs: the protocol always applies them, and a query retries until it
/// learns, as in the paper.
/// Set [`ProtocolConfig::batch_interval_ms`] ([`ProtocolConfig::batched`]) to
/// obtain the "CRDT Paxos w/ batching" configuration (commands held for 5 ms
/// batches, as in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// *Wait* this many milliseconds for more commands before opening their
    /// instances (§3.6, "Batching"; the paper uses 5 ms). `None`, commands are
    /// proposed as soon as they are submitted — which does not mean one
    /// instance each: commands handed in together
    /// ([`crate::Replica::submit_cycle`]) always share one update and one query
    /// instance, and the parallel engine hands in whatever one pump
    /// cycle drained. Coalescing is unconditional; an interval only adds the
    /// waiting.
    pub batch_interval_ms: Option<u64>,
    /// Remember the largest learned state per proposer and never return anything
    /// smaller, providing GLA-Stability (§3.4).
    pub gla_stability: bool,
    /// Re-send the messages of a pending request if no quorum replied within this
    /// many milliseconds (covers message loss; the paper assumes fair-lossy links).
    pub retransmit_after_ms: u64,
    /// Whether state-bearing messages may carry deltas instead of full states.
    /// Defaults to [`PayloadMode::Full`] (the paper-faithful wire format).
    pub payload_mode: PayloadMode,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            batch_interval_ms: None,
            gla_stability: false,
            retransmit_after_ms: 100,
            payload_mode: PayloadMode::Full,
        }
    }
}

impl ProtocolConfig {
    /// The batched variant with the paper's 5 ms batch interval
    /// ("CRDT Paxos w/ batching").
    pub fn batched() -> Self {
        ProtocolConfig::default().with_batch_interval_ms(5)
    }

    /// Sets the batch interval (turns batching on).
    #[must_use]
    pub fn with_batch_interval_ms(mut self, interval: u64) -> Self {
        self.batch_interval_ms = Some(interval);
        self
    }

    /// Enables GLA-Stability (§3.4).
    #[must_use]
    pub fn with_gla_stability(mut self) -> Self {
        self.gla_stability = true;
        self
    }

    /// Enables delta payloads ([`PayloadMode::DeltaWhenPossible`]).
    #[must_use]
    pub fn with_delta_payloads(mut self) -> Self {
        self.payload_mode = PayloadMode::DeltaWhenPossible;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_base_protocol() {
        let config = ProtocolConfig::default();
        assert_eq!(config.batch_interval_ms, None, "the base protocol does not wait");
        assert!(!config.gla_stability);
        assert_eq!(config.payload_mode, PayloadMode::Full, "paper ships full states");
    }

    #[test]
    fn delta_payloads_builder() {
        let config = ProtocolConfig::default().with_delta_payloads();
        assert_eq!(config.payload_mode, PayloadMode::DeltaWhenPossible);
    }

    #[test]
    fn batched_preset_enables_batching() {
        let config = ProtocolConfig::batched();
        assert_eq!(config.batch_interval_ms, Some(5));
    }

    #[test]
    fn builder_helpers() {
        let config = ProtocolConfig::default().with_batch_interval_ms(10).with_gla_stability();
        assert_eq!(config.batch_interval_ms, Some(10));
        assert!(config.gla_stability);
    }
}
