//! # transport — the TCP transport for networked deployments
//!
//! The protocol cores in this workspace are sans-io; this crate provides the plumbing
//! to run them as real processes: [`tcp`], a tokio-based TCP mesh with
//! length-prefixed [`wire`] framing. Callers encode straight into a peer's outbound
//! buffer ([`tcp::TcpMesh::send_with`]) and get each received `(from, frame)`
//! pair in the sink they bind it with ([`tcp::TcpMesh::bind_with`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcp;

/// A peer address: the numeric id of a replica.
pub type PeerId = u64;

/// Errors produced by transports.
#[derive(Debug)]
pub enum TransportError {
    /// The destination peer is unknown to this transport.
    UnknownPeer(PeerId),
    /// Encoding or decoding a message failed.
    Codec(wire::Error),
    /// The underlying I/O channel failed.
    Io(std::io::Error),
    /// The transport (or its peer) has shut down.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(peer) => write!(f, "unknown peer {peer}"),
            TransportError::Codec(err) => write!(f, "codec error: {err}"),
            TransportError::Io(err) => write!(f, "i/o error: {err}"),
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<wire::Error> for TransportError {
    fn from(err: wire::Error) -> Self {
        TransportError::Codec(err)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(err: std::io::Error) -> Self {
        TransportError::Io(err)
    }
}
