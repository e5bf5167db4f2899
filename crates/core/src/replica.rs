//! The replica: proposer role, batching, and the local acceptor glued together.
//!
//! Every process implements both the proposer and the acceptor role (§3.2). The
//! [`Replica`] type is a *sans-io* state machine: it never performs I/O, never spawns
//! threads, and never reads a clock. Callers feed it client commands
//! ([`Replica::submit`]), replica messages ([`Replica::handle_message`]) and time
//! ([`Replica::tick`]), and drain the resulting outgoing messages
//! ([`Replica::take_outbox`]) and client responses ([`Replica::take_responses`]).
//! The same state machine is driven by the deterministic simulator, the tokio TCP
//! runtime, the parallel `engine` executor (via
//! [`ShardCore`](crate::ShardCore)), and the unit tests.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crdt::{Crdt, ReplicaId};

use crate::acceptor::{AcceptOutcome, Acceptor};
use crate::config::{PayloadMode, ProtocolConfig};
use crate::membership::Membership;
use crate::metrics::Metrics;
use crate::msg::{
    ClientId, ClientResponse, Command, CommandId, Envelope, Message, Payload, RequestId,
    ResponseBody,
};
use crate::round::{PrepareRound, Round, RoundId};

/// A client command waiting for an update round to complete.
#[derive(Debug, Clone)]
struct UpdateWaiter {
    client: ClientId,
    command: CommandId,
}

/// A client query waiting for a state to be learned.
#[derive(Debug, Clone)]
struct QueryWaiter<C: Crdt> {
    client: ClientId,
    command: CommandId,
    query: C::Query,
}

/// A small set of replica ids backed by a `Vec`.
///
/// Quorum acknowledgement sets never exceed the group size (single digits in every
/// deployment this repo models), where a linear scan beats a B-tree's per-node
/// allocations — and unlike a B-tree, a `Vec` keeps its buffer across `clear()`, so
/// the replica recycles these through a pool instead of allocating one per protocol
/// instance (see `Replica::alloc_ack_set`).
#[derive(Debug, Clone, Default)]
struct AckSet(Vec<ReplicaId>);

impl AckSet {
    /// Adds `id` if absent.
    fn insert(&mut self, id: ReplicaId) {
        if !self.contains(&id) {
            self.0.push(id);
        }
    }

    fn contains(&self, id: &ReplicaId) -> bool {
        self.0.contains(id)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The first-phase acknowledgement map `(peer, round, state, owned)`, `Vec`-backed
/// and pooled for the same reason as [`AckSet`]. `owned` says the state is the
/// entry's own — decoded from a full reply — and may be retired into the state
/// pool when the instance ends; the local acceptor's snapshot and a state
/// resolved from a delta share their allocation with another holder.
#[derive(Debug, Clone, Default)]
struct PrepareAcks<C>(Vec<(ReplicaId, Round, C, bool)>);

impl<C> PrepareAcks<C> {
    /// Inserts or replaces the entry for `peer` (a retransmitted `ACK` supersedes
    /// the earlier one, matching map semantics); returns whether it replaced one.
    fn insert(&mut self, peer: ReplicaId, round: Round, state: C, owned: bool) -> bool {
        match self.0.iter_mut().find(|(id, ..)| *id == peer) {
            Some(entry) => {
                *entry = (peer, round, state, owned);
                true
            }
            None => {
                self.0.push((peer, round, state, owned));
                false
            }
        }
    }

    fn contains(&self, peer: &ReplicaId) -> bool {
        self.0.iter().any(|(id, ..)| id == peer)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Every entry as `(peer, round, state)`.
    fn iter(&self) -> impl Iterator<Item = (&ReplicaId, &Round, &C)> {
        self.0.iter().map(|(peer, round, state, _)| (peer, round, state))
    }
}

/// What a first phase's `ACK`s showed as they were joined into the query's
/// `gathered` state one by one ([`Lattice::join_report`]), so that deciding the
/// phase walks no state again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agreement {
    /// `gathered` is the LUB of the `ACK`s' states, and every one of them equals it.
    Consistent,
    /// `gathered` is the LUB of the `ACK`s' states, and some of them are below it.
    Split,
    /// `gathered` may exceed the LUB of the `ACK`s' states — a peer's `ACK` was
    /// replaced by a later one, or the local acceptor `NACK`ed a fixed prepare
    /// and its state was joined in — so the decision folds the stored states.
    Unknown,
}

/// Phase of an in-flight query protocol instance.
#[derive(Debug, Clone)]
enum QueryPhase<C: Crdt> {
    /// First phase: waiting for `ACK`s from a quorum. `agreement` is what the
    /// `ACK`s so far say of the LUB they were joined into (`gathered`): the local
    /// `ACK` makes `gathered` the local acceptor's state, and each remote one costs
    /// one [`Lattice::join_report`].
    Prepare {
        round: PrepareRound,
        sent_state: Option<C>,
        acks: PrepareAcks<C>,
        agreement: Agreement,
    },
    /// Second phase: waiting for `VOTED`s from a quorum.
    Vote { round: Round, proposed: C, acks: AckSet },
}

/// An in-flight protocol instance at the proposer.
#[derive(Debug, Clone)]
enum InFlight<C: Crdt> {
    Update {
        waiters: Vec<UpdateWaiter>,
        merged_state: C,
        acks: AckSet,
        round_trips: u32,
        last_sent_ms: u64,
    },
    Query {
        waiters: Vec<QueryWaiter<C>>,
        phase: QueryPhase<C>,
        /// LUB of every payload state received for this query so far; used as the
        /// payload of retry prepares (§3.2, "Retrying Requests"). While the first
        /// phase runs it is the LUB of its `ACK`s' states, unless [`Agreement`]
        /// says otherwise.
        gathered: C,
        /// Basis snapshots `(peer, reveal seq)` echoed by this request's messages;
        /// each holds a reference that pins the snapshot in [`PeerBasis`] until the
        /// request ends (delta mode only).
        echoes: Vec<(ReplicaId, u64)>,
        /// The update instance of the same cycle that sent no `MERGE`: this
        /// query's first `PREPARE` carries its snapshot, and every `ACK` or
        /// `NACK` a peer sends under this request id counts the peer toward that
        /// update's quorum (see [`Replica::flush_batches`]). A retry runs under
        /// a fresh id and carries no link.
        ride: Option<RequestId>,
        round_trips: u32,
        last_sent_ms: u64,
    },
}

/// Seq-pinned exact snapshots of one peer's acceptor state, learned from that peer's
/// reconstructed `ACK` replies (proposer side of the reply-delta handshake).
///
/// The newest snapshot's sequence number is echoed as the `basis` of outgoing
/// `PREPARE`/`VOTE` messages; the peer may then diff its reply against the snapshot.
/// Snapshots stay pinned while any in-flight request echoes them, so a delta reply
/// for a live request can always be reconstructed — replies for dead requests are
/// stale and dropped.
#[derive(Debug, Clone)]
struct PeerBasis<C> {
    latest: u64,
    states: BTreeMap<u64, BasisSlot<C>>,
}

#[derive(Debug, Clone)]
struct BasisSlot<C> {
    state: C,
    refs: u32,
}

impl<C> PeerBasis<C> {
    fn new() -> Self {
        PeerBasis { latest: 0, states: BTreeMap::new() }
    }
}

/// One replica of the CRDT Paxos protocol (proposer + acceptor).
///
/// # Example
///
/// Three replicas completing an update and a consistent read by explicitly shuttling
/// messages (what the simulator and runtimes do automatically):
///
/// ```
/// use crdt::{CounterQuery, CounterUpdate, GCounter, ReplicaId};
/// use crdt_paxos_core::{Command, ProtocolConfig, Replica, ResponseBody};
///
/// let ids: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
/// let mut replicas: Vec<Replica<GCounter>> = ids
///     .iter()
///     .map(|&id| Replica::new(id, ids.clone(), GCounter::default(), ProtocolConfig::default()))
///     .collect();
///
/// // Client 0 submits an increment to replica 0.
/// replicas[0].submit(crdt_paxos_core::ClientId(0), Command::Update(CounterUpdate::Increment(1)));
///
/// // Deliver all produced messages until quiescence.
/// loop {
///     let mut envelopes = Vec::new();
///     for replica in &mut replicas {
///         envelopes.extend(replica.take_outbox());
///     }
///     if envelopes.is_empty() {
///         break;
///     }
///     for env in envelopes {
///         let to = env.to.as_u64() as usize;
///         replicas[to].handle_message(env.from, env.message);
///     }
/// }
/// let responses = replicas[0].take_responses();
/// assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
/// ```
#[derive(Debug)]
pub struct Replica<C: Crdt> {
    id: ReplicaId,
    membership: Membership<ReplicaId>,
    /// All members except `id`, cached so the broadcast and retransmission fan-out
    /// paths do not re-collect a fresh `Vec` per message (hot-path allocation).
    others: Vec<ReplicaId>,
    quorum_size: usize,
    acceptor: Acceptor<C>,
    /// The bottom state, built once: `begin_prepare` compares against it per query
    /// (§3.6: never ship `s0`), and a fresh `C::default()` may allocate.
    bottom: C,
    config: ProtocolConfig,
    metrics: Metrics,
    now_ms: u64,
    next_request: u64,
    next_round_seq: u64,
    next_command: u64,
    requests: BTreeMap<RequestId, InFlight<C>>,
    outbox: Vec<Envelope<C>>,
    responses: Vec<ClientResponse<C>>,
    /// Largest state ever learned by this proposer; kept only under
    /// [`ProtocolConfig::gla_stability`] (§3.4), its one reader.
    largest_learned: Option<C>,
    /// Per peer, the largest state the peer is *known* to contain, learned from its
    /// `MERGED`/`ACK`/`NACK` replies. Only maintained (and only paid for) in
    /// [`PayloadMode::DeltaWhenPossible`]; it is what makes delta payloads safe:
    /// a delta against this state lands on an acceptor that contains its baseline.
    peer_known: BTreeMap<ReplicaId, C>,
    /// Completed update instances some peers have not acknowledged yet (an update
    /// finishes at quorum, not at full coverage). Kept — bounded — so late `MERGED`
    /// replies still teach us the slow peer's state. Delta mode only.
    recent_merges: BTreeMap<RequestId, (C, BTreeSet<ReplicaId>)>,
    /// Acceptor side of the reply-delta handshake: a bounded ring of payload-state
    /// snapshots this replica revealed in `ACK`s, keyed by reveal sequence number.
    /// A request echoing one of these lets the reply ship a delta instead of the
    /// full state. Delta mode only.
    reveals: VecDeque<(u64, C)>,
    next_reveal: u64,
    /// Proposer side of the reply-delta handshake: per peer, exact snapshots of the
    /// peer's acceptor state (see [`PeerBasis`]). Delta mode only.
    basis: BTreeMap<ReplicaId, PeerBasis<C>>,
    /// Prepare payloads of recently completed query instances (a query finishes at
    /// quorum, so the slowest acceptors' `ACK`s arrive late). Kept — bounded — so
    /// late delta-encoded ACKs remain reconstructible and still teach us the slow
    /// peer's state. Delta mode only.
    recent_prepares: BTreeMap<RequestId, C>,
    update_batch: Vec<(UpdateWaiter, C::Update)>,
    query_batch: Vec<QueryWaiter<C>>,
    next_flush_ms: u64,
    /// Recycled acknowledgement-set buffers ([`AckSet`]) — protocol instances are
    /// created and retired at workload rate, so their small `Vec`s are pooled
    /// instead of allocated per instance.
    ack_pool: Vec<Vec<ReplicaId>>,
    /// Recycled first-phase acknowledgement buffers ([`PrepareAcks`]).
    prepare_pool: Vec<Vec<(ReplicaId, Round, C, bool)>>,
    /// Recycled waiter lists of finished update instances: a list keeps the
    /// capacity of the largest cycle it has carried.
    update_waiter_pool: Vec<Vec<UpdateWaiter>>,
    /// Recycled waiter lists of finished query instances.
    query_waiter_pool: Vec<Vec<QueryWaiter<C>>>,
    /// Peer states that finished instances no longer need, at most
    /// [`Replica::STATE_POOL_CAP`] of them. A decoded `ACK`/`NACK` gives its state
    /// to the proposer and gets one of these back ([`Replica::take_reply_state`]),
    /// so the next reply of that kind is decoded over a populated state instead of
    /// building one. Full mode only.
    state_pool: Vec<C>,
}

/// Client commands reclaimed from a replica by [`Replica::cancel_in_flight`].
///
/// The split matters for exactly-once semantics when the caller re-homes the work
/// onto another protocol instance (dynamic resharding's cutover):
///
/// * applied updates must **not** be re-submitted — their update functions already
///   grew the local acceptor state (and were consumed doing so), so re-homing them
///   means replicating that state via [`Replica::submit_resync`] on the new owner;
/// * unapplied updates and queries carry no local effect yet; their command
///   payloads are handed back so the caller can re-submit them verbatim.
#[derive(Debug)]
pub struct CancelledWork<C: Crdt> {
    /// Update commands whose update functions were already applied to the local
    /// acceptor state (their instance was in flight).
    pub applied_updates: Vec<(ClientId, CommandId)>,
    /// Update commands still sitting in an unflushed batch, applied nowhere.
    pub unapplied_updates: Vec<(ClientId, CommandId, C::Update)>,
    /// Query commands, in flight or batched.
    pub queries: Vec<(ClientId, CommandId, C::Query)>,
}

impl<C: Crdt> Default for CancelledWork<C> {
    fn default() -> Self {
        CancelledWork {
            applied_updates: Vec::new(),
            unapplied_updates: Vec::new(),
            queries: Vec::new(),
        }
    }
}

impl<C: Crdt> CancelledWork<C> {
    /// Returns `true` if nothing was in flight or batched.
    pub fn is_empty(&self) -> bool {
        self.applied_updates.is_empty()
            && self.unapplied_updates.is_empty()
            && self.queries.is_empty()
    }
}

impl<C: Crdt> Replica<C> {
    /// Creates a replica.
    ///
    /// `members` is the full replica group (must contain `id`); `initial` is the
    /// CRDT's initial payload `s0`.
    ///
    /// # Panics
    ///
    /// Panics if `members` does not contain `id`.
    pub fn new(id: ReplicaId, members: Vec<ReplicaId>, initial: C, config: ProtocolConfig) -> Self {
        let membership = Membership::new(members);
        assert!(membership.contains(&id), "replica {id} must be part of the membership");
        let quorum_size = membership.quorum_size();
        let batch_interval = config.batch_interval_ms.unwrap_or(0);
        // Stagger the first batch flush across replicas so their batch windows do not
        // all fire at the same instant (synchronized batches would make every query
        // batch collide with every other replica's update batch).
        let position = membership.members().iter().position(|m| *m == id).unwrap_or(0) as u64;
        let flush_offset = if membership.len() > 1 {
            position * batch_interval.max(1) / membership.len() as u64
        } else {
            0
        };
        let others: Vec<ReplicaId> = membership.others(id).collect();
        Replica {
            id,
            membership,
            others,
            quorum_size,
            acceptor: Acceptor::new(id, initial),
            bottom: C::default(),
            config,
            metrics: Metrics::default(),
            now_ms: 0,
            next_request: 0,
            next_round_seq: 0,
            next_command: 0,
            requests: BTreeMap::new(),
            outbox: Vec::new(),
            responses: Vec::new(),
            largest_learned: None,
            peer_known: BTreeMap::new(),
            recent_merges: BTreeMap::new(),
            reveals: VecDeque::new(),
            next_reveal: 1,
            basis: BTreeMap::new(),
            recent_prepares: BTreeMap::new(),
            update_batch: Vec::new(),
            query_batch: Vec::new(),
            next_flush_ms: batch_interval + flush_offset,
            ack_pool: Vec::new(),
            prepare_pool: Vec::new(),
            update_waiter_pool: Vec::new(),
            query_waiter_pool: Vec::new(),
            state_pool: Vec::new(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The replica group.
    pub fn membership(&self) -> &Membership<ReplicaId> {
        &self.membership
    }

    /// The local acceptor's payload state (useful for tests and observability; reads
    /// that need linearizability must go through [`Replica::submit`]).
    pub fn local_state(&self) -> &C {
        self.acceptor.state()
    }

    /// Proposer metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of protocol instances currently in flight.
    pub fn in_flight(&self) -> usize {
        self.requests.len()
    }

    /// Protocol instances this proposer has opened so far. A retried read runs
    /// under a fresh request id and counts again — it sends a fresh `PREPARE` to
    /// every peer, which is what an instance costs. Commands answered
    /// ([`Replica::take_responses`]) over this is the commands-per-instance
    /// ratio.
    pub fn instances_opened(&self) -> u64 {
        self.next_request
    }

    /// The largest state `peer` is known to contain (delta-payload tracking).
    ///
    /// Always `None` in [`PayloadMode::Full`], where the tracking is disabled.
    pub fn known_peer_state(&self, peer: ReplicaId) -> Option<&C> {
        self.peer_known.get(&peer)
    }

    /// Submits a client command and returns the id used to correlate the response.
    ///
    /// The command opens its protocol instance at once unless
    /// [`ProtocolConfig::batch_interval_ms`] is set, in which case it waits for
    /// the flush tick. A cycle of one: see [`Replica::submit_cycle`].
    pub fn submit(&mut self, client: ClientId, command: Command<C>) -> CommandId {
        let command_id = self.enqueue(client, command);
        self.end_cycle();
        command_id
    }

    /// Submits every given command as one cycle and returns their ids, in order.
    ///
    /// This is the batching of §3.6 without the wait: every update function is
    /// applied and **one** update instance replicates the result, then **one**
    /// query instance learns a state for all the reads and each read is
    /// evaluated on it. A cycle of writes alone sends one `MERGE` per peer and a
    /// cycle of reads alone one `PREPARE` per peer; a cycle with both sends only
    /// the `PREPARE`s, which carry the writes, and every reply to one counts
    /// toward the update's quorum as the `MERGED` it stands in for would. A
    /// driver that drained several commands together hands them in together;
    /// how many there are is the driver's observation, not a setting. With
    /// [`ProtocolConfig::batch_interval_ms`] set the commands join the timed
    /// batch instead, exactly as [`Replica::submit`]'s would.
    pub fn submit_cycle(
        &mut self,
        commands: impl IntoIterator<Item = (ClientId, Command<C>)>,
    ) -> Vec<CommandId> {
        let ids =
            commands.into_iter().map(|(client, command)| self.enqueue(client, command)).collect();
        self.end_cycle();
        ids
    }

    /// Buffers one command of the cycle being submitted; [`Replica::end_cycle`]
    /// must follow.
    pub(crate) fn enqueue(&mut self, client: ClientId, command: Command<C>) -> CommandId {
        let command_id = CommandId(self.next_command);
        self.next_command += 1;
        match command {
            Command::Update(update) => {
                self.update_batch.push((UpdateWaiter { client, command: command_id }, update));
            }
            Command::Query(query) => {
                self.query_batch.push(QueryWaiter { client, command: command_id, query });
            }
        }
        command_id
    }

    /// Opens the instances of the commands buffered since the last flush — unless
    /// timed batching is on, which means: wait for more until the flush tick.
    pub(crate) fn end_cycle(&mut self) {
        if self.config.batch_interval_ms.is_none() {
            self.flush_batches();
        }
    }

    /// Convenience wrapper for [`Replica::submit`] with an update command.
    pub fn submit_update(&mut self, client: ClientId, update: C::Update) -> CommandId {
        self.submit(client, Command::Update(update))
    }

    /// Convenience wrapper for [`Replica::submit`] with a query command.
    pub fn submit_query(&mut self, client: ClientId, query: C::Query) -> CommandId {
        self.submit(client, Command::Query(query))
    }

    /// Handles a protocol message from another replica.
    ///
    /// Messages from processes outside the membership are dropped: they neither
    /// count toward a quorum nor reach the acceptor.
    pub fn handle_message(&mut self, from: ReplicaId, message: Message<C>) {
        let mut message = message;
        self.handle_message_mut(from, &mut message);
    }

    /// [`Replica::handle_message`] over a borrowed message.
    ///
    /// This is the allocation-free entry point for the inbound hot path: a
    /// worker decodes each frame into a long-lived message of the same kind
    /// (reusing its resident allocations) and hands it in by reference. The
    /// accepting arms (`Merge`, `Prepare`, `Vote`) only read the payload, so
    /// the resident survives intact for the next frame, and so do the
    /// reply-resolution arms (`PrepareAck`, `Nack`) for a delta, which they
    /// join into a baseline the proposer holds. A full reply's state they
    /// genuinely consume, and trade it for one a finished instance has retired
    /// (`Replica::take_reply_state`), so the next reply finds a populated
    /// state to overwrite as well.
    pub fn handle_message_mut(&mut self, from: ReplicaId, message: &mut Message<C>) {
        if !self.membership.contains(&from) {
            return;
        }
        match message {
            Message::Merge { request, payload } => {
                let request = *request;
                self.acceptor.handle_merge(payload);
                self.send(from, Message::MergeAck { request });
            }
            Message::MergeAck { request } => self.handle_merge_ack(from, *request),
            Message::Prepare { request, round, payload, basis } => {
                let (request, round, basis) = (*request, *round, *basis);
                let (outcome, covered) = self.acceptor.handle_prepare(round, payload.as_ref());
                let reply = match outcome {
                    // The acceptor's state is the payload the proposer sent and
                    // keeps (`sent_state`): an empty delta against it says so.
                    AcceptOutcome::Ack { round } if covered && !self.delta_payloads_enabled() => {
                        let state = Payload::Delta(self.bottom.clone());
                        Message::PrepareAck { request, round, state, reveal: 0, basis: 0 }
                    }
                    AcceptOutcome::Ack { round } => {
                        let state = self.acceptor.state().clone();
                        let (state, reveal, used) =
                            self.build_reply(state, payload.as_ref(), basis, true);
                        Message::PrepareAck { request, round, state, reveal, basis: used }
                    }
                    // Prepare rejections reply with the full state: by the time the
                    // NACK arrives the proposer may have moved to the vote phase,
                    // where the prepare payload is no longer a reconstruction
                    // baseline it holds.
                    AcceptOutcome::Nack { round } => {
                        let state = self.acceptor.state().clone();
                        Message::Nack { request, round, state: Payload::Full(state), basis: 0 }
                    }
                };
                self.send(from, reply);
            }
            Message::Vote { request, round, payload, basis } => {
                let (request, round, basis) = (*request, *round, *basis);
                let outcome = self.acceptor.handle_vote(round, payload);
                let reply = match outcome {
                    // The §3.6 optimization pays off here: a `VOTED` carries no
                    // state, so the acceptor's (possibly large) payload is not
                    // cloned at all on the accepting hot path.
                    AcceptOutcome::Ack { .. } => Message::VoteAck { request },
                    AcceptOutcome::Nack { round } => {
                        let state = self.acceptor.state().clone();
                        let (state, _, used) =
                            self.build_reply(state, Some(&*payload), basis, false);
                        Message::Nack { request, round, state, basis: used }
                    }
                };
                self.send(from, reply);
            }
            Message::VoteAck { request } => self.handle_vote_ack(from, *request),
            Message::PrepareAck { request, round, state, reveal, basis } => {
                let (request, round, reveal, basis) = (*request, *round, *reveal, *basis);
                self.count_ride(from, request);
                // Resolve the reply payload to the acceptor's exact state. Full
                // replies teach the proposer the peer's lower bound even when
                // the request is no longer in flight; delta replies need the
                // in-flight request's baselines, so stale ones are dropped.
                let Some((state, owned)) =
                    self.resolve_prepare_reply(from, request, state, reveal, basis)
                else {
                    return;
                };
                self.note_peer_state(from, &state);
                self.handle_prepare_ack(from, request, round, state, owned);
            }
            Message::Nack { request, round, state, basis } => {
                let (request, round, basis) = (*request, *round, *basis);
                self.count_ride(from, request);
                let Some(state) = self.resolve_nack_reply(from, request, state, basis) else {
                    return;
                };
                self.note_peer_state(from, &state);
                self.handle_nack(request, round, state);
            }
        }
    }

    /// Whether a state-bearing reply (`ACK` or `NACK`) to `request` can still have
    /// an effect on this replica — the question a driver asks *before* it pays for
    /// decoding one. In [`PayloadMode::Full`] a reply to an instance that is no
    /// longer in flight changes nothing (with a three-replica quorum of two that
    /// is the second `ACK` of every quiet read): the proposer keeps no per-peer
    /// knowledge to update and [`Replica::handle_message_mut`] would drop it
    /// after resolving it. In [`PayloadMode::DeltaWhenPossible`] every reply is
    /// wanted: a late full reply still teaches this proposer what the peer holds
    /// and installs a basis snapshot.
    ///
    /// A reply to a query whose `PREPARE` carried its cycle's writes also counts
    /// toward their update instance; that changes nothing here, because the
    /// update reaches its quorum no later than the query's first phase does.
    ///
    /// Skipping an unwanted reply changes no counter either:
    /// [`Metrics::nacks_received`] counts only `NACK`s that reach a query still
    /// in flight, so an executor that skips late replies and one that delivers
    /// them count the same.
    pub fn wants_reply(&self, request: RequestId) -> bool {
        self.delta_payloads_enabled() || self.requests.contains_key(&request)
    }

    /// Advances the replica's notion of time, flushing batches and retransmitting
    /// stalled requests.
    pub fn tick(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        if let Some(interval) = self.config.batch_interval_ms {
            if self.now_ms >= self.next_flush_ms {
                self.flush_batches();
                self.next_flush_ms = self.now_ms + interval;
            }
        }
        self.retransmit_stalled();
    }

    /// Drains the messages produced since the last call.
    pub fn take_outbox(&mut self) -> Vec<Envelope<C>> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains the messages produced since the last call into `sink`, preserving
    /// both buffers' capacity.
    ///
    /// Unlike [`Replica::take_outbox`] — which surrenders the outbox buffer to the
    /// caller and re-grows a fresh one on the next send — this keeps the internal
    /// buffer's allocation alive and appends into a caller-owned buffer, so a
    /// driver polling the replica in a loop performs no per-cycle envelope
    /// allocations once both buffers reach their high-water mark.
    pub fn drain_outbox_into(&mut self, sink: &mut Vec<Envelope<C>>) {
        sink.append(&mut self.outbox);
    }

    /// Joins `state` directly into the local acceptor's payload, as a `MERGE`
    /// carrying it would (see [`Acceptor::absorb`]).
    ///
    /// This is the lattice-join state handoff of dynamic resharding: the sharded
    /// engine grafts a moved key range into the destination instance's acceptor
    /// before any post-rebalance traffic reaches it. Quorum intersection then
    /// guarantees new-epoch reads observe every old-epoch committed update: a
    /// committed update was joined by a quorum of source acceptors, each of which
    /// absorbs its own copy into the destination before serving the new epoch.
    pub fn absorb_state(&mut self, state: &C) {
        self.acceptor.absorb(state);
    }

    /// Starts one update instance that replicates the acceptor's **current** state
    /// to a quorum without applying any new update function, answering
    /// `UpdateDone` to each given client once the state is stored. Returns one
    /// command id per client, in order.
    ///
    /// This is the durability half of a state handoff: update commands cut over
    /// mid-flight by a rebalance already grew the local state (re-submitting their
    /// update functions would double-apply), so they complete exactly once by
    /// replicating that state as-is on the key's new owner instance. An empty
    /// client list is allowed — the resulting waiterless instance is used to push
    /// freshly handed-off ranges to a quorum ahead of client traffic.
    pub fn submit_resync(&mut self, clients: &[ClientId]) -> Vec<CommandId> {
        let mut waiters = Vec::with_capacity(clients.len());
        let mut ids = Vec::with_capacity(clients.len());
        for &client in clients {
            let command = CommandId(self.next_command);
            self.next_command += 1;
            ids.push(command);
            waiters.push(UpdateWaiter { client, command });
        }
        self.launch_update(waiters, true);
        ids
    }

    /// Cancels every in-flight protocol instance and unflushed batch, returning
    /// the client commands that were riding on them (see [`CancelledWork`] for the
    /// exactly-once re-homing contract).
    ///
    /// Replies to the cancelled instances arriving later are dropped by their
    /// stale request ids. The acceptor state is untouched: cancellation abandons
    /// coordination, not data.
    pub fn cancel_in_flight(&mut self) -> CancelledWork<C> {
        let mut work = CancelledWork::default();
        let ids: Vec<RequestId> = self.requests.keys().copied().collect();
        for request in ids {
            match self.remove_request(request) {
                Some(InFlight::Update { waiters, .. }) => {
                    work.applied_updates.extend(waiters.into_iter().map(|w| (w.client, w.command)))
                }
                Some(InFlight::Query { waiters, .. }) => {
                    work.queries
                        .extend(waiters.into_iter().map(|w| (w.client, w.command, w.query)));
                }
                None => {}
            }
        }
        for (waiter, update) in self.update_batch.drain(..) {
            work.unapplied_updates.push((waiter.client, waiter.command, update));
        }
        for waiter in self.query_batch.drain(..) {
            work.queries.push((waiter.client, waiter.command, waiter.query));
        }
        work
    }

    /// Drains the client responses produced since the last call.
    pub fn take_responses(&mut self) -> Vec<ClientResponse<C>> {
        std::mem::take(&mut self.responses)
    }

    /// Drains the client responses produced since the last call into `sink`,
    /// preserving both buffers' capacity (what [`Replica::drain_outbox_into`] is
    /// to [`Replica::take_outbox`]), for the shard core's pump.
    pub(crate) fn drain_responses_into(&mut self, sink: &mut Vec<ClientResponse<C>>) {
        sink.append(&mut self.responses);
    }

    // ----- internals -------------------------------------------------------------

    fn send(&mut self, to: ReplicaId, message: Message<C>) {
        self.outbox.push(Envelope { from: self.id, to, message });
    }

    /// Sends the same message to every peer; the last envelope takes ownership of
    /// the message instead of cloning it (one payload clone saved per broadcast).
    fn broadcast(&mut self, message: Message<C>) {
        let Some((&last, rest)) = self.others.split_last() else { return };
        for &peer in rest {
            self.outbox.push(Envelope { from: self.id, to: peer, message: message.clone() });
        }
        self.outbox.push(Envelope { from: self.id, to: last, message });
    }

    /// Records that `peer` is known to contain (at least) `state`.
    ///
    /// Only active in [`PayloadMode::DeltaWhenPossible`]; the paper-faithful full
    /// mode pays neither the memory nor the join.
    fn note_peer_state(&mut self, peer: ReplicaId, state: &C) {
        if self.config.payload_mode != PayloadMode::DeltaWhenPossible || peer == self.id {
            return;
        }
        Self::note_peer(&mut self.peer_known, peer, state);
    }

    /// [`Replica::note_peer_state`] without the config/id guards, callable while
    /// another field of `self` (e.g. `requests`) is mutably borrowed.
    fn note_peer(peer_known: &mut BTreeMap<ReplicaId, C>, peer: ReplicaId, state: &C) {
        match peer_known.get_mut(&peer) {
            Some(known) => known.join(state),
            None => {
                peer_known.insert(peer, state.clone());
            }
        }
    }

    /// Builds the payload to ship `state` to `peer`: a delta when the peer is known
    /// to contain a baseline, the full state otherwise (first contact).
    fn payload_for(&self, peer: ReplicaId, state: &C) -> Payload<C> {
        match self.peer_known.get(&peer) {
            Some(known) => Payload::Delta(state.delta_since(known)),
            None => Payload::Full(state.clone()),
        }
    }

    /// Whether outgoing payloads to peers may be deltas right now.
    fn delta_payloads_enabled(&self) -> bool {
        self.config.payload_mode == PayloadMode::DeltaWhenPossible
    }

    /// How many revealed-state snapshots the acceptor side remembers for the
    /// reply-delta handshake.
    const REVEAL_RING_CAP: usize = 16;

    /// Builds the state payload of an `ACK` (or vote `NACK`) reply, plus the reveal
    /// and used-basis sequence numbers to ship with it.
    ///
    /// The delta baseline is the *exact* state the proposer provably holds for this
    /// request: the content of the request's own payload (the proposer stored the
    /// full state it shipped as `sent_state` / `proposed`), joined with the revealed
    /// snapshot whose sequence number the request echoed (the proposer pins echoed
    /// snapshots for as long as the request is in flight). Exactness — not merely a
    /// lower bound — is required because the proposer's consistent-quorum check
    /// compares acceptor states for equality; baselines tracked cumulatively across
    /// requests would drift under message loss and reordering and are deliberately
    /// not used. `reveal` is `true` for `ACK`s, which advertise the replied state as
    /// a future baseline; `NACK`s carry no reveal slot.
    ///
    /// In full mode the state ships whole; a full-mode `ACK` whose state is its
    /// `PREPARE`'s payload does not get here (see `handle_message_mut`).
    fn build_reply(
        &mut self,
        state: C,
        request_payload: Option<&Payload<C>>,
        echoed: u64,
        reveal: bool,
    ) -> (Payload<C>, u64, u64) {
        if !self.delta_payloads_enabled() {
            return (Payload::Full(state), 0, 0);
        }
        let snapshot = if echoed != 0 {
            self.reveals.iter().find(|(seq, _)| *seq == echoed).map(|(_, s)| s)
        } else {
            None
        };
        let used = if snapshot.is_some() { echoed } else { 0 };
        let mut baseline: Option<C> = snapshot.cloned();
        if let Some(content) = request_payload.map(Payload::content) {
            match &mut baseline {
                Some(base) => base.join(content),
                None => baseline = Some(content.clone()),
            }
        }
        let reveal_seq = if reveal {
            let seq = self.next_reveal;
            self.next_reveal += 1;
            if self.reveals.len() >= Self::REVEAL_RING_CAP {
                self.reveals.pop_front();
            }
            self.reveals.push_back((seq, state.clone()));
            seq
        } else {
            0
        };
        let payload = match baseline {
            Some(base) => Payload::Delta(state.delta_since(&base)),
            None => Payload::Full(state),
        };
        (payload, reveal_seq, used)
    }

    /// Resolves an `ACK`'s state payload to the acceptor's exact state: full replies
    /// resolve directly, delta replies join on top of the prepare payload stored
    /// with the in-flight request and the pinned basis snapshot the reply names. A
    /// delta reply whose baselines are gone (the request completed or was retried
    /// under a fresh id) is stale and unreconstructible; `None` tells the caller to
    /// drop it. Reconstructed (and full) replies install the revealed state as the
    /// peer's newest basis snapshot.
    ///
    /// A full reply's state is taken out of the message ([`Replica::take_reply_state`])
    /// and comes back owned (`true`); a delta is read where it lies, so the message
    /// stays a decode target of the delta's shape, and the state it resolves to
    /// shares its baseline's allocation (`false`: it must never be pooled). The
    /// empty delta of a full-mode quiet read resolves to `sent_state` itself.
    fn resolve_prepare_reply(
        &mut self,
        from: ReplicaId,
        request: RequestId,
        state: &mut Payload<C>,
        reveal: u64,
        basis: u64,
    ) -> Option<(C, bool)> {
        let resolved = match state {
            Payload::Full(state) => Some((self.take_reply_state(state), true)),
            Payload::Delta(delta) => {
                let sent = match self.requests.get(&request) {
                    Some(InFlight::Query {
                        phase: QueryPhase::Prepare { sent_state, .. }, ..
                    }) => sent_state.clone(),
                    Some(_) => return None,
                    // The request already completed: a late ACK is still
                    // reconstructible against the remembered prepare payload.
                    None => Some(self.recent_prepares.get(&request)?.clone()),
                };
                let snapshot = if basis != 0 {
                    match self.basis_snapshot(from, basis) {
                        Some(snapshot) => Some(snapshot.clone()),
                        None => return None,
                    }
                } else {
                    None
                };
                let mut base = match (sent, snapshot) {
                    (Some(mut sent), Some(snapshot)) => {
                        sent.join(&snapshot);
                        sent
                    }
                    (Some(sent), None) => sent,
                    (None, Some(snapshot)) => snapshot,
                    // The acceptor only delta-encodes against a baseline; a delta
                    // reply to a payload-less, basis-less request is malformed.
                    (None, None) => return None,
                };
                base.join(delta);
                Some((base, false))
            }
        };
        if reveal != 0 {
            if let Some((state, _)) = &resolved {
                self.install_basis(from, reveal, state.clone());
            }
        }
        resolved
    }

    /// [`Replica::resolve_prepare_reply`] for `NACK`s: delta-encoded NACKs only
    /// answer votes in delta mode, so the baseline is the in-flight proposal (plus
    /// the named basis snapshot), and nothing is pooled in that mode.
    fn resolve_nack_reply(
        &mut self,
        from: ReplicaId,
        request: RequestId,
        state: &mut Payload<C>,
        basis: u64,
    ) -> Option<C> {
        match state {
            Payload::Full(state) => Some(self.take_reply_state(state)),
            Payload::Delta(delta) => {
                let mut base = match self.requests.get(&request) {
                    Some(InFlight::Query { phase: QueryPhase::Vote { proposed, .. }, .. }) => {
                        proposed.clone()
                    }
                    _ => return None,
                };
                if basis != 0 {
                    match self.basis_snapshot(from, basis) {
                        Some(snapshot) => base.join(snapshot),
                        None => return None,
                    }
                }
                base.join(delta);
                Some(base)
            }
        }
    }

    // ----- basis snapshot bookkeeping (proposer side of the reply handshake) -----

    /// The pinned snapshot of `peer`'s state revealed under `seq`, if still held.
    fn basis_snapshot(&self, peer: ReplicaId, seq: u64) -> Option<&C> {
        self.basis.get(&peer)?.states.get(&seq).map(|slot| &slot.state)
    }

    /// Installs `state` as `peer`'s newest revealed snapshot (ignoring stale
    /// reveals) and evicts the previous newest if nothing references it anymore.
    fn install_basis(&mut self, peer: ReplicaId, seq: u64, state: C) {
        let entry = self.basis.entry(peer).or_insert_with(PeerBasis::new);
        if seq <= entry.latest {
            return;
        }
        let previous = entry.latest;
        entry.latest = seq;
        entry.states.insert(seq, BasisSlot { state, refs: 0 });
        if previous != 0 {
            if let Some(slot) = entry.states.get(&previous) {
                if slot.refs == 0 {
                    entry.states.remove(&previous);
                }
            }
        }
    }

    /// Pins and returns `peer`'s newest snapshot seq for echoing in an outgoing
    /// request (0 when none is held).
    fn echo_basis(&mut self, peer: ReplicaId) -> u64 {
        let Some(entry) = self.basis.get_mut(&peer) else { return 0 };
        if entry.latest == 0 {
            return 0;
        }
        match entry.states.get_mut(&entry.latest) {
            Some(slot) => {
                slot.refs += 1;
                entry.latest
            }
            None => 0,
        }
    }

    /// Releases one pin on `peer`'s snapshot `seq`, dropping it when unreferenced
    /// and superseded.
    fn deref_basis(&mut self, peer: ReplicaId, seq: u64) {
        let Some(entry) = self.basis.get_mut(&peer) else { return };
        let remove = match entry.states.get_mut(&seq) {
            Some(slot) => {
                slot.refs = slot.refs.saturating_sub(1);
                slot.refs == 0 && seq != entry.latest
            }
            None => false,
        };
        if remove {
            entry.states.remove(&seq);
        }
    }

    /// Records `echoes` on the in-flight request so its pins are released when the
    /// request ends; releases them immediately if the request is already gone.
    fn attach_echoes(&mut self, request: RequestId, new_echoes: Vec<(ReplicaId, u64)>) {
        if new_echoes.is_empty() {
            return;
        }
        match self.requests.get_mut(&request) {
            Some(InFlight::Query { echoes, .. }) => echoes.extend(new_echoes),
            _ => {
                for (peer, seq) in new_echoes {
                    self.deref_basis(peer, seq);
                }
            }
        }
    }

    /// How many completed prepare payloads are remembered for the sake of late
    /// delta-encoded `ACK`s (delta-payload tracking only).
    const RECENT_PREPARE_CAP: usize = 16;

    /// Removes an in-flight request, releasing the basis pins it held and (in delta
    /// mode) remembering its prepare payload for late `ACK` reconstruction.
    fn remove_request(&mut self, request: RequestId) -> Option<InFlight<C>> {
        let mut entry = self.requests.remove(&request)?;
        match &mut entry {
            InFlight::Update { acks, .. } => self.recycle_ack_set(acks),
            InFlight::Query { echoes, phase, .. } => {
                for &(peer, seq) in echoes.iter() {
                    self.deref_basis(peer, seq);
                }
                if self.delta_payloads_enabled() {
                    if let QueryPhase::Prepare { sent_state, .. } = phase {
                        if let Some(sent) = sent_state.take() {
                            while self.recent_prepares.len() >= Self::RECENT_PREPARE_CAP {
                                self.recent_prepares.pop_first();
                            }
                            self.recent_prepares.insert(request, sent);
                        }
                    }
                }
                match phase {
                    QueryPhase::Prepare { acks, .. } => self.recycle_prepare_acks(acks),
                    QueryPhase::Vote { acks, .. } => self.recycle_ack_set(acks),
                }
            }
        }
        Some(entry)
    }

    /// Broadcasts a `MERGE` for `state`, per-peer delta-encoded when possible.
    fn broadcast_merge(&mut self, request: RequestId, state: &C) {
        if self.delta_payloads_enabled() {
            for index in 0..self.others.len() {
                let peer = self.others[index];
                let payload = self.payload_for(peer, state);
                self.send(peer, Message::Merge { request, payload });
            }
        } else {
            self.broadcast(Message::Merge { request, payload: Payload::Full(state.clone()) });
        }
    }

    /// Broadcasts a `PREPARE`, per-peer delta-encoded when possible (with a basis
    /// echo so the `ACK` can be a delta too). Retries pass `allow_delta = false`
    /// and fall back to full payloads (NACK recovery).
    fn broadcast_prepare(
        &mut self,
        request: RequestId,
        round: PrepareRound,
        state: Option<&C>,
        allow_delta: bool,
    ) {
        if allow_delta && self.delta_payloads_enabled() {
            let mut echoes: Vec<(ReplicaId, u64)> = Vec::new();
            for index in 0..self.others.len() {
                let peer = self.others[index];
                let payload = state.map(|state| self.payload_for(peer, state));
                let basis = self.echo_basis(peer);
                if basis != 0 {
                    echoes.push((peer, basis));
                }
                self.send(peer, Message::Prepare { request, round, payload, basis });
            }
            self.attach_echoes(request, echoes);
        } else {
            self.broadcast(Message::Prepare {
                request,
                round,
                payload: state.cloned().map(Payload::Full),
                basis: 0,
            });
        }
    }

    /// Broadcasts a `VOTE` for `state`, per-peer delta-encoded when possible.
    fn broadcast_vote(&mut self, request: RequestId, round: Round, state: C) {
        if self.delta_payloads_enabled() {
            let mut echoes: Vec<(ReplicaId, u64)> = Vec::new();
            for index in 0..self.others.len() {
                let peer = self.others[index];
                let payload = self.payload_for(peer, &state);
                let basis = self.echo_basis(peer);
                if basis != 0 {
                    echoes.push((peer, basis));
                }
                self.send(peer, Message::Vote { request, round, payload, basis });
            }
            self.attach_echoes(request, echoes);
        } else {
            self.broadcast(Message::Vote {
                request,
                round,
                payload: Payload::Full(state),
                basis: 0,
            });
        }
    }

    /// Upper bound on pooled acknowledgement buffers of either kind, and on
    /// pooled waiter lists of either kind.
    const ACK_POOL_CAP: usize = 64;

    fn alloc_ack_set(&mut self) -> AckSet {
        AckSet(self.ack_pool.pop().unwrap_or_default())
    }

    fn recycle_ack_set(&mut self, set: &mut AckSet) {
        if self.ack_pool.len() < Self::ACK_POOL_CAP {
            let mut buffer = std::mem::take(&mut set.0);
            buffer.clear();
            self.ack_pool.push(buffer);
        }
    }

    fn alloc_prepare_acks(&mut self) -> PrepareAcks<C> {
        PrepareAcks(self.prepare_pool.pop().unwrap_or_default())
    }

    /// Retires a first-phase acknowledgement buffer: the states it owns go to the
    /// state pool, the buffer to its own.
    fn recycle_prepare_acks(&mut self, acks: &mut PrepareAcks<C>) {
        let mut buffer = std::mem::take(&mut acks.0);
        for (_, _, state, owned) in buffer.drain(..) {
            if owned {
                self.retire_state(state);
            }
        }
        if self.prepare_pool.len() < Self::ACK_POOL_CAP {
            self.prepare_pool.push(buffer);
        }
    }

    /// Upper bound on pooled reply states: each is a whole payload state, and one
    /// or two cover the replies a proposer resolves between two retirements.
    const STATE_POOL_CAP: usize = 4;

    /// Keeps a peer's state nothing needs any more as a future decode target.
    /// Not in delta mode: there a resolved reply state is also a basis snapshot
    /// (or the first `peer_known` entry), and a state something else still reads
    /// cannot be overwritten — pooling it would only pin it.
    fn retire_state(&mut self, state: C) {
        if self.state_pool.len() < Self::STATE_POOL_CAP && !self.delta_payloads_enabled() {
            self.state_pool.push(state);
        }
    }

    /// Takes the state out of a decoded full reply, leaving a retired state in its
    /// place (the bottom state while none has been retired yet) so the message
    /// stays a decode target of its own shape.
    fn take_reply_state(&mut self, state: &mut C) -> C {
        let spare = self.state_pool.pop().unwrap_or_else(|| self.bottom.clone());
        std::mem::replace(state, spare)
    }

    fn alloc_request(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    fn new_round_id(&mut self) -> RoundId {
        let seq = self.next_round_seq;
        self.next_round_seq += 1;
        RoundId::proposer(seq, self.id)
    }

    fn respond(
        &mut self,
        client: ClientId,
        command: CommandId,
        body: ResponseBody<C>,
        round_trips: u32,
    ) {
        self.responses.push(ClientResponse { client, command, body, round_trips });
    }

    /// Starts the quorum half of an update instance, replicating the local acceptor
    /// state as it is now: all update functions (if any) already applied. Shared by
    /// [`Replica::flush_batches`] and [`Replica::submit_resync`].
    ///
    /// With `merge` unset no `MERGE` goes out: the caller's query instance ships
    /// the snapshot in its `PREPARE` instead. Returns the instance's id while it
    /// awaits its quorum.
    fn launch_update(&mut self, waiters: Vec<UpdateWaiter>, merge: bool) -> Option<RequestId> {
        let request = self.alloc_request();
        let mut acks = self.alloc_ack_set();
        acks.insert(self.id);
        if acks.len() >= self.quorum_size {
            self.recycle_ack_set(&mut acks);
            self.finish_update(waiters, 1);
            return None;
        }
        // One snapshot per protocol instance, after every batched update applied:
        // the instance keeps it (a retransmitted `MERGE` ships it), each `MERGE`
        // shares it.
        let merged_state = self.acceptor.state().clone();
        if merge {
            self.broadcast_merge(request, &merged_state);
        }
        self.requests.insert(
            request,
            InFlight::Update {
                waiters,
                merged_state,
                acks,
                round_trips: 1,
                last_sent_ms: self.now_ms,
            },
        );
        Some(request)
    }

    /// Starts one query protocol instance covering all the given waiters;
    /// `ride` is the update instance of the same cycle whose snapshot its first
    /// `PREPARE` carries in place of a `MERGE`.
    fn start_query(&mut self, waiters: Vec<QueryWaiter<C>>, ride: Option<RequestId>) {
        debug_assert!(!waiters.is_empty());
        let request = self.alloc_request();
        let gathered = self.acceptor.state().clone();
        let entry = InFlight::Query {
            waiters,
            phase: QueryPhase::Prepare {
                round: PrepareRound::Incremental { id: RoundId::Bottom },
                sent_state: None,
                acks: PrepareAcks::default(),
                agreement: Agreement::Consistent,
            },
            gathered,
            echoes: Vec::new(),
            ride,
            round_trips: 0,
            last_sent_ms: self.now_ms,
        };
        self.requests.insert(request, entry);
        let id = self.new_round_id();
        self.begin_prepare(request, PrepareRound::Incremental { id }, true);
    }

    /// Sends the first query phase for `request` with the given round and records the
    /// local acceptor's answer immediately. `allow_delta` is `false` on retries,
    /// where the payload falls back to the full state (NACK recovery).
    fn begin_prepare(&mut self, request: RequestId, round: PrepareRound, allow_delta: bool) {
        // Ship the LUB gathered so far to speed up convergence (§3.2), unless it is
        // still the initial state (§3.6: never ship s0).
        let (payload, local_outcome) = {
            let Some(InFlight::Query { gathered, .. }) = self.requests.get(&request) else {
                return;
            };
            let payload = (!gathered.leq(&self.bottom)).then(|| gathered.clone());
            let local_outcome = self.acceptor.prepare_local(round, payload.as_ref());
            (payload, local_outcome)
        };
        self.broadcast_prepare(request, round, payload.as_ref(), allow_delta);

        let mut acks = self.alloc_prepare_acks();
        let Some(InFlight::Query { phase, gathered, round_trips, last_sent_ms, .. }) =
            self.requests.get_mut(&request)
        else {
            self.recycle_prepare_acks(&mut acks);
            return;
        };
        *round_trips += 1;
        *last_sent_ms = self.now_ms;
        let state = self.acceptor.state();
        let agreement = match local_outcome {
            AcceptOutcome::Ack { round: acked_round } => {
                // The acceptor just joined `gathered` (the payload), or `gathered`
                // is still s0: either way their LUB is the acceptor's state, with
                // no walk.
                *gathered = state.clone();
                acks.insert(self.id, acked_round, state.clone(), false);
                Agreement::Consistent
            }
            AcceptOutcome::Nack { round: _ } => {
                // Only possible for a fixed prepare that lost locally; keep going, the
                // remote acceptors may still accept, and the retry logic handles the
                // rest. `gathered` now holds a state no `ACK` carries.
                gathered.join(state);
                Agreement::Unknown
            }
        };
        // The instance keeps the one snapshot the `PREPARE`s above share.
        *phase = QueryPhase::Prepare { round, sent_state: payload, acks, agreement };
        self.maybe_finish_prepare(request);
    }

    /// How many quorum-complete update instances are remembered for the sake of
    /// late `MERGED` replies (delta-payload tracking only).
    const RECENT_MERGE_CAP: usize = 64;

    fn handle_merge_ack(&mut self, from: ReplicaId, request: RequestId) {
        let track = self.config.payload_mode == PayloadMode::DeltaWhenPossible;
        let finished = match self.requests.get_mut(&request) {
            Some(InFlight::Update { acks, merged_state, .. }) => {
                acks.insert(from);
                // The MERGED proves the peer joined this instance's payload: its
                // state now contains the state this proposer merged.
                if track && from != self.id {
                    Self::note_peer(&mut self.peer_known, from, merged_state);
                }
                acks.len() >= self.quorum_size
            }
            _ => {
                // A late MERGED for an instance that already reached quorum: it
                // still proves the peer holds the merged state.
                let mut emptied = false;
                if let Some((state, missing)) = self.recent_merges.get_mut(&request) {
                    if missing.remove(&from) {
                        Self::note_peer(&mut self.peer_known, from, state);
                        emptied = missing.is_empty();
                    }
                }
                if emptied {
                    self.recent_merges.remove(&request);
                }
                false
            }
        };
        if finished {
            self.complete_update(request);
        }
    }

    /// Counts an `ACK` or `NACK` to a query that carried its cycle's update
    /// toward that update, as the `MERGED` it stands in for: the acceptor joined
    /// the `PREPARE`'s payload (or the `VOTE`'s, which contains it) before it
    /// answered, whatever it answered.
    fn count_ride(&mut self, from: ReplicaId, request: RequestId) {
        if let Some(&InFlight::Query { ride: Some(update), .. }) = self.requests.get(&request) {
            self.handle_merge_ack(from, update);
        }
    }

    /// Removes a quorum-complete update instance, remembers it for late `MERGED`
    /// replies (delta mode), and responds to its waiters.
    fn complete_update(&mut self, request: RequestId) {
        // Which peers still owe a MERGED, computed before the instance (and its
        // pooled acknowledgement buffer) is retired.
        let missing: Option<BTreeSet<ReplicaId>> =
            if self.config.payload_mode == PayloadMode::DeltaWhenPossible {
                match self.requests.get(&request) {
                    Some(InFlight::Update { acks, .. }) => {
                        Some(self.others.iter().copied().filter(|p| !acks.contains(p)).collect())
                    }
                    _ => None,
                }
            } else {
                None
            };
        let Some(InFlight::Update { waiters, round_trips, merged_state, .. }) =
            self.remove_request(request)
        else {
            return;
        };
        if let Some(missing) = missing {
            if !missing.is_empty() {
                while self.recent_merges.len() >= Self::RECENT_MERGE_CAP {
                    self.recent_merges.pop_first();
                }
                self.recent_merges.insert(request, (merged_state, missing));
            }
        }
        self.finish_update(waiters, round_trips);
    }

    fn finish_update(&mut self, mut waiters: Vec<UpdateWaiter>, round_trips: u32) {
        for waiter in waiters.drain(..) {
            self.respond(waiter.client, waiter.command, ResponseBody::UpdateDone, round_trips);
        }
        if self.update_waiter_pool.len() < Self::ACK_POOL_CAP {
            self.update_waiter_pool.push(waiters);
        }
    }

    /// Joins an `ACK`'s state into `gathered` in the one walk that also tells
    /// whether the two were equal, and records what that says of the phase. A
    /// state resolved from a full-mode empty delta is `gathered`'s own snapshot
    /// on a quiet read, and that join walks nothing.
    fn handle_prepare_ack(
        &mut self,
        from: ReplicaId,
        request: RequestId,
        round: Round,
        state: C,
        owned: bool,
    ) {
        match self.requests.get_mut(&request) {
            Some(InFlight::Query {
                phase: QueryPhase::Prepare { acks, agreement, .. },
                gathered,
                ..
            }) => {
                let (grew, covered) = gathered.join_report(&state);
                let replaced = acks.insert(from, round, state, owned);
                *agreement = match *agreement {
                    _ if replaced => Agreement::Unknown,
                    Agreement::Consistent if grew || !covered => Agreement::Split,
                    unchanged => unchanged,
                };
            }
            _ => {
                if owned {
                    self.retire_state(state);
                }
                return;
            }
        }
        self.maybe_finish_prepare(request);
    }

    /// Checks whether the first query phase has gathered a quorum and decides between
    /// the three outcomes of the paper (lines 11–21): learn by consistent quorum,
    /// propose a vote, or retry with a fixed prepare.
    fn maybe_finish_prepare(&mut self, request: RequestId) {
        enum Decision<C> {
            ConsistentQuorum(C),
            Vote(Round, C),
            Retry(u64),
        }

        let decision = {
            let Some(InFlight::Query {
                phase: QueryPhase::Prepare { acks, agreement, .. },
                gathered,
                ride,
                ..
            }) = self.requests.get(&request)
            else {
                return;
            };
            if acks.len() < self.quorum_size {
                return;
            }
            // Every peer counted here counted toward the update riding this
            // request first (`count_ride`), and an incremental prepare is never
            // NACKed, so that update is complete: no reply to this request is
            // ever needed for it once the request is gone (`wants_reply`).
            debug_assert!(
                ride.is_none_or(|update| !self.requests.contains_key(&update)),
                "a query's first phase finished before the update it carried"
            );
            // s' ← ⊔ S˘ (line 12): `gathered`, which every ACK was joined into
            // as it came, and whose walks told whether the states agree — unless
            // a replaced ACK or a local NACK may have left it above the LUB.
            let (lub, consistent) = match agreement {
                Agreement::Unknown => {
                    let mut states = acks.iter().map(|(_, _, state)| state);
                    let first = states.next().expect("quorum is non-empty").clone();
                    let lub = states.fold(first, |lub, state| lub.joined(state));
                    let consistent = acks.iter().all(|(_, _, state)| state.equivalent(&lub));
                    (lub, consistent)
                }
                agreement => (gathered.clone(), *agreement == Agreement::Consistent),
            };
            if consistent {
                // Case (a): learned unanimously by consistent states (lines 13–15).
                Decision::ConsistentQuorum(lub)
            } else {
                let mut rounds = acks.iter().map(|(_, round, _)| *round);
                let first = rounds.next().expect("quorum is non-empty");
                if rounds.all(|r| r == first) {
                    // Case (b): consistent rounds, propose to learn the LUB (lines 16–17).
                    Decision::Vote(first, lub)
                } else {
                    // Case (c): inconsistent rounds, retry with a greater round (lines 18–21).
                    let max_number =
                        acks.iter().map(|(_, round, _)| round.number).max().expect("non-empty");
                    Decision::Retry(max_number)
                }
            }
        };

        match decision {
            Decision::ConsistentQuorum(state) => self.finish_query(request, state, false),
            Decision::Vote(round, proposed) => self.enter_vote_phase(request, round, proposed),
            Decision::Retry(max_number) => {
                self.metrics.prepare_retries += 1;
                let id = self.new_round_id();
                let next = PrepareRound::Fixed(Round::new(max_number + 1, id));
                self.retry_query(request, next);
            }
        }
    }

    fn enter_vote_phase(&mut self, request: RequestId, round: Round, proposed: C) {
        // The local acceptor votes first.
        let local = self.acceptor.vote_local(round, &proposed);
        let mut acks = self.alloc_ack_set();
        if matches!(local, AcceptOutcome::Ack { .. }) {
            acks.insert(self.id);
        }
        let done = acks.len() >= self.quorum_size;
        let previous = {
            let Some(InFlight::Query { phase, round_trips, .. }) = self.requests.get_mut(&request)
            else {
                self.recycle_ack_set(&mut acks);
                return;
            };
            *round_trips += 1;
            std::mem::replace(phase, QueryPhase::Vote { round, proposed: proposed.clone(), acks })
        };
        // The first-phase acknowledgement buffer is done; recycle it.
        if let QueryPhase::Prepare { mut acks, .. } = previous {
            self.recycle_prepare_acks(&mut acks);
        }
        if done {
            self.broadcast_vote(request, round, proposed.clone());
            self.finish_query(request, proposed, true);
        } else {
            self.broadcast_vote(request, round, proposed);
        }
    }

    fn handle_vote_ack(&mut self, from: ReplicaId, request: RequestId) {
        let track = self.config.payload_mode == PayloadMode::DeltaWhenPossible;
        let learned = match self.requests.get_mut(&request) {
            Some(InFlight::Query { phase: QueryPhase::Vote { acks, proposed, .. }, .. }) => {
                acks.insert(from);
                // A VOTED proves the peer joined the proposed state (line 44).
                if track && from != self.id {
                    Self::note_peer(&mut self.peer_known, from, proposed);
                }
                if acks.len() >= self.quorum_size {
                    Some(proposed.clone())
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(state) = learned {
            self.finish_query(request, state, true);
        }
    }

    fn handle_nack(&mut self, request: RequestId, _round: Round, state: C) {
        let retry = match self.requests.get_mut(&request) {
            Some(InFlight::Query { gathered, .. }) => {
                gathered.join(&state);
                true
            }
            // A late NACK for a finished query, or a stray for an update (merges
            // are unconditional): nothing to do, nothing to count.
            _ => false,
        };
        self.retire_state(state);
        if retry {
            self.metrics.nacks_received += 1;
            // An incremental prepare is always accepted: the retry that guarantees
            // eventual liveness (§3.5).
            let next = PrepareRound::Incremental { id: self.new_round_id() };
            self.retry_query(request, next);
        }
    }

    /// Restarts the query protocol for `request` under a fresh request id so replies
    /// to the abandoned attempt are ignored.
    fn retry_query(&mut self, request: RequestId, round: PrepareRound) {
        let Some(InFlight::Query { waiters, gathered, round_trips, .. }) =
            self.remove_request(request)
        else {
            return;
        };
        let new_request = self.alloc_request();
        self.requests.insert(
            new_request,
            InFlight::Query {
                waiters,
                phase: QueryPhase::Prepare {
                    round,
                    sent_state: None,
                    acks: PrepareAcks::default(),
                    agreement: Agreement::Consistent,
                },
                gathered,
                echoes: Vec::new(),
                ride: None,
                round_trips,
                last_sent_ms: self.now_ms,
            },
        );
        // Retries always ship full payloads: after a NACK or an inconsistent quorum
        // the proposer's picture of the peers may be stale, and a full state is the
        // robust way to re-establish common ground.
        self.begin_prepare(new_request, round, false);
    }

    /// Completes a query: applies GLA-Stability if configured, evaluates every
    /// waiter's query function on the learned state, and counts the instance's
    /// learning path once per waiter.
    fn finish_query(&mut self, request: RequestId, learned: C, by_vote: bool) {
        let Some(InFlight::Query { mut waiters, round_trips, .. }) = self.remove_request(request)
        else {
            return;
        };
        // Only GLA-Stability reads the largest learned state, so only then is it
        // kept: comparing is a walk of the whole state, and a kept snapshot makes
        // the next update copy the state it shares.
        let state = if self.config.gla_stability {
            let state = match self.largest_learned.take() {
                // Consistency guarantees comparability; keep the larger state.
                Some(previous) if learned.leq(&previous) => previous,
                _ => learned,
            };
            self.largest_learned = Some(state.clone());
            state
        } else {
            learned
        };
        let answered = waiters.len() as u64;
        if by_vote {
            self.metrics.queries_by_vote += answered;
        } else {
            self.metrics.queries_consistent_quorum += answered;
        }
        for waiter in waiters.drain(..) {
            let output = state.query(&waiter.query);
            self.respond(
                waiter.client,
                waiter.command,
                ResponseBody::QueryDone(output),
                round_trips,
            );
        }
        if self.query_waiter_pool.len() < Self::ACK_POOL_CAP {
            self.query_waiter_pool.push(waiters);
        }
    }

    /// Opens at most one update instance and then at most one query instance for
    /// everything buffered: every update function applied before the one
    /// snapshot, and the reads prepared after it, so their `PREPARE` payload
    /// carries those writes. Both buffers keep their capacity.
    ///
    /// When both open and there are peers, the update sends no `MERGE` of its
    /// own — its snapshot is already on its way in every `PREPARE` — and rides
    /// the query ([`InFlight::Query`]'s `ride`): every reply to that request
    /// counts its sender toward the update, as a `MERGED` would. That certifies
    /// what a `MERGED` does, because an acceptor joins a `PREPARE`'s payload
    /// before it answers; and it keeps Update Stability, because the incremental
    /// round the `PREPARE` installs NACKs every vote prepared before it, as the
    /// `MERGE`'s write marker would have. A peer that stays silent gets the
    /// update's own retransmitted `MERGE`. Each peer is sent the state once.
    fn flush_batches(&mut self) {
        let merge = self.query_batch.is_empty() || self.others.is_empty();
        let mut ride = None;
        if !self.update_batch.is_empty() {
            let mut waiters = self.update_waiter_pool.pop().unwrap_or_default();
            for (waiter, update) in self.update_batch.drain(..) {
                self.acceptor.apply_update(&update);
                waiters.push(waiter);
            }
            ride = self.launch_update(waiters, merge);
        }
        if !self.query_batch.is_empty() {
            let mut waiters = self.query_waiter_pool.pop().unwrap_or_default();
            waiters.append(&mut self.query_batch);
            self.start_query(waiters, ride);
        }
    }

    /// Re-sends the messages of requests that have not progressed for a while.
    ///
    /// Only replicas that have not answered yet are contacted again; this covers lost
    /// messages and crashed-and-recovered acceptors. Retransmissions always carry
    /// the full payload state, never a delta: a peer that went silent is exactly the
    /// peer whose state this proposer should not make assumptions about.
    fn retransmit_stalled(&mut self) {
        if self.config.retransmit_after_ms == 0 {
            return;
        }
        let deadline = self.now_ms.saturating_sub(self.config.retransmit_after_ms);
        let mut to_send: Vec<Envelope<C>> = Vec::new();
        let my_id = self.id;
        let peers = &self.others;
        for (&request, entry) in self.requests.iter_mut() {
            match entry {
                InFlight::Update { merged_state, acks, last_sent_ms, .. } => {
                    if *last_sent_ms > deadline {
                        continue;
                    }
                    *last_sent_ms = self.now_ms;
                    for &peer in peers.iter().filter(|p| !acks.contains(p)) {
                        to_send.push(Envelope {
                            from: my_id,
                            to: peer,
                            message: Message::Merge {
                                request,
                                payload: Payload::Full(merged_state.clone()),
                            },
                        });
                    }
                }
                InFlight::Query { phase, last_sent_ms, .. } => {
                    if *last_sent_ms > deadline {
                        continue;
                    }
                    *last_sent_ms = self.now_ms;
                    match phase {
                        QueryPhase::Prepare { round, sent_state, acks, .. } => {
                            for &peer in peers.iter().filter(|p| !acks.contains(p)) {
                                to_send.push(Envelope {
                                    from: my_id,
                                    to: peer,
                                    message: Message::Prepare {
                                        request,
                                        round: *round,
                                        payload: sent_state.clone().map(Payload::Full),
                                        basis: 0,
                                    },
                                });
                            }
                        }
                        QueryPhase::Vote { round, proposed, acks } => {
                            for &peer in peers.iter().filter(|p| !acks.contains(p)) {
                                to_send.push(Envelope {
                                    from: my_id,
                                    to: peer,
                                    message: Message::Vote {
                                        request,
                                        round: *round,
                                        payload: Payload::Full(proposed.clone()),
                                        basis: 0,
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        self.outbox.extend(to_send);
    }
}

#[cfg(test)]
mod first_phase;

#[cfg(test)]
mod tests {
    use super::*;
    use crdt::{CounterQuery, CounterUpdate, GCounter};

    type Counter = GCounter;

    fn ids(n: u64) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId::new).collect()
    }

    fn cluster(n: u64, config: ProtocolConfig) -> Vec<Replica<Counter>> {
        ids(n)
            .iter()
            .map(|&id| Replica::new(id, ids(n), Counter::default(), config.clone()))
            .collect()
    }

    /// Delivers every outstanding message until the cluster is quiescent.
    fn run_to_quiescence(replicas: &mut [Replica<Counter>]) {
        loop {
            let mut envelopes = Vec::new();
            for replica in replicas.iter_mut() {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                let index = replicas.iter().position(|r| r.id() == env.to).expect("known replica");
                replicas[index].handle_message(env.from, env.message);
            }
        }
    }

    fn drain_responses(replica: &mut Replica<Counter>) -> Vec<ClientResponse<Counter>> {
        replica.take_responses()
    }

    #[test]
    fn update_completes_in_a_single_round_trip() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(5));
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
        assert_eq!(responses[0].round_trips, 1);
        assert_eq!(*replicas[0].metrics(), Metrics::default(), "an update learns nothing");
        // All replicas eventually hold the update.
        for replica in &replicas {
            assert_eq!(replica.local_state().value(), 5);
        }
    }

    #[test]
    fn query_after_update_sees_the_update() {
        // Update Visibility (Theorem 3.10): a query submitted after an update
        // completed must observe it — even when submitted at a different replica.
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(3));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        replicas[2].submit_query(ClientId(2), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[2]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(3));
    }

    #[test]
    fn quiet_read_uses_a_single_round_trip_consistent_quorum() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        replicas[1].submit_query(ClientId(2), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[1]);
        assert_eq!(responses[0].round_trips, 1, "quiet reads finish in one round trip");
        assert_eq!(replicas[1].metrics().queries_consistent_quorum, 1);
        assert_eq!(replicas[1].metrics().queries_by_vote, 0);
    }

    #[test]
    fn read_concurrent_with_update_needs_a_vote_or_retry_but_stays_correct() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        // Submit the update but do NOT deliver its merge messages yet.
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(1));
        let pending_merges = replicas[0].take_outbox();

        // Deliver the merge to replica 1 only: acceptor states now diverge.
        for env in pending_merges {
            if env.to == ReplicaId::new(1) {
                let (from, msg) = (env.from, env.message);
                replicas[1].handle_message(from, msg);
            }
        }
        // Drop replica 1's ack; the update stays in flight. Now run a query at r2.
        replicas[1].take_outbox();
        replicas[2].submit_query(ClientId(2), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[2]);
        assert_eq!(responses.len(), 1);
        match &responses[0].body {
            ResponseBody::QueryDone(value) => {
                assert!(*value == 0 || *value == 1, "linearizable value before ack");
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(responses[0].round_trips >= 2, "divergent states require the vote phase");
    }

    #[test]
    fn reads_never_go_backwards_across_replicas() {
        // Stability (Theorem 3.5) on the counter: subsequent reads observe
        // non-decreasing values even when issued at different replicas.
        let mut replicas = cluster(3, ProtocolConfig::default());
        let mut last = 0i64;
        for step in 0..5u64 {
            replicas[(step % 3) as usize].submit_update(ClientId(9), CounterUpdate::Increment(1));
            run_to_quiescence(&mut replicas);
            drain_responses(&mut replicas[(step % 3) as usize]);

            let reader = ((step + 1) % 3) as usize;
            replicas[reader].submit_query(ClientId(10), CounterQuery::Value);
            run_to_quiescence(&mut replicas);
            let responses = drain_responses(&mut replicas[reader]);
            match responses[0].body {
                ResponseBody::QueryDone(value) => {
                    assert!(value >= last, "read {value} went backwards from {last}");
                    last = value;
                }
                _ => panic!("expected query response"),
            }
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn single_replica_cluster_answers_immediately() {
        let mut replicas = cluster(1, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(2));
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 2);
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
        assert_eq!(responses[1].body, ResponseBody::QueryDone(2));
    }

    #[test]
    fn batching_combines_multiple_commands_into_one_protocol_instance() {
        let mut replicas = cluster(3, ProtocolConfig::batched());
        for i in 0..10 {
            replicas[0].submit_update(ClientId(i), CounterUpdate::Increment(1));
            replicas[0].submit_query(ClientId(i), CounterQuery::Value);
        }
        // Nothing happens until the batch interval elapses.
        assert_eq!(replicas[0].take_outbox().len(), 0);
        replicas[0].tick(5);
        assert!(replicas[0].in_flight() <= 2, "one update batch and one query batch");
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 20);
        let updates =
            responses.iter().filter(|r| matches!(r.body, ResponseBody::UpdateDone)).count();
        assert_eq!(updates, 10);
        // All queries in the batch see all updates of the batch (applied locally first).
        for response in responses.iter().filter(|r| matches!(r.body, ResponseBody::QueryDone(_))) {
            assert_eq!(response.body, ResponseBody::QueryDone(10));
        }
        let metrics = replicas[0].metrics();
        assert_eq!(metrics.queries_consistent_quorum + metrics.queries_by_vote, 10);
    }

    /// A cycle opens one update instance and one query instance whatever its
    /// size, every command answered under its own id in one round trip, every
    /// read seeing every write of the cycle. Only the two `PREPARE`s go out:
    /// they carry the writes, so a `MERGE` to the same peers would ship the same
    /// state a second time, and their `ACK`s complete the update as well.
    #[test]
    fn a_cycle_opens_one_update_and_one_query_instance() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        let (updates, reads) = (5u64, 3u64);
        // Interleaved on purpose: the grouping is by kind, not by position.
        let commands = (0..updates.max(reads)).flat_map(|n| {
            let update = (n < updates).then_some(Command::Update(CounterUpdate::Increment(n + 1)));
            let read = (n < reads).then_some(Command::Query(CounterQuery::Value));
            update.into_iter().chain(read)
        });
        let ids = replicas[0].submit_cycle(commands.map(|command| (ClientId(4), command)));
        assert_eq!(ids.len() as u64, updates + reads);
        assert_eq!(replicas[0].in_flight(), 2);
        assert_eq!(replicas[0].instances_opened(), 2);

        let outbox = replicas[0].take_outbox();
        let kinds: Vec<(u64, &str)> = outbox
            .iter()
            .map(|env| match &env.message {
                Message::Merge { .. } => (env.to.as_u64(), "merge"),
                Message::Prepare { payload: Some(_), .. } => (env.to.as_u64(), "prepare"),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kinds, [(1, "prepare"), (2, "prepare")]);
        for env in outbox {
            let index = env.to.as_u64() as usize;
            replicas[index].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);

        let responses = drain_responses(&mut replicas[0]);
        let mut answered: Vec<CommandId> = responses.iter().map(|r| r.command).collect();
        answered.sort();
        assert_eq!(answered, ids, "each command answered once, under its own id");
        let total: i64 = (1..=updates as i64).sum();
        for response in &responses {
            assert_eq!(response.client, ClientId(4));
            assert_eq!(response.round_trips, 1);
            match &response.body {
                ResponseBody::UpdateDone => {}
                body => assert_eq!(body, &ResponseBody::QueryDone(total)),
            }
        }
        let metrics = replicas[0].metrics();
        assert_eq!(metrics.queries_consistent_quorum + metrics.queries_by_vote, reads);
    }

    /// `submit(x)` is `submit_cycle([x])`: the same ids, the same envelopes in
    /// the same order, at the proposer and at the acceptors answering it.
    #[test]
    fn a_cycle_of_one_is_envelope_for_envelope_submit() {
        let commands = || {
            [
                Command::Update(CounterUpdate::Increment(2)),
                Command::Query(CounterQuery::Value),
                Command::Update(CounterUpdate::Increment(3)),
            ]
        };
        let mut single = cluster(3, ProtocolConfig::default());
        let mut cycled = cluster(3, ProtocolConfig::default());
        for (one, as_cycle) in commands().into_iter().zip(commands()) {
            let id = single[0].submit(ClientId(1), one);
            let ids = cycled[0].submit_cycle([(ClientId(1), as_cycle)]);
            assert_eq!(ids, [id]);
            // Step both clusters in lockstep, comparing every hop.
            loop {
                let mut envelopes = Vec::new();
                for (a, b) in single.iter_mut().zip(cycled.iter_mut()) {
                    let (sent, same) = (a.take_outbox(), b.take_outbox());
                    assert_eq!(sent, same);
                    envelopes.extend(sent);
                }
                if envelopes.is_empty() {
                    break;
                }
                for env in envelopes {
                    let index = env.to.as_u64() as usize;
                    single[index].handle_message(env.from, env.message.clone());
                    cycled[index].handle_message(env.from, env.message);
                }
            }
            assert_eq!(drain_responses(&mut single[0]), drain_responses(&mut cycled[0]));
        }
    }

    /// Submits a cycle of one write of `amount` and one read at replica 0 and
    /// returns what it sent: a `PREPARE` carrying the write to each peer.
    fn mixed_cycle(replicas: &mut [Replica<Counter>], amount: u64) -> Vec<Envelope<Counter>> {
        replicas[0].submit_cycle([
            (ClientId(1), Command::Update(CounterUpdate::Increment(amount))),
            (ClientId(2), Command::Query(CounterQuery::Value)),
        ]);
        let sent = replicas[0].take_outbox();
        let prepares =
            sent.iter().all(|env| matches!(env.message, Message::Prepare { payload: Some(_), .. }));
        assert!(prepares && sent.len() == 2, "{sent:?}");
        sent
    }

    /// One peer's `ACK` is the quorum of both instances of a mixed cycle: the
    /// update completes in its one round trip whichever `PREPARE` was lost.
    #[test]
    fn a_riding_update_completes_through_the_peer_that_answered() {
        for lost in [1, 2] {
            let mut replicas = cluster(3, ProtocolConfig::default());
            for env in mixed_cycle(&mut replicas, 4) {
                let to = env.to.as_u64() as usize;
                if to != lost {
                    replicas[to].handle_message(env.from, env.message);
                }
            }
            run_to_quiescence(&mut replicas);
            let responses = drain_responses(&mut replicas[0]);
            let bodies: Vec<_> =
                responses.iter().map(|r| (r.body.clone(), r.round_trips)).collect();
            assert_eq!(bodies, [(ResponseBody::UpdateDone, 1), (ResponseBody::QueryDone(4), 1)]);
            assert_eq!(replicas[0].in_flight(), 0);
            assert_eq!(replicas[lost].local_state().value(), 0, "replica {lost} was sent a MERGE");
        }
    }

    /// With both `PREPARE`s lost the update does not wait on its query: its own
    /// retransmission is a `MERGE`, and the `MERGED`s complete it.
    #[test]
    fn a_riding_update_whose_prepares_are_lost_completes_by_its_own_merge() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        drop(mixed_cycle(&mut replicas, 4));
        replicas[0].tick(200);
        let (merges, prepares): (Vec<_>, Vec<_>) = replicas[0]
            .take_outbox()
            .into_iter()
            .partition(|env| matches!(env.message, Message::Merge { .. }));
        assert_eq!((merges.len(), prepares.len()), (2, 2));
        for env in merges {
            replicas[env.to.as_u64() as usize].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].body, ResponseBody::UpdateDone);

        for env in prepares {
            replicas[env.to.as_u64() as usize].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(4));
    }

    /// A `MERGE`'s write marker is what NACKs another proposer's vote that was
    /// prepared before the update landed (I4, which Update Stability rests on).
    /// A riding update sends no `MERGE`; the incremental round its `PREPARE`
    /// installs NACKs that vote instead.
    #[test]
    fn a_riding_prepare_nacks_a_vote_prepared_before_it() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        // Replica 2 holds a write replica 1 lacks, so replica 1's read finds
        // two different states at one round and has to vote.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        for env in replicas[0].take_outbox() {
            if env.to == ReplicaId::new(2) {
                replicas[2].handle_message(env.from, env.message);
            }
        }
        for env in replicas[2].take_outbox() {
            replicas[0].handle_message(env.from, env.message);
        }
        assert_eq!(drain_responses(&mut replicas[0])[0].body, ResponseBody::UpdateDone);
        replicas[1].submit_query(ClientId(3), CounterQuery::Value);
        for env in replicas[1].take_outbox() {
            if env.to == ReplicaId::new(2) {
                replicas[2].handle_message(env.from, env.message);
            }
        }
        for env in replicas[2].take_outbox() {
            replicas[1].handle_message(env.from, env.message);
        }
        let votes = replicas[1].take_outbox();
        assert!(votes.iter().all(|env| matches!(env.message, Message::Vote { .. })), "{votes:?}");
        let vote = votes.into_iter().find(|env| env.to == ReplicaId::new(2)).expect("a vote");

        // Replica 0's mixed cycle reaches replica 2 before that vote does.
        for env in mixed_cycle(&mut replicas, 2) {
            if env.to == ReplicaId::new(2) {
                replicas[2].handle_message(env.from, env.message);
            }
        }
        let acks = replicas[2].take_outbox();
        replicas[2].handle_message(vote.from, vote.message);
        let replies = replicas[2].take_outbox();
        assert!(matches!(&replies[..], [Envelope { message: Message::Nack { .. }, .. }]));

        for env in acks.into_iter().chain(replies) {
            replicas[env.to.as_u64() as usize].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let bodies: Vec<_> =
            drain_responses(&mut replicas[0]).into_iter().map(|r| r.body).collect();
        assert_eq!(bodies, [ResponseBody::UpdateDone, ResponseBody::QueryDone(3)]);
        // Replica 1's read overlapped the second write: before it or after it.
        let read = drain_responses(&mut replicas[1]).remove(0).body;
        assert!(matches!(read, ResponseBody::QueryDone(1 | 3)), "{read:?}");
    }

    #[test]
    fn gla_stability_never_returns_a_smaller_state_at_the_same_proposer() {
        let config = ProtocolConfig { gla_stability: true, ..ProtocolConfig::default() };
        let mut replicas = cluster(3, config);

        // Learn a large state first.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(10));
        run_to_quiescence(&mut replicas);
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        // Later reads at the same proposer can never observe less.
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.last().unwrap().body, ResponseBody::QueryDone(10));
    }

    #[test]
    fn retransmission_recovers_from_lost_merge_messages() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(1));
        // Drop every outgoing merge (simulated message loss).
        let lost = replicas[0].take_outbox();
        assert_eq!(lost.len(), 2);
        assert!(drain_responses(&mut replicas[0]).is_empty());

        // After the retransmit interval the replica re-sends and completes.
        replicas[0].tick(200);
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
    }

    #[test]
    fn crashed_minority_does_not_block_progress() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        // Replica 2 "crashes": we simply never deliver messages to it.
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(4));
        loop {
            let mut envelopes = Vec::new();
            for replica in replicas.iter_mut() {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                if env.to == ReplicaId::new(2) {
                    continue; // crashed
                }
                let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
                replicas[index].handle_message(env.from, env.message);
            }
        }
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 1, "a two-replica quorum suffices");

        // Queries also succeed with only two live replicas.
        replicas[1].submit_query(ClientId(2), CounterQuery::Value);
        loop {
            let mut envelopes = Vec::new();
            for replica in replicas.iter_mut() {
                envelopes.extend(replica.take_outbox());
            }
            if envelopes.is_empty() {
                break;
            }
            for env in envelopes {
                if env.to == ReplicaId::new(2) {
                    continue;
                }
                let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
                replicas[index].handle_message(env.from, env.message);
            }
        }
        let responses = drain_responses(&mut replicas[1]);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(4));
    }

    #[test]
    fn metrics_track_learning_paths() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        let round_trips: Vec<u32> =
            drain_responses(&mut replicas[0]).iter().map(|r| r.round_trips).collect();
        assert_eq!(round_trips, [1, 1], "the update, then the quiet read");
        let quiet = Metrics { queries_consistent_quorum: 1, ..Metrics::default() };
        assert_eq!(*replicas[0].metrics(), quiet);
    }

    /// A `NACK` that arrives after its query learned changes nothing, so it is
    /// not counted: an executor that skips such replies undecoded
    /// (`wants_reply`) and one that delivers them count the same.
    #[test]
    fn a_nack_for_a_finished_query_is_not_counted() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        let request = replicas[0].outbox[0].message.request();
        run_to_quiescence(&mut replicas);
        assert_eq!(drain_responses(&mut replicas[0]).len(), 1);
        assert!(!replicas[0].wants_reply(request));

        let state = Payload::Full(Counter::default());
        let nack = Message::Nack { request, round: Round::ZERO, state, basis: 0 };
        replicas[0].handle_message(ReplicaId::new(1), nack);
        assert_eq!(replicas[0].metrics().nacks_received, 0);
        assert_eq!(replicas[0].in_flight(), 0, "a late NACK starts no retry");
    }

    #[test]
    #[should_panic(expected = "must be part of the membership")]
    fn replica_must_belong_to_membership() {
        let _ = Replica::<Counter>::new(
            ReplicaId::new(9),
            ids(3),
            Counter::default(),
            ProtocolConfig::default(),
        );
    }

    /// Messages from a process outside the group are dropped: a `MERGED` or an
    /// `ACK` from one never counts toward a quorum, and a `MERGE` from one is
    /// neither applied nor answered.
    #[test]
    fn messages_from_non_members_are_dropped() {
        let outsider = ReplicaId::new(9);
        let mut replicas = cluster(3, ProtocolConfig::default());

        // Self plus any one acknowledgement is a quorum of three.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        let merges = replicas[0].take_outbox();
        replicas[0]
            .handle_message(outsider, Message::MergeAck { request: merges[0].message.request() });
        assert!(drain_responses(&mut replicas[0]).is_empty(), "an outsider's MERGED counted");
        assert_eq!(replicas[0].in_flight(), 1);
        for env in merges {
            replicas[env.to.as_u64() as usize].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));

        // A genuine `ACK`, replayed under the outsider's id, counts for nothing.
        let (request, acks) = read_acks(&mut replicas);
        let ack = acks[0].message.clone();
        replicas[0].handle_message(outsider, ack.clone());
        assert!(drain_responses(&mut replicas[0]).is_empty(), "an outsider's ACK counted");
        assert!(replicas[0].wants_reply(request));
        replicas[0].handle_message(acks[0].from, ack);
        assert_eq!(drain_responses(&mut replicas[0])[0].body, ResponseBody::QueryDone(1));

        let mut state = Counter::default();
        state.increment(outsider, 5);
        let merge = Message::Merge { request: RequestId(0), payload: Payload::Full(state) };
        replicas[1].handle_message(outsider, merge);
        assert_eq!(replicas[1].local_state().value(), 1, "an outsider's MERGE was applied");
        assert!(replicas[1].take_outbox().is_empty(), "an outsider's MERGE was answered");
    }

    #[test]
    fn full_mode_never_tracks_peer_states() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        assert!(replicas[0].known_peer_state(ReplicaId::new(1)).is_none());
        assert!(replicas[0].known_peer_state(ReplicaId::new(2)).is_none());
    }

    #[test]
    fn delta_mode_sends_full_on_first_contact_then_deltas() {
        let config = ProtocolConfig::default().with_delta_payloads();
        let mut replicas = cluster(3, config);

        // First contact: nothing is known about the peers, the MERGE ships full.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        let first = replicas[0].take_outbox();
        assert!(first
            .iter()
            .all(|env| matches!(&env.message, Message::Merge { payload: Payload::Full(_), .. })));
        for env in first {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        // The MERGED replies taught the proposer what the peers hold.
        let known = replicas[0].known_peer_state(ReplicaId::new(1)).expect("peer tracked");
        assert_eq!(known.value(), 1);

        // Second update: the peers are known to contain the pre-state, so the MERGE
        // ships a single-slot delta instead of the full counter.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        let second = replicas[0].take_outbox();
        for env in &second {
            match &env.message {
                Message::Merge { payload: Payload::Delta(delta), .. } => {
                    assert_eq!(delta.contributors(), 1, "delta carries one slot");
                }
                other => panic!("expected delta merge, got {other:?}"),
            }
        }
        for env in second {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert!(matches!(responses[0].body, ResponseBody::UpdateDone));
        for replica in &replicas {
            assert_eq!(replica.local_state().value(), 2, "deltas converge like full states");
        }
    }

    #[test]
    fn delta_mode_retransmissions_fall_back_to_full_payloads() {
        let config = ProtocolConfig::default().with_delta_payloads();
        let mut replicas = cluster(3, config);

        // Establish peer knowledge with a completed round.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        // Lose every merge of the next update, then let the retransmit timer fire.
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        let lost = replicas[0].take_outbox();
        assert!(lost.iter().all(|env| matches!(env.message.payload(), Some(Payload::Delta(_)))));
        replicas[0].tick(200);
        let resent = replicas[0].take_outbox();
        assert!(!resent.is_empty());
        assert!(
            resent.iter().all(|env| matches!(
                &env.message,
                Message::Merge { payload: Payload::Full(_), .. }
            )),
            "retransmissions must not assume anything about the silent peer"
        );
        for env in resent {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        assert!(matches!(drain_responses(&mut replicas[0])[0].body, ResponseBody::UpdateDone));
    }

    /// Gives replica 1 a write of `amount` under its own slot that no other
    /// replica has seen.
    fn write_only_at_replica_1(replicas: &mut [Replica<Counter>], amount: u64) {
        let mut write = Counter::default();
        write.increment(ReplicaId::new(1), amount);
        replicas[1].absorb_state(&write);
    }

    #[test]
    fn full_mode_acks_ship_a_state_only_beyond_the_payload() {
        // Paper-faithful mode: an acceptor whose state is the PREPARE's payload
        // answers with the empty delta; one that holds more ships its full state.
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);
        let (_, acks) = read_acks(&mut replicas);
        assert_eq!(acks.len(), 2);
        for env in &acks {
            match &env.message {
                Message::PrepareAck {
                    state: Payload::Delta(delta), reveal: 0, basis: 0, ..
                } => {
                    assert_eq!(delta, &Counter::default(), "a quiet read's ACK is ⊥");
                }
                other => panic!("expected the empty delta, got {other:?}"),
            }
        }
        for env in acks {
            replicas[0].handle_message(env.from, env.message);
        }
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(
            (&responses[0].body, responses[0].round_trips),
            (&ResponseBody::QueryDone(1), 1)
        );

        write_only_at_replica_1(&mut replicas, 5);
        let (_, acks) = read_acks(&mut replicas);
        for env in &acks {
            match (env.from.as_u64(), &env.message) {
                (1, Message::PrepareAck { state: Payload::Full(state), .. }) => {
                    assert_eq!(state.value(), 6, "the write the payload lacks");
                }
                (2, Message::PrepareAck { state: Payload::Delta(delta), .. }) => {
                    assert_eq!(delta, &Counter::default());
                }
                other => panic!("unexpected ACK {other:?}"),
            }
        }
        for env in acks {
            replicas[0].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(6));
    }

    #[test]
    fn delta_mode_ack_replies_are_delta_encoded() {
        // The first read's ACKs reveal each acceptor's state and establish the basis
        // snapshots; from the second read on, a quiet read's ACK ships an *empty*
        // delta (the acceptor state equals the echoed snapshot joined with the
        // prepare's content) — and reads still complete with the correct value.
        let config = ProtocolConfig::default().with_delta_payloads();
        let mut replicas = cluster(3, config);
        replicas[0].submit_update(ClientId(0), CounterUpdate::Increment(7));
        run_to_quiescence(&mut replicas);
        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        replicas[0].submit_query(ClientId(0), CounterQuery::Value);
        let prepares = replicas[0].take_outbox();
        assert!(prepares.iter().all(|env| matches!(
            &env.message,
            Message::Prepare { basis, .. } if *basis != 0
        )));
        let mut acks = Vec::new();
        for env in prepares {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
            acks.extend(replicas[index].take_outbox());
        }
        assert!(!acks.is_empty());
        for env in &acks {
            match &env.message {
                Message::PrepareAck { state: Payload::Delta(delta), .. } => {
                    assert_eq!(delta.contributors(), 0, "quiet-read ACK delta is empty");
                }
                other => panic!("expected delta ACK, got {other:?}"),
            }
        }
        for env in acks {
            let index = replicas.iter().position(|r| r.id() == env.to).unwrap();
            replicas[index].handle_message(env.from, env.message);
        }
        run_to_quiescence(&mut replicas);
        let responses = drain_responses(&mut replicas[0]);
        assert_eq!(responses[0].body, ResponseBody::QueryDone(7));
        assert_eq!(responses[0].round_trips, 1);
    }

    #[test]
    fn delta_mode_matches_full_mode_results() {
        // The payload representation must not change the protocol's observable
        // behaviour: same updates, same learned values, same final states.
        let mut full = cluster(3, ProtocolConfig::default());
        let mut delta = cluster(3, ProtocolConfig::default().with_delta_payloads());
        for replicas in [&mut full, &mut delta] {
            for step in 0..6u64 {
                let writer = (step % 3) as usize;
                replicas[writer].submit_update(ClientId(0), CounterUpdate::Increment(step + 1));
                run_to_quiescence(replicas);
                let reader = ((step + 1) % 3) as usize;
                replicas[reader].submit_query(ClientId(1), CounterQuery::Value);
                run_to_quiescence(replicas);
            }
        }
        for index in 0..3 {
            assert_eq!(full[index].local_state(), delta[index].local_state());
            let full_reads: Vec<_> = drain_responses(&mut full[index])
                .into_iter()
                .map(|response| response.body)
                .collect();
            let delta_reads: Vec<_> = drain_responses(&mut delta[index])
                .into_iter()
                .map(|response| response.body)
                .collect();
            assert_eq!(full_reads, delta_reads);
        }
    }

    /// One read at replica 0 whose `PREPARE`s are hand-delivered: returns the
    /// request id of its instance and the two peers' `ACK`s, undelivered.
    fn read_acks(replicas: &mut [Replica<Counter>]) -> (RequestId, Vec<Envelope<Counter>>) {
        replicas[0].submit_query(ClientId(2), CounterQuery::Value);
        let prepares = replicas[0].take_outbox();
        let request = prepares[0].message.request();
        let mut acks = Vec::new();
        for env in prepares {
            let index = env.to.as_u64() as usize;
            replicas[index].handle_message(env.from, env.message);
            acks.extend(replicas[index].take_outbox());
        }
        assert!(acks.iter().all(|env| matches!(env.message, Message::PrepareAck { .. })));
        (request, acks)
    }

    #[test]
    fn a_reply_is_wanted_exactly_while_its_instance_is_in_flight() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        let (request, acks) = read_acks(&mut replicas);
        assert!(replicas[0].wants_reply(request));
        assert!(!replicas[0].wants_reply(RequestId(request.0 + 1)), "no such instance yet");

        // The first `ACK` completes the read (self + one peer is a quorum of
        // three); the second is then for an instance that is gone, and
        // delivering it anyway changes nothing.
        let mut acks = acks.into_iter();
        let first = acks.next().expect("two acks");
        replicas[0].handle_message(first.from, first.message);
        assert_eq!(drain_responses(&mut replicas[0]).len(), 1);
        assert!(!replicas[0].wants_reply(request));
        let before = format!("{:?}", replicas[0]);
        let late = acks.next().expect("two acks");
        replicas[0].handle_message(late.from, late.message);
        assert_eq!(format!("{:?}", replicas[0]), before, "a late ACK moved the proposer");
    }

    #[test]
    fn every_reply_is_wanted_with_delta_payloads() {
        let config = ProtocolConfig {
            payload_mode: PayloadMode::DeltaWhenPossible,
            ..ProtocolConfig::default()
        };
        let mut replicas = cluster(3, config);
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(1));
        run_to_quiescence(&mut replicas);
        let (request, acks) = read_acks(&mut replicas);
        let mut acks = acks.into_iter();
        let first = acks.next().expect("two acks");
        replicas[0].handle_message(first.from, first.message);
        assert_eq!(drain_responses(&mut replicas[0]).len(), 2);
        // The instance is gone, the late `ACK` still teaches the proposer what
        // its sender holds.
        assert!(replicas[0].wants_reply(request));
        assert!(replicas[0].wants_reply(RequestId(u64::MAX)));
        let late = acks.next().expect("two acks");
        let sender = late.from;
        replicas[0].handle_message(late.from, late.message);
        assert_eq!(replicas[0].known_peer_state(sender).map(Counter::value), Some(1));
    }

    /// The decode target a full reply was handed in through is a reply of the
    /// same shape afterwards — never a placeholder of another kind — and what it
    /// holds is a state some finished instance retired.
    #[test]
    fn a_consumed_reply_leaves_a_retired_state_behind() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(7));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);

        // First read: replica 1 is ahead of the payload, so its ACK is full.
        // Nothing has been retired yet, so the consumed state is traded for
        // the bottom state.
        write_only_at_replica_1(&mut replicas, 1);
        let (_, acks) = read_acks(&mut replicas);
        let mut resident = acks.into_iter().next().expect("an ack");
        assert_eq!(resident.from, ReplicaId::new(1));
        replicas[0].handle_message_mut(resident.from, &mut resident.message);
        let Message::PrepareAck { state: Payload::Full(left), .. } = &resident.message else {
            panic!("the resident changed kind: {:?}", resident.message);
        };
        assert_eq!(left, &Counter::default());
        run_to_quiescence(&mut replicas);
        assert_eq!(drain_responses(&mut replicas[0])[0].body, ResponseBody::QueryDone(8));

        // The read retired the peer state it had consumed; the next consumed
        // reply is traded for it.
        write_only_at_replica_1(&mut replicas, 2);
        let (_, acks) = read_acks(&mut replicas);
        let mut resident = acks.into_iter().next().expect("an ack");
        replicas[0].handle_message_mut(resident.from, &mut resident.message);
        let Message::PrepareAck { state: Payload::Full(left), .. } = &resident.message else {
            panic!("the resident changed kind: {:?}", resident.message);
        };
        assert_eq!(left.value(), 8, "the state the first read consumed");
        run_to_quiescence(&mut replicas);
        assert_eq!(drain_responses(&mut replicas[0])[0].body, ResponseBody::QueryDone(9));

        // A `NACK` is traded the same way, and however many states instances
        // retire, only a handful are kept.
        let mut nack = Message::Nack {
            request: RequestId(u64::MAX),
            round: Round::ZERO,
            state: Payload::Full(Counter::default()),
            basis: 0,
        };
        for _ in 0..3 * Replica::<Counter>::STATE_POOL_CAP {
            replicas[0].handle_message_mut(ReplicaId::new(1), &mut nack);
            assert!(matches!(&nack, Message::Nack { state: Payload::Full(_), .. }));
        }
        assert!(replicas[0].state_pool.len() <= Replica::<Counter>::STATE_POOL_CAP);
    }

    /// The twin of the test above for an `ACK` that is the empty delta: it is
    /// resolved where it lies, so the resident stays the delta it was, and the
    /// state it resolves to — the instance's own snapshot — is never pooled.
    #[test]
    fn an_empty_delta_reply_is_left_where_it_lies() {
        let mut replicas = cluster(3, ProtocolConfig::default());
        replicas[0].submit_update(ClientId(1), CounterUpdate::Increment(7));
        run_to_quiescence(&mut replicas);
        drain_responses(&mut replicas[0]);
        let pooled = replicas[0].state_pool.len();
        for _ in 0..3 {
            let (_, acks) = read_acks(&mut replicas);
            for mut resident in acks {
                let before = resident.message.clone();
                assert!(matches!(before, Message::PrepareAck { state: Payload::Delta(_), .. }));
                replicas[0].handle_message_mut(resident.from, &mut resident.message);
                assert_eq!(resident.message, before, "the resident was touched");
            }
            let responses = drain_responses(&mut replicas[0]);
            assert_eq!(responses[0].body, ResponseBody::QueryDone(7));
            assert_eq!(responses[0].round_trips, 1);
            assert_eq!(replicas[0].state_pool.len(), pooled, "a shared state was pooled");
        }
    }
}
