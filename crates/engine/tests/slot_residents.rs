//! A worker that serves two shards receives their frames without allocating.
//!
//! The decode residents are per shard slot, not per worker thread: two shards
//! hold different keys, so on shared residents consecutive `MERGE`s (or
//! `PREPARE`s) of two shards would each decode over the 256-key state the
//! other left behind (while a map's entries were B-tree nodes, dropping it and
//! building a node per key). This drives a real worker
//! thread — node 1 of a three-replica group, fed by hand-pumped proposer cores
//! standing in for node 0 — with that stream and counts what the thread
//! allocates, with the counting-allocator technique of `alloc_gate`.
//!
//! The engine forbids `unsafe`, which a `GlobalAlloc` needs, so this cannot be
//! one of the crate's own tests and cannot pin a worker count. It asks for one
//! shard more than the box has cores instead: under the placement rule
//! (shard `s` on worker `s mod cores`) the first and the last shard then share
//! worker 0 on any box, which the test checks before it counts anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use bytes::Bytes;
use crdt::{CounterQuery, CounterUpdate, GCounter, LatticeMap, MapQuery, MapUpdate, ReplicaId};
use crdt_paxos_core::{
    ClientId, Command, CommandId, HashPartitioner, ProtocolConfig, ShardCore, ShardEnvelope,
    ShardId, ShardMessage, ShardOutput, Stamp,
};
use engine::{EngineNode, NodeIngress, Outbound};

type Kv = LatticeMap<u64, GCounter>;

/// Counts the allocations of threads that have marked themselves.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting beside it touches a thread-local `Cell<bool>` (const-initialised,
// no destructor, so reading it never allocates or registers anything) and an
// atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Node 1's transport: whichever thread ships a batch is counted from then
/// on, and what it ships is encoded, as onto a socket, for the test to decode
/// and feed to the proposers — a reply handed over as the value it is would
/// leave node 1's state shared with its reader, and the next write copying it.
/// Encoding never allocates on the shipping thread: both buffers have room for
/// more than is ever outstanding.
struct CountingSink {
    replies: Mutex<Replies>,
    arrived: Condvar,
}

#[derive(Default)]
struct Replies {
    /// The encoded replies, back to back.
    bytes: Vec<u8>,
    /// Where each ends, and the thread that shipped it.
    ends: Vec<(usize, ThreadId)>,
}

impl Outbound<u64, GCounter> for CountingSink {
    fn send(&self, envelope: ShardEnvelope<Kv>) {
        COUNTED.with(|counted| counted.set(true));
        let mut replies = self.replies.lock().unwrap();
        let Replies { bytes, ends } = &mut *replies;
        let room = (bytes.capacity(), ends.capacity());
        wire::to_writer(&envelope.message, &mut *bytes).expect("encode");
        ends.push((bytes.len(), std::thread::current().id()));
        assert_eq!(room, (bytes.capacity(), ends.capacity()), "a reply buffer grew");
        self.arrived.notify_one();
    }
}

impl CountingSink {
    /// Every reply shipped since the last call, at least one.
    fn next_replies(&self) -> Vec<(ThreadId, ShardMessage<Kv>)> {
        let replies = self.replies.lock().unwrap();
        let (mut replies, timeout) = self
            .arrived
            .wait_timeout_while(replies, Duration::from_secs(30), |r| r.ends.is_empty())
            .unwrap();
        assert!(!timeout.timed_out(), "node 1 never replied");
        let Replies { bytes, ends } = &mut *replies;
        let mut start = 0;
        let decoded = ends.drain(..).map(|(end, thread)| {
            let message = wire::from_slice(&bytes[start..end]).expect("decode");
            start = end;
            (thread, message)
        });
        let decoded = decoded.collect();
        bytes.clear();
        decoded
    }
}

/// Node 0's instance of one shard, pumped by hand against the real node 1.
struct Proposer {
    core: ShardCore<u64, GCounter>,
    keys: Vec<u64>,
    outbox: Vec<ShardEnvelope<Kv>>,
    outputs: Vec<ShardOutput<u64, GCounter>>,
    next_command: u64,
    /// Frames sent to node 1.
    sent: u64,
    /// The thread node 1 served this shard's last frame on.
    served_by: Option<ThreadId>,
}

impl Proposer {
    fn new(shard: ShardId, partitioner: &HashPartitioner) -> Self {
        let members = (0..3).map(ReplicaId::new).collect();
        Proposer {
            core: ShardCore::new(shard, ReplicaId::new(0), members, ProtocolConfig::default()),
            keys: (0..).filter(|key| partitioner.shard_of(key) == shard).take(256).collect(),
            outbox: Vec::new(),
            outputs: Vec::new(),
            next_command: 0,
            sent: 0,
            served_by: None,
        }
    }

    /// Runs one command to its response: every frame for node 1 delivered as
    /// the bytes a socket would bring, every reply of node 1 fed back. Node 2
    /// is down; nodes 0 and 1 are the quorum.
    fn run(
        &mut self,
        command: Command<Kv>,
        key: u64,
        stamp: Stamp,
        node: &NodeIngress<u64, GCounter>,
        sink: &CountingSink,
    ) {
        let outer = CommandId(self.next_command);
        self.next_command += 1;
        self.core.submit_single(ClientId(1), outer, key, command);
        loop {
            self.core.drain_outbox_into(stamp, &mut self.outbox);
            for envelope in self.outbox.drain(..).filter(|e| e.to == ReplicaId::new(1)) {
                let frame = wire::to_vec(&envelope.message).expect("encode");
                node.deliver_frame(envelope.from, Bytes::from(frame));
                self.sent += 1;
            }
            self.core.drain_outputs(&mut self.outputs);
            if !self.outputs.is_empty() {
                assert_eq!(self.outputs.len(), 1, "one command, one response");
                self.outputs.clear();
                return;
            }
            for (thread, reply) in sink.next_replies() {
                let ShardMessage::Protocol { shard, message, .. } = reply else {
                    panic!("node 1 sent something other than protocol traffic");
                };
                assert_eq!(shard, self.core.shard_id());
                self.served_by = Some(thread);
                self.core.handle_message(ReplicaId::new(1), message);
            }
        }
    }
}

#[test]
fn a_worker_serving_two_shards_receives_their_frames_without_allocating() {
    let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    let shards = cores as u32 + 1;
    let stamp: Stamp = (0, shards);
    let replies = Replies { bytes: Vec::with_capacity(1 << 20), ends: Vec::with_capacity(64) };
    let sink = Arc::new(CountingSink { replies: Mutex::new(replies), arrived: Condvar::new() });
    let members = (0..3).map(ReplicaId::new).collect();
    let outbound = Arc::clone(&sink) as Arc<dyn Outbound<u64, GCounter>>;
    let config = ProtocolConfig::default();
    let node = EngineNode::start(ReplicaId::new(1), members, shards, config, outbound);
    let ingress = node.ingress();

    let partitioner = HashPartitioner::new(shards);
    let mut proposers =
        [Proposer::new(ShardId(0), &partitioner), Proposer::new(ShardId(shards - 1), &partitioner)];
    // One pass over both shards' keys: an update of the `n`th key of each,
    // then a read of each — at node 1 a `MERGE` for either shard, then a
    // `PREPARE` for either, so every frame follows one of the other shard and
    // every second one follows its own kind.
    let mut pass = |cycles: std::ops::Range<usize>| {
        for n in cycles {
            for read in [false, true] {
                for proposer in &mut proposers {
                    let key = proposer.keys[n % proposer.keys.len()];
                    let command = if read {
                        Command::Query(MapQuery::Get { key, query: CounterQuery::Value })
                    } else {
                        Command::Update(MapUpdate::Apply {
                            key,
                            update: CounterUpdate::Increment(1),
                        })
                    };
                    proposer.run(command, key, stamp, &ingress, &sink);
                }
            }
        }
        let sent: u64 = proposers.iter().map(|proposer| proposer.sent).sum();
        (sent, proposers[0].served_by, proposers[1].served_by)
    };

    // Every key exists and every resident has its shape before the count
    // starts: state size is constant from here on.
    let (warm_up, first, last) = pass(0..512);
    assert_eq!(node.obs_snapshot().counter("worker_threads"), cores as u64);
    assert!(first.is_some() && first == last, "the two shards are not on one worker");
    let building = ALLOCATIONS.swap(0, Ordering::Relaxed);
    assert!(building > 0, "the counting allocator saw nothing while the residents were built");

    let (sent, _, _) = pass(512..640);
    let frames = sent - warm_up;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(frames, 4 * 128, "an update and a read of each shard per cycle");
    assert_eq!(allocations, 0, "{allocations} allocations over {frames} frames on the worker");
    assert_eq!(node.obs_snapshot().counter("frames_undecodable"), 0);
    node.shutdown();
}
