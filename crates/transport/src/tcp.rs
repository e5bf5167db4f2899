//! Tokio TCP mesh transport with coalesced, length-prefixed wire framing.
//!
//! Each replica runs a [`TcpMesh`]: it listens on its own address and owns one
//! persistent outbound connection per peer, dialed lazily and redialed (with
//! backoff) whenever it drops — a peer restart heals without intervention.
//!
//! The write side has a fast path and a coalescing path. Each peer owns a
//! recycled [`FrameEncoder`], so messages serialize straight into a resident
//! allocation — no intermediate `Bytes` per frame, and zero allocations per
//! batch once the cycle is warm. While the connection is up and nothing is
//! queued, the sender writes its batch to the socket itself, under the peer's
//! lock (`try_write`: no task, no wake-up). Whatever the socket does not take
//! at once — and everything sent while the peer is being dialed or a backlog
//! exists — is queued to the peer's writer task, which drains the queue and
//! flushes it as single socket writes (bounded by a batch-size threshold), so
//! under load the syscall and wakeup cost is amortized over many messages.
//! The backlog is bounded (`MAX_BACKLOG_BYTES`): batches that would pass the
//! bound are dropped and counted, like any lost message. The read side mirrors
//! this: the socket reads land directly in the frame decoder's buffer (no
//! staging chunk), and each complete frame goes straight to the mesh's sink
//! (see [`TcpMesh::bind_with`]) as a refcounted [`Bytes`] view of that buffer
//! — the inbound path writes each payload byte exactly once. Those views are
//! still held when the next read begins, so the decoder continues in a
//! recycled buffer whose frames have all been dropped: in steady state a read
//! allocates nothing and zero-fills nothing
//! ([`MeshStats::read_buffers_allocated`] counts the reads that had to).
//! [`TcpMesh::send_with`] hands callers the raw encoder, so one
//! call may batch any number of frames.

use std::collections::HashMap;
use std::future::poll_fn;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use obs::{Counter, Histogram, ObsRegistry, Stopwatch};
use tokio::io::AsyncReadExt;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;
use wire::framing::{FrameDecoder, FrameEncoder};

use crate::{PeerId, TransportError};

/// Flush a coalesced batch once it reaches this many bytes, even if more
/// frames are queued; keeps a single write from growing unboundedly under a
/// backlog.
const MAX_BATCH_BYTES: usize = 256 * 1024;

/// Most bytes a peer that is down or slow may have queued to its writer task.
/// A batch that would take the backlog past this is dropped (newest first)
/// and counted in [`MeshStats::dropped_batches`]; the protocol retransmits on
/// its tick, like after any lost message. A batch that finds the backlog
/// empty is always taken, whatever its size.
const MAX_BACKLOG_BYTES: usize = 32 * 1024 * 1024;

/// Read chunk size for the inbound decoder.
const READ_CHUNK: usize = 64 * 1024;

/// Initial and maximum redial backoff for a peer that is down. The first wait
/// is short because a cluster's nodes bind one after another: a node's first
/// dials to a peer that binds a moment later are refused, and each millisecond
/// here is a millisecond before its first frame arrives.
const RECONNECT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_millis(200);

/// The wait after `backoff` when another dial fails or dies young: twice as
/// long, up to [`RECONNECT_BACKOFF_MAX`].
fn next_backoff(backoff: Duration) -> Duration {
    (backoff * 2).min(RECONNECT_BACKOFF_MAX)
}

/// One entry of a peer's writer queue.
#[derive(Debug)]
struct Queued {
    batch: Bytes,
    frames: u64,
    /// Bytes of `batch` an inline write already put on the wire. The rest
    /// starts mid-frame, so it may only follow them on the same connection.
    written: usize,
    /// The connection (by [`Outbound::generation`]) `written` went to.
    generation: u64,
}

impl Queued {
    fn remaining(&self) -> &[u8] {
        &self.batch[self.written..]
    }
}

/// Outbound state for one peer, under one lock that is held only across a
/// synchronous encode and at most one non-blocking write — never an await —
/// so a blocking mutex is cheaper than an async one here.
///
/// The lock is what keeps the socket to one writer at a time with bytes in
/// order: a sender writes inline only while holding it *and* seeing `backlog
/// == 0`; every enqueue adds to `backlog` under it, and the writer task
/// subtracts only after its flush has completed. So while the task owes the
/// socket anything no sender touches it, and nothing queued is overtaken.
#[derive(Debug, Default)]
struct Outbound {
    /// Recycled batch buffers: they ping-pong between the encoder and
    /// whoever writes them.
    encoder: FrameEncoder,
    /// The live connection, published by the writer task once the hello is
    /// out; `None` while it dials. A sender whose inline write fails clears
    /// it and prods the task, which redials.
    stream: Option<Arc<TcpStream>>,
    /// Counts published connections.
    generation: u64,
    /// Bytes queued to the writer task and not yet flushed.
    backlog: usize,
}

#[derive(Debug)]
struct PeerHandle {
    tx: mpsc::UnboundedSender<Queued>,
    out: Arc<Mutex<Outbound>>,
}

/// Always-on runtime introspection for one mesh: reconnect behavior, the
/// shape of the write-side coalescing, the share of the inline path and what
/// the read side allocates. Recording is relaxed atomics on
/// preallocated memory — the counters cost the hot path nothing measurable
/// and never allocate.
#[derive(Debug, Default)]
pub struct MeshStats {
    /// Dial attempts after the first per peer (failed dials and redials after
    /// a connection dropped).
    pub reconnect_attempts: Arc<Counter>,
    /// Completed socket writes: by the writer tasks and inline.
    pub socket_writes: Arc<Counter>,
    /// The share of `socket_writes` made by the sending thread itself, with
    /// no writer task in between.
    pub inline_writes: Arc<Counter>,
    /// Batches dropped because the peer's backlog was full.
    pub dropped_batches: Arc<Counter>,
    /// Frames each write completed (a short inline write completes none: its
    /// frames count for the write that finishes them).
    pub frames_per_batch: Arc<Histogram>,
    /// Bytes of each write.
    pub batch_bytes: Arc<Histogram>,
    /// Wall-clock nanoseconds of each write — the engine's `socket_write`
    /// stage.
    pub write_nanos: Arc<Histogram>,
    /// Completed socket reads (chunks received), over every inbound
    /// connection.
    pub socket_reads: Arc<Counter>,
    /// Fresh read buffers the inbound connections' frame decoders allocated
    /// because the frames of earlier reads were all still held (see
    /// `FrameDecoder::buffers_allocated`); zero per read in steady state.
    pub read_buffers_allocated: Arc<Counter>,
}

impl MeshStats {
    /// One socket write of `bytes` bytes, by the sending thread (`inline`) or
    /// a writer task. Frames are counted by the write that completes them.
    fn record_write(&self, write: &Stopwatch, bytes: usize, inline: bool) {
        self.write_nanos.record(write.elapsed_nanos());
        self.batch_bytes.record(bytes as u64);
        self.socket_writes.incr();
        if inline {
            self.inline_writes.incr();
        }
    }

    /// Files every stat into `registry`: the write latency as
    /// `stage_socket_write_nanos` (so it lines up with the engine's per-stage
    /// table) and the rest under `mesh_*` names.
    pub fn register_into(&self, registry: &ObsRegistry) {
        registry.register_counter("mesh_reconnect_attempts", Arc::clone(&self.reconnect_attempts));
        registry.register_counter("mesh_socket_writes", Arc::clone(&self.socket_writes));
        registry.register_counter("mesh_inline_writes", Arc::clone(&self.inline_writes));
        registry.register_counter("mesh_dropped_batches", Arc::clone(&self.dropped_batches));
        registry.register_histogram("mesh_frames_per_batch", Arc::clone(&self.frames_per_batch));
        registry.register_histogram("mesh_batch_bytes", Arc::clone(&self.batch_bytes));
        registry.register_histogram("stage_socket_write_nanos", Arc::clone(&self.write_nanos));
        registry.register_counter("mesh_socket_reads", Arc::clone(&self.socket_reads));
        registry.register_counter(
            "mesh_read_buffers_allocated",
            Arc::clone(&self.read_buffers_allocated),
        );
    }
}

/// Every task of a mesh — the accept loop, the writers, a read loop per
/// accepted connection — so that shutdown stops them all, and with them the
/// sink's every holder.
#[derive(Debug, Default)]
struct Tasks {
    /// Set by shutdown under `running`'s lock; read loops check it per frame.
    closed: AtomicBool,
    running: Mutex<Vec<tokio::JoinHandle<()>>>,
}

impl Tasks {
    /// Keeps `task` to abort with the rest, or aborts it now if they were;
    /// forgets the read loops whose connection has ended.
    fn track(&self, task: tokio::JoinHandle<()>) {
        let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        if self.closed.load(Ordering::Relaxed) {
            task.abort();
        } else {
            running.retain(|task| !task.is_finished());
            running.push(task);
        }
    }

    fn abort_all(&self) {
        let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        self.closed.store(true, Ordering::Release);
        running.drain(..).for_each(|task| task.abort());
    }
}

/// A TCP endpoint connected to every peer of the replica group.
#[derive(Debug)]
pub struct TcpMesh {
    id: PeerId,
    peers: HashMap<PeerId, PeerHandle>,
    /// What [`TcpMesh::bind`]'s sink queues for [`TcpMesh::recv_frame`].
    incoming: Option<Mutex<mpsc::UnboundedReceiver<(PeerId, Bytes)>>>,
    tasks: Arc<Tasks>,
    stats: Arc<MeshStats>,
}

impl TcpMesh {
    /// Binds like [`TcpMesh::bind_with`], with a sink that queues every frame
    /// for [`TcpMesh::recv_frame`].
    ///
    /// # Errors
    ///
    /// Returns an error if the local listener cannot be bound.
    pub async fn bind(
        id: PeerId,
        listen_addr: &str,
        peers: &[(PeerId, String)],
    ) -> Result<Self, TransportError> {
        let (tx, rx) = mpsc::unbounded_channel();
        // The send fails only once the mesh, which holds the receiver, is gone.
        let sink = move |peer, frame| _ = tx.send((peer, frame));
        let mut mesh = Self::bind_with(id, listen_addr, peers, sink).await?;
        mesh.incoming = Some(Mutex::new(rx));
        Ok(mesh)
    }

    /// Binds to `listen_addr`, starts one writer task per `(peer id, address)`
    /// pair, and returns the mesh once the listener is running. Peers that are
    /// not up yet (or that restart later) are dialed in the background with
    /// backoff.
    ///
    /// Each connection's read loop calls `sink` with the sender and each frame,
    /// still encoded, in the order sent, on the thread that read it — a
    /// zero-copy view of the read buffer, to decode with [`wire::from_bytes`]
    /// or [`wire::from_bytes_in_place`]. The next read waits for the sink.
    ///
    /// # Errors
    ///
    /// Returns an error if the local listener cannot be bound.
    pub async fn bind_with<S>(
        id: PeerId,
        listen_addr: &str,
        peers: &[(PeerId, String)],
        sink: S,
    ) -> Result<Self, TransportError>
    where
        S: Fn(PeerId, Bytes) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(listen_addr).await?;
        let mut outgoing = HashMap::new();
        let tasks = Arc::new(Tasks::default());
        let stats = Arc::new(MeshStats::default());

        // Accept loop: peers identify themselves with an 8-byte hello.
        let accept = {
            let (sink, tasks, stats) = (Arc::new(sink), Arc::clone(&tasks), Arc::clone(&stats));
            async move {
                loop {
                    let Ok((stream, _)) = listener.accept().await else { break };
                    let (sink, stats) = (Arc::clone(&sink), Arc::clone(&stats));
                    let read = read_loop(stream, sink, Arc::clone(&tasks), stats);
                    tasks.track(tokio::spawn(async move {
                        let _ = read.await;
                    }));
                }
            }
        };
        tasks.track(tokio::spawn(accept));

        for (peer, addr) in peers.iter().cloned() {
            if peer == id {
                continue;
            }
            let (tx, rx) = mpsc::unbounded_channel();
            let out = Arc::new(Mutex::new(Outbound::default()));
            tasks.track(tokio::spawn(write_loop(
                id,
                addr,
                rx,
                Arc::clone(&out),
                Arc::clone(&stats),
            )));
            outgoing.insert(peer, PeerHandle { tx, out });
        }

        Ok(TcpMesh { id, peers: outgoing, incoming: None, tasks, stats })
    }

    /// The mesh's runtime introspection counters; register them into an
    /// `obs::ObsRegistry` with [`MeshStats::register_into`].
    pub fn stats(&self) -> &Arc<MeshStats> {
        &self.stats
    }

    /// This replica's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Encodes directly into `peer`'s recycled batch buffer and sends the
    /// result as one contiguous run of bytes: written to the socket from this
    /// thread when the connection is up and nothing is queued ahead, queued to
    /// the peer's writer task otherwise. `fill` may encode any number of
    /// frames via [`FrameEncoder::encode`]; this is the mesh's one,
    /// allocation-free way to send — synchronous (it never waits for the
    /// socket), so threads outside the runtime can call it too.
    ///
    /// # Errors
    ///
    /// Returns an error if the peer is unknown, `fill` fails (the batch is
    /// rolled back — nothing is sent, and the encoder stays clean for the
    /// next call), or the mesh has shut down. A batch lost with its
    /// connection, or dropped because the peer's backlog is full, is not an
    /// error: it is a lost message.
    pub fn send_with(
        &self,
        peer: PeerId,
        fill: impl FnOnce(&mut FrameEncoder) -> wire::Result<()>,
    ) -> Result<(), TransportError> {
        let handle = self.peers.get(&peer).ok_or(TransportError::UnknownPeer(peer))?;
        let mut out = handle.out.lock().expect("peer lock poisoned");
        let start = out.encoder.len();
        if let Err(err) = fill(&mut out.encoder) {
            out.encoder.truncate(start);
            return Err(err.into());
        }
        if out.encoder.is_empty() {
            return Ok(());
        }
        let frames = out.encoder.frames();
        let batch = out.encoder.take();

        let mut written = 0;
        if out.backlog == 0 {
            if let Some(stream) = &out.stream {
                let write = Stopwatch::start();
                match stream.try_write(&batch) {
                    Ok(count) => {
                        self.stats.record_write(&write, count, true);
                        if count == batch.len() {
                            // `batch` drops here, so the encoder reclaims it.
                            self.stats.frames_per_batch.record(frames);
                            return Ok(());
                        }
                        written = count;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        // The batch dies with its connection; the task learns
                        // of the death from the empty entry and redials.
                        out.stream = None;
                        let prod =
                            Queued { batch: Bytes::new(), frames: 0, written: 0, generation: 0 };
                        return handle.tx.send(prod).map_err(|_| TransportError::Closed);
                    }
                }
            }
        } else if out.backlog + batch.len() > MAX_BACKLOG_BYTES {
            self.stats.dropped_batches.incr();
            return Ok(());
        }
        out.backlog += batch.len() - written;
        let generation = out.generation;
        handle
            .tx
            .send(Queued { batch, frames, written, generation })
            .map_err(|_| TransportError::Closed)
    }

    /// Receives the next `(sender, frame)` pair; serves the 3-argument
    /// [`TcpMesh::bind`] only, and one caller at a time (a second would take
    /// the first's wake-up). A receive dropped while it waits loses no frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the mesh has shut down and its queued
    /// frames are taken, and always for a mesh made by [`TcpMesh::bind_with`].
    pub async fn recv_frame(&self) -> Result<(PeerId, Bytes), TransportError> {
        let incoming = self.incoming.as_ref().ok_or(TransportError::Closed)?;
        poll_fn(|cx| incoming.lock().expect("receiver lock poisoned").poll_recv(cx))
            .await
            .ok_or(TransportError::Closed)
    }

    /// Stops the accept loop, every read loop and every per-peer writer,
    /// closing the listener socket so the address can be rebound, and
    /// unpublishes the outbound connections. The sink then gets at most the
    /// frame each connection was delivering, and is dropped with the aborted
    /// loops. Called automatically on drop.
    pub fn shutdown(&self) {
        self.tasks.abort_all();
        // The writer tasks are gone: nothing may write to their sockets now.
        for handle in self.peers.values() {
            if let Ok(mut out) = handle.out.lock() {
                out.stream = None;
            }
        }
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Owns the outbound connection to one peer: dials (and redials) with
/// backoff, publishes the connection for inline writes, then drains the frame
/// queue, coalescing everything pending into single writes. Exits when the
/// mesh drops the send handle.
async fn write_loop(
    id: PeerId,
    addr: String,
    mut rx: mpsc::UnboundedReceiver<Queued>,
    out: Arc<Mutex<Outbound>>,
    stats: Arc<MeshStats>,
) {
    let mut staging = BytesMut::with_capacity(MAX_BATCH_BYTES);
    let mut batch: Vec<Queued> = Vec::new();
    let mut backoff = RECONNECT_BACKOFF_MIN;
    let mut first_dial = true;
    loop {
        if !first_dial {
            stats.reconnect_attempts.incr();
        }
        first_dial = false;
        let connected_at = Instant::now();
        let connected = match TcpStream::connect(&addr).await {
            // Identify ourselves.
            Ok(stream) => write_all(&stream, &id.to_le_bytes()).await.map(|()| Arc::new(stream)),
            Err(err) => Err(err),
        };
        if let Ok(stream) = connected {
            let generation = {
                let mut out = out.lock().expect("peer lock poisoned");
                out.generation += 1;
                out.stream = Some(Arc::clone(&stream));
                out.generation
            };
            // Until the connection fails: wait for a queue entry, gather what
            // else is queued, flush.
            loop {
                let Some(first) = rx.recv().await else { return };
                let mut total = first.remaining().len();
                batch.push(first);
                drain_pending(&mut rx, &mut batch, &mut total);
                if total < MAX_BATCH_BYTES {
                    // One scheduling linger: frames being enqueued by
                    // concurrently running tasks join this batch instead of
                    // paying their own write. No timer — an idle queue
                    // flushes immediately.
                    tokio::task::yield_now().await;
                    drain_pending(&mut rx, &mut batch, &mut total);
                }
                // The rest of a batch whose head went to an earlier
                // connection is not a frame boundary on this one.
                let fits =
                    |queued: &&Queued| queued.written == 0 || queued.generation == generation;
                let frames = batch.iter().filter(fits).map(|queued| queued.frames).sum();
                let bytes = match &batch[..] {
                    [only] if fits(&only) => only.remaining(),
                    _ => {
                        staging.clear();
                        for queued in batch.iter().filter(fits) {
                            staging.extend_from_slice(queued.remaining());
                        }
                        &staging[..]
                    }
                };
                let flushed = bytes.len();
                let write = Stopwatch::start();
                let failed = if out.lock().expect("peer lock poisoned").stream.is_some() {
                    write_all(&stream, bytes).await.is_err()
                } else {
                    // A sender's inline write failed and it said so.
                    true
                };
                // Dropped before the backlog says so: a sender that finds it
                // empty may reclaim these buffers at once.
                batch.clear();
                {
                    let mut out = out.lock().expect("peer lock poisoned");
                    out.backlog -= total;
                    if failed {
                        out.stream = None;
                    }
                }
                if failed {
                    // The gathered frames die with the connection;
                    // protocol-level retransmission recovers, as with any
                    // TCP connection loss.
                    break;
                }
                if flushed > 0 {
                    stats.record_write(&write, flushed, false);
                    stats.frames_per_batch.record(frames);
                }
            }
        }
        // A connection that dies young — or was never made — has proven
        // nothing: a peer that accepts and then resets would otherwise be
        // redialed in a tight loop, so the backoff keeps growing. An
        // established one is redialed at once, and from the shortest backoff.
        if connected_at.elapsed() < RECONNECT_BACKOFF_MAX {
            tokio::time::sleep(backoff).await;
            backoff = next_backoff(backoff);
        } else {
            backoff = RECONNECT_BACKOFF_MIN;
        }
    }
}

/// Writes all of `buf`, waiting for the socket whenever it is full.
async fn write_all(stream: &TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.try_write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(count) => buf = &buf[count..],
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => stream.writable().await?,
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Moves every already-queued entry into `batch`, up to the flush threshold.
fn drain_pending(
    rx: &mut mpsc::UnboundedReceiver<Queued>,
    batch: &mut Vec<Queued>,
    total: &mut usize,
) {
    while *total < MAX_BATCH_BYTES {
        match rx.try_recv() {
            Some(queued) => {
                *total += queued.remaining().len();
                batch.push(queued);
            }
            None => break,
        }
    }
}

/// Reads the peer hello and then whole socket chunks directly into the frame
/// decoder's buffer, handing every complete frame of a chunk to `sink` as a
/// refcounted view — the inbound half of coalescing, with no staging copy.
/// Ends with the connection, or at the first frame after shutdown.
async fn read_loop<S: Fn(PeerId, Bytes)>(
    mut stream: TcpStream,
    sink: Arc<S>,
    tasks: Arc<Tasks>,
    stats: Arc<MeshStats>,
) -> Result<(), TransportError> {
    let mut hello = [0u8; 8];
    stream.read_exact(&mut hello).await?;
    let peer = PeerId::from_le_bytes(hello);
    let mut decoder = FrameDecoder::default();
    loop {
        let allocated = decoder.buffers_allocated();
        let count = {
            let buf = decoder.read_buf(READ_CHUNK);
            let Ok(count) = stream.read(buf).await else { return Ok(()) };
            count
        };
        let fresh = decoder.buffers_allocated() - allocated;
        if fresh > 0 {
            stats.read_buffers_allocated.add(fresh);
        }
        if count == 0 {
            return Ok(());
        }
        stats.socket_reads.incr();
        decoder.commit(count);
        while let Some(frame) = decoder.decode_next_view()? {
            if tasks.closed.load(Ordering::Acquire) {
                return Ok(());
            }
            sink(peer, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::DeserializeOwned;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, Serialize, Deserialize, PartialEq)]
    struct Hello {
        text: String,
    }

    /// Sends `message` to `peer` as a batch of one.
    fn send<M: Serialize>(mesh: &TcpMesh, peer: PeerId, message: &M) {
        mesh.send_with(peer, |encoder| encoder.encode(message)).unwrap();
    }

    /// Receives the next frame and decodes it.
    async fn recv<M: DeserializeOwned>(mesh: &TcpMesh) -> (PeerId, M) {
        let (from, frame) = mesh.recv_frame().await.unwrap();
        (from, wire::from_bytes(&frame).unwrap())
    }

    /// What a recording sink has been handed: `(sender, text)` per frame.
    type Received = Arc<Mutex<Vec<(PeerId, String)>>>;

    /// Binds a mesh whose sink decodes each frame as a [`Hello`] and records it.
    async fn bind_recording(
        id: PeerId,
        listen: &str,
        peers: &[(PeerId, String)],
    ) -> (TcpMesh, Received) {
        let received = Received::default();
        let record = Arc::clone(&received);
        let sink = move |from, frame: Bytes| {
            let hello: Hello = wire::from_bytes(&frame).unwrap();
            record.lock().unwrap().push((from, hello.text));
        };
        (TcpMesh::bind_with(id, listen, peers, sink).await.unwrap(), received)
    }

    /// Waits, for at most ten seconds, until `done` holds.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// An address nothing listens on yet: bound once to learn a free port.
    fn free_addr() -> String {
        std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string()
    }

    #[tokio::test]
    async fn two_meshes_exchange_messages_over_loopback() {
        let addr_a = "127.0.0.1:39021";
        let addr_b = "127.0.0.1:39022";
        let peers_a = vec![(1u64, addr_b.to_string())];
        let peers_b = vec![(0u64, addr_a.to_string())];
        let mesh_a = TcpMesh::bind(0, addr_a, &peers_a).await.unwrap();
        let mesh_b = TcpMesh::bind(1, addr_b, &peers_b).await.unwrap();

        send(&mesh_a, 1, &Hello { text: "hi".into() });
        let (from, hello): (u64, Hello) = recv(&mesh_b).await;
        assert_eq!(from, 0);
        assert_eq!(hello, Hello { text: "hi".into() });

        send(&mesh_b, 0, &Hello { text: "yo".into() });
        let (from, hello): (u64, Hello) = recv(&mesh_a).await;
        assert_eq!(from, 1);
        assert_eq!(hello.text, "yo");
    }

    #[tokio::test]
    async fn sending_to_unknown_peer_fails() {
        let mesh = TcpMesh::bind(7, "127.0.0.1:39023", &[]).await.unwrap();
        let err = mesh.send_with(9, |encoder| encoder.encode(&Hello { text: "x".into() }));
        let err = err.unwrap_err();
        assert!(matches!(err, TransportError::UnknownPeer(9)));
        assert_eq!(mesh.id(), 7);
    }

    /// Every frame of a batch arrives, in order: through `recv_frame`, and
    /// through a sink of the receiver's own.
    #[tokio::test]
    async fn send_with_delivers_a_batch_in_order() {
        let batch: Vec<Hello> = (0..50).map(|i| Hello { text: format!("m{i}") }).collect();
        let expected: Vec<(PeerId, String)> =
            batch.iter().map(|hello| (0, hello.text.clone())).collect();
        for own_sink in [false, true] {
            let addr_b = free_addr();
            let mesh_a = TcpMesh::bind(0, "127.0.0.1:0", &[(1u64, addr_b.clone())]).await.unwrap();
            let send_batch = || {
                let fill = |encoder: &mut FrameEncoder| {
                    batch.iter().try_for_each(|hello| encoder.encode(hello))
                };
                mesh_a.send_with(1, fill).unwrap();
            };
            let received = if own_sink {
                let (_mesh_b, received) = bind_recording(1, &addr_b, &[]).await;
                send_batch();
                eventually("the batch", || received.lock().unwrap().len() >= batch.len());
                let received = received.lock().unwrap().clone();
                received
            } else {
                let mesh_b = TcpMesh::bind(1, &addr_b, &[]).await.unwrap();
                send_batch();
                let mut received = Vec::new();
                for _ in 0..batch.len() {
                    let (from, hello): (u64, Hello) = recv(&mesh_b).await;
                    received.push((from, hello.text));
                }
                received
            };
            assert_eq!(received, expected, "own sink: {own_sink}");
        }
    }

    /// Once `shutdown` returns the sink gets no more frames, though the peer
    /// keeps sending and more of them are already read, and what it holds is
    /// let go of: every read loop ends, not just the accept loop. The sink
    /// blocks in its first frame until `shutdown` has returned, so the rest of
    /// that read — and every later one — finds the mesh closed.
    #[test]
    fn shutdown_stops_the_sink_and_lets_go_of_it() {
        let addr_b = free_addr();
        let received = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered) = std::sync::mpsc::sync_channel(1);
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let count = Arc::clone(&received);
        let sink = move |_, _| {
            if count.fetch_add(1, Ordering::SeqCst) == 0 {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        };
        let mesh_b = tokio::runtime::block_on(TcpMesh::bind_with(1, &addr_b, &[], sink)).unwrap();
        let peers = [(1u64, addr_b)];
        let mesh_a = tokio::runtime::block_on(TcpMesh::bind(0, "127.0.0.1:0", &peers)).unwrap();
        let sending = AtomicBool::new(true);
        let (delivered, holders) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while sending.load(Ordering::Relaxed) {
                    let fill = |encoder: &mut FrameEncoder| {
                        (0..20).try_for_each(|_| encoder.encode(&Hello { text: "more".into() }))
                    };
                    mesh_a.send_with(1, fill).unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            entered.recv().unwrap();
            mesh_b.shutdown();
            release.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            let delivered = received.load(Ordering::SeqCst);
            // The read loop and the accept loop each hold the sink until the
            // runtime drops them.
            let deadline = Instant::now() + Duration::from_secs(10);
            while Arc::strong_count(&received) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            sending.store(false, Ordering::Relaxed);
            (delivered, Arc::strong_count(&received))
        });
        assert_eq!(delivered, 1, "frames delivered, the one under way at shutdown included");
        assert_eq!(holders, 1, "the sink outlived the mesh's shutdown by ten seconds");
    }

    /// A `recv_frame` that `select!` drops while it waits — its waker parked,
    /// and maybe woken by the frame that then arrives — costs no frame: the
    /// next receive returns exactly the next frame sent.
    #[tokio::test]
    async fn a_receive_dropped_while_waiting_loses_no_frame() {
        const FRAMES: u32 = 200;
        let addr_b = free_addr();
        let mesh_a = TcpMesh::bind(0, "127.0.0.1:0", &[(1u64, addr_b.clone())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, &addr_b, &[]).await.unwrap();
        let (mut next, mut dropped) = (0, 0);
        let take = |next: &mut u32, hello: Hello| {
            assert_eq!(hello.text, next.to_string(), "lost, repeated or reordered");
            *next += 1;
        };
        for sent in 0..FRAMES {
            // Before the send and right after it: the first race mostly finds
            // nothing to receive, the second often finds the frame on its way.
            for wait in [Duration::from_millis(1), Duration::ZERO] {
                tokio::select! {
                    received = recv::<Hello>(&mesh_b) => { take(&mut next, received.1) }
                    _ = tokio::time::sleep(wait) => { dropped += 1 }
                }
                if wait > Duration::ZERO {
                    send(&mesh_a, 1, &Hello { text: sent.to_string() });
                }
            }
        }
        while next < FRAMES {
            let (_, hello) = recv::<Hello>(&mesh_b).await;
            take(&mut next, hello);
        }
        assert!(dropped > 0, "no receive was dropped while it waited");
    }

    #[tokio::test]
    async fn send_with_rolls_back_failed_batches() {
        // A value the wire format cannot encode: sequence of unknown length.
        struct Unsized;
        impl Serialize for Unsized {
            fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeSeq;
                let mut seq = serializer.serialize_seq(None)?;
                seq.serialize_element(&1u8)?;
                seq.end()
            }
        }

        let addr_a = "127.0.0.1:39028";
        let addr_b = "127.0.0.1:39029";
        let mesh_a = TcpMesh::bind(0, addr_a, &[(1u64, addr_b.to_string())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, addr_b, &[(0u64, addr_a.to_string())]).await.unwrap();

        // The first frame encodes fine but the batch fails part-way: nothing
        // from the poisoned batch may reach the peer.
        let err = mesh_a
            .send_with(1, |encoder| {
                encoder.encode(&Hello { text: "poisoned".into() })?;
                encoder.encode(&Unsized)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, TransportError::Codec(_)));

        send(&mesh_a, 1, &Hello { text: "clean".into() });
        let (from, hello): (u64, Hello) = recv(&mesh_b).await;
        assert_eq!(from, 0);
        assert_eq!(hello.text, "clean");
    }

    /// The receiver holds every frame until the next one has arrived — as the
    /// engine does, whose worker mailbox still holds a chunk's frames when the
    /// next read begins — so every read finds the frames of the one before it
    /// still live. The decoder continues in recycled buffers instead of fresh
    /// ones: the stream costs two fresh buffers in all, not one per read, and
    /// every frame arrives intact and in order.
    #[tokio::test]
    async fn held_frames_cost_the_read_loop_a_bounded_number_of_buffers() {
        const FRAMES: usize = 2_000;
        let text = |index: usize| format!("{index}:{}", "x".repeat(index % 300));
        let addr_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let addr_b = addr_b.to_string();
        let mesh_a = TcpMesh::bind(0, "127.0.0.1:0", &[(1u64, addr_b.clone())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, &addr_b, &[]).await.unwrap();

        let mut held: Option<(usize, Bytes)> = None;
        for index in 0..FRAMES {
            // One frame in flight at a time, so every frame is a read of its own.
            send(&mesh_a, 1, &Hello { text: text(index) });
            let (from, frame) = mesh_b.recv_frame().await.unwrap();
            assert_eq!(from, 0);
            assert_eq!(wire::from_bytes::<Hello>(&frame).unwrap().text, text(index));
            if let Some((index, previous)) = held.replace((index, frame)) {
                let hello: Hello = wire::from_bytes(&previous).unwrap();
                assert_eq!(hello.text, text(index), "a held frame was overwritten");
            }
        }

        let stats = mesh_b.stats();
        assert!(stats.socket_reads.get() >= FRAMES as u64, "each frame is its own read");
        // The read after the first chunk finds no candidate yet, and the one
        // after the second finds the first chunk's frame still held.
        let allocated = stats.read_buffers_allocated.get();
        assert!(allocated <= 2, "{allocated} fresh read buffers for {FRAMES} reads");
    }

    /// Returns once `mesh`'s connection to `peer` is published and its writer
    /// task owes the socket nothing: from then on, and until a connection
    /// fails, every send is written inline.
    fn wait_for_inline_path(mesh: &TcpMesh, peer: PeerId) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let out = mesh.peers[&peer].out.lock().unwrap();
                if out.stream.is_some() && out.backlog == 0 {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "the connection to {peer} never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Writes made by the writer tasks rather than the sending threads.
    fn task_writes(stats: &MeshStats) -> u64 {
        // Inline first: a write that lands between the two reads then counts
        // for the tasks, never against them.
        let inline = stats.inline_writes.get();
        stats.socket_writes.get() - inline
    }

    #[tokio::test]
    async fn reconnects_after_peer_restart() {
        let addr_a = "127.0.0.1:39026";
        let addr_b = "127.0.0.1:39027";
        let peers_a = vec![(1u64, addr_b.to_string())];
        let peers_b = vec![(0u64, addr_a.to_string())];
        let mesh_a = TcpMesh::bind(0, addr_a, &peers_a).await.unwrap();
        let mesh_b = TcpMesh::bind(1, addr_b, &peers_b).await.unwrap();

        send(&mesh_a, 1, &Hello { text: "before".into() });
        let (_, hello): (u64, Hello) = recv(&mesh_b).await;
        assert_eq!(hello.text, "before");
        wait_for_inline_path(&mesh_a, 1);
        let stats = Arc::clone(mesh_a.stats());
        let task_writes_before = task_writes(&stats);
        // Not 0 if A's first dial came before B was listening.
        let redials_before = stats.reconnect_attempts.get();

        // Restart peer B: the old listener socket closes and a new mesh binds
        // the same address (SO_REUSEADDR). A's writer must redial and deliver.
        drop(mesh_b);
        tokio::time::sleep(Duration::from_millis(50)).await;
        let mesh_b = TcpMesh::bind(1, addr_b, &peers_b).await.unwrap();

        let mut delivered = None;
        for _ in 0..400 {
            // Until the redial, the sends below are all inline (nothing is
            // queued, the old connection is still published): the writer
            // task writes nothing, so it cannot be the one that noticed the
            // dead connection. The failed inline write must have told it.
            let by_tasks = task_writes(&stats);
            if stats.reconnect_attempts.get() == redials_before {
                assert_eq!(by_tasks, task_writes_before, "a writer task wrote before the redial");
            }
            send(&mesh_a, 1, &Hello { text: "after".into() });
            let received = tokio::select! {
                received = recv::<Hello>(&mesh_b) => { Some(received) }
                _ = tokio::time::sleep(Duration::from_millis(25)) => { None }
            };
            if let Some((from, hello)) = received {
                assert_eq!(from, 0);
                delivered = Some(hello.text);
                break;
            }
        }
        assert_eq!(delivered.as_deref(), Some("after"));
        assert!(stats.reconnect_attempts.get() > redials_before);
    }

    /// One frame of a numbered batch: enough to tell, at the far end, whether
    /// any frame was lost, duplicated, reordered within its thread, or
    /// separated from the rest of its batch.
    #[derive(Debug, Serialize, Deserialize)]
    struct Numbered {
        thread: u8,
        batch: u32,
        index: u8,
        of: u8,
        fill: String,
    }

    /// Four threads send to one peer at once, through both write paths. The
    /// peer is a plain socket that reads nothing until every sender is done,
    /// so the kernel's buffers fill (the first batch alone is larger than a
    /// socket buffer can grow), inline writes come back short or `WouldBlock`,
    /// and most of the traffic waits in the writer task's queue; then it
    /// reads with stalls, so the task meets short writes too.
    #[test]
    fn concurrent_senders_keep_batches_whole_and_in_order() {
        use std::io::Read;
        const THREADS: u8 = 4;
        const BATCHES: u32 = 2_000;
        fn frames_in(batch: u32) -> u8 {
            1 + (batch % 3) as u8
        }
        fn fill_len(thread: u8, batch: u32) -> usize {
            match (thread, batch) {
                (0, 0) => 6 << 20,
                (_, batch) if batch % 400 == 399 => 128 << 10,
                (_, batch) => (batch % 7) as usize * 40,
            }
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap().to_string();
        let mesh = tokio::runtime::block_on(TcpMesh::bind(0, "127.0.0.1:0", &[(1, peer_addr)]));
        let mesh = Arc::new(mesh.unwrap());
        let (mut peer, _) = listener.accept().unwrap();
        let mut hello = [0u8; 8];
        peer.read_exact(&mut hello).unwrap();
        assert_eq!(PeerId::from_le_bytes(hello), 0);
        wait_for_inline_path(&mesh, 1);

        let senders: Vec<_> = (0..THREADS)
            .map(|thread| {
                let mesh = Arc::clone(&mesh);
                std::thread::spawn(move || {
                    for batch in 0..BATCHES {
                        let of = frames_in(batch);
                        let fill = "x".repeat(fill_len(thread, batch));
                        mesh.send_with(1, |encoder| {
                            (0..of).try_for_each(|index| {
                                encoder.encode(&Numbered {
                                    thread,
                                    batch,
                                    index,
                                    of,
                                    fill: fill.clone(),
                                })
                            })
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }

        let expected: u64 = (0..BATCHES).map(|batch| u64::from(frames_in(batch))).sum();
        let expected = expected * u64::from(THREADS);
        let mut next_batch = [0u32; THREADS as usize];
        // The batch whose frames are arriving: (thread, batch, next index).
        let mut open: Option<(u8, u32, u8)> = None;
        let mut received = 0u64;
        let mut decoder = FrameDecoder::default();
        while received < expected {
            let count = peer.read(decoder.read_buf(READ_CHUNK)).unwrap();
            assert!(count > 0, "connection closed after {received} of {expected} frames");
            decoder.commit(count);
            while let Some(frame) = decoder.decode_next::<Numbered>().unwrap() {
                let place = (frame.thread, frame.batch, frame.index);
                match open {
                    Some(expected) => assert_eq!(place, expected, "a batch was split"),
                    None => {
                        let batch = next_batch[frame.thread as usize];
                        assert_eq!(place, (frame.thread, batch, 0), "lost, repeated or reordered");
                    }
                }
                assert_eq!(frame.of, frames_in(frame.batch));
                assert_eq!(frame.fill.len(), fill_len(frame.thread, frame.batch));
                open = if frame.index + 1 == frame.of {
                    next_batch[frame.thread as usize] += 1;
                    None
                } else {
                    Some((frame.thread, frame.batch, frame.index + 1))
                };
                received += 1;
                if received.is_multiple_of(2_000) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        assert_eq!(next_batch, [BATCHES; THREADS as usize]);
        assert_eq!(decoder.buffered(), 0, "bytes after the last frame");

        let stats = mesh.stats();
        assert!(stats.inline_writes.get() > 0, "no send took the inline path");
        assert!(task_writes(stats) > 0, "no batch went through the writer task");
        assert_eq!(stats.dropped_batches.get(), 0);
        assert_eq!(stats.reconnect_attempts.get(), 0);
    }

    /// The redial waits: a millisecond first — a peer of a cluster that binds
    /// one node after another is up within a few — then doubling to the cap.
    #[test]
    fn redial_backoff_starts_at_a_millisecond_and_doubles_to_the_cap() {
        let schedule: Vec<u128> = std::iter::successors(Some(RECONNECT_BACKOFF_MIN), |&backoff| {
            Some(next_backoff(backoff))
        })
        .take(11)
        .map(|backoff| backoff.as_millis())
        .collect();
        assert_eq!(schedule, [1, 2, 4, 8, 16, 32, 64, 128, 200, 200, 200]);
    }

    /// A peer that accepts and at once resets must not be redialed in a tight
    /// loop: its connections die too young to reset the backoff.
    #[test]
    fn peer_that_accepts_and_resets_is_redialed_with_backoff() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap();
        let resetter = std::thread::spawn(move || {
            // Ends with the connection that carries the one-byte goodbye.
            for stream in listener.incoming() {
                use std::io::Read;
                let mut first = [0u8; 1];
                if matches!(stream.unwrap().read(&mut first), Ok(1) if first[0] == 0xff) {
                    return;
                }
            }
        });
        let peers = [(1u64, peer_addr.to_string())];
        let mesh = tokio::runtime::block_on(TcpMesh::bind(0, "127.0.0.1:0", &peers)).unwrap();

        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(300) {
            mesh.send_with(1, |encoder| encoder.encode("anyone there?")).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let redials = mesh.stats().reconnect_attempts.get();
        // 1, 2, 4, …, 128 ms apart: about nine in the window.
        assert!((2..=12).contains(&redials), "{redials} redials in 300 ms");

        drop(mesh);
        use std::io::Write;
        std::net::TcpStream::connect(peer_addr).unwrap().write_all(&[0xff]).unwrap();
        resetter.join().unwrap();
    }

    /// What is queued for a peer that is down stays bounded — whole batches
    /// are dropped, newest first, and counted — and once the peer appears the
    /// backlog drains and new sends get through.
    #[tokio::test]
    async fn backlog_to_a_down_peer_is_bounded_and_drains() {
        const CHUNK: usize = 1 << 20;
        // An address nothing listens on yet: bound once to learn a free port.
        let addr_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let addr_b = addr_b.to_string();
        let mesh_a = TcpMesh::bind(0, "127.0.0.1:0", &[(1u64, addr_b.clone())]).await.unwrap();

        let chunk = Hello { text: "b".repeat(CHUNK) };
        let sends = 10 * MAX_BACKLOG_BYTES / CHUNK;
        for _ in 0..sends {
            send(&mesh_a, 1, &chunk);
        }
        let dropped = mesh_a.stats().dropped_batches.get();
        assert!(dropped > 0, "ten times the cap was queued");
        let backlog = mesh_a.peers[&1].out.lock().unwrap().backlog;
        assert!(backlog <= MAX_BACKLOG_BYTES, "{backlog} bytes queued");
        // A frame carries a few bytes beyond its text.
        assert!(backlog > MAX_BACKLOG_BYTES - 2 * CHUNK, "dropped with room to spare");
        assert_eq!(dropped as usize, sends - backlog / CHUNK);

        let mesh_b = TcpMesh::bind(1, &addr_b, &[]).await.unwrap();
        let mut delivered = false;
        'resend: for _ in 0..400 {
            // Dropped while the backlog is still full, delivered once it drains.
            send(&mesh_a, 1, &Hello { text: "after".into() });
            let deadline = tokio::time::sleep(Duration::from_millis(25));
            let mut deadline = std::pin::pin!(deadline);
            loop {
                let received = tokio::select! {
                    received = recv::<Hello>(&mesh_b) => { Some(received) }
                    _ = &mut deadline => { None }
                };
                match received {
                    Some((_, hello)) if hello.text == "after" => {
                        delivered = true;
                        break 'resend;
                    }
                    Some((_, hello)) => assert_eq!(hello.text.len(), CHUNK),
                    None => break,
                }
            }
        }
        assert!(delivered, "nothing got through after the peer came up");
    }
}
