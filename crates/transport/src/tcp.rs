//! Tokio TCP mesh transport with coalesced, length-prefixed wire framing.
//!
//! Each replica runs a [`TcpMesh`]: it listens on its own address and owns one
//! persistent outbound connection per peer, dialed lazily and redialed (with
//! backoff) whenever it drops — a peer restart heals without intervention.
//!
//! The write side has one buffer per peer and one write routine. Each peer's
//! recycled [`FrameEncoder`] holds the only copy of its unsent bytes: messages
//! serialize straight into it, and every write takes all of them that are not
//! yet written with one non-blocking `try_write`, leaving in place whatever the
//! kernel refuses. While the connection is up and nothing is left over, the
//! sender writes its batch itself, under the peer's lock (no task, no
//! wake-up), and empties the buffer in place — zero allocations per batch.
//! Bytes the socket refuses, and everything sent while the peer is being
//! dialed, stay in the buffer for the peer's writer task, which waits for the
//! socket to take more and then writes whatever has piled up meanwhile as one
//! write, so under load the syscall and wakeup cost is amortized over many
//! messages. The buffer is bounded (`MAX_BACKLOG_BYTES`): batches that would
//! pass the bound are dropped and counted, like any lost message. The read
//! side mirrors this: the socket reads land directly in the frame decoder's
//! buffer (no staging chunk), and each complete frame goes straight to the
//! mesh's sink (see [`TcpMesh::bind_with`]) as a refcounted [`Bytes`] view of
//! that buffer — the inbound path writes each payload byte exactly once.
//! Those views are still held when the next read begins, so the decoder
//! continues in a recycled buffer whose frames have all been dropped: in
//! steady state a read allocates nothing and zero-fills nothing
//! ([`MeshStats::read_buffers_allocated`] counts the reads that had to).
//! [`TcpMesh::send_with`] hands callers the raw encoder, so one
//! call may batch any number of frames.

use std::collections::HashMap;
use std::future::poll_fn;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use bytes::Bytes;
use obs::{Counter, Histogram, ObsRegistry, Stopwatch};
use tokio::io::AsyncReadExt;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;
use wire::framing::{FrameDecoder, FrameEncoder};

use crate::{PeerId, TransportError};

/// Most bytes a peer's buffer may hold, the written head of a partly written
/// buffer included, while the peer is down or slow. A batch that would take
/// the buffer past this is dropped (newest first) and counted in
/// [`MeshStats::dropped_batches`]; the protocol retransmits on its tick, like
/// after any lost message. A batch that finds the buffer empty is always
/// taken, whatever its size.
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

/// Outbound state for one peer, under one lock that is held only across a
/// synchronous encode and at most one non-blocking write — never an await —
/// so a blocking mutex is cheaper than an async one here.
///
/// The lock is what keeps the socket to one writer at a time with bytes in
/// order: whoever holds it writes from the head of the one buffer. A sender
/// writes only if the buffer was empty before its batch; while bytes are left
/// over, the writer task owes them to the socket and senders only append.
#[derive(Debug, Default)]
struct Outbound {
    /// The unsent bytes, whole frames from the start: the first `written` of
    /// them are on the wire already. Emptied once all are.
    encoder: FrameEncoder,
    written: usize,
    /// The live connection, published by the writer task once the hello is
    /// out; `None` while it dials. A failed write clears it, and the task
    /// redials.
    stream: Option<Arc<TcpStream>>,
    /// The writer task, parked until bytes are left over or the connection
    /// fails.
    writer: Option<Waker>,
}

impl Outbound {
    /// Writes everything not yet written with one `try_write`, leaving in
    /// place whatever the socket refuses — the mesh's one write of frames,
    /// by the sending thread (`inline`) and by the writer task alike. A write
    /// that empties the buffer resets it in place and completes its frames.
    /// A failed one unpublishes the connection and loses what the buffer
    /// held, so bytes appended afterwards start a frame on the next one.
    fn flush(&mut self, stats: &MeshStats, inline: bool) {
        let Some(stream) = &self.stream else { return };
        let unwritten = &self.encoder.bytes()[self.written..];
        let write = Stopwatch::start();
        match stream.try_write(unwritten) {
            Ok(count) if count > 0 => {
                stats.record_write(&write, count, inline);
                if count < unwritten.len() {
                    self.written += count;
                    return;
                }
                stats.frames_per_batch.record(self.encoder.frames());
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
            // Failed, or a socket that takes no bytes at all.
            _ => self.stream = None,
        }
        self.encoder.truncate(0);
        self.written = 0;
    }
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
    /// The share of `socket_writes` made by the sending thread itself, under
    /// the peer's lock; the rest are the writer tasks' flushes of what the
    /// socket refused before.
    pub inline_writes: Arc<Counter>,
    /// Batches dropped because the peer's buffer was full.
    pub dropped_batches: Arc<Counter>,
    /// Frames each write completed (a short write completes none: the write
    /// that empties the peer's buffer counts every frame it held).
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
    peers: HashMap<PeerId, Arc<Mutex<Outbound>>>,
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
            let out = Arc::new(Mutex::new(Outbound::default()));
            tasks.track(tokio::spawn(write_loop(id, addr, Arc::clone(&out), Arc::clone(&stats))));
            outgoing.insert(peer, out);
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

    /// Encodes directly into `peer`'s buffer and sends the result: written to
    /// the socket from this thread when the connection is up and nothing is
    /// left over from earlier batches, left to the peer's writer task
    /// otherwise. `fill` may encode any number of frames via
    /// [`FrameEncoder::encode`]; this is the mesh's one, allocation-free way
    /// to send — synchronous (it never waits for the socket), so threads
    /// outside the runtime can call it too.
    ///
    /// # Errors
    ///
    /// Returns an error if the peer is unknown, `fill` fails (the batch is
    /// rolled back — nothing is sent, and the encoder stays clean for the
    /// next call), or the mesh has shut down. A batch lost with its
    /// connection, or dropped because the peer's buffer is full, is not an
    /// error: it is a lost message.
    pub fn send_with(
        &self,
        peer: PeerId,
        fill: impl FnOnce(&mut FrameEncoder) -> wire::Result<()>,
    ) -> Result<(), TransportError> {
        let out = self.peers.get(&peer).ok_or(TransportError::UnknownPeer(peer))?;
        if self.tasks.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let mut out = out.lock().expect("peer lock poisoned");
        let start = out.encoder.len();
        if let Err(err) = fill(&mut out.encoder) {
            out.encoder.truncate(start);
            return Err(err.into());
        }
        if start > 0 {
            // The writer task owes the socket the bytes ahead: this batch
            // waits behind them.
            if out.encoder.len() > MAX_BACKLOG_BYTES {
                out.encoder.truncate(start);
                self.stats.dropped_batches.incr();
            }
        } else if !out.encoder.is_empty() && out.stream.is_some() {
            out.flush(&self.stats, true);
            if !out.encoder.is_empty() || out.stream.is_none() {
                // Left over, or the connection failed: the writer task's turn.
                if let Some(writer) = out.writer.take() {
                    writer.wake();
                }
            }
        }
        Ok(())
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
        for out in self.peers.values() {
            if let Ok(mut out) = out.lock() {
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
/// backoff and publishes the connection for the senders, then, whenever they
/// leave bytes over, waits for the socket to take more and flushes the
/// peer's buffer through the same [`Outbound::flush`]. Runs until the mesh
/// shuts down.
async fn write_loop(id: PeerId, addr: String, out: Arc<Mutex<Outbound>>, stats: Arc<MeshStats>) {
    let mut backoff = RECONNECT_BACKOFF_MIN;
    let mut first_dial = true;
    loop {
        if !first_dial {
            stats.reconnect_attempts.incr();
        }
        first_dial = false;
        let connected_at = Instant::now();
        let connected = match TcpStream::connect(&addr).await {
            // Identify ourselves: a fresh socket takes the 8-byte hello at
            // once, or the dial failed.
            Ok(stream) if matches!(stream.try_write(&id.to_le_bytes()), Ok(8)) => Some(stream),
            _ => None,
        };
        if let Some(stream) = connected {
            let stream = Arc::new(stream);
            out.lock().expect("peer lock poisoned").stream = Some(Arc::clone(&stream));
            // Until a write fails: wait for left-over bytes (those sent while
            // dialing included), then for the socket, and flush.
            while left_over(&out).await {
                stream.writable().await.ok();
                let mut out = out.lock().expect("peer lock poisoned");
                out.flush(&stats, false);
                if out.encoder.is_empty() {
                    // What a backlog grew is not kept resident.
                    out.encoder = FrameEncoder::default();
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

/// Waits until the peer's connection has bytes left over (`true`) or has
/// failed (`false`), parking the writer task's waker in `out` meanwhile.
async fn left_over(out: &Mutex<Outbound>) -> bool {
    poll_fn(|cx| {
        let mut out = out.lock().expect("peer lock poisoned");
        if out.stream.is_none() {
            Poll::Ready(false)
        } else if !out.encoder.is_empty() {
            Poll::Ready(true)
        } else {
            out.writer = Some(cx.waker().clone());
            Poll::Pending
        }
    })
    .await
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
        let (addr_a, addr_b) = (free_addr(), free_addr());
        let mesh_a = TcpMesh::bind(0, &addr_a, &[(1u64, addr_b.clone())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, &addr_b, &[(0u64, addr_a)]).await.unwrap();

        send(&mesh_a, 1, &Hello { text: "hi".into() });
        let (from, hello): (u64, Hello) = recv(&mesh_b).await;
        assert_eq!(from, 0);
        assert_eq!(hello, Hello { text: "hi".into() });

        send(&mesh_b, 0, &Hello { text: "yo".into() });
        let (from, hello): (u64, Hello) = recv(&mesh_a).await;
        assert_eq!(from, 1);
        assert_eq!(hello.text, "yo");

        mesh_a.shutdown();
        let err = mesh_a.send_with(1, |encoder| encoder.encode(&Hello { text: "late".into() }));
        assert!(matches!(err, Err(TransportError::Closed)));
        assert!(matches!(mesh_a.recv_frame().await, Err(TransportError::Closed)));
    }

    #[tokio::test]
    async fn sending_to_unknown_peer_fails() {
        let mesh = TcpMesh::bind(7, "127.0.0.1:0", &[]).await.unwrap();
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

        let (addr_a, addr_b) = (free_addr(), free_addr());
        let mesh_a = TcpMesh::bind(0, &addr_a, &[(1u64, addr_b.clone())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, &addr_b, &[(0u64, addr_a)]).await.unwrap();

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

    /// Returns once `mesh`'s connection to `peer` is published and nothing is
    /// left over in its buffer: from then on, and until the socket refuses
    /// bytes or a connection fails, every send is written inline.
    fn wait_for_inline_path(mesh: &TcpMesh, peer: PeerId) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let out = mesh.peers[&peer].lock().unwrap();
                if out.stream.is_some() && out.encoder.is_empty() {
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
        let (addr_a, addr_b) = (free_addr(), free_addr());
        let peers_b = [(0u64, addr_a.clone())];
        let mesh_a = TcpMesh::bind(0, &addr_a, &[(1u64, addr_b.clone())]).await.unwrap();
        let mesh_b = TcpMesh::bind(1, &addr_b, &peers_b).await.unwrap();

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
        let mesh_b = TcpMesh::bind(1, &addr_b, &peers_b).await.unwrap();

        let mut delivered = None;
        for _ in 0..400 {
            // Until the redial, the sends below are all inline (nothing is
            // left over, the old connection is still published): the writer
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

    /// Four threads send to one peer at once, both inline and behind bytes
    /// the socket refused. The peer is a plain socket that reads nothing
    /// until every sender is done, so the kernel's buffers fill (the first
    /// batch alone is larger than a socket buffer can grow), inline writes
    /// come back short or `WouldBlock`, and most of the traffic waits in the
    /// peer's buffer for the writer task; then it reads with stalls, so the
    /// task meets short writes too.
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

    /// What waits for a peer that is down stays bounded — whole batches are
    /// dropped, newest first, and counted — and once the peer appears the
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
        let backlog = {
            let out = mesh_a.peers[&1].lock().unwrap();
            out.encoder.len() - out.written
        };
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

    /// A connection that fails part-way through a batch takes the rest of it
    /// along: the next connection starts at a frame. The peer is a plain
    /// socket that reads part of a batch far larger than the kernel's buffers,
    /// then closes with the rest unread, which resets the connection. From
    /// the redial's hello on, every byte must decode as a whole frame, and a
    /// frame sent after the redial must arrive.
    #[test]
    fn a_redial_after_a_partial_batch_starts_at_a_frame() {
        use std::io::Read;
        const CHUNK: usize = 1 << 20;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap().to_string();
        let mesh = tokio::runtime::block_on(TcpMesh::bind(0, "127.0.0.1:0", &[(1, peer_addr)]));
        let mesh = mesh.unwrap();
        let accept_hello = || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut hello = [0u8; 8];
            peer.read_exact(&mut hello).unwrap();
            assert_eq!(PeerId::from_le_bytes(hello), 0, "a connection starts with the hello");
            peer
        };
        let mut first = accept_hello();

        let chunk = Hello { text: "b".repeat(CHUNK) };
        mesh.send_with(1, |encoder| (0..24).try_for_each(|_| encoder.encode(&chunk))).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let mut read = 0;
        while read < 3 * CHUNK / 2 {
            let count = first.read(&mut buf).unwrap();
            assert!(count > 0, "the first connection closed early");
            read += count;
        }
        drop(first);

        let mut second = accept_hello();
        second.set_read_timeout(Some(Duration::from_millis(25))).unwrap();
        let mut decoder = FrameDecoder::default();
        let deadline = Instant::now() + Duration::from_secs(10);
        'resend: loop {
            assert!(Instant::now() < deadline, "nothing sent after the redial arrived");
            send(&mesh, 1, &Hello { text: "after".into() });
            loop {
                let count = match second.read(decoder.read_buf(READ_CHUNK)) {
                    Ok(count) => count,
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == std::io::ErrorKind::TimedOut => break,
                    Err(err) => panic!("the second connection failed: {err}"),
                };
                assert!(count > 0, "the second connection closed");
                decoder.commit(count);
                while let Some(hello) = decoder.decode_next::<Hello>().expect("a whole frame") {
                    if hello.text == "after" {
                        break 'resend;
                    }
                    assert_eq!(hello.text, chunk.text, "a frame that was never sent");
                }
            }
        }
    }
}
