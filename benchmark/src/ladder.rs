//! The layer ladder: each layer measured alone, bottom first, on fixed inputs —
//! CRDT join → wire codec → protocol round → simulated cluster → bare
//! transport → one-replica engine → the cost of recording itself.
//!
//! Nothing here depends on `--seed`: the exact counts (messages, bytes, the
//! simulator's round trips) must repeat from run to run and seed to seed.
//! State sizes are the two per-shard sizes of the workloads: 16 keys
//! (64 keys / 4 shards) and 256 keys (1024 / 4).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{run_sharded_kv, SimConfig};
use crdt::{CounterUpdate, Crdt, DeltaCrdt, GCounter, Lattice, MapUpdate, ReplicaId};
use crdt_paxos_core::{
    ClientId, Message, Payload, ProtocolConfig, RequestId, ShardEnvelope, ShardId, ShardMessage,
    ShardedReplica,
};
use obs::Histogram;
use transport::tcp::TcpMesh;
use wire::framing::{FrameDecoder, FrameEncoder};

use crate::cluster::{free_loopback_addrs, KvMap};
use crate::report::Metric;
use crate::session::{self, Shape};
use crate::spec::{self, Transport, Workload};
use crate::stats::{median, quantile};
use crate::watchdog::Watchdog;

const SMALL_KEYS: u64 = 16;
const BIG_KEYS: u64 = 256;
const SHARDS: u32 = 4;
/// Timed batches per measurement; the reported value is their median.
const BATCHES: usize = 15;
/// Target length of one timed batch.
const BATCH: Duration = Duration::from_millis(3);
/// Seed of the one simulated run.
const SIM_SEED: u64 = 0x5EED_1ADD;

/// Nanoseconds per call of `work`: the median of `BATCHES` timed batches,
/// each long enough (`BATCH`) for the clock's resolution not to matter.
fn time_ns(mut work: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..calls {
            work();
        }
        if started.elapsed() >= BATCH || calls >= 1 << 26 {
            break;
        }
        calls *= 2;
    }
    let batches = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                work();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(batches)
}

/// A shard's state: `keys` counters, each incremented by all three replicas.
fn shard_state(keys: u64) -> KvMap {
    let mut map = KvMap::default();
    for key in 0..keys {
        for replica in 0..3 {
            map.update(key, |counter: &mut GCounter| {
                counter.increment(ReplicaId::new(replica), key + replica + 1)
            });
        }
    }
    map
}

fn crdt_layer(out: &mut Vec<f64>) {
    for keys in [SMALL_KEYS, BIG_KEYS] {
        // What an acceptor does per MERGE: join a peer's state, one update
        // ahead of its own, into its own.
        let mut mine = shard_state(keys);
        let mut theirs = mine.clone();
        theirs.apply(
            ReplicaId::new(1),
            &MapUpdate::Apply { key: keys / 2, update: CounterUpdate::Increment(1) },
        );
        out.push(time_ns(|| mine.join(black_box(&theirs))));
    }
    let big = shard_state(BIG_KEYS);
    out.push(time_ns(|| {
        black_box(black_box(&big).clone());
    }));
    let mut state = big.clone();
    let mut key = 0;
    out.push(time_ns(|| {
        key = (key + 1) % BIG_KEYS;
        state.apply(
            ReplicaId::new(0),
            &MapUpdate::Apply { key, update: CounterUpdate::Increment(1) },
        );
    }));
    let mut ahead = big.clone();
    ahead.apply(
        ReplicaId::new(0),
        &MapUpdate::Apply { key: 7, update: CounterUpdate::Increment(1) },
    );
    out.push(time_ns(|| {
        black_box(black_box(&ahead).delta_since(black_box(&big)));
    }));
}

/// The message every update sends twice: a stamped MERGE carrying the whole
/// shard state (`ProtocolConfig::default()` ships full payloads).
fn merge_message(keys: u64) -> ShardMessage<KvMap> {
    ShardMessage::Protocol {
        epoch: 0,
        shards: SHARDS,
        shard: ShardId(1),
        message: Message::Merge {
            request: RequestId(42),
            payload: Payload::Full(shard_state(keys)),
        },
    }
}

fn wire_layer(out: &mut Vec<f64>) {
    for keys in [SMALL_KEYS, BIG_KEYS] {
        let message = merge_message(keys);
        // Encode as the TCP bridge does: into a recycled encoder whose batch
        // is taken (and here dropped at once, so the buffer comes back).
        let mut encoder = FrameEncoder::new();
        out.push(time_ns(|| {
            encoder.encode(black_box(&message)).expect("encode");
            black_box(encoder.take());
        }));
        encoder.encode(&message).expect("encode");
        let framed = encoder.take();
        // Decode as the read loop and the shard worker do: bytes land in the
        // decoder's buffer, a frame view comes out, and it is decoded in
        // place into a long-lived scratch message.
        let mut decoder = FrameDecoder::default();
        let mut scratch: ShardMessage<KvMap> = ShardMessage::PlanRequest;
        out.push(time_ns(|| {
            decoder.read_buf(framed.len())[..framed.len()].copy_from_slice(&framed);
            decoder.commit(framed.len());
            let view = decoder.decode_next_view().expect("frame").expect("complete frame");
            wire::from_bytes_in_place(&view, &mut scratch).expect("decode");
            black_box(&scratch);
        }));
        out.push(framed.len() as f64);
    }
}

/// Three `ShardedReplica`s pumped by hand, as `alloc_gate` pumps its
/// acceptor: every envelope is delivered at once, in order, no clock.
struct HandPumped {
    replicas: Vec<ShardedReplica<u64, GCounter>>,
    outbox: Vec<ShardEnvelope<KvMap>>,
    encoder: FrameEncoder,
    /// Envelopes delivered and their encoded size, since the last reset.
    messages: u64,
    bytes: u64,
    count_bytes: bool,
}

impl HandPumped {
    fn new(keys: u64) -> HandPumped {
        let members: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
        let replicas = members
            .iter()
            .map(|&id| ShardedReplica::new(id, members.clone(), SHARDS, ProtocolConfig::default()))
            .collect();
        let mut pumped = HandPumped {
            replicas,
            outbox: Vec::new(),
            encoder: FrameEncoder::new(),
            messages: 0,
            bytes: 0,
            count_bytes: false,
        };
        for key in 0..keys {
            pumped.update(key);
        }
        pumped
    }

    fn settle(&mut self) {
        loop {
            for replica in &mut self.replicas {
                replica.drain_outbox_into(&mut self.outbox);
            }
            if self.outbox.is_empty() {
                return;
            }
            for envelope in self.outbox.drain(..) {
                self.messages += 1;
                if self.count_bytes {
                    self.encoder.encode(&envelope.message).expect("encode");
                    self.bytes += self.encoder.take().len() as u64;
                }
                self.replicas[envelope.to.as_u64() as usize]
                    .handle_message(envelope.from, envelope.message);
            }
        }
    }

    fn update(&mut self, key: u64) {
        self.replicas[0].submit_update(ClientId(1), key, CounterUpdate::Increment(1));
        self.settle();
        assert_eq!(self.replicas[0].take_responses().len(), 1, "one update, one reply");
    }

    fn query(&mut self, key: u64) {
        self.replicas[0].submit_query(ClientId(1), key, crdt::CounterQuery::Value);
        self.settle();
        assert_eq!(self.replicas[0].take_responses().len(), 1, "one query, one reply");
    }

    /// `(messages, bytes)` per round over one round per key.
    fn per_round(&mut self, keys: u64, mut round: impl FnMut(&mut HandPumped, u64)) -> (f64, f64) {
        (self.messages, self.bytes, self.count_bytes) = (0, 0, true);
        for key in 0..keys {
            round(self, key);
        }
        self.count_bytes = false;
        (self.messages as f64 / keys as f64, self.bytes as f64 / keys as f64)
    }
}

fn core_layer(out: &mut Vec<f64>) {
    let small_keys = SMALL_KEYS * u64::from(SHARDS);
    let big_keys = BIG_KEYS * u64::from(SHARDS);
    let mut small = HandPumped::new(small_keys);
    let mut big = HandPumped::new(big_keys);
    let mut key = 0;
    out.push(time_ns(|| {
        key = (key + 1) % small_keys;
        small.update(key);
    }));
    out.push(time_ns(|| {
        key = (key + 1) % big_keys;
        big.update(key);
    }));
    out.push(time_ns(|| {
        key = (key + 1) % small_keys;
        small.query(key);
    }));
    let (messages_per_update, bytes_per_update_small) =
        small.per_round(small_keys, HandPumped::update);
    let (messages_per_query, _) = small.per_round(small_keys, HandPumped::query);
    let (_, bytes_per_update_big) = big.per_round(big_keys, HandPumped::update);
    out.extend([
        messages_per_update,
        messages_per_query,
        bytes_per_update_small,
        bytes_per_update_big,
    ]);
}

/// One seeded run of the simulator in the shape of `tcp_contended`: one key,
/// clients on every replica, 90 % reads. Under the simulated clock the counts
/// repeat exactly.
fn cluster_layer(out: &mut Vec<f64>) {
    let config = SimConfig {
        replicas: 3,
        clients: 16,
        read_fraction: 0.9,
        keyspace: 1,
        duration_ms: 500,
        warmup_ms: 50,
        seed: SIM_SEED,
        measure_wire_bytes: true,
        ..SimConfig::default()
    };
    let result = run_sharded_kv(&config, ProtocolConfig::default(), 1);
    let reads: u64 = result.read_round_trips.values().sum();
    let round_trips: u64 = result.read_round_trips.iter().map(|(&rt, &n)| u64::from(rt) * n).sum();
    // A read that needs more than the vote's two round trips retried its
    // prepare once per extra round trip.
    let retries: u64 =
        result.read_round_trips.iter().map(|(&rt, &n)| u64::from(rt.saturating_sub(2)) * n).sum();
    let messages: u64 = result.wire.per_kind.values().map(|kind| kind.messages).sum();
    // `wire` covers the whole run, warm-up included; so must the divisor.
    let ops = (result.completed_reads + result.completed_updates) as f64
        * config.duration_ms as f64
        / (config.duration_ms - config.warmup_ms) as f64;
    out.extend([
        round_trips as f64 / reads.max(1) as f64,
        result.read_fraction_within(3),
        messages as f64 / ops,
        result.wire.total_bytes() as f64 / ops,
        retries as f64 / ops,
    ]);
}

/// Two bare `TcpMesh` endpoints, ~64-byte frames, no engine: the round trip
/// of one frame, and how many frames per second one connection streams.
fn transport_layer(out: &mut Vec<f64>) -> Result<(), String> {
    const ECHOES: usize = 3_000;
    const STREAMED: u64 = 200_000;
    const PER_SEND: u64 = 50;
    // 59 payload bytes + 1 length byte + 4 frame-header bytes = 64 on the wire.
    let echo = "e".repeat(59);
    let stream = "s".repeat(59);
    let addrs = free_loopback_addrs(2)?;
    let bind = |id: u64| {
        tokio::runtime::block_on(TcpMesh::bind(id, &addrs[id as usize].1, &addrs))
            .map(Arc::new)
            .map_err(|err| format!("bind {}: {err}", addrs[id as usize].1))
    };
    let (near, far) = (bind(0)?, bind(1)?);
    // The far end echoes 'e' frames and counts 's' frames, answering once
    // when the whole stream has arrived.
    let responder = {
        let (far, echo) = (Arc::clone(&far), echo.clone());
        tokio::spawn(async move {
            let mut streamed = 0;
            while let Ok((_, frame)) = far.recv_frame().await {
                if frame.last() == Some(&b's') {
                    streamed += 1;
                    if streamed < STREAMED {
                        continue;
                    }
                }
                if far.send_with(0, |encoder| encoder.encode(echo.as_str())).is_err() {
                    return;
                }
            }
        })
    };
    // Sends `sends` batches of `frames` frames, then waits for the one answer.
    let exchange = |payload: &str, sends: u64, frames: u64| -> Result<u64, String> {
        let started = Instant::now();
        for _ in 0..sends {
            near.send_with(1, |encoder| (0..frames).try_for_each(|_| encoder.encode(payload)))
                .map_err(|err| format!("send: {err}"))?;
        }
        tokio::runtime::block_on(near.recv_frame()).map_err(|err| format!("recv: {err}"))?;
        Ok(started.elapsed().as_nanos() as u64)
    };
    let measure = || -> Result<(f64, f64), String> {
        for _ in 0..ECHOES / 10 {
            exchange(&echo, 1, 1)?;
        }
        let mut rtts =
            (0..ECHOES).map(|_| exchange(&echo, 1, 1)).collect::<Result<Vec<u64>, String>>()?;
        let streaming = exchange(&stream, STREAMED / PER_SEND, PER_SEND)?;
        Ok((
            quantile(&mut rtts, 0.5).0 as f64 / 1_000.0,
            STREAMED as f64 / (streaming as f64 / 1e9),
        ))
    };
    let measured = measure();
    responder.abort();
    near.shutdown();
    far.shutdown();
    let (rtt_us, frames_per_second) = measured?;
    out.extend([rtt_us, frames_per_second]);
    Ok(())
}

/// One replica, no peers: what the engine's own hand-offs cost when a quorum
/// is the node itself. Throughput at 64 in flight, latency at 1.
fn engine_layer(out: &mut Vec<f64>, watchdog: &Watchdog) -> Result<(), String> {
    let solo = Workload {
        name: "layers",
        why: "",
        transport: Transport::InProcess,
        replicas: 1,
        keys: 64,
        shards: SHARDS,
        in_flight: 64,
        read_pct: 50,
        proposers: 1,
    };
    let shape = Shape { seed: SIM_SEED, seconds: 1, warmup_commands: 2048, setups: 1 };
    for in_flight in [64, 1] {
        let workload = Workload { in_flight, ..solo };
        let (mut client, _) = session::set_up(&workload, &shape, None, watchdog)?;
        client.measure(shape.seconds, Duration::from_secs(5), None);
        client.cluster.shutdown();
        out.push(if in_flight == 64 {
            client.measured.throughput()
        } else {
            client.measured.latency(0.5, |second| &mut second.update_ns).0 / 1e3
        });
    }
    Ok(())
}

fn obs_layer(out: &mut Vec<f64>) {
    let histogram = Histogram::new();
    let mut value = 1u64;
    out.push(time_ns(|| {
        // Latency-like values spread over a few hundred buckets.
        value = value.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        histogram.record(black_box(value >> 44));
    }));
}

/// Every `spec::LADDER` metric, in order.
pub fn run(watchdog: &Watchdog) -> Result<Vec<Metric>, String> {
    watchdog.phase("layers: ladder".into(), Duration::from_secs(20));
    let mut values = Vec::with_capacity(spec::LADDER.len());
    crdt_layer(&mut values);
    wire_layer(&mut values);
    core_layer(&mut values);
    cluster_layer(&mut values);
    transport_layer(&mut values)?;
    engine_layer(&mut values, watchdog)?;
    obs_layer(&mut values);
    assert_eq!(values.len(), spec::LADDER.len(), "one value per ladder metric");
    Ok(spec::LADDER
        .iter()
        .zip(values)
        .map(|(metric, value)| Metric { name: metric.name, value, unit: metric.unit })
        .collect())
}
