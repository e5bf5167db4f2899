//! Figure 10 (extension beyond the paper): where a command's latency goes,
//! stage by stage, in the thread-per-shard engine over real loopback TCP.
//!
//! fig8 reports end-to-end client latency; this report opens the box. A
//! 3-replica engine cluster runs over `transport::tcp::TcpMesh` sockets with
//! observability recording fully enabled — per-stage histograms, runtime
//! counters, and 1-in-N trace sampling — and a pipelined client drives node 0
//! through the fig9 50/50 update/read workload. Afterwards the report prints:
//!
//! * the per-stage latency table (mean/p50/p99 per instrumentation station:
//!   submit queue, router ingress, mailbox dwell, in-place decode, protocol
//!   step, quorum wait, reply encode, socket write),
//! * the runtime introspection counters (router/worker parks, queue-depth
//!   high-water marks, late replies dropped undecoded and undecodable frames,
//!   mesh reconnects and coalescing shape, reactor readiness syscalls),
//! * real-clock client latency percentiles from an `obs::Histogram`,
//! * reconstructed timelines of the slowest sampled commands.
//!
//! Every number comes from the same allocation-free instruments the engine
//! ships with — this binary only snapshots and formats them, which doubles as
//! an end-to-end accounting audit of the instrumentation itself.
//!
//! Flags: `--quick` shortens the run (used by CI); `--check` exits non-zero
//! unless the run is clean (zero lost, zero duplicated replies) and the stage
//! accounting is exact: the submit-queue and quorum-wait histograms must each
//! have recorded exactly one sample per committed command, and every stage of
//! the command path must have data. The checks are pure accounting, so they
//! hold on any core count.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crdt::{CounterQuery, CounterUpdate, GCounter, MapQuery, MapUpdate};
use crdt_paxos_core::{ClientId, Command, ProtocolConfig};
use engine::{EngineNode, TcpNode};
use obs::{assemble_timelines, Histogram, ObsSnapshot, Stage, TraceConfig};

/// Keys spread uniformly over the keyspace; the fig9 workload.
const KEYS: u64 = 64;
/// Commands kept in flight by the pipelined client.
const WINDOW: usize = 64;
/// Shards per engine replica.
const SHARDS: u32 = 4;
/// One in this many commands logs trace events at every station it passes.
const TRACE_SAMPLE: u64 = 16;
/// Slots per per-thread trace ring.
const TRACE_CAPACITY: usize = 4096;
/// How long the drain may take before in-flight commands count as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Boots the 3-replica TCP cluster. Every node records stage histograms and
/// counters (always on), its mesh's socket-side stats included; node 0
/// additionally samples traces.
async fn start_cluster(mesh_addrs: Vec<(u64, String)>) -> Vec<TcpNode<u64, GCounter>> {
    let mut replicas = Vec::new();
    for (id, listen) in &mesh_addrs {
        let trace = if *id == 0 {
            TraceConfig::sampled(TRACE_SAMPLE, TRACE_CAPACITY)
        } else {
            TraceConfig::disabled()
        };
        let config = ProtocolConfig::default();
        let node = TcpNode::bind(*id, listen, &mesh_addrs, SHARDS, config, trace).await;
        replicas.push(node.expect("bind replica mesh"));
    }
    replicas
}

struct RunResult {
    committed: u64,
    lost: u64,
    duplicated: u64,
    elapsed: Duration,
}

/// Drives node 0 with the pipelined 50/50 workload for `duration`, recording
/// each command's real-clock latency into `latency`, then drains every
/// in-flight command.
fn drive(node: &EngineNode<u64, GCounter>, duration: Duration, latency: &Histogram) -> RunResult {
    let client = ClientId(1);
    let mut inflight: BTreeMap<_, Instant> = BTreeMap::new();
    let mut committed = 0u64;
    let mut duplicated = 0u64;
    let mut sequence = 0u64;
    let start = Instant::now();
    let deadline = start + duration;
    let settle = |inflight: &mut BTreeMap<_, Instant>, duplicated: &mut u64| {
        let response = node.wait_response(Duration::from_millis(1))?;
        match inflight.remove(&response.command) {
            Some(submitted) => {
                latency.record(submitted.elapsed().as_nanos() as u64);
                Some(1u64)
            }
            None => {
                *duplicated += 1;
                Some(0)
            }
        }
    };
    while Instant::now() < deadline {
        while inflight.len() < WINDOW {
            let key = sequence.wrapping_mul(0x9E3779B97F4A7C15) % KEYS;
            let command = if sequence.is_multiple_of(2) {
                Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(1) })
            } else {
                Command::Query(MapQuery::Get { key, query: CounterQuery::Value })
            };
            sequence += 1;
            let submitted = Instant::now();
            inflight.insert(node.submit(client, command), submitted);
        }
        if let Some(done) = settle(&mut inflight, &mut duplicated) {
            committed += done;
        }
    }
    let elapsed = start.elapsed();
    // Drain: every submitted command must still complete exactly once.
    let grace = Instant::now() + DRAIN_GRACE;
    while !inflight.is_empty() && Instant::now() < grace {
        if let Some(done) = settle(&mut inflight, &mut duplicated) {
            committed += done;
        }
    }
    RunResult { committed, lost: inflight.len() as u64, duplicated, elapsed }
}

/// One probe command end to end, proving the meshes connected and a quorum is
/// answering, so the measured window starts on a warm cluster.
fn warmup(node: &EngineNode<u64, GCounter>) -> bool {
    let give_up = Instant::now() + Duration::from_secs(30);
    let probe = ClientId(999_000_000);
    let mut outstanding = 0u32;
    while Instant::now() < give_up {
        node.submit(
            probe,
            Command::Update(MapUpdate::Apply { key: 0, update: CounterUpdate::Increment(1) }),
        );
        outstanding += 1;
        if node.wait_response(Duration::from_millis(200)).is_some() {
            outstanding -= 1;
            // Absorb any probes answered late so the measured run starts with
            // an empty response queue.
            while outstanding > 0 {
                if node.wait_response(Duration::from_millis(200)).is_some() {
                    outstanding -= 1;
                }
                if Instant::now() > give_up {
                    return false;
                }
            }
            return true;
        }
    }
    false
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

fn print_stage_table(snapshot: &ObsSnapshot) {
    println!();
    println!("-- node 0 per-stage latency (merged across router and workers) --");
    println!(
        "{:>16} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "stage", "samples", "mean(us)", "p50(us)", "p99(us)", "max(us)"
    );
    for stage in Stage::ALL {
        print_stage_row(snapshot, stage);
    }
}

fn print_stage_row(snapshot: &ObsSnapshot, stage: Stage) {
    let Some(histogram) = snapshot.histogram(&format!("stage_{}_nanos", stage.name())) else {
        return;
    };
    if histogram.is_empty() {
        println!("{:>16} {:>10} {:>12} {:>12} {:>12} {:>12}", stage.name(), 0, "-", "-", "-", "-");
        return;
    }
    println!(
        "{:>16} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
        stage.name(),
        histogram.count(),
        us(histogram.mean()),
        us(histogram.p50()),
        us(histogram.p99()),
        us(histogram.max()),
    );
}

fn print_counters(snapshot: &ObsSnapshot, polls: u64, backend: &str) {
    println!();
    println!("-- node 0 runtime counters --");
    println!("  router parks                {:>12}", snapshot.counter("router_parks"));
    println!("  worker parks                {:>12}", snapshot.counter("worker_parks"));
    println!("  router ingress depth (hwm)  {:>12}", snapshot.highwater("router_ingress_depth"));
    println!("  submit queue depth (hwm)    {:>12}", snapshot.highwater("submit_queue_depth"));
    println!("  router feedback depth (hwm) {:>12}", snapshot.highwater("router_feedback_depth"));
    println!("  worker mailbox depth (hwm)  {:>12}", snapshot.highwater("worker_mailbox_depth"));
    println!("  late replies skipped        {:>12}", snapshot.counter("replies_skipped"));
    println!("  frames undecodable          {:>12}", snapshot.counter("frames_undecodable"));
    println!("  mesh socket writes          {:>12}", snapshot.counter("mesh_socket_writes"));
    println!("    of which inline           {:>12}", snapshot.counter("mesh_inline_writes"));
    println!("  mesh dropped batches        {:>12}", snapshot.counter("mesh_dropped_batches"));
    println!("  mesh reconnect attempts     {:>12}", snapshot.counter("mesh_reconnect_attempts"));
    if let Some(frames) = snapshot.histogram("mesh_frames_per_batch") {
        if !frames.is_empty() {
            println!(
                "  frames per coalesced write  {:>12.1} mean ({} max)",
                frames.mean(),
                frames.max()
            );
        }
    }
    if let Some(bytes) = snapshot.histogram("mesh_batch_bytes") {
        if !bytes.is_empty() {
            println!(
                "  bytes per coalesced write   {:>12.1} mean ({} max)",
                bytes.mean(),
                bytes.max()
            );
        }
    }
    println!("  reactor poll syscalls       {:>12} ({backend})", polls);
}

fn print_timelines(node: &EngineNode<u64, GCounter>) {
    let events = node.trace_events();
    let timelines = assemble_timelines(&events);
    println!();
    println!(
        "-- slowest sampled commands (1 in {} traced, {} events captured) --",
        TRACE_SAMPLE,
        events.len()
    );
    for timeline in timelines.iter().take(5) {
        let mut line =
            format!("  command {:>8} span {:>9.1}us:", timeline.command, us(timeline.span_nanos()));
        let mut previous = None;
        for (stage, at) in &timeline.events {
            match previous {
                None => line.push_str(&format!(" {}", stage.name())),
                Some(before) => line.push_str(&format!(
                    " -> (+{:.1}us) {}",
                    us(at.saturating_sub(before)),
                    stage.name()
                )),
            }
            previous = Some(*at);
        }
        println!("{line}");
    }
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let check = std::env::args().any(|arg| arg == "--check");
    let duration = if quick { Duration::from_millis(750) } else { Duration::from_millis(3000) };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "== fig10: per-stage latency breakdown, 3 engine replicas over loopback TCP \
         ({KEYS} keys, {SHARDS} shards, window {WINDOW}, {} ms run, {cores} core(s)) ==",
        duration.as_millis()
    );

    let mesh_addrs: Vec<(u64, String)> =
        (0..3u64).map(|id| (id, format!("127.0.0.1:{}", 21401 + id as u16))).collect();

    // The replicas' socket tasks run on the shim's shared worker pool, so
    // the blocking driver below can own the main thread.
    let replicas = tokio::runtime::block_on(start_cluster(mesh_addrs));
    assert!(warmup(&replicas[0]), "cluster did not come up");
    eprintln!("[fig10] warmed up, driving for {} ms", duration.as_millis());
    // The warmup probes went through the same stations; the accounting check
    // below compares against this baseline so it covers exactly the measured
    // run.
    let baseline = replicas[0].obs_snapshot();

    let latency = Histogram::new();
    let result = drive(&replicas[0], duration, &latency);
    let snapshot = replicas[0].obs_snapshot();
    let acceptor_snapshot = replicas[1].obs_snapshot();
    let (polls, backend) = tokio::reactor_stats();
    print_timelines(&replicas[0]);
    for replica in replicas {
        replica.shutdown();
    }

    println!();
    println!(
        "committed {} ops in {:.1}s ({:.0} ops/s), {} lost, {} duplicated",
        result.committed,
        result.elapsed.as_secs_f64(),
        result.committed as f64 / result.elapsed.as_secs_f64(),
        result.lost,
        result.duplicated,
    );
    let client = latency.snapshot();
    println!(
        "client latency: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  p99.9 {:.1}us  (n={})",
        us(client.p50()),
        us(client.p90()),
        us(client.p99()),
        us(client.p999()),
        client.count(),
    );

    print_stage_table(&snapshot);
    // Node 0 proposes, so half of what it decodes are state-less `MERGED`s
    // and its median decode is one of those; node 1 only accepts, and every
    // frame it decodes carries a state.
    println!("-- node 1 (acceptor only) --");
    print_stage_row(&acceptor_snapshot, Stage::Decode);
    print_counters(&snapshot, polls, backend);

    if check {
        let mut failed = false;
        if result.lost > 0 || result.duplicated > 0 || result.committed == 0 {
            eprintln!(
                "ACCEPTANCE FAILED: {} committed, {} lost, {} duplicated (need clean > 0)",
                result.committed, result.lost, result.duplicated
            );
            failed = true;
        }
        // Exact stage accounting: node 0 is the only submit ingress and no
        // rebalance runs, so the submit-queue and quorum-wait histograms must
        // have seen exactly one sample per completed command — any drift means
        // a lost or double-counted measurement.
        for name in ["stage_submit_queue_nanos", "stage_quorum_wait_nanos"] {
            let samples = snapshot.histogram(name).map(|h| h.count()).unwrap_or(0)
                - baseline.histogram(name).map(|h| h.count()).unwrap_or(0);
            if samples != result.committed {
                eprintln!(
                    "ACCEPTANCE FAILED: {name} recorded {samples} samples for {} committed \
                     commands",
                    result.committed
                );
                failed = true;
            }
        }
        // Every station on the command path must have data, including the
        // frame decode (peer acks arrive encoded) and the mesh's socket
        // writes.
        for stage in Stage::ALL {
            let name = format!("stage_{}_nanos", stage.name());
            if snapshot.histogram(&name).map(|h| h.count()).unwrap_or(0) == 0 {
                eprintln!("ACCEPTANCE FAILED: no samples recorded for {name}");
                failed = true;
            }
        }
        if client.count() != result.committed {
            eprintln!(
                "ACCEPTANCE FAILED: client latency histogram holds {} samples for {} committed",
                client.count(),
                result.committed
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!();
        println!("CHECK PASSED: clean run, every stage populated, submit/quorum accounting exact");
    }
}
