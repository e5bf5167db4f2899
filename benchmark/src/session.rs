//! One workload from boot to verdict, with tracing off (the end-to-end
//! metrics) or on (the per-layer metrics of the traced run).
//!
//! Every cluster goes through the same life: boot → probe → pre-populate →
//! warm-up → [measured window] → drain → shut down → check the history.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::ObsSnapshot;

use crate::cluster::{Cluster, TRACE_SAMPLE};
use crate::drive::{Client, Measured};
use crate::hostspeed::{self, Probe};
use crate::procstat;
use crate::report::{Metric, Report};
use crate::spec::{self, Workload};
use crate::stats::median;
use crate::trace::{Tracer, Window};
use crate::verify;
use crate::watchdog::Watchdog;

/// Time budgets of the phases (the watchdog allows three times each).
const BOOT_BUDGET: Duration = Duration::from_secs(10);
/// The probe's own ceiling; it gives up by itself before the watchdog does.
const PROBE_CEILING: Duration = Duration::from_secs(30);
const PREPOPULATE_BUDGET: Duration = Duration::from_secs(10);
const WARMUP_BUDGET: Duration = Duration::from_secs(10);
const DRAIN_GRACE: Duration = Duration::from_secs(10);
const FINISH_BUDGET: Duration = Duration::from_secs(20);

/// How a run is shaped around the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Commands driven but not recorded before it.
    pub warmup_commands: u64,
    /// How many times an end-to-end run sets the cluster up; `setup_s` is the
    /// median, and the last one is measured.
    pub setups: usize,
}

/// Totals of one cluster's life.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reads: u64,
    reads_checked: u64,
    problems: Vec<String>,
    /// Peak resident set when the drain ended, without the client's own
    /// sample buffers.
    peak_rss_mib: f64,
    peak_rss_raw_mib: f64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reads += other.reads;
        self.reads_checked += other.reads_checked;
        self.problems.extend(other.problems);
        self.peak_rss_mib = self.peak_rss_mib.max(other.peak_rss_mib);
        self.peak_rss_raw_mib = self.peak_rss_raw_mib.max(other.peak_rss_raw_mib);
    }
}

/// Boots the workload's cluster and brings it to a warm steady state.
/// Returns the client and how long that took.
pub fn set_up(
    workload: &Workload,
    shape: &Shape,
    tracer: Option<&Arc<Tracer>>,
    watchdog: &Watchdog,
) -> Result<(Client, Duration), String> {
    let name = workload.name;
    let started = Instant::now();
    watchdog.phase(format!("{name}: boot"), BOOT_BUDGET);
    let cluster = Cluster::boot(workload.transport, workload.replicas, workload.shards, tracer)?;
    let epoch = tracer.map_or(started, |tracer| tracer.epoch());
    let mut client = Client::new(cluster, workload, shape.seed, epoch, tracer.cloned());
    watchdog.phase(format!("{name}: warm-up probe"), PROBE_CEILING);
    client.probe(PROBE_CEILING)?;
    watchdog.phase(format!("{name}: pre-populate"), PREPOPULATE_BUDGET);
    client.prepopulate(workload.keys, PREPOPULATE_BUDGET)?;
    watchdog.phase(format!("{name}: warm-up"), WARMUP_BUDGET);
    client.run_commands(shape.warmup_commands);
    Ok((client, started.elapsed()))
}

/// Drains, shuts the cluster down and checks everything the client saw.
fn finish(workload: &Workload, client: &mut Client, watchdog: &Watchdog) -> Tally {
    let name = workload.name;
    watchdog.phase(format!("{name}: drain"), DRAIN_GRACE);
    let lost = client.drain(DRAIN_GRACE) as u64;
    let peak_rss_raw_mib = procstat::peak_rss_mib();
    let own_mib = client.recorded_bytes() as f64 / (1024.0 * 1024.0);
    watchdog.phase(format!("{name}: shut down and verify"), FINISH_BUDGET);
    client.cluster.shutdown();
    let verdict = verify::check(&client.history);
    let mut problems = Vec::new();
    if lost > 0 {
        problems.push(format!("{lost} commands unanswered {DRAIN_GRACE:?} after the last submit"));
    }
    if client.duplicated > 0 {
        problems.push(format!("{} replies to commands not in flight", client.duplicated));
    }
    if client.query_failed > 0 {
        problems.push(format!("{} queries failed", client.query_failed));
    }
    if let Some(violation) = verdict.violation {
        problems.push(format!("history rejected: {violation}"));
    }
    Tally {
        attempted: client.submitted,
        failed: lost + client.duplicated + client.query_failed + verdict.rejected_commands,
        reads: verdict.reads,
        reads_checked: verdict.reads_checked,
        problems,
        peak_rss_mib: (peak_rss_raw_mib - own_mib).max(0.0),
        peak_rss_raw_mib,
    }
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

fn note(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn failure(workload: &Workload, tally: Tally, problem: String) -> Report {
    let mut problems = tally.problems;
    problems.push(problem);
    Report::unfinished(workload.name, tally.attempted, tally.failed, problems)
}

/// The end-to-end metrics of one workload, tracing off.
pub fn end_to_end(
    workload: &Workload,
    shape: &Shape,
    probe: &Probe,
    watchdog: &Watchdog,
) -> Report {
    let mut tally = Tally::default();
    let mut setup_seconds = Vec::new();
    let host_before = probe.reading();
    // Every set-up but the last is there to be timed: it is drained, checked
    // and torn down again. (Sharing the window among them was tried: ten runs
    // spread no less, and memory the earlier clusters leave behind in the
    // allocator spoils `peak_rss_mib`.)
    let mut client = None;
    for _ in 0..shape.setups.max(1) {
        if let Some(mut discarded) = client.take() {
            tally.absorb(finish(workload, &mut discarded, watchdog));
        }
        match set_up(workload, shape, None, watchdog) {
            Ok((ready, took)) => {
                setup_seconds.push(took.as_secs_f64());
                client = Some(ready);
            }
            Err(problem) => return failure(workload, tally, problem),
        }
    }
    let mut client = client.expect("at least one set-up");
    // One index for all the set-ups together: a single one is too short for
    // the probe.
    let setup_host_index = hostspeed::index(host_before, probe.reading());
    let setup_raw = median(setup_seconds);
    watchdog
        .phase(format!("{}: measure", workload.name), Duration::from_secs(shape.seconds.max(1)));
    client.measure(shape.seconds, DRAIN_GRACE, Some(probe));
    tally.absorb(finish(workload, &mut client, watchdog));
    let mut measured = std::mem::take(&mut client.measured);

    let committed = measured.committed();
    let (update_p50, _) = measured.latency(0.50, |second| &mut second.update_ns);
    let (update_p99, update_beyond) = measured.latency(0.99, |second| &mut second.update_ns);
    let (query_p50, _) = measured.latency(0.50, |second| &mut second.query_ns);
    let (query_p99, query_beyond) = measured.latency(0.99, |second| &mut second.query_ns);
    let queries = measured.queries as f64;
    let values = [
        setup_raw / hostspeed::slowdown(setup_host_index),
        measured.throughput(),
        update_p50 / 1e3,
        query_p50 / 1e3,
        measured.query_rt_sum as f64 / queries,
        measured.query_rt_le3 as f64 / queries,
        measured.cpu_us_per_op(),
        tally.peak_rss_mib,
    ];
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| Metric { name: metric.name, value, unit: metric.unit })
        .collect();
    if committed == 0 {
        tally.problems.push("nothing committed inside the measured window".into());
    }
    Report {
        workload: workload.name,
        metrics,
        notes: vec![
            note("host_index", measured.host_index(), "ratio"),
            note("raw_throughput_ops_s", measured.raw_throughput(), "1/s"),
            note("setup_host_index", setup_host_index, "ratio"),
            note("raw_setup_s", setup_raw, "s"),
            note("update_p99_us", update_p99 / 1e3, "us"),
            note("query_p99_us", query_p99 / 1e3, "us"),
            note("committed", committed as f64, "count"),
            note("queries", queries, "count"),
            note("fewest_update_samples_beyond_a_seconds_p99", update_beyond as f64, "count"),
            note("fewest_query_samples_beyond_a_seconds_p99", query_beyond as f64, "count"),
            note("peak_rss_raw_mib", tally.peak_rss_raw_mib, "MiB"),
            note("history_reads", tally.reads as f64, "count"),
            note("history_reads_checked", tally.reads_checked as f64, "count"),
        ],
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
    }
}

/// What the traced run's first, untraced window gives: the reference for the
/// tracing overhead and the client's tail latencies.
struct Untraced {
    throughput: f64,
    update_p99_ns: f64,
    query_p99_ns: f64,
}

/// Node 0's instruments at one instant, with the process-wide readings taken
/// beside them.
struct Reading {
    obs: ObsSnapshot,
    reactor_polls: u64,
    send_with: (u64, u64),
    deliver: (u64, u64),
    submit: (u64, u64),
}

impl Reading {
    fn take(client: &Client, tracer: &Tracer) -> Reading {
        Reading {
            obs: client.cluster.nodes[0].obs_snapshot(),
            reactor_polls: tokio::reactor_stats().0,
            send_with: tracer.send_with.read(),
            deliver: tracer.deliver.read(),
            submit: tracer.submit.read(),
        }
    }
}

/// The per-layer metrics of one workload: the `ladder` (measured once per
/// process, the same beside every workload) followed by the traced run — the
/// workload twice for `seconds` each, first untraced (the reference for the
/// tracing overhead), then with node 0 observed and its bridge timed.
/// Writes the spans to `out_dir/trace_<workload>.jsonl`.
pub fn traced(
    workload: &Workload,
    shape: &Shape,
    ladder: &[Metric],
    out_dir: &Path,
    probe: &Probe,
    watchdog: &Watchdog,
) -> Report {
    let mut tally = Tally::default();
    let window = Duration::from_secs(shape.seconds.max(1));

    let (mut client, _) = match set_up(workload, shape, None, watchdog) {
        Ok(ready) => ready,
        Err(problem) => return failure(workload, tally, problem),
    };
    watchdog.phase(format!("{}: untraced reference", workload.name), window);
    client.measure(shape.seconds, DRAIN_GRACE, Some(probe));
    let untraced = Untraced {
        throughput: client.measured.throughput(),
        update_p99_ns: client.measured.latency(0.99, |second| &mut second.update_ns).0,
        query_p99_ns: client.measured.latency(0.99, |second| &mut second.query_ns).0,
    };
    tally.absorb(finish(workload, &mut client, watchdog));

    let tracer = Arc::new(Tracer::new(Instant::now(), TRACE_SAMPLE));
    let (mut client, _) = match set_up(workload, shape, Some(&tracer), watchdog) {
        Ok(ready) => ready,
        Err(problem) => return failure(workload, tally, problem),
    };
    watchdog.phase(format!("{}: traced measure", workload.name), window);
    // `measure` opens and closes its window on an idle cluster, so between
    // these two readings node 0's stations see exactly the window's commands.
    client.drain(DRAIN_GRACE);
    let before = Reading::take(&client, &tracer);
    client.measure(shape.seconds, DRAIN_GRACE, Some(probe));
    let after = Reading::take(&client, &tracer);
    let events = client.cluster.nodes[0].trace_events();
    let node0_start_ns = client.cluster.node0_start_ns;
    tally.absorb(finish(workload, &mut client, watchdog));
    let measured = std::mem::take(&mut client.measured);

    tracer.attach_engine_events(&events, node0_start_ns);
    let path = out_dir.join(format!("trace_{}.jsonl", workload.name));
    let spans = match std::fs::create_dir_all(out_dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(spans) => spans,
        Err(err) => {
            tally.problems.push(format!("writing {}: {err}", path.display()));
            0
        }
    };

    let committed = measured.committed();
    let mut metrics = ladder.to_vec();
    metrics.extend(traced_metrics(&before, &after, &measured, &untraced));
    let submit_queue = window_of(&before, &after, "stage_submit_queue_nanos").count;
    let quorum_wait = window_of(&before, &after, "stage_quorum_wait_nanos").count;
    // Node 0 files exactly one submit-queue and one quorum-wait sample per
    // command it proposes.
    for (stage, samples) in [("submit_queue", submit_queue), ("quorum_wait", quorum_wait)] {
        if samples != measured.node0_commands {
            tally.problems.push(format!(
                "stage accounting open: {samples} {stage} samples for {} commands proposed at node 0",
                measured.node0_commands
            ));
        }
    }
    if committed == 0 {
        tally.problems.push("nothing committed inside the traced window".into());
    }
    Report {
        workload: workload.name,
        metrics,
        notes: vec![
            note("traced_committed", committed as f64, "count"),
            note("traced_node0_commands", measured.node0_commands as f64, "count"),
            note("traced_submit_queue_samples", submit_queue as f64, "count"),
            note("traced_quorum_wait_samples", quorum_wait as f64, "count"),
            note("traced_throughput_ops_s", measured.throughput(), "1/s"),
            note("untraced_throughput_ops_s", untraced.throughput, "1/s"),
            note("trace_spans_written", spans as f64, "count"),
            note("trace_engine_events", events.len() as f64, "count"),
        ],
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
    }
}

fn window_of(before: &Reading, after: &Reading, histogram: &str) -> Window {
    Window::between(before.obs.histogram(histogram), after.obs.histogram(histogram))
}

/// The `spec::TRACED` metrics, in order. Per-op figures divide node 0's
/// counts by the commands committed cluster-wide in the window.
fn traced_metrics(
    before: &Reading,
    after: &Reading,
    measured: &Measured,
    untraced: &Untraced,
) -> Vec<Metric> {
    let ops = measured.committed().max(1) as f64;
    let stage = |name: &str| window_of(before, after, &format!("stage_{name}_nanos"));
    let counter =
        |name: &str| after.obs.counter(name).saturating_sub(before.obs.counter(name)) as f64;
    let calls_us =
        |before: (u64, u64), after: (u64, u64)| micros(after.1.saturating_sub(before.1)) / ops;
    let mean = |window: &Window| window.sum as f64 / window.count.max(1) as f64;

    let submit_queue = stage("submit_queue");
    let mailbox_dwell = stage("mailbox_dwell");
    let protocol_step = stage("protocol_step");
    let quorum_wait = stage("quorum_wait");
    let socket_write = stage("socket_write");
    let frames = window_of(before, after, "mesh_frames_per_batch");
    let bytes = window_of(before, after, "mesh_batch_bytes");
    // The stations a command passes on the node that proposes it, by their
    // mean time; what is left of the client's mean latency is the way back
    // (worker → router → response queue → client wake-up) plus anything no
    // station sees.
    let explained =
        mean(&submit_queue) + mean(&mailbox_dwell) + mean(&protocol_step) + mean(&quorum_wait);
    let client_mean = measured.node0_ns as f64 / measured.node0_commands.max(1) as f64;

    let values = [
        untraced.update_p99_ns / 1e3,
        untraced.query_p99_ns / 1e3,
        calls_us(before.submit, after.submit),
        micros(submit_queue.percentile(0.50)),
        micros(stage("router_ingress").percentile(0.50)),
        micros(mailbox_dwell.percentile(0.50)),
        micros(mailbox_dwell.percentile(0.99)),
        micros(stage("decode").percentile(0.50)),
        micros(protocol_step.percentile(0.50)),
        micros(protocol_step.sum) / ops,
        micros(quorum_wait.percentile(0.50)),
        micros(quorum_wait.percentile(0.99)),
        micros(stage("reply_encode").percentile(0.50)),
        calls_us(before.deliver, after.deliver),
        counter("router_parks") / ops,
        counter("worker_parks") / ops,
        // High-water marks cannot be windowed: these cover the node's life.
        after.obs.highwater("worker_mailbox_depth") as f64,
        after.obs.highwater("router_ingress_depth") as f64,
        if client_mean > 0.0 { 1.0 - explained / client_mean } else { 0.0 },
        calls_us(before.send_with, after.send_with),
        micros(socket_write.percentile(0.50)),
        counter("mesh_socket_writes") / ops,
        frames.sum as f64 / frames.count.max(1) as f64,
        bytes.sum as f64 / ops,
        counter("mesh_reconnect_attempts"),
        after.reactor_polls.saturating_sub(before.reactor_polls) as f64 / ops,
        if untraced.throughput > 0.0 {
            1.0 - measured.throughput() / untraced.throughput
        } else {
            0.0
        },
    ];
    spec::TRACED
        .iter()
        .zip(values)
        .map(|(metric, value)| Metric { name: metric.name, value, unit: metric.unit })
        .collect()
}
