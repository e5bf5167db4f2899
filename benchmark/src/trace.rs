//! The traced run's recording side: spans around the benchmark's own calls
//! into each layer, kept in memory and written out when the run ends, plus
//! the arithmetic that turns two `obs` snapshots into per-window numbers.
//!
//! Every call is *counted and timed* (two relaxed atomic adds); one call in
//! `sample` additionally keeps a span, so the span file stays a few MiB while
//! the per-op sums are exact.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::{assemble_timelines, HistogramSnapshot, Stage, TraceEvent};

/// One recorded interval. Spans of one command share `cmd`; `parent` is the
/// `id` of the span that caused this one (none for a root).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub cmd: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls and total time of one call site.
#[derive(Debug, Default)]
pub struct CallStat {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStat {
    /// Counts one call of `nanos`; returns how many calls came before it.
    pub fn add(&self, nanos: u64) -> u64 {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed)
    }

    /// `(calls, nanos)` so far.
    pub fn read(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.nanos.load(Ordering::Relaxed))
    }
}

pub struct Tracer {
    epoch: Instant,
    sample: u64,
    spans: Mutex<Vec<Span>>,
    /// `TcpMesh::send_with`, encode included (the outbound boundary).
    pub send_with: CallStat,
    /// `NodeIngress::deliver` / `deliver_frame` (the inbound boundary).
    pub deliver: CallStat,
    /// `EngineNode::submit`, backpressure included.
    pub submit: CallStat,
}

impl Tracer {
    /// `epoch` is the zero of every `start_ns` / `end_ns`.
    pub fn new(epoch: Instant, sample: u64) -> Self {
        Tracer {
            epoch,
            sample,
            spans: Mutex::new(Vec::new()),
            send_with: CallStat::default(),
            deliver: CallStat::default(),
            submit: CallStat::default(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether command `cmd` keeps spans: the rule `obs::TraceRing` uses, so
    /// the engine's sampled stage events and the client's spans cover the
    /// same commands.
    pub fn samples(&self, cmd: u64) -> bool {
        cmd.is_multiple_of(self.sample)
    }

    fn push(
        &self,
        name: &'static str,
        cmd: Option<u64>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len();
        spans.push(Span { id, name, cmd, parent, start_ns, end_ns });
        id
    }

    /// Runs `call`, adds it to `stat`, and keeps a parentless span for one
    /// call in `sample` (a bridge call serves many commands at once, so it
    /// has no single command to hang under).
    pub fn time<R>(&self, stat: &CallStat, name: &'static str, call: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        if stat.add(end_ns.saturating_sub(start_ns)).is_multiple_of(self.sample) {
            self.push(name, None, None, start_ns, end_ns);
        }
        result
    }

    /// The client's view of one sampled command: the root span from just
    /// before `submit` to the response in hand, and the `submit` call under it.
    pub fn command(&self, cmd: u64, start_ns: u64, submitted_ns: u64, end_ns: u64) {
        let root = self.push("client.command", Some(cmd), None, start_ns, end_ns);
        self.push("engine.submit", Some(cmd), Some(root), start_ns, submitted_ns);
    }

    /// Hangs node 0's sampled stage events under the client's root spans.
    ///
    /// The engine logs three instants per sampled command, on its own clock
    /// (nanoseconds since the node started; `node_start_ns` is that instant on
    /// the tracer's clock, read just before `start_observed`, so engine
    /// instants are early by the few microseconds the node takes to read its
    /// own clock — intervals are clamped to stay inside their root). Between
    /// them lie the four legs of a command's life:
    /// submit → router dequeues it → worker dequeues it → quorum learned →
    /// response in the client's hand. Commands whose events the ring has
    /// already overwritten keep their root span only.
    pub fn attach_engine_events(&self, events: &[TraceEvent], node_start_ns: u64) {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let roots: BTreeMap<u64, (usize, u64, u64)> = spans
            .iter()
            .filter(|span| span.name == "client.command")
            .filter_map(|span| Some((span.cmd?, (span.id, span.start_ns, span.end_ns))))
            .collect();
        for timeline in assemble_timelines(events) {
            let Some(&(root, start_ns, end_ns)) = roots.get(&timeline.command) else { continue };
            let at = |stage: Stage| {
                timeline
                    .events
                    .iter()
                    .find(|(logged, _)| *logged == stage)
                    .map(|(_, at)| (at + node_start_ns).clamp(start_ns, end_ns))
            };
            let (Some(routed), Some(dequeued), Some(learned)) =
                (at(Stage::SubmitQueue), at(Stage::MailboxDwell), at(Stage::QuorumWait))
            else {
                continue;
            };
            let legs = [
                ("engine.submit_queue", start_ns, routed),
                ("engine.mailbox_dwell", routed, dequeued),
                ("engine.quorum_wait", dequeued, learned),
                ("engine.response_return", learned, end_ns),
            ];
            for (name, from, to) in legs {
                let id = spans.len();
                spans.push(Span {
                    id,
                    name,
                    cmd: Some(timeline.command),
                    parent: Some(root),
                    start_ns: from,
                    end_ns: to.max(from),
                });
            }
        }
    }

    /// Writes one JSON object per span. Returns how many were written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let optional = |value: Option<u64>| value.map_or("null".to_string(), |v| v.to_string());
        for span in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"cmd\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.id,
                span.name,
                optional(span.cmd),
                optional(span.parent.map(|id| id as u64)),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }

    #[cfg(test)]
    fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }
}

/// The samples a histogram gained between two snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Window {
    pub count: u64,
    pub sum: u64,
    /// `(bucket upper bound, samples gained)`, ascending.
    buckets: Vec<(u64, u64)>,
}

impl Window {
    /// `after − before`. `HistogramSnapshot` exposes neither its buckets nor
    /// a subtraction, only `percentile(q)`; the bucket counts are recovered
    /// from it by walking the ranks (see [`cumulative`]).
    pub fn between(
        before: Option<&HistogramSnapshot>,
        after: Option<&HistogramSnapshot>,
    ) -> Window {
        let Some(after) = after else { return Window::default() };
        let mut gained: BTreeMap<u64, u64> = BTreeMap::new();
        let mut previous = 0;
        for (bound, upto) in cumulative(after) {
            gained.insert(bound, upto - previous);
            previous = upto;
        }
        let (mut count, mut sum) = (after.count(), after.sum());
        if let Some(before) = before {
            let mut previous = 0;
            for (bound, upto) in cumulative(before) {
                let bucket = gained.entry(bound).or_insert(0);
                *bucket = bucket.saturating_sub(upto - previous);
                previous = upto;
            }
            count = count.saturating_sub(before.count());
            sum = sum.saturating_sub(before.sum());
        }
        Window { count, sum, buckets: gained.into_iter().filter(|&(_, n)| n > 0).collect() }
    }

    /// Nearest-rank quantile of the window, as a bucket upper bound (the same
    /// ≤ 3.1 % quantization as `HistogramSnapshot::percentile`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(bound, _)| bound)
    }
}

/// `(bucket upper bound, samples at or below it)` for every non-empty bucket,
/// found by bisection over ranks: `percentile((rank − ½) / count)` is the
/// bucket of the `rank`-th smallest sample.
fn cumulative(snapshot: &HistogramSnapshot) -> Vec<(u64, u64)> {
    let count = snapshot.count();
    let bucket_of = |rank: u64| snapshot.percentile((rank as f64 - 0.5) / count as f64);
    let mut out = Vec::new();
    let mut rank = 1;
    while rank <= count {
        let bound = bucket_of(rank);
        let (mut low, mut high) = (rank, count);
        while low < high {
            let mid = low + (high - low).div_ceil(2);
            if bucket_of(mid) == bound {
                low = mid;
            } else {
                high = mid - 1;
            }
        }
        out.push((bound, low));
        rank = low + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Histogram;

    #[test]
    fn window_is_the_difference_of_two_snapshots() {
        let histogram = Histogram::new();
        for value in [10u64, 10, 500, 70_000] {
            histogram.record(value);
        }
        let before = histogram.snapshot();
        let added: Vec<u64> = (0..1000u64).map(|i| 1_000 + i * 37).collect();
        for &value in &added {
            histogram.record(value);
        }
        let after = histogram.snapshot();
        let window = Window::between(Some(&before), Some(&after));
        assert_eq!(window.count, 1000);
        assert_eq!(window.sum, added.iter().sum::<u64>());

        // Same percentiles as a histogram that only ever saw the added values.
        let only = Histogram::new();
        for &value in &added {
            only.record(value);
        }
        let only = only.snapshot();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(window.percentile(q), only.percentile(q), "q = {q}");
        }
    }

    #[test]
    fn window_without_a_baseline_is_the_snapshot_itself() {
        let histogram = Histogram::new();
        for value in 0..5_000u64 {
            histogram.record(value * value % 9_973);
        }
        let snapshot = histogram.snapshot();
        let window = Window::between(None, Some(&snapshot));
        assert_eq!(window.count, snapshot.count());
        for q in [0.001, 0.25, 0.5, 0.99, 0.999] {
            assert_eq!(window.percentile(q), snapshot.percentile(q), "q = {q}");
        }
        assert_eq!(Window::between(None, None), Window::default());
        assert_eq!(Window::default().percentile(0.5), 0);
    }

    #[test]
    fn engine_events_become_the_four_legs_of_their_command() {
        let tracer = Tracer::new(Instant::now(), 16);
        tracer.command(32, 1_000, 1_200, 9_000);
        tracer.command(48, 2_000, 2_100, 5_000);
        let event = |command, stage, at_nanos| TraceEvent { command, stage, at_nanos };
        // Node clock starts 500 ns after the tracer's. Command 48 lost an
        // event to ring wrap-around and keeps only its root.
        let events = [
            event(32, Stage::SubmitQueue, 1_000),
            event(32, Stage::MailboxDwell, 2_000),
            event(32, Stage::QuorumWait, 7_500),
            event(48, Stage::SubmitQueue, 1_800),
            event(48, Stage::QuorumWait, 4_000),
            event(64, Stage::SubmitQueue, 100),
        ];
        tracer.attach_engine_events(&events, 500);
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "client.command" && s.cmd == Some(32)).unwrap();
        let children: Vec<_> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        let named = |name: &str| {
            let span = children.iter().find(|s| s.name == name).unwrap();
            (span.start_ns, span.end_ns)
        };
        assert_eq!(children.len(), 5);
        assert_eq!(named("engine.submit"), (1_000, 1_200));
        assert_eq!(named("engine.submit_queue"), (1_000, 1_500));
        assert_eq!(named("engine.mailbox_dwell"), (1_500, 2_500));
        assert_eq!(named("engine.quorum_wait"), (2_500, 8_000));
        assert_eq!(named("engine.response_return"), (8_000, 9_000));
        let other = spans.iter().find(|s| s.name == "client.command" && s.cmd == Some(48)).unwrap();
        assert_eq!(spans.iter().filter(|s| s.parent == Some(other.id)).count(), 1);
    }

    #[test]
    fn every_call_is_counted_and_one_in_sample_keeps_a_span() {
        let tracer = Tracer::new(Instant::now(), 4);
        for _ in 0..10 {
            tracer.time(&tracer.deliver, "engine.deliver", || std::hint::black_box(1 + 1));
        }
        assert_eq!(tracer.deliver.read().0, 10);
        assert_eq!(tracer.spans().len(), 3);
    }
}
