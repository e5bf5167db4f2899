//! The closed-loop client: one thread keeps a fixed number of commands in
//! flight (callers of a replicated store each wait for their reply), records
//! what it observes, and owns the cluster it drives.

use std::time::{Duration, Instant};

use cluster::{HistoryOp, OpKind};
use crdt::{CounterQuery, CounterUpdate, MapOutput, MapQuery, MapUpdate};
use crdt_paxos_core::{ClientId, ClientResponse, Command, ResponseBody};

use crate::cluster::{Cluster, KvMap};
use crate::hostspeed::{self, Probe};
use crate::spec::{Better, Workload};
use crate::stats::{better_quartile, quantile};
use crate::trace::Tracer;
use crate::workload::{Generator, Op};

/// Sample-buffer room reserved per measured second; several times what any
/// workload commits on this box.
const RESERVED_OPS_PER_SECOND: usize = 250_000;

/// How long the probe waits for a reply before sending another.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

struct Pending {
    node: usize,
    command: u64,
    op: Op,
    /// Just before `submit`, on the client's clock.
    start_ns: u64,
    /// Just after `submit` returned (traced runs only).
    submitted_ns: u64,
}

/// One second of steady load, as the client saw it.
#[derive(Debug, Default)]
pub struct Second {
    /// Submit → response of the replies that arrived in this second, nanoseconds.
    pub update_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    /// Process CPU time (user + system, all threads) spent in this second.
    pub cpu_seconds: f64,
    /// The host index of this second (see `hostspeed`): 1 on a quiet box.
    pub host_index: f64,
}

impl Second {
    pub fn commits(&self) -> u64 {
        (self.update_ns.len() + self.query_ns.len()) as u64
    }
}

/// What the client saw inside the measured window.
///
/// Every timing is computed second by second, **stated at host index 1**,
/// and reported as the **better quartile** over the window's seconds.
///
/// Stated at host index 1: other tenants of this box slow it by 1.2–2× for
/// seconds to minutes at a time, so each second's value is scaled by that
/// second's slow-down ([`hostspeed::slowdown`] of its host index) before
/// anything is made of it (the raw readings are printed as notes). What is
/// left is what the system itself changes.
///
/// Better quartile ([`better_quartile`]): the value a quarter of the seconds
/// beat. The probe sees a stretch, not every burst; a pooled p99 is set by the
/// disturbed seconds alone, and even the median second moves with how many of
/// them a run happens to catch.
#[derive(Debug, Default)]
pub struct Measured {
    pub seconds: Vec<Second>,
    /// Replies of the closing drain: counted, not timed.
    pub closing: u64,
    /// Over every query the window counted: how many, the sum of their
    /// `ClientResponse::round_trips`, and how many needed at most three.
    pub queries: u64,
    pub query_rt_sum: u64,
    pub query_rt_le3: u64,
    /// Latency sum and count of the commands node 0 proposed.
    pub node0_ns: u64,
    pub node0_commands: u64,
}

impl Measured {
    /// Every command the window counted, its closing drain included.
    pub fn committed(&self) -> u64 {
        self.seconds.iter().map(Second::commits).sum::<u64>() + self.closing
    }

    /// The host index of the middle second of the window.
    pub fn host_index(&self) -> f64 {
        crate::stats::median(self.seconds.iter().map(|second| second.host_index).collect())
    }

    /// Commands committed per second: the better quartile of the per-second
    /// commit counts, each at host index 1.
    pub fn throughput(&self) -> f64 {
        better_quartile(
            self.seconds
                .iter()
                .map(|second| second.commits() as f64 * hostspeed::slowdown(second.host_index))
                .collect(),
            Better::Higher,
        )
    }

    /// The same of the commit counts as they were, for the notes.
    pub fn raw_throughput(&self) -> f64 {
        better_quartile(
            self.seconds.iter().map(|second| second.commits() as f64).collect(),
            Better::Higher,
        )
    }

    /// The `q`-quantile of the latencies `pick` selects, in nanoseconds: the
    /// better quartile of the per-second quantiles, each at host index 1. Also
    /// the fewest samples any second had beyond its quantile.
    pub fn latency(&mut self, q: f64, pick: fn(&mut Second) -> &mut Vec<u64>) -> (f64, usize) {
        let per_second: Vec<(f64, usize)> = self
            .seconds
            .iter_mut()
            .map(|second| {
                let (value, beyond) = quantile(pick(second), q);
                (value as f64 / hostspeed::slowdown(second.host_index), beyond)
            })
            .collect();
        let beyond = per_second.iter().map(|&(_, beyond)| beyond).min().unwrap_or(0);
        (
            better_quartile(per_second.iter().map(|&(value, _)| value).collect(), Better::Lower),
            beyond,
        )
    }

    /// CPU microseconds per committed command: the better quartile of the
    /// per-second ratios, each at host index 1.
    pub fn cpu_us_per_op(&self) -> f64 {
        better_quartile(
            self.seconds
                .iter()
                .filter(|second| second.commits() > 0)
                .map(|second| {
                    second.cpu_seconds * 1e6
                        / second.commits() as f64
                        / hostspeed::slowdown(second.host_index)
                })
                .collect(),
            Better::Lower,
        )
    }
}

/// Where the measured window stands, for a reply that arrives now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recording {
    Closed,
    /// Replies go into the last of `measured.seconds`.
    Steady,
    /// The window's last commands are being drained.
    Closing,
}

pub struct Client {
    pub cluster: Cluster,
    proposers: usize,
    /// Commands kept outstanding.
    in_flight: usize,
    ops: Generator,
    pending: Vec<Pending>,
    epoch: Instant,
    /// The proposer the next command goes to (round-robin).
    next_node: usize,
    /// The proposer the next blocking wait is on.
    wait_node: usize,
    /// How long one blocking wait on one node may last. With one proposer the
    /// wait is woken by the reply itself; with several, the client must come
    /// back to look at the other nodes.
    patience: Duration,
    tracer: Option<std::sync::Arc<Tracer>>,
    /// `(key, op)` for every reply since boot, real-clock microseconds.
    pub history: Vec<(u64, HistoryOp)>,
    pub submitted: u64,
    pub duplicated: u64,
    pub query_failed: u64,
    recording: Recording,
    pub measured: Measured,
}

impl Client {
    /// `epoch` must be the tracer's epoch when there is one, so client spans
    /// and bridge spans share a clock.
    pub fn new(
        cluster: Cluster,
        workload: &Workload,
        seed: u64,
        epoch: Instant,
        tracer: Option<std::sync::Arc<Tracer>>,
    ) -> Client {
        Client {
            cluster,
            proposers: workload.proposers,
            in_flight: workload.in_flight,
            ops: Generator::new(seed, workload.keys, workload.read_pct),
            pending: Vec::with_capacity(workload.in_flight),
            epoch,
            next_node: 0,
            wait_node: 0,
            patience: if workload.proposers == 1 {
                Duration::from_millis(1)
            } else {
                Duration::from_micros(100)
            },
            tracer,
            history: Vec::new(),
            submitted: 0,
            duplicated: 0,
            query_failed: 0,
            recording: Recording::Closed,
            measured: Measured::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn submit_to(&mut self, node: usize, op: Op) {
        let command = if op.read {
            Command::Query(MapQuery::Get { key: op.key, query: CounterQuery::Value })
        } else {
            Command::Update(MapUpdate::Apply { key: op.key, update: CounterUpdate::Increment(1) })
        };
        let start_ns = self.now_ns();
        let id = self.cluster.nodes[node].submit(ClientId(1), command);
        let mut submitted_ns = 0;
        if let Some(tracer) = &self.tracer {
            submitted_ns = self.now_ns();
            tracer.submit.add(submitted_ns.saturating_sub(start_ns));
        }
        self.submitted += 1;
        self.pending.push(Pending { node, command: id.0, op, start_ns, submitted_ns });
    }

    fn submit(&mut self, op: Op) {
        let node = self.next_node;
        self.next_node = (node + 1) % self.proposers;
        self.submit_to(node, op);
    }

    fn absorb(&mut self, node: usize, response: ClientResponse<KvMap>) {
        let end_ns = self.now_ns();
        let Some(slot) =
            self.pending.iter().position(|p| p.node == node && p.command == response.command.0)
        else {
            self.duplicated += 1;
            return;
        };
        let pending = self.pending.swap_remove(slot);
        let kind = match response.body {
            ResponseBody::UpdateDone => OpKind::Increment(1),
            // A key nobody has written yet reads as the empty counter.
            ResponseBody::QueryDone(MapOutput::Value(value)) => OpKind::Read(value.unwrap_or(0)),
            ResponseBody::QueryDone(_) | ResponseBody::QueryFailed => {
                self.query_failed += 1;
                return;
            }
        };
        // Rounded outwards, so the recorded interval contains the real one and
        // the checker never sees an order the clock did not.
        self.history.push((
            pending.op.key,
            HistoryOp {
                invoked_us: pending.start_ns / 1_000,
                responded_us: end_ns.div_ceil(1_000),
                kind,
            },
        ));
        let latency = end_ns.saturating_sub(pending.start_ns);
        match (self.recording, self.measured.seconds.last_mut()) {
            (Recording::Steady, Some(second)) if pending.op.read => second.query_ns.push(latency),
            (Recording::Steady, Some(second)) => second.update_ns.push(latency),
            (Recording::Closing, _) => self.measured.closing += 1,
            _ => return,
        }
        if pending.op.read {
            self.measured.queries += 1;
            self.measured.query_rt_sum += u64::from(response.round_trips);
            self.measured.query_rt_le3 += u64::from(response.round_trips <= 3);
        }
        if node == 0 {
            self.measured.node0_ns += latency;
            self.measured.node0_commands += 1;
            if let Some(tracer) = self.tracer.as_ref().filter(|t| t.samples(pending.command)) {
                tracer.command(pending.command, pending.start_ns, pending.submitted_ns, end_ns);
            }
        }
    }

    /// Takes every reply already queued at any proposer; when there is none
    /// and `wait` is set, blocks on one proposer for at most `patience`.
    /// Returns how many replies were taken.
    fn settle(&mut self, wait: bool) -> usize {
        let mut taken = 0;
        for node in 0..self.proposers {
            while let Some(response) = self.cluster.nodes[node].try_response() {
                self.absorb(node, response);
                taken += 1;
            }
        }
        if taken == 0 && wait {
            let node = self.wait_node;
            self.wait_node = (node + 1) % self.proposers;
            if let Some(response) = self.cluster.nodes[node].wait_response(self.patience) {
                self.absorb(node, response);
                taken = 1;
            }
        }
        taken
    }

    /// One update per proposer, repeated until each has answered: proves the
    /// meshes are connected and a quorum replies. Every probe is an ordinary
    /// recorded command on key 0.
    pub fn probe(&mut self, ceiling: Duration) -> Result<(), String> {
        let give_up = Instant::now() + ceiling;
        for node in 0..self.proposers {
            let mut answered = false;
            while !answered {
                if Instant::now() >= give_up {
                    return Err(format!("node {node} did not answer a probe within {ceiling:?}"));
                }
                let before = self.pending.len();
                self.submit_to(node, Op { key: 0, read: false });
                let retry_at = Instant::now() + PROBE_INTERVAL;
                while !answered && Instant::now() < retry_at {
                    self.settle(true);
                    answered = self.pending.len() <= before;
                }
            }
        }
        if self.drain(give_up.saturating_duration_since(Instant::now())) > 0 {
            return Err(format!("late probes still unanswered after {ceiling:?}"));
        }
        Ok(())
    }

    /// One acknowledged update per key, so the state has its final size
    /// before anything is timed.
    pub fn prepopulate(&mut self, keys: u64, grace: Duration) -> Result<(), String> {
        let give_up = Instant::now() + grace;
        for key in 0..keys {
            while self.pending.len() >= self.in_flight {
                if Instant::now() >= give_up {
                    return Err(format!("pre-populate stalled at key {key} of {keys}"));
                }
                self.settle(true);
            }
            self.submit(Op { key, read: false });
        }
        match self.drain(give_up.saturating_duration_since(Instant::now())) {
            0 => Ok(()),
            lost => Err(format!("{lost} pre-populate updates unacknowledged")),
        }
    }

    /// Keeps the window full from the generated stream until `done`.
    fn run_until(&mut self, mut done: impl FnMut(&Client) -> bool) {
        while !done(self) {
            while self.pending.len() < self.in_flight {
                let op = self.ops.next().expect("endless stream");
                self.submit(op);
            }
            self.settle(true);
        }
    }

    /// Drives the generated stream until `commands` more have been submitted
    /// (the warm-up: unrecorded, and sized in work, not time, so that the
    /// set-up it is part of takes as long as the system makes it take).
    pub fn run_commands(&mut self, commands: u64) {
        let target = self.submitted + commands;
        self.run_until(|client| client.submitted >= target);
    }

    fn run_for(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;
        self.run_until(|_| Instant::now() >= deadline);
    }

    /// The measured window: `seconds` of steady load. It opens and closes on
    /// an idle cluster (the commands of the warm-up are drained first, and the
    /// window's own last commands are drained before it closes), so every
    /// command it counts passed every station inside it and the stations'
    /// sample counts can be checked against the client's. `probe` gives each
    /// second its host index; without one every index is 1 and the timings
    /// are as read.
    pub fn measure(&mut self, seconds: u64, grace: Duration, probe: Option<&Probe>) {
        self.drain(grace);
        // Room for the whole window up front (address space, not memory): a
        // buffer that regrows mid-window would copy itself inside the
        // measurement and count twice in the peak RSS.
        self.history.reserve(seconds as usize * RESERVED_OPS_PER_SECOND);
        self.measured = Measured::default();
        self.recording = Recording::Steady;
        let mut host_before = probe.map(Probe::reading);
        let mut cpu_before = crate::procstat::cpu_seconds();
        for _ in 0..seconds {
            self.measured.seconds.push(Second {
                update_ns: Vec::with_capacity(RESERVED_OPS_PER_SECOND),
                query_ns: Vec::with_capacity(RESERVED_OPS_PER_SECOND),
                cpu_seconds: 0.0,
                host_index: 1.0,
            });
            self.run_for(Duration::from_secs(1));
            let (cpu_now, host_now) = (crate::procstat::cpu_seconds(), probe.map(Probe::reading));
            let second = self.measured.seconds.last_mut().expect("pushed above");
            second.cpu_seconds = cpu_now - cpu_before;
            if let (Some(before), Some(now)) = (host_before, host_now) {
                second.host_index = hostspeed::index(before, now);
            }
            (cpu_before, host_before) = (cpu_now, host_now);
        }
        self.recording = Recording::Closing;
        self.drain(grace);
        self.recording = Recording::Closed;
    }

    /// Stops submitting and waits up to `grace` for the commands in flight.
    /// Returns how many never completed.
    pub fn drain(&mut self, grace: Duration) -> usize {
        let give_up = Instant::now() + grace;
        while !self.pending.is_empty() && Instant::now() < give_up {
            self.settle(true);
        }
        self.pending.len()
    }

    /// Bytes the client's own sample buffers hold, so they can be taken out
    /// of the process's peak RSS: they grow with throughput and are not the
    /// system under test.
    pub fn recorded_bytes(&self) -> usize {
        self.history.len() * std::mem::size_of::<(u64, HistoryOp)>()
            + self.measured.seconds.iter().map(Second::commits).sum::<u64>() as usize
                * std::mem::size_of::<u64>()
    }
}
