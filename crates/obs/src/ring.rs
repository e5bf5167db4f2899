//! Opt-in sampled trace ring and post-hoc timeline assembly.
//!
//! A [`TraceRing`] is a preallocated per-worker ring of compact
//! `(command, stage, timestamp)` events. Recording is two relaxed atomic
//! stores bracketed by a per-slot seqlock sequence that the writer claims with
//! one compare-exchange — no locks, no waiting, no allocation —
//! and sampling is decided from the command id (`command % sample == 0`) so
//! either *every* stage of a command is captured or none are, which is what
//! the timeline assembler needs. Snapshots tolerate concurrent writers by
//! skipping slots whose sequence is unstable or odd.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::stage::Stage;

/// Timestamps are packed into the low 56 bits of one word, leaving the top
/// 8 bits for the stage. 2^56 ns is over two years of engine uptime.
const TS_BITS: u32 = 56;
const TS_MASK: u64 = (1 << TS_BITS) - 1;

/// Configuration for trace sampling. The default is disabled: the ring
/// holds no slots and `record` is a branch and a return.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Capture commands whose id is divisible by this; `0` disables tracing.
    pub sample: u64,
    /// Number of event slots in each ring.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

impl TraceConfig {
    /// Tracing off: zero slots, every `record` call is a cheap no-op.
    pub fn disabled() -> Self {
        TraceConfig { sample: 0, capacity: 0 }
    }

    /// Capture one in `sample` commands into a ring of `capacity` events.
    pub fn sampled(sample: u64, capacity: usize) -> Self {
        TraceConfig { sample, capacity }
    }

    /// True when this configuration captures anything at all.
    pub fn enabled(&self) -> bool {
        self.sample != 0 && self.capacity != 0
    }
}

/// One captured `(command, stage, timestamp)` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The engine-wide command id the event belongs to.
    pub command: u64,
    /// The station that logged the event.
    pub stage: Stage,
    /// Nanoseconds since the engine's start instant.
    pub at_nanos: u64,
}

struct Slot {
    /// Seqlock sequence: odd while a write is in flight, even when stable,
    /// zero when the slot has never been written.
    seq: AtomicU64,
    command: AtomicU64,
    packed: AtomicU64,
}

/// A preallocated ring of sampled trace events.
///
/// Intended use: one ring per worker/router thread (single writer), snapshot
/// from any thread. Concurrent writers are safe but lossy: once the ring has
/// wrapped, two of them can draw one slot, and the one that finds it mid-write
/// drops its event. A snapshot never sees a slot mid-write.
pub struct TraceRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    sample: u64,
}

impl TraceRing {
    /// Builds a ring for `config`; a disabled config allocates no slots.
    pub fn new(config: TraceConfig) -> Self {
        let capacity = if config.enabled() { config.capacity } else { 0 };
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                command: AtomicU64::new(0),
                packed: AtomicU64::new(0),
            })
            .collect();
        TraceRing {
            slots,
            cursor: AtomicU64::new(0),
            sample: if config.enabled() { config.sample } else { 0 },
        }
    }

    /// True when this ring captures anything.
    pub fn enabled(&self) -> bool {
        self.sample != 0
    }

    /// Records an event if `command` is in the sample. Lock-free and
    /// allocation-free; disabled rings return immediately.
    pub fn record(&self, command: u64, stage: Stage, at_nanos: u64) {
        if self.sample == 0 || !command.is_multiple_of(self.sample) {
            return;
        }
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Seqlock write: odd sequence while the payload words are in flux. After
        // a wrap two writers can hold tickets for one slot, so the odd sequence
        // is claimed, even → odd, by one of them; a writer that finds the slot
        // mid-write drops its event rather than wait. The fence is what keeps
        // the payload stores below from becoming visible before the odd
        // sequence does.
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        slot.command.store(command, Ordering::Relaxed);
        slot.packed
            .store(((stage.index() as u64) << TS_BITS) | (at_nanos & TS_MASK), Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Appends every stable captured event to `out` (unordered). Slots that
    /// are mid-write or never written are skipped.
    pub fn snapshot_into(&self, out: &mut Vec<TraceEvent>) {
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue;
            }
            let command = slot.command.load(Ordering::Relaxed);
            let packed = slot.packed.load(Ordering::Relaxed);
            // The mirror image: an acquire *load* only orders what follows
            // it, so the fence is what keeps the payload loads above from
            // being satisfied after the closing sequence load.
            fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if after != before {
                continue;
            }
            let Some(stage) = Stage::ALL.get((packed >> TS_BITS) as usize).copied() else {
                continue;
            };
            out.push(TraceEvent { command, stage, at_nanos: packed & TS_MASK });
        }
    }
}

/// One command's reconstructed passage through the stages.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// The command id.
    pub command: u64,
    /// `(stage, at_nanos)` pairs in timestamp order.
    pub events: Vec<(Stage, u64)>,
}

impl Timeline {
    /// Nanoseconds between the first and last captured event.
    pub fn span_nanos(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => last.1.saturating_sub(first.1),
            _ => 0,
        }
    }
}

/// Groups raw ring events into per-command timelines, slowest span first.
/// Commands whose events were partially overwritten by ring wrap-around
/// still appear, with whatever stages survived.
pub fn assemble_timelines(events: &[TraceEvent]) -> Vec<Timeline> {
    let mut by_command: std::collections::BTreeMap<u64, Vec<(Stage, u64)>> =
        std::collections::BTreeMap::new();
    for event in events {
        by_command.entry(event.command).or_default().push((event.stage, event.at_nanos));
    }
    let mut timelines: Vec<Timeline> = by_command
        .into_iter()
        .map(|(command, mut events)| {
            events.sort_by_key(|&(_, at)| at);
            Timeline { command, events }
        })
        .collect();
    timelines.sort_by_key(|timeline| std::cmp::Reverse(timeline.span_nanos()));
    timelines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = TraceRing::new(TraceConfig::disabled());
        ring.record(0, Stage::Decode, 1);
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sampling_keeps_whole_commands() {
        let ring = TraceRing::new(TraceConfig::sampled(4, 64));
        for command in 0..8u64 {
            ring.record(command, Stage::SubmitQueue, command * 10);
            ring.record(command, Stage::QuorumWait, command * 10 + 5);
        }
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        // Only commands 0 and 4 are in the 1-in-4 sample, both with both stages.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|e| e.command % 4 == 0));
    }

    #[test]
    fn ring_wraps_and_keeps_latest() {
        let ring = TraceRing::new(TraceConfig::sampled(1, 4));
        for command in 0..10u64 {
            ring.record(command, Stage::ProtocolStep, command);
        }
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert_eq!(out.len(), 4);
        let mut commands: Vec<u64> = out.iter().map(|e| e.command).collect();
        commands.sort_unstable();
        assert_eq!(commands, vec![6, 7, 8, 9]);
    }

    /// A reader racing a writer that laps a tiny ring must never see one
    /// event's command beside another's timestamp. Every event is written
    /// with `at_nanos == command`, so a torn pair is a visible mismatch.
    #[test]
    fn snapshot_never_observes_a_torn_event() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let ring = Arc::new(TraceRing::new(TraceConfig::sampled(1, 4)));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                for command in 1..=2_000_000u64 {
                    ring.record(command, Stage::ALL[(command % 8) as usize], command);
                }
                done.store(true, Ordering::Release);
            })
        };
        let mut out = Vec::new();
        let mut seen = 0usize;
        while !done.load(Ordering::Acquire) {
            out.clear();
            ring.snapshot_into(&mut out);
            for event in &out {
                assert_eq!(event.command, event.at_nanos, "torn event {event:?}");
                assert_eq!(event.stage, Stage::ALL[(event.command % 8) as usize]);
            }
            seen += out.len();
        }
        writer.join().unwrap();
        assert!(seen > 0, "the reader never overlapped the writer");
    }

    /// Two writers lapping a tiny ring draw the same slot; the one that finds
    /// it mid-write must drop its event, not mix it into the other's. Every
    /// event is written with `at_nanos == command`, so a slot left holding one
    /// writer's command beside the other's timestamp is a visible mismatch —
    /// to the reader racing the writers and in what the ring holds at the end.
    #[test]
    fn concurrent_writers_never_leave_a_torn_event() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let ring = Arc::new(TraceRing::new(TraceConfig::sampled(1, 4)));
        let running = Arc::new(AtomicUsize::new(2));
        let writers: Vec<_> = (0..2u64)
            .map(|writer| {
                let (ring, running) = (Arc::clone(&ring), Arc::clone(&running));
                std::thread::spawn(move || {
                    for n in 1..=4_000_000u64 {
                        let command = 2 * n + writer;
                        ring.record(command, Stage::ALL[(command % 8) as usize], command);
                    }
                    running.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        let check = |events: &[TraceEvent]| {
            for event in events {
                assert_eq!(event.command, event.at_nanos, "torn event {event:?}");
                assert_eq!(event.stage, Stage::ALL[(event.command % 8) as usize]);
            }
        };
        let mut out = Vec::new();
        while running.load(Ordering::Acquire) > 0 {
            out.clear();
            ring.snapshot_into(&mut out);
            check(&out);
        }
        for writer in writers {
            writer.join().unwrap();
        }
        out.clear();
        ring.snapshot_into(&mut out);
        check(&out);
        assert!(!out.is_empty(), "the writers left nothing behind");
    }

    #[test]
    fn timelines_sorted_by_span() {
        let events = [
            TraceEvent { command: 1, stage: Stage::SubmitQueue, at_nanos: 100 },
            TraceEvent { command: 1, stage: Stage::QuorumWait, at_nanos: 150 },
            TraceEvent { command: 2, stage: Stage::QuorumWait, at_nanos: 900 },
            TraceEvent { command: 2, stage: Stage::SubmitQueue, at_nanos: 200 },
        ];
        let timelines = assemble_timelines(&events);
        assert_eq!(timelines.len(), 2);
        assert_eq!(timelines[0].command, 2);
        assert_eq!(timelines[0].span_nanos(), 700);
        assert_eq!(timelines[0].events[0].0, Stage::SubmitQueue);
        assert_eq!(timelines[1].command, 1);
        assert_eq!(timelines[1].span_nanos(), 50);
    }
}
