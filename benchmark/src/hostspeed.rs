//! The host-speed probe: what the same work costs on this machine right now,
//! against what it costs when the machine is left alone.
//!
//! The box is a few virtual cores of a shared host. Its neighbours slow it:
//! for seconds to minutes at a stretch the same code costs 1.2 to 2 times the
//! CPU time, and nothing in the guest says so (steal time reads 0). Ten runs
//! of one workload then spread by 15–35 %, whatever the window or the
//! statistic, because a run sits inside one such stretch. So the benchmark
//! measures the host beside the system: on **every core** the process may use
//! (the cores are slowed separately: one was seen at 1.6 times its quiet cost
//! while the other stayed at 1.1) a thread pinned there does, every few
//! milliseconds, a fixed piece of work and reads what it cost **in its own
//! CPU time**, which does not count the time it waited for the core. The
//! work is system calls (one-byte writes to `/dev/null`): of everything tried
//! (a register-only loop, pointer chases through 256 KiB and 16 MiB, a
//! loopback socket written and read by one thread, four ping-pong pairs over
//! loopback TCP, alone and combined) it is the one whose cost follows the
//! engine's, and nothing added to it explained more. Over sixteen runs of
//! `tcp_small` and `mesh_small` in a disturbed quarter of an hour the
//! correlation of log throughput with log cost was −0.98 and −0.99 (a single
//! unpinned thread: −0.90 and −0.96).
//!
//! The **host index** of an interval is the mean cost of the chunks finished
//! in it over [`REFERENCE_CHUNK_NANOS`], their cost on this box when it is
//! quiet: 1 on a quiet box, 1.4 in a bad stretch. Timings are stated at index
//! 1 (see `drive::Measured`): a second's value is scaled by [`slowdown`] of
//! its index — more than the index itself, because the engine, a score of
//! threads handing work to each other on two cores, slows more than the probe
//! does.
//!
//! The probes cost about half a percent of each core, all the time, on every
//! commit alike.

use std::ffi::{c_int, c_long};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One-byte writes per timed chunk.
const CHUNK_WRITES: usize = 300;
/// Sleep between chunks.
const PAUSE: Duration = Duration::from_millis(10);
/// CPU nanoseconds a chunk costs on this box (2 vCPUs, Xeon @ 2.1 GHz) when
/// the host is quiet: the lower end of what an hour of runs saw.
const REFERENCE_CHUNK_NANOS: f64 = 46_000.0;
/// How much more than the probe the engine slows: a second at host index
/// `i` is taken to have run `i^EXPONENT` times slower than at index 1.
/// One value for every workload and metric: a knob for each would be fitted
/// to the noise of one afternoon. See README.md for the fit.
const EXPONENT: f64 = 1.4;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: c_long,
    nanos: c_long,
}

/// A `cpu_set_t`: one bit per core, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    // From the C library std already links. `pid` 0 is the calling thread.
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, set: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, set: *const CpuSet) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has used, in nanoseconds.
fn thread_cpu_nanos() -> u64 {
    let mut time = Timespec { seconds: 0, nanos: 0 };
    // SAFETY: `time` is a valid, writable `timespec`; the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    time.seconds as u64 * 1_000_000_000 + time.nanos as u64
}

/// The cores the calling thread may run on.
fn allowed_cores() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable mask of the size passed.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(status, 0, "sched_getaffinity");
    (0..set.len() * 64).filter(|core| set[core / 64] >> (core % 64) & 1 == 1).collect()
}

/// Keeps the calling thread on `core`. Where the kernel refuses, the thread
/// goes on unpinned: it then samples whichever core it lands on, which is a
/// coarser reading of the same thing.
fn pin_to(core: usize) {
    let mut set: CpuSet = [0; 16];
    set[core / 64] = 1 << (core % 64);
    // SAFETY: `set` is a valid mask of the size passed; the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[derive(Default)]
struct Totals {
    nanos: AtomicU64,
    chunks: AtomicU64,
    stop: AtomicBool,
}

/// The probes' totals at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    nanos: u64,
    chunks: u64,
}

pub struct Probe {
    totals: Arc<Totals>,
    threads: Vec<JoinHandle<()>>,
}

impl Probe {
    /// One probing thread on every core this process may use.
    pub fn start() -> Probe {
        let totals = Arc::new(Totals::default());
        let threads = allowed_cores()
            .into_iter()
            .map(|core| {
                let totals = Arc::clone(&totals);
                std::thread::Builder::new()
                    .name(format!("host-probe-{core}"))
                    .spawn(move || probe(core, &totals))
                    .expect("spawn a host-speed probe")
            })
            .collect();
        Probe { totals, threads }
    }

    pub fn reading(&self) -> Reading {
        // `chunks` first: a chunk finished in between then only adds its cost
        // to an interval that is one chunk short, never the reverse.
        let chunks = self.totals.chunks.load(Ordering::Acquire);
        Reading { nanos: self.totals.nanos.load(Ordering::Relaxed), chunks }
    }
}

fn probe(core: usize, totals: &Totals) {
    pin_to(core);
    let mut sink =
        std::fs::OpenOptions::new().write(true).open("/dev/null").expect("open /dev/null");
    while !totals.stop.load(Ordering::Relaxed) {
        let before = thread_cpu_nanos();
        for _ in 0..CHUNK_WRITES {
            sink.write_all(&[0]).expect("write to /dev/null");
        }
        totals.nanos.fetch_add(thread_cpu_nanos() - before, Ordering::Relaxed);
        totals.chunks.fetch_add(1, Ordering::Release);
        std::thread::sleep(PAUSE);
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.totals.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The host index of the interval between two readings; 1 (no correction)
/// when no chunk finished inside it.
pub fn index(before: Reading, after: Reading) -> f64 {
    let chunks = after.chunks.saturating_sub(before.chunks);
    if chunks == 0 {
        return 1.0;
    }
    after.nanos.saturating_sub(before.nanos) as f64 / chunks as f64 / REFERENCE_CHUNK_NANOS
}

/// By how much an interval at host index `index` slowed the system under test.
pub fn slowdown(index: f64) -> f64 {
    index.powf(EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_counts_work_and_not_sleep() {
        let start = thread_cpu_nanos();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_nanos() - start;
        assert!(slept < 10_000_000, "30 ms asleep cost {slept} ns of CPU");
        let mut x = 1u64;
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_cpu_nanos() - start - slept > 10_000_000, "30 ms of spinning shows");
    }

    #[test]
    fn one_probe_per_allowed_core_reports_a_plausible_index() {
        let cores = allowed_cores();
        assert!(!cores.is_empty());
        let probe = Probe::start();
        assert_eq!(probe.threads.len(), cores.len());
        let before = probe.reading();
        assert_eq!(index(before, before), 1.0, "no chunk, no correction");
        std::thread::sleep(Duration::from_millis(200));
        let after = probe.reading();
        assert!(after.chunks - before.chunks >= 5, "{before:?} {after:?}");
        let index = index(before, after);
        assert!((0.2..20.0).contains(&index), "host index {index}");
        assert!(slowdown(1.0) == 1.0 && slowdown(index.max(1.1)) > index.max(1.1));
    }
}
