//! Process-wide CPU time and peak memory, from `/proc/self`.

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Fixed at 100
/// on every Linux ABI this runs on (it is what `sysconf(_SC_CLK_TCK)` returns;
/// reading it needs libc, which this package does not link directly).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads) so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / TICKS_PER_SECOND
}

/// Fields 14 and 15 (`utime`, `stime`). The command name (field 2) may hold
/// spaces and parentheses, so counting starts after the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.get(stat.rfind(')')? + 1..)?.split_ascii_whitespace();
    // `fields` starts at field 3 (state); utime is 11 further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM`, the process's peak resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 120 0 0 0 37 5 0 0 20 0 9 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_hwm_kib(status), Some(20480));
    }

    #[test]
    fn live_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.02, "50 ms of spinning shows as CPU time");
        assert!(peak_rss_mib() > 0.5);
    }
}
