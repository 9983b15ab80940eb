//! Resource probes read from outside the program, through `/proc`.
//!
//! * peak RSS: `/proc/self/clear_refs` ("5") resets the high-water mark to
//!   the current RSS, and `VmHWM` in `/proc/self/status` reads it back;
//! * CPU time: `utime + stime` of `/proc/thread-self/stat` (the calling
//!   thread) and `/proc/self/stat` (the whole process), in clock ticks;
//! * host steal: the `steal` column of `/proc/stat`, the time the
//!   hypervisor ran someone else on this machine's CPUs.

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exposes to user space).
const TICKS_PER_SECOND: u64 = 100;

/// Reset the process's peak-RSS mark to its current RSS.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// The process's peak RSS (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) from a `/proc/.../stat` file.
fn stat_cpu(path: &str) -> Duration {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Duration::ZERO;
    };
    // The command name is parenthesised and may hold spaces: fields are
    // counted from the last ')'. After it, field 3 (state) is index 0, so
    // utime (field 14) is index 11 and stime (field 15) index 12.
    let Some(tail) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let total = ticks(11) + ticks(12);
    Duration::from_millis(total * 1000 / TICKS_PER_SECOND)
}

/// CPU time stolen from this machine so far, summed over its CPUs.
pub fn host_steal() -> Duration {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let steal = text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(steal * 1000 / TICKS_PER_SECOND)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    stat_cpu("/proc/thread-self/stat")
}

/// CPU time consumed so far by the whole process (all threads, live and
/// exited).
pub fn process_cpu() -> Duration {
    stat_cpu("/proc/self/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_plausible_values() {
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let thread = thread_cpu();
        assert!(thread > Duration::ZERO);
        // One tick of slack: the two files are sampled separately.
        assert!(process_cpu() + Duration::from_millis(10) >= thread);
        reset_peak_rss().expect("clear_refs is writable by the process itself");
        assert!(peak_rss_mib().expect("VmHWM present") > 0.0);
    }
}
