//! `/proc` readers: process CPU time, peak resident set, host fingerprint.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat`. `USER_HZ` is 100 on
/// every Linux ABI; reading it properly needs `sysconf`, which std does
/// not expose.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU time this process has used so far, in ms (all threads).
pub fn cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// What the numbers were taken on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub simd: &'static str,
    pub cpu_model: String,
    pub mem_total_mb: u64,
}

/// First `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `MemTotal` of `/proc/meminfo` in MiB.
pub fn parse_mem_total_mb(meminfo: &str) -> Option<u64> {
    meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()
        .map(|kb| kb / 1024)
}

pub fn host() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: parsim_logic::wide::simd_level().name(),
        cpu_model: fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| parse_cpu_model(&s))
            .unwrap_or_else(|| "unknown".into()),
        mem_total_mb: fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|s| parse_mem_total_mb(&s))
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a ')' inside; utime=250 stime=50.
        let stat = "4242 (par sim) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 \
                    12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(50.0));
        assert_eq!(parse_status_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn host_files() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.10GHz\nflags\t: avx2\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Example CPU @ 2.10GHz")
        );
        assert_eq!(
            parse_mem_total_mb("MemTotal:       16384000 kB\nMemFree: 1 kB\n"),
            Some(16000)
        );
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(host().nproc >= 1);
    }
}
