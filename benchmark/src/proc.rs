//! What the kernel says about this process and this machine, read from
//! `/proc` (Linux only; elsewhere every reading is zero and says so).

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux has used 100 on every architecture since 2.6;
/// reading the real value needs `sysconf`, which needs libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time and fault counts of this process, threads that already exited
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

pub fn stat() -> ProcStat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_stat(&text))
        .unwrap_or_default()
}

fn parse_stat(text: &str) -> Option<ProcStat> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numbered fields start after its closing parenthesis, at field 3.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |number: usize| fields.get(number - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_SECOND,
        sys_s: field(15)? as f64 / TICKS_PER_SECOND,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vm_hwm_kb(&text))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 977 0 3 0 151 49 0 0 20 0 3 0 100 1 2";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.minor_faults, 977);
        assert_eq!(stat.user_s, 1.51);
        assert_eq!(stat.sys_s, 0.49);
        assert_eq!(stat.cpu_s(), 2.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            assert!(nproc() >= 1);
        }
    }
}
