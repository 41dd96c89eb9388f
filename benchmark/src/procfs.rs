//! What the kernel says about this process: CPU time of all its threads,
//! peak resident memory, and the host's CPU model.

use std::fs;

/// On-CPU nanoseconds from one `/proc/<pid>/task/<tid>/schedstat` line
/// (`<on-cpu ns> <run-queue wait ns> <timeslices>`).
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Kilobytes from the `VmHWM:` line of a `/proc/<pid>/status` document.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The first `model name` of a `/proc/cpuinfo` document.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<&str> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim())
}

/// On-CPU nanoseconds summed over every live thread of this process.
/// Threads that have exited are gone from the sum, so take differences
/// only across stretches in which no thread ends (a measured phase).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .sum()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

/// The host CPU's model name, or `unknown`.
pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    parse_cpu_model(&info).unwrap_or("unknown").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(parse_schedstat("999655910 19952786 66\n"), Some(999_655_910));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1752 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1752));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn cpu_model_takes_the_first_processor() {
        let info =
            "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info), Some("Intel(R) Xeon(R) @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns() > before, "busy loop used no CPU time");
        assert!(peak_rss_mb() > 0.5);
    }
}
