//! Process accounting read from `/proc/self`: peak resident set and CPU
//! time. Parsing is split from reading so the parsers are unit-tested on
//! literal file contents.

/// `VmHWM` (the resident-set high-water mark) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so the
/// numbered fields are counted from the *last* `)`.
pub fn parse_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

/// `sysconf(_SC_CLK_TCK)`. std has no binding for it; the kernel ABI has
/// reported 100 on every Linux architecture since 2.6, so it is a constant
/// here rather than a libc dependency.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// User plus system CPU seconds of this process so far.
pub fn cpu_secs() -> Option<f64> {
    parse_cpu_secs(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_and_converted_to_mb() {
        let status =
            "Name:\tlml-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn cpu_fields_are_counted_after_the_last_paren() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "4242 (evil) name)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(parse_cpu_secs(stat), Some(3.0));
        assert_eq!(parse_cpu_secs("no paren"), None);
        assert_eq!(parse_cpu_secs("1 (x) S 1 2"), None);
    }

    #[test]
    fn this_process_reports_both() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
        assert!(cpu_secs().expect("linux /proc") >= 0.0);
    }
}
