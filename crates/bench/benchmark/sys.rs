//! Peak resident memory, as the process itself reports it in `/proc`.

/// Peak resident set size in MiB, from a `/proc/<pid>/status` text
/// (`VmHWM:   12345 kB`).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kib_into_mib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
