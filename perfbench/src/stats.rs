//! Measurement helpers: medians, report digests, the process counters
//! read from `/proc/self`, and a stopwatch that discounts host steal.

use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Largest value of `values`; `0.0` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// 64-bit FNV-1a of `bytes`: a digest that is stable across builds and
/// toolchains, so report digests can be compared between commits.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Peak resident set (`VmHWM`) of this process in bytes, if
/// `/proc/self/status` is readable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Hypervisor steal time summed over every CPU, in seconds: time the
/// host ran something else while a virtual CPU of this machine was
/// ready to run. Read from the aggregate `cpu` line of `/proc/stat`
/// (its 8th value, in `USER_HZ` ticks of 10 ms).
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// A stopwatch over host seconds: wall-clock time less the steal time
/// that accrued meanwhile, so that a noisy neighbour on a shared host
/// does not read as a slower program.
///
/// The steal is summed over every CPU, not averaged: the queueing
/// engine's threads wait for one another at every phase barrier, so a
/// stall on any CPU delays the whole batch (measured on a 2-vCPU guest:
/// a batch's wall time grew by about the summed steal).
pub struct HostTimer {
    start: Instant,
    steal: Option<f64>,
}

impl HostTimer {
    pub fn start() -> Self {
        HostTimer {
            start: Instant::now(),
            steal: steal_seconds(),
        }
    }

    /// Wall seconds since [`HostTimer::start`].
    pub fn wall(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Host seconds since [`HostTimer::start`] and the steal they
    /// exclude. Where steal is unreadable, or reads at least the whole
    /// interval, the host seconds are the wall seconds.
    pub fn host(&self) -> (f64, f64) {
        let wall = self.wall();
        let stolen = match (self.steal, steal_seconds()) {
            (Some(before), Some(after)) if after - before < wall => after - before,
            _ => 0.0,
        };
        (wall - stolen, stolen)
    }
}

/// User plus system CPU time of this process (every thread) in
/// seconds, from `/proc/self/stat`. Linux reports it in `USER_HZ`
/// ticks, which is 100 per second on every architecture, so the
/// resolution is 10 ms.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are plain. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv1a_known_value() {
        // The FNV-1a reference vector for "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        assert!(cpu_seconds().is_some());
        assert!(steal_seconds().is_some());
        let (host, stolen) = HostTimer::start().host();
        assert!(host >= 0.0 && stolen >= 0.0);
    }
}
