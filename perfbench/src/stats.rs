//! Exact order statistics, digests and process measurements.

/// Candidate percentiles for a `_tail` metric, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples beyond the tail percentile that a `_tail` metric requires.
const TAIL_BEYOND: usize = 10;

/// One order statistic: the percentile it sits at, its value, and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Percentile (0..=100) the value sits at.
    pub pct: f64,
    /// The sample at that rank, nanoseconds.
    pub ns: u64,
    /// Samples the statistic was taken from.
    pub n: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Raw per-operation latency samples, kept in full so every percentile
/// is an exact order statistic rather than a histogram bucket edge.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Nearest-rank percentile: the sample at rank `ceil(pct/100 · n)`.
    #[must_use]
    pub fn percentile(&self, pct: f64) -> Option<Quantile> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(Quantile {
            pct,
            ns: sorted[rank - 1],
            n,
            beyond: n - rank,
        })
    }

    /// The median.
    #[must_use]
    pub fn p50(&self) -> Option<Quantile> {
        self.percentile(50.0)
    }

    /// The highest candidate percentile with at least [`TAIL_BEYOND`]
    /// samples beyond it; with too few samples for any, the maximum.
    #[must_use]
    pub fn tail(&self) -> Option<Quantile> {
        TAIL_CANDIDATES
            .iter()
            .filter_map(|&p| self.percentile(p))
            .find(|q| q.beyond >= TAIL_BEYOND)
            .or_else(|| self.percentile(100.0))
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds the process has used so far, every thread (live or
/// exited) together. The kernel leaves out time the virtual machine was
/// descheduled (steal), so on a shared host this moves with the
/// program's own work, where wall time also moves with the neighbours'.
#[must_use]
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec that clock_gettime only
    // writes into.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    #[allow(clippy::cast_precision_loss)]
    {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Host cores available to this process.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of host measurements (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.p50().map(|q| q.ns), Some(50));
        let tail = s.tail().expect("samples");
        assert_eq!((tail.pct, tail.ns, tail.beyond), (90.0, 90, 10));
    }

    #[test]
    fn tail_falls_back_to_max_on_few_samples() {
        let mut s = Samples::default();
        for v in [5, 1, 3] {
            s.push(v);
        }
        let tail = s.tail().expect("samples");
        assert_eq!((tail.pct, tail.ns), (100.0, 5));
    }
}
