//! Order statistics, a seeded generator, and process counters.

use std::time::Duration;

/// The `q` quantile (`0..=1`) of `sorted`, interpolating linearly
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `samples` sorted ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (non-empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The median of `samples`, or 0 when there are none (a layer the phase
/// did not exercise).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The mean of `samples`, or 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First quartile, median and third quartile of `samples`, with the
/// sample count: the spread every result file records per metric.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub q2: f64,
    pub q3: f64,
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    let s = sorted(samples);
    Quartiles {
        n: s.len(),
        q1: quantile(&s, 0.25),
        q2: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

/// Whether a tail percentile `pct` of `samples` is reportable: at least
/// ten samples lie beyond it, and the percentile of the even-indexed
/// samples and of the odd-indexed ones agree within a tenth.
pub fn tail_holds(samples: &[f64], pct: f64) -> bool {
    let beyond = samples.len() as f64 * (100.0 - pct) / 100.0;
    if beyond < 10.0 {
        return false;
    }
    let half = |parity: usize| -> Vec<f64> {
        let picked: Vec<f64> = samples
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, v)| *v)
            .collect();
        sorted(&picked)
    };
    let (a, b) = (
        quantile(&half(0), pct / 100.0),
        quantile(&half(1), pct / 100.0),
    );
    (a - b).abs() <= 0.1 * a.max(b)
}

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean: Poisson arrivals.
    pub fn exp_gap(&mut self, mean: Duration) -> Duration {
        mean.mul_f64(-(1.0 - self.unit()).ln())
    }
}

/// FNV-1a, 64 bit: a digest stable across toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// CPU seconds this process has used (user + system, all threads,
/// exited ones included), from `/proc/self/stat`.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / CLOCK_TICKS_PER_SEC
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux ABI.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// `(steal, total)` clock ticks of the whole host from `/proc/stat`: the
/// share of time a hypervisor gave this machine's CPUs to someone else.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat starts with the cpu line")
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Resident set of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.n, q.q1, q.q2, q.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let flat: Vec<f64> = (0..50).map(|_| 1.0).collect();
        assert!(tail_holds(&flat, 80.0));
        assert!(!tail_holds(&flat, 90.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let gap = Rng::new(1).exp_gap(Duration::from_millis(1));
        assert!(gap < Duration::from_secs(1));
    }
}
