//! Small numeric helpers: the percentile rule, medians, a seeded PRNG, a
//! stable digest and the process's peak resident set.

use std::time::Duration;

/// Samples a percentile needs beyond it before it is reported: a tail
/// read from fewer points is one outlier, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Samples a run collects before it may report a p95: 95 % of 200 leaves
/// exactly [`MIN_BEYOND`] samples above the 190th.
pub const MIN_SAMPLES_P95: usize = 200;

/// The nearest-rank `p`th percentile of `samples` (any order), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = rank(samples.len(), p)?;
    if samples.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The nearest-rank `p`th percentile with no tail rule, for descriptive
/// summaries; 0 when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    rank(samples.len(), p).map_or(0.0, |rank| sorted(samples)[rank - 1])
}

fn rank(len: usize, p: f64) -> Option<usize> {
    if len == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    Some(((p / 100.0) * len as f64).ceil().max(1.0) as usize)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part / whole` in percent; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// splitmix64: a tiny seeded generator, so inputs follow from `--seed`
/// alone and the benchmark needs no RNG dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_B175_7A45_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a 64-bit digest, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), None, "199 samples leave 9 beyond the p95");
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        assert_eq!(percentile(&[3.0; 10], 50.0), None, "a median of 10 has 5 beyond it");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_and_digest_are_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("a"), digest("b"));
    }
}
