//! The benchmark's own metric math, kept free of any program type so it
//! can be unit-tested on synthetic inputs.

/// A ratio whose denominator is zero is a failed measurement, never NaN.
pub fn ratio(num: f64, den: f64, what: &str) -> Result<f64, String> {
    if den > 0.0 && num.is_finite() {
        Ok(num / den)
    } else {
        Err(format!("{what}: nothing to divide by (denominator {den})"))
    }
}

/// `total / estimates`; zero estimates is a failure.
pub fn per_estimate(total: f64, estimates: u64, what: &str) -> Result<f64, String> {
    ratio(total, estimates as f64, what)
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".into());
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile that still has `beyond` samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// Which percentile it is, in percent: `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// Sort ascending and take the value with exactly `beyond` samples
/// above it. Needs more than `beyond` samples.
pub fn tail(samples: &[f64], beyond: usize) -> Result<Tail, String> {
    let n = samples.len();
    if n <= beyond {
        return Err(format!(
            "a tail with {beyond} samples beyond it needs more than {beyond} samples, got {n}"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        n,
    })
}

/// The rank-`rank` (1-based) order statistic of values quantized to a
/// grid of `step`, interpolated inside its bin `[v − step/2, v + step/2)`
/// by where the rank falls among the bin's samples, as for grouped data.
/// `sorted` must be ascending and non-empty.
pub fn grouped(sorted: &[f64], rank: f64, step: f64) -> f64 {
    let idx = (rank.ceil() as usize).clamp(1, sorted.len()) - 1;
    let lo = sorted[idx] - step / 2.0;
    let below = sorted.partition_point(|x| *x < lo);
    let within = sorted.partition_point(|x| *x < lo + step) - below;
    lo + step * (rank - below as f64) / within as f64
}

/// Does the range `[low, high]` cover `a`? Both ends count as covering.
pub fn covers(low: f64, high: f64, a: f64) -> bool {
    low <= a && a <= high
}

/// The relative variation ρ of eq. 12: `(high − low) / ((high + low) / 2)`.
/// A range starting at 0 has ρ = 2; a range with no upper end is invalid.
pub fn rho(low: f64, high: f64) -> Result<f64, String> {
    if !(0.0 <= low && low <= high) || high <= 0.0 {
        return Err(format!("rho of an invalid range [{low}, {high}]"));
    }
    Ok((high - low) / ((high + low) / 2.0))
}

/// Quantile `q` of a log2 histogram (bucket `i` holds values in
/// `(2^(i-1), 2^i]`, bucket 0 holds values ≤ 1), interpolated linearly
/// inside the bucket the rank falls in, as Prometheus'
/// `histogram_quantile` does.
pub fn log2_quantile(buckets: &[u64], q: f64) -> Result<f64, String> {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return Err("quantile of an empty histogram".into());
    }
    let rank = (q * count as f64).clamp(1.0, count as f64);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let hi = 2f64.powi(i as i32);
            let lo = if i == 0 { 0.0 } else { hi / 2.0 };
            return Ok(lo + (hi - lo) * (rank - seen as f64) / c as f64);
        }
        seen += c;
    }
    Err("histogram rank past the last bucket".into())
}

/// 64-bit FNV-1a, for the deterministic-count digests.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `v` (little-endian bytes) into the digest.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent per-cell / per-round seeds from the
/// workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: ten samples (91..=100) lie beyond 90, the 90th percentile.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        // 40 samples: the 30th value, the 75th percentile.
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
    }

    #[test]
    fn tail_needs_more_samples_than_it_skips() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&v, 10).is_err());
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_interpolates_inside_a_plateau() {
        // Ten samples on a 5 ms grid, six of them on one value.
        let v = [1.0, 1.005, 1.01, 1.01, 1.01, 1.01, 1.01, 1.01, 1.015, 1.02];
        // Rank 5 is the third of six in the bin [1.0075, 1.0125).
        assert!((grouped(&v, 5.0, 0.005) - (1.0075 + 0.005 * 3.0 / 6.0)).abs() < 1e-12);
        // The last sample of the bin sits at its top edge.
        assert!((grouped(&v, 8.0, 0.005) - 1.0125).abs() < 1e-12);
        // A lone sample's rank lands at the top of its own bin.
        assert!((grouped(&v, 1.0, 0.005) - 1.0025).abs() < 1e-12);
    }

    #[test]
    fn coverage_includes_both_boundaries() {
        assert!(covers(4.0, 6.0, 4.0));
        assert!(covers(4.0, 6.0, 6.0));
        assert!(covers(5.0, 5.0, 5.0));
        assert!(!covers(4.0, 6.0, 3.999_999));
        assert!(!covers(4.0, 6.0, 6.000_001));
    }

    #[test]
    fn rho_at_zero_low_is_two() {
        assert_eq!(rho(0.0, 12.0).unwrap(), 2.0);
        assert_eq!(rho(6.0, 12.0).unwrap(), 6.0 / 9.0);
        assert_eq!(rho(5.0, 5.0).unwrap(), 0.0);
        assert!(rho(0.0, 0.0).is_err());
        assert!(rho(7.0, 6.0).is_err());
        assert!(rho(-1.0, 6.0).is_err());
    }

    #[test]
    fn per_estimate_with_no_estimates_fails() {
        assert!(per_estimate(123.0, 0, "cpu").is_err());
        assert!(per_estimate(0.0, 0, "cpu").is_err());
        assert_eq!(per_estimate(10.0, 4, "cpu").unwrap(), 2.5);
        assert!(ratio(f64::NAN, 2.0, "x").is_err());
        assert!(ratio(1.0, 0.0, "x").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn log2_quantile_interpolates_inside_the_bucket() {
        // Four samples in (512, 1024]: the median sits halfway through it.
        let mut b = vec![0u64; 65];
        b[10] = 4;
        assert_eq!(log2_quantile(&b, 0.5).unwrap(), 768.0);
        assert_eq!(log2_quantile(&b, 1.0).unwrap(), 1024.0);
        // One slow sample in (2^20, 2^21] owns the top 1 %.
        let mut b = vec![0u64; 65];
        b[10] = 99;
        b[21] = 1;
        assert!(log2_quantile(&b, 0.5).unwrap() < 1024.0);
        assert_eq!(log2_quantile(&b, 1.0).unwrap(), 2_097_152.0);
        assert!(log2_quantile(&[0; 65], 0.5).is_err());
    }

    #[test]
    fn digest_and_mix_are_stable() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
