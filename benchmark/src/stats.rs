//! Order statistics and the output hash.

/// A percentile was asked of too few samples: fewer than ten lie beyond it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank, on its shorter side.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "only {} of {} samples lie beyond it, {TAIL_SAMPLES} are needed",
            self.beyond, self.samples
        )
    }
}

/// Samples a tail must hold before its percentile is reported.
const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples. The
/// small slack keeps `0.9 * 100` at rank 90 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` in `(0, 1)`, refused unless at least ten
/// samples lie beyond it on its shorter side.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let n = samples.len();
    let beyond = if n == 0 {
        0
    } else {
        (rank(p, n) - 1).min(n - rank(p, n))
    };
    if beyond < TAIL_SAMPLES {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(nearest_rank(samples, p))
}

/// Nearest-rank percentile with no sample-count rule: for `--quick` smoke
/// runs (never for numbers) and for medians of small probe sets.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads computed here match the driver's.
/// `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; `None` with fewer than
/// four samples (two quartiles of three points say nothing about spread).
pub fn spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 4 {
        return None;
    }
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// 64-bit FNV-1a, the hash the oracle stores for each expected VCD.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&ninety_nine, 0.9),
            Err(TooFewSamples {
                samples: 99,
                beyond: 9
            })
        );
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        // The median needs ten on each side.
        assert_eq!(
            percentile(&hundred[..20], 0.5),
            Err(TooFewSamples {
                samples: 20,
                beyond: 9
            })
        );
        assert_eq!(percentile(&hundred[..21], 0.5), Ok(11.0));
        assert_eq!(
            percentile(&[], 0.5),
            Err(TooFewSamples {
                samples: 0,
                beyond: 0
            })
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn median_and_hash() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
