//! Exact statistics over raw samples: no buckets, no interpolation.

/// How many samples must lie beyond a percentile for it to be quoted.
pub const MIN_BEYOND: usize = 10;

/// Samples of one timing, sorted once on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
    sum: f64,
}

impl Samples {
    /// Take ownership of raw samples (any order).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        // `+ 0.0`: an empty f64 sum is -0.0, which prints as "-0".
        let sum = values.iter().sum::<f64>() + 0.0;
        Self {
            sorted: values,
            sum,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Largest sample; 0 without samples.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The nearest-rank percentile `p` in `(0, 1)`: the smallest sample
    /// with at least `p` of the samples at or below it. `None` unless at
    /// least [`MIN_BEYOND`] samples lie beyond it — a p99 of fewer than
    /// 1,000 samples is one of its top few values, not a percentile.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// Median without the sample-count rule (for a handful of repeated
    /// whole-phase timings); 0 without samples.
    pub fn median(&self) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n if n % 2 == 1 => self.sorted[n / 2],
            n => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }
}

/// First quartile, median and third quartile of a handful of values, as
/// Python's `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method the driver uses). Needs two values; fewer give the value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 2, 7, 4, 5], n=4)
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 5.0]), (3.0, 5.0, 8.5));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    fn ramp(n: usize) -> Samples {
        // 1, 2, ..., n in scrambled order.
        Samples::new((0..n).map(|i| ((i * 7919) % n + 1) as f64).collect())
    }

    #[test]
    fn percentiles_are_exact_sample_values() {
        let s = ramp(1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.percentile(0.9), Some(900.0));
        assert_eq!(s.max(), 1000.0);
        assert_eq!(s.mean(), 500.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples is rank 990: 9 beyond — refused.
        assert_eq!(ramp(999).percentile(0.99), None);
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        // p50 needs 20 samples.
        assert_eq!(ramp(19).percentile(0.5), None);
        assert_eq!(ramp(20).percentile(0.5), Some(10.0));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn median_and_mean_of_few_values() {
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples::new(vec![4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(Samples::default().mean(), 0.0);
    }
}
