//! Order statistics for the benchmark's samples.
//!
//! A tail percentile is only printed when the sample supports it: the
//! rule is "at least ten samples beyond it", so p99 needs 1000 samples
//! and p90 needs 100. Asking for an unsupported percentile is an error,
//! never a silently noisy number.

/// Samples beyond a percentile that the support rule requires.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark reports tails at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// A sorted, non-empty set of finite samples.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values`; `None` if there are none or any is not finite.
    pub fn new(mut values: Vec<f64>) -> Option<Samples> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        values.sort_by(f64::total_cmp);
        Some(Samples { sorted: values })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// First and third quartiles, computed like Python's
    /// `statistics.quantiles(values, n=4)` (the default exclusive
    /// method); a single sample is its own quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        let n = self.sorted.len();
        if n == 1 {
            return (self.sorted[0], self.sorted[0]);
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            self.sorted[j - 1] + (self.sorted[j] - self.sorted[j - 1]) * delta
        };
        (cut(1), cut(3))
    }

    /// Interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn relative_spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let med = self.median();
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    }

    /// Whether at least [`MIN_BEYOND`] samples lie strictly above the
    /// nearest-rank position of percentile `p`.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (0.0..100.0).contains(&p) && n.saturating_sub(rank.max(1)) >= MIN_BEYOND
    }

    /// The nearest-rank percentile `p`, or an error naming the sample
    /// count when the support rule rejects it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        if !self.supports(p) {
            return Err(format!(
                "p{p} needs at least {MIN_BEYOND} samples beyond it; have {} samples",
                self.len()
            ));
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        Ok(self.sorted[rank.max(1) - 1])
    }

    /// The highest percentile of [`TAIL_LADDER`] the samples support.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .find(|&&p| self.supports(p))
            .map(|&p| (p, self.percentile(p).expect("supported percentile")))
    }

    /// One human-readable line: median, quartiles, the highest
    /// supported tail and the sample count.
    pub fn describe(&self) -> String {
        let (q1, q3) = self.quartiles();
        let tail = match self.highest_tail() {
            Some((p, v)) => format!(" p{p}={v:.6}"),
            None => " (no tail: too few samples)".to_string(),
        };
        format!(
            "median={:.6} q1={q1:.6} q3={q3:.6} iqr/median={:.4}{tail} n={}",
            self.median(),
            self.relative_spread(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Samples {
        Samples::new(v.to_vec()).unwrap()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(s(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(s(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(s(&[7.0]).median(), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(s(&v).quartiles(), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(s(&[4.0, 3.0, 2.0, 1.0]).quartiles(), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(s(&[9.0, 5.0]).quartiles(), (4.0, 10.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((s(&v).relative_spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(s(&[2.0, 2.0, 2.0]).relative_spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let all = s(&v);
        assert_eq!(all.percentile(99.0), Ok(990.0));
        assert!(all.percentile(99.9).is_err(), "1 sample beyond p99.9");
        assert_eq!(all.highest_tail(), Some((99.0, 990.0)));

        let few = s(&v[..999]);
        assert!(few.percentile(99.0).is_err(), "999 samples leave 9 beyond p99");
        assert_eq!(few.highest_tail().map(|t| t.0), Some(95.0));

        let tiny = s(&[1.0, 2.0, 3.0]);
        assert!(tiny.percentile(90.0).is_err());
        assert_eq!(tiny.highest_tail(), None);
        assert!(tiny.describe().contains("n=3"));
    }

    #[test]
    fn rejects_empty_and_non_finite_input() {
        assert!(Samples::new(Vec::new()).is_none());
        assert!(Samples::new(vec![1.0, f64::NAN]).is_none());
        assert!(Samples::new(vec![f64::INFINITY]).is_none());
    }
}
