//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the regression
//! driver computes over repeated runs — the numbers `--compare` prints
//! must mean the same thing.

/// Which end of a sample is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Best {
    /// Rates: larger is better.
    High,
    /// Times: smaller is better.
    Low,
}

/// One metric over the rounds of a run: the reported value, then the
/// median, quartiles and extremes it sits among.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value: the **best round** (the highest rate, the
    /// shortest time). The host this runs on slows to about 60 % of its
    /// speed for seconds to minutes at a time; the slowdown is
    /// one-sided, so the fastest round is the program's own speed and
    /// repeats between runs where the median does not.
    pub value: f64,
    /// The median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`, whose good end is `best`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64], best: Best) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Summary {
            value: match best {
                Best::High => sorted[sorted.len() - 1],
                Best::Low => sorted[0],
            },
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// A summary of one exact value (simulated metrics, counts).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The shortest of a sample of times (0 for an empty slice).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `(q1, median, q3)` of an ascending slice, exclusive method. A single
/// sample is its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // statistics.quantiles(method="exclusive"), n = 4
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest percentile of `samples` that still has at least ten
/// samples beyond it, as `(percentile, value)` — e.g. p99 from 1 000
/// samples, p99.9 from 10 000. `None` with ten samples or fewer: no
/// tail figure is supported.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // 1-based rank k leaves n - k samples beyond it.
    let k = n - 10;
    Some((100.0 * k as f64 / n as f64, sorted[k - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs, Best::High);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0], Best::High);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0], Best::High);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 16.0, 5));
    }

    #[test]
    fn the_reported_value_is_the_best_round() {
        let xs = [3.0, 9.0, 5.0, 7.0, 1.0];
        assert_eq!(Summary::of(&xs, Best::High).value, 9.0);
        assert_eq!(Summary::of(&xs, Best::Low).value, 1.0);
        assert_eq!(Summary::exact(4.0).value, 4.0);
        assert_eq!(fastest(&xs), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        let median = |xs: &[f64]| Summary::of(xs, Best::Low).median;
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>(), Best::Low);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&xs[..10]), None);
    }
}
