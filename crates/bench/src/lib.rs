//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the reproduced papers has a dedicated bench
//! target (all `harness = false` so `cargo bench` regenerates the full
//! evaluation):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Atif & Mousavi Table 1 |
//! | `table2` | Atif & Mousavi Table 2 |
//! | `table_fixed` | §6 all-pass table + per-fix ablation |
//! | `figures_ce` | Figures 10(a)–13 counter-example replays |
//! | `fig1_fig2_lts` | Figures 1–2 reduced transition systems |
//! | `gm98_overhead` | overhead-vs-acceleration trade-off (GM98) |
//! | `gm98_detection` | detection-delay distributions vs analytic bounds |
//! | `gm98_reliability` | false-inactivation probability vs loss rate |
//! | `state_space` | model sizes per cell + the GM98 liveness core + the §7 rejoin grid |
//! | `ablation_burst` | burst-loss and outage ablations (beyond the papers) |

#![forbid(unsafe_code)]

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Maximum of a sample (0 for empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// `p`-quantile (nearest-rank) of a sample.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Render a compact `mean ± sd (max)` cell.
pub fn cell(xs: &[f64]) -> String {
    format!("{:.1} ± {:.1} (max {:.0})", mean(xs), stddev(xs), max(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138).abs() < 0.01);
    }

    #[test]
    fn empty_samples_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
    }

    #[test]
    fn cell_formats() {
        let s = cell(&[1.0, 2.0, 3.0]);
        assert!(s.contains('±'));
        assert!(s.contains("max 3"));
    }
}
