//! Comparing two samples.
//!
//! Model-based algorithm selection ultimately asks "is algorithm A faster
//! than algorithm B on this cluster?" — a two-sample problem. Welch's
//! t-test (unequal variances) answers it without assuming the two
//! algorithms' timing noise matches: its statistic and degrees of freedom
//! go with the Student-t critical values of [`crate::tdist`].

use crate::summary::Summary;

/// Result of Welch's two-sample t-test.
///
/// ```
/// use cpm_stats::WelchTest;
/// let linear   = [1.0, 1.1, 0.9, 1.0, 1.05];
/// let binomial = [2.0, 2.1, 1.9, 2.0, 2.05];
/// let w = WelchTest::run(&linear, &binomial).unwrap();
/// assert!(w.t < 0.0 && w.mean_diff < 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WelchTest {
    /// The t statistic (positive when the first sample's mean is larger).
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Difference of means (first − second).
    pub mean_diff: f64,
}

impl WelchTest {
    /// Runs the test. Returns `None` when either sample has fewer than 2
    /// observations or both variances are zero with equal means undefined…
    /// (zero pooled variance with distinct means yields ±∞ `t`, which is
    /// still a valid, maximally-confident answer).
    pub fn run(a: &[f64], b: &[f64]) -> Option<WelchTest> {
        let (sa, sb) = (Summary::of(a), Summary::of(b));
        if sa.count() < 2 || sb.count() < 2 {
            return None;
        }
        let (na, nb) = (sa.count() as f64, sb.count() as f64);
        let (va, vb) = (sa.variance() / na, sb.variance() / nb);
        let mean_diff = sa.mean() - sb.mean();
        let pooled = va + vb;
        if pooled == 0.0 {
            let t = if mean_diff == 0.0 {
                0.0
            } else if mean_diff > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            return Some(WelchTest {
                t,
                df: na + nb - 2.0,
                mean_diff,
            });
        }
        let t = mean_diff / pooled.sqrt();
        let df =
            pooled * pooled / (va * va / (na - 1.0) + vb * vb / (nb - 1.0)).max(f64::MIN_POSITIVE);
        Some(WelchTest { t, df, mean_diff })
    }
}

/// Estimates the mode of a sample by histogramming into `bins` equal-width
/// bins and returning the center of the fullest one — how "the most
/// frequent values of escalations" are summarized. Returns `None` on an
/// empty sample; a constant sample returns that constant.
pub fn mode_estimate(samples: &[f64], bins: usize) -> Option<f64> {
    Histogram::from_samples(samples, bins).map(|h| h.mode())
}

/// An equal-width histogram over a sample.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins. Returns `None` for
    /// an empty sample or zero bins; a constant sample produces one full
    /// bin.
    pub fn from_samples(samples: &[f64], bins: usize) -> Option<Histogram> {
        if samples.is_empty() || bins == 0 {
            return None;
        }
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0usize; bins];
        if lo == hi {
            counts[0] = samples.len();
            return Some(Histogram { lo, hi, counts });
        }
        let width = (hi - lo) / bins as f64;
        for &x in samples {
            let k = (((x - lo) / width) as usize).min(bins - 1);
            counts[k] += 1;
        }
        Some(Histogram { lo, hi, counts })
    }

    /// Center of the fullest bin.
    pub fn mode(&self) -> f64 {
        let bins = self.counts.len();
        let best = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(k, _)| k)
            .unwrap_or(0);
        if self.lo == self.hi {
            return self.lo;
        }
        let width = (self.hi - self.lo) / bins as f64;
        self.lo + (best as f64 + 0.5) * width
    }

    /// Renders the histogram as ASCII bars, `width` characters for the
    /// fullest bin, with a caption per bin (`fmt` maps a bin center to a
    /// label).
    pub fn render(&self, width: usize, mut fmt: impl FnMut(f64) -> String) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let bins = self.counts.len();
        let bin_width = if self.lo == self.hi {
            0.0
        } else {
            (self.hi - self.lo) / bins as f64
        };
        let mut out = String::new();
        for (k, &c) in self.counts.iter().enumerate() {
            let center = self.lo + (k as f64 + 0.5) * bin_width;
            let bar = "#".repeat(c * width / max);
            out.push_str(&format!(
                "{:>12} |{:<w$}| {}
",
                fmt(center),
                bar,
                c,
                w = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinguishes_clearly_different_samples() {
        let a: Vec<f64> = (0..20).map(|i| 1.0 + 0.01 * (i % 3) as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 2.0 + 0.01 * (i % 3) as f64).collect();
        let w = WelchTest::run(&a, &b).unwrap();
        assert!(w.t < 0.0, "a is smaller");
        assert!((w.mean_diff + 1.0).abs() < 0.02);
    }

    #[test]
    fn does_not_separate_identical_distributions() {
        let a: Vec<f64> = (0..30).map(|i| 5.0 + 0.1 * ((i * 7) % 11) as f64).collect();
        let b = a.clone();
        let w = WelchTest::run(&a, &b).unwrap();
        assert_eq!(w.t, 0.0);
    }

    #[test]
    fn zero_variance_distinct_means_is_infinitely_confident() {
        let a = vec![1.0; 5];
        let b = vec![2.0; 5];
        let w = WelchTest::run(&a, &b).unwrap();
        assert_eq!(w.t, f64::NEG_INFINITY);
    }

    #[test]
    fn small_samples_rejected() {
        assert!(WelchTest::run(&[1.0], &[2.0, 3.0]).is_none());
        assert!(WelchTest::run(&[], &[]).is_none());
    }

    #[test]
    fn mode_finds_the_heavy_cluster() {
        // 80% of the mass near 0.2, a tail near 1.0.
        let mut xs: Vec<f64> = (0..80).map(|i| 0.2 + 0.001 * (i % 7) as f64).collect();
        xs.extend((0..20).map(|i| 1.0 + 0.001 * (i % 5) as f64));
        let m = mode_estimate(&xs, 20).unwrap();
        assert!((m - 0.2).abs() < 0.05, "mode {m}");
    }

    #[test]
    fn mode_degenerate_cases() {
        assert_eq!(mode_estimate(&[], 10), None);
        assert_eq!(mode_estimate(&[3.5], 10), Some(3.5));
        assert_eq!(mode_estimate(&[2.0, 2.0, 2.0], 4), Some(2.0));
        assert_eq!(mode_estimate(&[1.0, 2.0], 0), None);
    }

    #[test]
    fn histogram_counts_and_mode() {
        let xs = [1.0, 1.1, 1.2, 5.0];
        let h = Histogram::from_samples(&xs, 4).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), 4);
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.counts[3], 1);
        assert!((h.mode() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_renders_bars() {
        let xs = [0.0, 0.0, 0.0, 1.0];
        let h = Histogram::from_samples(&xs, 2).unwrap();
        let s = h.render(10, |c| format!("{c:.1}"));
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("##########"), "{s}");
        assert!(s.lines().nth(1).unwrap().contains("###"), "{s}");
    }
}
