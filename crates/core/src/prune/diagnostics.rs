//! Gradient-distribution diagnostics.
//!
//! The threshold determination of §III rests on one modelling assumption:
//! activation gradients at the pruning positions follow a zero-mean
//! normal distribution. This module measures how well a gradient tensor
//! fits that model — moments, the half-normal consistency ratio behind
//! the σ̂ estimator, and coverage of the 1σ/2σ bands — so the assumption
//! can be *checked* on every workload instead of trusted
//! (`sparsetrain-bench repro distribution` prints the check for the
//! evaluated networks).
//!
//! # Example
//!
//! ```
//! use sparsetrain_core::prune::diagnostics::DistributionSummary;
//!
//! // A symmetric triangle-ish sample: near-zero mean and skew.
//! let data: Vec<f32> = (-500..=500).map(|i| i as f32 / 500.0).collect();
//! let s = DistributionSummary::from_slice(&data);
//! assert!(s.mean.abs() < 1e-6);
//! assert!(s.skewness.abs() < 1e-6);
//! ```

/// Moment and coverage statistics of a sample, with normality scores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistributionSummary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form).
    pub std_dev: f64,
    /// Mean absolute value `E|g|`.
    pub mean_abs: f64,
    /// Standardized third moment (0 for symmetric distributions).
    pub skewness: f64,
    /// Excess kurtosis (0 for a normal; > 0 for heavy tails).
    pub excess_kurtosis: f64,
    /// Fraction of samples within 1 standard deviation of the mean
    /// (≈ 0.6827 for a normal).
    pub within_1sigma: f64,
    /// Fraction within 2 standard deviations (≈ 0.9545 for a normal).
    pub within_2sigma: f64,
    /// Fraction of exactly-zero samples (sparsity already present).
    pub zero_fraction: f64,
}

/// Expected 1σ coverage of a normal distribution.
pub const NORMAL_1SIGMA: f64 = 0.682_689_492_137_086;

/// Expected 2σ coverage of a normal distribution.
pub const NORMAL_2SIGMA: f64 = 0.954_499_736_103_642;

/// `E|g| / σ` for a zero-mean normal: √(2/π).
pub const HALF_NORMAL_RATIO: f64 = 0.797_884_560_802_865;

impl DistributionSummary {
    /// Computes the summary in two passes over the data.
    pub fn from_slice(data: &[f32]) -> Self {
        let n = data.len();
        if n == 0 {
            return Self::default();
        }
        let nf = n as f64;
        let mut sum = 0.0f64;
        let mut abs_sum = 0.0f64;
        let mut zeros = 0usize;
        for &g in data {
            let g = g as f64;
            sum += g;
            abs_sum += g.abs();
            if g == 0.0 {
                zeros += 1;
            }
        }
        let mean = sum / nf;
        let (mut m2, mut m3, mut m4) = (0.0f64, 0.0f64, 0.0f64);
        for &g in data {
            let d = g as f64 - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        m2 /= nf;
        m3 /= nf;
        m4 /= nf;
        let std_dev = m2.sqrt();
        let (skewness, excess_kurtosis) = if std_dev > 0.0 {
            (m3 / (std_dev * std_dev * std_dev), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        let (mut in1, mut in2) = (0usize, 0usize);
        if std_dev > 0.0 {
            for &g in data {
                let d = (g as f64 - mean).abs();
                if d <= std_dev {
                    in1 += 1;
                }
                if d <= 2.0 * std_dev {
                    in2 += 1;
                }
            }
        } else {
            in1 = n;
            in2 = n;
        }
        Self {
            n,
            mean,
            std_dev,
            mean_abs: abs_sum / nf,
            skewness,
            excess_kurtosis,
            within_1sigma: in1 as f64 / nf,
            within_2sigma: in2 as f64 / nf,
            zero_fraction: zeros as f64 / nf,
        }
    }

    /// `E|g| / σ`, which equals √(2/π) ≈ 0.798 when the zero-mean normal
    /// model (and hence the σ̂ estimator of §III) is exact. `None` when
    /// σ = 0.
    pub fn half_normal_ratio(&self) -> Option<f64> {
        (self.std_dev > 0.0).then(|| self.mean_abs / self.std_dev)
    }

    /// A single 0–1 normality score: 1 minus the largest relative
    /// deviation among the three checks (half-normal ratio, 1σ and 2σ
    /// coverage), clamped at 0. Values near 1 mean the normal model —
    /// and therefore the determined threshold — is trustworthy.
    pub fn normality_score(&self) -> f64 {
        let Some(ratio) = self.half_normal_ratio() else {
            return 0.0;
        };
        let d1 = (ratio - HALF_NORMAL_RATIO).abs() / HALF_NORMAL_RATIO;
        let d2 = (self.within_1sigma - NORMAL_1SIGMA).abs() / NORMAL_1SIGMA;
        let d3 = (self.within_2sigma - NORMAL_2SIGMA).abs() / NORMAL_2SIGMA;
        (1.0 - d1.max(d2).max(d3)).max(0.0)
    }

    /// Summary restricted to the non-zero entries — the relevant view
    /// after ReLU masking, where structural zeros would otherwise swamp
    /// the distribution of real gradients.
    pub fn from_nonzero(data: &[f32]) -> Self {
        let nz: Vec<f32> = data.iter().copied().filter(|&g| g != 0.0).collect();
        Self::from_slice(&nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparsetrain_tensor::init::sample_standard_normal;

    fn normal_sample(n: usize, sigma: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample_standard_normal(&mut rng) * sigma).collect()
    }

    #[test]
    fn normal_data_scores_high() {
        let data = normal_sample(50_000, 0.1, 1);
        let s = DistributionSummary::from_slice(&data);
        assert!(s.mean.abs() < 0.002);
        assert!((s.std_dev - 0.1).abs() < 0.005);
        assert!(s.skewness.abs() < 0.05, "skew {}", s.skewness);
        assert!(s.excess_kurtosis.abs() < 0.15, "kurtosis {}", s.excess_kurtosis);
        let ratio = s.half_normal_ratio().unwrap();
        assert!((ratio - HALF_NORMAL_RATIO).abs() < 0.01);
        assert!(s.normality_score() > 0.95, "score {}", s.normality_score());
    }

    #[test]
    fn uniform_data_scores_lower_than_normal() {
        let mut rng = StdRng::seed_from_u64(2);
        let uniform: Vec<f32> = (0..50_000).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let u = DistributionSummary::from_slice(&uniform);
        // Uniform: excess kurtosis −1.2, E|g|/σ = (1/2)/(1/√3) ≈ 0.866.
        assert!(u.excess_kurtosis < -1.0);
        let n = DistributionSummary::from_slice(&normal_sample(50_000, 1.0, 3));
        assert!(u.normality_score() < n.normality_score());
    }

    #[test]
    fn empty_and_constant_inputs_are_safe() {
        let e = DistributionSummary::from_slice(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.normality_score(), 0.0);

        let c = DistributionSummary::from_slice(&[2.0; 100]);
        assert_eq!(c.std_dev, 0.0);
        assert_eq!(c.skewness, 0.0);
        assert_eq!(c.normality_score(), 0.0);
        assert_eq!(c.within_1sigma, 1.0);
    }

    #[test]
    fn zero_fraction_counts_structural_zeros() {
        let mut data = normal_sample(1000, 1.0, 4);
        for g in data.iter_mut().take(400) {
            *g = 0.0;
        }
        let s = DistributionSummary::from_slice(&data);
        assert!((s.zero_fraction - 0.4).abs() < 0.01);
        // The non-zero view removes them.
        let nz = DistributionSummary::from_nonzero(&data);
        assert_eq!(nz.zero_fraction, 0.0);
        assert_eq!(nz.n, 600);
    }

    #[test]
    fn masked_normal_recovers_normality_on_nonzero_view() {
        let mut data = normal_sample(50_000, 0.05, 5);
        for (i, g) in data.iter_mut().enumerate() {
            if i % 2 == 0 {
                *g = 0.0; // ReLU-style masking
            }
        }
        let masked = DistributionSummary::from_slice(&data);
        let unmasked = DistributionSummary::from_nonzero(&data);
        assert!(unmasked.normality_score() > masked.normality_score());
        assert!(unmasked.normality_score() > 0.9);
    }

    #[test]
    fn skewed_data_is_detected() {
        let mut rng = StdRng::seed_from_u64(6);
        // Exponential-ish: |normal| is half-normal, clearly skewed.
        let data: Vec<f32> = (0..20_000)
            .map(|_| sample_standard_normal(&mut rng).abs())
            .collect();
        let s = DistributionSummary::from_slice(&data);
        assert!(s.skewness > 0.5, "skew {}", s.skewness);
    }
}
