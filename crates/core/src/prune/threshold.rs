//! Threshold determination (§III-B).
//!
//! Activation gradients are modelled as zero-mean normal. From one pass of
//! accumulating `Σ|gᵢ|`, the standard deviation is estimated without a sort,
//! and the threshold below which a target fraction `p` of values falls is
//! read off the normal quantile function.

use super::normal::phi_inv;

/// Unbiased estimate of the standard deviation of a zero-mean normal from
/// the accumulated absolute sum: `σ̂ = √(π/2) · (Σ|gᵢ|) / n`.
///
/// For `g ~ N(0, σ²)`, `E|g| = σ·√(2/π)`, so dividing the mean absolute
/// value by `√(2/π)` — i.e. multiplying by `√(π/2)` — recovers σ. (The
/// paper prints the reciprocal factor; this is the algebraically consistent
/// form, and the `sigma_hat_recovers_sigma` unit test verifies it empirically.)
///
/// Returns 0.0 when `n == 0`.
pub fn sigma_hat(abs_sum: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (std::f64::consts::PI / 2.0).sqrt() * abs_sum / n as f64
}

/// Determines the pruning threshold `τ` for a target sparsity `p`
/// (fraction of gradients to prune, `0 < p < 1`):
/// `τ = Φ⁻¹((1 + p) / 2) · σ̂`, so that `P(|g| < τ) = p` under the normal
/// model.
///
/// Returns 0.0 (prune nothing) when `sigma == 0.0` or `p == 0.0`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)`.
///
/// ```
/// use sparsetrain_core::prune::determine_threshold;
/// // For a standard normal, pruning 90% needs |g| < 1.6449·σ.
/// let tau = determine_threshold(1.0, 0.9);
/// assert!((tau - 1.6449).abs() < 1e-3);
/// ```
pub fn determine_threshold(sigma: f64, p: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&p),
        "target sparsity p must be in [0, 1), got {p}"
    );
    if sigma == 0.0 || p == 0.0 {
        return 0.0;
    }
    phi_inv((1.0 + p) / 2.0) * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparsetrain_tensor::init::sample_standard_normal;

    #[test]
    fn sigma_hat_zero_n() {
        assert_eq!(sigma_hat(10.0, 0), 0.0);
    }

    #[test]
    fn sigma_hat_recovers_sigma() {
        let mut rng = StdRng::seed_from_u64(3);
        let sigma = 2.5f64;
        let n = 50_000;
        let abs_sum: f64 = (0..n)
            .map(|_| (sample_standard_normal(&mut rng) as f64 * sigma).abs())
            .sum();
        let est = sigma_hat(abs_sum, n);
        assert!(
            (est - sigma).abs() / sigma < 0.02,
            "estimated {est} vs true {sigma}"
        );
    }

    #[test]
    fn zero_sigma_gives_zero_threshold() {
        assert_eq!(determine_threshold(0.0, 0.9), 0.0);
    }

    #[test]
    fn zero_p_disables_pruning() {
        assert_eq!(determine_threshold(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn p_of_one_rejected() {
        let _ = determine_threshold(1.0, 1.0);
    }

    #[test]
    fn threshold_monotone_in_p() {
        let t70 = determine_threshold(1.0, 0.7);
        let t90 = determine_threshold(1.0, 0.9);
        let t99 = determine_threshold(1.0, 0.99);
        assert!(t70 < t90 && t90 < t99);
    }
}
