//! Property-based tests of the pruning algorithm's invariants (§III), on
//! the rule training runs: [`prune_slice_at`] at a drawn stream key and
//! offset (any residue mod 4, so a slice may start mid-Philox-block).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::stream::StreamKey;
use rand::SeedableRng;
use sparsetrain::core::prune::{
    determine_threshold, prune_slice_at, sigma_hat, BatchStream, LayerPruner, PruneConfig,
};
use sparsetrain::tensor::init::sample_standard_normal;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every output value is 0, ±τ with the input's sign, or an untouched
    /// input with |g| ≥ τ.
    #[test]
    fn outputs_are_in_the_ternary_set(
        grads in proptest::collection::vec(-1.0f32..1.0, 1..200),
        tau in 0.01f64..0.5,
        seed in 0u64..1000,
        offset in any::<u64>(),
    ) {
        let mut g = grads.clone();
        prune_slice_at(&mut g, tau, StreamKey::new(seed), offset);
        for (before, after) in grads.iter().zip(&g) {
            if (before.abs() as f64) >= tau {
                prop_assert_eq!(before, after);
            } else {
                prop_assert!(
                    *after == 0.0 || ((after.abs() as f64) - tau).abs() < 1e-6,
                    "small value {} became {}", before, after
                );
                if *after != 0.0 {
                    prop_assert_eq!(after.signum(), before.signum());
                }
            }
        }
    }

    /// Pruning never increases the number of non-zeros.
    #[test]
    fn pruning_never_densifies(
        grads in proptest::collection::vec(-1.0f32..1.0, 0..300),
        tau in 0.0f64..0.5,
        seed in 0u64..1000,
        offset in any::<u64>(),
    ) {
        let before = grads.iter().filter(|&&v| v != 0.0).count();
        let mut g = grads;
        prune_slice_at(&mut g, tau, StreamKey::new(seed), offset);
        let after = g.iter().filter(|&&v| v != 0.0).count();
        prop_assert!(after <= before);
    }

    /// The threshold is monotone in the target sparsity and linear in σ.
    #[test]
    fn threshold_monotone_and_linear(sigma in 0.001f64..10.0, p in 0.01f64..0.98) {
        let t1 = determine_threshold(sigma, p);
        let t2 = determine_threshold(sigma, (p + 0.01).min(0.99));
        prop_assert!(t2 >= t1);
        let t_scaled = determine_threshold(2.0 * sigma, p);
        prop_assert!((t_scaled - 2.0 * t1).abs() < 1e-9 * (1.0 + t_scaled.abs()));
    }

    /// σ̂ is scale-equivariant: scaling the data scales the estimate.
    #[test]
    fn sigma_hat_scale_equivariant(
        grads in proptest::collection::vec(-1.0f32..1.0, 1..100),
        scale in 0.1f64..10.0,
    ) {
        let abs_sum: f64 = grads.iter().map(|&g| (g as f64).abs()).sum();
        let scaled_sum = abs_sum * scale;
        let a = sigma_hat(abs_sum, grads.len());
        let b = sigma_hat(scaled_sum, grads.len());
        prop_assert!((b - scale * a).abs() < 1e-9 * (1.0 + b.abs()));
    }
}

/// The headline invariant: stochastic pruning preserves the expected value
/// of each gradient (so SGD remains unbiased). One element per call, at
/// consecutive positions from an offset that is not a multiple of 4.
#[test]
fn expectation_preserved_over_many_draws() {
    let key = StreamKey::new(99);
    for (&g0, offset) in [0.002f32, -0.006, 0.0095]
        .iter()
        .zip([1u64, 1 << 40 | 2, u64::MAX - 50_000])
    {
        let tau = 0.01f64;
        let n = 100_000;
        let mut sum = 0.0f64;
        for i in 0..n {
            let mut g = [g0];
            prune_slice_at(&mut g, tau, key, offset.wrapping_add(i));
            sum += g[0] as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - g0 as f64).abs() < 3e-4, "E[pruned({g0})] = {mean}");
    }
}

/// On genuinely normal data, the empirical pruned fraction matches the
/// target p within sampling error.
#[test]
fn target_sparsity_achieved_on_normal_data() {
    let mut rng = StdRng::seed_from_u64(4);
    let n = 60_000;
    let data: Vec<f32> = (0..n).map(|_| sample_standard_normal(&mut rng) * 0.3).collect();
    let abs_sum: f64 = data.iter().map(|&g| (g as f64).abs()).sum();
    for &p in &[0.5, 0.7, 0.9, 0.99] {
        let tau = determine_threshold(sigma_hat(abs_sum, n), p);
        let below = data.iter().filter(|&&g| (g.abs() as f64) < tau).count() as f64 / n as f64;
        assert!((below - p).abs() < 0.02, "p={p}: got {below}");
    }
}

/// Algorithm 1 end to end: warm-up then steady-state density reduction on a
/// drifting gradient stream.
#[test]
fn layer_pruner_tracks_drifting_scale() {
    let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
    let mut rng = StdRng::seed_from_u64(12);
    let key = StreamKey::new(12);
    let mut last_density = 1.0;
    for step in 0..20u64 {
        let sigma = 0.1 * (1.0 + (step as f32 * 0.3).sin() * 0.3);
        let mut g: Vec<f32> = (0..8000)
            .map(|_| sample_standard_normal(&mut rng) * sigma)
            .collect();
        pruner.prune_batch(&mut g, &BatchStream::contiguous(key.derive(step)));
        last_density = pruner.stats().last_density.unwrap();
    }
    assert!(
        last_density < 0.6,
        "steady-state density {last_density} too high under drift"
    );
    // Prediction should stay near determination despite the drift.
    let p = pruner.stats().last_predicted_tau.unwrap();
    let d = pruner.stats().last_determined_tau.unwrap();
    assert!(
        (p - d).abs() / d < 0.3,
        "prediction {p} drifted from determination {d}"
    );
}

/// The hardware decomposition of Algorithm 1 (PPU accumulators + LFSR
/// pruning stage + controller-side FIFO) agrees with the software
/// `LayerPruner` on the same stream: same warm-up, same steady-state
/// density within sampling noise.
#[test]
fn hardware_path_matches_software_pruner() {
    use sparsetrain::core::prune::predictor::{FifoPredictor, ThresholdPredictor};
    use sparsetrain::core::prune::{determine_threshold, sigma_hat};
    use sparsetrain::sim::prune_unit::PruneUnit;

    let target = 0.9;
    let depth = 4;
    let mut software = LayerPruner::new(PruneConfig::new(target, depth));
    let sw_key = StreamKey::new(5);
    let mut unit = PruneUnit::new(0xACE1);
    let mut fifo = FifoPredictor::new(depth);
    let mut data_rng = StdRng::seed_from_u64(9);

    for batch in 0..10 {
        let grads: Vec<f32> = (0..20_000)
            .map(|_| sample_standard_normal(&mut data_rng) * 0.04)
            .collect();

        let sw_warm = software.is_warm(); // state *entering* this batch
        let mut sw = grads.clone();
        software.prune_batch(&mut sw, &BatchStream::contiguous(sw_key.derive(batch as u64)));
        let sw_density = software.stats().last_density.unwrap();

        let tau_hat = fifo.predict().unwrap_or(0.0);
        unit.reset_stats();
        unit.set_threshold(tau_hat as f32);
        unit.process(&grads);
        let stats = unit.stats();
        fifo.observe(determine_threshold(
            sigma_hat(stats.grad_abs_sum, stats.processed as usize),
            target,
        ));

        // Identical warm-up boundary...
        assert_eq!(sw_warm, tau_hat > 0.0, "warm-up mismatch at batch {batch}");
        // ...and matching densities once warm.
        if tau_hat > 0.0 {
            assert!(
                (stats.density() - sw_density).abs() < 0.02,
                "batch {batch}: hw {:.4} vs sw {sw_density:.4}",
                stats.density()
            );
        }
    }
}
