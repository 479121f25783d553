//! Hardware pruning unit: the stochastic prune as the PPU executes it.
//!
//! §III-B's punchline is that with threshold *prediction* the prune runs
//! "with almost no overhead" — gradients are pruned in-stream, before
//! they ever reach the buffer. The missing piece of that story is the
//! random number: hardware does not call a software RNG per element.
//! This module models the standard answer, a 16-bit Galois LFSR per
//! pruning lane, and a [`PruneUnit`] that applies the stochastic rule
//! (`|g| < τ̂` → keep `sign(g)·τ̂` with probability `|g|/τ̂`, else zero)
//! one value per cycle while maintaining the `Σg` / `Σ|g|` accumulators
//! the PPU already carries.
//!
//! The unit's tests hold it to the rule training runs
//! ([`sparsetrain_core::prune::prune_slice_at`]) in two ways: the
//! expectation-preservation property (`E[ĝ] = g`) holds with the LFSR's
//! uniforms, and the achieved density matches `prune_slice_at`'s within
//! sampling noise — so the cycle/energy accounting of the machine, which
//! charges the prune nothing beyond the PPU stream it already pays for,
//! is justified.
//!
//! # Example
//!
//! ```
//! use sparsetrain_sim::prune_unit::PruneUnit;
//!
//! let mut unit = PruneUnit::new(0x1234);
//! unit.set_threshold(0.1);
//! let out = unit.process(&[0.5, 0.03, -0.02, 0.0]);
//! assert_eq!(out[0], 0.5);                 // above τ̂: untouched
//! assert!(out[1] == 0.1 || out[1] == 0.0); // below τ̂: snapped or zeroed
//! ```

/// A 16-bit Galois LFSR (taps 16, 14, 13, 11 — maximal period 65535).
///
/// One LFSR feeds one pruning lane; its 16-bit state is the uniform
/// `r ∈ [0, 1)` the stochastic rule compares against `|g|/τ̂`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr16 {
    state: u16,
}

impl Lfsr16 {
    /// Feedback mask for taps 16, 14, 13, 11.
    pub const TAPS: u16 = 0xB400;

    /// Creates an LFSR; a zero seed (the lock-up state) is mapped to 1.
    pub fn new(seed: u16) -> Self {
        Self {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advances one step and returns the new state.
    pub fn next_state(&mut self) -> u16 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= Self::TAPS;
        }
        self.state
    }

    /// Advances one step and returns a uniform in `[0, 1)`.
    pub fn next_uniform(&mut self) -> f32 {
        self.next_state() as f32 / 65536.0
    }

    /// The current state.
    pub fn state(&self) -> u16 {
        self.state
    }
}

/// Streaming statistics the unit accumulates (the PPU's registers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneUnitStats {
    /// Values processed.
    pub processed: u64,
    /// Values that passed through untouched (`|g| ≥ τ̂`).
    pub kept: u64,
    /// Values snapped to `±τ̂`.
    pub snapped: u64,
    /// Values zeroed (includes values that were already zero).
    pub zeroed: u64,
    /// `Σ g` of the *incoming* stream (bias gradients).
    pub grad_sum: f64,
    /// `Σ |g|` of the incoming stream (threshold determination).
    pub grad_abs_sum: f64,
}

impl PruneUnitStats {
    /// Post-prune density of the stream seen so far (1.0 when idle).
    pub fn density(&self) -> f64 {
        if self.processed == 0 {
            1.0
        } else {
            (self.kept + self.snapped) as f64 / self.processed as f64
        }
    }
}

/// The PPU's in-stream stochastic pruning stage.
///
/// One value enters and one value leaves per cycle; the unit adds no
/// stall cycles, which is why the machine model charges pruning nothing
/// beyond the PPU traffic it already accounts. Set the predicted
/// threshold once per batch with [`set_threshold`](Self::set_threshold)
/// (τ̂ = 0 disables pruning, e.g. during FIFO warm-up).
#[derive(Debug, Clone)]
pub struct PruneUnit {
    lfsr: Lfsr16,
    threshold: f32,
    stats: PruneUnitStats,
}

impl PruneUnit {
    /// Creates a unit with the given LFSR seed and pruning disabled.
    pub fn new(seed: u16) -> Self {
        Self {
            lfsr: Lfsr16::new(seed),
            threshold: 0.0,
            stats: PruneUnitStats::default(),
        }
    }

    /// Loads the predicted threshold τ̂ for the coming batch.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is negative or non-finite.
    pub fn set_threshold(&mut self, tau: f32) {
        assert!(
            tau.is_finite() && tau >= 0.0,
            "threshold must be finite and non-negative"
        );
        self.threshold = tau;
    }

    /// The loaded threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PruneUnitStats {
        self.stats
    }

    /// Clears statistics (threshold and LFSR state are kept — the LFSR
    /// free-runs across batches in hardware).
    pub fn reset_stats(&mut self) {
        self.stats = PruneUnitStats::default();
    }

    /// Processes one value through the pruning stage.
    pub fn process_one(&mut self, g: f32) -> f32 {
        self.stats.processed += 1;
        self.stats.grad_sum += g as f64;
        self.stats.grad_abs_sum += g.abs() as f64;
        let tau = self.threshold;
        if g == 0.0 {
            self.stats.zeroed += 1;
            return 0.0;
        }
        if tau == 0.0 || g.abs() >= tau {
            self.stats.kept += 1;
            return g;
        }
        // Stochastic rule: keep sign(g)·τ̂ with probability |g|/τ̂.
        let r = self.lfsr.next_uniform();
        if r < g.abs() / tau {
            self.stats.snapped += 1;
            if g > 0.0 {
                tau
            } else {
                -tau
            }
        } else {
            self.stats.zeroed += 1;
            0.0
        }
    }

    /// Processes a row, returning the pruned values.
    pub fn process(&mut self, row: &[f32]) -> Vec<f32> {
        row.iter().map(|&g| self.process_one(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_has_maximal_period() {
        let mut lfsr = Lfsr16::new(1);
        let start = lfsr.state();
        let mut period = 0u32;
        loop {
            lfsr.next_state();
            period += 1;
            if lfsr.state() == start {
                break;
            }
            assert!(period <= 65535, "period exceeded 2^16 - 1");
        }
        assert_eq!(period, 65535);
    }

    #[test]
    fn lfsr_never_locks_up() {
        let mut lfsr = Lfsr16::new(0); // lock-up seed remapped
        for _ in 0..100 {
            assert_ne!(lfsr.next_state(), 0);
        }
    }

    #[test]
    fn lfsr_uniforms_are_roughly_uniform() {
        let mut lfsr = Lfsr16::new(0xACE1);
        let n = 65535;
        let mut buckets = [0u32; 16];
        let mut sum = 0.0f64;
        for _ in 0..n {
            let u = lfsr.next_uniform();
            buckets[(u * 16.0) as usize % 16] += 1;
            sum += u as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        // Over a full period each bucket gets 4096 ± 1 states.
        for (i, &b) in buckets.iter().enumerate() {
            assert!((b as i64 - 4096).abs() <= 64, "bucket {i}: {b}");
        }
    }

    #[test]
    fn values_above_threshold_pass_untouched() {
        let mut unit = PruneUnit::new(7);
        unit.set_threshold(0.1);
        for g in [0.1f32, -0.5, 2.0, -0.1] {
            assert_eq!(unit.process_one(g), g);
        }
        assert_eq!(unit.stats().kept, 4);
    }

    #[test]
    fn disabled_unit_is_identity() {
        let mut unit = PruneUnit::new(9);
        let row = [0.01f32, -0.002, 0.0, 5.0];
        assert_eq!(unit.process(&row), row.to_vec());
        assert_eq!(unit.stats().snapped, 0);
    }

    #[test]
    fn expectation_is_preserved() {
        // Feed a constant small gradient many times: the mean output must
        // approach the input (the unbiasedness that makes SGD converge).
        let mut unit = PruneUnit::new(0xBEEF);
        unit.set_threshold(0.1);
        let g = 0.03f32;
        let n = 60_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += unit.process_one(g) as f64;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - g as f64).abs() < 0.002,
            "E[ghat] = {mean}, expected ≈ {g}"
        );
    }

    #[test]
    fn accumulators_see_the_incoming_stream() {
        let mut unit = PruneUnit::new(3);
        unit.set_threshold(10.0); // prune almost everything
        let row = [1.0f32, -2.0, 3.0];
        unit.process(&row);
        let s = unit.stats();
        assert_eq!(s.grad_sum, 2.0);
        assert_eq!(s.grad_abs_sum, 6.0);
        assert_eq!(s.processed, 3);
    }

    #[test]
    fn density_matches_software_pruner() {
        use rand::rngs::StdRng;
        use rand::stream::StreamKey;
        use rand::SeedableRng;
        use sparsetrain_core::prune::prune_slice_at;
        use sparsetrain_tensor::init::sample_standard_normal;

        let mut rng = StdRng::seed_from_u64(42);
        let grads: Vec<f32> = (0..40_000)
            .map(|_| sample_standard_normal(&mut rng) * 0.05)
            .collect();
        let tau = 0.08f64;

        // The rule training runs (Algorithm 1's inner loop), from a
        // position mid-Philox-block.
        let mut sw = grads.clone();
        let out = prune_slice_at(&mut sw, tau, StreamKey::new(42).derive(7), 4_001);
        let sw_density = (out.kept + out.snapped) as f64 / grads.len() as f64;

        // Hardware unit.
        let mut unit = PruneUnit::new(0x5EED);
        unit.set_threshold(tau as f32);
        unit.process(&grads);
        let hw_density = unit.stats().density();

        assert!(
            (hw_density - sw_density).abs() < 0.01,
            "hardware {hw_density:.4} vs software {sw_density:.4}"
        );
    }

    #[test]
    fn reset_keeps_lfsr_and_threshold() {
        let mut unit = PruneUnit::new(11);
        unit.set_threshold(0.2);
        unit.process(&[0.05, 0.3]);
        let state_before = unit.lfsr.state();
        unit.reset_stats();
        assert_eq!(unit.stats(), PruneUnitStats::default());
        assert_eq!(unit.threshold(), 0.2);
        assert_eq!(unit.lfsr.state(), state_before);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn negative_threshold_rejected() {
        let mut unit = PruneUnit::new(1);
        unit.set_threshold(-0.1);
    }
}
