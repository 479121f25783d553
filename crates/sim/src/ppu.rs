//! Post-Processing Unit model (§V, Fig. 7b).
//!
//! One PPU sits behind the 3 PEs of each group. It receives finished
//! partial-sum rows, optionally applies ReLU, converts the result into the
//! compressed offset+value format, and writes it back to the global buffer.
//! During the GTA step it additionally accumulates `Σ g` and `Σ |g|` of
//! every gradient that streams through — which is how the architecture gets
//! bias gradients and the pruning-threshold statistic *for free* (no extra
//! pass over the data).

use crate::prune_unit::PruneUnit;
use sparsetrain_core::prune::{determine_threshold, sigma_hat};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_tensor::Tensor3;

/// Functional model of one PPU.
///
/// ```
/// use sparsetrain_sim::ppu::Ppu;
/// let mut ppu = Ppu::new();
/// let row = ppu.process_row(&[-1.0, 2.0, 0.0, 3.0], true);
/// assert_eq!(row.to_tensor().as_slice(), &[0.0, 2.0, 0.0, 3.0]);
/// assert_eq!(row.row(0, 0).offsets(), &[1, 3]);
/// assert_eq!(ppu.words_written(), 4); // 2 non-zeros x (offset + value)
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ppu {
    grad_sum: f64,
    grad_abs_sum: f64,
    grad_count: u64,
    words_written: u64,
    rows_processed: u64,
}

impl Ppu {
    /// Creates an idle PPU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one finished row: optional ReLU, then compression.
    /// Returns the compressed row that is written back to the buffer, as a
    /// `1 × 1 × len` map (read it through `row(0, 0)`).
    pub fn process_row(&mut self, row: &[f32], apply_relu: bool) -> SparseFeatureMap {
        let processed: Vec<f32> = if apply_relu {
            row.iter().map(|&v| v.max(0.0)).collect()
        } else {
            row.to_vec()
        };
        self.write_back(processed)
    }

    /// Compresses one processed row for write-back and counts its words.
    fn write_back(&mut self, processed: Vec<f32>) -> SparseFeatureMap {
        let compressed = SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, processed.len(), processed));
        self.words_written += compressed.storage_words() as u64;
        self.rows_processed += 1;
        compressed
    }

    /// Streams one gradient row through the GTA-step accumulators
    /// (`Σ g` for the bias gradient, `Σ |g|` for threshold determination).
    pub fn accumulate_gradients(&mut self, grads: &[f32]) {
        for &g in grads {
            self.grad_sum += g as f64;
            self.grad_abs_sum += (g as f64).abs();
        }
        self.grad_count += grads.len() as u64;
    }

    /// The complete GTA-step output path of Fig. 7b with the pruning
    /// stage armed: accumulate the incoming gradients (pre-prune, as the
    /// hardware taps the stream), prune in-stream through `unit`, then
    /// compress the surviving row for write-back. One value per cycle
    /// end to end — pruning adds no traffic and no stalls.
    pub fn process_grad_row(&mut self, grads: &[f32], unit: &mut PruneUnit) -> SparseFeatureMap {
        self.accumulate_gradients(grads);
        let pruned = unit.process(grads);
        self.write_back(pruned)
    }

    /// The accumulated bias gradient (`Σ g`).
    pub fn bias_grad(&self) -> f64 {
        self.grad_sum
    }

    /// The threshold this batch's statistics determine for target sparsity
    /// `p` — the value pushed into the layer's prediction FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn determined_threshold(&self, p: f64) -> f64 {
        determine_threshold(sigma_hat(self.grad_abs_sum, self.grad_count as usize), p)
    }

    /// Buffer words written by format conversion so far.
    pub fn words_written(&self) -> u64 {
        self.words_written
    }

    /// Rows processed so far.
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// Clears all accumulators (start of a new batch/layer).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_then_compress() {
        let mut ppu = Ppu::new();
        let out = ppu.process_row(&[-3.0, 1.0, -0.5, 2.0], true);
        assert_eq!(out.to_tensor().as_slice(), &[0.0, 1.0, 0.0, 2.0]);
        assert_eq!(out.nnz(), 2);
    }

    #[test]
    fn bypass_keeps_negatives() {
        let mut ppu = Ppu::new();
        let out = ppu.process_row(&[-3.0, 0.0, 2.0], false);
        assert_eq!(out.to_tensor().as_slice(), &[-3.0, 0.0, 2.0]);
    }

    #[test]
    fn write_traffic_tracks_nnz() {
        let mut ppu = Ppu::new();
        ppu.process_row(&[0.0, 1.0], false);
        ppu.process_row(&[1.0, 1.0], false);
        assert_eq!(ppu.words_written(), 2 + 4);
        assert_eq!(ppu.rows_processed(), 2);
    }

    #[test]
    fn gradient_accumulators_give_bias_and_threshold() {
        let mut ppu = Ppu::new();
        ppu.accumulate_gradients(&[1.0, -2.0, 0.5]);
        ppu.accumulate_gradients(&[0.5]);
        assert!((ppu.bias_grad() - 0.0).abs() < 1e-9);
        // Σ|g| = 4.0, n = 4 -> σ̂ = √(π/2); τ for p=0.9 is positive.
        let tau = ppu.determined_threshold(0.9);
        assert!(tau > 0.0);
        let expected_sigma = (std::f64::consts::PI / 2.0).sqrt();
        assert!((tau / sparsetrain_core::prune::normal::phi_inv(0.95) - expected_sigma).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut ppu = Ppu::new();
        ppu.accumulate_gradients(&[1.0]);
        ppu.process_row(&[1.0], false);
        ppu.reset();
        assert_eq!(ppu.bias_grad(), 0.0);
        assert_eq!(ppu.words_written(), 0);
    }

    #[test]
    fn grad_row_path_prunes_and_compresses() {
        let mut ppu = Ppu::new();
        let mut unit = PruneUnit::new(0x1D);
        unit.set_threshold(0.1);
        let grads = [0.5f32, 0.01, -0.02, 0.0, -0.9];
        let out = ppu.process_grad_row(&grads, &mut unit);
        // Large values survive untouched; sub-τ̂ values became 0 or ±τ̂.
        let dense = out.to_tensor().as_slice().to_vec();
        assert_eq!(dense[0], 0.5);
        assert_eq!(dense[4], -0.9);
        for &v in &dense[1..4] {
            assert!(v == 0.0 || v.abs() == 0.1, "unexpected {v}");
        }
        // Accumulators saw the *incoming* row (pre-prune).
        let expected = (0.5f32 + 0.01 - 0.02 - 0.9) as f64;
        assert!((ppu.bias_grad() - expected).abs() < 1e-6);
        // Write traffic covers only the survivors.
        assert_eq!(ppu.words_written(), 2 * out.nnz() as u64);
        // The determined threshold from the same pass feeds the FIFO.
        assert!(ppu.determined_threshold(0.9) > 0.0);
    }

    #[test]
    fn pruned_rows_write_fewer_words_than_unpruned() {
        let grads: Vec<f32> = (0..256).map(|i| ((i % 7) as f32 - 3.0) * 0.01).collect();
        let mut plain = Ppu::new();
        plain.process_row(&grads, false);

        let mut pruned = Ppu::new();
        let mut unit = PruneUnit::new(0x77);
        unit.set_threshold(0.025);
        pruned.process_grad_row(&grads, &mut unit);
        assert!(
            pruned.words_written() < plain.words_written(),
            "pruning must reduce write-back traffic: {} !< {}",
            pruned.words_written(),
            plain.words_written()
        );
    }

    #[test]
    fn ppu_threshold_matches_software_pruner_determination() {
        // The hardware path (PPU accumulators) and the software path
        // (threshold_from_slice) must agree — this is what lets the
        // architecture prune "with almost no overhead" (§VII).
        let grads: Vec<f32> = (0..1000).map(|i| ((i as f32) - 500.0) * 1e-3).collect();
        let mut ppu = Ppu::new();
        ppu.accumulate_gradients(&grads);
        let hw = ppu.determined_threshold(0.9);
        let sw = sparsetrain_core::prune::threshold_from_slice(&grads, 0.9);
        assert!((hw - sw).abs() < 1e-9, "hw {hw} vs sw {sw}");
    }
}
