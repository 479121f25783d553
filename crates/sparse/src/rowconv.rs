//! Row-decomposed 2-D convolutions — the functional model of the dataflow.
//!
//! These functions rebuild the three training-stage convolutions exactly as
//! the accelerator executes them: each 2-D convolution is disassembled into
//! channel-level and then row-level 1-D operations (Fig. 6), dispatched to
//! the SRC/MSRC/OSRC primitives. They must produce bit-identical results to
//! the dense references in [`sparsetrain_tensor::conv`] (up to f32
//! accumulation order), which the tests verify.
//!
//! Execution is delegated to a [`crate::engine::KernelEngine`]: the plain
//! functions keep the original signatures and run the stage's
//! [`StageOp`] on [`crate::engine::ScalarEngine`]; arbitrary engines take
//! the same op through [`StageOp::run_on`] or the trait's `run` /
//! `run_batch`.
//! All engines accumulate through the kernels' scratch APIs, so no per-row
//! heap allocation happens on any path.

use crate::compressed::SparseVec;
use crate::engine::{ScalarEngine, StageOp};
use crate::mask::RowMask;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// A feature map stored as compressed rows — the on-chip layout of sparse
/// activations and gradients.
///
/// ```
/// use sparsetrain_sparse::rowconv::SparseFeatureMap;
/// use sparsetrain_tensor::Tensor3;
///
/// let t = Tensor3::from_fn(2, 2, 4, |_, _, x| if x % 2 == 0 { 1.0 } else { 0.0 });
/// let fm = SparseFeatureMap::from_tensor(&t);
/// assert_eq!(fm.density(), 0.5);
/// assert_eq!(fm.to_tensor(), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    rows: Vec<SparseVec>,
}

impl SparseFeatureMap {
    /// Compresses a dense feature map row by row.
    pub fn from_tensor(t: &Tensor3) -> Self {
        let (c, h, w) = t.shape();
        let mut rows = Vec::with_capacity(c * h);
        for ci in 0..c {
            for y in 0..h {
                rows.push(SparseVec::from_dense(t.row(ci, y)));
            }
        }
        Self {
            channels: c,
            height: h,
            width: w,
            rows,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The compressed row for channel `c`, spatial row `y`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, c: usize, y: usize) -> &SparseVec {
        assert!(c < self.channels && y < self.height);
        &self.rows[c * self.height + y]
    }

    /// Total non-zero count.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(SparseVec::nnz).sum()
    }

    /// Overall density (1.0 if the map has no elements).
    pub fn density(&self) -> f64 {
        let total = self.channels * self.height * self.width;
        if total == 0 {
            1.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Expands back to a dense tensor.
    pub fn to_tensor(&self) -> Tensor3 {
        let mut t = Tensor3::zeros(self.channels, self.height, self.width);
        for ci in 0..self.channels {
            for y in 0..self.height {
                let dense = self.row(ci, y).to_dense();
                t.row_mut(ci, y).copy_from_slice(&dense);
            }
        }
        t
    }

    /// Returns a copy with every stored value mapped through `f`; values
    /// that map to exactly `0.0` are dropped from the compressed rows
    /// (quantization underflow produces genuinely empty positions, exactly
    /// as a fixed-point datapath would store them).
    pub fn map_values(&self, f: impl Fn(f32) -> f32) -> Self {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut mapped = SparseVec::zeros(row.len());
                for (offset, value) in row.iter() {
                    let m = f(value);
                    if m != 0.0 {
                        mapped.push(offset, m);
                    }
                }
                mapped
            })
            .collect();
        Self {
            channels: self.channels,
            height: self.height,
            width: self.width,
            rows,
        }
    }

    /// Per-row non-zero masks (the Forward-step masks consumed by GTA).
    pub fn masks(&self) -> Vec<RowMask> {
        self.rows
            .iter()
            .map(|r| RowMask::from_offsets(r.len(), r.offsets()))
            .collect()
    }

    /// Size of the compressed representation in 16-bit words.
    pub fn storage_words(&self) -> usize {
        self.rows.iter().map(SparseVec::storage_words).sum()
    }
}

/// Forward step on the reference [`ScalarEngine`].
///
/// Equivalent to [`sparsetrain_tensor::conv::forward`]; every output row is
/// the accumulation of `C × K` SRC operations.
///
/// # Panics
///
/// Panics on shape mismatches between `input`, `weights` and `geom`.
pub fn forward_rows(
    input: &SparseFeatureMap,
    weights: &Tensor4,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
) -> Tensor3 {
    let op = StageOp::Forward {
        input,
        weights,
        bias,
        geom,
    };
    let oh = geom.output_extent(input.height());
    let ow = geom.output_extent(input.width());
    Tensor3::from_vec(weights.filters(), oh, ow, op.run_on(&ScalarEngine))
}

/// GTA step on the reference [`ScalarEngine`].
///
/// `dout` is the (sparse) output-gradient map; `masks` are the per-row
/// non-zero masks of the layer's forward *input* (one per `(channel, row)`
/// in channel-major order, as produced by [`SparseFeatureMap::masks`]).
/// Positions absent from the mask are skipped and left zero — exactly the
/// ReLU-backward fusion of the paper.
///
/// Equivalent to [`sparsetrain_tensor::conv::input_grad`] followed by
/// masking.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn input_grad_rows(
    dout: &SparseFeatureMap,
    weights: &Tensor4,
    geom: ConvGeometry,
    in_h: usize,
    in_w: usize,
    masks: &[RowMask],
) -> Tensor3 {
    let op = StageOp::InputGrad {
        dout,
        weights,
        geom,
        masks,
        in_h,
        in_w,
    };
    Tensor3::from_vec(weights.channels(), in_h, in_w, op.run_on(&ScalarEngine))
}

/// GTW step on the reference [`ScalarEngine`].
///
/// Equivalent to [`sparsetrain_tensor::conv::weight_grad`]; each kernel row
/// of `dW[fi][ci]` accumulates `Ho` OSRC results in place (no per-row tap
/// scratch).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn weight_grad_rows(input: &SparseFeatureMap, dout: &SparseFeatureMap, geom: ConvGeometry) -> Tensor4 {
    let op = StageOp::WeightGrad { input, dout, geom };
    let (f, c, k) = (dout.channels(), input.channels(), geom.kernel);
    Tensor4::from_vec(f, c, k, k, op.run_on(&ScalarEngine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_tensor::conv;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    fn pseudo(seed: &mut u64) -> f32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed % 2000) as f32 / 1000.0) - 1.0
    }

    fn sparse_tensor(c: usize, h: usize, w: usize, density_pct: u64, seed: &mut u64) -> Tensor3 {
        Tensor3::from_fn(c, h, w, |_, _, _| {
            let v = pseudo(seed);
            let keep = {
                *seed ^= *seed << 13;
                *seed ^= *seed >> 7;
                *seed % 100 < density_pct
            };
            if keep {
                v
            } else {
                0.0
            }
        })
    }

    #[test]
    fn forward_rows_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 42;
            let input = sparse_tensor(3, 8, 8, 40, &mut seed);
            let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo(&mut seed));
            let bias: Vec<f32> = (0..4).map(|_| pseudo(&mut seed)).collect();
            let want = conv::forward(&input, &weights, Some(&bias), geom);
            let fm = SparseFeatureMap::from_tensor(&input);
            let got = forward_rows(&fm, &weights, Some(&bias), geom);
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn input_grad_rows_matches_dense_with_full_mask() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 7;
            let (h, w) = (8, 8);
            let oh = geom.output_extent(h);
            let dout = sparse_tensor(4, oh, oh, 35, &mut seed);
            let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo(&mut seed));
            let want = conv::input_grad(&dout, &weights, geom, h, w);
            let fm = SparseFeatureMap::from_tensor(&dout);
            let masks: Vec<RowMask> = (0..3 * h).map(|_| RowMask::full(w)).collect();
            let got = input_grad_rows(&fm, &weights, geom, h, w, &masks);
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn input_grad_rows_respects_masks() {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut seed = 17;
        let dout = sparse_tensor(2, 6, 6, 50, &mut seed);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| pseudo(&mut seed));
        let forward_input = sparse_tensor(2, 6, 6, 50, &mut seed);
        let in_fm = SparseFeatureMap::from_tensor(&forward_input);
        let masks = in_fm.masks();
        let fm = SparseFeatureMap::from_tensor(&dout);
        let got = input_grad_rows(&fm, &weights, geom, 6, 6, &masks);
        // Reference: dense input grad, then zero where forward input was zero
        // (the ReLU-backward rule).
        let mut want = conv::input_grad(&dout, &weights, geom, 6, 6);
        for c in 0..2 {
            for y in 0..6 {
                for x in 0..6 {
                    if forward_input.get(c, y, x) == 0.0 {
                        want.set(c, y, x, 0.0);
                    }
                }
            }
        }
        assert_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn weight_grad_rows_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 23;
            let input = sparse_tensor(3, 8, 8, 45, &mut seed);
            let oh = geom.output_extent(8);
            let dout = sparse_tensor(2, oh, oh, 30, &mut seed);
            let want = conv::weight_grad(&input, &dout, geom);
            let got = weight_grad_rows(
                &SparseFeatureMap::from_tensor(&input),
                &SparseFeatureMap::from_tensor(&dout),
                geom,
            );
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn feature_map_roundtrip_and_masks() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| if (c + y + x) % 3 == 0 { 1.0 } else { 0.0 });
        let fm = SparseFeatureMap::from_tensor(&t);
        assert_eq!(fm.to_tensor(), t);
        let masks = fm.masks();
        assert_eq!(masks.len(), 6);
        assert_eq!(
            masks.iter().map(RowMask::count).sum::<usize>(),
            t.as_slice().iter().filter(|&&v| v != 0.0).count()
        );
    }
}
