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

use crate::compressed::{RowError, SparseRow};
use crate::engine::{ScalarEngine, StageOp};
use crate::mask::{mask_of, set_bits, RowMask, RUN};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// A feature map stored as compressed rows — the on-chip layout of sparse
/// activations and gradients.
///
/// One arena per map, as the PPU writes one offset–value stream per map:
/// the non-zeros of all `channels × height` rows (channel-major) sit in
/// `offsets` / `values`, row `r` at `row_ptr[r]..row_ptr[r + 1]`, and
/// `words` holds each row's non-zero bitmask (`⌈width/64⌉` words per row)
/// from the same compare. The layout is a function of the dense map alone,
/// so equality is equality of maps.
///
/// ```
/// use sparsetrain_sparse::rowconv::SparseFeatureMap;
/// use sparsetrain_tensor::Tensor3;
///
/// let t = Tensor3::from_fn(2, 2, 4, |_, _, x| if x % 2 == 0 { 1.0 } else { 0.0 });
/// let fm = SparseFeatureMap::from_tensor(&t);
/// assert_eq!(fm.density(), 0.5);
/// assert_eq!(fm.row(1, 0).offsets(), &[0, 2]);
/// assert_eq!(fm.to_tensor(), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    row_ptr: Vec<u32>,
    offsets: Vec<u32>,
    values: Vec<f32>,
    words: Vec<u64>,
}

impl SparseFeatureMap {
    /// Compresses a dense feature map, dropping exact zeros (`±0.0`; NaN
    /// and ±∞ are kept) — the one way a map is built.
    ///
    /// One branch-free classification sweep writes every row's mask words
    /// and row pointer; the arena is then allocated at its exact size and
    /// filled by walking the set bits.
    ///
    /// # Panics
    ///
    /// Panics if the map holds more than `u32::MAX` elements.
    pub fn from_tensor(t: &Tensor3) -> Self {
        let (channels, height, width) = t.shape();
        assert!(
            u32::try_from(t.len()).is_ok(),
            "a map indexes its non-zeros with u32"
        );
        let rows = channels * height;
        let per_row = width.div_ceil(RUN);
        let row_of = |r: usize| &t.as_slice()[r * width..][..width];
        let mut words = Vec::with_capacity(rows * per_row);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut nnz = 0u32;
        row_ptr.push(nnz);
        for r in 0..rows {
            for run in row_of(r).chunks(RUN) {
                let word = mask_of(run, |v| v != 0.0);
                nnz += word.count_ones();
                words.push(word);
            }
            row_ptr.push(nnz);
        }
        let mut offsets = vec![0u32; nnz as usize];
        let mut values = vec![0f32; nnz as usize];
        for (r, row_words) in words.chunks_exact(per_row.max(1)).enumerate() {
            let (row, range) = (row_of(r), row_ptr[r] as usize..row_ptr[r + 1] as usize);
            let bits = row_words
                .iter()
                .enumerate()
                .flat_map(|(i, &word)| set_bits(i * RUN, word));
            for ((o, v), x) in offsets[range.clone()]
                .iter_mut()
                .zip(&mut values[range])
                .zip(bits)
            {
                *o = x as u32;
                *v = row[x];
            }
        }
        let map = Self {
            channels,
            height,
            width,
            row_ptr,
            offsets,
            values,
            words,
        };
        debug_assert_eq!(map.validate(), Ok(()));
        map
    }

    /// Checks the arena's invariants: every row is a valid compressed row
    /// (see [`SparseRow::validate`]), the row pointers delimit the rows,
    /// and the mask words are exactly the stored offsets.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), RowError> {
        if self.offsets.len() != self.values.len() {
            return Err(RowError::LengthMismatch {
                offsets: self.offsets.len(),
                values: self.values.len(),
            });
        }
        let rows = self.channels * self.height;
        let per_row = self.width.div_ceil(RUN);
        if self.row_ptr.len() != rows + 1 || self.row_ptr[0] != 0 {
            return Err(RowError::RowPtr { row: 0 });
        }
        if self.row_ptr[rows] as usize != self.values.len() {
            return Err(RowError::RowPtr { row: rows });
        }
        if self.words.len() != rows * per_row {
            return Err(RowError::MaskDisagrees { row: rows });
        }
        for r in 0..rows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            if lo > hi || hi > self.values.len() {
                return Err(RowError::RowPtr { row: r });
            }
            let row = SparseRow::new(self.width, &self.offsets[lo..hi], &self.values[lo..hi]);
            row.validate()?;
            // Sorted and in range now, so word `i` holds a run of them.
            let mut offsets = row.offsets().iter().map(|&o| o as usize).peekable();
            for (i, &word) in self.words[r * per_row..][..per_row].iter().enumerate() {
                let mut want = 0u64;
                while let Some(o) = offsets.next_if(|o| o / RUN == i) {
                    want |= 1 << (o % RUN);
                }
                if word != want {
                    return Err(RowError::MaskDisagrees { row: r });
                }
            }
        }
        Ok(())
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

    /// The compressed row for channel `c`, spatial row `y`, lent from the
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn row(&self, c: usize, y: usize) -> SparseRow<'_> {
        assert!(c < self.channels && y < self.height);
        let r = c * self.height + y;
        let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        SparseRow::new(self.width, &self.offsets[lo..hi], &self.values[lo..hi])
    }

    /// Total non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Each row's slice of `offsets` / `values`, rows in channel-major
    /// order.
    fn row_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.row_ptr
            .windows(2)
            .map(|ptr| ptr[0] as usize..ptr[1] as usize)
    }

    /// Expands back to a dense tensor.
    pub fn to_tensor(&self) -> Tensor3 {
        let mut t = Tensor3::zeros(self.channels, self.height, self.width);
        for (dense, range) in t
            .as_mut_slice()
            .chunks_exact_mut(self.width.max(1))
            .zip(self.row_ranges())
        {
            for (&o, &v) in self.offsets[range.clone()].iter().zip(&self.values[range]) {
                dense[o as usize] = v;
            }
        }
        t
    }

    /// Returns a copy with every stored value mapped through `f`; values
    /// that map to exactly `0.0` are dropped from the compressed rows
    /// (quantization underflow produces genuinely empty positions, exactly
    /// as a fixed-point datapath would store them).
    pub fn map_values(&self, f: impl Fn(f32) -> f32) -> Self {
        let per_row = self.width.div_ceil(RUN);
        let mut mapped = Self {
            row_ptr: Vec::with_capacity(self.row_ptr.len()),
            offsets: Vec::with_capacity(self.nnz()),
            values: Vec::with_capacity(self.nnz()),
            words: vec![0; self.words.len()],
            ..*self
        };
        mapped.row_ptr.push(0);
        for (r, range) in self.row_ranges().enumerate() {
            for (&o, &v) in self.offsets[range.clone()].iter().zip(&self.values[range]) {
                let m = f(v);
                if m != 0.0 {
                    mapped.offsets.push(o);
                    mapped.values.push(m);
                    mapped.words[r * per_row + o as usize / RUN] |= 1 << (o as usize % RUN);
                }
            }
            mapped.row_ptr.push(mapped.values.len() as u32);
        }
        mapped
    }

    /// Per-row non-zero masks (the Forward-step masks consumed by GTA),
    /// copied from the map's mask words.
    pub fn masks(&self) -> Vec<RowMask> {
        let rows = self.channels * self.height;
        let per_row = self.width.div_ceil(RUN);
        (0..rows)
            .map(|r| RowMask::from_words(self.width, &self.words[r * per_row..][..per_row]))
            .collect()
    }

    /// Size of the compressed representation in 16-bit words.
    pub fn storage_words(&self) -> usize {
        2 * self.nnz()
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

    /// Each arena invariant, broken on its own in a map `from_tensor`
    /// built, is the error `validate` names.
    #[test]
    fn validate_names_each_broken_arena_invariant() {
        // Two channels × two rows of 70: row 1 is empty, so its pointers
        // equal row 2's start; rows of 70 take two mask words each.
        let t = Tensor3::from_fn(2, 2, 70, |c, y, x| match (c, y) {
            (0, 1) => 0.0,
            _ if x % 9 == c + y => x as f32 - 30.0,
            _ => 0.0,
        });
        let fm = SparseFeatureMap::from_tensor(&t);
        assert_eq!(fm.validate(), Ok(()));
        assert_eq!(fm.row_ptr[1], fm.row_ptr[2], "row 1 is empty");
        let broken = |edit: &dyn Fn(&mut SparseFeatureMap)| {
            let mut bad = fm.clone();
            edit(&mut bad);
            bad.validate()
        };
        assert_eq!(
            broken(&|m| {
                m.values.pop();
            }),
            Err(RowError::LengthMismatch {
                offsets: fm.nnz(),
                values: fm.nnz() - 1
            })
        );
        assert_eq!(
            broken(&|m| m.row_ptr[2] = m.row_ptr[1] - 1),
            Err(RowError::RowPtr { row: 1 })
        );
        assert_eq!(broken(&|m| m.row_ptr[0] = 1), Err(RowError::RowPtr { row: 0 }));
        assert_eq!(
            broken(&|m| {
                m.row_ptr.pop();
            }),
            Err(RowError::RowPtr { row: 0 })
        );
        assert_eq!(
            broken(&|m| {
                let n = m.row_ptr.len();
                m.row_ptr[n - 1] -= 1;
            }),
            Err(RowError::RowPtr { row: 4 })
        );
        let first = fm.offsets[0];
        assert_eq!(
            broken(&|m| m.values[0] = -0.0),
            Err(RowError::StoredZero { offset: first })
        );
        assert_eq!(
            broken(&|m| m.offsets[0] = 70),
            Err(RowError::OffsetOutOfRange { offset: 70, len: 70 })
        );
        assert_eq!(
            broken(&|m| m.offsets[1] = m.offsets[0]),
            Err(RowError::NotIncreasing { offset: first })
        );
        assert_eq!(
            broken(&|m| m.words[6] ^= 1 << 5),
            Err(RowError::MaskDisagrees { row: 3 })
        );
        assert_eq!(
            broken(&|m| {
                m.words.push(0);
            }),
            Err(RowError::MaskDisagrees { row: 4 })
        );
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
