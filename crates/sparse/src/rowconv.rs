//! The compressed feature map — the on-chip layout of sparse activations
//! and gradients, and the only owner of compressed rows.
//!
//! A [`SparseFeatureMap`] is what the PPU writes back (§V): every row of
//! every channel as one offset–value stream. The kernels read it row by row
//! through [`SparseFeatureMap::row`]; the three training-stage
//! convolutions over whole maps are [`crate::engine::StageOp`]s, run by any
//! [`crate::engine::KernelEngine`].
//!
//! [`SparseFeatureMap::from_tensor`] is the one way a map is built, and it
//! classifies the map flat: one mask word per 64 elements of the whole
//! map, whatever the row width, from which each row's mask words are
//! sliced. A 4-wide row costs a sixteenth of a word, not a word of its own.

use crate::compressed::{RowError, SparseRow};
use crate::mask::{mask_of, RowMask, RUN};
use sparsetrain_tensor::Tensor3;
use std::ops::Range;

/// A feature map stored as compressed rows — the on-chip layout of sparse
/// activations and gradients.
///
/// One arena per map, as the PPU writes one offset–value stream per map:
/// the non-zeros of all `channels × height` rows (channel-major) sit in
/// `offsets` / `values`, row `r` at `row_ptr[r]..row_ptr[r + 1]`, and
/// `words` holds each row's non-zero bitmask (`⌈width/64⌉` words per row)
/// from the same compare, and `finite` whether every stored value is
/// finite. The layout is a function of the dense map alone, so equality is
/// equality of maps.
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
    finite: bool,
}

impl SparseFeatureMap {
    /// Compresses a dense feature map, dropping exact zeros (`±0.0`; NaN
    /// and ±∞ are kept) — the one way a map is built.
    ///
    /// One branch-free classification of the flat map, 64 elements to a
    /// run word whatever the row width; each row's mask words are sliced
    /// out of the run words (a row may straddle two of them), and the row
    /// pointers counted from them. The arena is then allocated at its
    /// exact size and filled in one walk of the run words' set bits, each
    /// element's row offset its flat position modulo the width.
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
        let flat = t.as_slice();
        let rows = channels * height;
        let per_row = width.div_ceil(RUN);
        // The rows' mask words, then the run words and one zero word past
        // them, so a row in the last run word reads a zero as its second.
        let mut words = vec![0u64; rows * per_row + flat.len().div_ceil(RUN) + 1];
        let (sliced, runs) = words.split_at_mut(rows * per_row);
        for (word, run) in runs.iter_mut().zip(flat.chunks(RUN)) {
            *word = mask_of(run, |v| v != 0.0);
        }
        // Word `i` of row `r` holds positions `r·width + 64·i` onwards:
        // one shift of the two run words they lie in.
        for (r, row) in sliced.chunks_exact_mut(per_row.max(1)).enumerate() {
            for (i, word) in row.iter_mut().enumerate() {
                let start = r * width + i * RUN;
                let len = (width - i * RUN).min(RUN);
                let pair = runs[start / RUN] as u128 | (runs[start / RUN + 1] as u128) << RUN;
                *word = (pair >> (start % RUN)) as u64 & (u64::MAX >> (RUN - len));
            }
        }
        let mut nnz = 0u32;
        let row_ptr: Vec<u32> = std::iter::once(0)
            .chain((0..rows).map(|r| {
                nnz += sliced[r * per_row..][..per_row]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum::<u32>();
                nnz
            }))
            .collect();
        let mut offsets = vec![0u32; nnz as usize];
        let mut values = vec![0f32; nnz as usize];
        let mut finite = true;
        let column = Modulus::new(width);
        let mut k = 0;
        for (base, &run) in (0..).step_by(RUN).zip(&*runs) {
            let mut bits = run;
            while bits != 0 {
                let p = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                offsets[k] = column.of(p as u32);
                values[k] = flat[p];
                finite &= flat[p].is_finite();
                k += 1;
            }
        }
        words.truncate(rows * per_row);
        let map = Self {
            channels,
            height,
            width,
            row_ptr,
            offsets,
            values,
            words,
            finite,
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

    /// The stored non-zeros of rows `ys` of channel `c`, read off the row
    /// pointers (a channel's rows are contiguous in the arena): one
    /// subtraction, however many rows.
    pub(crate) fn rows_nnz(&self, c: usize, ys: Range<usize>) -> usize {
        debug_assert!(c < self.channels && ys.start <= ys.end && ys.end <= self.height);
        let base = c * self.height;
        (self.row_ptr[base + ys.end] - self.row_ptr[base + ys.start]) as usize
    }

    /// The stored non-zeros of channel `c`, every row of it in row order:
    /// one contiguous slice of the arena.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn channel_values(&self, c: usize) -> &[f32] {
        assert!(c < self.channels);
        let (lo, hi) = (self.row_ptr[c * self.height], self.row_ptr[(c + 1) * self.height]);
        &self.values[lo as usize..hi as usize]
    }

    /// Total non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether every stored value is finite (no ±∞, no NaN).
    pub fn is_finite(&self) -> bool {
        self.finite
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
            finite: true,
            ..*self
        };
        mapped.row_ptr.push(0);
        for (r, range) in self.row_ranges().enumerate() {
            for (&o, &v) in self.offsets[range.clone()].iter().zip(&self.values[range]) {
                let m = f(v);
                if m != 0.0 {
                    mapped.offsets.push(o);
                    mapped.values.push(m);
                    mapped.finite &= m.is_finite();
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

/// `p mod d` for 32-bit `p` by two multiplies instead of a division
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019):
/// with `m = ⌈2⁶⁴ / d⌉`, the remainder is the high word of
/// `(m·p mod 2⁶⁴) · d`, exact for every `p, d < 2³²`.
#[derive(Debug, Clone, Copy)]
struct Modulus {
    d: u64,
    m: u64,
}

impl Modulus {
    /// The modulus `d ≥ 1` (0 is treated as 1: no position to reduce).
    fn new(d: usize) -> Self {
        let d = d.max(1) as u64;
        debug_assert!(d <= u32::MAX as u64);
        // d = 1 wraps m to 0, which gives the remainder 0.
        Self {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    #[inline]
    fn of(self, p: u32) -> u32 {
        ((self.m.wrapping_mul(p as u64) as u128 * self.d as u128) >> 64) as u32
    }
}

/// A one-row (`1 × 1 × len`) map of `dense`, for unit tests.
#[cfg(test)]
pub(crate) fn one_row(dense: &[f32]) -> SparseFeatureMap {
    SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, dense.len(), dense.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ScalarEngine, StageOp};
    use sparsetrain_tensor::conv::{self, ConvGeometry};
    use sparsetrain_tensor::Tensor4;

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
            let op = StageOp::Forward {
                input: &fm,
                weights: &weights,
                bias: Some(&bias),
                geom,
            };
            assert_close(&op.run_on(&ScalarEngine), want.as_slice(), 1e-5);
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
            let op = StageOp::InputGrad {
                dout: &fm,
                weights: &weights,
                geom,
                masks: &masks,
                in_h: h,
                in_w: w,
            };
            assert_close(&op.run_on(&ScalarEngine), want.as_slice(), 1e-5);
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
        let op = StageOp::InputGrad {
            dout: &fm,
            weights: &weights,
            geom,
            masks: &masks,
            in_h: 6,
            in_w: 6,
        };
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
        assert_close(&op.run_on(&ScalarEngine), want.as_slice(), 1e-5);
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
            let (input, dout) = (
                SparseFeatureMap::from_tensor(&input),
                SparseFeatureMap::from_tensor(&dout),
            );
            let op = StageOp::WeightGrad {
                input: &input,
                dout: &dout,
                geom,
            };
            assert_close(&op.run_on(&ScalarEngine), want.as_slice(), 1e-5);
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

    /// The flat classifier slices rows out of 64-element run words: at
    /// every width up to two words (and the empty row), rows that start
    /// mid-word and straddle two run words hold exactly their own
    /// non-zeros, and each channel's arena slice is its rows' values in
    /// row order.
    #[test]
    fn rows_sliced_from_run_words_equal_the_dense_rows() {
        for width in 0..=130 {
            let t = Tensor3::from_fn(3, 5, width, |c, y, x| match (c * 7 + y * 3 + x * 5) % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => (x + 1) as f32 * if y % 2 == 0 { 1.0 } else { -1.0 },
            });
            let fm = SparseFeatureMap::from_tensor(&t);
            assert_eq!(fm.validate(), Ok(()), "width {width}");
            for c in 0..3 {
                let mut channel = Vec::new();
                for y in 0..5 {
                    let (offsets, values): (Vec<u32>, Vec<f32>) = (0..width)
                        .filter(|&x| t.get(c, y, x) != 0.0)
                        .map(|x| (x as u32, t.get(c, y, x)))
                        .unzip();
                    let row = fm.row(c, y);
                    assert_eq!(row.offsets(), offsets.as_slice(), "width {width} row {c}.{y}");
                    assert_eq!(row.values(), values.as_slice(), "width {width} row {c}.{y}");
                    channel.extend(values);
                }
                assert_eq!(
                    fm.channel_values(c),
                    channel.as_slice(),
                    "width {width} channel {c}"
                );
            }
        }
    }

    #[test]
    fn modulus_equals_the_remainder() {
        let mut seed = 99;
        let mut word = || {
            pseudo(&mut seed);
            seed as u32
        };
        for d in [
            1u32,
            2,
            3,
            4,
            7,
            16,
            63,
            64,
            65,
            130,
            1000,
            65_537,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let modulus = Modulus::new(d as usize);
            for p in [0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(modulus.of(p), p % d, "{p} mod {d}");
            }
            for _ in 0..1000 {
                let p = word();
                assert_eq!(modulus.of(p), p % d, "{p} mod {d}");
            }
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
        assert!(fm.is_finite());
        // One non-finite stored value marks the map; a mapping that drops
        // it (to 0.0) clears the mark.
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut t = t.clone();
            t.set(1, 2, 3, bad);
            let fm = SparseFeatureMap::from_tensor(&t);
            assert!(!fm.is_finite(), "{bad}");
            assert!(fm.map_values(|v| if v.is_finite() { v } else { 0.0 }).is_finite());
            assert!(!fm.map_values(|v| v).is_finite());
        }
    }
}
