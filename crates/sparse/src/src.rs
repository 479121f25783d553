//! SRC — Sparse Row Convolution, the Forward-step primitive (Fig. 6a).
//!
//! One operand is a row of the convolution kernel (short, dense); the other
//! is a row of the input activations (long, sparse after the preceding
//! ReLU/MaxPool). Each non-zero input element loaded by the PE is multiplied
//! by all `K` kernel weights in one cycle and scattered into the output
//! partial-sum register.

use crate::compressed::SparseRow;
use sparsetrain_tensor::conv::ConvGeometry;

/// Accumulates one SRC operation into a dense output row.
///
/// For every non-zero `input[ix]` and kernel tap `v`, the product
/// `input[ix] · kernel_row[v]` is added to `out[ox]` where
/// `ox · stride − pad + v = ix` (when such an integer `ox` exists and is in
/// range). This is exactly one of the `K` 1-D convolutions whose sum forms
/// one output row of the Forward step.
///
/// # Panics
///
/// Panics if `kernel_row.len() != geom.kernel`.
pub fn src_accumulate<'a>(
    input: impl Into<SparseRow<'a>>,
    kernel_row: &[f32],
    geom: ConvGeometry,
    out: &mut [f32],
) {
    assert_eq!(kernel_row.len(), geom.kernel, "kernel row length mismatch");
    let stride = geom.stride as isize;
    let pad = geom.pad as isize;
    let out_len = out.len() as isize;
    for (ix, val) in input.into().iter() {
        for (v, &w) in kernel_row.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let t = ix as isize + pad - v as isize;
            if t < 0 || t % stride != 0 {
                continue;
            }
            let ox = t / stride;
            if ox >= out_len {
                continue;
            }
            out[ox as usize] += val * w;
        }
    }
}

/// Performs one SRC operation into a fresh zeroed output row of length
/// `out_len`.
///
/// ```
/// use sparsetrain_sparse::{SparseVec, src::src_conv};
/// use sparsetrain_tensor::conv::ConvGeometry;
///
/// // Identity 1-tap kernel reproduces the input row.
/// let row = SparseVec::from_dense(&[0.0, 2.0, 0.0, 4.0]);
/// let out = src_conv(&row, &[1.0], ConvGeometry::new(1, 1, 0), 4);
/// assert_eq!(out, vec![0.0, 2.0, 0.0, 4.0]);
/// ```
pub fn src_conv<'a>(
    input: impl Into<SparseRow<'a>>,
    kernel_row: &[f32],
    geom: ConvGeometry,
    out_len: usize,
) -> Vec<f32> {
    let mut out = vec![0.0; out_len];
    src_accumulate(input, kernel_row, geom, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::SparseVec;

    fn dense_row_conv(input: &[f32], kernel: &[f32], geom: ConvGeometry) -> Vec<f32> {
        let out_len = geom.output_extent(input.len());
        let mut out = vec![0.0; out_len];
        for (ox, o) in out.iter_mut().enumerate() {
            for (v, &w) in kernel.iter().enumerate() {
                let ix = ox as isize * geom.stride as isize - geom.pad as isize + v as isize;
                if ix >= 0 && (ix as usize) < input.len() {
                    *o += w * input[ix as usize];
                }
            }
        }
        out
    }

    #[test]
    fn matches_dense_reference_stride1() {
        let dense = [0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 0.0, 4.0];
        let kernel = [0.5, -1.0, 2.0];
        let geom = ConvGeometry::new(3, 1, 1);
        let sparse = SparseVec::from_dense(&dense);
        let got = src_conv(&sparse, &kernel, geom, geom.output_extent(dense.len()));
        let want = dense_row_conv(&dense, &kernel, geom);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_dense_reference_stride2() {
        let dense = [1.0, 0.0, -2.0, 0.0, 3.0, 0.0, 0.0, 5.0, 0.0];
        let kernel = [1.0, 2.0, 3.0];
        let geom = ConvGeometry::new(3, 2, 1);
        let sparse = SparseVec::from_dense(&dense);
        let got = src_conv(&sparse, &kernel, geom, geom.output_extent(dense.len()));
        let want = dense_row_conv(&dense, &kernel, geom);
        assert_eq!(got, want);
    }

    #[test]
    fn all_zero_input_produces_zero() {
        let sparse = SparseVec::zeros(16);
        let geom = ConvGeometry::new(3, 1, 1);
        let out = src_conv(&sparse, &[1.0, 1.0, 1.0], geom, 16);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let sparse = SparseVec::from_dense(&[1.0, 0.0, 0.0]);
        let geom = ConvGeometry::new(1, 1, 0);
        let mut out = vec![10.0, 20.0, 30.0];
        src_accumulate(&sparse, &[2.0], geom, &mut out);
        assert_eq!(out, vec![12.0, 20.0, 30.0]);
    }

    #[test]
    fn no_padding_edges_handled() {
        let dense = [1.0, 2.0, 3.0, 4.0];
        let kernel = [1.0, 1.0];
        let geom = ConvGeometry::new(2, 1, 0);
        let sparse = SparseVec::from_dense(&dense);
        let got = src_conv(&sparse, &kernel, geom, geom.output_extent(4));
        assert_eq!(got, vec![3.0, 5.0, 7.0]);
    }
}
