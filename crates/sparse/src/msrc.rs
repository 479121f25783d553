//! MSRC — Masked Sparse Row Convolution, the GTA-step primitive (Fig. 6b).
//!
//! Like SRC, but the output is an input-gradient row whose zero pattern is
//! already known: positions where the Forward-step ReLU produced zero will
//! have their gradient forced to zero anyway, so their computation can be
//! skipped entirely (§IV-A). The mask of allowed positions is the non-zero
//! offset list of the forward input activations.

use crate::compressed::SparseRow;
use crate::mask::RowMask;
use sparsetrain_tensor::conv::ConvGeometry;

/// Accumulates one MSRC operation into a dense gradient row, honouring the
/// mask.
///
/// The GTA step scatters: every non-zero output gradient `grad[ox]`
/// contributes `grad[ox] · kernel_row[v]` to input-gradient position
/// `ix = ox · stride − pad + v`. Positions not present in `mask` are
/// skipped (never written).
///
/// `kernel_row` must already be the *rotated* kernel row `W⁺` if the caller
/// is implementing the paper's `dI_j = Σ_i dO_i ∗ W⁺_{i,j}` formulation;
/// this primitive is agnostic and just performs the scatter.
///
/// ```
/// use sparsetrain_sparse::{msrc::msrc_accumulate, rowconv::SparseFeatureMap, RowMask};
/// use sparsetrain_tensor::{conv::ConvGeometry, Tensor3};
///
/// let grad = SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, 3, vec![1.0, 0.0, 1.0]));
/// let mask = RowMask::from_offsets(3, &[0, 2]); // position 1 is masked out
/// let mut out = vec![0.0; 3];
/// msrc_accumulate(grad.row(0, 0), &[1.0], ConvGeometry::new(1, 1, 0), &mask, &mut out);
/// assert_eq!(out, vec![1.0, 0.0, 1.0]);
/// ```
///
/// # Panics
///
/// Panics if `kernel_row.len() != geom.kernel` or `mask.len() != out.len()`.
pub fn msrc_accumulate(
    grad: SparseRow<'_>,
    kernel_row: &[f32],
    geom: ConvGeometry,
    mask: &RowMask,
    out: &mut [f32],
) {
    assert_eq!(kernel_row.len(), geom.kernel, "kernel row length mismatch");
    assert_eq!(mask.len(), out.len(), "mask length must match output row");
    let stride = geom.stride as isize;
    let pad = geom.pad as isize;
    let out_len = out.len() as isize;
    for (ox, g) in grad.iter() {
        let base = ox as isize * stride - pad;
        for (v, &w) in kernel_row.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let ix = base + v as isize;
            if ix < 0 || ix >= out_len {
                continue;
            }
            let ix = ix as usize;
            if !mask.contains(ix) {
                continue; // the downstream ReLU mask zeroes this position
            }
            out[ix] += g * w;
        }
    }
}

/// Counts the gradient non-zeros whose entire scatter window falls outside
/// the mask — the loads the PE skips via look-ahead (§V, Port-3 offsets).
pub fn fully_masked_loads(grad: SparseRow<'_>, geom: ConvGeometry, mask: &RowMask) -> usize {
    let stride = geom.stride as isize;
    let pad = geom.pad as isize;
    grad.iter()
        .filter(|&(ox, _)| {
            let base = ox as isize * stride - pad;
            let start = base.max(0) as usize;
            let end = (base + geom.kernel as isize).max(0) as usize;
            !mask.any_in_range(start, end)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowconv::one_row;

    /// MSRC of `grad` into a fresh row as long as `mask`.
    fn masked_conv(grad: &[f32], kernel: &[f32], geom: ConvGeometry, mask: &RowMask) -> Vec<f32> {
        let mut out = vec![0.0; mask.len()];
        msrc_accumulate(one_row(grad).row(0, 0), kernel, geom, mask, &mut out);
        out
    }

    #[test]
    fn unmasked_equals_src_scatter() {
        // With a full mask MSRC is a plain scatter conv; cross-check against
        // a hand-computed example.
        let grad = [0.0, 2.0, 0.0, 1.0];
        let kernel = [1.0, 10.0, 100.0];
        let geom = ConvGeometry::new(3, 1, 1);
        let mask = RowMask::full(4);
        let out = masked_conv(&grad, &kernel, geom, &mask);
        // grad[1]=2 scatters to ix 0,1,2 with weights 1,10,100
        // grad[3]=1 scatters to ix 2,3 (ix 4 out of range)
        assert_eq!(out, vec![2.0, 20.0, 201.0, 10.0]);
    }

    #[test]
    fn mask_zeroes_disallowed_positions() {
        let grad = [0.0, 2.0, 0.0, 1.0];
        let kernel = [1.0, 10.0, 100.0];
        let geom = ConvGeometry::new(3, 1, 1);
        let mask = RowMask::from_offsets(4, &[0, 3]);
        let out = masked_conv(&grad, &kernel, geom, &mask);
        assert_eq!(out, vec![2.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn fully_masked_loads_counted() {
        let grad = one_row(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let geom = ConvGeometry::new(3, 1, 1);
        // grad[0] scatters to {0,1}; grad[4] scatters to {3,4,5}.
        let mask = RowMask::from_offsets(6, &[3]);
        assert_eq!(fully_masked_loads(grad.row(0, 0), geom, &mask), 1); // grad[0] skipped
        let mask_none = RowMask::empty(6);
        assert_eq!(fully_masked_loads(grad.row(0, 0), geom, &mask_none), 2);
    }

    #[test]
    fn empty_grad_is_noop() {
        let grad = [0.0; 8];
        let geom = ConvGeometry::new(3, 1, 1);
        let mask = RowMask::full(8);
        let out = masked_conv(&grad, &[1.0, 1.0, 1.0], geom, &mask);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stride_two_scatter_positions() {
        let grad = [1.0, 1.0];
        let kernel = [1.0, 2.0, 3.0];
        let geom = ConvGeometry::new(3, 2, 1);
        let mask = RowMask::full(4);
        // ox=0: base=-1, taps land at ix 0(v=1,w=2),1(v=2,w=3)
        // ox=1: base=1, taps land at ix 1(v=0,w=1),2(v=1,w=2),3(v=2,w=3)
        let out = masked_conv(&grad, &kernel, geom, &mask);
        assert_eq!(out, vec![2.0, 4.0, 2.0, 3.0]);
    }
}
