//! OSRC — Output-Store Row Convolution, the GTW-step primitive (Fig. 6c).
//!
//! Both operands are long sparse rows: an input-activation row `I` and an
//! output-gradient row `dO`. Only `K` results are needed (one kernel row of
//! `dW`), so the PE holds them in a scratchpad register for the whole
//! convolution:
//!
//! `dw[v] = Σ_ox dO[ox] · I[ox · stride − pad + v]`, `v ∈ [0, K)`.

use crate::compressed::SparseRow;
use sparsetrain_tensor::conv::ConvGeometry;

/// Accumulates one OSRC operation into a caller-provided `K`-tap slice —
/// the scratchpad register the PE holds for the convolution's lifetime.
///
/// Uses a two-cursor sweep over the non-zeros of both operands, so the work
/// is proportional to the number of *overlapping* non-zero pairs — the same
/// quantity the hardware PE spends cycles on. The zero-allocation form used
/// by the execution engines; taps accumulate into `dw`, so successive calls
/// over the output rows of one kernel row build the full weight gradient in
/// place.
///
/// ```
/// use sparsetrain_sparse::{osrc::osrc_accumulate, rowconv::SparseFeatureMap};
/// use sparsetrain_tensor::{conv::ConvGeometry, Tensor3};
///
/// let row = |dense: Vec<f32>| SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, dense.len(), dense));
/// let (input, grad) = (row(vec![1.0, 2.0, 3.0, 4.0]), row(vec![1.0, 0.0, 1.0]));
/// // K=2, stride 1, no pad: dw[v] = sum_ox g[ox] * i[ox+v]
/// let mut dw = vec![0.0; 2];
/// osrc_accumulate(input.row(0, 0), grad.row(0, 0), ConvGeometry::new(2, 1, 0), &mut dw);
/// assert_eq!(dw, vec![1.0 + 3.0, 2.0 + 4.0]);
/// ```
///
/// # Panics
///
/// Panics if `dw.len() != geom.kernel`; panics in debug builds if the
/// operand lengths are inconsistent with `geom` — i.e.
/// `grad.len() != geom.output_extent(input.len())`.
pub fn osrc_accumulate(input: SparseRow<'_>, grad: SparseRow<'_>, geom: ConvGeometry, dw: &mut [f32]) {
    assert_eq!(dw.len(), geom.kernel, "tap buffer length mismatch");
    debug_assert_eq!(
        grad.len(),
        geom.output_extent(input.len()),
        "gradient row length inconsistent with convolution geometry"
    );
    let k = geom.kernel;
    let stride = geom.stride as isize;
    let pad = geom.pad as isize;
    // For each non-zero gradient, the matching input window is
    // [ox*stride - pad, ox*stride - pad + K). Both offset lists are sorted,
    // so a cursor into the input advances monotonically.
    let in_offsets = input.offsets();
    let in_values = input.values();
    let mut cursor = 0usize;
    for (ox, g) in grad.iter() {
        let base = ox as isize * stride - pad;
        let win_start = base.max(0) as u32;
        while cursor < in_offsets.len() && in_offsets[cursor] < win_start {
            cursor += 1;
        }
        let mut j = cursor;
        while j < in_offsets.len() {
            let ix = in_offsets[j] as isize;
            let v = ix - base;
            if v >= k as isize {
                break;
            }
            // v >= 0 is guaranteed by the cursor advance above.
            dw[v as usize] += g * in_values[j];
            j += 1;
        }
    }
}

/// Number of overlapping non-zero `(input, grad)` pairs — the MAC count of
/// an OSRC operation, used by the analytic work model.
pub fn osrc_pair_count(input: SparseRow<'_>, grad: SparseRow<'_>, geom: ConvGeometry) -> u64 {
    let k = geom.kernel as isize;
    let stride = geom.stride as isize;
    let pad = geom.pad as isize;
    let in_offsets = input.offsets();
    let mut cursor = 0usize;
    let mut pairs = 0u64;
    for (ox, _) in grad.iter() {
        let base = ox as isize * stride - pad;
        let win_start = base.max(0) as u32;
        while cursor < in_offsets.len() && in_offsets[cursor] < win_start {
            cursor += 1;
        }
        let mut j = cursor;
        while j < in_offsets.len() && (in_offsets[j] as isize) < base + k {
            pairs += 1;
            j += 1;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowconv::one_row;

    fn taps(input: &[f32], grad: &[f32], geom: ConvGeometry) -> Vec<f32> {
        let mut dw = vec![0.0; geom.kernel];
        osrc_accumulate(one_row(input).row(0, 0), one_row(grad).row(0, 0), geom, &mut dw);
        dw
    }

    fn dense_osrc(input: &[f32], grad: &[f32], geom: ConvGeometry) -> Vec<f32> {
        let mut dw = vec![0.0; geom.kernel];
        for (ox, &g) in grad.iter().enumerate() {
            for (v, d) in dw.iter_mut().enumerate() {
                let ix = ox as isize * geom.stride as isize - geom.pad as isize + v as isize;
                if ix >= 0 && (ix as usize) < input.len() {
                    *d += g * input[ix as usize];
                }
            }
        }
        dw
    }

    #[test]
    fn matches_dense_reference() {
        let input = [0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0];
        let geom = ConvGeometry::new(3, 1, 1);
        let grad = [1.0, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, 1.0];
        let got = taps(&input, &grad, geom);
        let want = dense_osrc(&input, &grad, geom);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_dense_reference_stride2() {
        let input = [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0, 0.0];
        let geom = ConvGeometry::new(3, 2, 1);
        let out_len = geom.output_extent(input.len());
        let grad_dense: Vec<f32> = (0..out_len).map(|i| if i % 2 == 0 { 1.5 } else { 0.0 }).collect();
        let got = taps(&input, &grad_dense, geom);
        let want = dense_osrc(&input, &grad_dense, geom);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_operands_give_zero() {
        let geom = ConvGeometry::new(3, 1, 1);
        let dw = taps(&[0.0; 8], &[0.0; 8], geom);
        assert_eq!(dw, vec![0.0; 3]);
    }

    #[test]
    fn pair_count_matches_manual() {
        let (input, grad) = (one_row(&[1.0, 0.0, 1.0, 0.0]), one_row(&[0.0, 1.0, 0.0, 1.0]));
        let geom = ConvGeometry::new(3, 1, 1);
        // grad nz at ox=1 (window ix 0..3): input nz 0, 2 -> 2 pairs
        // grad nz at ox=3 (window ix 2..5): input nz 2 -> 1 pair
        assert_eq!(osrc_pair_count(input.row(0, 0), grad.row(0, 0), geom), 3);
    }

    #[test]
    fn cursor_never_misses_window_restart() {
        // Overlapping windows must both see the shared input non-zero.
        let geom = ConvGeometry::new(3, 1, 1);
        let dw = taps(&[0.0, 5.0, 0.0, 0.0], &[1.0, 1.0, 0.0, 0.0], geom);
        // ox=0 base=-1: ix=1 -> v=2 ; ox=1 base=0: ix=1 -> v=1
        assert_eq!(dw, vec![0.0, 5.0, 5.0]);
    }
}
