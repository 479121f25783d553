//! im2row-lowered convolution.
//!
//! The naive reference in [`crate::conv`] is the ground truth; this module
//! lowers the forward convolution to a patch-matrix × kernel-matrix product
//! with better locality, and is verified against the reference. No layer
//! calls it — training runs the row dataflow of `sparsetrain-sparse` — and
//! it stays only because the `stbench` benchmark harness times it as its
//! dense forward leg.

use crate::conv::ConvGeometry;
use crate::tensor::{Tensor3, Tensor4};

/// Forward convolution via im2row lowering.
///
/// Identical results to [`crate::conv::forward`] up to f32 summation order.
///
/// # Panics
///
/// Panics on the same shape mismatches as the reference.
pub fn forward(input: &Tensor3, weights: &Tensor4, bias: Option<&[f32]>, geom: ConvGeometry) -> Tensor3 {
    let (c, h, w) = input.shape();
    let (f, wc, kh, kw) = weights.shape();
    assert_eq!(wc, c, "weight channels {wc} != input channels {c}");
    assert_eq!(kh, geom.kernel);
    assert_eq!(kw, geom.kernel);
    if let Some(b) = bias {
        assert_eq!(b.len(), f, "bias length mismatch");
    }
    let oh = geom.output_extent(h);
    let ow = geom.output_extent(w);
    let k = geom.kernel;
    let patch = c * k * k;

    // Build the patch matrix: one row per output position, `patch` columns.
    let mut patches = vec![0.0f32; oh * ow * patch];
    for oy in 0..oh {
        for ox in 0..ow {
            let row_base = (oy * ow + ox) * patch;
            for ci in 0..c {
                for u in 0..k {
                    let iy = (oy * geom.stride + u) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let irow = input.row(ci, iy as usize);
                    let dst = row_base + (ci * k + u) * k;
                    for v in 0..k {
                        let ix = (ox * geom.stride + v) as isize - geom.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            patches[dst + v] = irow[ix as usize];
                        }
                    }
                }
            }
        }
    }

    // out[f][pos] = weights_row(f) · patches_row(pos) (+ bias)
    let mut out = Tensor3::zeros(f, oh, ow);
    let wdata = weights.as_slice();
    for fi in 0..f {
        let wrow = &wdata[fi * patch..(fi + 1) * patch];
        let b = bias.map_or(0.0, |b| b[fi]);
        let orow = out.as_mut_slice();
        for pos in 0..oh * ow {
            let prow = &patches[pos * patch..(pos + 1) * patch];
            let mut acc = b;
            for (a, x) in wrow.iter().zip(prow) {
                acc += a * x;
            }
            orow[fi * oh * ow + pos] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv;

    fn pseudo(seed: &mut u64) -> f32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed % 2000) as f32 / 1000.0) - 1.0
    }

    #[test]
    fn matches_reference_across_geometries() {
        for &(k, s, p) in &[
            (3usize, 1usize, 1usize),
            (3, 2, 1),
            (5, 1, 2),
            (1, 1, 0),
            (3, 1, 0),
        ] {
            let geom = ConvGeometry::new(k, s, p);
            if 9 + 2 * p < k {
                continue;
            }
            let mut seed = 31 + k as u64;
            let input = Tensor3::from_fn(3, 9, 9, |_, _, _| pseudo(&mut seed));
            let weights = Tensor4::from_fn(4, 3, k, k, |_, _, _, _| pseudo(&mut seed));
            let bias: Vec<f32> = (0..4).map(|_| pseudo(&mut seed)).collect();
            let want = conv::forward(&input, &weights, Some(&bias), geom);
            let got = forward(&input, &weights, Some(&bias), geom);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + a.abs()),
                    "k={k} s={s} p={p}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn zero_input_gives_bias() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::zeros(2, 4, 4);
        let weights = Tensor4::zeros(2, 2, 3, 3);
        let out = forward(&input, &weights, Some(&[1.0, -1.0]), geom);
        assert!(out.channel(0).iter().all(|&v| v == 1.0));
        assert!(out.channel(1).iter().all(|&v| v == -1.0));
    }
}
