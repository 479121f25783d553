//! Runtime-dispatched vectorized kernel engine (`"simd"`).
//!
//! [`SimdEngine`] executes the SRC / MSRC / OSRC inner loops across wide
//! lanes while staying **bitwise identical** to
//! [`crate::engine::ScalarEngine`]. The trick is the choice of vector
//! axis: lanes always run across *independent output elements* — output
//! pixels for Forward/GTA, weight-gradient cells for GTW — with the scalar
//! operand (one kernel tap, one gradient value) broadcast, and never
//! across a reduction dimension. Each output element therefore accumulates
//! its contributions in exactly the scalar engine's per-element order, one
//! two-rounding `acc + x·w` at a time (the scalar kernels never fuse into
//! `mul_add`, so neither does this engine — an FMA would change the
//! rounding):
//!
//! * **SRC (Forward)** — for each kernel tap `v` (ascending, the scalar
//!   per-element order), the whole output row takes
//!   `out[ox] += in_dense[ox − pad + v] · w[v]`: a shifted contiguous
//!   *axpy* sweep with the tap broadcast.
//! * **MSRC (GTA)** — the same sweep with the taps walked *descending*
//!   (the scatter direction reverses the per-element order) and a dense
//!   `0.0/1.0` mask factor standing in for the skip:
//!   `din[ix] += m[ix] · (g_dense[ix + pad − v] · w[v])`. Multiplying by
//!   `1.0` is exact and by `0.0` contributes `±0.0`, so results match the
//!   scalar skip bit for bit on finite data.
//! * **OSRC (GTW)** — for each gradient non-zero (ascending, the scalar
//!   per-tap order), all `K` taps take `dw[v] += g · in_dense[base + v]`:
//!   a `K`-lane sweep over the contiguous input window with the gradient
//!   broadcast. Works at any stride.
//!
//! The dense sweeps touch stored zeros the scalar kernels skip; those
//! contribute `x + (±0.0·w) = x` exactly, because an accumulator that
//! starts at `+0.0` can never become `-0.0` under round-to-nearest (an
//! exactly cancelling sum rounds to `+0.0`). The one representable hazard
//! — a caller-supplied literal `-0.0` in the bias or the pre-seeded
//! accumulator — falls back to the scalar band (a cheap one-pass bit scan
//! guards every band), as do strides ≠ 1 on the row sweeps (the gather
//! would be non-contiguous) and rows too sparse to be worth densifying
//! (fewer than one non-zero per lane block on average); every fallback is
//! the scalar code itself, so parity is unconditional.
//!
//! Densification is hoisted **above the band fan-out**: the engine's
//! `prepare` builds the densified operand map once per engine call into a
//! [`crate::engine::BandContext`], and every band worker borrows it
//! — under `"parallel:simd"` the `B` bands share one `O(C·H·W)` fill
//! instead of redoing it `B` times (the few-percent per-band loss the
//! first release documented). A band invoked without a prepared context
//! (direct band calls) densifies locally, so results never depend on who
//! prepared.
//!
//! Two implementations sit behind one runtime dispatch:
//!
//! * a **portable** lane-blocked path (fixed `[f32; 8]` blocks that LLVM
//!   autovectorizes on every target), and
//! * an **x86_64 AVX2+FMA** path (`#[target_feature]` + `std::arch`
//!   intrinsics, selected per process via `is_x86_feature_detected!`;
//!   `vmulps`/`vaddps` only — the FMA feature is enabled for the encoder
//!   but never used to contract, see above).
//!
//! Both produce identical bits; [`SimdEngine::portable`] pins the portable
//! path for tests and cross-checks. Thread-level parallelism composes
//! through [`crate::engine::ParallelEngine::over`]: the registry's
//! `"parallel:simd"` runs these band workers inside each rayon band.

use crate::compressed::SparseVec;
use crate::engine::{scalar_band, BandContext, KernelEngine, StageOp};
use crate::mask::RowMask;
use crate::msrc::msrc_accumulate;
use crate::osrc::osrc_accumulate;
use crate::rowconv::SparseFeatureMap;
use crate::src::src_accumulate;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;

/// Vector lane-block width of the portable path (f32 lanes per block, one
/// AVX2 register). Also the chunk-alignment granularity of the parallel
/// element seam.
pub(crate) const LANES: usize = 8;

/// A sparse row is worth the dense sweep once it averages at least one
/// non-zero per vector block: the sweep costs `len / LANES` block ops
/// where the sparse kernel costs `nnz` scalar ops.
const DENSE_CUTOFF_LANES: usize = LANES;

fn dense_worthwhile(nnz: usize, len: usize) -> bool {
    nnz * DENSE_CUTOFF_LANES >= len
}

pub(crate) fn contains_negative_zero(values: &[f32]) -> bool {
    values.iter().any(|v| v.to_bits() == (-0.0f32).to_bits())
}

/// Whether this process supports the AVX2+FMA fast path (shared with the
/// im2row engine's dispatch).
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// The two vector primitives (portable + AVX2)
// ---------------------------------------------------------------------------

/// `dst[i] += src[i] * w` — multiply then add, two roundings, exactly the
/// scalar kernels' arithmetic.
fn saxpy(avx2: bool, dst: &mut [f32], src: &[f32], w: f32) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime detection reported
        // AVX2+FMA support for this process.
        unsafe { saxpy_avx2(dst, src, w) };
        return;
    }
    let _ = avx2;
    saxpy_portable(dst, src, w);
}

/// `dst[i] += mask[i] * (src[i] * w)` with `mask` ∈ {0.0, 1.0}.
fn saxpy_masked(avx2: bool, dst: &mut [f32], src: &[f32], mask: &[f32], w: f32) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(dst.len(), mask.len());
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: as in `saxpy`.
        unsafe { saxpy_masked_avx2(dst, src, mask, w) };
        return;
    }
    let _ = avx2;
    saxpy_masked_portable(dst, src, mask, w);
}

/// Portable lane-blocked axpy: fixed-width `[f32; LANES]` blocks keep the
/// loop free of trip-count surprises so LLVM emits one vector multiply and
/// one vector add per block on every target.
fn saxpy_portable(dst: &mut [f32], src: &[f32], w: f32) {
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (db, sb) in (&mut d).zip(&mut s) {
        let db: &mut [f32; LANES] = db.try_into().expect("exact chunk");
        let sb: &[f32; LANES] = sb.try_into().expect("exact chunk");
        for i in 0..LANES {
            db[i] += sb[i] * w;
        }
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 += *s1 * w;
    }
}

fn saxpy_masked_portable(dst: &mut [f32], src: &[f32], mask: &[f32], w: f32) {
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    let mut m = mask.chunks_exact(LANES);
    for ((db, sb), mb) in (&mut d).zip(&mut s).zip(&mut m) {
        let db: &mut [f32; LANES] = db.try_into().expect("exact chunk");
        let sb: &[f32; LANES] = sb.try_into().expect("exact chunk");
        let mb: &[f32; LANES] = mb.try_into().expect("exact chunk");
        for i in 0..LANES {
            db[i] += mb[i] * (sb[i] * w);
        }
    }
    for ((d1, s1), m1) in d
        .into_remainder()
        .iter_mut()
        .zip(s.remainder())
        .zip(m.remainder())
    {
        *d1 += *m1 * (*s1 * w);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn saxpy_avx2(dst: &mut [f32], src: &[f32], w: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let wv = _mm256_set1_ps(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let d = _mm256_loadu_ps(dst.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        // Deliberately vmulps + vaddps, not vfmadd: the scalar reference
        // rounds the product before the add.
        let r = _mm256_add_ps(d, _mm256_mul_ps(s, wv));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
        i += LANES;
    }
    while i < n {
        *dst.get_unchecked_mut(i) += *src.get_unchecked(i) * w;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn saxpy_masked_avx2(dst: &mut [f32], src: &[f32], mask: &[f32], w: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let wv = _mm256_set1_ps(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let d = _mm256_loadu_ps(dst.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        let m = _mm256_loadu_ps(mask.as_ptr().add(i));
        let r = _mm256_add_ps(d, _mm256_mul_ps(m, _mm256_mul_ps(s, wv)));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
        i += LANES;
    }
    while i < n {
        *dst.get_unchecked_mut(i) += *mask.get_unchecked(i) * (*src.get_unchecked(i) * w);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Densification scratch
// ---------------------------------------------------------------------------

/// Writes the rows of `fm` selected by `select(nnz, len)` into a dense
/// channel-major buffer (`channels × height × width`); unselected rows are
/// left zero (they are only read through the sparse fallback).
pub(crate) fn densify_map(fm: &SparseFeatureMap, select: impl Fn(&SparseVec) -> bool) -> Vec<f32> {
    let (c, h, w) = (fm.channels(), fm.height(), fm.width());
    let mut dense = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for y in 0..h {
            let row = fm.row(ci, y);
            if select(row) {
                let out = &mut dense[(ci * h + y) * w..(ci * h + y + 1) * w];
                for (ix, val) in row.iter() {
                    out[ix] = val;
                }
            }
        }
    }
    dense
}

/// Densifies every dense-worthy row of `fm`, or `None` when no row
/// qualifies for the vector sweeps (the whole map routes to the sparse
/// kernels and no buffer is needed).
fn densify_worthy(fm: &SparseFeatureMap) -> Option<Vec<f32>> {
    let worthy = |row: &SparseVec| dense_worthwhile(row.nnz(), row.len());
    let any = (0..fm.channels()).any(|ci| (0..fm.height()).any(|y| worthy(fm.row(ci, y))));
    any.then(|| densify_map(fm, worthy))
}

/// Expands one channel's row masks into dense `0.0 / 1.0` factors.
fn densify_masks(masks: &[RowMask], ci: usize, in_h: usize, in_w: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), in_h * in_w);
    out.fill(0.0);
    for iy in 0..in_h {
        let mask = &masks[ci * in_h + iy];
        let row = &mut out[iy * in_w..(iy + 1) * in_w];
        for ix in mask.iter() {
            row[ix] = 1.0;
        }
    }
}

// ---------------------------------------------------------------------------
// SimdEngine
// ---------------------------------------------------------------------------

/// The runtime-dispatched vectorized engine, registered as `"simd"` (and,
/// banded across threads, as `"parallel:simd"`).
///
/// ```
/// use sparsetrain_sparse::{registry, SimdEngine};
///
/// let handle = registry::lookup("simd").unwrap();
/// assert_eq!(handle.engine().name(), "simd");
/// // The portable path is always available and bitwise-equal to AVX2.
/// assert_eq!(SimdEngine::portable().active_path(), "portable");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdEngine {
    force_portable: bool,
}

impl SimdEngine {
    /// Engine dispatching to AVX2+FMA when the CPU reports it, the
    /// portable lane-blocked path otherwise.
    pub const fn auto() -> Self {
        Self {
            force_portable: false,
        }
    }

    /// Engine pinned to the portable lane-blocked path (tests,
    /// cross-checks, reproducing non-x86 behaviour on x86).
    pub const fn portable() -> Self {
        Self { force_portable: true }
    }

    fn use_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }

    /// Which implementation this engine's sweeps run on right now:
    /// `"avx2"` or `"portable"`. When AVX2 (or FMA) is reported absent —
    /// or the engine was built with [`SimdEngine::portable`] — this is
    /// always `"portable"`.
    pub fn active_path(&self) -> &'static str {
        if self.use_avx2() {
            "avx2"
        } else {
            "portable"
        }
    }
}

impl SimdEngine {
    /// SRC sweep of filters `f_lo..` into `out_band` (stride 1 only);
    /// `idense` is the densified input map.
    #[allow(clippy::too_many_arguments)]
    fn src_band(
        &self,
        idense: &[f32],
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        f_lo: usize,
        out_band: &mut [f32],
    ) {
        let avx2 = self.use_avx2();
        let (h, w_in, k, pad) = (input.height(), input.width(), geom.kernel, geom.pad);
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w_in));
        for (bf, plane) in out_band.chunks_mut(oh * ow).enumerate() {
            let fi = f_lo + bf;
            if let Some(b) = bias {
                plane.fill(b[fi]);
            }
            for (oy, out_row) in plane.chunks_mut(ow).enumerate() {
                for u in 0..k {
                    let iy = oy as isize - pad as isize + u as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ci in 0..input.channels() {
                        let row = input.row(ci, iy);
                        let krow = weights.kernel_row(fi, ci, u);
                        if !dense_worthwhile(row.nnz(), row.len()) {
                            src_accumulate(row, krow, geom, out_row);
                            continue;
                        }
                        let in_row = &idense[(ci * h + iy) * w_in..(ci * h + iy + 1) * w_in];
                        // Taps ascending: for a fixed output pixel, ascending
                        // tap index is ascending input index — the scalar
                        // per-element accumulation order.
                        for (v, &w) in krow.iter().enumerate() {
                            if w == 0.0 {
                                continue;
                            }
                            // out[ox] += in[ox - pad + v] * w over the ox
                            // range whose input index is in bounds.
                            let shift = v as isize - pad as isize;
                            let lo = (-shift).max(0) as usize;
                            let hi = (w_in as isize - shift).clamp(0, ow as isize) as usize;
                            if lo < hi {
                                let src =
                                    &in_row[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                                saxpy(avx2, &mut out_row[lo..hi], src, w);
                            }
                        }
                    }
                }
            }
        }
    }

    /// MSRC sweep of channels `c_lo..` into `din_band` (stride 1 only);
    /// `gdense` is the densified gradient map.
    #[allow(clippy::too_many_arguments)]
    fn msrc_band(
        &self,
        gdense: &[f32],
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
        c_lo: usize,
        din_band: &mut [f32],
    ) {
        let avx2 = self.use_avx2();
        let (k, pad, ow) = (geom.kernel, geom.pad, dout.width());
        let oh = dout.height();
        let any_worthy = !gdense.is_empty();
        let worthy = |row: &SparseVec| dense_worthwhile(row.nnz(), row.len());
        // The dense mask factors are per *band channel* (each band touches
        // disjoint channels), so this scratch stays band-local.
        let mut maskf = if any_worthy {
            vec![0.0f32; in_h * in_w]
        } else {
            Vec::new()
        };
        for (bc, plane) in din_band.chunks_mut(in_h * in_w).enumerate() {
            let ci = c_lo + bc;
            if any_worthy {
                densify_masks(masks, ci, in_h, in_w, &mut maskf);
            }
            for fi in 0..dout.channels() {
                for oy in 0..oh {
                    let grow = dout.row(fi, oy);
                    if grow.nnz() == 0 {
                        continue;
                    }
                    for u in 0..k {
                        let iy = oy as isize - pad as isize + u as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        let out_row = &mut plane[iy * in_w..(iy + 1) * in_w];
                        let krow = weights.kernel_row(fi, ci, u);
                        if !worthy(grow) {
                            msrc_accumulate(grow, krow, geom, &masks[ci * in_h + iy], out_row);
                            continue;
                        }
                        let g_row = &gdense[(fi * oh + oy) * ow..(fi * oh + oy + 1) * ow];
                        let m_row = &maskf[iy * in_w..(iy + 1) * in_w];
                        // Taps descending: the scatter reverses the map, so
                        // for a fixed input pixel the scalar order (gradient
                        // non-zeros ascending) is descending tap index.
                        for v in (0..k).rev() {
                            let w = krow[v];
                            if w == 0.0 {
                                continue;
                            }
                            // din[ix] += m[ix]·(g[ix + pad - v]·w) over the
                            // ix range whose gradient index is in bounds.
                            let shift = pad as isize - v as isize;
                            let lo = (-shift).max(0) as usize;
                            let hi = (ow as isize - shift).clamp(0, in_w as isize) as usize;
                            if lo < hi {
                                let src =
                                    &g_row[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                                saxpy_masked(avx2, &mut out_row[lo..hi], src, &m_row[lo..hi], w);
                            }
                        }
                    }
                }
            }
        }
    }

    /// OSRC sweep of filters `f_lo..` into `dw_band`; `idense` is the
    /// densified input map.
    fn osrc_band(
        &self,
        idense: &[f32],
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        f_lo: usize,
        dw_band: &mut [f32],
    ) {
        let avx2 = self.use_avx2();
        let (c, h, w_in) = (input.channels(), input.height(), input.width());
        let (k, stride, pad) = (geom.kernel, geom.stride as isize, geom.pad as isize);
        for (bf, block) in dw_band.chunks_mut(c * k * k).enumerate() {
            let fi = f_lo + bf;
            for ci in 0..c {
                for u in 0..k {
                    let taps = &mut block[(ci * k + u) * k..(ci * k + u + 1) * k];
                    for oy in 0..dout.height() {
                        let iy = (oy * geom.stride) as isize - pad + u as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = input.row(ci, iy as usize);
                        let grow = dout.row(fi, oy);
                        if irow.nnz() == 0 || grow.nnz() == 0 {
                            continue;
                        }
                        if !dense_worthwhile(irow.nnz(), irow.len()) {
                            osrc_accumulate(irow, grow, geom, taps);
                            continue;
                        }
                        let in_row =
                            &idense[(ci * h + iy as usize) * w_in..(ci * h + iy as usize + 1) * w_in];
                        // Gradient non-zeros ascending: the scalar per-tap
                        // accumulation order. All K weight-gradient cells
                        // take the broadcast gradient in one sweep over the
                        // contiguous input window (stride only moves the
                        // window base, the window itself stays contiguous).
                        for (ox, g) in grow.iter() {
                            let base = ox as isize * stride - pad;
                            let v_lo = (-base).max(0).min(k as isize) as usize;
                            let v_hi = (w_in as isize - base).clamp(0, k as isize) as usize;
                            if v_lo < v_hi {
                                let window =
                                    &in_row[(base + v_lo as isize) as usize..(base + v_hi as isize) as usize];
                                saxpy(avx2, &mut taps[v_lo..v_hi], window, g);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The sparse map a stage's sweeps read densified: the activations for
/// Forward and GTW, the output gradients for GTA.
fn swept<'a>(op: &StageOp<'a>) -> &'a SparseFeatureMap {
    match *op {
        StageOp::Forward { input, .. } | StageOp::WeightGrad { input, .. } => input,
        StageOp::InputGrad { dout, .. } => dout,
    }
}

impl KernelEngine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn prepare(&self, op: &StageOp<'_>) -> BandContext {
        let mut ctx = BandContext::empty();
        // When every band will take the scalar fallback anyway (stride ≠ 1
        // on the row sweeps, literal -0.0 bias), densifying would be wasted
        // work.
        let wasted = match *op {
            StageOp::Forward { bias, geom, .. } => {
                geom.stride != 1 || bias.is_some_and(contains_negative_zero)
            }
            StageOp::InputGrad { geom, .. } => geom.stride != 1,
            StageOp::WeightGrad { .. } => false,
        };
        if !wasted {
            if let Some(dense) = densify_worthy(swept(op)) {
                ctx.set_dense(dense);
            }
        }
        ctx
    }

    fn band(&self, ctx: &BandContext, op: &StageOp<'_>, lo: usize, out: &mut [f32]) {
        // The scalar band code itself serves what the sweeps cannot
        // reproduce bit for bit. Stride ≠ 1 would make the Forward/GTA row
        // gather non-contiguous (the GTW window stays contiguous at any
        // stride); a literal -0.0 in the bias — or, with no bias to
        // overwrite it, in the pre-seeded accumulator — is only preserved
        // by the scalar skip of zero operands.
        let scalar_only = match *op {
            StageOp::Forward { bias, geom, .. } => {
                geom.stride != 1 || contains_negative_zero(bias.unwrap_or(&*out))
            }
            StageOp::InputGrad { geom, .. } => geom.stride != 1 || contains_negative_zero(out),
            StageOp::WeightGrad { .. } => contains_negative_zero(out),
        };
        if scalar_only {
            return scalar_band(op, lo, out);
        }
        // Borrow the densified map the call prepared once above the band
        // fan-out; densify locally only when invoked without one.
        let local;
        let dense: &[f32] = if !ctx.dense().is_empty() {
            ctx.dense()
        } else {
            local = densify_worthy(swept(op)).unwrap_or_default();
            &local
        };
        match *op {
            StageOp::Forward {
                input,
                weights,
                bias,
                geom,
            } => self.src_band(dense, input, weights, bias, geom, lo, out),
            StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks,
                in_h,
                in_w,
            } => self.msrc_band(dense, dout, weights, geom, masks, in_h, in_w, lo, out),
            StageOp::WeightGrad { input, dout, geom } => self.osrc_band(dense, input, dout, geom, lo, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::{fixtures, stage_ops};
    use crate::engine::{ParallelEngine, ScalarEngine};
    use sparsetrain_tensor::Tensor3;

    fn engines() -> Vec<(&'static str, SimdEngine)> {
        vec![("auto", SimdEngine::auto()), ("portable", SimdEngine::portable())]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Dense and very sparse fixtures at stride 1 and 2 (vector path,
    /// sparse-row fallback, stride fallback): every path must match the
    /// scalar reference bitwise.
    #[test]
    fn simd_matches_scalar_bitwise_on_all_paths() {
        for geom in [
            ConvGeometry::new(3, 1, 1),
            ConvGeometry::new(3, 2, 1),
            ConvGeometry::new(2, 1, 0),
        ] {
            for density in [5u64, 40, 90] {
                let (input, weights, bias, dout) = fixtures(11 + density, density, 4, geom);
                let masks = input.masks();
                for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
                    let want = op.run_on(&ScalarEngine);
                    for (label, simd) in engines() {
                        let ctx = format!("{label} k={} s={} d={density}", geom.kernel, geom.stride);
                        assert_eq!(op.run_on(&simd), want, "{} {ctx}", op.stage());
                    }
                }
            }
        }
    }

    /// The portable and AVX2 implementations agree bitwise (trivially true
    /// off x86_64, where both are the portable path).
    #[test]
    fn portable_and_dispatched_paths_agree() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, dout) = fixtures(77, 55, 4, geom);
        let masks = input.masks();
        for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
            assert_eq!(
                op.run_on(&SimdEngine::auto()),
                op.run_on(&SimdEngine::portable()),
                "{}",
                op.stage()
            );
        }
    }

    /// Dispatch contract: forcing portable always reports portable, and
    /// when the CPU does not report AVX2+FMA the auto engine must take the
    /// portable path too.
    #[test]
    fn dispatch_reports_portable_when_avx2_absent() {
        assert_eq!(SimdEngine::portable().active_path(), "portable");
        if !avx2_available() {
            assert_eq!(SimdEngine::auto().active_path(), "portable");
        } else {
            assert_eq!(SimdEngine::auto().active_path(), "avx2");
        }
    }

    /// A literal -0.0 bias takes the scalar fallback and survives exactly.
    #[test]
    fn negative_zero_bias_is_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        // All-zero input: the output is exactly the bias fill.
        let input = SparseFeatureMap::from_tensor(&Tensor3::zeros(2, 5, 5));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 0.5);
        let op = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: Some(&[-0.0f32, 1.0]),
            geom,
        };
        let want = op.run_on(&ScalarEngine);
        for (label, simd) in engines() {
            assert_eq!(bits(&op.run_on(&simd)), bits(&want), "{label}");
        }
    }

    /// Accumulators pre-seeded with literal -0.0 take the scalar fallback
    /// on every stage, so accumulation parity is bitwise even for that
    /// representable corner (the dense sweeps' spurious `+0.0` adds would
    /// otherwise flip the sign bit).
    #[test]
    fn negative_zero_preseeded_accumulators_are_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _, dout) = fixtures(31, 60, 4, geom);
        let masks = input.masks();
        for op in stage_ops(&input, &weights, None, &dout, &masks, geom) {
            let seeded: Vec<f32> = (0..op.out_len())
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.25 })
                .collect();
            let mut want = seeded.clone();
            ScalarEngine.run(&op, &mut want);
            for (label, simd) in engines() {
                let mut got = seeded.clone();
                simd.run(&op, &mut got);
                assert_eq!(bits(&got), bits(&want), "{} {label}", op.stage());
            }
        }
    }

    /// `parallel:simd` composition: simd bands under thread-parallel
    /// banding stay bitwise equal to scalar at every band count.
    #[test]
    fn banded_simd_matches_scalar() {
        static SIMD: SimdEngine = SimdEngine::auto();
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, dout) = fixtures(5, 45, 4, geom);
        let masks = input.masks();
        for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
            let want = op.run_on(&ScalarEngine);
            for threads in [0usize, 1, 2, 3, 8] {
                let banded = ParallelEngine::over("test:parallel-simd", &SIMD).banded(threads);
                assert_eq!(op.run_on(&banded), want, "{} threads {threads}", op.stage());
            }
        }
    }
}
