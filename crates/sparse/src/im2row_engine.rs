//! Cache-blocked im2row dense kernel engine (`"im2row"`).
//!
//! Early convolution layers are exactly where the sparse row kernels have
//! the least to skip: activations enter nearly dense (the raw image, or a
//! map before much ReLU sparsity has developed) and rows are wide. There a
//! classic dense lowering wins — materialize every output position's
//! receptive field as one contiguous **patch row** and reduce it against
//! the kernel with a register-tiled dot product, so each patch element
//! loaded from cache feeds [`TILE`] filters at once.
//!
//! [`Im2RowEngine`] does that lowering *without giving up bitwise parity*
//! with [`crate::engine::ScalarEngine`]:
//!
//! * **Patch layout is the scalar order.** The scalar forward accumulates
//!   each output pixel as `(kernel row u ascending, channel ci ascending,
//!   tap v ascending)`, so patch columns are laid out `(u, ci, v)` — *not*
//!   the `(ci, u, v)` of a textbook im2row (`sparsetrain_tensor::im2row`)
//!   — and the per-filter kernel weights are repacked to match. Every
//!   output element therefore accumulates its contributions in exactly
//!   the scalar engine's per-element order, one two-rounding `acc + x·w`
//!   at a time (multiply then add; no FMA contraction).
//! * **Extra zero terms are exact.** The dense reduction includes terms
//!   the scalar kernels skip (stored-zero activations, zero kernel taps,
//!   zero-padded window positions); each contributes `±0.0`, and an
//!   accumulator that does not start as literal `-0.0` can never become
//!   `-0.0` under round-to-nearest, so those adds are bit-exact no-ops.
//! * **Everything else falls back to the scalar band code itself**:
//!   strides ≠ 1, a literal `-0.0` bias (or pre-seeded accumulator), and
//!   any output row fed by a row sparser than the density cutoff — so
//!   parity is unconditional, enforced by the unmodified `engine_parity`
//!   and `prune_determinism` suites.
//!
//! The patch matrix is built **once per engine call** into the
//! [`BandContext`] by [`KernelEngine::prepare`], above the band
//! fan-out, and every band borrows it — the rayon bands of one call share
//! one lowering. Inside a band the loop order is
//! filter-tile ⇒ output row ⇒ output position: the repacked weight tile
//! (`patch_len × TILE` floats) stays register/L1-resident across a whole
//! plane sweep while patch rows stream through, and each output row's
//! patch block is reused by every tile — the cache blocking that gives the
//! engine its name.
//!
//! The **density cutoff** ([`CUTOFF`]) decides when a row is worth the
//! dense treatment: an output row takes the micro-kernel only when every
//! in-bounds input row feeding it carries at least one non-zero per
//! `CUTOFF` elements (density ≥ 1/8 — where an 8-lane dense reduction
//! costs what the per-non-zero kernels do) **or is empty** (empty rows
//! cost the reduction only exact zero terms, so they never veto a row).
//! Output rows fed by below-cutoff rows keep the work-proportional sparse
//! kernels.
//!
//! GTA and GTW inherit the scalar band defaults: the backward operand (the
//! pruned output gradient) is sparse by construction, which is the regime
//! the SRC-family kernels and the simd engine's non-zero walks already
//! serve; lowering it densely would do strictly more work. Use `"simd"`
//! when the backward stages dominate.
//!
//! Like the simd engine, the micro-kernel is runtime-dispatched between an
//! x86_64 AVX2 implementation (`vmulps`/`vaddps`, never `vfmadd`) and a
//! portable `[f32; TILE]` block the autovectorizer handles everywhere
//! else; both produce identical bits and [`Im2RowEngine::portable`] pins
//! the portable path.

use crate::compressed::SparseRow;
use crate::engine::{scalar_band, BandContext, KernelEngine, StageOp};
use crate::rowconv::SparseFeatureMap;
use crate::simd_engine::{avx2_available, contains_negative_zero};
use crate::src::src_accumulate;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;

/// Filters reduced per micro-kernel invocation (one AVX2 register of
/// accumulators; the portable path uses the same block width).
pub const TILE: usize = 8;

/// Density cutoff: a row qualifies for the dense lowering when it averages
/// at least one non-zero per `8` elements (`nnz · CUTOFF ≥ len`) — the
/// break-even where an 8-lane dense sweep costs what the sparse kernel's
/// per-non-zero work does.
pub const CUTOFF: usize = 8;

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// `acc[l] += wt[idx·TILE + l] · prow[idx]` for all `idx` ascending — the
/// register-tiled patch-row reduction. Each accumulator's chain is the
/// scalar per-element order; the lanes are independent filters.
fn tile_kernel(avx2: bool, acc: &mut [f32; TILE], prow: &[f32], wt: &[f32]) {
    debug_assert_eq!(wt.len(), prow.len() * TILE);
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime detection reported
        // AVX2+FMA support for this process.
        unsafe { tile_kernel_avx2(acc, prow, wt) };
        return;
    }
    let _ = avx2;
    tile_kernel_portable(acc, prow, wt);
}

/// Portable block micro-kernel: the fixed `[f32; TILE]` accumulator keeps
/// the inner loop trip-count-free so LLVM emits one vector multiply and
/// one vector add per patch element on every target.
fn tile_kernel_portable(acc: &mut [f32; TILE], prow: &[f32], wt: &[f32]) {
    for (x, wv) in prow.iter().zip(wt.chunks_exact(TILE)) {
        let wv: &[f32; TILE] = wv.try_into().expect("exact chunk");
        for l in 0..TILE {
            acc[l] += wv[l] * *x;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_kernel_avx2(acc: &mut [f32; TILE], prow: &[f32], wt: &[f32]) {
    use std::arch::x86_64::*;
    let mut a = _mm256_loadu_ps(acc.as_ptr());
    for (idx, &x) in prow.iter().enumerate() {
        let xv = _mm256_set1_ps(x);
        let wv = _mm256_loadu_ps(wt.as_ptr().add(idx * TILE));
        // Deliberately vmulps + vaddps, not vfmadd: the scalar reference
        // rounds the product before the add.
        a = _mm256_add_ps(a, _mm256_mul_ps(wv, xv));
    }
    _mm256_storeu_ps(acc.as_mut_ptr(), a);
}

// ---------------------------------------------------------------------------
// Im2RowEngine
// ---------------------------------------------------------------------------

/// The cache-blocked im2row engine, registered as `"im2row"` (and under
/// the alias `"parallel:im2row"`).
///
/// ```
/// use sparsetrain_sparse::{registry, Im2RowEngine};
///
/// let handle = registry::lookup("im2row").unwrap();
/// assert_eq!(handle.name(), "im2row");
/// // The portable micro-kernel is always available and bitwise-equal to
/// // the AVX2 one.
/// assert_eq!(Im2RowEngine::portable().active_path(), "portable");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Im2RowEngine {
    force_portable: bool,
}

/// Writes the rows of `fm` selected by `select` into a dense
/// channel-major buffer (`channels × height × width`); unselected rows are
/// left zero (they are only read through the sparse fallback).
fn densify_map(fm: &SparseFeatureMap, select: impl Fn(SparseRow<'_>) -> bool) -> Vec<f32> {
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

/// The forward lowering of one engine call: the patch matrix, its row
/// width, and which output rows qualified for the micro-kernel.
struct ForwardPlan {
    patches: Vec<f32>,
    plen: usize,
    dense_rows: Vec<bool>,
}

impl Im2RowEngine {
    /// Engine dispatching to AVX2 when the CPU reports it.
    pub const fn auto() -> Self {
        Self {
            force_portable: false,
        }
    }

    /// Engine pinned to the portable micro-kernel (tests, cross-checks).
    pub const fn portable() -> Self {
        Self { force_portable: true }
    }

    fn use_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }

    /// Which micro-kernel this engine runs right now: `"avx2"` or
    /// `"portable"`.
    pub fn active_path(&self) -> &'static str {
        if self.use_avx2() {
            "avx2"
        } else {
            "portable"
        }
    }

    fn row_worthy(row: SparseRow<'_>) -> bool {
        row.nnz() * CUTOFF >= row.len()
    }

    /// Builds the call's forward lowering, or `None` when no output row
    /// qualifies (the whole call routes to the scalar band code). Only
    /// valid at stride 1 — the caller guards.
    fn build_forward_plan(&self, input: &SparseFeatureMap, geom: ConvGeometry) -> Option<ForwardPlan> {
        let (c, h, w) = (input.channels(), input.height(), input.width());
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
        let (k, pad) = (geom.kernel, geom.pad as isize);
        let plen = c * k * k;
        if plen == 0 || oh * ow == 0 {
            return None;
        }
        // An output row qualifies iff every in-bounds input row feeding it
        // (all channels, all k kernel rows) meets the density cutoff or is
        // empty. Empty rows cost the micro-kernel only exact `±0.0` terms
        // (their patch columns stay zero), so they must not disqualify a
        // row — on 8-wide mid-stack layers a single empty row among
        // hundreds of contributors would otherwise veto every output row.
        let row_ok: Vec<bool> = (0..h)
            .map(|iy| {
                (0..c).all(|ci| {
                    let row = input.row(ci, iy);
                    row.nnz() == 0 || Self::row_worthy(row)
                })
            })
            .collect();
        let dense_rows: Vec<bool> = (0..oh)
            .map(|oy| {
                (0..k).all(|u| {
                    let iy = oy as isize - pad + u as isize;
                    iy < 0 || iy >= h as isize || row_ok[iy as usize]
                })
            })
            .collect();
        if !dense_rows.iter().any(|&d| d) {
            return None;
        }
        // Dense staging for the worthy rows, then window copies into the
        // (u, ci, v)-ordered patch rows; padding stays zero.
        let dense = densify_map(input, Self::row_worthy);
        let mut patches = vec![0.0f32; oh * ow * plen];
        for (oy, patch_plane) in patches.chunks_mut(ow * plen).enumerate() {
            if !dense_rows[oy] {
                continue;
            }
            for (ox, prow) in patch_plane.chunks_mut(plen).enumerate() {
                let ix0 = ox as isize - pad;
                for u in 0..k {
                    let iy = oy as isize - pad + u as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let drow = &dense[(iy as usize) * w..];
                    for ci in 0..c {
                        let drow = &drow[ci * h * w..ci * h * w + w];
                        let dst = &mut prow[(u * c + ci) * k..(u * c + ci + 1) * k];
                        if ix0 >= 0 && ix0 as usize + k <= w {
                            dst.copy_from_slice(&drow[ix0 as usize..ix0 as usize + k]);
                        } else {
                            for (v, d) in dst.iter_mut().enumerate() {
                                let ix = ix0 + v as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    *d = drow[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
        Some(ForwardPlan {
            patches,
            plen,
            dense_rows,
        })
    }
}

/// Repacks the band's kernel weights into per-tile interleaved columns:
/// tile `t` holds filters `f_lo + t·TILE ..`, laid out
/// `wt[idx · TILE + lane] = W[filter lane][idx]` with `idx` walking the
/// patch order `(u, ci, v)`; lanes past the band edge stay zero.
fn interleave_weights(weights: &Tensor4, f_lo: usize, n: usize, c: usize, k: usize) -> Vec<f32> {
    let plen = c * k * k;
    let tiles = n.div_ceil(TILE);
    let mut wt = vec![0.0f32; tiles * plen * TILE];
    for (t, dst) in wt.chunks_mut(plen * TILE).enumerate() {
        for l in 0..TILE.min(n - t * TILE) {
            let fi = f_lo + t * TILE + l;
            for u in 0..k {
                for ci in 0..c {
                    let krow = weights.kernel_row(fi, ci, u);
                    let base = (u * c + ci) * k * TILE;
                    for (v, &wv) in krow.iter().enumerate() {
                        dst[base + v * TILE + l] = wv;
                    }
                }
            }
        }
    }
    wt
}

impl Im2RowEngine {
    /// The lowered forward of filters `f_lo..` into `out_band` (stride 1
    /// only): micro-kernel on the dense output rows, sparse row loops on
    /// the rest.
    #[allow(clippy::too_many_arguments)]
    fn src_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        f_lo: usize,
        out_band: &mut [f32],
    ) {
        let oh = geom.output_extent(input.height());
        let ow = geom.output_extent(input.width());
        // Borrow the lowering the call prepared once above the band
        // fan-out; rebuild locally only when invoked without one.
        let local;
        let (patches, plen, dense_rows): (&[f32], usize, &[bool]) = if ctx.patch_len() != 0 {
            (ctx.patches(), ctx.patch_len(), ctx.dense_rows())
        } else {
            match self.build_forward_plan(input, geom) {
                Some(plan) => {
                    local = plan;
                    (&local.patches, local.plen, &local.dense_rows)
                }
                None => {
                    let op = StageOp::Forward {
                        input,
                        weights,
                        bias,
                        geom,
                    };
                    return scalar_band(&op, f_lo, out_band);
                }
            }
        };
        let plane = oh * ow;
        let n = out_band.len() / plane;
        let (c, k) = (input.channels(), geom.kernel);
        let h = input.height() as isize;
        let avx2 = self.use_avx2();
        // Bias fill for every plane of the band (the scalar prologue).
        if let Some(b) = bias {
            for (bf, p) in out_band.chunks_mut(plane).enumerate() {
                p.fill(b[f_lo + bf]);
            }
        }
        // Output rows below the cutoff: the scalar row loops, per plane —
        // work-proportional on sparse data, bitwise the reference.
        for (bf, p) in out_band.chunks_mut(plane).enumerate() {
            let fi = f_lo + bf;
            for (oy, out_row) in p.chunks_mut(ow).enumerate() {
                if dense_rows[oy] {
                    continue;
                }
                for u in 0..k {
                    let iy = oy as isize - geom.pad as isize + u as isize;
                    if iy < 0 || iy >= h {
                        continue;
                    }
                    for ci in 0..c {
                        let krow = weights.kernel_row(fi, ci, u);
                        src_accumulate(input.row(ci, iy as usize), krow, geom, out_row);
                    }
                }
            }
        }
        // Dense rows: register-tiled reduction, TILE filters per pass.
        // Loop order tile ⇒ row ⇒ position keeps the weight tile hot in
        // L1 while each row's patch block is re-swept by every tile.
        let wt = interleave_weights(weights, f_lo, n, c, k);
        for (t, wtile) in wt.chunks(plen * TILE).enumerate() {
            let t0 = t * TILE;
            let tile_n = TILE.min(n - t0);
            for oy in 0..oh {
                if !dense_rows[oy] {
                    continue;
                }
                for ox in 0..ow {
                    let pos = oy * ow + ox;
                    let prow = &patches[pos * plen..(pos + 1) * plen];
                    let mut acc = [0.0f32; TILE];
                    for (l, a) in acc.iter_mut().enumerate().take(tile_n) {
                        *a = out_band[(t0 + l) * plane + pos];
                    }
                    tile_kernel(avx2, &mut acc, prow, wtile);
                    for (l, a) in acc.iter().enumerate().take(tile_n) {
                        out_band[(t0 + l) * plane + pos] = *a;
                    }
                }
            }
        }
    }

    /// The patch matrix of one op; nothing is shared across a batch.
    fn prepare_one(&self, op: &StageOp<'_>) -> BandContext {
        let mut ctx = BandContext::empty();
        // Only Forward is lowered; and when every band will fall back
        // anyway (stride ≠ 1, literal -0.0 bias), the lowering would be
        // wasted work.
        if let StageOp::Forward {
            input, bias, geom, ..
        } = *op
        {
            if geom.stride == 1 && !bias.is_some_and(contains_negative_zero) {
                if let Some(plan) = self.build_forward_plan(input, geom) {
                    ctx.set_patches(plan.patches, plan.plen, plan.dense_rows);
                }
            }
        }
        ctx
    }
}

impl KernelEngine for Im2RowEngine {
    fn prepare(&self, ops: &[StageOp<'_>]) -> Vec<BandContext> {
        ops.iter().map(|op| self.prepare_one(op)).collect()
    }

    fn band(&self, ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
        assert_eq!(ctxs.len(), ops.len(), "one context per op");
        for (ctx, op) in ctxs.iter().zip(ops) {
            match *op {
                // Stride ≠ 1 and literal -0.0 seeds (bias, or the pre-seeded
                // accumulator when there is none) are only preserved by the
                // scalar skips.
                StageOp::Forward {
                    input,
                    weights,
                    bias,
                    geom,
                } if geom.stride == 1 && !contains_negative_zero(bias.unwrap_or(&*out)) => {
                    self.src_band(ctx, input, weights, bias, geom, lo, out);
                }
                _ => scalar_band(op, lo, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::{fixtures, stage_ops, InBands, REFERENCE};
    use sparsetrain_tensor::Tensor3;

    fn engines() -> Vec<(&'static str, Im2RowEngine)> {
        vec![
            ("auto", Im2RowEngine::auto()),
            ("portable", Im2RowEngine::portable()),
        ]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn forward<'a>(
        input: &'a SparseFeatureMap,
        weights: &'a Tensor4,
        bias: Option<&'a [f32]>,
        geom: ConvGeometry,
    ) -> StageOp<'a> {
        StageOp::Forward {
            input,
            weights,
            bias,
            geom,
        }
    }

    /// Dense, mixed and very sparse fixtures across geometries (micro-
    /// kernel, mixed dense/sparse rows, whole-call sparse fallback, stride
    /// fallback): every path must match the scalar reference bitwise. A
    /// filter count of 10 exercises the partial final tile (10 = 8 + 2).
    #[test]
    fn im2row_matches_scalar_bitwise_on_all_paths() {
        for geom in [
            ConvGeometry::new(3, 1, 1),
            ConvGeometry::new(3, 2, 1),
            ConvGeometry::new(2, 1, 0),
            ConvGeometry::new(1, 1, 0),
        ] {
            for density in [3u64, 20, 55, 100] {
                let (input, weights, bias, _) = fixtures(7 + density, density, 10, geom);
                // With bias, and without (accumulate into zeros).
                for bias in [Some(&bias[..]), None] {
                    let op = forward(&input, &weights, bias, geom);
                    let want = op.run_on(&REFERENCE);
                    for (label, engine) in engines() {
                        let ctx = format!("{label} k={} s={} d={density}", geom.kernel, geom.stride);
                        assert_eq!(op.run_on(&engine), want, "forward bias={} {ctx}", bias.is_some());
                    }
                }
            }
        }
    }

    /// Rows exactly at the density cutoff take the micro-kernel; one
    /// non-zero fewer routes the fed output rows to the sparse fallback.
    /// Both sides of the boundary must match the scalar reference bitwise.
    #[test]
    fn cutoff_boundary_rows_match_scalar() {
        let geom = ConvGeometry::new(3, 1, 1);
        const W: usize = 2 * CUTOFF; // boundary: exactly 2 non-zeros per row
        let w = W;
        let at_boundary = |y: usize, x: usize| (x + y).is_multiple_of(CUTOFF);
        let below = |y: usize, x: usize| (x + y).is_multiple_of(W);
        for (label, keep) in [("at", at_boundary as fn(usize, usize) -> bool), ("below", below)] {
            let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 6, w, |c, y, x| {
                if keep(y, x) {
                    // Strictly positive so compression never drops a kept
                    // position and the nnz classification stays exact.
                    0.5 + (c + y) as f32 * 0.125 + x as f32 * 0.0625
                } else {
                    0.0
                }
            }));
            let weights = Tensor4::from_fn(9, 2, 3, 3, |f, c, u, v| {
                ((f * 5 + c * 3 + u * 2 + v) % 7) as f32 * 0.25 - 0.75
            });
            let op = forward(&input, &weights, None, geom);
            let want = op.run_on(&REFERENCE);
            for (path, engine) in engines() {
                assert_eq!(op.run_on(&engine), want, "{label} boundary, {path}");
            }
            // Sanity-pin the classification itself, not just the result.
            let row = input.row(0, 0);
            let expect_worthy = label == "at";
            assert_eq!(Im2RowEngine::row_worthy(row), expect_worthy, "{label}");
        }
    }

    /// A literal -0.0 bias takes the scalar fallback and survives exactly.
    #[test]
    fn negative_zero_bias_is_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseFeatureMap::from_tensor(&Tensor3::zeros(2, 5, 5));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 0.5);
        let op = forward(&input, &weights, Some(&[-0.0f32, 1.0]), geom);
        let want = op.run_on(&REFERENCE);
        for (label, engine) in engines() {
            assert_eq!(bits(&op.run_on(&engine)), bits(&want), "{label}");
        }
    }

    /// Accumulators pre-seeded with literal -0.0 take the scalar fallback,
    /// so accumulation parity is bitwise even there.
    #[test]
    fn negative_zero_preseeded_accumulators_are_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _, _) = fixtures(17, 70, 10, geom);
        let op = forward(&input, &weights, None, geom);
        let seeded: Vec<f32> = (0..op.out_len())
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.25 })
            .collect();
        let mut want = seeded.clone();
        REFERENCE.run(&op, &mut want);
        for (label, engine) in engines() {
            let mut got = seeded.clone();
            engine.run(&op, &mut got);
            assert_eq!(bits(&got), bits(&want), "{label}");
        }
    }

    /// im2row bands under thread-parallel banding stay bitwise equal to
    /// scalar at every band count.
    #[test]
    fn banded_im2row_matches_scalar() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, _) = fixtures(5, 60, 10, geom);
        let op = forward(&input, &weights, Some(&bias), geom);
        let want = op.run_on(&REFERENCE);
        for threads in [0usize, 1, 2, 3, 8] {
            let banded = InBands(&Im2RowEngine::auto(), threads);
            assert_eq!(op.run_on(&banded), want, "threads {threads}");
        }
    }

    /// The portable and AVX2 micro-kernels agree bitwise (trivially true
    /// off x86_64, where both are the portable path), and the dispatch
    /// contract mirrors the simd engine's.
    #[test]
    fn portable_and_dispatched_paths_agree() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, _) = fixtures(41, 80, 10, geom);
        let auto = Im2RowEngine::auto();
        let portable = Im2RowEngine::portable();
        let op = forward(&input, &weights, Some(&bias), geom);
        assert_eq!(op.run_on(&auto), op.run_on(&portable));
        assert_eq!(portable.active_path(), "portable");
        if avx2_available() {
            assert_eq!(auto.active_path(), "avx2");
        } else {
            assert_eq!(auto.active_path(), "portable");
        }
    }

    /// The backward stages inherit the scalar band defaults — pinned so a
    /// future override cannot silently change the engine's contract.
    #[test]
    fn backward_stages_are_the_scalar_reference() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _, dout) = fixtures(3, 35, 10, geom);
        let masks = input.masks();
        for op in &stage_ops(&input, &weights, None, &dout, &masks, geom)[1..] {
            assert_eq!(
                op.run_on(&Im2RowEngine::auto()),
                op.run_on(&REFERENCE),
                "{}",
                op.stage()
            );
        }
    }
}
