//! Runtime-dispatched vectorized kernel engine (`"simd"`).
//!
//! [`SimdEngine`] walks the **stored non-zeros** of the sparse operand in
//! exactly [`crate::engine::ScalarEngine`]'s order — one `(offset, value)`
//! at a time, skipping everything the compressed rows skip — and spends
//! its vector lanes on the **filter / channel axis**, the one axis of a
//! convolution that is always dense and always wide (16–512). Work stays
//! proportional to the non-zeros at any row width, any density and any
//! stride; the results stay **bitwise identical** to the scalar engine
//! (the last paragraphs below say how, and where the scalar code itself
//! runs instead).
//!
//! The kernel weights are re-laid once per engine call so the lane axis is
//! contiguous ([`KernelEngine::prepare`]; the contexts of a batch share
//! the one copy), and each stage accumulates into a small tile laid out
//! the same way. Like the paper's PE, which multiplies one non-zero by all
//! `K` weights of a kernel row in one cycle, every kernel does **one
//! contiguous `K`-tap multiply-add per (non-zero, kernel row)**: the taps a
//! non-zero reaches through one kernel row are one run of the weight
//! panel, against one run of the tile. The tiles are **padded** with spare
//! columns so that every non-zero's whole run lands inside them, at an
//! offset fixed by its column alone: no run is clipped at a row edge. The
//! taps that fall off the row land in the spare columns, which are never
//! read back.
//!
//! * **SRC (Forward)** — the panel is `[u][ci][K-1-v][F]`, taps
//!   *reversed*; per output row an `[Ow + 2(K−1)][F-band]` tile holding
//!   output column `ox` at `ox + K − 1`, seeded from the bias or the
//!   pre-seeded `out`; then
//!   `for u, ci, (ix, x) in input.row(ci, iy):`
//!   `tile[t .. t+K] += x · wT[u][ci][0..K]` with `t = ix + pad` — at
//!   stride 1 tap `v` feeds output column `t − v`, tile column
//!   `t + K−1−v`, the same offset as its reversed panel row — and the
//!   real columns are transposed back into the `[F][Oh][Ow]` planes.
//! * **MSRC (GTA)** — the panel is `[fi][u][v][C]`; an `[H][Wp][C-band]`
//!   tile holding input column `ix` at `ix + pad` (`padded_width`: `pad`
//!   spare columns on the left, enough on the right to reach
//!   `(Ow − 1)·s + K`), seeded from `din`; then
//!   `for fi, oy, u, (ox, g) in dout.row(fi, oy):`
//!   `tile[iy][ox·s .. ox·s+K] += g · wT[fi][u][0..K]`, written back
//!   **only where the forward mask allows** — a masked-out position keeps
//!   its seed bits, as the scalar skip leaves it.
//! * **OSRC (GTW)** — the `dW` band transposed to `[f][u][v][C]` once per
//!   band call (however many samples add into it); then
//!   `for sample, fi, oy, u, (ox, g) in dout.row(fi, oy):`
//!   `sT[f][u][0..K] += g · inCL[iy][ox·s .. ox·s+K]` into a per-sample
//!   scratch `sT` of the same layout, from `+0.0`, against a
//!   channels-last `[H][Wp][C]` copy of the input, zero-padded like the
//!   GTA tile and built once per sample in `prepare`; each sample's `sT`
//!   is added into `dwT` (and cleared in the same sweep), and `dwT` is
//!   transposed back.
//!
//! A run spans whole lane rows only when the band holds every filter
//! (Forward) or channel (GTA) — a band of a split layer reads a window of
//! each panel row — and Forward's columns are consecutive only at
//! stride 1. Outside those two conditions (a stride ≠ 1 Forward, a band
//! with `n < F` or `n < C`) the same non-zero walk issues one lane-width
//! multiply-add per tap instead, into the same padded tiles; GTW always
//! runs over whole rows, since its lanes are the band's own transposed
//! `dW`. Neither walk computes a tap range per non-zero. The whole-row
//! runs of a band all have one length, `K·n` lanes, so the two row walks
//! (`scatter_row` for Forward and GTA, `gather_row` for GTW) are
//! instantiated per whole lane-block count (`span`: an unrolled,
//! straight-line update plus a tail) and picked by a jump on that
//! band-constant length before the row's non-zeros are visited. Only the
//! counts the benchmark nets reach are instantiated (1, 2, 3, 6, 12, 18
//! blocks), each timed faster than the looped `axpy` in situ; every
//! other length, and the per-tap walks, keep the loop.
//!
//! Every output element still receives its contributions in the scalar
//! per-element order — Forward `(u, ci, ix↑)`, GTA `(fi, oy↑, ox↑)`, GTW
//! `(oy↑, ox↑)` within a sample, then the samples' sums in order: the
//! loop nests above are the scalar ones with the per-filter (per-channel)
//! loop moved innermost and one non-zero's taps merged into a run that
//! gives each element it covers one term, and no two lanes ever share an
//! element — one two-rounding `acc + x·w` at a time (the scalar kernels
//! never fuse into `mul_add`, so neither does this engine — an FMA would
//! change the rounding). The only extra terms
//! are products of a sparse-operand value and a zero the scalar kernels
//! skip: a zero weight, a zero of GTW's dense input copy, a padded column.
//! For a finite value that is `±0.0`, and `acc + ±0.0 = acc` exactly,
//! because an accumulator that starts as anything but `-0.0` can never
//! become `-0.0` under round-to-nearest (an exactly cancelling sum rounds
//! to `+0.0`). Two hazards remain, and both take the scalar band code
//! itself:
//!
//! * a caller-supplied literal `-0.0` in the bias or the pre-seeded
//!   accumulator (a cheap one-pass bit scan guards every band);
//! * a non-finite value in the sparse operand — the input for Forward,
//!   `dout` for GTA and GTW — whose `±∞ · 0` or `NaN · 0` is a NaN the
//!   scalar skips never form ([`SparseFeatureMap::is_finite`], recorded
//!   when the map is built).
//!
//! There is no other fallback to the scalar code: no density cutoff, no
//! stride condition.
//!
//! A band invoked with contexts lacking the prepared state (direct band
//! calls, a foreign engine's contexts, weights re-laid for another stage)
//! prepares locally, so results never depend on who prepared.
//!
//! Two instantiations of the same loops sit behind one runtime dispatch,
//! taken **once per band**: the portable one (fixed `[f32; 8]` blocks that
//! LLVM autovectorizes on every target), and on x86_64 the same source
//! compiled under `#[target_feature(enable = "avx2,fma")]`, selected per
//! process via `is_x86_feature_detected!` (`vmulps`/`vaddps` on 256-bit
//! registers; Rust never contracts a separate multiply and add, so the
//! enabled FMA feature is not used to fuse). Both produce identical bits;
//! [`SimdEngine::portable`] pins the portable one for tests and
//! cross-checks. Thread-level parallelism composes for free: the trait's
//! [`KernelEngine::run_batch`] deals these band workers to the rayon pool
//! (`"parallel:simd"` is a registry alias of `"simd"`).

use crate::compressed::SparseRow;
use crate::engine::{add_and_clear, map_banded, scalar_bands, BandContext, KernelEngine, Stage, StageOp};
use crate::mask::RowMask;
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;
use std::sync::Arc;

/// Vector lane-block width (f32 lanes per block, one AVX2 register).
const LANES: usize = 8;

fn contains_negative_zero(values: &[f32]) -> bool {
    values.iter().any(|v| v.to_bits() == (-0.0f32).to_bits())
}

/// Whether this process supports the AVX2+FMA fast path.
fn avx2_available() -> bool {
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

/// `dst[i] += src[i] * w` — multiply then add, two roundings, exactly the
/// scalar kernels' arithmetic. Each `[f32; LANES]` block is copied out,
/// updated and stored back by value: that shape compiles to one vector
/// load-multiply-add-store per block at whatever width the enclosing band
/// function was compiled for, where updating the block through the slice
/// makes LLVM re-vectorize across blocks (8× unrolled, masked tail). At
/// the runs' lengths (one to `K` lane rows of 16–48 filters) that costs
/// the Forward kernel 1.6× in situ (conv1 / conv2 of `alexnet_pruned`
/// 2.2×, GTA 1.2×, GTW even) — though an isolated loop over one slice
/// times the two shapes alike, so re-measure any change here in the band.
#[inline(always)]
fn axpy(dst: &mut [f32], src: &[f32], w: f32) {
    debug_assert_eq!(dst.len(), src.len());
    let (blocks, tail) = dst.as_chunks_mut::<LANES>();
    let (src_blocks, src_tail) = src.as_chunks::<LANES>();
    for (db, sb) in blocks.iter_mut().zip(src_blocks) {
        let mut acc = *db;
        for i in 0..LANES {
            acc[i] += sb[i] * w;
        }
        *db = acc;
    }
    for (d1, s1) in tail.iter_mut().zip(src_tail) {
        *d1 += *s1 * w;
    }
}

/// [`axpy`] over a run of `B` whole lane blocks plus a tail of fewer than
/// `LANES` lanes: the blocks are a count fixed at compile time, so they
/// unroll into straight-line code with no loop bound to compute per run.
/// `B = 0` stands for every length `with_blocks!` does not instantiate:
/// the looped [`axpy`].
#[inline(always)]
fn span<const B: usize>(dst: &mut [f32], src: &[f32], w: f32) {
    if B == 0 {
        return axpy(dst, src, w);
    }
    debug_assert_eq!(dst.len(), src.len());
    let (blocks, tail) = dst.split_at_mut(B * LANES);
    let (src_blocks, src_tail) = src.split_at(B * LANES);
    axpy(blocks, src_blocks, w);
    // The bound tells LLVM what the split guarantees, so it does not
    // vectorize a loop that never reaches a block.
    for (d, s) in tail.iter_mut().zip(src_tail).take(LANES - 1) {
        *d += *s * w;
    }
}

/// Calls `$walk::<B>$args` with `B` the whole lane blocks of a `$lanes`-lane
/// run, for the counts the benchmark nets reach — `K = 3` over 8, 16, 32 or
/// 48 lanes, `K = 1` over 8 or 16 — each of which measured faster straight
/// than looped; any other length takes `B = 0`, the loop.
macro_rules! with_blocks {
    ($lanes:expr, $walk:ident $args:tt) => {
        match $lanes / LANES {
            1 => $walk::<1> $args,
            2 => $walk::<2> $args,
            3 => $walk::<3> $args,
            6 => $walk::<6> $args,
            12 => $walk::<12> $args,
            18 => $walk::<18> $args,
            _ => $walk::<0> $args,
        }
    };
}

// ---------------------------------------------------------------------------
// Prepared operand state
// ---------------------------------------------------------------------------

/// The kernel weights re-laid with the stage's lane axis innermost:
/// `[u][ci][K-1-v][F]` for Forward (lanes across filters, taps reversed),
/// `[fi][u][v][C]` for GTA (lanes across channels).
fn relay_weights(weights: &Tensor4, stage: Stage) -> Arc<[f32]> {
    let (f, c, k, kw) = weights.shape();
    let mut wt = vec![0.0f32; weights.len()];
    for fi in 0..f {
        for ci in 0..c {
            for u in 0..k {
                for (v, &w) in weights.kernel_row(fi, ci, u).iter().enumerate() {
                    let at = match stage {
                        Stage::Forward => ((u * c + ci) * kw + kw - 1 - v) * f + fi,
                        _ => ((fi * k + u) * kw + v) * c + ci,
                    };
                    wt[at] = w;
                }
            }
        }
    }
    wt.into()
}

/// Columns of a GTA tile row and of a GTW channels-last input row: the `w`
/// input columns, `pad` in, and on the right enough spare columns for the
/// whole window of each of the `ow` output columns — tap `v` of output
/// column `ox` reaches input column `ox·s + v − pad`, column `ox·s + v` here.
fn padded_width(w: usize, ow: usize, geom: ConvGeometry) -> usize {
    (w + geom.pad).max(ow.saturating_sub(1) * geom.stride + geom.kernel)
}

/// A dense channels-last (`[H][Wp][C]`) copy of `fm` with input column
/// `ix` at `ix + pad` ([`padded_width`] for `ow` output columns), zeros
/// elsewhere: the `C` values one GTW tap reads are contiguous, and so are
/// all `K` taps of one output column.
fn channels_last(fm: &SparseFeatureMap, ow: usize, geom: ConvGeometry) -> Vec<f32> {
    let (c, h, w) = (fm.channels(), fm.height(), fm.width());
    let wp = padded_width(w, ow, geom);
    let mut dense = vec![0.0f32; h * wp * c];
    for ci in 0..c {
        for y in 0..h {
            for (ix, x) in fm.row(ci, y).iter() {
                dense[(y * wp + ix + geom.pad) * c + ci] = x;
            }
        }
    }
    dense
}

/// Whether `ctx` carries the state `op`'s kernel reads, in the stage's
/// layout and at the size the kernel will index it.
fn prepared(ctx: &BandContext, op: &StageOp<'_>) -> bool {
    match *op {
        StageOp::Forward { weights, .. } | StageOp::InputGrad { weights, .. } => ctx
            .weights_for(op.stage())
            .is_some_and(|wt| wt.len() == weights.len()),
        StageOp::WeightGrad { input, dout, geom } => {
            let wp = padded_width(input.width(), dout.width(), geom);
            ctx.dense().len() == input.height() * wp * input.channels()
        }
    }
}

// ---------------------------------------------------------------------------
// The three band kernels
// ---------------------------------------------------------------------------

/// The input row that output row `oy` reads through kernel row `u`, when
/// it lies on the `h`-row map.
#[inline(always)]
fn input_row(oy: usize, u: usize, geom: ConvGeometry, h: usize) -> Option<usize> {
    (oy * geom.stride + u).checked_sub(geom.pad).filter(|&iy| iy < h)
}

/// The whole runs of Forward and GTA over one sparse row: non-zero `o`
/// adds its value times the panel `taps` into `tile` from lane `o · step`.
#[inline(always)]
fn scatter_row<const B: usize>(row: SparseRow<'_>, taps: &[f32], tile: &mut [f32], step: usize) {
    for (o, x) in row.iter() {
        span::<B>(&mut tile[o * step..][..taps.len()], taps, x);
    }
}

/// GTW's runs over one `dout` row: non-zero `o` adds its value times the
/// input window of `irow` from lane `o · step` into `taps`.
#[inline(always)]
fn gather_row<const B: usize>(row: SparseRow<'_>, irow: &[f32], taps: &mut [f32], step: usize) {
    for (o, g) in row.iter() {
        span::<B>(taps, &irow[o * step..][..taps.len()], g);
    }
}

/// SRC of filters `f_lo..` of `f` into `out` (whole `Oh × Ow` planes);
/// `wt` is the `[u][ci][K-1-v][F]` re-layout.
#[inline(always)]
fn forward_band(
    wt: &[f32],
    f: usize,
    input: &SparseFeatureMap,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    f_lo: usize,
    out: &mut [f32],
) {
    let (c, h, k, s) = (input.channels(), input.height(), geom.kernel, geom.stride);
    let (oh, ow) = (geom.output_extent(h), geom.output_extent(input.width()));
    let n = out.len() / (oh * ow);
    // One run per non-zero needs consecutive columns (stride 1) and whole
    // panel rows (every filter in the band).
    let whole = s == 1 && n == f;
    // Output column `ox` at tile column `ox + K − 1`: with `t = ix + pad`,
    // every tap lands on `(t − v) / s + K − 1 ∈ [0, Ow + 2(K−1))`.
    let mut tile = vec![0.0f32; (ow + 2 * (k - 1)) * n];
    for oy in 0..oh {
        for (fi, plane) in out.chunks(oh * ow).enumerate() {
            for ox in 0..ow {
                tile[(ox + k - 1) * n + fi] = bias.map_or(plane[oy * ow + ox], |b| b[f_lo + fi]);
            }
        }
        for u in 0..k {
            let Some(iy) = input_row(oy, u, geom, h) else {
                continue;
            };
            for ci in 0..c {
                let taps = &wt[(u * c + ci) * k * f..][..k * f];
                let row = input.row(ci, iy);
                if whole {
                    // Non-zero `ix` covers tile columns `t .. t+K` with
                    // `t = ix + pad`: tap `v` feeds output column `t − v`,
                    // tile column `t + K−1−v`, from panel row `K−1−v`.
                    with_blocks!(k * n, scatter_row(row, taps, &mut tile[geom.pad * n..], n));
                    continue;
                }
                for (ix, x) in row.iter() {
                    // Tap `v` carries column `ix` to output column
                    // `(t − v) / s` when that divides: the taps on the
                    // stride grid, tile columns descending.
                    let t = ix + geom.pad;
                    let mut col = t / s + k;
                    for v in (t % s..k).step_by(s) {
                        col -= 1;
                        axpy(&mut tile[col * n..][..n], &taps[(k - 1 - v) * f + f_lo..][..n], x);
                    }
                }
            }
        }
        for (fi, plane) in out.chunks_mut(oh * ow).enumerate() {
            for ox in 0..ow {
                plane[oy * ow + ox] = tile[(ox + k - 1) * n + fi];
            }
        }
    }
}

/// MSRC of channels `c_lo..` of `c` into `din` (whole `H × W` planes);
/// `wt` is the `[fi][u][v][C]` re-layout, and the tile row holds input
/// column `ix` at `ix + pad` ([`padded_width`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn input_grad_band(
    wt: &[f32],
    c: usize,
    dout: &SparseFeatureMap,
    geom: ConvGeometry,
    masks: &[RowMask],
    in_h: usize,
    in_w: usize,
    c_lo: usize,
    din: &mut [f32],
) {
    let (f, k, s, plane) = (dout.channels(), geom.kernel, geom.stride, in_h * in_w);
    let n = din.len() / plane;
    // One run per non-zero needs whole panel rows (every channel in the
    // band); the window and the taps advance together at any stride.
    let whole = n == c;
    let wp = padded_width(in_w, dout.width(), geom);
    let at = |iy: usize, ix: usize| (iy * wp + ix + geom.pad) * n;
    let mut tile = vec![0.0f32; in_h * wp * n];
    for (ci, seed) in din.chunks(plane).enumerate() {
        for (iy, seed_row) in seed.chunks(in_w).enumerate() {
            for (ix, &v) in seed_row.iter().enumerate() {
                tile[at(iy, ix) + ci] = v;
            }
        }
    }
    for fi in 0..f {
        for oy in 0..dout.height() {
            let grow = dout.row(fi, oy);
            if grow.nnz() == 0 {
                continue;
            }
            for u in 0..k {
                let Some(iy) = input_row(oy, u, geom, in_h) else {
                    continue;
                };
                let taps = &wt[(fi * k + u) * k * c..][..k * c];
                let row = &mut tile[iy * wp * n..][..wp * n];
                if whole {
                    // Non-zero `ox` covers tile columns `ox·s .. ox·s + K`.
                    with_blocks!(k * n, scatter_row(grow, taps, row, s * n));
                    continue;
                }
                for (ox, g) in grow.iter() {
                    for v in 0..k {
                        axpy(&mut row[(ox * s + v) * n..][..n], &taps[v * c + c_lo..][..n], g);
                    }
                }
            }
        }
    }
    // Only the positions the forward mask allows take the tile's value;
    // the rest keep their seed, as the scalar skip leaves them.
    for (ci, dst) in din.chunks_mut(plane).enumerate() {
        for iy in 0..in_h {
            let mask = &masks[(c_lo + ci) * in_h + iy];
            assert_eq!(mask.len(), in_w, "mask length must match the input row");
            for ix in mask.iter() {
                dst[iy * in_w + ix] = tile[at(iy, ix) + ci];
            }
        }
    }
}

/// Calls `visit(at, relaid)` for every cell of an `n`-filter `dW` band:
/// its index in the band's own `[f][ci][u][v]` order and in the
/// `[f][u][v][C]` re-layout.
#[inline(always)]
fn for_each_dw_cell(n: usize, c: usize, k: usize, mut visit: impl FnMut(usize, usize)) {
    let mut at = 0;
    for f in 0..n {
        for ci in 0..c {
            for u in 0..k {
                for v in 0..k {
                    visit(at, ((f * k + u) * k + v) * c + ci);
                    at += 1;
                }
            }
        }
    }
}

/// OSRC of filters `f_lo..` of every op, in order, into `dw` (whole
/// `C × K × K` blocks); each context's `dense` is its op's padded
/// channels-last input copy ([`channels_last`]).
#[inline(always)]
fn weight_grad_band(
    ctxs: &[BandContext],
    ops: &[StageOp<'_>],
    c: usize,
    k: usize,
    f_lo: usize,
    dw: &mut [f32],
) {
    let n = dw.len() / (c * k * k);
    // The band re-laid `[f][u][v][C]`: the taps one gradient non-zero
    // feeds through one kernel row are then one contiguous run, matching
    // the channels-last input window it reads.
    let mut dwt = vec![0.0f32; dw.len()];
    for_each_dw_cell(n, c, k, |at, relaid| dwt[relaid] = dw[at]);
    // Each sample sums its own `dW` from `+0.0`, in the same layout, and
    // is then added into the accumulator (the scalar engine's bracket).
    let mut sample = vec![0.0f32; dw.len()];
    for (ctx, op) in ctxs.iter().zip(ops) {
        let StageOp::WeightGrad { input, dout, geom } = *op else {
            unreachable!("weight_grad_band is only handed GTW ops");
        };
        let h = input.height();
        let wp = padded_width(input.width(), dout.width(), geom);
        for f in 0..n {
            for oy in 0..dout.height() {
                let grow = dout.row(f_lo + f, oy);
                if grow.nnz() == 0 {
                    continue;
                }
                for u in 0..k {
                    let Some(iy) = input_row(oy, u, geom, h) else {
                        continue;
                    };
                    let taps = &mut sample[(f * k + u) * k * c..][..k * c];
                    let irow = &ctx.dense()[iy * wp * c..][..wp * c];
                    // Non-zero `ox` reads input columns `ox·s .. ox·s + K`.
                    with_blocks!(k * c, gather_row(grow, irow, taps, geom.stride * c));
                }
            }
        }
        add_and_clear(&mut dwt, &mut sample);
    }
    for_each_dw_cell(n, c, k, |at, relaid| dw[at] = dwt[relaid]);
}

/// One stage's kernel over `ops` — a single Forward or GTA op, or the GTW
/// ops of one shared accumulator — with prepared `ctxs`.
#[inline(always)]
fn stage_band(ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
    let relaid = || ctxs[0].weights_for(ops[0].stage()).expect("prepared above");
    match ops[0] {
        StageOp::Forward {
            input,
            weights,
            bias,
            geom,
        } => forward_band(relaid(), weights.filters(), input, bias, geom, lo, out),
        StageOp::InputGrad {
            dout,
            weights,
            geom,
            masks,
            in_h,
            in_w,
        } => input_grad_band(
            relaid(),
            weights.channels(),
            dout,
            geom,
            masks,
            in_h,
            in_w,
            lo,
            out,
        ),
        StageOp::WeightGrad { input, geom, .. } => {
            weight_grad_band(ctxs, ops, input.channels(), geom.kernel, lo, out)
        }
    }
}

/// [`stage_band`] compiled for 256-bit vectors.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA ([`avx2_available`]). The body is
/// safe code — every slice access is bounds-checked, there is no pointer
/// arithmetic — so the target features are the only obligation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn stage_band_avx2(ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
    stage_band(ctxs, ops, lo, out);
}

// ---------------------------------------------------------------------------
// SimdEngine
// ---------------------------------------------------------------------------

/// The runtime-dispatched vectorized engine, registered as `"simd"` (and
/// under the alias `"parallel:simd"`).
///
/// ```
/// use sparsetrain_sparse::{registry, SimdEngine};
///
/// let handle = registry::lookup("simd").unwrap();
/// assert_eq!(handle.name(), "simd");
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

    /// Which implementation this engine's kernels run on right now:
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

    /// Runs one stage's kernel over `ops` (see [`stage_band`]) — or the
    /// scalar band code itself where only the scalar skip of zero operands
    /// holds the bits: when the seed holds a literal `-0.0` (in the bias,
    /// or in the pre-seeded accumulator no bias overwrites; an accumulator
    /// free of `-0.0` stays so, so one scan covers every op adding into
    /// it), or when an op's sparse operand holds a non-finite value, whose
    /// product with a skipped zero is NaN.
    fn kernel(&self, ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
        let seed = match ops[0] {
            StageOp::Forward { bias: Some(b), .. } => b,
            _ => &*out,
        };
        if contains_negative_zero(seed) || !ops.iter().all(|op| op.operand().is_finite()) {
            return scalar_bands(ops, lo, out);
        }
        if out.is_empty() {
            return;
        }
        // Borrow the state the call prepared once above the band fan-out;
        // prepare locally only when invoked without it.
        let local;
        let ctxs = if ctxs.iter().zip(ops).all(|(ctx, op)| prepared(ctx, op)) {
            ctxs
        } else {
            local = self.prepare(ops);
            &local
        };
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` is only true when runtime detection
            // reported AVX2+FMA support for this process, the one thing
            // `stage_band_avx2` asks of its caller.
            return unsafe { stage_band_avx2(ctxs, ops, lo, out) };
        }
        stage_band(ctxs, ops, lo, out);
    }
}

impl KernelEngine for SimdEngine {
    fn prepare(&self, ops: &[StageOp<'_>]) -> Vec<BandContext> {
        // GTW's channels-last copies are per sample: a contiguous run of
        // samples per band, priced one op per element copied.
        fn gtw_input<'a>(op: &StageOp<'a>) -> Option<(&'a SparseFeatureMap, usize, ConvGeometry)> {
            match *op {
                StageOp::WeightGrad { input, dout, geom } => Some((input, dout.width(), geom)),
                _ => None,
            }
        }
        let elements = ops
            .iter()
            .filter_map(gtw_input)
            .map(|(fm, _, _)| fm.channels() * fm.height() * fm.width())
            .sum();
        let copies = map_banded(ops.len(), elements, &|s| {
            gtw_input(&ops[s]).map(|(fm, ow, geom)| channels_last(fm, ow, geom))
        });
        // The re-layout depends on the weights and the stage alone: ops
        // that repeat the previous op's pair (every op of a training
        // batch does) share its copy.
        let mut last: Option<(Stage, &Tensor4, Arc<[f32]>)> = None;
        ops.iter()
            .zip(copies)
            .map(|(op, copy)| {
                let mut ctx = BandContext::empty();
                if let Some(dense) = copy {
                    ctx.set_dense(dense);
                }
                if let StageOp::Forward { weights, .. } | StageOp::InputGrad { weights, .. } = *op {
                    let stage = op.stage();
                    let relaid = match &last {
                        Some((s, w, wt)) if *s == stage && std::ptr::eq(*w, weights) => wt.clone(),
                        _ => relay_weights(weights, stage),
                    };
                    last = Some((stage, weights, relaid.clone()));
                    ctx.set_weights(stage, relaid);
                }
                ctx
            })
            .collect()
    }

    fn band(&self, ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
        assert_eq!(ctxs.len(), ops.len(), "one context per op");
        let Some(first) = ops.first() else { return };
        // GTW ops of one layer shape add into `out` through one transposed
        // accumulator; anything else runs op by op.
        let gtw_shape = |op: &StageOp<'_>| match *op {
            StageOp::WeightGrad { input, geom, .. } => Some((input.channels(), geom.kernel)),
            _ => None,
        };
        if gtw_shape(first).is_some() && ops.iter().all(|op| gtw_shape(op) == gtw_shape(first)) {
            return self.kernel(ctxs, ops, lo, out);
        }
        for (ctx, op) in ctxs.iter().zip(ops) {
            self.kernel(std::slice::from_ref(ctx), std::slice::from_ref(op), lo, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::{fixtures_with, pseudo, sparse_tensor, stage_ops, InBands, REFERENCE};
    use sparsetrain_tensor::Tensor3;

    /// `(channels, filters)` of the fixtures: inside one lane block, and
    /// `17 × 9` — two blocks plus a remainder along the GTA / GTW lane
    /// axis, one block plus a remainder along the Forward one.
    const SHAPES: [(usize, usize); 2] = [(3, 4), (17, 9)];

    fn engines() -> Vec<(&'static str, SimdEngine)> {
        vec![("auto", SimdEngine::auto()), ("portable", SimdEngine::portable())]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// GTW's per-sample channels-last copies, built a run of samples per
    /// band, are the sequential ones at every band count.
    #[test]
    fn banded_channels_last_copies_equal_the_sequential_ones() {
        use crate::engine::map_in_bands;
        let mut s = 5u64;
        let geom = ConvGeometry::new(3, 2, 1);
        let ow = geom.output_extent(7);
        let fms: Vec<SparseFeatureMap> = (0..16)
            .map(|_| SparseFeatureMap::from_tensor(&sparse_tensor(5, 6, 7, 30, &mut s)))
            .collect();
        for n in [0usize, 1, 16] {
            let want: Vec<Vec<f32>> = fms[..n].iter().map(|fm| channels_last(fm, ow, geom)).collect();
            for bands in [1usize, 2, 3, 4, 7] {
                let got = map_in_bands(n, bands, &|i| channels_last(&fms[i], ow, geom));
                assert_eq!(got, want, "{n} samples on {bands} bands");
            }
        }
    }

    /// Dense and very sparse fixtures at stride 1 and 2, padded and not:
    /// every stage must match the scalar reference bitwise.
    #[test]
    fn simd_matches_scalar_bitwise_on_all_paths() {
        for geom in [
            ConvGeometry::new(3, 1, 1),
            ConvGeometry::new(3, 2, 1),
            ConvGeometry::new(2, 1, 0),
        ] {
            for density in [5u64, 40, 90] {
                for (c, f) in SHAPES {
                    let (input, weights, bias, dout) = fixtures_with(11 + density, density, c, f, geom);
                    let masks = input.masks();
                    for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
                        let want = op.run_on(&REFERENCE);
                        for (label, simd) in engines() {
                            let ctx =
                                format!("{label} k={} s={} d={density} c={c}", geom.kernel, geom.stride);
                            assert_eq!(op.run_on(&simd), want, "{} {ctx}", op.stage());
                        }
                    }
                }
            }
        }
    }

    /// The whole-row runs on padded tiles at their edges, bitwise against
    /// the reference: rows narrower than the kernel (`Ow < K`, at stride 1
    /// and 2), `K = 5` with `pad = 2`, single-column maps, stride-2 GTA /
    /// GTW at `K = 3, pad = 1` and `K = 1` at stride 2 (ResNet's
    /// downsampling conv and shortcut), 8-filter / 8-channel layers (ResNet
    /// stage 0), AlexNet's widest panel (48 lanes, six blocks), every
    /// straight-line block count (16 / 32 lanes bring 2, 6 and 12), one
    /// with a tail (`K = 3` over 9 filters: three blocks and three lanes),
    /// and runs outside the straight-line set
    /// (`K = 5` over 48 lanes: 30 blocks; `K = 1` over 5 lanes)
    /// — and, on two or more bands, the same ops with the filters
    /// (channels) split across bands, where `n < F` (`n < C`) takes the
    /// per-tap walk.
    #[test]
    fn fused_runs_and_split_bands_match_scalar_bitwise() {
        let mut s = 23u64;
        for (k, stride, pad) in [(5, 1, 2), (3, 1, 1), (3, 1, 0), (5, 2, 2), (3, 2, 1), (1, 2, 0)] {
            let geom = ConvGeometry::new(k, stride, pad);
            // `(h, w)`: one column, narrower than the kernel, wider.
            for (h, w) in [(7, 1), (6, 2), (5, 9)] {
                if w + 2 * pad < k {
                    continue;
                }
                for (c, f) in [(5, 48), (48, 9), (8, 8), (16, 32)] {
                    let input = SparseFeatureMap::from_tensor(&sparse_tensor(c, h, w, 60, &mut s));
                    let weights = Tensor4::from_fn(f, c, k, k, |_, _, _, _| pseudo(&mut s));
                    let bias: Vec<f32> = (0..f).map(|_| pseudo(&mut s)).collect();
                    let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
                    let dout = SparseFeatureMap::from_tensor(&sparse_tensor(f, oh, ow, 60, &mut s));
                    let masks = input.masks();
                    for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
                        let want = bits(&op.run_on(&REFERENCE));
                        for (label, simd) in engines() {
                            for bands in [1usize, 2, 5] {
                                let got = op.run_on(&InBands(&simd, bands));
                                let ctx = format!("{label} k={k} s={stride} p={pad} {h}x{w} c={c} f={f}");
                                assert_eq!(bits(&got), want, "{} {ctx} bands={bands}", op.stage());
                            }
                        }
                    }
                }
            }
        }
    }

    /// A context whose weights were re-laid for another stage is not
    /// trusted: GTA's `[fi][u][v][C]` panel has the length of Forward's, so
    /// only the recorded stage tells the two apart, and the band prepares
    /// locally instead.
    #[test]
    fn context_prepared_for_another_stage_is_not_trusted() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, dout) = fixtures_with(9, 60, 17, 9, geom);
        let masks = input.masks();
        let [forward, input_grad, _] = stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom);
        for (op, other) in [(forward, input_grad), (input_grad, forward)] {
            let want = bits(&op.run_on(&REFERENCE));
            for (label, simd) in engines() {
                let ctxs = simd.prepare(&[other]);
                let mut got = vec![0.0; op.out_len()];
                simd.band(&ctxs, &[op], 0, &mut got);
                assert_eq!(
                    bits(&got),
                    want,
                    "{} on {} contexts, {label}",
                    op.stage(),
                    other.stage()
                );
            }
        }
    }

    /// The portable and AVX2 implementations agree bitwise (trivially true
    /// off x86_64, where both are the portable path).
    #[test]
    fn portable_and_dispatched_paths_agree() {
        let geom = ConvGeometry::new(3, 1, 1);
        for (c, f) in SHAPES {
            let (input, weights, bias, dout) = fixtures_with(77, 55, c, f, geom);
            let masks = input.masks();
            for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
                assert_eq!(
                    op.run_on(&SimdEngine::auto()),
                    op.run_on(&SimdEngine::portable()),
                    "{} c={c}",
                    op.stage()
                );
            }
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
        for (c, f) in SHAPES {
            // All-zero input: the output is exactly the bias fill.
            let input = SparseFeatureMap::from_tensor(&Tensor3::zeros(c, 5, 5));
            let weights = Tensor4::from_fn(f, c, 3, 3, |_, _, _, _| 0.5);
            let bias: Vec<f32> = (0..f).map(|fi| if fi % 2 == 0 { -0.0 } else { 1.0 }).collect();
            let op = StageOp::Forward {
                input: &input,
                weights: &weights,
                bias: Some(&bias),
                geom,
            };
            let want = op.run_on(&REFERENCE);
            for (label, simd) in engines() {
                assert_eq!(bits(&op.run_on(&simd)), bits(&want), "{label} c={c}");
            }
        }
    }

    /// Accumulators pre-seeded with literal -0.0 take the scalar fallback
    /// on every stage, so accumulation parity is bitwise even for that
    /// representable corner (the `+0.0` a zero weight or zero input adds
    /// in some lane would otherwise flip the sign bit).
    #[test]
    fn negative_zero_preseeded_accumulators_are_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        for (c, f) in SHAPES {
            let (input, weights, _, dout) = fixtures_with(31, 60, c, f, geom);
            let masks = input.masks();
            for op in stage_ops(&input, &weights, None, &dout, &masks, geom) {
                let seeded: Vec<f32> = (0..op.out_len())
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.25 })
                    .collect();
                let mut want = seeded.clone();
                REFERENCE.run(&op, &mut want);
                for (label, simd) in engines() {
                    let mut got = seeded.clone();
                    simd.run(&op, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{} {label} c={c}", op.stage());
                }
            }
        }
    }

    /// simd bands under thread-parallel banding stay bitwise equal to
    /// scalar at every band count.
    #[test]
    fn banded_simd_matches_scalar() {
        let geom = ConvGeometry::new(3, 1, 1);
        for (c, f) in SHAPES {
            let (input, weights, bias, dout) = fixtures_with(5, 45, c, f, geom);
            let masks = input.masks();
            for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, geom) {
                let want = op.run_on(&REFERENCE);
                for threads in [0usize, 1, 2, 3, 8] {
                    let banded = InBands(&SimdEngine::auto(), threads);
                    assert_eq!(op.run_on(&banded), want, "{} threads {threads} c={c}", op.stage());
                }
            }
        }
    }

    /// A batch of GTW ops into one shared `dW` goes through one transposed
    /// accumulator; it must equal the scalar engine sample by sample, from
    /// a non-zero seed, with prepared and with empty contexts alike.
    #[test]
    fn shared_weight_grad_batch_matches_sample_order() {
        let geom = ConvGeometry::new(3, 2, 1);
        let samples: Vec<_> = (0..3).map(|s| fixtures_with(40 + s, 35, 17, 9, geom)).collect();
        let ops: Vec<StageOp<'_>> = samples
            .iter()
            .map(|(input, _, _, dout)| StageOp::WeightGrad { input, dout, geom })
            .collect();
        let seed: Vec<f32> = (0..ops[0].out_len())
            .map(|i| 0.5 - (i % 7) as f32 * 0.125)
            .collect();
        let mut want = seed.clone();
        for op in &ops {
            REFERENCE.run(op, &mut want);
        }
        for (label, simd) in engines() {
            let unprepared: Vec<BandContext> = ops.iter().map(|_| BandContext::empty()).collect();
            for ctxs in [simd.prepare(&ops), unprepared] {
                let mut got = seed.clone();
                simd.band(&ctxs, &ops, 0, &mut got);
                assert_eq!(got, want, "{label}");
            }
        }
    }
}
