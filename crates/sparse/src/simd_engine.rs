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
//! The kernel weights are re-laid into a **panel** whose lane axis is
//! contiguous, once per engine call ([`KernelEngine::prepare`]; the
//! contexts of a batch share the one copy) — and, for the one-op calls of
//! an [`crate::ExecutionContext`], once per weight bits: the context's
//! [`PanelCache`] hands the panel back while the weights keep their bits,
//! so a shard worker re-lays each conv once per step, not once per
//! one-sample granule. Each stage accumulates into a small tile laid out
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
//!   output column `ox` at `ox + K − 1`, seeded from the bias (one slice
//!   copy per column) or the pre-seeded `out`; then
//!   `for u, ci, (ix, x) in input.row(ci, iy):`
//!   `tile[t .. t+K] += x · wT[u][ci][0..K]` with `t = ix + pad` — at
//!   stride 1 tap `v` feeds output column `t − v`, tile column
//!   `t + K−1−v`, the same offset as its reversed panel row — and the
//!   real columns are transposed back into the `[F][Oh][Ow]` planes, an
//!   `8 × 8` block at a time.
//! * **MSRC (GTA)** — the panel is `[fi][u][v][C]`; an `[H][Wp][C-band]`
//!   tile holding input column `ix` at `ix + pad` (`padded_width`: `pad`
//!   spare columns on the left, enough on the right to reach
//!   `(Ow − 1)·s + K`), seeded from `din` (or left zeroed when `din` is
//!   all `+0.0`, as `Conv2d`'s fresh buffers are); then
//!   `for fi, oy, u, (ox, g) in dout.row(fi, oy):`
//!   `tile[iy][ox·s .. ox·s+K] += g · wT[fi][u][0..K]`, written back
//!   **only where the forward mask allows** — a masked-out position keeps
//!   its seed bits, as the scalar skip leaves it.
//! * **OSRC (GTW)** —
//!   `for sample, fi, oy, u, (ox, g) in dout.row(fi, oy):`
//!   `sT[f][u][0..K] += g · inCL[iy][ox·s .. ox·s+K]` into a per-sample
//!   scratch `sT` laid out `[f][u][v][C]`, from `+0.0`, against a
//!   channels-last `[H][Wp][C]` copy of the input, zero-padded like the
//!   GTA tile and built once per sample in `prepare`. A single op's `sT`
//!   is added straight into `dW`, one add per element; the ops of a batch
//!   add theirs into the `dW` band transposed to `[f][u][v][C]` once per
//!   band call (`dwT`, cleared `sT` in the same sweep), and `dwT` is
//!   transposed back. Either way each element of `dW` receives each
//!   sample's sum in one add, in sample order.
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
//! There is no other fallback to the scalar code, and no density cutoff:
//! one exact property of an op picks its loop. When the `dout` of a GTA or
//! GTW op holds **no zero** (`nnz == channels · height · width`, counted
//! as the map is built; BatchNorm leaves every gradient so), the walk's
//! load, add and store of a tile run per non-zero buys nothing, and an
//! output-stationary kernel runs instead, per op:
//!
//! * **GTA at stride 1** keeps `R` input columns × `B` lane blocks of one
//!   `din` row in registers (four blocks by two columns, two by four, or
//!   one by twelve: at most 12 accumulators) over every `(fi, oy↑, ox↑)`.
//!   It reads the panel, and `dout` from the map's own arena (a map with
//!   no zero stores its dense planes), copied once into zero-padded rows.
//!   The row is seeded and written back through the mask as the walk's
//!   tile is. The padding adds `0 · w` terms, which are `±0.0` only for a
//!   finite `w`, so an op whose weights hold a non-finite value walks
//!   (`prepare` checks the panel once per call and records the answer in
//!   every context, [`BandContext::weights_finite`]).
//! * **GTW at any stride** keeps one kernel row's `K · C` taps of up to four
//!   filters in registers over every `(oy↑, ox↑)`, against the
//!   channels-last input copy, and stores the sample's sum into `sT`,
//!   which reaches `dW` as above.
//!
//! Both give each element its terms in the walk's order, so the bits are
//! the walk's. A map with a single zero, every Forward op and GTA at
//! stride ≠ 1 take the walk.
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
use crate::panels::PanelCache;
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;
use std::sync::Arc;

/// Vector lane-block width (f32 lanes per block, one AVX2 register).
const LANES: usize = 8;

/// Whether any of `values` has bits `pred` accepts: a fold with no early
/// exit, so the scan vectorizes (an early-exit `any` runs one element a
/// step, which costs the dense kernels' small maps a tenth of their time).
#[inline(always)]
fn any_bits(values: &[f32], pred: impl Fn(u32) -> bool) -> bool {
    values.iter().fold(false, |any, v| any | pred(v.to_bits()))
}

fn contains_negative_zero(values: &[f32]) -> bool {
    any_bits(values, |bits| bits == (-0.0f32).to_bits())
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
    let mut panel: Arc<[f32]> = std::iter::repeat_n(0.0f32, weights.len()).collect();
    let wt = Arc::get_mut(&mut panel).expect("a new panel has one owner");
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
    panel
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
        let real = &mut tile[(k - 1) * n..][..ow * n];
        match bias {
            // A column of the tile is the band's filters: one copy each.
            Some(b) => {
                for col in real.chunks_exact_mut(n) {
                    col.copy_from_slice(&b[f_lo..f_lo + n]);
                }
            }
            None => {
                for (fi, plane) in out.chunks(oh * ow).enumerate() {
                    for (ox, &v) in plane[oy * ow..][..ow].iter().enumerate() {
                        real[ox * n + fi] = v;
                    }
                }
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
        write_back(&tile[(k - 1) * n..][..ow * n], n, oy * ow, oh * ow, out);
    }
}

/// Transposes one output row's `[Ow][n]` tile columns into row `at / Ow`
/// of the `n` `[Oh][Ow]` planes of `out` (`plane` elements each), an
/// `8 × 8` block at a time: eight contiguous tile reads, eight contiguous
/// plane writes.
#[inline(always)]
fn write_back(tile: &[f32], n: usize, at: usize, plane: usize, out: &mut [f32]) {
    let ow = tile.len() / n;
    for f0 in (0..n).step_by(LANES) {
        let nf = LANES.min(n - f0);
        for x0 in (0..ow).step_by(LANES) {
            let nx = LANES.min(ow - x0);
            if nf < LANES || nx < LANES {
                for f in f0..f0 + nf {
                    for x in x0..x0 + nx {
                        out[f * plane + at + x] = tile[x * n + f];
                    }
                }
                continue;
            }
            let mut block = [[0.0f32; LANES]; LANES];
            for (x, row) in block.iter_mut().enumerate() {
                row.copy_from_slice(&tile[(x0 + x) * n + f0..][..LANES]);
            }
            for f in 0..LANES {
                let dst = &mut out[(f0 + f) * plane + at + x0..][..LANES];
                for (x, d) in dst.iter_mut().enumerate() {
                    *d = block[x][f];
                }
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
    // Tile row `iy` from input column `0` on.
    let at = |iy: usize| (iy * wp + geom.pad) * n;
    let mut tile = vec![0.0f32; in_h * wp * n];
    // A `din` of `+0.0` (every fresh `Conv2d` buffer) is the zeroed tile.
    if any_bits(din, |bits| bits != 0) {
        for iy in 0..in_h {
            seed_row(din, (in_h, in_w), iy, &mut tile[at(iy)..], n);
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
    for iy in 0..in_h {
        write_row(&tile[at(iy)..], n, masks, c_lo, (in_h, in_w), iy, din);
    }
}

/// Seeds one `din` row's tile from row `iy` of every `in_h × in_w` plane
/// of `din`: channel `ci` of column `ix` at `tile[ix · step + ci]`.
#[inline(always)]
fn seed_row(din: &[f32], (in_h, in_w): (usize, usize), iy: usize, tile: &mut [f32], step: usize) {
    for (ci, seed) in din.chunks(in_h * in_w).enumerate() {
        for (ix, &v) in seed[iy * in_w..][..in_w].iter().enumerate() {
            tile[ix * step + ci] = v;
        }
    }
}

/// Writes one `din` row's tile (laid out as [`seed_row`]'s) back into row
/// `iy` of the planes of channels `c_lo..`. Only the positions the forward
/// mask allows take the tile's value; the rest keep their seed, as the
/// scalar skip leaves them.
#[inline(always)]
fn write_row(
    tile: &[f32],
    step: usize,
    masks: &[RowMask],
    c_lo: usize,
    (in_h, in_w): (usize, usize),
    iy: usize,
    din: &mut [f32],
) {
    for (ci, dst) in din.chunks_mut(in_h * in_w).enumerate() {
        let mask = &masks[(c_lo + ci) * in_h + iy];
        assert_eq!(mask.len(), in_w, "mask length must match the input row");
        for ix in mask.iter() {
            dst[iy * in_w + ix] = tile[ix * step + ci];
        }
    }
}

/// Whether `fm` stores every one of its elements: no zero to skip, so the
/// dense kernels below visit exactly the terms the walk does.
fn has_no_zero(fm: &SparseFeatureMap) -> bool {
    fm.nnz() == fm.channels() * fm.height() * fm.width()
}

#[cfg(test)]
thread_local! {
    /// Dense GTA / GTW kernel calls on this thread, for the tests.
    static DENSE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Counts a dense kernel call (tests only).
#[inline(always)]
fn note_dense_call() {
    #[cfg(test)]
    DENSE_CALLS.with(|calls| calls.set(calls.get() + 1));
}

/// The first `t ≤ LANES` values of `src` as a lane block, zeros after.
#[inline(always)]
fn partial_block(src: &[f32], t: usize) -> [f32; LANES] {
    let mut block = [0.0f32; LANES];
    block[..t].copy_from_slice(&src[..t]);
    block
}

/// The operands of one dense GTA band: `dout`'s planes, each row
/// zero-padded to `wq` columns so every tap of every input column reads
/// inside it, and the band's weights as lane blocks.
struct GtaRows<'a> {
    planes: &'a [f32],
    oh: usize,
    wq: usize,
    /// Padded column of input column `0`'s tap `v = 0`; tap `v` of input
    /// column `ix` reads padded column `ix + o − v`.
    o: usize,
    /// The weights, one run of `stride` lane blocks per `(fi, u, v)`, the
    /// band's lanes from block `b_lo` of each run.
    wt: &'a [[f32; LANES]],
    stride: usize,
    b_lo: usize,
    k: usize,
    f: usize,
}

/// `R` input columns × `B` lane blocks of one `din` row, held in registers
/// over every `(fi, oy↑, ox↑)` term: `tile` holds the columns' seeds
/// (column stride `n8`) and takes their sums; the lanes are the band's
/// blocks `b0..`, and `u_lo..u_hi` the kernel rows whose output row
/// `top − u` exists. `K` fixes the kernel size at compile time (`0`: read
/// it from `rows`).
#[inline(always)]
fn gta_block<const B: usize, const R: usize, const K: usize>(
    rows: &GtaRows<'_>,
    tile: &mut [f32],
    n8: usize,
    ix0: usize,
    b0: usize,
    top: usize,
    (u_lo, u_hi): (usize, usize),
) {
    let mut acc = [[[0.0f32; LANES]; B]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (b, acc_rb) in acc_r.iter_mut().enumerate() {
            *acc_rb = *tile[r * n8 + b * LANES..]
                .first_chunk()
                .expect("a whole lane block");
        }
    }
    let k = if K == 0 { rows.k } else { K };
    for fi in 0..rows.f {
        // Output rows ascending: kernel rows descending.
        for u in (u_lo..u_hi).rev() {
            // Padded columns from tap `K − 1` of column `ix0` on.
            let grow = &rows.planes[(fi * rows.oh + top - u) * rows.wq + ix0 + rows.o + 1 - k..];
            let taps = &rows.wt[(fi * k + u) * k * rows.stride + rows.b_lo + b0..];
            // Output columns ascending: taps descending.
            for v in (0..k).rev() {
                // By value: a borrowed block keeps the sums in memory.
                let w: [[f32; LANES]; B] = *taps[v * rows.stride..].first_chunk().expect("B lane blocks");
                let g: &[f32; R] = grow[k - 1 - v..]
                    .first_chunk()
                    .expect("R columns of the padded row");
                for (acc_r, &g) in acc.iter_mut().zip(g) {
                    for (acc_rb, wb) in acc_r.iter_mut().zip(&w) {
                        for i in 0..LANES {
                            acc_rb[i] += g * wb[i];
                        }
                    }
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (b, acc_rb) in acc_r.iter().enumerate() {
            tile[r * n8 + b * LANES..][..LANES].copy_from_slice(acc_rb);
        }
    }
}

/// Every column of one `din` row for `B` lane blocks from block `b0`:
/// blocks of `R` columns, then of four, then one column at a time.
#[inline(always)]
fn gta_lanes<const B: usize, const R: usize, const K: usize>(
    rows: &GtaRows<'_>,
    tile: &mut [f32],
    n8: usize,
    in_w: usize,
    b0: usize,
    top: usize,
    u_range: (usize, usize),
) {
    let mut ix0 = 0;
    while ix0 < in_w {
        let at = &mut tile[ix0 * n8 + b0 * LANES..];
        ix0 += match in_w - ix0 {
            left if left >= R => {
                gta_block::<B, R, K>(rows, at, n8, ix0, b0, top, u_range);
                R
            }
            4.. => {
                gta_block::<B, 4, K>(rows, at, n8, ix0, b0, top, u_range);
                4
            }
            _ => {
                gta_block::<B, 1, K>(rows, at, n8, ix0, b0, top, u_range);
                1
            }
        };
    }
}

/// One `din` row's tile over all `n8 / LANES` lane blocks of the band, at
/// most 12 accumulators at a time: four blocks by two columns, two by
/// four, or one by twelve (the square `8 × 8` block is left out: LLVM
/// vectorizes it across columns and shuffles every term).
#[inline(always)]
fn gta_row<const K: usize>(
    rows: &GtaRows<'_>,
    tile: &mut [f32],
    n8: usize,
    in_w: usize,
    top: usize,
    u_range: (usize, usize),
) {
    let blocks = n8 / LANES;
    let mut b0 = 0;
    while b0 < blocks {
        b0 += match blocks - b0 {
            4.. => {
                gta_lanes::<4, 2, K>(rows, tile, n8, in_w, b0, top, u_range);
                4
            }
            2 | 3 => {
                gta_lanes::<2, 4, K>(rows, tile, n8, in_w, b0, top, u_range);
                2
            }
            _ => {
                gta_lanes::<1, 12, K>(rows, tile, n8, in_w, b0, top, u_range);
                1
            }
        };
    }
}

/// GTA of channels `c_lo..` of `c` into `din` when `dout` holds no zero,
/// at stride 1: output-stationary instead of [`input_grad_band`]'s walk.
/// Each input row's `[W][n8]` tile is seeded from `din` as the walk's is,
/// summed in register blocks ([`gta_block`]) over `(fi, oy↑, ox↑)` —
/// every element's scalar order — and written back through the forward
/// mask. `dout` is read from the map's own arena (a map with no zero
/// stores its dense planes), copied once into zero-padded rows: the
/// padding's `0·w` terms add `±0.0`, which needs finite weights
/// ([`input_grad_takes_dense`]). The panel is read in place when the band
/// covers whole lane blocks, and re-laid zero-padded to `n8` lanes
/// otherwise (the padding lanes are never written back).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn input_grad_dense_band(
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
    note_dense_call();
    let (f, k, oh, ow, plane) = (
        dout.channels(),
        geom.kernel,
        dout.height(),
        dout.width(),
        in_h * in_w,
    );
    let n = din.len() / plane;
    let n8 = n.next_multiple_of(LANES);
    // Tap `v` of input column `ix` reads output column `ix + pad − v`,
    // which lies in `[−q, Ow + q)`: padded column `ox + q`.
    let q = (k - 1).saturating_sub(geom.pad);
    let wq = ow + 2 * q;
    let mut planes = vec![0.0f32; f * oh * wq];
    for fi in 0..f {
        for (oy, grow) in dout.channel_values(fi).chunks_exact(ow).enumerate() {
            planes[(fi * oh + oy) * wq + q..][..ow].copy_from_slice(grow);
        }
    }
    let relaid: Vec<[f32; LANES]>;
    let (blocks, stride, b_lo) =
        if c.is_multiple_of(LANES) && c_lo.is_multiple_of(LANES) && n.is_multiple_of(LANES) {
            (wt.as_chunks::<LANES>().0, c / LANES, c_lo / LANES)
        } else {
            relaid = wt
                .chunks_exact(c)
                .flat_map(|taps| {
                    taps[c_lo..][..n]
                        .chunks(LANES)
                        .map(|lanes| partial_block(lanes, lanes.len()))
                })
                .collect();
            (&relaid[..], n8 / LANES, 0)
        };
    let rows = GtaRows {
        planes: &planes,
        oh,
        wq,
        o: geom.pad + q,
        wt: blocks,
        stride,
        b_lo,
        k,
        f,
    };
    let seeded = any_bits(din, |bits| bits != 0);
    let mut tile = vec![0.0f32; in_w * n8];
    for iy in 0..in_h {
        if seeded {
            seed_row(din, (in_h, in_w), iy, &mut tile, n8);
        } else {
            tile.fill(0.0);
        }
        // Output row `top − u` for kernel row `u`, where it exists.
        let top = iy + geom.pad;
        let u_range = ((top + 1).saturating_sub(oh), k.min(top + 1));
        // `K = 3` (every 3 × 3 conv) with its taps unrolled.
        match k {
            3 => gta_row::<3>(&rows, &mut tile, n8, in_w, top, u_range),
            _ => gta_row::<0>(&rows, &mut tile, n8, in_w, top, u_range),
        }
        write_row(&tile, n8, masks, c_lo, (in_h, in_w), iy, din);
    }
}

/// Whether a GTA op takes [`input_grad_dense_band`]: stride 1, a `dout`
/// with no zero, and finite weights (checked once per call, as the panel
/// is prepared), whose products with the padding are then `±0.0`.
fn input_grad_takes_dense(dout: &SparseFeatureMap, geom: ConvGeometry, finite_weights: bool) -> bool {
    geom.stride == 1 && has_no_zero(dout) && finite_weights
}

/// Whether every value is finite: no exponent of all ones.
fn all_finite(values: &[f32]) -> bool {
    !any_bits(values, |bits| bits & 0x7f80_0000 == 0x7f80_0000)
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

/// Sums one sample's `dW` for filters `f_lo..` into `sample`, laid out
/// `[f][u][v][C]` and holding `+0.0`: the taps one gradient non-zero
/// feeds through one kernel row are then one contiguous run, matching
/// the channels-last input window (`ctx.dense()`) it reads.
#[inline(always)]
fn sample_weight_grad(
    ctx: &BandContext,
    op: &StageOp<'_>,
    c: usize,
    k: usize,
    f_lo: usize,
    sample: &mut [f32],
) {
    let StageOp::WeightGrad { input, dout, geom } = *op else {
        unreachable!("weight_grad_band is only handed GTW ops");
    };
    let h = input.height();
    let wp = padded_width(input.width(), dout.width(), geom);
    if has_no_zero(dout) {
        return weight_grad_dense(ctx.dense(), dout, geom, h, wp, c, f_lo, sample);
    }
    for f in 0..sample.len() / (c * k * k) {
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
}

/// The input rows and gradient planes of one dense GTW band.
struct GtwRows<'a> {
    /// The channels-last input copy, `row` values a row.
    dense: &'a [f32],
    row: usize,
    /// The gradients: filter `f` of the band is `dout` channel `f_lo + f`.
    dout: &'a SparseFeatureMap,
    f_lo: usize,
    /// Lanes between output columns: `stride · c`.
    step: usize,
    geom: ConvGeometry,
    /// Input rows.
    h: usize,
}

/// `FB` filters × `J` lane blocks of kernel row `u`'s taps, held in
/// registers over every `(oy↑, ox↑)` whose input row exists, from
/// `+0.0`: filters `f0..` of the plane arena, lanes `lane..` of the row's
/// `K·C`-lane window (`t` of them in a partial block when `!FULL`), stored
/// into `sample` at filter `f0`'s lane `lane` (filter stride `fstride`).
#[inline(always)]
fn gtw_block<const FB: usize, const J: usize, const FULL: bool>(
    rows: &GtwRows<'_>,
    u: usize,
    f0: usize,
    lane: usize,
    t: usize,
    sample: &mut [f32],
    fstride: usize,
) {
    let mut acc = [[[0.0f32; LANES]; J]; FB];
    let ow = rows.dout.width();
    // A map with no zero stores each channel as its dense plane.
    let planes: [&[f32]; FB] = std::array::from_fn(|fb| rows.dout.channel_values(rows.f_lo + f0 + fb));
    for oy in 0..rows.dout.height() {
        let Some(iy) = input_row(oy, u, rows.geom, rows.h) else {
            continue;
        };
        let irow = &rows.dense[iy * rows.row + lane..];
        let grads: [&[f32]; FB] = std::array::from_fn(|fb| &planes[fb][oy * ow..][..ow]);
        for ox in 0..ow {
            let window = &irow[ox * rows.step..];
            let x: [[f32; LANES]; J] = if FULL {
                *window.as_chunks().0.first_chunk().expect("J lane blocks")
            } else {
                std::array::from_fn(|j| partial_block(&window[j * LANES..], t))
            };
            for (acc_f, grow) in acc.iter_mut().zip(&grads) {
                let g = grow[ox];
                for (acc_fj, xj) in acc_f.iter_mut().zip(&x) {
                    for i in 0..LANES {
                        acc_fj[i] += g * xj[i];
                    }
                }
            }
        }
    }
    for (fb, acc_f) in acc.iter().enumerate() {
        let dst = &mut sample[fb * fstride..];
        for (j, acc_fj) in acc_f.iter().enumerate() {
            let len = if FULL { LANES } else { t };
            dst[j * LANES..][..len].copy_from_slice(&acc_fj[..len]);
        }
    }
}

/// Every filter of one lane chunk of kernel row `u`: groups of `FB`
/// filters, one at a time past the last whole group.
#[inline(always)]
fn gtw_filters<const FB: usize, const J: usize, const FULL: bool>(
    rows: &GtwRows<'_>,
    u: usize,
    n: usize,
    lane: usize,
    t: usize,
    sample: &mut [f32],
    fstride: usize,
) {
    let whole = n - n % FB;
    for f in (0..whole).step_by(FB) {
        gtw_block::<FB, J, FULL>(rows, u, f, lane, t, &mut sample[f * fstride..], fstride);
    }
    for f in whole..n {
        gtw_block::<1, J, FULL>(rows, u, f, lane, t, &mut sample[f * fstride..], fstride);
    }
}

/// One sample's `dW` for filters `f_lo..` when `dout` holds no zero, into
/// the `[f][u][v][C]` `sample` at `+0.0`: output-stationary instead of
/// [`sample_weight_grad`]'s walk. Each kernel row's `K·C` taps of a few
/// filters stay in registers ([`gtw_block`]) over every `(oy↑, ox↑)` —
/// the scalar order — reading `dout` from the map's own arena (a map with
/// no zero stores its dense planes) against the channels-last input copy
/// `dense`, whose zeros add the walk's `±0.0` terms.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weight_grad_dense(
    dense: &[f32],
    dout: &SparseFeatureMap,
    geom: ConvGeometry,
    h: usize,
    wp: usize,
    c: usize,
    f_lo: usize,
    sample: &mut [f32],
) {
    note_dense_call();
    let k = geom.kernel;
    let lanes = k * c;
    let fstride = k * lanes;
    let n = sample.len() / fstride;
    let rows = GtwRows {
        dense,
        row: wp * c,
        dout,
        f_lo,
        step: geom.stride * c,
        geom,
        h,
    };
    let (full, t) = (lanes / LANES, lanes % LANES);
    for u in 0..k {
        let taps = &mut sample[u * lanes..];
        // Chunks of six lane blocks, two filters at a time, or of up to
        // three blocks, four filters at a time: at most 12 accumulators.
        let mut j = 0;
        while j < full {
            let lane = j * LANES;
            let chunk = &mut taps[lane..];
            j += match full - j {
                1 => {
                    gtw_filters::<4, 1, true>(&rows, u, n, lane, 0, chunk, fstride);
                    1
                }
                2 => {
                    gtw_filters::<4, 2, true>(&rows, u, n, lane, 0, chunk, fstride);
                    2
                }
                3..=5 => {
                    gtw_filters::<4, 3, true>(&rows, u, n, lane, 0, chunk, fstride);
                    3
                }
                _ => {
                    gtw_filters::<2, 6, true>(&rows, u, n, lane, 0, chunk, fstride);
                    6
                }
            };
        }
        if t > 0 {
            let lane = full * LANES;
            gtw_filters::<4, 1, false>(&rows, u, n, lane, t, &mut taps[lane..], fstride);
        }
    }
}

/// OSRC of filters `f_lo..` of every op, in order, into `dw` (whole
/// `C × K × K` blocks); each context's `dense` is its op's padded
/// channels-last input copy ([`channels_last`]). Each sample sums its own
/// `dW` from `+0.0` and is then added into `dw` (the scalar engine's
/// bracket): one op adds straight into `dw`; more share an accumulator in
/// the samples' layout, transposed in and out once per band call.
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
    let mut sample = vec![0.0f32; dw.len()];
    if let ([ctx], [op]) = (ctxs, ops) {
        sample_weight_grad(ctx, op, c, k, f_lo, &mut sample);
        // `dW` in its own order, each cell reading its tap of the
        // filter's `[u][v][C]` block.
        let kk = k * k;
        for (dw_f, sample_f) in dw.chunks_exact_mut(c * kk).zip(sample.chunks_exact(kk * c)) {
            for (ci, dw_c) in dw_f.chunks_exact_mut(kk).enumerate() {
                for (d, s) in dw_c.iter_mut().zip(sample_f[ci..].iter().step_by(c)) {
                    *d += *s;
                }
            }
        }
        return;
    }
    let mut dwt = vec![0.0f32; dw.len()];
    for_each_dw_cell(n, c, k, |at, relaid| dwt[relaid] = dw[at]);
    for (ctx, op) in ctxs.iter().zip(ops) {
        sample_weight_grad(ctx, op, c, k, f_lo, &mut sample);
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
        } => {
            let (wt, c) = (relaid(), weights.channels());
            // Called by name, never through a pointer: either kernel must
            // inline into the AVX2 instantiation.
            if input_grad_takes_dense(dout, geom, ctxs[0].weights_finite()) {
                input_grad_dense_band(wt, c, dout, geom, masks, in_h, in_w, lo, out)
            } else {
                input_grad_band(wt, c, dout, geom, masks, in_h, in_w, lo, out)
            }
        }
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
            local = self.prepare(ops, None);
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
    fn prepare(&self, ops: &[StageOp<'_>], mut panels: Option<&mut PanelCache>) -> Vec<BandContext> {
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
        // Forward and GTA copy nothing: no list of empty copies either.
        let copies = if elements > 0 {
            map_banded(ops.len(), elements, &|s| {
                gtw_input(&ops[s]).map(|(fm, ow, geom)| channels_last(fm, ow, geom))
            })
        } else {
            Vec::new()
        };
        let mut copies = copies.into_iter();
        // The panel depends on the weights and the stage alone: ops that
        // repeat the previous op's pair (every op of a training batch does)
        // share its copy — the weights are borrowed for the whole call, so
        // the same address holds the same bits.
        // GTA's panel is checked for a non-finite weight with it, once.
        let mut last: Option<(Stage, &Tensor4, Arc<[f32]>, bool)> = None;
        ops.iter()
            .map(|op| {
                let mut ctx = BandContext::empty();
                if let Some(dense) = copies.next().flatten() {
                    ctx.set_dense(dense);
                }
                if let StageOp::Forward { weights, .. } | StageOp::InputGrad { weights, .. } = *op {
                    let stage = op.stage();
                    let (relaid, finite) = match (&last, panels.as_deref_mut()) {
                        (Some((s, w, wt, finite)), _) if *s == stage && std::ptr::eq(*w, weights) => {
                            (wt.clone(), *finite)
                        }
                        (_, panels) => {
                            let relaid = match panels {
                                Some(panels) => {
                                    panels.panel(stage, weights, || relay_weights(weights, stage))
                                }
                                None => relay_weights(weights, stage),
                            };
                            let finite = stage == Stage::InputGrad && all_finite(&relaid);
                            (relaid, finite)
                        }
                    };
                    last = Some((stage, weights, relaid.clone(), finite));
                    ctx.set_weights(stage, relaid);
                    ctx.set_weights_finite(finite);
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
    use crate::engine::test_fixtures::{
        fixtures_with, pseudo, run_into, sparse_tensor, stage_ops, InBands, REFERENCE,
    };
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

    /// A `c × h × w` gradient with no zero: the shape the dense GTA / GTW
    /// kernels take.
    fn no_zero_map(c: usize, h: usize, w: usize, s: &mut u64) -> SparseFeatureMap {
        let t = Tensor3::from_fn(c, h, w, |_, _, _| match pseudo(s) {
            0.0 => 0.5,
            v => v,
        });
        let map = SparseFeatureMap::from_tensor(&t);
        assert!(has_no_zero(&map));
        map
    }

    /// Weights with exact zeros sprinkled in, which the scalar kernels skip.
    fn weights_with_zeros(f: usize, c: usize, k: usize, s: &mut u64) -> Tensor4 {
        Tensor4::from_fn(f, c, k, k, |_, _, _, _| match pseudo(s) {
            v if v.abs() < 0.1 => 0.0,
            v => v,
        })
    }

    /// A `dout` with no zero takes the dense GTA (stride 1) and GTW (any
    /// stride) kernels, which must match the scalar reference bit for bit
    /// at every kernel size, stride, padding and lane count — whole lane
    /// blocks, partial ones, a band's window of the panel — on 1, 2 and 5
    /// bands, one op and a batch of three, zeroed and pre-seeded.
    #[test]
    fn no_zero_gradients_match_scalar_bitwise() {
        use crate::engine::test_fixtures::batch_in_bands;
        let mut s = 71u64;
        for (k, stride, pad) in [
            (1, 1, 0),
            (1, 2, 1),
            (3, 1, 1),
            (3, 1, 0),
            (3, 2, 1),
            (5, 1, 2),
            (5, 2, 1),
        ] {
            let geom = ConvGeometry::new(k, stride, pad);
            for (c, f) in [(3, 8), (8, 3), (9, 16), (16, 9), (32, 48), (48, 32)] {
                let (h, w) = (5, 7);
                let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
                let weights = weights_with_zeros(f, c, k, &mut s);
                let samples: Vec<_> = (0..3)
                    .map(|_| {
                        let input = SparseFeatureMap::from_tensor(&sparse_tensor(c, h, w, 55, &mut s));
                        let masks = input.masks();
                        (input, no_zero_map(f, oh, ow, &mut s), masks)
                    })
                    .collect();
                let gta: Vec<StageOp<'_>> = samples
                    .iter()
                    .map(|(_, dout, masks)| StageOp::InputGrad {
                        dout,
                        weights: &weights,
                        geom,
                        masks,
                        in_h: h,
                        in_w: w,
                    })
                    .collect();
                let gtw: Vec<StageOp<'_>> = samples
                    .iter()
                    .map(|(input, dout, _)| StageOp::WeightGrad { input, dout, geom })
                    .collect();
                for ops in [&gta[..1], &gta[..], &gtw[..1], &gtw[..]] {
                    let want: Vec<Vec<u32>> = batch_in_bands(&REFERENCE, ops, 1)
                        .iter()
                        .map(|o| bits(o))
                        .collect();
                    let seed: Vec<f32> = (0..ops[0].out_len())
                        .map(|i| 0.25 - (i % 5) as f32 * 0.125)
                        .collect();
                    let mut seeded_want = seed.clone();
                    run_into(&REFERENCE, &ops[0], &mut seeded_want);
                    for (label, simd) in engines() {
                        for bands in [1usize, 2, 5] {
                            let ctx = format!(
                                "{} {label} k={k} s={stride} p={pad} c={c} f={f} ops={} bands={bands}",
                                ops[0].stage(),
                                ops.len()
                            );
                            let got: Vec<Vec<u32>> = batch_in_bands(&simd, ops, bands)
                                .iter()
                                .map(|o| bits(o))
                                .collect();
                            assert_eq!(got, want, "{ctx}");
                            let mut seeded = seed.clone();
                            run_into(&InBands(&simd, bands), &ops[0], &mut seeded);
                            assert_eq!(bits(&seeded), bits(&seeded_want), "{ctx} pre-seeded");
                        }
                    }
                }
            }
        }
    }

    /// The dense kernels run exactly when the op's gradient holds no zero
    /// (GTA also needs stride 1 and finite weights), counted on this
    /// thread through direct band calls; a map with a single zero, a
    /// stride-2 GTA and a GTA over an infinite weight take the walk.
    #[test]
    fn dense_kernels_run_only_on_gradients_without_zeros() {
        let mut s = 3u64;
        let (c, f, h, w) = (16, 8, 6, 6);
        let input = SparseFeatureMap::from_tensor(&sparse_tensor(c, h, w, 55, &mut s));
        let masks = input.masks();
        let weights = weights_with_zeros(f, c, 3, &mut s);
        let mut infinite = weights.clone();
        infinite.as_mut_slice()[5] = f32::INFINITY;
        let unit = ConvGeometry::new(3, 1, 1);
        let dense = no_zero_map(f, h, w, &mut s);
        let mut one_zero = dense.to_tensor();
        one_zero.as_mut_slice()[17] = 0.0;
        let one_zero = SparseFeatureMap::from_tensor(&one_zero);
        let strided = ConvGeometry::new(3, 2, 1);
        let dense_strided = no_zero_map(f, strided.output_extent(h), strided.output_extent(w), &mut s);
        let gta = |dout, weights, geom| StageOp::InputGrad {
            dout,
            weights,
            geom,
            masks: &masks,
            in_h: h,
            in_w: w,
        };
        let gtw = |dout, geom| StageOp::WeightGrad {
            input: &input,
            dout,
            geom,
        };
        let cases = [
            (gta(&dense, &weights, unit), true),
            (gtw(&dense, unit), true),
            (gtw(&dense_strided, strided), true),
            (gta(&one_zero, &weights, unit), false),
            (gtw(&one_zero, unit), false),
            (gta(&dense_strided, &weights, strided), false),
            (gta(&dense, &infinite, unit), false),
        ];
        for (op, dense_kernel) in cases {
            let want = bits(&op.run_on(&REFERENCE));
            for (label, simd) in engines() {
                let before = DENSE_CALLS.with(|calls| calls.get());
                let mut got = vec![0.0; op.out_len()];
                simd.band(&simd.prepare(&[op], None), &[op], 0, &mut got);
                let ran = DENSE_CALLS.with(|calls| calls.get()) - before;
                assert_eq!(ran, usize::from(dense_kernel), "{} {label}", op.stage());
                assert_eq!(bits(&got), want, "{} {label}", op.stage());
            }
        }
    }

    /// `prepare` checks GTA's panel for a non-finite weight once per call
    /// and hands every context the answer; a context carrying the panel
    /// but no check walks, with the same bits.
    #[test]
    fn gta_contexts_carry_the_panel_finiteness_check() {
        let mut s = 9u64;
        let (c, f, h, w) = (8, 8, 5, 5);
        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseFeatureMap::from_tensor(&sparse_tensor(c, h, w, 50, &mut s));
        let masks = input.masks();
        let weights = weights_with_zeros(f, c, 3, &mut s);
        let mut nan = weights.clone();
        nan.as_mut_slice()[11] = f32::NAN;
        let douts: Vec<_> = (0..3).map(|_| no_zero_map(f, h, w, &mut s)).collect();
        let gta = |dout, weights| StageOp::InputGrad {
            dout,
            weights,
            geom,
            masks: &masks,
            in_h: h,
            in_w: w,
        };
        let simd = SimdEngine::auto();
        for (weights, finite) in [(&weights, true), (&nan, false)] {
            let ops: Vec<_> = douts.iter().map(|dout| gta(dout, weights)).collect();
            let ctxs = simd.prepare(&ops, None);
            assert!(ctxs.iter().all(|ctx| ctx.weights_finite() == finite));
        }
        let forward = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: None,
            geom,
        };
        assert!(!simd.prepare(&[forward], None)[0].weights_finite());

        let op = gta(&douts[0], &weights);
        let mut unchecked = BandContext::empty();
        unchecked.set_weights(Stage::InputGrad, relay_weights(&weights, Stage::InputGrad));
        let before = DENSE_CALLS.with(|calls| calls.get());
        let mut got = vec![0.0; op.out_len()];
        simd.band(std::slice::from_ref(&unchecked), &[op], 0, &mut got);
        assert_eq!(
            DENSE_CALLS.with(|calls| calls.get()),
            before,
            "an unchecked panel walks"
        );
        assert_eq!(bits(&got), bits(&op.run_on(&REFERENCE)));
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
                let ctxs = simd.prepare(&[other], None);
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
                run_into(&REFERENCE, &op, &mut want);
                for (label, simd) in engines() {
                    let mut got = seeded.clone();
                    run_into(&simd, &op, &mut got);
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
            run_into(&REFERENCE, op, &mut want);
        }
        for (label, simd) in engines() {
            let unprepared: Vec<BandContext> = ops.iter().map(|_| BandContext::empty()).collect();
            for ctxs in [simd.prepare(&ops, None), unprepared] {
                let mut got = seed.clone();
                simd.band(&ctxs, &ops, 0, &mut got);
                assert_eq!(got, want, "{label}");
            }
        }
    }
}
