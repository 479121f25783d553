//! Pluggable kernel execution engines for the SRC/MSRC/OSRC hot paths.
//!
//! The paper's accelerator has one 1-D convolution datapath switched
//! between three modes — SRC for Forward, MSRC for GTA, OSRC for GTW — and
//! this module is the software seam that models it: a training-stage
//! convolution is a **value**, [`StageOp`], and [`KernelEngine`] is two
//! hooks and one runner, each taking ops. Every op accumulates into a
//! caller-provided slice through the kernels' accumulate-into-scratch APIs
//! ([`crate::src::src_accumulate`], [`crate::msrc::msrc_accumulate`],
//! [`crate::osrc::osrc_accumulate`]), so the inner loops perform **zero
//! per-row heap allocations** on every engine.
//!
//! The seam:
//!
//! * [`KernelEngine::prepare`] / [`KernelEngine::band`] — what a backend
//!   implements: an op's output splits into independent contiguous *units*
//!   ([`StageOp::split`]: filters for Forward/GTW, channels for GTA), and
//!   `band` computes any contiguous run of them — for one op, or for every
//!   op of a batch that adds into one shared output — given the per-call
//!   state `prepare` built once for the whole batch,
//! * [`KernelEngine::run_batch`] — a whole batch in one engine call, into a
//!   [`BatchOut`]: one slice per sample (Forward, GTA) or one shared
//!   accumulator every sample adds into in sample order (GTW's `dW`). It
//!   prepares the batch once and deals its `samples × units` space (or the
//!   shared output's units) to the pool through the one splitter
//!   [`for_each_band`], one task per band, sized by [`bands_for`] — one
//!   band on a pool of one. Banding is dispatch, not a backend: multi-core
//!   speedup scales with batch size as well as layer width on every engine.
//!   [`StageOp::run_on`] is the batch of one op.
//!
//! Bands are disjoint output units whose per-row accumulation order is
//! untouched, so the result is **bitwise identical** at every band count.
//! [`ScalarEngine`]'s order at one band is the specification every engine
//! must match bit for bit (the `engine_parity` property tests).
//!
//! [`BandContext`] is the per-call operand state on the band seam: before
//! fanning a call out into bands, `run_batch` asks the engine to
//! `prepare` its ops once and passes the resulting contexts by reference
//! into every band worker. Backends use it to hoist per-call operand
//! transformations — the simd engine's channel-contiguous weight re-layout
//! (one per call, shared by every sample's context) and channels-last
//! input copy — above the fan-out, so `B` bands share one preparation
//! instead of redoing it `B` times. A caller that keeps a [`PanelCache`]
//! across calls — the [`crate::ExecutionContext`], for its one-op calls —
//! hands it to `run_batch`, which hands it to `prepare`: an engine that
//! re-lays its weights draws the re-layout from the cache instead of
//! building it, and one that reads them in place ignores the cache.
//!
//! [`for_each_band`] is a free function, not an engine method: the other
//! position-pure batch work in a step — the stochastic pruner's snap/zero
//! sweep, whose draws are keyed by element position — calls it directly
//! (`unit_len = 1`), sized by the same [`bands_for`] rule, and is
//! bitwise-identical at every band count for the same reason.
//!
//! Engine selection is name-keyed, and the registry is the only place an
//! engine has a name: [`crate::registry`] maps `"scalar"` / `"simd"` /
//! `"fixed"` (`parallel:simd` / `im2row` / `auto` are aliases of simd) to
//! engine instances, and
//! [`crate::context::ExecutionContext`] carries the resolved engine
//! through `sparsetrain-nn`'s `Trainer`/`Conv2d`.
//!
//! [`ScalarEngine`]'s band is the [`crate::ops`] visitor of its stage over
//! the band's units, each op run through its `*_accumulate` kernel. The
//! simulator's cycle accounting walks the same visitors, pricing each op
//! with [`crate::work`] instead, so it is engine-agnostic by construction
//! and prices exactly the ops the reference runs.

use crate::mask::RowMask;
use crate::msrc::msrc_accumulate;
use crate::ops::{for_each_forward_op, for_each_gta_op, for_each_gtw_op};
use crate::osrc::osrc_accumulate;
use crate::panels::PanelCache;
use crate::rowconv::SparseFeatureMap;
use crate::src::src_accumulate;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;
use std::fmt;
use std::sync::Arc;

/// The three training-stage convolutions, one per [`StageOp`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// SRC: the forward convolution (sparse activations × weights).
    Forward,
    /// MSRC / GTA: the input-gradient convolution (sparse output
    /// gradients × rotated weights, forward masks fused).
    InputGrad,
    /// OSRC / GTW: the weight-gradient correlation (sparse activations ×
    /// sparse output gradients).
    WeightGrad,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 3] = [Stage::Forward, Stage::InputGrad, Stage::WeightGrad];

    /// The stable name (`forward`, `input_grad`, `weight_grad`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Forward => "forward",
            Stage::InputGrad => "input_grad",
            Stage::WeightGrad => "weight_grad",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-call operand state of one op, shared by every band of one engine
/// call.
///
/// The contexts of a call are built **once** by the executing engine's
/// [`KernelEngine::prepare`] — one per op, *above* the band fan-out — and
/// then passed by reference into every band worker. A context carries
/// whatever per-call operand transformation the backend wants to hoist out
/// of the bands:
///
/// * `weights` — the call's kernel weights re-laid so the lane axis is
///   contiguous (the simd engine's `[u][ci][K-1-v][F]` / `[fi][u][v][C]`
///   copies), tagged with the stage they were re-laid for. The re-layout
///   does not depend on the sample, so the contexts of one call hold the
///   **same** allocation by reference count,
/// * `weights_finite` — whether the preparing engine found every re-laid
///   weight finite, checked once per call beside the re-layout (`false`,
///   the safe answer, when it did not check),
/// * `dense` — a dense copy of the op's sparse operand map, in the layout
///   the preparing engine reads (the simd engine's zero-padded
///   channels-last `H × Wp × C` input copy for GTW).
///
/// The scalar reference needs no preparation and returns empty contexts;
/// band workers must treat a context lacking their state as "prepare
/// locally or fall back to the scalar path", so a context from the wrong
/// engine can never change results — only speed. A context is only valid
/// for the exact op it was prepared from.
///
/// Memory tradeoff: a batched call holds **one context per sample** for
/// the duration of the call (every sample's bands may run concurrently,
/// so no context can be dropped early). With a preparing engine that is
/// `batch × per-sample state` — e.g. the simd engine's dense GTW input
/// copy. Callers streaming very large batches through memory-hungry
/// engines should split the batch; the per-call preparation cost is
/// already amortized within each sub-batch.
#[derive(Debug, Default)]
pub struct BandContext {
    weights: Option<(Stage, Arc<[f32]>)>,
    weights_finite: bool,
    dense: Vec<f32>,
}

impl BandContext {
    /// A context carrying no prepared state (the scalar engine's answer).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether no prepared state is attached at all.
    pub fn is_empty(&self) -> bool {
        self.weights.is_none() && self.dense.is_empty()
    }

    /// Attaches the call's kernel weights as re-laid for `stage`; every
    /// context of one engine call is handed a clone of the same `Arc`.
    /// The weights count as unchecked for finiteness until
    /// [`BandContext::set_weights_finite`] says otherwise.
    pub fn set_weights(&mut self, stage: Stage, weights: Arc<[f32]>) {
        self.weights = Some((stage, weights));
        self.weights_finite = false;
    }

    /// Records whether every attached re-laid weight is finite.
    pub fn set_weights_finite(&mut self, finite: bool) {
        self.weights_finite = finite;
    }

    /// Whether the attached re-laid weights were checked and found finite
    /// (`false` when unchecked).
    pub fn weights_finite(&self) -> bool {
        self.weights_finite
    }

    /// The call's re-laid kernel weights, or `None` when none were
    /// prepared.
    pub fn weights(&self) -> Option<&Arc<[f32]>> {
        self.weights.as_ref().map(|(_, wt)| wt)
    }

    /// The re-laid kernel weights when they were re-laid for `stage`, or
    /// `None` (none prepared, or prepared for another stage's layout).
    pub fn weights_for(&self, stage: Stage) -> Option<&Arc<[f32]>> {
        self.weights
            .as_ref()
            .filter(|(s, _)| *s == stage)
            .map(|(_, wt)| wt)
    }

    /// Attaches a dense copy of the op's sparse operand map.
    pub fn set_dense(&mut self, map: Vec<f32>) {
        self.dense = map;
    }

    /// The dense operand copy, or `&[]` when none was prepared.
    pub fn dense(&self) -> &[f32] {
        &self.dense
    }
}

/// One training-stage convolution of one sample, as a value: the borrowed
/// operands an engine needs to run it.
///
/// The output is not part of the op — engines accumulate into a caller
/// slice of [`StageOp::out_len`] elements, which the caller pre-zeroes or
/// pre-seeds. Its layout is `units × unit_len` ([`StageOp::split`]):
///
/// | stage | output | units | unit |
/// |---|---|---|---|
/// | `Forward` | `out[F][Oh][Ow]` | filters | one `Oh × Ow` plane |
/// | `InputGrad` | `din[C][H][W]` | channels | one `H × W` plane |
/// | `WeightGrad` | `dW[F][C][K][K]` | filters | one `C × K × K` block |
#[derive(Debug, Clone, Copy)]
pub enum StageOp<'a> {
    /// SRC: `out[fi] += Σ_ci SRC(input[ci], W[fi][ci])`; a bias, when
    /// given, overwrites `out` first.
    Forward {
        /// The sparse activations.
        input: &'a SparseFeatureMap,
        /// The layer's `F × C × K × K` kernels.
        weights: &'a Tensor4,
        /// Optional per-filter bias.
        bias: Option<&'a [f32]>,
        /// Kernel size, stride and padding.
        geom: ConvGeometry,
    },
    /// MSRC / GTA: scatters `dout` through the rotated kernels into `din`,
    /// skipping positions absent from `masks`.
    InputGrad {
        /// The sparse output gradients.
        dout: &'a SparseFeatureMap,
        /// The layer's `F × C × K × K` kernels.
        weights: &'a Tensor4,
        /// Kernel size, stride and padding.
        geom: ConvGeometry,
        /// The forward non-zero masks, one per `(channel, input row)` in
        /// channel-major order.
        masks: &'a [RowMask],
        /// Height of the input-gradient planes.
        in_h: usize,
        /// Width of the input-gradient planes.
        in_w: usize,
    },
    /// OSRC / GTW: the sample's `dW[fi][ci][u] = Σ_oy OSRC(I row, dO row)`,
    /// summed from `+0.0` and then added into the kernel rows of `dW` — so
    /// a batch's `dW` is the sum of per-sample gradients in sample order,
    /// the bracket a sharded run's reduce forms too.
    WeightGrad {
        /// The sparse activations of the forward pass.
        input: &'a SparseFeatureMap,
        /// The sparse output gradients.
        dout: &'a SparseFeatureMap,
        /// Kernel size, stride and padding.
        geom: ConvGeometry,
    },
}

impl StageOp<'_> {
    /// Which of the three training stages this op is.
    pub fn stage(&self) -> Stage {
        match self {
            StageOp::Forward { .. } => Stage::Forward,
            StageOp::InputGrad { .. } => Stage::InputGrad,
            StageOp::WeightGrad { .. } => Stage::WeightGrad,
        }
    }

    /// The output's `(units, unit_len)` split: `units` independent
    /// contiguous blocks of `unit_len` elements, any contiguous run of
    /// which one [`KernelEngine::band`] call computes.
    pub fn split(&self) -> (usize, usize) {
        match *self {
            StageOp::Forward {
                input, weights, geom, ..
            } => (
                weights.filters(),
                geom.output_extent(input.height()) * geom.output_extent(input.width()),
            ),
            StageOp::InputGrad {
                weights, in_h, in_w, ..
            } => (weights.channels(), in_h * in_w),
            StageOp::WeightGrad { input, dout, geom } => {
                (dout.channels(), input.channels() * geom.kernel * geom.kernel)
            }
        }
    }

    /// Number of output elements (`units × unit_len`).
    pub fn out_len(&self) -> usize {
        let (units, unit_len) = self.split();
        units * unit_len
    }

    /// The sparse operand the op sweeps: the activations for Forward, the
    /// (pruned) output gradients for GTA and GTW.
    pub fn operand(&self) -> &SparseFeatureMap {
        match *self {
            StageOp::Forward { input, .. } => input,
            StageOp::InputGrad { dout, .. } | StageOp::WeightGrad { dout, .. } => dout,
        }
    }

    /// Rough MAC count *per output unit*, priced by what the kernels
    /// iterate: every stored non-zero of the swept operand meets `K × K`
    /// kernel taps — the activations for a Forward filter, the output
    /// gradients for a GTA channel, and for a GTW filter its own share of
    /// the output gradients against all `C` input channels.
    pub fn work(&self) -> usize {
        let taps = |geom: ConvGeometry| geom.kernel * geom.kernel;
        match *self {
            StageOp::Forward { input, geom, .. } => input.nnz() * taps(geom),
            StageOp::InputGrad { dout, geom, .. } => dout.nnz() * taps(geom),
            StageOp::WeightGrad { input, dout, geom } => {
                dout.nnz() * taps(geom) * input.channels() / dout.channels().max(1)
            }
        }
    }

    /// Validates the operands against each other and against an output of
    /// `out_len` elements.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn check(&self, out_len: usize) {
        match *self {
            StageOp::Forward {
                input,
                weights,
                bias,
                geom,
            } => {
                let (f, wc, kh, kw) = weights.shape();
                assert_eq!(wc, input.channels(), "weight/input channel mismatch");
                assert_eq!(kh, geom.kernel);
                assert_eq!(kw, geom.kernel);
                if let Some(b) = bias {
                    assert_eq!(b.len(), f, "bias length mismatch");
                }
            }
            StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks,
                in_h,
                ..
            } => {
                let (f, c, kh, kw) = weights.shape();
                assert_eq!(f, dout.channels(), "weight filters != dout channels");
                assert_eq!(kh, geom.kernel);
                assert_eq!(kw, geom.kernel);
                assert_eq!(masks.len(), c * in_h, "need one mask per (channel, input row)");
            }
            StageOp::WeightGrad { input, dout, geom } => {
                assert_eq!(dout.height(), geom.output_extent(input.height()));
                assert_eq!(dout.width(), geom.output_extent(input.width()));
            }
        }
        assert_eq!(out_len, self.out_len(), "{} output length mismatch", self.stage());
    }

    /// Runs this op on `engine` into a freshly zeroed output buffer: the
    /// [`KernelEngine::run_batch`] of a batch of one — the allocating
    /// convenience for tests, benches and one-off calls.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn run_on<E: KernelEngine + ?Sized>(&self, engine: &E) -> Vec<f32> {
        let mut out = vec![0.0; self.out_len()];
        engine.run_batch(
            std::slice::from_ref(self),
            BatchOut::PerSample(vec![&mut out]),
            None,
        );
        out
    }
}

/// Where the results of a [`KernelEngine::run_batch`] call land.
#[derive(Debug)]
pub enum BatchOut<'a> {
    /// One output slice per sample (Forward, GTA).
    PerSample(Vec<&'a mut [f32]>),
    /// One accumulator every sample adds into, in sample order — GTW's
    /// batch-level `dW`, the gradient the optimizer consumes.
    Shared(&'a mut [f32]),
}

impl<'a> BatchOut<'a> {
    /// The output slices: one per sample, or the one shared accumulator.
    pub fn slices(&mut self) -> &mut [&'a mut [f32]] {
        match self {
            BatchOut::PerSample(outs) => outs,
            BatchOut::Shared(acc) => std::slice::from_mut(acc),
        }
    }

    /// Validates a batch of ops against this output: one slice per op (or
    /// one output shape across the batch when shared) and every op's own
    /// [`StageOp::check`].
    ///
    /// # Panics
    ///
    /// Panics on a batch length or shape mismatch.
    pub fn check(&self, ops: &[StageOp<'_>]) {
        match self {
            BatchOut::PerSample(outs) => {
                assert_eq!(ops.len(), outs.len(), "batch length mismatch");
                for (op, out) in ops.iter().zip(outs) {
                    op.check(out.len());
                }
            }
            BatchOut::Shared(acc) => {
                for op in ops {
                    op.check(acc.len());
                    assert_eq!(op.split(), ops[0].split(), "shared output shape mismatch");
                }
            }
        }
    }
}

/// Execution of the three training-stage convolutions, a batch of
/// [`StageOp`]s per call.
///
/// Every method accumulates into caller-provided slices (pre-zeroed or
/// pre-seeded by the caller) and must produce results bitwise identical to
/// [`ScalarEngine`], whose defaults these are. A backend overrides the two
/// hooks, `prepare` + `band`; `run_batch` is those two dealt into bands
/// plus the shape checks (overridden only by test wrappers that pin the
/// band count). An engine has no name of its own: the registry names it
/// ([`crate::registry::EngineHandle::name`]).
pub trait KernelEngine: Send + Sync {
    /// Builds the per-call operand state of `ops`, one context per op in
    /// order — invoked **once** per engine call, above the band fan-out,
    /// so state that does not depend on the sample (a weight panel) is
    /// built once and shared by the call's contexts. An engine that
    /// re-lays the weights takes the re-layout from `panels` when given —
    /// a cache the caller keeps across calls
    /// ([`PanelCache::panel`]) — and builds it otherwise. The default
    /// prepares nothing and ignores `panels`.
    fn prepare(&self, ops: &[StageOp<'_>], panels: Option<&mut PanelCache>) -> Vec<BandContext> {
        let _ = panels;
        ops.iter().map(|_| BandContext::empty()).collect()
    }

    /// Adds the output units `lo..lo + n` of every op of `ops`, in order,
    /// into `out`, which holds those `n` contiguous pre-seeded units
    /// ([`StageOp::split`]): one op for a per-sample output, the whole
    /// batch for a shared one (all ops then split alike). `ctxs` are the
    /// ops' [`BandContext`]s, from `prepare` on the same ops; a context
    /// lacking the engine's state never changes results — band workers
    /// re-prepare locally or take the scalar path. Band calls trust their
    /// caller for shape validation (`run_batch` runs the checks).
    /// The default is the scalar reference loop; every override must stay
    /// bitwise identical to it.
    ///
    /// # Panics
    ///
    /// Overrides may panic when `ctxs` and `ops` differ in length.
    fn band(&self, ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
        let _ = ctxs;
        scalar_bands(ops, lo, out);
    }

    /// Runs a whole batch in one engine call — the accelerator streams
    /// batches through the datapath to amortize control overhead, and the
    /// software engines mirror that. It prepares the batch once and deals
    /// `band` calls to the pool in [`bands_for`] bands: the samples'
    /// `samples × units` space for per-sample outputs, the shared output's
    /// units (each band adding its samples in order) for GTW's `dW`. At one
    /// band that is the samples in order as whole-range bands, which
    /// *defines* the result; at any other count it is bitwise the same
    /// (verified by the `engine_parity` property tests). A per-sample
    /// batch whose ops split differently runs sample by sample. `panels`
    /// goes to [`prepare`](Self::prepare).
    ///
    /// # Panics
    ///
    /// Panics on batch length or shape mismatches ([`BatchOut::check`]).
    fn run_batch(&self, ops: &[StageOp<'_>], out: BatchOut<'_>, panels: Option<&mut PanelCache>) {
        run_banded(self, ops, out, &bands_for, panels);
    }
}

// ---------------------------------------------------------------------------
// Scalar band workers (the trait's default `band` body; the scalar engine
// is one big band)
// ---------------------------------------------------------------------------

/// The scalar reference for units `lo..` of every op of `ops`, in order —
/// the default [`KernelEngine::band`] and every backend's fallback. A GTW
/// op sums its sample's `dW` in a scratch from `+0.0`, which
/// [`add_and_clear`] then adds into `out`.
pub(crate) fn scalar_bands(ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
    let mut dw = Vec::new();
    for op in ops {
        if op.stage() == Stage::WeightGrad {
            dw.resize(out.len(), 0.0);
            scalar_band(op, lo, &mut dw);
            add_and_clear(out, &mut dw);
        } else {
            scalar_band(op, lo, out);
        }
    }
}

/// Adds one sample's `dW` into the accumulator `acc` and leaves `sample`
/// at `+0.0` for the next one: the single extra pass GTW's per-sample
/// bracket costs.
#[inline(always)]
pub(crate) fn add_and_clear(acc: &mut [f32], sample: &mut [f32]) {
    for (d, s) in acc.iter_mut().zip(sample) {
        *d += *s;
        *s = 0.0;
    }
}

/// The scalar reference for units `lo..` of one op, accumulated straight
/// into `out`: a Forward bias first fills its filter planes, then the
/// stage's [`crate::ops`] visitor runs over the band's units and each op
/// goes through its kernel into the output row its task names. A task id
/// counts rows from the start of the whole output, so the band's rows
/// start at task `first`.
pub(crate) fn scalar_band(op: &StageOp<'_>, lo: usize, out: &mut [f32]) {
    let (_, unit_len) = op.split();
    let units = lo..lo + out.len() / unit_len;
    match *op {
        StageOp::Forward {
            input,
            weights,
            bias,
            geom,
        } => {
            if let Some(bias) = bias {
                for (plane, &b) in out.chunks_mut(unit_len).zip(&bias[units.clone()]) {
                    plane.fill(b);
                }
            }
            let ow = geom.output_extent(input.width());
            let first = lo * unit_len / ow;
            for_each_forward_op(input, geom, units, |task, op| {
                let row = &mut out[(task - first) * ow..][..ow];
                let krow = weights.kernel_row(op.at.fi, op.at.ci, op.at.u);
                src_accumulate(op.input, krow, geom, row);
            });
        }
        StageOp::InputGrad {
            dout,
            weights,
            geom,
            masks,
            in_h,
            in_w,
        } => {
            let first = lo * in_h;
            for_each_gta_op(dout, masks, geom, in_h, units, |task, op| {
                let row = &mut out[(task - first) * in_w..][..in_w];
                let krow = weights.kernel_row(op.at.fi, op.at.ci, op.at.u);
                msrc_accumulate(op.grad, krow, geom, op.mask, row);
            });
        }
        StageOp::WeightGrad { input, dout, geom } => {
            let k = geom.kernel;
            let first = lo * unit_len / k;
            for_each_gtw_op(input, dout, geom, units, |task, op| {
                osrc_accumulate(op.input, op.grad, geom, &mut out[(task - first) * k..][..k]);
            });
        }
    }
}
// ---------------------------------------------------------------------------
// ScalarEngine
// ---------------------------------------------------------------------------

/// The reference engine; its iteration order (at one band) defines the
/// exact floating-point result every engine must reproduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

// The trait defaults (shape checks + the scalar band workers, dealt into
// bands) *are* the reference semantics.
impl KernelEngine for ScalarEngine {}

// ---------------------------------------------------------------------------
// Banding
// ---------------------------------------------------------------------------

/// The body of every [`KernelEngine::run_batch`]: checks the batch,
/// prepares it once (its panels drawn from `panels` when given) and deals
/// `engine`'s `band` calls into `bands(units, work)` bands. Each band
/// writes disjoint output units in the scalar per-row accumulation order,
/// so the band count changes wall-clock, never values.
fn run_banded<E: KernelEngine + ?Sized>(
    engine: &E,
    ops: &[StageOp<'_>],
    out: BatchOut<'_>,
    bands: &dyn Fn(usize, usize) -> usize,
    mut panels: Option<&mut PanelCache>,
) {
    out.check(ops);
    let Some(first) = ops.first() else { return };
    let (units, unit_len) = first.split();
    let work: usize = ops.iter().map(StageOp::work).sum();
    match out {
        // Mixed-shape batches band per sample instead (still bitwise equal
        // to the scalar order — banding never reorders accumulation).
        BatchOut::PerSample(outs) if ops.iter().any(|op| op.split() != (units, unit_len)) => {
            for (op, out) in ops.iter().zip(outs) {
                run_banded(
                    engine,
                    std::slice::from_ref(op),
                    BatchOut::PerSample(vec![out]),
                    bands,
                    panels.as_deref_mut(),
                );
            }
        }
        // The samples are the parts: bands cut `samples × units`.
        BatchOut::PerSample(outs) => {
            let ctxs = engine.prepare(ops, panels);
            for_each_band(outs, unit_len, bands(ops.len() * units, work), &|s, lo, piece| {
                engine.band(&ctxs[s..=s], &ops[s..=s], lo, piece);
            });
        }
        // The batch shares one output, so parallelism stays across its
        // units; each band accumulates its samples in order, keeping the
        // per-element accumulation sequence identical to the per-sample
        // path.
        BatchOut::Shared(acc) => {
            let ctxs = engine.prepare(ops, panels);
            for_each_band(vec![acc], unit_len, bands(units, work), &|_, lo, piece| {
                engine.band(&ctxs, ops, lo, piece);
            });
        }
    }
}

/// [`KernelEngine::run_batch`]'s body with the band count given instead of
/// sized from the pool — for the band-count invariance tests. It bands
/// `engine`'s own `prepare` / `band`, bypassing any `run_batch` override.
#[doc(hidden)]
pub fn run_batch_in_bands<E: KernelEngine + ?Sized>(
    engine: &E,
    ops: &[StageOp<'_>],
    out: BatchOut<'_>,
    bands: usize,
    panels: Option<&mut PanelCache>,
) {
    run_banded(engine, ops, out, &|_, _| bands, panels);
}

/// Ops (sparse MACs, or elements of per-element glue) a band must carry to
/// be worth dealing to a pool worker. Derived from the `fork_join` group
/// of `crates/bench/benches/engine.rs`: a two-task `rayon::scope` whose
/// worker is still polling costs ≈ 2 µs over its tasks on the 2-core KVM
/// guest (a parked worker ≈ 80 µs, but the pool polls across the gaps of a
/// training step), which is a few thousand ops — a band carries a few
/// multiples of that. On `stbench`'s `resnet_pruned_mt` 1 K, 2 K, 4 K and
/// 8 K read alike and 32 K and 128 K read worse (sweep in CHANGES.md,
/// PR 24); 8 K is the largest of the plateau, the fewest fork-joins.
const MIN_OPS_PER_BAND: usize = 8 * 1024;

/// How many bands [`for_each_band`] should cut `units` independent units
/// carrying `work` ops altogether into: one per rayon worker, but no more
/// than the work amortizes (`MIN_OPS_PER_BAND` ops each) and never more
/// than there are units.
pub fn bands_for(units: usize, work: usize) -> usize {
    let by_work = work.max(1).div_ceil(MIN_OPS_PER_BAND);
    rayon::current_num_threads().min(by_work).clamp(1, units.max(1))
}

/// The one band splitter. `parts` are independent slices of whole
/// `unit_len`-element units (lengths may differ); their concatenated unit
/// space is cut into at most `bands` near-equal contiguous runs and **one
/// task per band** calls `work(part, first_unit, piece)` for each of its
/// pieces in order — a run crossing a part boundary is one piece per part,
/// so a piece is always a contiguous unit range of one part, starting at
/// that part's unit `first_unit`. The last band runs on the calling
/// thread, which would otherwise idle inside the scope; one band runs
/// there without entering a scope at all.
///
/// Every unit is visited exactly once, but in no defined order across
/// bands: `work` must be position-pure — its effect on a unit may depend
/// only on `(part, unit index, unit contents)`. The convolution bands are
/// (disjoint output units, per-unit accumulation order untouched), so is
/// the pruner's snap/zero sweep (draws keyed by element position) and so
/// is the per-sample and per-channel glue dealt through [`map_in_bands`]
/// and `BatchNorm2d` (an element is one sample's value, or one channel's
/// whole reduction), which is why results are bitwise identical at every
/// band count.
///
/// # Panics
///
/// Panics if a part is not a whole number of units.
pub fn for_each_band<T: Send>(
    parts: Vec<&mut [T]>,
    unit_len: usize,
    bands: usize,
    work: &(dyn Fn(usize, usize, &mut [T]) + Sync),
) {
    let unit_len = unit_len.max(1);
    let units: usize = parts.iter().map(|part| part.len() / unit_len).sum();
    let per_band = units.div_ceil(bands.max(1)).max(1);
    if per_band >= units {
        // One band: it runs here, with no scope to enter.
        for (p, part) in parts.into_iter().enumerate() {
            assert_eq!(part.len() % unit_len, 0, "part {p} is not whole units");
            if !part.is_empty() {
                work(p, 0, part);
            }
        }
        return;
    }
    let run = move |band: Vec<(usize, usize, &mut [T])>| {
        for (part, first_unit, piece) in band {
            work(part, first_unit, piece);
        }
    };
    rayon::scope(|scope| {
        let mut band = Vec::new();
        let mut room = per_band;
        for (p, mut rest) in parts.into_iter().enumerate() {
            assert_eq!(rest.len() % unit_len, 0, "part {p} is not whole units");
            let mut first_unit = 0;
            while !rest.is_empty() {
                if room == 0 {
                    let full = std::mem::take(&mut band);
                    scope.spawn(move |_| run(full));
                    room = per_band;
                }
                let n = room.min(rest.len() / unit_len);
                let (piece, tail) = rest.split_at_mut(n * unit_len);
                band.push((p, first_unit, piece));
                rest = tail;
                first_unit += n;
                room -= n;
            }
        }
        run(band);
    });
}

/// `(0..n).map(f).collect()` with the index range dealt to the pool in
/// contiguous runs: the per-sample glue of a step (compressing a batch,
/// building its masks, its channels-last copies). `work` prices the whole
/// call in ops, one per element touched, for [`bands_for`]. Each value
/// depends on its index alone, so the result equals the sequential map at
/// every band count.
pub fn map_banded<T: Send>(n: usize, work: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    map_in_bands(n, bands_for(n, work), f)
}

/// [`map_banded`] with the band count given instead of sized from the
/// pool — for the band-count invariance tests.
#[doc(hidden)]
pub fn map_in_bands<T: Send>(n: usize, bands: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    if bands <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_band(vec![&mut slots[..]], 1, bands, &|_, first, piece| {
        for (i, slot) in piece.iter_mut().enumerate() {
            *slot = Some(f(first + i));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the splitter visits every unit"))
        .collect()
}

/// The one copy of the pseudo-random sparse fixtures the engine unit
/// tests (here and `simd_engine`) share.
#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use sparsetrain_tensor::Tensor3;

    /// `engine`'s batches at exactly the given band count, through
    /// [`run_batch_in_bands`], instead of the pool-sized one.
    pub(crate) struct InBands<'e>(pub(crate) &'e dyn KernelEngine, pub(crate) usize);

    impl KernelEngine for InBands<'_> {
        fn run_batch(&self, ops: &[StageOp<'_>], out: BatchOut<'_>, panels: Option<&mut PanelCache>) {
            run_batch_in_bands(self.0, ops, out, self.1, panels);
        }
    }

    /// The scalar reference at one band: the unbanded order every parity
    /// oracle is computed in, whatever the pool size.
    pub(crate) const REFERENCE: InBands<'static> = InBands(&ScalarEngine, 1);

    /// `op` on `engine`, added into the pre-seeded `out`: a batch of one.
    pub(crate) fn run_into(engine: &dyn KernelEngine, op: &StageOp<'_>, out: &mut [f32]) {
        engine.run_batch(std::slice::from_ref(op), BatchOut::PerSample(vec![out]), None);
    }

    /// One stage's batch on `engine` at `bands` bands into zeroed outputs:
    /// one per sample, or the one shared `dW` of a GTW batch.
    pub(crate) fn batch_in_bands(
        engine: &dyn KernelEngine,
        ops: &[StageOp<'_>],
        bands: usize,
    ) -> Vec<Vec<f32>> {
        let shared = ops[0].stage() == Stage::WeightGrad;
        let mut outs = vec![vec![0.0; ops[0].out_len()]; if shared { 1 } else { ops.len() }];
        let out = if shared {
            BatchOut::Shared(&mut outs[0])
        } else {
            BatchOut::PerSample(outs.iter_mut().map(Vec::as_mut_slice).collect())
        };
        run_batch_in_bands(engine, ops, out, bands, None);
        outs
    }

    pub fn pseudo(seed: &mut u64) -> f32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed % 2000) as f32 / 1000.0) - 1.0
    }

    pub fn sparse_tensor(c: usize, h: usize, w: usize, density_pct: u64, seed: &mut u64) -> Tensor3 {
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

    /// A `3 × 9 × 11` input, `filters` kernels, a bias and a matching
    /// output gradient, all at `density_pct` percent density.
    pub fn fixtures(
        seed: u64,
        density_pct: u64,
        filters: usize,
        geom: ConvGeometry,
    ) -> (SparseFeatureMap, Tensor4, Vec<f32>, SparseFeatureMap) {
        fixtures_with(seed, density_pct, 3, filters, geom)
    }

    /// [`fixtures`] on a `channels × 9 × 11` input.
    pub fn fixtures_with(
        seed: u64,
        density_pct: u64,
        channels: usize,
        filters: usize,
        geom: ConvGeometry,
    ) -> (SparseFeatureMap, Tensor4, Vec<f32>, SparseFeatureMap) {
        let mut s = seed;
        let (h, w) = (9, 11);
        let input = sparse_tensor(channels, h, w, density_pct, &mut s);
        let weights = Tensor4::from_fn(filters, channels, geom.kernel, geom.kernel, |_, _, _, _| {
            // Sprinkle exact zeros so the w == 0 tap skip is exercised.
            let v = pseudo(&mut s);
            if v.abs() < 0.1 {
                0.0
            } else {
                v
            }
        });
        let bias: Vec<f32> = (0..filters).map(|_| pseudo(&mut s)).collect();
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
        let dout = sparse_tensor(filters, oh, ow, density_pct, &mut s);
        (
            SparseFeatureMap::from_tensor(&input),
            weights,
            bias,
            SparseFeatureMap::from_tensor(&dout),
        )
    }

    /// The three stage ops of one fixture (GTA onto the input's extent).
    pub fn stage_ops<'a>(
        input: &'a SparseFeatureMap,
        weights: &'a Tensor4,
        bias: Option<&'a [f32]>,
        dout: &'a SparseFeatureMap,
        masks: &'a [RowMask],
        geom: ConvGeometry,
    ) -> [StageOp<'a>; 3] {
        [
            StageOp::Forward {
                input,
                weights,
                bias,
                geom,
            },
            StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks,
                in_h: input.height(),
                in_w: input.width(),
            },
            StageOp::WeightGrad { input, dout, geom },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::{batch_in_bands, fixtures, run_into, stage_ops, InBands, REFERENCE};
    use super::*;

    const GEOM: ConvGeometry = ConvGeometry {
        kernel: 3,
        stride: 1,
        pad: 1,
    };

    /// Every stage, pool-sized and explicit band counts (clamped to the
    /// unit count): banding never moves a bit.
    #[test]
    fn parallel_matches_scalar_on_every_stage() {
        let (input, weights, bias, dout) = fixtures(99, 40, 4, GEOM);
        let masks = input.masks();
        for op in stage_ops(&input, &weights, Some(&bias), &dout, &masks, GEOM) {
            let want = op.run_on(&REFERENCE);
            assert_eq!(op.run_on(&ScalarEngine), want, "{} pool-sized", op.stage());
            for threads in [0usize, 1, 2, 7, 64] {
                let got = op.run_on(&InBands(&ScalarEngine, threads));
                assert_eq!(got, want, "{} threads {threads}", op.stage());
            }
        }
    }

    /// Every stage's batch — per-sample outputs for Forward/GTA, the
    /// shared accumulator for GTW — equals the scalar engine sample by
    /// sample, at every band count.
    #[test]
    fn parallel_batches_match_per_sample_scalar() {
        let samples: Vec<_> = (0..5).map(|s| fixtures(100 + s * 17, 40, 4, GEOM)).collect();
        let weights = &samples[0].1;
        let masks: Vec<Vec<RowMask>> = samples.iter().map(|s| s.0.masks()).collect();
        for stage in 0..3 {
            let ops: Vec<StageOp<'_>> = samples
                .iter()
                .zip(&masks)
                .map(|((input, _, bias, dout), m)| {
                    stage_ops(input, weights, Some(bias), dout, m, GEOM)[stage]
                })
                .collect();
            let shared = ops[0].stage() == Stage::WeightGrad;
            let mut want: Vec<Vec<f32>> =
                vec![vec![0.0; ops[0].out_len()]; if shared { 1 } else { ops.len() }];
            for (s, op) in ops.iter().enumerate() {
                run_into(&REFERENCE, op, &mut want[if shared { 0 } else { s }]);
            }
            for threads in [1usize, 2, 3, 7, 8] {
                let got = batch_in_bands(&ScalarEngine, &ops, threads);
                assert_eq!(got, want, "{} threads {threads}", ops[0].stage());
            }
        }
    }

    /// GTW is priced by the gradient it walks: against the same dense
    /// input, a 16-sample batch of 5 %-dense `dout`s is worth a tenth of
    /// the bands a dense one is, and each gets what its work amortizes —
    /// `MIN_OPS_PER_BAND` ops a band, within the pool and the unit count.
    #[test]
    fn weight_grad_bands_follow_the_gradient_density() {
        let mut s = 7u64;
        let input = SparseFeatureMap::from_tensor(&test_fixtures::sparse_tensor(16, 16, 16, 100, &mut s));
        let douts = [5, 100]
            .map(|pct| SparseFeatureMap::from_tensor(&test_fixtures::sparse_tensor(16, 16, 16, pct, &mut s)));
        let [sparse, dense] = douts.each_ref().map(|dout| StageOp::WeightGrad {
            input: &input,
            dout,
            geom: GEOM,
        });
        assert!(
            sparse.work() * 10 < dense.work(),
            "work must follow dout's non-zeros"
        );
        for op in [&sparse, &dense] {
            let (units, work) = (op.split().0, 16 * op.work());
            let amortized = work.div_ceil(MIN_OPS_PER_BAND);
            assert_eq!(
                bands_for(units, work),
                rayon::current_num_threads().min(amortized).min(units)
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut dw = vec![0.0f32; 36];
        for engine in [&REFERENCE as &dyn KernelEngine, &ScalarEngine] {
            engine.run_batch(&[], BatchOut::PerSample(Vec::new()), None);
            engine.run_batch(&[], BatchOut::Shared(&mut dw), None);
        }
        assert!(dw.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn run_rejects_a_mis_sized_output() {
        let (input, weights, _, _) = fixtures(5, 40, 4, GEOM);
        let op = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: None,
            geom: GEOM,
        };
        run_into(&ScalarEngine, &op, &mut vec![0.0; op.out_len() - 1]);
    }

    /// The scalar reference reads the weights in place: it prepares empty
    /// contexts, one per op, and leaves a cache it is handed empty.
    #[test]
    fn scalar_prepares_empty_contexts_and_leaves_the_cache_alone() {
        let (input, weights, bias, dout) = fixtures(5, 40, 4, GEOM);
        let masks = input.masks();
        let ops = stage_ops(&input, &weights, Some(&bias), &dout, &masks, GEOM);
        let mut cache = PanelCache::new();
        let ctxs = ScalarEngine.prepare(&ops, Some(&mut cache));
        assert_eq!(ctxs.len(), ops.len());
        assert!(ctxs.iter().all(BandContext::is_empty));
        assert!(cache.is_empty() && cache.bytes() == 0);
    }

    /// The splitter deals work per band, not per piece: 16 equal parts on
    /// 2 bands are two tasks of eight pieces each, the last on the caller.
    /// Which thread runs the other is the pool's business (the caller
    /// itself, when no worker picked it up).
    #[test]
    fn for_each_band_runs_one_task_per_band() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let mut data = vec![[0.0f32; 8]; 16];
        let parts: Vec<&mut [f32]> = data.iter_mut().map(|p| &mut p[..]).collect();
        let seen = Mutex::new(Vec::new());
        for_each_band(parts, 1, 2, &|part, _, _| {
            seen.lock().unwrap().push((part, std::thread::current().id()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(part, _)| part);
        assert_eq!(seen.len(), 16, "one piece per part");
        let (first, last) = seen.split_at(8);
        assert!(
            first.iter().all(|&(_, id)| id == first[0].1),
            "band 0 changed threads"
        );
        assert!(last.iter().all(|&(_, id)| id == std::thread::current().id()));
        let ids: HashSet<_> = seen.iter().map(|&(_, id)| id).collect();
        assert!(ids.len() <= 2, "two bands, at most two threads");
    }

    /// Values built per index through the splitter equal the sequential
    /// map at every band count — empty and single-element ranges included
    /// — for the three per-sample values a step builds this way.
    #[test]
    fn map_in_bands_equals_the_sequential_map() {
        let mut s = 11u64;
        let tensors: Vec<_> = (0..16)
            .map(|i| test_fixtures::sparse_tensor(3, 5 + i % 2, 7, 40, &mut s))
            .collect();
        for n in [0usize, 1, 16] {
            let compress = |i: usize| SparseFeatureMap::from_tensor(&tensors[i]);
            let want: Vec<SparseFeatureMap> = (0..n).map(compress).collect();
            let want_masks: Vec<Vec<RowMask>> = want.iter().map(SparseFeatureMap::masks).collect();
            for bands in [1usize, 2, 3, 4, 7] {
                assert_eq!(map_in_bands(n, bands, &compress), want, "{n} on {bands}");
                assert_eq!(
                    map_in_bands(n, bands, &|i| want[i].masks()),
                    want_masks,
                    "{n} on {bands}"
                );
            }
        }
    }

    /// Parts of unequal length (empty ones included) × unit length × band
    /// count: every unit is visited exactly once, a piece is a whole-unit
    /// range of one part starting at `first_unit`, and no more than `bands`
    /// tasks run.
    #[test]
    fn for_each_band_visits_every_unit_once_at_its_own_coordinates() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let code = |part: usize, element: usize| (part * 1000 + element) as f32 + 1.0;
        let shapes: [&[usize]; 6] = [&[5, 0, 9, 2], &[0, 0, 1], &[1; 16], &[], &[7], &[0, 4, 4, 0]];
        for units_per_part in shapes {
            for unit_len in [1usize, 3] {
                for bands in 1..=9usize {
                    let ctx = format!("{units_per_part:?} × {unit_len} on {bands} bands");
                    let mut data: Vec<Vec<f32>> = units_per_part
                        .iter()
                        .enumerate()
                        .map(|(p, &units)| (0..units * unit_len).map(|i| code(p, i)).collect())
                        .collect();
                    let parts: Vec<&mut [f32]> = data.iter_mut().map(Vec::as_mut_slice).collect();
                    let tasks = Mutex::new(HashSet::new());
                    for_each_band(parts, unit_len, bands, &|part, first_unit, piece| {
                        tasks.lock().unwrap().insert(std::thread::current().id());
                        assert!(!piece.is_empty() && piece.len() % unit_len == 0, "{ctx}");
                        for (i, v) in piece.iter_mut().enumerate() {
                            // A piece off its coordinates, spanning parts or
                            // visited twice would not hold its own code.
                            assert_eq!(*v, code(part, first_unit * unit_len + i), "{ctx}");
                            *v = 0.0;
                        }
                    });
                    assert!(data.iter().flatten().all(|&v| v == 0.0), "unit missed: {ctx}");
                    assert!(tasks.into_inner().unwrap().len() <= bands, "{ctx}");
                }
            }
        }
    }
}
