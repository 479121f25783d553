//! The execution context: one resolved engine plus its quarantine list.
//!
//! [`ExecutionContext`] is the object call sites thread through a training
//! pass instead of re-resolving an engine token at every layer: it owns the
//! resolved `&'static dyn KernelEngine` (picked once, by [`EngineHandle`]).
//! Construction is name-driven — from a registry handle, a string
//! (`"scalar"`, `"simd"`, `"fixed"`, `"fixed:qI.F"`, the `"parallel"`,
//! `"parallel:simd"`, `"im2row"`, `"parallel:im2row"` and `"auto"`
//! aliases, or anything registered; `SPARSETRAIN_ENGINE` resolves through
//! [`crate::registry::env_override`]) — so adding a backend never changes
//! a call-site signature. Per-call operand state travels on the engine
//! seam itself ([`crate::engine::BandContext`], built by the engine's
//! `prepare`), not in this context, so a context stays valid across calls
//! of any shape.
//!
//! Convolutions run through three batch entry points —
//! [`ExecutionContext::forward_batch_for`],
//! [`ExecutionContext::input_grad_batch_for_into`] and
//! [`ExecutionContext::weight_grad_batch_for`] — each a thin wrapper that
//! builds the batch's [`StageOp`]s and hands them to the context's one
//! engine. An `"auto"` context built while `SPARSETRAIN_PLAN` names a
//! legacy plan file reads the plan and checks it float-only
//! ([`crate::legacy_plan`]), then runs `simd` like any other `"auto"`
//! context.
//!
//! ```
//! use sparsetrain_sparse::ExecutionContext;
//!
//! let ctx = ExecutionContext::by_name("parallel:simd").unwrap();
//! assert_eq!(ctx.engine_name(), "parallel:simd");
//! ```

use crate::engine::{BatchOut, KernelEngine, StageOp};
use crate::legacy_plan::{check_env_plan, Plan};
use crate::mask::RowMask;
use crate::registry::{lookup, same_engine, EngineHandle, UnknownEngine};
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::cell::Cell;

/// The reference engine: the quarantine fallback.
fn scalar_handle() -> EngineHandle {
    lookup("scalar").expect("scalar engine is always registered")
}

/// A resolved engine plus its quarantine list.
///
/// # Quarantine
///
/// A supervisor that catches an engine panicking mid-band can
/// [`quarantine`](ExecutionContext::quarantine) that engine: every
/// subsequent dispatch of it — under any of its names —
/// silently falls back to the `scalar` reference engine instead. Because
/// every float engine is parity-pinned bitwise to scalar, quarantine
/// degrades speed, never the training trajectory. (`fixed` is outside that
/// parity guarantee — quarantining a fixed-point context changes its
/// numerics, which is why the supervisor only ever quarantines float
/// engines.)
#[derive(Debug)]
pub struct ExecutionContext {
    handle: EngineHandle,
    quarantined: Vec<EngineHandle>,
    last_dispatch: Cell<Option<&'static str>>,
}

impl ExecutionContext {
    /// Context executing on the engine `handle` resolves to. Selecting the
    /// `"auto"` engine while `SPARSETRAIN_PLAN` names a legacy plan file
    /// reads that plan and checks it float-only
    /// ([`crate::legacy_plan::check_env_plan`]); a float plan is ignored.
    ///
    /// # Panics
    ///
    /// Panics when `SPARSETRAIN_PLAN` is set but names a file that cannot
    /// be read or parsed, or a plan naming an engine other than `scalar` /
    /// `simd` (consistent with the other misconfigured-environment panics
    /// on the selection paths).
    pub fn new(handle: EngineHandle) -> Self {
        if handle.name() == "auto" {
            check_env_plan().unwrap_or_else(|e| panic!("{e}"));
        }
        Self {
            handle,
            quarantined: Vec::new(),
            last_dispatch: Cell::new(None),
        }
    }

    /// Context on the reference scalar engine.
    pub fn scalar() -> Self {
        Self::new(scalar_handle())
    }

    /// Context on a registered engine, by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownEngine`] when `name` is not registered.
    pub fn by_name(name: &str) -> Result<Self, UnknownEngine> {
        name.parse().map(Self::new)
    }

    /// The registry handle this context resolved.
    pub fn handle(&self) -> EngineHandle {
        self.handle
    }

    /// The resolved engine's registered name. This is the *configured*
    /// name — it does not change when the engine is quarantined, so
    /// identity checks (snapshot validation, reporting) keep working;
    /// [`last_dispatched_engine`](Self::last_dispatched_engine) reports
    /// what actually ran.
    pub fn engine_name(&self) -> &'static str {
        self.handle.name()
    }

    // -- Quarantine ----------------------------------------------------------

    /// Quarantines the engine `name` resolves to: every later dispatch of
    /// that engine, under any of its names, falls back to `scalar`.
    /// Returns `true` if the engine was newly quarantined, `false` when it
    /// already was (under this or another name), when `name` does not
    /// resolve, and for any name of the scalar engine itself (`"scalar"`,
    /// `"parallel"`: the reference engine is the fallback and can never be
    /// quarantined).
    pub fn quarantine(&mut self, name: &str) -> bool {
        let Some(handle) = lookup(name) else {
            return false;
        };
        if same_engine(handle, scalar_handle()) || self.quarantines(handle) {
            return false;
        }
        self.quarantined.push(handle);
        true
    }

    /// Whether the engine `name` resolves to is currently quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        lookup(name).is_some_and(|handle| self.quarantines(handle))
    }

    /// Whether `handle`'s engine is on the quarantine list.
    fn quarantines(&self, handle: EngineHandle) -> bool {
        self.quarantined.iter().any(|&q| same_engine(q, handle))
    }

    /// The names engines were quarantined under, in quarantine order.
    pub fn quarantined(&self) -> Vec<&'static str> {
        self.quarantined.iter().map(EngineHandle::name).collect()
    }

    /// The engine name of the most recent dispatch through this context
    /// (after quarantine mapping), if any — a supervisor's hint for which
    /// engine was live when a step panicked.
    pub fn last_dispatched_engine(&self) -> Option<&'static str> {
        self.last_dispatch.get()
    }

    /// The single choke point every execution goes through: maps the
    /// context's engine through the quarantine list (a quarantined engine
    /// runs as `scalar`), records the dispatched engine, and gives the
    /// fault-injection layer its engine-panic seam.
    fn dispatch(&self) -> &'static dyn KernelEngine {
        let effective = if self.quarantines(self.handle) {
            scalar_handle()
        } else {
            self.handle
        };
        self.last_dispatch.set(Some(effective.name()));
        if sparsetrain_faults::on_engine_dispatch(effective.name()) {
            sparsetrain_faults::panic_injected(sparsetrain_faults::Site::EnginePanic, effective.name());
        }
        effective.engine()
    }

    /// Always `None`: a context holds no plan. A legacy plan is read,
    /// checked float-only and ignored ([`crate::legacy_plan`]). The method
    /// stays only because the `stbench` benchmark harness, which must build
    /// unedited, still reads it; it goes with the harness's next revision.
    pub fn plan(&self) -> Option<&Plan> {
        None
    }

    // -- Batch entry points --------------------------------------------------
    //
    // The `layer` argument is unused: every cell runs on the context's one
    // engine. It stays for the `stbench` harness, as `plan` does.

    /// Batched forward step: one freshly allocated output per input.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward_batch_for(
        &mut self,
        _layer: &str,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> Vec<Tensor3> {
        let ops: Vec<StageOp<'_>> = inputs
            .iter()
            .map(|input| StageOp::Forward {
                input,
                weights,
                bias,
                geom,
            })
            .collect();
        let mut outs: Vec<Tensor3> = inputs
            .iter()
            .map(|input| {
                let oh = geom.output_extent(input.height());
                let ow = geom.output_extent(input.width());
                Tensor3::zeros(weights.filters(), oh, ow)
            })
            .collect();
        let slices = outs.iter_mut().map(Tensor3::as_mut_slice).collect();
        self.dispatch().run_batch(&ops, BatchOut::PerSample(slices));
        outs
    }

    /// Batched GTA step, accumulating into the pre-seeded `dins` (each
    /// sample's `din` sets its own spatial extent; `masks[s]` are sample
    /// `s`'s forward non-zero masks).
    ///
    /// # Panics
    ///
    /// Panics if the batch slices disagree in length or on shape
    /// mismatches.
    pub fn input_grad_batch_for_into(
        &mut self,
        _layer: &str,
        douts: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[Vec<RowMask>],
        dins: &mut [Tensor3],
    ) {
        assert_eq!(douts.len(), dins.len(), "batch length mismatch");
        assert_eq!(douts.len(), masks.len(), "batch mask length mismatch");
        let ops: Vec<StageOp<'_>> = douts
            .iter()
            .zip(masks)
            .zip(dins.iter())
            .map(|((dout, masks), din)| StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks,
                in_h: din.height(),
                in_w: din.width(),
            })
            .collect();
        let slices = dins.iter_mut().map(Tensor3::as_mut_slice).collect();
        self.dispatch().run_batch(&ops, BatchOut::PerSample(slices));
    }

    /// Batched GTW step: every sample's weight gradient is added into the
    /// shared `dw` in sample order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != douts.len()` or on shape mismatches.
    pub fn weight_grad_batch_for(
        &mut self,
        _layer: &str,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        assert_eq!(inputs.len(), douts.len(), "batch length mismatch");
        let ops: Vec<StageOp<'_>> = inputs
            .iter()
            .zip(douts)
            .map(|(input, dout)| StageOp::WeightGrad { input, dout, geom })
            .collect();
        if let Some(StageOp::WeightGrad { input, dout, .. }) = ops.first() {
            let shape = (dout.channels(), input.channels(), geom.kernel, geom.kernel);
            assert_eq!(dw.shape(), shape, "dw tensor shape mismatch");
        }
        self.dispatch()
            .run_batch(&ops, BatchOut::Shared(dw.as_mut_slice()));
    }
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self::scalar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::REFERENCE;

    #[test]
    fn default_is_scalar() {
        let ctx = ExecutionContext::default();
        assert_eq!(ctx.engine_name(), "scalar");
        assert_eq!(ctx.handle().name(), "scalar");
        assert!(ctx.plan().is_none());
    }

    #[test]
    fn by_name_resolves_every_builtin() {
        for name in ["scalar", "parallel", "fixed"] {
            let ctx = ExecutionContext::by_name(name).unwrap();
            assert_eq!(ctx.engine_name(), name);
        }
        assert_eq!(ExecutionContext::by_name("auto").unwrap().engine_name(), "auto");
        assert!(ExecutionContext::by_name("nope").is_err());
    }

    fn batch_fixture() -> (Vec<SparseFeatureMap>, Tensor4, ConvGeometry) {
        let geom = ConvGeometry::new(3, 1, 1);
        let inputs: Vec<SparseFeatureMap> = (0..3)
            .map(|s| {
                SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 5, 5, |c, y, x| {
                    if (s + c + y + x) % 2 == 0 {
                        (y + x) as f32 * 0.25 - s as f32 * 0.125
                    } else {
                        0.0
                    }
                }))
            })
            .collect();
        let weights = Tensor4::from_fn(2, 2, 3, 3, |f, c, u, v| ((f + c + u + v) % 3) as f32 * 0.5 - 0.5);
        (inputs, weights, geom)
    }

    /// Asserts `outs` is, bit for bit, the scalar engine's forward of
    /// `inputs` sample by sample.
    fn assert_scalar_forward(
        outs: &[Tensor3],
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
    ) {
        assert_eq!(outs.len(), inputs.len());
        for (input, out) in inputs.iter().zip(outs) {
            let op = StageOp::Forward {
                input,
                weights,
                bias: None,
                geom,
            };
            assert_eq!(out.as_slice(), op.run_on(&REFERENCE));
        }
    }

    #[test]
    fn entry_points_run_the_resolved_engine() {
        let mut ctx = ExecutionContext::by_name("parallel").unwrap();
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("conv1", &inputs, &weights, None, geom);
        assert_scalar_forward(&outs, &inputs, &weights, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("parallel"));
        let mut dw = Tensor4::zeros(2, 2, 3, 3);
        ctx.weight_grad_batch_for("conv1", &inputs, &inputs, geom, &mut dw);
        assert!(dw.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn auto_runs_its_own_engine_bitwise_scalar() {
        let mut auto = ExecutionContext::by_name("auto").unwrap();
        let mut scalar = ExecutionContext::scalar();
        let (inputs, weights, geom) = batch_fixture();

        let outs = auto.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_scalar_forward(&outs, &inputs, &weights, geom);
        assert_eq!(auto.last_dispatched_engine(), Some("auto"));

        let mut dw_auto = Tensor4::zeros(2, 2, 3, 3);
        let mut dw_scalar = Tensor4::zeros(2, 2, 3, 3);
        auto.weight_grad_batch_for("c1", &inputs, &inputs, geom, &mut dw_auto);
        scalar.weight_grad_batch_for("c1", &inputs, &inputs, geom, &mut dw_scalar);
        assert_eq!(dw_auto.as_slice(), dw_scalar.as_slice());

        let masks: Vec<Vec<RowMask>> = inputs.iter().map(SparseFeatureMap::masks).collect();
        let mut dins_auto: Vec<Tensor3> = inputs.iter().map(|_| Tensor3::zeros(2, 5, 5)).collect();
        let mut dins_scalar = dins_auto.clone();
        auto.input_grad_batch_for_into("c1", &inputs, &weights, geom, &masks, &mut dins_auto);
        scalar.input_grad_batch_for_into("c1", &inputs, &weights, geom, &masks, &mut dins_scalar);
        for (a, b) in dins_auto.iter().zip(&dins_scalar) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn quarantine_falls_back_to_scalar_bitwise() {
        let mut ctx = ExecutionContext::by_name("parallel:simd").unwrap();
        let (inputs, weights, geom) = batch_fixture();
        let before = ctx.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("parallel:simd"));

        assert!(ctx.quarantine("parallel:simd"));
        assert!(!ctx.quarantine("parallel:simd"), "duplicates are refused");
        assert!(!ctx.quarantine("scalar"), "the fallback engine is untouchable");
        assert_eq!(ctx.quarantined(), ["parallel:simd".to_string()]);

        let after = ctx.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("scalar"));
        assert_eq!(ctx.engine_name(), "parallel:simd", "configured name survives");
        for (a, b) in after.iter().zip(&before) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "parity pin makes fallback bitwise-safe"
            );
        }
    }

    /// Quarantine follows the engine, not the name: once `simd` is
    /// quarantined, a context on its alias `parallel:simd` falls back to
    /// scalar too, and no name of the scalar engine can be quarantined.
    #[test]
    fn quarantine_follows_the_engine_not_the_name() {
        let mut ctx = ExecutionContext::by_name("parallel:simd").unwrap();
        assert!(ctx.quarantine("simd"));
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("scalar"));
        assert_scalar_forward(&outs, &inputs, &weights, geom);

        assert!(ctx.is_quarantined("parallel:simd"));
        assert!(ctx.is_quarantined("auto"));
        assert!(!ctx.quarantine("im2row"), "already quarantined as simd");
        assert!(!ctx.quarantine("parallel"), "an alias of the fallback engine");
        assert!(!ctx.is_quarantined("parallel"));
        assert_eq!(ctx.quarantined(), ["simd"]);
    }
}
