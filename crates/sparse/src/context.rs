//! The execution context: one resolved engine plus, on `auto`, the plan
//! it was handed.
//!
//! [`ExecutionContext`] is the object call sites thread through a training
//! pass instead of re-resolving an engine token at every layer: it owns the
//! resolved `&'static dyn KernelEngine` (picked once, by [`EngineHandle`])
//! and, on the `"auto"` engine, the [`Plan`] a file or snapshot handed in.
//! Construction is name-driven — from a registry handle, a string
//! (`"scalar"`, `"simd"`, `"fixed"`, `"fixed:qI.F"`, the `"parallel"`,
//! `"parallel:simd"`, `"im2row"`, `"parallel:im2row"` and `"auto"`
//! aliases, or anything registered), or the `SPARSETRAIN_ENGINE`
//! environment variable — so adding a backend never changes a call-site
//! signature. Per-call operand state travels on the engine seam itself
//! ([`crate::engine::BandContext`], built by the engine's `prepare`), not
//! in this context, so a context stays valid across calls of any shape.
//!
//! # Planned execution
//!
//! Convolutions run through three entry points keyed by a layer id —
//! [`ExecutionContext::forward_batch_for`],
//! [`ExecutionContext::input_grad_batch_for_into`] and
//! [`ExecutionContext::weight_grad_batch_for`] — each a thin wrapper that
//! builds the batch's [`StageOp`]s and hands them to one dispatch
//! function. A context holding a [`Plan`] runs each `(layer, stage)` cell
//! on the engine the plan names for it, and a cell the plan does not name
//! on the plan's default engine; nothing is decided or recorded at run
//! time. Only an `"auto"` context holds a plan, and only when one is handed
//! in: the file `SPARSETRAIN_PLAN` names, a snapshot the trainer resumes,
//! or [`ExecutionContext::with_plan`]. Every other context, `"auto"`
//! without a plan included, runs every cell on its own engine.
//!
//! ```
//! use sparsetrain_sparse::ExecutionContext;
//!
//! let mut ctx = ExecutionContext::by_name("parallel:simd").unwrap();
//! assert_eq!(ctx.engine_name(), "parallel:simd");
//! assert!(ctx.plan().is_none()); // not a planned context
//! ```

use crate::engine::{BatchOut, KernelEngine, StageOp};
use crate::mask::RowMask;
use crate::planner::{env_plan, Plan, Stage};
use crate::registry::{env_override, lookup, EngineHandle, UnknownEngine};
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::cell::Cell;

/// The reference engine: the quarantine fallback.
fn scalar_handle() -> EngineHandle {
    lookup("scalar").expect("scalar engine is always registered")
}

/// Whether two handles dispatch to the same engine: an alias and its
/// target do. Compared by address *and* vtable, because the zero-sized
/// engines' statics may share an address with another engine's.
fn same_engine(a: EngineHandle, b: EngineHandle) -> bool {
    std::ptr::eq(a.engine(), b.engine())
}

/// A resolved engine plus, on the `"auto"` engine, the plan it was handed.
///
/// # Quarantine
///
/// A supervisor that catches an engine panicking mid-band can
/// [`quarantine`](ExecutionContext::quarantine) that engine: every
/// subsequent dispatch of it — under any of its names, direct or planned —
/// silently falls back to the `scalar` reference engine instead. Because
/// every float engine is parity-pinned bitwise to scalar, quarantine
/// degrades speed, never the training trajectory. (`fixed` is outside that
/// parity guarantee — quarantining a fixed-point context changes its
/// numerics, which is why the supervisor only ever quarantines float
/// engines.)
#[derive(Debug)]
pub struct ExecutionContext {
    handle: EngineHandle,
    plan: Option<Plan>,
    quarantined: Vec<EngineHandle>,
    last_dispatch: Cell<Option<&'static str>>,
}

impl ExecutionContext {
    /// Context executing on the engine `handle` resolves to. Selecting the
    /// `"auto"` engine while `SPARSETRAIN_PLAN` names a plan file attaches
    /// that plan.
    ///
    /// # Panics
    ///
    /// Panics when `SPARSETRAIN_PLAN` is set but names a file that cannot
    /// be read or parsed (consistent with the other misconfigured-
    /// environment panics on the selection paths).
    pub fn new(handle: EngineHandle) -> Self {
        let plan = if handle.name() == "auto" {
            env_plan().unwrap_or_else(|e| panic!("{e}"))
        } else {
            None
        };
        Self {
            handle,
            plan,
            quarantined: Vec::new(),
            last_dispatch: Cell::new(None),
        }
    }

    /// Context on the reference scalar engine.
    pub fn scalar() -> Self {
        Self::new(scalar_handle())
    }

    /// An `"auto"` context holding `plan`: the planned entry points run
    /// each (layer, stage) cell on the engine `plan` names for it, or on
    /// its default engine.
    pub fn with_plan(plan: Plan) -> Self {
        Self {
            handle: lookup("auto").expect("auto engine is always registered"),
            plan: Some(plan),
            quarantined: Vec::new(),
            last_dispatch: Cell::new(None),
        }
    }

    /// Context on a registered engine, by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownEngine`] when `name` is not registered.
    pub fn by_name(name: &str) -> Result<Self, UnknownEngine> {
        name.parse().map(Self::new)
    }

    /// Context from the `SPARSETRAIN_ENGINE` environment override, falling
    /// back to the scalar engine when the variable is unset.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownEngine`] when the variable names an unregistered
    /// engine.
    pub fn from_env() -> Result<Self, UnknownEngine> {
        Ok(env_override()?.map_or_else(Self::scalar, Self::new))
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

    /// Maps `handle` through the quarantine list: a handle dispatching to
    /// a quarantined engine resolves to `scalar`, anything else to itself.
    fn effective(&self, handle: EngineHandle) -> EngineHandle {
        if self.quarantines(handle) {
            scalar_handle()
        } else {
            handle
        }
    }

    /// The single choke point every execution goes through: applies the
    /// quarantine mapping, records the dispatched engine, and gives the
    /// fault-injection layer its engine-panic seam.
    fn dispatch(&self, handle: EngineHandle) -> &'static dyn KernelEngine {
        let effective = self.effective(handle);
        self.last_dispatch.set(Some(effective.name()));
        if sparsetrain_faults::on_engine_dispatch(effective.name()) {
            sparsetrain_faults::panic_injected(sparsetrain_faults::Site::EnginePanic, effective.name());
        }
        effective.engine()
    }

    /// The plan this context routes cells through — `Some` only on an
    /// `"auto"` context that was handed one.
    pub fn plan(&self) -> Option<&Plan> {
        self.plan.as_ref()
    }

    // -- Planned entry points ------------------------------------------------
    //
    // The per-(layer, stage) seam: callers with a layer identity (Conv2d)
    // resolve their engine through the plan, when there is one. The three
    // public methods only build the batch's `StageOp`s and its `BatchOut`;
    // `run_cell` holds the one copy of the resolution.

    /// Runs one batch of `stage` ops for `layer` into `out`, through
    /// [`dispatch`](Self::dispatch), on the engine the plan names for the
    /// `(layer, stage)` cell (its default when the plan does not name it),
    /// or on the context's own engine when there is no plan.
    fn run_cell(&self, layer: &str, stage: Stage, ops: &[StageOp<'_>], out: BatchOut<'_>) {
        let handle = self
            .plan
            .as_ref()
            .map_or(self.handle, |plan| plan.resolve(layer, stage));
        self.dispatch(handle).run_batch(ops, out);
    }

    /// Planned batched forward step: one freshly allocated output per
    /// input, computed on the engine the `(layer, Forward)` cell resolves
    /// to (the context's own engine when it holds no plan).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward_batch_for(
        &mut self,
        layer: &str,
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
        self.run_cell(layer, Stage::Forward, &ops, BatchOut::PerSample(slices));
        outs
    }

    /// Planned batched GTA step, accumulating into the pre-seeded `dins`
    /// (each sample's `din` sets its own spatial extent; `masks[s]` are
    /// sample `s`'s forward non-zero masks), resolved per
    /// `(layer, InputGrad)` cell on planned contexts.
    ///
    /// # Panics
    ///
    /// Panics if the batch slices disagree in length or on shape
    /// mismatches.
    pub fn input_grad_batch_for_into(
        &mut self,
        layer: &str,
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
        self.run_cell(layer, Stage::InputGrad, &ops, BatchOut::PerSample(slices));
    }

    /// Planned batched GTW step: every sample's weight gradient is added
    /// into the shared `dw` in sample order, resolved per
    /// `(layer, WeightGrad)` cell on planned contexts.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != douts.len()` or on shape mismatches.
    pub fn weight_grad_batch_for(
        &mut self,
        layer: &str,
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
        self.run_cell(
            layer,
            Stage::WeightGrad,
            &ops,
            BatchOut::Shared(dw.as_mut_slice()),
        );
    }
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self::scalar()
    }
}

impl From<EngineHandle> for ExecutionContext {
    fn from(handle: EngineHandle) -> Self {
        Self::new(handle)
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
            assert!(ctx.plan().is_none(), "{name} must not attach a plan");
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
    fn planned_entry_points_run_the_resolved_engine_on_unplanned_contexts() {
        let mut ctx = ExecutionContext::by_name("parallel").unwrap();
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("conv1", &inputs, &weights, None, geom);
        assert_scalar_forward(&outs, &inputs, &weights, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("parallel"));
        let mut dw = Tensor4::zeros(2, 2, 3, 3);
        ctx.weight_grad_batch_for("conv1", &inputs, &inputs, geom, &mut dw);
        assert!(dw.as_slice().iter().any(|&v| v != 0.0));
        assert!(
            ctx.plan().is_none(),
            "no plan state accrues on an unplanned context"
        );
    }

    #[test]
    fn auto_without_a_plan_runs_its_own_engine_bitwise_scalar() {
        let mut auto = ExecutionContext::by_name("auto").unwrap();
        let mut scalar = ExecutionContext::scalar();
        let (inputs, weights, geom) = batch_fixture();
        assert!(auto.plan().is_none(), "no plan was handed in");

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
        assert!(auto.plan().is_none(), "running records nothing");
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

    #[test]
    fn replayed_plan_cells_respect_quarantine_at_dispatch() {
        let mut plan = Plan::new(lookup("simd").unwrap());
        plan.set("c1", Stage::Forward, lookup("simd").unwrap());
        let mut ctx = ExecutionContext::with_plan(plan);
        for handle in crate::registry::registry() {
            ctx.quarantine(handle.name());
        }
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_eq!(
            ctx.last_dispatched_engine(),
            Some("scalar"),
            "pinned cell remapped"
        );
        assert_scalar_forward(&outs, &inputs, &weights, geom);

        // A cell the plan does not name runs on the plan's default engine,
        // and is remapped at dispatch just the same.
        let outs = ctx.forward_batch_for("c2", &inputs, &weights, None, geom);
        assert_eq!(ctx.plan().unwrap().get("c2", Stage::Forward), None);
        assert_eq!(
            ctx.last_dispatched_engine(),
            Some("scalar"),
            "default cell remapped"
        );
        assert_scalar_forward(&outs, &inputs, &weights, geom);
    }

    /// Quarantine follows the engine, not the name: once `simd` is
    /// quarantined, a cell pinned to its alias `parallel:simd` falls back
    /// to scalar too, and no name of the scalar engine can be quarantined.
    #[test]
    fn quarantine_follows_the_engine_not_the_name() {
        let mut plan = Plan::new(lookup("scalar").unwrap());
        plan.set("c1", Stage::Forward, lookup("parallel:simd").unwrap());
        let mut ctx = ExecutionContext::with_plan(plan);
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

    #[test]
    fn replayed_plan_is_honoured_and_unnamed_cells_run_the_default() {
        let mut plan = Plan::new(lookup("scalar").unwrap());
        plan.set("c1", Stage::Forward, lookup("simd").unwrap());
        let mut ctx = ExecutionContext::with_plan(plan.clone());
        assert_eq!(ctx.engine_name(), "auto");
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("c1", &inputs, &weights, None, geom);
        assert_scalar_forward(&outs, &inputs, &weights, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("simd"));
        let mut dw = Tensor4::zeros(2, 2, 3, 3);
        ctx.weight_grad_batch_for("c1", &inputs, &inputs, geom, &mut dw);
        assert_eq!(ctx.last_dispatched_engine(), Some("scalar"));
        assert_eq!(ctx.plan(), Some(&plan), "running changes no cell");
    }
}
