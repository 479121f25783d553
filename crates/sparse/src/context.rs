//! The execution context: one resolved engine plus its quarantine list.
//!
//! [`ExecutionContext`] is the object call sites thread through a training
//! pass instead of re-resolving an engine token at every layer: it owns the
//! resolved `&'static dyn KernelEngine` (picked once, by [`EngineHandle`]).
//! Construction is name-driven — from a registry handle, a string
//! (`"scalar"`, `"simd"`, `"fixed"`, or the `"parallel:simd"`, `"im2row"`
//! and `"auto"` aliases of `simd`; `SPARSETRAIN_ENGINE` resolves through
//! [`crate::registry::env_override`]) — so choosing a backend never changes
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
//! engine. A call of one op draws its weight panels from the context's
//! [`PanelCache`] — the panels the engine re-laid on earlier calls, reused
//! while the weights keep their bits — so a shard worker's one-sample
//! granules re-lay each conv once per step, not once per sample.
//! Execution plans are gone: an `"auto"` context built while
//! `SPARSETRAIN_PLAN` is set refuses to start.
//!
//! ```
//! use sparsetrain_sparse::ExecutionContext;
//!
//! let ctx = ExecutionContext::by_name("parallel:simd").unwrap();
//! assert_eq!(ctx.engine_name(), "parallel:simd");
//! ```

use crate::engine::{BatchOut, KernelEngine, Stage, StageOp};
use crate::mask::RowMask;
use crate::panels::PanelCache;
use crate::registry::{lookup, EngineHandle, UnknownEngine};
use crate::rowconv::SparseFeatureMap;
use sparsetrain_faults::{Faults, Site};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::cell::Cell;

/// The reference engine: the quarantine fallback.
fn scalar_handle() -> EngineHandle {
    lookup("scalar").expect("scalar engine is always registered")
}

/// A resolved engine plus its quarantine list and its weight-panel cache.
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
    panels: PanelCache,
    faults: Faults,
}

impl ExecutionContext {
    /// Context executing on the engine `handle` resolves to.
    ///
    /// # Panics
    ///
    /// Panics when `handle` is `"auto"` and `SPARSETRAIN_PLAN` is set and
    /// non-empty: plans were removed, and an `"auto"` run was the one that
    /// read them (consistent with the other misconfigured-environment
    /// panics on the selection paths). A pinned engine never reads it.
    pub fn new(handle: EngineHandle) -> Self {
        if handle.name() == "auto" {
            if let Some(path) = std::env::var_os("SPARSETRAIN_PLAN").filter(|path| !path.is_empty()) {
                panic!(
                    "SPARSETRAIN_PLAN is set ({}), but execution plans were removed at commit \
                     73d723f: unset it, or pin an engine (e.g. SPARSETRAIN_ENGINE=simd), which \
                     never reads it",
                    path.to_string_lossy()
                );
            }
        }
        Self {
            handle,
            quarantined: Vec::new(),
            last_dispatch: Cell::new(None),
            panels: PanelCache::new(),
            faults: Faults::default(),
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
    /// resolve, and for the scalar engine itself (the reference engine is
    /// the fallback and can never be quarantined).
    pub fn quarantine(&mut self, name: &str) -> bool {
        let Some(handle) = lookup(name) else {
            return false;
        };
        if handle.same_engine(scalar_handle()) || self.quarantines(handle) {
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
        self.quarantined.iter().any(|q| q.same_engine(handle))
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

    /// Hands the engine-panic seam of later dispatches to `faults` (a new
    /// context holds none). A trainer lends its run's handle for the length
    /// of a training step only, so evaluation and probe passes never count.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
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
        if self.faults.on_engine_dispatch(effective.name()) {
            sparsetrain_faults::panic_injected(Site::EnginePanic, effective.name());
        }
        effective.engine()
    }

    /// Runs `ops` on the dispatched engine. A batch re-lays its weights
    /// once for all of its samples; a call of one op — a shard worker's
    /// one-sample granule — would re-lay them per sample, so it alone
    /// draws its panels from the context's cache. (A batch's panels would
    /// only hold memory: its weights change every step.)
    fn run(&mut self, ops: &[StageOp<'_>], out: BatchOut<'_>) {
        let engine = self.dispatch();
        let panels = (ops.len() == 1).then_some(&mut self.panels);
        engine.run_batch(ops, out, panels);
    }

    /// Always `None`; exists only until the benchmark item's (7), as [`Plan`] does.
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
        self.run(&ops, BatchOut::PerSample(slices));
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
        self.run(&ops, BatchOut::PerSample(slices));
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
        self.run(&ops, BatchOut::Shared(dw.as_mut_slice()));
    }
}

/// A legacy execution plan. It cannot be constructed: it stays, with
/// [`ExecutionContext::plan`], only until the benchmark harness drops both
/// (ROADMAP.md, the benchmark item's (7)).
pub enum Plan {}

impl Plan {
    /// Always empty.
    pub fn cells(&self) -> impl Iterator<Item = (&str, Stage, EngineHandle)> {
        std::iter::empty()
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
        for name in ["scalar", "simd", "fixed"] {
            let ctx = ExecutionContext::by_name(name).unwrap();
            assert_eq!(ctx.engine_name(), name);
        }
        assert_eq!(ExecutionContext::by_name("auto").unwrap().engine_name(), "auto");
        assert!(ExecutionContext::by_name("nope").is_err());
    }

    /// An `auto` context refuses a plan file; a pinned one never reads it.
    /// The variable is process-global, so the check runs in a child process
    /// that runs only this test.
    #[test]
    fn auto_refuses_a_plan_file() {
        const NAME: &str = "context::tests::auto_refuses_a_plan_file";
        if std::env::var_os("SPARSETRAIN_PLAN").is_some() {
            assert_eq!(ExecutionContext::by_name("simd").unwrap().engine_name(), "simd");
            ExecutionContext::by_name("auto").unwrap();
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let child = std::process::Command::new(exe)
            .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
            .env("SPARSETRAIN_PLAN", "plan.txt")
            .output()
            .expect("test binary runs");
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(!child.status.success(), "auto accepted a plan file: {stderr}");
        assert!(
            stderr.contains("SPARSETRAIN_PLAN is set (plan.txt), but execution plans were removed"),
            "{stderr}"
        );
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
        let mut ctx = ExecutionContext::by_name("scalar").unwrap();
        let (inputs, weights, geom) = batch_fixture();
        let outs = ctx.forward_batch_for("conv1", &inputs, &weights, None, geom);
        assert_scalar_forward(&outs, &inputs, &weights, geom);
        assert_eq!(ctx.last_dispatched_engine(), Some("scalar"));
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
    /// scalar too, and the scalar engine cannot be quarantined.
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
        assert!(!ctx.quarantine("scalar"), "the fallback engine");
        assert!(!ctx.is_quarantined("scalar"));
        assert_eq!(ctx.quarantined(), ["simd"]);
    }
}
