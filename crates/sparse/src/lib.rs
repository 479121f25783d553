//! Compressed sparse rows and the SparseTrain 1-D convolution kernels.
//!
//! The paper's dataflow (§IV) decomposes every 2-D convolution of CNN
//! training into 1-D row convolutions, one of three flavours:
//!
//! * [`src::src_accumulate`] — **SRC** (Sparse Row Convolution): the
//!   Forward step. A sparse activation row is convolved with a short dense
//!   kernel row.
//! * [`msrc::msrc_accumulate`] — **MSRC** (Masked SRC): the GTA step. A
//!   sparse output-gradient row is convolved with a (rotated) kernel row,
//!   and output positions that the downstream ReLU mask will zero anyway
//!   are skipped entirely.
//! * [`osrc::osrc_accumulate`] — **OSRC** (Output-Store Row Convolution):
//!   the GTW step. Two sparse rows are correlated; only `K` output
//!   positions exist and are held in a scratchpad for the whole
//!   convolution.
//!
//! Each kernel reads [`SparseRow`]s lent by a
//! [`rowconv::SparseFeatureMap`], the one compressed storage type, and
//! accumulates into a caller-provided slice, so the hot loops never touch
//! the heap. [`work`] provides the analytic PE cycle model for each
//! primitive, which the cycle-exact simulator is checked against.
//!
//! # The execution engine layer
//!
//! [`engine`] builds the layer-level execution seam on top of the kernels,
//! and every engine is validated against the dense references in
//! `sparsetrain-tensor`:
//!
//! * [`engine::StageOp`] — one Forward / GTA / GTW convolution of one
//!   sample as a borrowed value, and [`engine::KernelEngine`] — the trait
//!   every backend implements, one method per call shape:
//!   [`KernelEngine::run`] accumulates one op into a caller slice, and
//!   [`KernelEngine::run_batch`] streams a whole batch through one engine
//!   call. A backend implements [`KernelEngine::prepare`] and
//!   [`KernelEngine::band`]; `run_batch` is the one body that deals those
//!   bands over the batch's `samples × filters` (or channels) to the rayon
//!   pool — multi-core speedup scales with batch size as well as layer
//!   width, bitwise identical at every band count (disjoint output bands,
//!   same per-row order).
//! * [`engine::ScalarEngine`] — the reference semantics; its iteration
//!   order *is* the floating-point specification.
//! * [`engine::BandContext`] — the **band-context seam**: per-call operand
//!   state (channel-contiguous weight re-layouts, im2row patch matrices)
//!   built exactly once per engine call by the engine's
//!   [`KernelEngine::prepare`] *above* the band fan-out, then shared by
//!   reference across every band — so banding an engine never multiplies
//!   its per-call operand transformations.
//! * [`simd_engine::SimdEngine`] — the vectorized backend: it walks the
//!   stored non-zeros in the scalar engine's order and runs its lanes
//!   across the *filter / channel axis* (always dense, never a reduction),
//!   so work follows the non-zeros, every element keeps the scalar
//!   per-element accumulation order and the engine stays bitwise
//!   identical to the reference. Runtime dispatch, once per band, picks
//!   the x86_64 AVX2+FMA build of the kernels when the CPU reports them
//!   and the portable `[f32; 8]` lane-blocked build otherwise; only
//!   literal `-0.0` biases or pre-seeded accumulators fall back to the
//!   scalar code itself.
//! * [`im2row_engine::Im2RowEngine`] — the cache-blocked dense lowering
//!   for dense early layers: receptive fields are materialized once per
//!   call into `(u, ci, v)`-ordered patch rows (the scalar accumulation
//!   order, so parity stays bitwise) inside the [`engine::BandContext`],
//!   and a register-tiled micro-kernel reduces each patch row against
//!   eight filters at a time. Output rows fed by rows below the density
//!   cutoff, strides ≠ 1 and `-0.0` seeds keep the sparse scalar path.
//! * [`fixed_engine::FixedPointEngine`] — the Q8.8 datapath model
//!   mirroring the paper's 16-bit RTL, built on
//!   `sparsetrain_tensor::qformat`. Other 16-bit grids resolve by name:
//!   `"fixed:q4.12"` interns a Q4.12 engine on first lookup.
//!
//! Selection is **name-keyed and open**, and the registry is the only
//! place an engine has a name: [`registry`] maps `"scalar"`, `"simd"`,
//! `"im2row"`, `"fixed"`, `"fixed:qI.F"`, `"auto"` (and the aliases
//! `"parallel"`, `"parallel:simd"`, `"parallel:im2row"` of the first
//! three) — plus any backend added with
//! [`registry::register`] — to [`registry::EngineHandle`] tokens, resolved
//! from strings (`FromStr`), configuration, or the `SPARSETRAIN_ENGINE`
//! environment variable ([`registry::env_override`]). A resolved engine
//! travels as a [`context::ExecutionContext`] (engine + plan), which
//! `sparsetrain-nn` threads through every `Layer::forward`/`backward` — no
//! call site ever re-resolves a token.
//!
//! [`planner`] closes the loop the paper's scheduler closes in hardware:
//! operand density differs per layer and per stage and keeps falling as
//! pruning bites, and the engines have *disjoint* win regions (im2row on
//! near-dense forward legs, simd's non-zero walk everywhere else). A
//! [`planner::Plan`] maps `(layer, stage)` cells to engines; the `"auto"`
//! engine ([`planner::AutoEngine`]) applies the win-region rule per call
//! on observed density, and a planned [`ExecutionContext`] upgrades that
//! to decide-once: the first execution of each cell names its engine from
//! the stage and operand density and freezes it, later executions replay
//! the frozen plan (or a plan file named by `SPARSETRAIN_PLAN`). No clock
//! is read, so the same run always freezes the same plan, and every engine
//! the rule names is bitwise identical to the scalar reference, so
//! planning affects speed, never results.
//! A plan is its own serialized form: [`Plan::encode`] / [`Plan::decode`]
//! ([`plan_program`], the `STPLAN` codec) are the one way it crosses a
//! process, worker or checkpoint boundary.

pub mod compressed;
pub mod context;
pub mod engine;
pub mod fixed_engine;
pub mod formats;
pub mod im2row_engine;
pub mod mask;
pub mod msrc;
pub mod osrc;
pub mod plan_program;
pub mod planner;
pub mod registry;
pub mod rowconv;
pub mod simd_engine;
pub mod src;
pub mod work;

pub use compressed::{RowError, SparseRow};
pub use context::ExecutionContext;
pub use engine::{BandContext, BatchOut, KernelEngine, ScalarEngine, StageOp};
pub use fixed_engine::FixedPointEngine;
pub use im2row_engine::Im2RowEngine;
pub use mask::RowMask;
pub use planner::{AutoEngine, Plan, PlanError, Stage, PLAN_ENV};
pub use registry::{EngineHandle, UnknownEngine, ENGINE_ENV};
pub use simd_engine::SimdEngine;
