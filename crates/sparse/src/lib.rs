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
//! [`ops`] lists the row operations once: one visitor per stage
//! ([`ops::for_each_forward_op`], [`ops::for_each_gta_op`],
//! [`ops::for_each_gtw_op`]) yields every SRC / MSRC / OSRC op of a unit
//! range, grouped into tasks, in the order the reference engine executes
//! them. The scalar engine runs each op through its kernel; the simulator,
//! the static analysis and the compiler in `sparsetrain-core` price or
//! count the same ops through [`work`].
//!
//! # The execution engine layer
//!
//! [`engine`] builds the layer-level execution seam on top of the kernels,
//! and every engine is validated against the dense references in
//! `sparsetrain-tensor`:
//!
//! * [`engine::StageOp`] — one Forward / GTA / GTW convolution of one
//!   sample as a borrowed value, and [`engine::KernelEngine`] — the trait
//!   every backend implements: two hooks, [`KernelEngine::prepare`] and
//!   [`KernelEngine::band`], and one runner, [`KernelEngine::run_batch`],
//!   which streams a whole batch through one engine call
//!   ([`StageOp::run_on`] is the batch of one). `run_batch` is the one
//!   body that deals those bands over the batch's `samples × filters` (or
//!   channels) to the rayon
//!   pool — multi-core speedup scales with batch size as well as layer
//!   width, bitwise identical at every band count (disjoint output bands,
//!   same per-row order).
//! * [`engine::ScalarEngine`] — the reference semantics: the [`ops`]
//!   visitors calling the kernels, whose order *is* the floating-point
//!   specification.
//! * [`engine::BandContext`] — the **band-context seam**: per-call operand
//!   state (channel-contiguous weight re-layouts, dense operand copies)
//!   built exactly once per engine call by the engine's
//!   [`KernelEngine::prepare`] *above* the band fan-out, then shared by
//!   reference across every band — so banding an engine never multiplies
//!   its per-call operand transformations.
//! * [`panels::PanelCache`] — the weight panels an engine re-lays in
//!   `prepare`, kept across calls by the [`context::ExecutionContext`] and
//!   reused while the weights keep their bits — so a one-sample call
//!   re-lays nothing the step already did.
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
//! * [`fixed_engine::FixedPointEngine`] — the Q8.8 datapath model
//!   mirroring the paper's 16-bit RTL, built on
//!   `sparsetrain_tensor::qformat`.
//!
//! Selection is **name-keyed**, and the registry — a fixed table — is the
//! only place an engine has a name: [`registry`] maps `"scalar"`,
//! `"simd"` and `"fixed"` (plus the aliases `"parallel:simd"`, `"im2row"`
//! and `"auto"` of simd) to [`registry::EngineHandle`] tokens, resolved
//! from strings (`FromStr`), configuration, or the `SPARSETRAIN_ENGINE`
//! environment variable ([`registry::env_override`]). A resolved engine
//! travels as a [`context::ExecutionContext`], which `sparsetrain-nn`
//! threads through every `Layer::forward`/`backward` — no call site ever
//! re-resolves a token. The context is one engine plus its quarantine
//! list.
//!
//! Execution plans (one engine per `(layer, stage)` cell) are gone: an
//! `"auto"` context refuses a `SPARSETRAIN_PLAN` file at construction, and
//! the trainer refuses to resume an `"auto"` run from a snapshot that
//! carries a plan.

pub mod compressed;
pub mod context;
pub mod engine;
pub mod fixed_engine;
pub mod formats;
pub mod mask;
pub mod msrc;
pub mod ops;
pub mod osrc;
pub mod panels;
pub mod registry;
pub mod rowconv;
pub mod simd_engine;
pub mod src;
pub mod work;

pub use compressed::{RowError, SparseRow};
pub use context::{ExecutionContext, Plan};
pub use engine::{BandContext, BatchOut, KernelEngine, ScalarEngine, Stage, StageOp};
pub use fixed_engine::FixedPointEngine;
pub use mask::RowMask;
pub use panels::PanelCache;
pub use registry::{EngineHandle, UnknownEngine, ENGINE_ENV};
pub use simd_engine::SimdEngine;
