//! The sparse training dataflow (§IV) and its "simple compiler".
//!
//! The paper drives its architecture simulator from PyTorch models through a
//! small compiler that lowers each CONV layer's three training stages into
//! streams of 1-D row-convolution instructions. Here the equivalent
//! pipeline is:
//!
//! 1. The training framework (`sparsetrain-nn`) captures a [`trace::NetworkTrace`]
//!    — per-layer sparsity patterns of the input activations `I`, the
//!    (pruned) output gradients `dO`, and the forward non-zero masks.
//! 2. `sparsetrain_sparse::ops` enumerates the SRC / MSRC / OSRC row
//!    operations of each stage, grouped into *tasks* (all operations
//!    accumulating into one output row run back-to-back on one PE, so
//!    partial sums never leave the PE register file). It is the list the
//!    scalar reference engine executes; [`ConvLayerTrace::forward_ops`],
//!    [`ConvLayerTrace::gta_ops`] and [`ConvLayerTrace::gtw_ops`] walk it
//!    over a captured layer.
//! 3. The simulator (`sparsetrain-sim`) schedules tasks onto PE groups and
//!    costs them with either the cycle-exact PE model or the analytic work
//!    model.
//!
//! [`compile`] materialises step 2 as the paper's instruction list, one
//! [`Instr`] per row operation; its length is the count of work the
//! simulator walks. The simulator itself walks the ops directly and never
//! reads a compiled [`Program`].

pub mod analysis;
pub mod compiler;
pub mod synth;
pub mod trace;

pub use compiler::{compile, Instr, Program};
pub use trace::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace, TraceError, TraceErrorKind};

/// A training stage, as the simulator's reports index it.
///
/// `sparsetrain_sparse::Stage` names the stages everywhere else. This copy
/// stays only for `sparsetrain_sim`'s `LayerReport::step` and
/// `SimReport::step_total`, because the `stbench` benchmark names its
/// variants; it goes when the benchmark is next redefined (ROADMAP item
/// 6 (7)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Forward propagation (SRC operations).
    Forward,
    /// Gradients to activations (MSRC operations).
    Gta,
    /// Gradients to weights (OSRC operations).
    Gtw,
}
