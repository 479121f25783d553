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
//! 2. [`ops`] enumerates the SRC / MSRC / OSRC row operations of each stage
//!    from the trace, grouped into *tasks* (all operations accumulating
//!    into one output row run back-to-back on one PE, so partial sums never
//!    leave the PE register file).
//! 3. The simulator (`sparsetrain-sim`) schedules tasks onto PE groups and
//!    costs them with either the cycle-exact PE model or the analytic work
//!    model.
//!
//! [`compile`] materialises step 2 as the paper's instruction list, one
//! [`Instr`] per row operation; its length is the count of work the
//! simulator walks. The simulator itself consumes the [`ops`] visitors
//! directly and never reads a compiled [`Program`].

pub mod analysis;
pub mod compiler;
pub mod ops;
pub mod synth;
pub mod trace;

pub use compiler::{compile, Instr, Program};
pub use ops::{
    for_each_forward_op, for_each_gta_op, for_each_gtw_op, MsrcOp, OsrcOp, SrcOp, StepKind, TaskId,
};
pub use trace::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace, TraceError, TraceErrorKind};
