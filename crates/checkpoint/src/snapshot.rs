//! Plain-data model of a training snapshot.
//!
//! Everything in here is engine-agnostic: the trainer gathers these values from the live
//! network/optimizer/pruner state and the codec serializes them bit-exactly (floats travel as
//! their IEEE-754 bit patterns, never through a decimal representation).

use sparsetrain_core::prune::PrunerSnapshot;

/// Position of a run inside the deterministic stream ladder.
///
/// `seed`/`epoch`/`step` mirror `StreamSeeds`; `steps_into_epoch` counts optimizer steps taken
/// since the current epoch's shuffle, so a mid-epoch snapshot can skip already-consumed batches
/// on resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPosition {
    pub seed: u64,
    pub epoch: u64,
    pub step: u64,
    pub steps_into_epoch: u64,
}

/// Optimizer (SGD-with-momentum) state: learning rate plus one velocity buffer per parameter
/// tensor, in `visit_params` order.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    pub lr: f32,
    pub velocities: Vec<Vec<f32>>,
}

/// One unit of per-layer state. A layer may contribute several entries (e.g. a conv layer
/// contributes its parameters and its gradient-density counters).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerState {
    /// Parameter tensors (weights, biases, batch-norm gammas/running stats, ...) as flat
    /// buffers in the layer's own order.
    Params { layer: String, tensors: Vec<Vec<f32>> },
    /// An embedded xoshiro256++ RNG (dropout mask stream).
    Rng { layer: String, state: [u64; 4] },
    /// Gradient-density accumulators (sum of per-batch densities and batch count).
    Density { layer: String, sum: f64, count: u64 },
    /// An Algorithm-1 `LayerPruner` attached to the layer, as its own
    /// `LayerPruner::snapshot_state` export.
    Pruner {
        layer: String,
        state: Box<PrunerSnapshot>,
    },
}

impl LayerState {
    /// Name of the layer this entry belongs to.
    pub fn layer(&self) -> &str {
        match self {
            LayerState::Params { layer, .. }
            | LayerState::Rng { layer, .. }
            | LayerState::Density { layer, .. }
            | LayerState::Pruner { layer, .. } => layer,
        }
    }

    /// Human-readable kind tag, used in mismatch diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerState::Params { .. } => "params",
            LayerState::Rng { .. } => "rng",
            LayerState::Density { .. } => "density",
            LayerState::Pruner { .. } => "pruner",
        }
    }
}

/// A legacy execution plan embedded in a snapshot by an older build, in either of its serialized
/// forms. The content is opaque here — this crate stores and round-trips it bit-exactly, and
/// nothing parses it: an `auto` resume refuses a snapshot that carries one, a pinned engine
/// ignores it. The trainer itself embeds no plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanPayload {
    /// The line-oriented text format (section `plan`, tag 3) — what snapshots before the binary
    /// program format carried.
    Text(String),
    /// A binary `STPLAN` execution program (section `plan-program`, tag 6).
    Program(Vec<u8>),
}

/// A complete, resumable training snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Stream-ladder position (seed/epoch/step) plus mid-epoch offset.
    pub position: RunPosition,
    /// Shuffling `StdRng` (xoshiro256++) state as captured at the start of the current epoch.
    pub shuffle_rng: [u64; 4],
    /// Legacy execution plan, carried by snapshots from before plans were dropped; `None` in
    /// every snapshot the trainer takes now.
    pub plan: Option<PlanPayload>,
    /// Optimizer state.
    pub optimizer: OptimizerState,
    /// Per-layer state entries in network traversal order.
    pub layers: Vec<LayerState>,
}
