//! Plain-data model of a training snapshot.
//!
//! Everything in here is engine-agnostic: the trainer gathers these values from the live
//! network/optimizer/pruner state and the codec serializes them bit-exactly (floats travel as
//! their IEEE-754 bit patterns, never through a decimal representation).

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

/// Serialized `LayerPruner` state: config echo (validated on restore), FIFO contents, and the
/// running outcome statistics that feed `mean_density` / tau reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunerState {
    pub target_sparsity: f64,
    pub fifo_depth: u64,
    pub fifo: Vec<f64>,
    pub batches: u64,
    /// `(kept, snapped, zeroed)` of the most recent prune, if any.
    pub last_outcome: Option<[u64; 3]>,
    pub last_density: Option<f64>,
    pub density_sum: f64,
    pub density_count: u64,
    pub last_predicted_tau: Option<f64>,
    pub last_determined_tau: Option<f64>,
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
    /// An Algorithm-1 `LayerPruner` attached to the layer.
    Pruner { layer: String, state: Box<PrunerState> },
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

/// A legacy execution plan embedded in a snapshot, in either of its serialized forms. The bytes
/// are opaque here — this crate stores and round-trips them bit-exactly; on an `auto` resume the
/// trainer reads them with `sparsetrain_sparse::legacy_plan`'s decoders, checks the plan
/// float-only and ignores it. The trainer itself embeds no plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanPayload {
    /// The line-oriented text format (`Plan::from_text` parses it) — what snapshots before the binary
    /// program format carried.
    Text(String),
    /// A binary `STPLAN` execution program (`Plan::decode` reads it).
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
