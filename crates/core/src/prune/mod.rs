//! Layer-wise stochastic activation-gradient pruning (§III).
//!
//! The pipeline, per CONV layer and per batch:
//!
//! 1. **Prediction** — the pruning threshold `τ̂` for the incoming batch is
//!    the mean of a FIFO of the last `N_F` *determined* thresholds
//!    ([`ThresholdFifo`]); no pruning happens until the FIFO fills.
//! 2. **Streaming prune** — each gradient is inspected once as it is
//!    produced: values with `|g| ≥ τ̂` pass through; smaller values are
//!    stochastically snapped to `sign(g)·τ̂` (with probability `|g|/τ̂`) or
//!    zero, preserving `E[ĝ] = g` ([`stochastic`]).
//! 3. **Determination** — alongside the prune, `Σ|g|` is accumulated; at
//!    batch end it yields the unbiased normal-σ estimate and this batch's
//!    exact threshold, which is pushed into the FIFO ([`threshold`]).
//!
//! [`LayerPruner`] ties the three together (Algorithm 1 of the paper).
//!
//! The stochastic draws come from counter-based RNG streams keyed by each
//! element's training-run coordinates ([`stream`]): pruning is a pure
//! function of the gradients and the `(seed, epoch, step, site, sample,
//! offset)` ladder, so the one pass ([`prune_pass`]) bands its sweep across
//! the rayon pool and stays bitwise-identical at every band count.

pub mod diagnostics;
pub mod fifo;
pub mod normal;
pub mod predictor;
pub mod pruner;
pub mod stochastic;
pub mod stream;
pub mod threshold;

pub use diagnostics::DistributionSummary;
pub use fifo::ThresholdFifo;
pub use predictor::{EmaPredictor, FifoPredictor, LastValuePredictor, ThresholdPredictor};
pub use pruner::{
    prune_pass, LayerPruner, PruneConfig, PruneStats, PrunerRestoreError, PrunerSnapshot, SiteStats,
};
pub use stochastic::{prune_slice, prune_slice_at, PruneOutcome};
pub use stream::{BatchStream, StepStreams, StreamSeeds, SHARD_DOMAIN};
pub use threshold::{determine_threshold, sigma_hat, threshold_from_slice};
