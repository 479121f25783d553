//! The paper's primary contribution: stochastic activation-gradient pruning
//! and the 1-D convolution training dataflow.
//!
//! * [`prune`] — §III: the layer-wise stochastic pruning algorithm with
//!   normal-distribution threshold determination and FIFO-based threshold
//!   prediction (Algorithm 1 of the paper).
//! * [`dataflow`] — §IV: layer traces and the decomposition of the three
//!   training stages (Forward / GTA / GTW) into SRC / MSRC / OSRC row
//!   operations, plus the "simple compiler" that schedules them.
//!
//! # Example: prune a stream of gradient batches
//!
//! ```
//! use sparsetrain_core::prune::{BatchStream, LayerPruner, PruneConfig};
//! use rand::stream::StreamKey;
//!
//! let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
//! let seed = StreamKey::new(1);
//! for batch in 0..10u64 {
//!     let mut grads: Vec<f32> = (0..512)
//!         .map(|i| ((i * 31 + batch as usize * 7) % 101) as f32 / 1000.0 - 0.05)
//!         .collect();
//!     // One counter-based stream per batch: deterministic at any thread
//!     // count, on any kernel engine.
//!     pruner.prune_batch(&mut grads, &BatchStream::contiguous(seed.derive(batch)));
//! }
//! // After the FIFO warms up, batches are substantially sparsified.
//! assert!(pruner.stats().last_density.unwrap() < 0.6);
//! ```

pub mod dataflow;
pub mod prune;
