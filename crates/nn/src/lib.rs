//! CNN training framework for the SparseTrain reproduction.
//!
//! A compact, dependency-free training stack that supports everything the
//! paper's experiments need:
//!
//! * [`layer`] — the [`layer::Layer`] trait: batched forward/backward on an
//!   `ExecutionContext` (the engine resolved once, by name, from the open
//!   registry in `sparsetrain-sparse`) with parameter visitation, trace
//!   capture and gradient-density instrumentation; [`layer::Batch`] carries
//!   clone-on-write samples so mini-batches borrow straight from the
//!   dataset.
//! * [`layers`] — Conv2d, ReLU, MaxPool2d, BatchNorm2d, Linear, global
//!   AvgPool, Flatten, and the [`layers::PruneHook`] that applies the
//!   paper's stochastic gradient pruning at the positions of Fig. 4.
//! * [`sequential`] / [`residual`] — composition (plain stacks and
//!   ResNet-style basic blocks).
//! * [`models`] — AlexNet- and ResNet-style CIFAR-scale model builders.
//! * [`data`] — synthetic labelled image datasets (the stand-in for
//!   CIFAR-10/100 and ImageNet; see `docs/ARCHITECTURE.md`,
//!   *Substitutions*, for the rationale).
//! * [`loss`] / [`optim`] — softmax cross-entropy and SGD with momentum.
//! * [`train`] — the batch training loop with pruning, density metrics and
//!   trace capture for the accelerator simulator.
//! * [`supervisor`] — the self-healing wrapper around the training loop:
//!   crash isolation, retry with backoff, engine quarantine and
//!   auto-resume from the newest valid checkpoint.
//! * [`shard`] — sharded data-parallel training: a coordinator scatters
//!   each batch as fixed-size granules to worker replicas (threads today,
//!   any [`shard::WorkerTransport`] tomorrow) and reduces gradients in
//!   fixed granule order, so the aggregated step is bitwise-identical at
//!   any worker count.
//!
//! # Example: train a tiny CNN on synthetic data
//!
//! ```
//! use sparsetrain_nn::data::SyntheticSpec;
//! use sparsetrain_nn::models;
//! use sparsetrain_nn::train::{TrainConfig, Trainer};
//!
//! let (train, test) = SyntheticSpec::tiny(3).generate();
//! let net = models::mini_cnn(3, 4, None);
//! let mut trainer = Trainer::new(net, TrainConfig::quick());
//! for _ in 0..2 {
//!     trainer.train_epoch(&train);
//! }
//! let acc = trainer.evaluate(&test);
//! assert!(acc >= 0.0 && acc <= 1.0);
//! ```

pub mod data;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod residual;
pub mod schedule;
pub mod sequential;
pub mod shard;
pub mod supervisor;
pub mod train;

pub use layer::{Batch, Layer};
pub use sequential::Sequential;
