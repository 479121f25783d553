//! Trains an AlexNet-style CNN on the CIFAR-10-like synthetic dataset,
//! dense vs pruned at several rates — a miniature of the paper's Table II
//! workflow showing that accuracy holds while gradient density collapses.
//!
//! Run with: `cargo run --release --example train_sparse_cnn`
//!
//! The convolutions run on the `simd` row-dataflow engine unless a
//! registered engine name is passed (or set in `SPARSETRAIN_ENGINE`); an
//! unknown name falls back to `simd` with a warning:
//! `cargo run --release --example train_sparse_cnn -- scalar`
//! `SPARSETRAIN_ENGINE=fixed:q4.12 cargo run --release --example train_sparse_cnn`
//! (registered engines: `scalar`, `simd`, `fixed`, parameterized
//! `fixed:qI.F` formats, and the aliases `parallel`, `parallel:simd`,
//! `im2row`, `parallel:im2row` and `auto`).
//! Every engine bands across the rayon pool.
//!
//! Set `SPARSETRAIN_CHECKPOINT_DIR=/some/dir` to snapshot each run after
//! every epoch (atomic write + keep-3 rotation); per-epoch metrics stream
//! to `target/train-metrics-<label>.jsonl` either way.

use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::metrics::{MetricStore, Patience, StopCondition};
use sparsetrain::nn::models::ModelKind;
use sparsetrain::nn::train::{TrainConfig, Trainer};
use sparsetrain::sparse::registry;

fn main() {
    // CLI argument wins; otherwise the SPARSETRAIN_ENGINE env override.
    let engine = match std::env::args().nth(1) {
        Some(name) => match registry::lookup(&name) {
            Some(handle) => Some(handle),
            None => {
                let known: Vec<_> = registry::registry().iter().map(|h| h.name()).collect();
                eprintln!(
                    "unknown engine {name:?} (registered: {}); running the default simd engine",
                    known.join(", ")
                );
                None
            }
        },
        None => registry::env_override().unwrap_or_else(|e| panic!("{e}")),
    };
    if let Some(handle) = engine {
        println!(
            "executing convolutions on the {} sparse row-dataflow engine ({})",
            handle.name(),
            handle.summary()
        );
    }
    let mut spec = SyntheticSpec::cifar10_like();
    spec.size = 16; // keep the example snappy on CPU
    spec.train_samples = 400;
    spec.test_samples = 100;
    let (train, test) = spec.generate();

    println!(
        "model=alexnet dataset=cifar10-like train={} test={}",
        train.len(),
        test.len()
    );
    println!("{:<10} {:>8} {:>10} {:>8}", "p", "acc%", "rho_nnz", "epochs");

    for p in [None, Some(0.7), Some(0.9), Some(0.99)] {
        let prune = p.map(|p| PruneConfig::new(p, 4));
        let net = ModelKind::Alexnet.build(spec.channels, spec.size, spec.classes, prune, 7);
        let label = p.map_or("dense".to_string(), |p| format!("{p}"));
        let base = TrainConfig {
            batch_size: 16,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 3,
            engine,
            checkpoint: None,
            shard: None,
        };
        // With SPARSETRAIN_CHECKPOINT_DIR set, each epoch ends with an
        // atomically-written snapshot any later run can resume bitwise.
        let mut trainer = Trainer::new(net, base.with_env_checkpoint_dir());
        let mut metrics =
            MetricStore::with_jsonl(format!("target/train-metrics-{label}.jsonl")).with_latency();
        let mut stops: Vec<Box<dyn StopCondition>> = vec![Box::new(Patience::new(3))];
        // Two segments implement the step LR schedule (0.01 for four
        // epochs, then 0.002); epoch numbering continues across them.
        let first = trainer.train(&train, Some(&test), 4, &mut metrics, &mut stops);
        let mut epochs_run = first.epochs_run;
        if first.stopped.is_none() {
            trainer.set_learning_rate(0.002);
            let second = trainer.train(&train, Some(&test), 2, &mut metrics, &mut stops);
            epochs_run += second.epochs_run;
            if let Some(reason) = second.stopped {
                eprintln!("{label}: stopped early: {reason}");
            }
        } else if let Some(reason) = first.stopped {
            eprintln!("{label}: stopped early: {reason}");
        }
        let acc = trainer.evaluate(&test);
        let density = trainer.mean_grad_density().unwrap_or(1.0);
        println!("{label:<10} {:>8.1} {density:>10.3} {epochs_run:>8}", acc * 100.0);
    }
    println!("\nexpected shape (paper Table II): accuracy roughly flat, density falling with p");
}
