//! Quickstart: the three layers of SparseTrain in ~60 lines.
//!
//! 1. Prune a stream of activation-gradient batches (the algorithm, §III).
//! 2. Train a small CNN with pruning hooks (the training integration).
//! 3. Simulate the captured dataflow on the accelerator vs the dense
//!    baseline (the architecture, §V–VI).
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The training step's convolutions run on `simd` unless
//! `SPARSETRAIN_ENGINE` names another kernel engine from the registry:
//! `scalar` or `fixed` (Q8.8). Every engine bands across the rayon pool
//! (`RAYON_NUM_THREADS`). `parallel:simd`, `im2row` and `auto` are aliases
//! of `simd`.

use rand::rngs::StdRng;
use rand::stream::StreamKey;
use rand::SeedableRng;
use sparsetrain::core::prune::{BatchStream, LayerPruner, PruneConfig};
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{TrainConfig, Trainer};
use sparsetrain::sim::baseline::simulate_baseline;
use sparsetrain::sim::{ArchConfig, Machine};
use sparsetrain::tensor::init::sample_standard_normal;

fn main() {
    // --- 1. The pruning algorithm on a synthetic gradient stream.
    let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
    let mut rng = StdRng::seed_from_u64(1);
    // Pruning draws from counter-based streams: one key per batch, so the
    // result is reproducible at any thread count.
    let prune_key = StreamKey::new(1);
    for batch in 0..8u64 {
        let mut grads: Vec<f32> = (0..4096)
            .map(|_| sample_standard_normal(&mut rng) * 0.05)
            .collect();
        pruner.prune_batch(&mut grads, &BatchStream::contiguous(prune_key.derive(batch)));
        if let Some(d) = pruner.stats().last_density() {
            println!(
                "batch {batch}: density {:.3} (predicted tau {:.5})",
                d,
                pruner.stats().last_predicted_tau.unwrap_or(0.0)
            );
        }
    }

    // --- 2. Train a small CNN with the pruning hooks installed.
    let (train, test) = SyntheticSpec::tiny(4).generate();
    let net = models::mini_cnn(4, 8, Some(PruneConfig::paper_default()));
    // SPARSETRAIN_ENGINE selects a registered kernel engine by name; unset
    // runs `simd`, bitwise equal to `scalar`.
    let mut trainer = Trainer::new(net, TrainConfig::quick().with_env_engine());
    println!("kernel engine: {}", trainer.engine_name());
    for epoch in 0..5 {
        let stats = trainer.train_epoch(&train);
        println!("epoch {epoch}: loss {:.3} acc {:.2}", stats.loss, stats.accuracy);
    }
    println!("test accuracy: {:.2}", trainer.evaluate(&test));
    println!(
        "mean activation-gradient density: {:.3}",
        trainer.mean_grad_density().unwrap_or(1.0)
    );

    // --- 3. Capture one training step and simulate both architectures.
    let trace = trainer.capture_trace(&train, "mini_cnn", "tiny");
    let cfg = ArchConfig::paper_default();
    let machine = Machine::new(cfg);
    let sparse = machine.simulate(&trace);
    let dense = simulate_baseline(&machine, &trace);
    println!(
        "SparseTrain: {:.3} ms/sample, baseline: {:.3} ms/sample -> {:.2}x speedup",
        sparse.latency_ms(cfg.clock_mhz),
        dense.latency_ms(cfg.clock_mhz),
        sparse.speedup_over(&dense)
    );
    println!(
        "energy: {:.1} uJ vs {:.1} uJ -> {:.2}x efficiency",
        sparse.energy.total_uj(),
        dense.energy.total_uj(),
        sparse.energy_efficiency_over(&dense)
    );
}
