//! Integration: the 16-bit fixed-point datapath claim.
//!
//! The paper's RTL computes in 16-bit fixed point while the algorithm is
//! validated in float. These tests quantify the bridge on a *live*
//! network: quantizing weights and activations to their best Q-formats
//! must leave classification decisions and gradient statistics intact.

use rand::stream::StreamKey;
use sparsetrain::core::prune::diagnostics::DistributionSummary;
use sparsetrain::core::prune::{BatchStream, PruneConfig};
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{TrainConfig, Trainer};
use sparsetrain::nn::Layer;
use sparsetrain::tensor::qformat::QFormat;
use sparsetrain::tensor::Tensor3;
use sparsetrain_sparse::ExecutionContext;

fn trained_for(epochs: usize) -> (Trainer, sparsetrain::nn::data::Dataset) {
    let (train, test) = SyntheticSpec::tiny(4).generate();
    let net = models::mini_cnn(4, 8, Some(PruneConfig::paper_default()));
    let mut trainer = Trainer::new(net, TrainConfig::quick());
    for _ in 0..epochs {
        trainer.train_epoch(&train);
    }
    let _ = test;
    (trainer, train)
}

fn trained_trainer() -> (Trainer, sparsetrain::nn::data::Dataset) {
    trained_for(6)
}

#[test]
fn weight_quantization_preserves_predictions() {
    let (mut trainer, data) = trained_trainer();

    // Predictions in f32.
    let xs: Vec<Tensor3> = data.images.iter().take(24).cloned().collect();
    let n = xs.len();
    let f32_out = trainer
        .network_mut()
        .forward(xs.clone().into(), &mut ExecutionContext::scalar(), false);

    // Quantize every parameter tensor to its own best Q-format (per-tensor
    // scale, as a fixed-point device would configure).
    trainer
        .network_mut()
        .visit_params(&mut |w: &mut [f32], _g: &mut [f32]| {
            let q = QFormat::best_for(w);
            q.roundtrip_slice(w);
        });
    let q_out = trainer
        .network_mut()
        .forward(xs.into(), &mut ExecutionContext::scalar(), false);

    // At most one disagreement in 24 samples also bounds the accuracy gap
    // by 1/24.
    let mut agree = 0usize;
    for (a, b) in f32_out.iter().zip(&q_out) {
        if sparsetrain::nn::loss::argmax(a.as_slice()) == sparsetrain::nn::loss::argmax(b.as_slice()) {
            agree += 1;
        }
    }
    assert!(
        agree >= n - 1,
        "quantized net disagreed on {}/{n} samples",
        n - agree
    );
}

#[test]
fn gradient_statistics_survive_quantization() {
    // Tap after ONE epoch — the mid-training regime the 16-bit datapath is
    // designed for. Once this toy task overfits (loss ~1e-4 by epoch 2),
    // activation gradients fall to ~1e-7, below the LSB of every 16-bit
    // Q-format, and no fixed-point representation can carry them.
    let (mut trainer, data) = trained_for(1);
    let tapped = trainer.tap_gradients(&data);
    assert!(!tapped.is_empty());

    // Gradient tensors concentrate near zero with rare outliers, so a
    // peak-scaled 16-bit format leaves typical |g| only a handful of LSBs
    // tall — per-value relative error is *not* small. What must survive
    // is the algorithm's behaviour: the determined threshold (derived
    // from Σ|g|) and the achieved density may move by no more than the
    // FIFO prediction noise the scheme already tolerates (~20%, see the
    // `sweep fifo` ablation).
    use sparsetrain::core::prune::{sigma_hat, LayerPruner};
    for (name, values) in &tapped {
        let s = DistributionSummary::from_slice(values);
        if s.n < 1000 || s.mean_abs == 0.0 {
            continue;
        }
        let mut quantized = values.clone();
        let q = QFormat::best_for(&quantized);
        q.roundtrip_slice(&mut quantized);
        let sq = DistributionSummary::from_slice(&quantized);

        let sig = sigma_hat(s.mean_abs * s.n as f64, s.n);
        let sig_q = sigma_hat(sq.mean_abs * sq.n as f64, sq.n);
        let rel = (sig - sig_q).abs() / sig;
        assert!(rel < 0.2, "{name}: sigma-hat moved {rel:.3} under quantization");

        // Achieved density under the paper's pruner, float vs quantized.
        let density = |data: &[f32]| -> f64 {
            let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 1));
            let key = StreamKey::new(13);
            let mut batch = data.to_vec();
            pruner.prune_batch(&mut batch, &BatchStream::contiguous(key.derive(0))); // warm the FIFO
            let mut batch = data.to_vec();
            pruner.prune_batch(&mut batch, &BatchStream::contiguous(key.derive(1)));
            pruner.stats().last_density.unwrap()
        };
        let d = density(values);
        let dq = density(&quantized);
        assert!(
            (d - dq).abs() < 0.1,
            "{name}: density moved {d:.3} -> {dq:.3} under quantization"
        );
    }
}

#[test]
fn best_format_never_saturates_live_tensors() {
    let (mut trainer, data) = trained_trainer();
    let mut all: Vec<(String, Vec<f32>)> = trainer.tap_gradients(&data);
    let mut weights: Vec<f32> = Vec::new();
    trainer.network_mut().visit_params(&mut |w: &mut [f32], _| {
        weights.extend_from_slice(w);
    });
    all.push(("weights".into(), weights));
    for (name, values) in &all {
        if values.is_empty() {
            continue;
        }
        let q = QFormat::best_for(values);
        let err = q.roundtrip_error(values);
        assert_eq!(err.saturated, 0, "{name}: best format saturated");
        assert!(err.max_abs <= q.epsilon() / 2.0 + f32::EPSILON, "{name}");
    }
}
