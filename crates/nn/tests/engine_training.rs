//! Training on the engine-driven sparse row-dataflow execution.
//!
//! Every `Conv2d` runs batched SRC/MSRC/OSRC on the engine resolved by the
//! trainer's `ExecutionContext`. These tests pin the contracts on each
//! float engine once (`scalar`, `simd`; the aliases are one of the two):
//! forward matches the dense reference numerically, mixed-shape batches
//! flow through, and the `SPARSETRAIN_ENGINE` environment variable reaches
//! the trainer (the CI engine matrix sets it in one cell). Training by
//! name on every engine is a row of the guarantee matrix
//! (`crates/bench/tests/guarantees.rs`).

use sparsetrain_core::prune::StepStreams;
use sparsetrain_nn::data::SyntheticSpec;
use sparsetrain_nn::layers::Conv2d;
use sparsetrain_nn::models;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_nn::Layer;
use sparsetrain_sparse::{registry, ExecutionContext};
use sparsetrain_tensor::conv::{self, ConvGeometry};
use sparsetrain_tensor::Tensor3;

fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "mismatch at {i}: {x} vs {y}"
        );
    }
}

fn sparse_input() -> Tensor3 {
    Tensor3::from_fn(3, 8, 8, |c, y, x| {
        if (c + y + 2 * x) % 3 == 0 {
            (y as f32 - x as f32) * 0.125 + c as f32 * 0.0625
        } else {
            0.0
        }
    })
}

#[test]
fn forward_matches_the_dense_reference() {
    for name in ["scalar", "simd"] {
        let mut ctx = ExecutionContext::by_name(name).unwrap();
        let geom = ConvGeometry::new(3, 1, 1);
        let mut rows = Conv2d::new("c", 3, 4, geom, 42);
        let x = sparse_input();
        let bias = [0.0; 4];
        let want = conv::forward(&x, rows.weights(), Some(&bias), geom);
        let got = rows.forward(vec![x].into(), &mut ctx, false);
        assert_close(want.as_slice(), got[0].as_slice(), 1e-5);
    }
}

/// The `SPARSETRAIN_ENGINE` environment override reaches the trainer: the
/// CI engine matrix runs this suite once with it set (`parallel:simd`).
#[test]
fn env_override_selects_engine_end_to_end() {
    let (train, _) = SyntheticSpec::tiny(2).generate();
    let expected = registry::env_override()
        .expect("SPARSETRAIN_ENGINE must name a registered engine")
        .map_or("simd", |h| h.name());
    let mut trainer = Trainer::new(
        models::mini_cnn(2, 4, None),
        TrainConfig::quick().with_env_engine(),
    );
    assert_eq!(trainer.engine_name(), expected, "unset, the trainer runs simd");
    let stats = trainer.train_epoch(&train);
    assert!(stats.loss.is_finite());
}

/// Mixed-spatial-shape batches flow through forward *and* backward: every
/// sample's input gradient takes its own extent (the batched engine paths
/// fall back to per-sample execution here).
#[test]
fn sparse_rows_supports_mixed_shape_batches() {
    for name in ["scalar", "simd"] {
        let mut ctx = ExecutionContext::by_name(name).unwrap();
        let mut conv = Conv2d::new("c", 1, 2, ConvGeometry::new(3, 1, 1), 11);
        let xs = vec![
            Tensor3::from_fn(1, 4, 4, |_, y, x| ((y + x) % 2) as f32),
            Tensor3::from_fn(1, 6, 6, |_, y, x| ((y * x) % 3) as f32 * 0.5),
        ];
        let out = conv.forward(xs.into(), &mut ctx, true);
        assert_eq!(out[0].shape(), (2, 4, 4));
        assert_eq!(out[1].shape(), (2, 6, 6));
        let dins = conv.backward(
            vec![
                Tensor3::from_fn(2, 4, 4, |_, _, _| 0.5),
                Tensor3::from_fn(2, 6, 6, |_, _, _| 0.25),
            ],
            &mut ctx,
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(dins[0].shape(), (1, 4, 4), "engine {name}");
        assert_eq!(dins[1].shape(), (1, 6, 6), "engine {name}");
        assert!(dins[1].as_slice().iter().any(|&v| v != 0.0));
    }
}
