//! Training on the engine-driven sparse row-dataflow execution path.
//!
//! The `SparseRows` mode replaces im2row forward and the dense reference
//! backward with batched SRC/MSRC/OSRC execution on the engine resolved by
//! the trainer's `ExecutionContext`. These tests pin the contracts:
//! forward matches im2row numerically, training still learns, the scalar
//! and parallel engines produce *bitwise identical* training trajectories,
//! and engine selection works end to end by name — including through the
//! `SPARSETRAIN_ENGINE` environment variable (unset, every test here walks
//! the registry itself; the CI engine matrix sets it in one cell).

use sparsetrain_core::prune::StepStreams;
use sparsetrain_nn::data::SyntheticSpec;
use sparsetrain_nn::layers::{Conv2d, ConvExecution};
use sparsetrain_nn::models;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_nn::Layer;
use sparsetrain_sparse::{registry, ExecutionContext};
use sparsetrain_tensor::conv::ConvGeometry;
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
fn sparse_rows_forward_matches_im2row() {
    for name in ["scalar", "parallel"] {
        let mut ctx = ExecutionContext::by_name(name).unwrap();
        let mut dense = Conv2d::new("c", 3, 4, ConvGeometry::new(3, 1, 1), 42);
        let mut rows = Conv2d::new("c", 3, 4, ConvGeometry::new(3, 1, 1), 42);
        rows.set_sparse_execution(true);
        assert_eq!(rows.execution(), ConvExecution::SparseRows);
        let x = sparse_input();
        let a = dense.forward(vec![x.clone()].into(), &mut ctx, false);
        let b = rows.forward(vec![x].into(), &mut ctx, false);
        assert_close(a[0].as_slice(), b[0].as_slice(), 1e-5);
    }
}

#[test]
fn engine_selection_plumbs_through_trainer() {
    let (train, test) = SyntheticSpec::tiny(3).generate();
    let net = models::mini_cnn(3, 4, None);
    let config = TrainConfig::quick().with_engine_name("parallel");
    assert_eq!(config.engine.map(|h| h.name()), Some("parallel"));
    let mut trainer = Trainer::new(net, config);
    assert_eq!(trainer.engine_name(), "parallel");
    for _ in 0..6 {
        trainer.train_epoch(&train);
    }
    let acc = trainer.evaluate(&test);
    assert!(
        acc > 1.0 / 3.0 + 0.1,
        "sparse-rows training accuracy {acc} not above chance"
    );
}

#[test]
fn scalar_and_parallel_training_trajectories_are_bitwise_equal() {
    let (train, _) = SyntheticSpec::tiny(2).generate();
    let collect_params = |name: &str| -> Vec<f32> {
        let net = models::mini_cnn(2, 4, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick().with_engine_name(name));
        trainer.train_epoch(&train);
        trainer.train_epoch(&train);
        let mut params = Vec::new();
        trainer.network_mut().visit_params(&mut |w: &mut [f32], _| {
            params.extend_from_slice(w);
        });
        params
    };
    let scalar = collect_params("scalar");
    let parallel = collect_params("parallel");
    // Identical seeds + bitwise-identical engines ⇒ identical trajectories,
    // down to the last bit of every weight after two epochs.
    assert_eq!(scalar, parallel);
}

/// End-to-end engine selection by name for **every** registered engine —
/// the fixed-point backend included: one epoch must execute and produce
/// finite loss on each (Q8.8 gradients underflow on toy nets, so learning
/// itself is only asserted for the float engines elsewhere).
#[test]
fn every_registered_engine_trains_by_name() {
    let (train, _) = SyntheticSpec::tiny(2).generate();
    for handle in registry::registry() {
        let net = models::mini_cnn(2, 4, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick().with_engine_name(handle.name()));
        assert_eq!(trainer.engine_name(), handle.name());
        let stats = trainer.train_epoch(&train);
        assert!(
            stats.loss.is_finite(),
            "engine {} produced non-finite loss",
            handle.name()
        );
    }
}

/// The `SPARSETRAIN_ENGINE` environment override reaches the trainer: the
/// CI engine matrix runs this suite once with it set (`parallel:simd`).
#[test]
fn env_override_selects_engine_end_to_end() {
    let (train, _) = SyntheticSpec::tiny(2).generate();
    let expected = registry::env_override()
        .expect("SPARSETRAIN_ENGINE must name a registered engine")
        .map_or("scalar", |h| h.name());
    let config = TrainConfig::quick().with_env_engine();
    if expected != "scalar" {
        assert_eq!(config.engine.map(|h| h.name()), Some(expected));
    }
    let engine = config.engine;
    let mut trainer = Trainer::new(models::mini_cnn(2, 4, None), config);
    if engine.is_some() {
        assert_eq!(trainer.engine_name(), expected);
    }
    let stats = trainer.train_epoch(&train);
    assert!(stats.loss.is_finite());
}

#[test]
fn sparse_rows_backward_supports_first_layer_and_capture() {
    let mut ctx = ExecutionContext::by_name("parallel").unwrap();
    let mut conv = Conv2d::new("c", 2, 3, ConvGeometry::new(3, 1, 1), 7);
    conv.set_sparse_execution(true);
    assert_eq!(conv.execution(), ConvExecution::SparseRows);
    conv.set_first_layer(true);
    conv.set_capture(true);
    let x = Tensor3::from_fn(2, 4, 4, |c, y, x| ((c + y + x) % 2) as f32);
    conv.forward(vec![x].into(), &mut ctx, true);
    let dins = conv.backward(
        vec![Tensor3::from_fn(3, 4, 4, |_, y, x| (y * x % 2) as f32)],
        &mut ctx,
        &StepStreams::new(0, 0, 0),
    );
    assert!(
        dins[0].as_slice().iter().all(|&v| v == 0.0),
        "first layer must skip GTA"
    );
    let mut traces = Vec::new();
    conv.collect_traces(&mut traces);
    assert_eq!(traces.len(), 1, "trace capture must work in sparse-rows mode");
}

/// Mixed-spatial-shape batches flow through sparse-rows forward *and*
/// backward: every sample's input gradient takes its own extent (the
/// batched engine paths fall back to per-sample execution here).
#[test]
fn sparse_rows_supports_mixed_shape_batches() {
    for name in ["scalar", "parallel"] {
        let mut ctx = ExecutionContext::by_name(name).unwrap();
        let mut conv = Conv2d::new("c", 1, 2, ConvGeometry::new(3, 1, 1), 11);
        conv.set_sparse_execution(true);
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
