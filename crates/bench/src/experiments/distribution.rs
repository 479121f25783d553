//! §III: the modelling assumption, checked on live training gradients.
//!
//! The threshold determination assumes activation gradients at the
//! pruning positions are zero-mean normal. This experiment trains each
//! evaluated model briefly, taps the pre-prune gradients at every pruning
//! position, and prints the distribution diagnostics: σ-band coverage,
//! the half-normal ratio `E|g|/σ` (√(2/π) ≈ 0.798 under the model) and a
//! composite normality score. High scores justify the determined
//! threshold; low scores would flag layers where the achieved sparsity
//! can miss the target.

use super::{trainer, Session};
use crate::table::{fmt, render};
use sparsetrain_core::prune::diagnostics::{DistributionSummary, HALF_NORMAL_RATIO};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::models::ModelKind;

/// The line printed under the title: what the paper says.
pub(super) const PAPER: &str = "model assumption: zero-mean normal";

/// Prints the per-model distribution diagnostics and, per model, the
/// least and most normal pruning position.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    println!("gradient-distribution check ({profile:?} profile)");
    println!("{PAPER}; E|g|/sigma = {HALF_NORMAL_RATIO:.4}\n");

    let mut rows: Vec<Vec<String>> = vec![vec![
        "model".into(),
        "positions".into(),
        "n".into(),
        "E|g|/sigma".into(),
        "skew".into(),
        "ex.kurt".into(),
        "score".into(),
    ]];

    for model in [ModelKind::Alexnet, ModelKind::Resnet18] {
        let spec = profile.sim_dataset("cifar10");
        let (train, _) = spec.generate();
        let mut trainer = trainer(model, &spec, Some(PruneConfig::paper_default()), 23, 5);
        // A little training so the gradients are shaped by the data, not
        // just by initialization.
        for _ in 0..profile.epochs().min(3) {
            trainer.train_epoch(&train);
        }

        let tapped = trainer.tap_gradients(&train);
        // The algorithm is *layer-wise* precisely because gradient scales
        // differ across layers — pooling positions would fabricate a
        // heavy-tailed variance mixture. Summarize per position, then
        // report the across-position means of the diagnostics.
        let summaries: Vec<DistributionSummary> = tapped
            .iter()
            .map(|(_, values)| DistributionSummary::from_nonzero(values))
            .collect();
        let n_total: usize = summaries.iter().map(|s| s.n).sum();
        let mean_of = |f: &dyn Fn(&DistributionSummary) -> f64| -> f64 {
            if summaries.is_empty() {
                0.0
            } else {
                summaries.iter().map(f).sum::<f64>() / summaries.len() as f64
            }
        };
        rows.push(vec![
            model.name().into(),
            tapped.len().to_string(),
            n_total.to_string(),
            fmt(mean_of(&|s| s.half_normal_ratio().unwrap_or(0.0)), 4),
            fmt(mean_of(&|s| s.skewness), 3),
            fmt(mean_of(&|s| s.excess_kurtosis), 3),
            fmt(mean_of(&|s| s.normality_score()), 3),
        ]);

        // Per-position detail for the most and least normal positions.
        let mut scored: Vec<(&str, f64)> = tapped
            .iter()
            .zip(&summaries)
            .map(|((name, _), summary)| (name.as_str(), summary.normality_score()))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        if let (Some(worst), Some(best)) = (scored.first(), scored.last()) {
            println!(
                "{}: score range [{:.3} @ {}, {:.3} @ {}]",
                model.name(),
                worst.1,
                worst.0,
                best.1,
                best.0
            );
        }
    }

    println!("\n{}", render(&rows));
    println!("statistics are per pruning position (the granularity the layer-wise");
    println!("algorithm operates at), averaged across positions; scores near 1");
    println!("mean the normal model — and the threshold formula — hold.");
}
