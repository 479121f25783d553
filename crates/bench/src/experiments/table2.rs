//! Table II: training accuracy and gradient density across models,
//! datasets and pruning rates.

use super::{trainer, Session};
use crate::profile::Profile;
use crate::table::{fmt, render};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::models::ModelKind;
use sparsetrain_nn::schedule::{LrSchedule, StepDecay};
use sparsetrain_nn::Layer;

/// One cell group of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Model variant.
    pub model: ModelKind,
    /// Dataset proxy name.
    pub dataset: String,
    /// Target pruning rate (`None` = dense baseline).
    pub p: Option<f64>,
    /// Final test accuracy.
    pub accuracy: f64,
    /// Mean activation-gradient density ρ_nnz over the final epoch.
    pub density: f64,
}

/// The pruning rates evaluated by the paper.
pub const PRUNE_RATES: [f64; 4] = [0.7, 0.8, 0.9, 0.99];

/// Runs one (model, dataset, pruning) training experiment.
pub fn run_cell(model: ModelKind, dataset_name: &str, p: Option<f64>, profile: Profile) -> Table2Row {
    let spec = profile.dataset(dataset_name);
    let (train, test) = spec.generate();
    let prune = p.map(|p| PruneConfig::new(p, 4));
    let mut trainer = trainer(model, &spec, prune, 7, 3);
    let epochs = profile.epochs().max(6);
    let schedule = StepDecay::new(0.01, 0.2, vec![2 * epochs / 3]);
    for e in 0..epochs {
        trainer.set_learning_rate(schedule.rate(e));
        if e + 1 == epochs {
            // Measure density over the final epoch only (post warm-up).
            trainer.network_mut().reset_density_stats();
        }
        trainer.train_epoch(&train);
    }
    let accuracy = trainer.evaluate(&test);
    let density = trainer.mean_grad_density().unwrap_or(1.0);
    Table2Row {
        model,
        dataset: dataset_name.to_string(),
        p,
        accuracy,
        density,
    }
}

/// The line printed under the title: what the paper says.
pub(super) const PAPER: &str =
    "paper: accuracy preserved for p <= 0.9; density drops 3-10x; deeper nets -> lower density";

/// Prints Table II for the session's models: one row per (model, dataset)
/// with the dense baseline and every pruning rate side by side. Progress
/// goes to stderr, one line per row, because a row takes minutes.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    println!("Table II reproduction ({profile:?} profile)");
    println!("{PAPER}\n");

    let mut header = vec![
        "model".to_string(),
        "dataset".to_string(),
        "base acc".to_string(),
        "base rho".to_string(),
    ];
    for p in PRUNE_RATES {
        header.push(format!("p={p} acc"));
        header.push(format!("p={p} rho"));
    }
    let mut rows = vec![header];

    for &model in &session.models {
        for dataset in Profile::dataset_names() {
            eprint!("running {} / {dataset} ...", model.name());
            let mut row = vec![model.name().to_string(), dataset.to_string()];
            for p in std::iter::once(None).chain(PRUNE_RATES.map(Some)) {
                let cell = run_cell(model, dataset, p, profile);
                row.push(fmt(cell.accuracy * 100.0, 1));
                row.push(fmt(cell.density, 2));
            }
            eprintln!(" done");
            rows.push(row);
        }
    }
    println!("{}", render(&rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_runs_and_reports() {
        let row = run_cell(ModelKind::Alexnet, "cifar10", Some(0.9), Profile::Quick);
        assert!(row.accuracy >= 0.0 && row.accuracy <= 1.0);
        assert!(row.density > 0.0 && row.density <= 1.0);
    }
}
