//! §VI-B: convergence of pruned vs dense training.
//!
//! Produces per-epoch loss curves for a model at several pruning rates;
//! the paper's claim is that the pruned curves track the dense one.

use super::{trainer, Session};
use crate::profile::Profile;
use crate::table::{fmt, render};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::models::ModelKind;
use sparsetrain_nn::schedule::{LrSchedule, StepDecay};

/// One loss curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LossCurve {
    /// Target pruning rate (`None` = dense baseline).
    pub p: Option<f64>,
    /// Training loss per epoch.
    pub losses: Vec<f64>,
    /// Final test accuracy.
    pub final_accuracy: f64,
}

/// Trains `model` once per pruning setting and records the loss curves.
pub fn run(model: ModelKind, dataset_name: &str, rates: &[Option<f64>], profile: Profile) -> Vec<LossCurve> {
    let spec = profile.dataset(dataset_name);
    let (train, test) = spec.generate();
    rates
        .iter()
        .map(|&p| {
            let prune = p.map(|p| PruneConfig::new(p, 4));
            let mut trainer = trainer(model, &spec, prune, 17, 23);
            let epochs = profile.epochs().max(6);
            let schedule = StepDecay::new(0.01, 0.2, vec![2 * epochs / 3]);
            let losses: Vec<f64> = (0..epochs)
                .map(|e| {
                    trainer.set_learning_rate(schedule.rate(e));
                    trainer.train_epoch(&train).loss
                })
                .collect();
            LossCurve {
                p,
                losses,
                final_accuracy: trainer.evaluate(&test),
            }
        })
        .collect()
}

/// The line printed under the title: what the paper says.
pub(super) const PAPER: &str =
    "paper: pruned loss curves track the dense curve; AlexNet slightly slower at aggressive p";

/// Prints the loss curves of AlexNet and ResNet-18 on the CIFAR-10 proxy,
/// dense and at three pruning rates, one table per model.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    println!("Convergence reproduction ({profile:?} profile)");
    println!("{PAPER}\n");

    for model in [ModelKind::Alexnet, ModelKind::Resnet18] {
        let curves = run(
            model,
            "cifar10",
            &[None, Some(0.7), Some(0.9), Some(0.99)],
            profile,
        );
        println!("model: {}", model.name());
        let epochs = curves[0].losses.len();
        let mut header = vec!["p".to_string()];
        header.extend((1..=epochs).map(|e| format!("ep{e}")));
        header.push("final acc".into());
        let mut rows = vec![header];
        for c in &curves {
            let mut row = vec![c.p.map_or("dense".to_string(), |p| format!("{p}"))];
            row.extend(c.losses.iter().map(|&l| fmt(l, 3)));
            row.push(fmt(c.final_accuracy * 100.0, 1));
            rows.push(row);
        }
        println!("{}", render(&rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_decrease() {
        let curves = run(ModelKind::Alexnet, "cifar10", &[None, Some(0.9)], Profile::Quick);
        for c in &curves {
            assert!(
                c.losses.last().unwrap() < c.losses.first().unwrap(),
                "loss did not decrease for p={:?}: {:?}",
                c.p,
                c.losses
            );
        }
    }
}
