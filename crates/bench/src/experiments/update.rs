//! §II: "weight update stage is not a performance bottleneck for CNN
//! training".
//!
//! The paper costs only Forward / GTA / GTW and drops the update stage
//! from the accelerated path. This experiment makes that a measured
//! number: it captures a training-step trace per model, simulates the
//! three accelerated stages, costs the weight-update pass with the
//! elementwise stream model (`sparsetrain_sim::update`), and reports the
//! update's share of the whole step — for the paper's SGD(+momentum) and,
//! as a stress case, Adam.

use super::{trainer, Session};
use crate::table::{fmt, render};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::models::ModelKind;
use sparsetrain_nn::Layer;
use sparsetrain_sim::update::{update_cost_per_sample, UpdateRule};
use sparsetrain_sim::{ArchConfig, Machine};

/// The line printed under the title: what the paper says.
pub(super) const PAPER: &str = "paper claim (§II): the update stage is not a bottleneck";

/// Prints the update stage's cycle share of one simulated training step,
/// per evaluated model.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    let cfg = ArchConfig::paper_default();
    let machine = Machine::new(cfg);
    println!("weight-update share of one training step ({profile:?} profile)");
    println!("{PAPER}\n");

    let mut rows: Vec<Vec<String>> = vec![vec![
        "model".into(),
        "params".into(),
        "step cycles/sample".into(),
        "update (sgd+mom)".into(),
        "share".into(),
        "update (adam)".into(),
        "share".into(),
    ]];

    for model in ModelKind::ALL {
        let spec = profile.sim_dataset("cifar10");
        let (train, _) = spec.generate();
        let mut trainer = trainer(model, &spec, Some(PruneConfig::paper_default()), 29, 5);
        let params = trainer.network().param_count() as u64;
        for _ in 0..2 {
            trainer.train_epoch(&train);
        }
        let trace = trainer.capture_trace(&train, model.name(), "cifar10");
        let step = machine.simulate(&trace);

        let momentum = update_cost_per_sample(params, UpdateRule::SgdMomentum, &cfg);
        let adam = update_cost_per_sample(params, UpdateRule::Adam, &cfg);
        rows.push(vec![
            model.name().into(),
            params.to_string(),
            step.total_cycles.to_string(),
            momentum.cycles.to_string(),
            format!("{}%", fmt(100.0 * momentum.fraction_of(step.total_cycles), 2)),
            adam.cycles.to_string(),
            format!("{}%", fmt(100.0 * adam.fraction_of(step.total_cycles), 2)),
        ]);
    }

    println!("{}", render(&rows));
    println!("ResNets sit near 2% — the paper's scoping holds outright. AlexNet's");
    println!("share is inflated at the Quick profile (miniature images shrink conv");
    println!("work while the FC parameter count stays); it falls with image size");
    println!("(SPARSETRAIN_PROFILE=full). The share is DRAM-bandwidth, not MAC,");
    println!("limited (see sim::update) — batch amortization is what contains it.");
}
