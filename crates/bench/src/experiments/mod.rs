//! The paper's evaluation, one module per experiment, dispatched through
//! one table.
//!
//! [`EXPERIMENTS`] is the only list of experiments in the repository: the
//! argument parser resolves names against it, the usage text is generated
//! from it, the README table is checked against it, and `sparsetrain-bench
//! repro …` / `sweep …` call [`Experiment::run`] for each name asked for.
//! Every experiment prints to stdout exactly what its stand-alone binary
//! used to print, so outputs stay comparable across commits.

pub mod arch;
pub mod convergence;
pub mod distribution;
pub mod energy;
pub mod fifo;
pub mod format;
pub mod latency;
pub mod sched;
pub mod table1;
pub mod table2;
pub mod update;

use crate::profile::Profile;
use latency::LatencyRow;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::models::ModelKind;
use sparsetrain_nn::train::{TrainConfig, Trainer};

/// One row of the experiment table.
pub struct Experiment {
    /// The subcommand it runs under: `repro` regenerates a table, figure
    /// or claim of the paper, `sweep` varies a design choice the paper
    /// fixed or left open.
    pub group: &'static str,
    /// The name given on the command line.
    pub name: &'static str,
    /// The paper artefact it regenerates or extends.
    pub artefact: &'static str,
    /// What the paper says about it: the line a `repro` experiment prints
    /// under its title (its module's `PAPER`). The sweeps print none.
    pub paper: Option<&'static str>,
    /// Whether `--models` applies (the experiment trains a grid of models
    /// long enough that a subset is worth asking for).
    pub takes_models: bool,
    /// Prints the experiment to stdout.
    pub run: fn(&mut Session),
}

/// Every experiment, in the order the usage text and the README list them.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        group: "repro",
        name: "table1",
        artefact: "Table I: density of the six training data types",
        paper: Some(table1::PAPER),
        takes_models: false,
        run: table1::print,
    },
    Experiment {
        group: "repro",
        name: "table2",
        artefact: "Table II: accuracy and gradient density per model, dataset and pruning rate",
        paper: Some(table2::PAPER),
        takes_models: true,
        run: table2::print,
    },
    Experiment {
        group: "repro",
        name: "fig8",
        artefact: "Fig. 8: training latency per sample and speedup over the dense baseline",
        paper: Some(latency::PAPER_FIG8),
        takes_models: false,
        run: latency::print_fig8,
    },
    Experiment {
        group: "repro",
        name: "fig9",
        artefact: "Fig. 9: energy per sample by component and efficiency over the dense baseline",
        paper: Some(latency::PAPER_FIG9),
        takes_models: false,
        run: latency::print_fig9,
    },
    Experiment {
        group: "repro",
        name: "convergence",
        artefact: "§VI-B: loss curves of pruned vs dense training",
        paper: Some(convergence::PAPER),
        takes_models: false,
        run: convergence::print,
    },
    Experiment {
        group: "repro",
        name: "distribution",
        artefact: "§III: normality of the activation gradients at the pruning positions",
        paper: Some(distribution::PAPER),
        takes_models: false,
        run: distribution::print,
    },
    Experiment {
        group: "repro",
        name: "update",
        artefact: "§II: the weight-update stage's share of a training step",
        paper: Some(update::PAPER),
        takes_models: false,
        run: update::print,
    },
    Experiment {
        group: "sweep",
        name: "arch",
        artefact: "§VI: PE count and buffer size around the paper's design point",
        paper: None,
        takes_models: false,
        run: arch::print,
    },
    Experiment {
        group: "sweep",
        name: "energy",
        artefact: "Fig. 9: sensitivity of the efficiency ratio to the per-event energy table",
        paper: None,
        takes_models: false,
        run: energy::print,
    },
    Experiment {
        group: "sweep",
        name: "fifo",
        artefact: "§III-B: threshold-predictor depth and design",
        paper: None,
        takes_models: false,
        run: fifo::print,
    },
    Experiment {
        group: "sweep",
        name: "format",
        artefact: "extension: storage format of the compressed operand rows",
        paper: None,
        takes_models: false,
        run: format::print,
    },
    Experiment {
        group: "sweep",
        name: "sched",
        artefact: "extension: the controller's task-scheduling policy",
        paper: None,
        takes_models: false,
        run: sched::print,
    },
];

/// The experiments of one group (`repro` or `sweep`), in table order.
pub fn in_group(group: &str) -> impl Iterator<Item = &'static Experiment> + '_ {
    EXPERIMENTS.iter().filter(move |e| e.group == group)
}

/// What one invocation's experiments share: the scale, the `--models`
/// subset, and the Fig. 8/9 grid, which both figures read and which is
/// simulated once however many of them are asked for.
pub struct Session {
    /// The scale every experiment runs at.
    pub profile: Profile,
    /// The models a `takes_models` experiment trains.
    pub models: Vec<ModelKind>,
    grid: Option<Vec<LatencyRow>>,
}

impl Session {
    /// A session at `profile` over `models`.
    pub fn new(profile: Profile, models: Vec<ModelKind>) -> Self {
        Self {
            profile,
            models,
            grid: None,
        }
    }

    /// The Fig. 8/9 simulation grid, run on first use.
    pub fn latency_grid(&mut self) -> &[LatencyRow] {
        let profile = self.profile;
        self.grid
            .get_or_insert_with(|| latency::run_grid(profile, &ModelKind::ALL, &Profile::dataset_names()))
    }
}

/// Runs `experiments` in order in one session, each printing to stdout.
pub fn run(experiments: &[&Experiment], session: &mut Session) {
    for e in experiments {
        (e.run)(session);
    }
}

/// A trainer under the evaluation's one recipe (batch 16, lr 0.01,
/// momentum 0.9, weight decay 1e-4, the default `simd` engine): only the
/// model, the pruning setting and the two seeds differ between
/// experiments.
pub(crate) fn trainer(
    model: ModelKind,
    spec: &SyntheticSpec,
    prune: Option<PruneConfig>,
    net_seed: u64,
    seed: u64,
) -> Trainer {
    let net = model.build(spec.channels, spec.size, spec.classes, prune, net_seed);
    Trainer::new(
        net,
        TrainConfig {
            batch_size: 16,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed,
            ..TrainConfig::standard()
        },
    )
}

/// `model` with the paper's pruning configuration, trained for the
/// profile's warm-up epochs on the simulator-scale proxy of `dataset` —
/// the FIFOs are full and the activation sparsity realistic — together
/// with the training set to trace a step from. Figs. 8/9 and the
/// architecture and energy sweeps all simulate traces of this trainer.
pub(crate) fn warmed_up(model: ModelKind, dataset: &str, profile: Profile) -> (Trainer, Dataset) {
    let spec = profile.sim_dataset(dataset);
    let (train, _) = spec.generate();
    let mut trainer = trainer(model, &spec, Some(PruneConfig::paper_default()), 11, 5);
    for _ in 0..profile.sim_warmup_epochs() {
        trainer.train_epoch(&train);
    }
    (trainer, train)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backticked `` `repro x` `` / `` `sweep x` `` cells of a Markdown
    /// table, as `(group, name)` pairs in document order.
    fn commands_in_markdown_table(text: &str) -> Vec<(String, String)> {
        text.lines()
            .filter(|line| line.starts_with("| `"))
            .filter_map(|line| {
                let cell = line.split('`').nth(1)?;
                let (group, name) = cell.split_once(' ')?;
                matches!(group, "repro" | "sweep").then(|| (group.to_string(), name.to_string()))
            })
            .collect()
    }

    #[test]
    fn names_are_unique_and_are_the_rows_of_the_readme_table() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names must be unique");

        let table: Vec<(String, String)> = EXPERIMENTS
            .iter()
            .map(|e| (e.group.to_string(), e.name.to_string()))
            .collect();
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
            .expect("README.md is readable");
        assert_eq!(commands_in_markdown_table(&readme), table);
    }
}
