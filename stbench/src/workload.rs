//! Building a workload's inputs and trainer from a seed, and the untraced
//! run that measures the end-to-end metrics.

use crate::facts::peak_rss_mib;
use crate::span::Recorder;
use crate::spec::{
    valid_name, valid_unit, Workload, BATCH, RESUME_SAMPLES, RUN_SECONDS, TEST_SAMPLES, WARM_SAMPLES,
};
use crate::stats::{median, percentile};
use crate::traced;
use sparsetrain_checkpoint::{CheckpointPolicy, LayerState};
use sparsetrain_core::dataflow::NetworkTrace;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::models::{self, ModelKind};
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_nn::Sequential;
use sparsetrain_sim::baseline::simulate_baseline;
use sparsetrain_sim::{ArchConfig, Machine, SimReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Momentum and weight decay of every workload (the learning rate is
/// [`Workload::learning_rate`]).
pub const MOMENTUM: f32 = 0.9;
pub const WEIGHT_DECAY: f32 = 1e-4;
/// Shard workers of `ops_shard_ckpt`.
pub const WORKERS: usize = 2;

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub warm: usize,
    pub timed: usize,
    pub test: usize,
    pub resume: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed calls per replayed kernel cell (median reported).
    pub replay_calls: usize,
    /// Steps per leg of the planner comparison.
    pub leg_steps: usize,
}

impl Sizes {
    /// The default sizes with the timed epoch scaled to `seconds` of
    /// training (whole batches, at least one). The sample count is a pure
    /// function of `seconds`, so a seed still fixes every output.
    pub fn for_seconds(w: Workload, seconds: u64) -> Sizes {
        let batches = w.timed_samples() / BATCH;
        let scaled = (batches as u64 * seconds).div_ceil(RUN_SECONDS).max(1) as usize;
        Sizes {
            warm: WARM_SAMPLES,
            timed: scaled * BATCH,
            test: TEST_SAMPLES,
            resume: if w.sharded() { RESUME_SAMPLES } else { 0 },
            setup_reps: 3,
            replay_calls: 11,
            leg_steps: 40,
        }
    }

    /// A step or two of everything: checks the plumbing, measures nothing.
    pub fn smoke(w: Workload) -> Sizes {
        Sizes {
            warm: BATCH,
            timed: 2 * BATCH,
            test: BATCH,
            resume: if w.sharded() { BATCH } else { 0 },
            setup_reps: 1,
            replay_calls: 1,
            leg_steps: 1,
        }
    }
}

/// Counts operations attempted and failed; a failed check is remembered
/// by name so the result says what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(format!("{what} ({failed} of {n})"));
        }
    }
}

/// A scratch directory beside the executable (so inside the checkout's
/// build directory), removed when dropped: on success, on a failed check
/// and while a panic unwinds.
#[derive(Debug)]
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    pub fn create() -> std::io::Result<TempRoot> {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().unwrap_or(Path::new("."));
        // Unique per process and per root, so concurrent runs (and tests on
        // parallel threads) never remove each other's files.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = format!("{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let path = dir.join("stbench-tmp").join(unique);
        fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    /// A fresh path under the root; whoever uses it creates it.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory sits
        // in the ignored build directory.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The generated inputs of one run. The program under test sees only these.
pub struct Data {
    pub warm: Dataset,
    /// The timed phase, one mini-batch per dataset: each is trained by its
    /// own `Trainer::train_epoch` call, which is the finest grain at which
    /// an untraced run can be timed from outside.
    pub timed: Vec<Dataset>,
    /// Ten more steps for the resumed-run check (empty unless sharded).
    pub resume: Dataset,
    pub test: Dataset,
    pub generate: Duration,
}

/// Generates every sample once and deals it out, so no sample is trained
/// on twice and the net never reaches the prune-to-empty regime.
pub fn generate(w: Workload, seed: u64, sizes: &Sizes) -> Data {
    let started = Instant::now();
    let spec = SyntheticSpec {
        train_samples: sizes.warm + sizes.timed + sizes.resume,
        test_samples: sizes.test,
        size: w.image_size(),
        seed,
        ..SyntheticSpec::cifar10_like()
    };
    let (mut train, test) = spec.generate();
    let mut deal = |n: usize| Dataset {
        images: train.images.drain(..n).collect(),
        labels: train.labels.drain(..n).collect(),
        num_classes: train.num_classes,
    };
    let warm = deal(sizes.warm);
    let timed = (0..sizes.timed / BATCH).map(|_| deal(BATCH)).collect();
    let resume = deal(sizes.resume);
    Data {
        warm,
        timed,
        resume,
        test,
        generate: started.elapsed(),
    }
}

pub fn model_name(w: Workload) -> &'static str {
    match w {
        Workload::AlexnetPruned => ModelKind::Alexnet.name(),
        Workload::ResnetPrunedMt | Workload::ResnetDenseRef => ModelKind::Resnet18.name(),
        Workload::OpsShardCkpt => "mini_cnn",
    }
}

pub fn build_net(w: Workload, seed: u64) -> Sequential {
    let prune = w.pruned().then(|| PruneConfig::new(0.9, 4));
    let (channels, classes) = (3, 10);
    match w {
        Workload::AlexnetPruned => ModelKind::Alexnet.build(channels, w.image_size(), classes, prune, seed),
        Workload::ResnetPrunedMt | Workload::ResnetDenseRef => {
            ModelKind::Resnet18.build(channels, w.image_size(), classes, prune, seed)
        }
        Workload::OpsShardCkpt => models::mini_cnn_for(channels, w.image_size(), classes, 16, prune, seed),
    }
}

/// The checkpoint policy of the sharded workload: every step, keep three.
pub fn checkpoint_policy(dir: &Path) -> CheckpointPolicy {
    CheckpointPolicy::every_steps(dir, 1).with_keep(3)
}

/// `ckpt_dir` is where the sharded workload writes its snapshots.
pub fn train_config(w: Workload, seed: u64, ckpt_dir: &Path) -> TrainConfig {
    let mut config = TrainConfig {
        batch_size: BATCH,
        lr: w.learning_rate(),
        momentum: MOMENTUM,
        weight_decay: WEIGHT_DECAY,
        seed,
        engine: None,
        checkpoint: None,
        shard: None,
    };
    if let Some(engine) = w.engine() {
        config = config.with_engine_name(engine);
    }
    if w.sharded() {
        config = config
            .with_workers(WORKERS)
            .with_checkpoint_policy(checkpoint_policy(ckpt_dir));
    }
    config
}

/// A trainer after its warm-up epoch, with what set-up cost.
pub struct Warmed {
    pub data: Data,
    pub trainer: Trainer,
    pub warm_loss: f64,
    pub setup: Duration,
    pub ckpt_dir: PathBuf,
}

/// Set-up: generate the data, build model and trainer, train the warm-up
/// epoch (which spawns the worker pool and creates the checkpoint
/// directory where there is one).
pub fn set_up(w: Workload, seed: u64, sizes: &Sizes, ckpt_dir: PathBuf, tally: &mut Tally) -> Warmed {
    let started = Instant::now();
    let data = generate(w, seed, sizes);
    let mut trainer = Trainer::new(build_net(w, seed), train_config(w, seed, &ckpt_dir));
    let warm = trainer.train_epoch(&data.warm);
    let setup = started.elapsed();
    tally.check(warm.loss.is_finite(), "warm-up epoch loss is not finite");
    Warmed {
        data,
        trainer,
        warm_loss: warm.loss,
        setup,
        ckpt_dir,
    }
}

/// The timed phase through `Trainer::train_epoch`, one call per batch.
pub struct TimedSteps {
    /// Mean over the steps of each step's mean loss.
    pub loss: f64,
    /// Wall time of each call, in seconds.
    pub step_s: Vec<f64>,
}

impl TimedSteps {
    pub fn run(trainer: &mut Trainer, batches: &[Dataset], tally: &mut Tally) -> TimedSteps {
        let mut loss = 0.0;
        let mut bad = 0;
        let mut step_s = Vec::with_capacity(batches.len());
        for batch in batches {
            let started = Instant::now();
            let stats = trainer.train_epoch(batch);
            step_s.push(started.elapsed().as_secs_f64());
            loss += stats.loss;
            bad += u64::from(!stats.loss.is_finite());
        }
        tally.count(batches.len() as u64, bad, "timed steps with a non-finite loss");
        TimedSteps {
            loss: loss / batches.len().max(1) as f64,
            step_s,
        }
    }

    /// Samples per second of the quarter of the steps that ran fastest.
    ///
    /// The sandbox's neighbours slow a run down for seconds at a time, by
    /// up to 1.7x and only ever in one direction, so the mean (and even the
    /// median) step time of one run moves by 10-15 % between identical
    /// runs while the lower quartile moves by 3 %.
    pub fn samples_per_s(&self) -> f64 {
        BATCH as f64 / percentile(&self.step_s, 25.0).expect("at least one timed step")
    }

    /// Samples per second over the whole timed phase, disturbances included.
    pub fn samples_per_s_wall(&self) -> f64 {
        (BATCH * self.step_s.len()) as f64 / self.step_s.iter().sum::<f64>()
    }
}

/// Training steps captured after the timed phase for the simulator: one
/// sample's sparsity pattern says little, so several are averaged.
pub const CAPTURES: usize = 8;

/// Traces of training steps after the timed phase and their simulation on
/// the SparseTrain machine and on the dense baseline.
pub struct Simulated {
    /// The first captured step (the one replayed cell by cell).
    pub trace: NetworkTrace,
    /// Wall time of capturing it.
    pub capture: Duration,
    pub speedup: f64,
    pub energy_eff: f64,
}

/// Captures [`CAPTURES`] steps (the first sample of evenly spaced batches;
/// no parameter update, pruner state frozen) and simulates each.
pub fn capture_and_simulate(w: Workload, trainer: &mut Trainer, batches: &[Dataset]) -> Simulated {
    let machine = Machine::new(ArchConfig::paper_default());
    let stride = (batches.len() / CAPTURES).max(1);
    let mut first = None;
    let mut sparse = Vec::new();
    let mut dense = Vec::new();
    for batch in batches.iter().step_by(stride).take(CAPTURES) {
        let started = Instant::now();
        let trace = trainer.capture_trace_at(batch, 0, model_name(w), "synthetic");
        let capture = started.elapsed();
        sparse.push(machine.simulate(&trace));
        dense.push(simulate_baseline(&machine, &trace));
        first.get_or_insert((trace, capture));
    }
    let (trace, capture) = first.expect("at least one timed batch");
    let sparse = SimReport::mean_of(&sparse);
    let dense = SimReport::mean_of(&dense);
    Simulated {
        speedup: sparse.speedup_over(&dense),
        energy_eff: sparse.energy_efficiency_over(&dense),
        trace,
        capture,
    }
}

/// The resumed-run check of the sharded workload: reload the newest
/// snapshot from disk, resume a fresh trainer from it, train ten more
/// steps on both, and require the same loss bits and the same encoded
/// state as the run that was never interrupted.
pub fn resume_check(w: Workload, seed: u64, warmed: &mut Warmed, tmp: &TempRoot, tally: &mut Tally) {
    let newest = sparsetrain_checkpoint::latest_in(&warmed.ckpt_dir)
        .ok()
        .flatten()
        .and_then(|path| sparsetrain_checkpoint::load(&path).ok());
    tally.check(newest.is_some(), "newest snapshot does not load");
    let Some(snapshot) = newest else { return };

    let straight = warmed.trainer.train_epoch(&warmed.data.resume);
    let mut resumed = Trainer::new(build_net(w, seed), train_config(w, seed, &tmp.sub("resumed")));
    let ok = resumed.resume(&snapshot).is_ok();
    tally.check(ok, "fresh trainer rejects the newest snapshot");
    if !ok {
        return;
    }
    // The snapshot sits after the step of the last timed batch, before the
    // end of that batch's epoch: replaying it skips the batch and closes it.
    resumed.train_epoch(warmed.data.timed.last().expect("at least one timed batch"));
    let again = resumed.train_epoch(&warmed.data.resume);
    tally.check(
        again.loss.to_bits() == straight.loss.to_bits(),
        "resumed run's loss differs from the uninterrupted run",
    );
    // `capture_trace_at` ran a backward pass on the straight trainer after
    // the snapshot was written; that pass is frozen for the pruners but
    // still advances the conv layers' density accumulators. Those feed
    // reporting, not the trajectory, so they are left out of the comparison.
    let state = |trainer: &Trainer| {
        let mut snapshot = trainer.snapshot();
        snapshot
            .layers
            .retain(|layer| !matches!(layer, LayerState::Density { .. }));
        snapshot.encode().ok()
    };
    let same_state = state(&warmed.trainer).is_some_and(|bytes| Some(bytes) == state(&resumed));
    tally.check(
        same_state,
        "resumed run's state differs from the uninterrupted run",
    );
}

/// A named value with its unit.
pub type Metric = (String, f64, &'static str);

/// # Panics
///
/// Panics on a name or unit the benchmark contract would refuse: that is
/// a typo in this program, caught on the first run.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    assert!(valid_name(name), "metric name {name:?} is not valid");
    assert!(valid_unit(unit), "unit {unit:?} of {name} is not valid");
    (name.to_string(), value, unit)
}

/// The untraced run: the end-to-end metrics of one workload.
pub fn run_untraced(w: Workload, seed: u64, sizes: &Sizes, tmp: &TempRoot, tally: &mut Tally) -> Vec<Metric> {
    // Set up several times; only the last trainer goes on. Each earlier
    // one is dropped before the next is built, so peak memory is that of
    // one set-up.
    let mut setups = Vec::new();
    let mut warm_bits = Vec::new();
    let mut warmed = None;
    for rep in 0..sizes.setup_reps {
        drop(warmed.take());
        let w_rep = set_up(w, seed, sizes, tmp.sub(&format!("ckpt{rep}")), tally);
        setups.push(w_rep.setup.as_secs_f64());
        warm_bits.push(w_rep.warm_loss.to_bits());
        warmed = Some(w_rep);
    }
    let mut warmed = warmed.expect("at least one set-up");
    tally.check(
        warm_bits.iter().all(|b| *b == warm_bits[0]),
        "warm-up loss differs between set-ups of one seed",
    );

    // Output check before timing: the same epoch through the bench-side
    // loop (one public call per layer) must give the same loss bits.
    drop(traced::warm_up_check(
        w,
        seed,
        &warmed,
        Arc::new(Recorder::default()),
        tmp,
        tally,
    ));

    let timed = TimedSteps::run(&mut warmed.trainer, &warmed.data.timed, tally);
    let eval_acc = warmed.trainer.evaluate(&warmed.data.test);
    let grad_density = warmed.trainer.mean_grad_density();
    let sim = capture_and_simulate(w, &mut warmed.trainer, &warmed.data.timed);

    if w.sharded() {
        let steps = (sizes.warm / BATCH + warmed.data.timed.len()) as u64;
        let health = warmed.trainer.shard_health().unwrap_or_default();
        tally.count(steps, health.retries as u64, "shard granules retried");
        resume_check(w, seed, &mut warmed, tmp, tally);
    }

    let mut metrics = vec![
        metric("setup_s", median(&setups).expect("at least one set-up"), "s"),
        metric("samples_per_s", timed.samples_per_s(), "samples/s"),
        metric("samples_per_s_wall", timed.samples_per_s_wall(), "samples/s"),
        metric("epoch_loss", timed.loss, "nats"),
        metric("eval_acc", eval_acc, "fraction"),
    ];
    if let Some(density) = grad_density {
        metrics.push(metric("grad_density", density, "fraction"));
    }
    metrics.push(metric("sim_speedup", sim.speedup, "x"));
    metrics.push(metric("sim_energy_eff", sim.energy_eff, "x"));
    if let Some(mib) = peak_rss_mib() {
        metrics.push(metric("peak_rss_mb", mib, "MiB"));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_the_timed_epoch_in_whole_batches() {
        let w = Workload::AlexnetPruned;
        assert_eq!(Sizes::for_seconds(w, RUN_SECONDS).timed, w.timed_samples());
        assert_eq!(
            Sizes::for_seconds(w, 2 * RUN_SECONDS).timed,
            2 * w.timed_samples()
        );
        assert_eq!(Sizes::for_seconds(w, 1).timed, 9 * BATCH);
        assert_eq!(Sizes::for_seconds(w, 0).timed, BATCH);
        assert_eq!(Sizes::for_seconds(w, RUN_SECONDS).resume, 0);
        assert_eq!(
            Sizes::for_seconds(Workload::OpsShardCkpt, RUN_SECONDS).resume,
            RESUME_SAMPLES
        );
    }

    #[test]
    fn data_is_dealt_without_reuse_and_repeats_for_a_seed() {
        let w = Workload::OpsShardCkpt;
        let sizes = Sizes::smoke(w);
        let a = generate(w, 5, &sizes);
        let b = generate(w, 5, &sizes);
        let c = generate(w, 6, &sizes);
        assert_eq!(
            (a.warm.len(), a.timed.len() * BATCH, a.resume.len(), a.test.len()),
            (sizes.warm, sizes.timed, sizes.resume, sizes.test)
        );
        assert!(a.timed.iter().all(|batch| batch.len() == BATCH));
        assert_eq!(a.timed[0].images[0].as_slice(), b.timed[0].images[0].as_slice());
        assert_ne!(a.timed[0].images[0].as_slice(), c.timed[0].images[0].as_slice());
        assert_ne!(a.warm.images[0].as_slice(), a.timed[0].images[0].as_slice());
        assert_ne!(a.timed[0].images[0].as_slice(), a.timed[1].images[0].as_slice());
        assert_eq!(a.timed[0].images[0].shape(), (3, 16, 16));
    }

    #[test]
    fn temp_root_is_removed_on_drop_and_on_unwind() {
        let root = TempRoot::create().unwrap();
        let dir = root.sub("ckpt0");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("file"), b"x").unwrap();
        let path = root.path.clone();
        drop(root);
        assert!(!path.exists());

        let unwound = std::panic::catch_unwind(|| {
            let root = TempRoot::create().unwrap();
            fs::create_dir_all(root.sub("ckpt0")).unwrap();
            let path = root.path.clone();
            std::panic::resume_unwind(Box::new(path));
        });
        let path = unwound.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn tally_counts_failures_by_name() {
        let mut tally = Tally::default();
        tally.check(true, "fine");
        tally.check(false, "broken");
        tally.count(10, 0, "saves");
        tally.count(5, 2, "retries");
        assert_eq!((tally.attempted, tally.failed), (17, 3));
        assert_eq!(tally.failures, ["broken", "retries (2 of 5)"]);
    }
}
