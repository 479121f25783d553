//! Integration tests for sharded data-parallel training: the final
//! parameters after multi-epoch training must be **bitwise identical**
//! for any worker count, on every engine, with slow and killed workers in
//! the mix, and across a snapshot/resume that changes the worker count.
//!
//! Fault state is process-global and every sharded step consults the
//! `worker.kill` / `worker.slow` sites, so a sharded trainer can only be
//! built through a held `FaultGuard` (which serialises the tests and
//! clears the plan on drop): an unguarded sharded test beside a
//! fault-installing one would consume its `Trigger::At` occurrences.

use sparsetrain_checkpoint::CheckpointPolicy;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_faults::{self as faults, FaultPlan, Site, Trigger};
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::models;
use sparsetrain_nn::shard::ShardError;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_nn::Layer;
use std::sync::{Mutex, MutexGuard};

static GUARD: Mutex<()> = Mutex::new(());

struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn lock() -> Self {
        FaultGuard(GUARD.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A sharded trainer on the suite's fixture network. A method of the
    /// guard, so no test can train sharded without holding it.
    fn sharded_trainer(&self, config: TrainConfig) -> Trainer {
        assert!(config.shard.is_some(), "this suite trains sharded");
        let net = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
        Trainer::new(net, config)
    }

    /// Two sharded epochs; returns the final parameter bit patterns.
    fn run_sharded(&self, train: &Dataset, engine: Option<&str>, workers: usize) -> Vec<u32> {
        let mut trainer = self.sharded_trainer(make_config(engine, workers));
        trainer.train_epoch(train);
        trainer.train_epoch(train);
        param_bits(&mut trainer)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn dataset() -> Dataset {
    SyntheticSpec::tiny(3).generate().0
}

fn make_config(engine: Option<&str>, workers: usize) -> TrainConfig {
    let mut config = TrainConfig::quick().with_workers(workers);
    if let Some(name) = engine {
        config = config.with_engine_name(name);
    }
    config
}

fn param_bits(trainer: &mut Trainer) -> Vec<u32> {
    let mut bits = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| bits.extend(w.iter().map(|v| v.to_bits())));
    bits
}

#[test]
fn final_params_are_worker_count_invariant_on_every_engine() {
    let guard = FaultGuard::lock();
    let train = dataset();
    for engine in [None, Some("scalar"), Some("parallel:simd"), Some("auto")] {
        let one = guard.run_sharded(&train, engine, 1);
        for workers in [2, 4] {
            let n = guard.run_sharded(&train, engine, workers);
            assert_eq!(
                one, n,
                "{workers}-worker run diverged from 1-worker run on engine {engine:?}"
            );
        }
    }
}

#[test]
fn sharded_run_matches_single_threaded_run_bitwise() {
    // With one-sample granules the reduction brackets f32/f64 sums exactly
    // as the single-threaded batch loop does (per-sample wgrad adds, per-
    // part abs-sum adds), so the sharded trajectory lands bitwise on the
    // classic one — the strongest form of the aggregation guarantee.
    let guard = FaultGuard::lock();
    let train = dataset();
    let mut classic = Trainer::new(
        models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2))),
        TrainConfig::quick(),
    );
    classic.train_epoch(&train);
    classic.train_epoch(&train);
    let classic_bits = param_bits(&mut classic);
    let sharded_bits = guard.run_sharded(&train, None, 2);
    assert_eq!(
        classic_bits, sharded_bits,
        "sharded run diverged from classic run"
    );
}

#[test]
fn epoch_stats_are_worker_count_invariant() {
    let guard = FaultGuard::lock();
    let train = dataset();
    let stats = |workers: usize| {
        let mut trainer = guard.sharded_trainer(make_config(None, workers));
        let first = trainer.train_epoch(&train);
        let second = trainer.train_epoch(&train);
        (
            first.loss.to_bits(),
            first.accuracy.to_bits(),
            second.loss.to_bits(),
            second.accuracy.to_bits(),
        )
    };
    let one = stats(1);
    assert_eq!(one, stats(2));
    assert_eq!(one, stats(4));
}

#[test]
fn worker_kill_mid_epoch_preserves_the_aggregate() {
    let guard = FaultGuard::lock();
    let train = dataset();
    let clean = guard.run_sharded(&train, None, 4);

    // Rank 2 dies at its third kill check (= step 3 of epoch 1, mid-epoch):
    // the pool respawns it from the template and replays its granules.
    faults::install(FaultPlan::new(21).with_engine(Site::WorkerKill, Trigger::At(2), "2"));
    let mut trainer = guard.sharded_trainer(make_config(None, 4));
    trainer.train_epoch(&train);
    trainer.train_epoch(&train);
    let health = trainer.shard_health().expect("sharded trainer has a pool");
    assert!(health.respawns >= 1, "the killed worker was never respawned");
    assert_eq!(
        param_bits(&mut trainer),
        clean,
        "worker kill + replay changed the aggregated trajectory"
    );
}

#[test]
fn slow_workers_scramble_timing_but_not_results() {
    let guard = FaultGuard::lock();
    let train = dataset();
    let clean = guard.run_sharded(&train, None, 4);

    // Every rank stalls for a seeded delay on every step: replies arrive
    // in scrambled order, but reduction is keyed by granule index.
    faults::install(FaultPlan::new(5).with(Site::WorkerSlow, Trigger::Prob(1.0)));
    let slowed = guard.run_sharded(&train, None, 4);
    assert_eq!(slowed, clean, "slow workers changed the aggregated trajectory");
}

#[test]
fn resume_carries_across_worker_counts() {
    let guard = FaultGuard::lock();
    let train = dataset();
    let reference = guard.run_sharded(&train, None, 1);

    // One epoch at N=2, snapshot, resume the snapshot into an N=4 trainer.
    let mut first = guard.sharded_trainer(make_config(None, 2));
    first.train_epoch(&train);
    let snap = first.snapshot();
    drop(first);

    let mut resumed = guard.sharded_trainer(make_config(None, 4));
    resumed.resume(&snap).expect("snapshots are shard-agnostic");
    resumed.train_epoch(&train);
    assert_eq!(
        param_bits(&mut resumed),
        reference,
        "N=2 → snapshot → N=4 resume diverged from the straight run"
    );

    // The same across a *mid-epoch* snapshot: two epochs at N=2 with a
    // snapshot every 4 steps leave the newest one inside epoch 2, and the
    // N=4 trainer resuming it must skip exactly the batches already
    // trained before finishing the epoch.
    let dir = std::env::temp_dir().join(format!("sparsetrain-shard-midresume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy::every_steps(&dir, 4).with_keep(1);
    let mut first = guard.sharded_trainer(make_config(None, 2).with_checkpoint_policy(policy));
    first.train_epoch(&train);
    first.train_epoch(&train);
    let steps_per_epoch = first.stream_seeds().step() / 2;
    drop(first);
    let latest = sparsetrain_checkpoint::latest_in(&dir)
        .unwrap()
        .expect("snapshot written");
    let snap = sparsetrain_checkpoint::load(&latest).unwrap();
    assert_eq!(snap.position.epoch, 1, "expected a snapshot inside epoch 2");
    assert!(
        (1..steps_per_epoch).contains(&snap.position.steps_into_epoch),
        "expected a mid-epoch snapshot, got step {} of {steps_per_epoch}",
        snap.position.steps_into_epoch
    );

    let mut resumed = guard.sharded_trainer(make_config(None, 4));
    resumed.resume(&snap).expect("snapshots are shard-agnostic");
    resumed.train_epoch(&train); // finishes the partial epoch
    assert_eq!(
        param_bits(&mut resumed),
        reference,
        "N=2 → mid-epoch snapshot → N=4 resume diverged from the straight run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unshardable_models_are_rejected_with_typed_errors() {
    // AlexNet embeds train-mode Dropout (a sequential RNG); ResNets embed
    // BatchNorm (cross-sample statistics). Both must be refused at
    // construction, naming the offending layers.
    let alex = models::alexnet(3, 8, 3, 4, None, 11);
    match Trainer::new_sharded(alex, TrainConfig::quick().with_workers(2)) {
        Err(ShardError::Unshardable(layers)) => {
            assert!(
                layers.iter().any(|l| l.contains("drop")),
                "expected a dropout blocker, got {layers:?}"
            );
        }
        other => panic!("expected Unshardable, got {:?}", other.err()),
    }

    let resnet = models::resnet18(3, 3, 4, None, 11);
    match Trainer::new_sharded(resnet, TrainConfig::quick().with_workers(2)) {
        Err(ShardError::Unshardable(layers)) => {
            assert!(
                layers.iter().any(|l| l.contains("bn")),
                "expected a batch-norm blocker, got {layers:?}"
            );
        }
        other => panic!("expected Unshardable, got {:?}", other.err()),
    }

    // The same configs construct fine when not sharded.
    let alex = models::alexnet(3, 8, 3, 4, None, 11);
    let _ = Trainer::new(alex, TrainConfig::quick());
}
