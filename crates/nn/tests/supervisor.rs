//! Integration tests for the self-healing supervisor: seeded faults are
//! injected through the real seams (data loader, step kill, checkpoint
//! writes, engine dispatch) and every recovered run must land **bitwise**
//! on the uninterrupted run's parameters.
//!
//! Fault state is process-global, so every test takes `FaultGuard::lock()`
//! — a poison-tolerant mutex that also clears the installed plan on drop,
//! keeping a failing test from contaminating the next one.

use sparsetrain_checkpoint::CheckpointPolicy;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_faults::{self as faults, FaultPlan, Site, Trigger};
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::metrics::MetricStore;
use sparsetrain_nn::models;
use sparsetrain_nn::supervisor::{SuperviseError, Supervisor, SupervisorConfig};
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_nn::Layer;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static GUARD: Mutex<()> = Mutex::new(());

struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn lock() -> Self {
        FaultGuard(GUARD.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn quick_supervisor() -> Supervisor {
    Supervisor::new(SupervisorConfig {
        max_retries: 5,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
    })
}

fn make_trainer(config: TrainConfig) -> Trainer {
    Trainer::new(models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2))), config)
}

fn param_bits(trainer: &mut Trainer) -> Vec<u32> {
    let mut bits = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| bits.extend(w.iter().map(|v| v.to_bits())));
    bits
}

fn dataset() -> Dataset {
    SyntheticSpec::tiny(3).generate().0
}

/// Optimizer steps per epoch of the fixture (needed to aim faults at
/// specific epochs).
fn steps_per_epoch(train: &Dataset) -> u64 {
    let mut probe = make_trainer(TrainConfig::quick());
    probe.train_epoch(train);
    probe.stream_seeds().step()
}

/// The fixture config on the coordinator (`None`) or sharded over
/// `Some(n)` workers: the epoch scaffold's fault seams and resume skip
/// must behave identically around either kind of step.
fn config_for(workers: Option<usize>) -> TrainConfig {
    match workers {
        Some(n) => TrainConfig::quick().with_workers(n),
        None => TrainConfig::quick(),
    }
}

/// Plain, unfaulted, checkpoint-free 3-epoch run: the bitwise reference
/// every recovered run must reproduce.
fn reference(train: &Dataset, config: TrainConfig) -> (Vec<u32>, MetricStore) {
    let mut trainer = make_trainer(config);
    let mut metrics = MetricStore::new();
    trainer.train(train, None, 3, &mut metrics, &mut []);
    (param_bits(&mut trainer), metrics)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sparsetrain-supervisor-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fault_free_supervised_run_matches_plain_train() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let (ref_bits, ref_metrics) = reference(&train, TrainConfig::quick());

    let mut trainer = make_trainer(TrainConfig::quick());
    let mut metrics = MetricStore::new();
    let out = quick_supervisor()
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap();

    assert_eq!(out.outcome.epochs_run, 3);
    assert_eq!(out.recoveries, 0);
    assert!(out.quarantined.is_empty());
    assert_eq!(
        param_bits(&mut trainer),
        ref_bits,
        "fault-free supervision perturbed training"
    );
    assert_eq!(
        metrics.records(),
        ref_metrics.records(),
        "metric trajectory differs"
    );
    assert!(metrics.recoveries().is_empty());
}

#[test]
fn kill_mid_epoch_recovers_bitwise_from_disk() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let e = steps_per_epoch(&train);
    let (ref_bits, _) = reference(&train, TrainConfig::quick());

    for workers in [None, Some(2)] {
        let dir = temp_dir("kill");
        let config =
            config_for(workers).with_checkpoint_policy(CheckpointPolicy::every_steps(&dir, 3).with_keep(3));
        // The step-kill site is checked once per completed step, so At(n)
        // crashes the epoch loop right after step n+1 — aimed mid-epoch 2.
        faults::install(FaultPlan::new(42).with(Site::StepKill, Trigger::At(e + e / 2)));
        let mut trainer = make_trainer(config);
        let mut metrics = MetricStore::new();
        let out = quick_supervisor()
            .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
            .unwrap();

        assert_eq!(out.recoveries, 1, "workers {workers:?}");
        assert_eq!(out.outcome.epochs_run, 3);
        let rec = &metrics.recoveries()[0];
        assert_eq!(rec.kind, "kill");
        assert_eq!(
            rec.source, "disk",
            "a mid-epoch-2 snapshot must beat the epoch-1 shadow"
        );
        assert!(rec.resumed_step > e, "expected a mid-epoch-2 resume point");
        assert_eq!(rec.resumed_step % 3, 0, "disk snapshots land on the step cadence");
        assert_eq!(
            param_bits(&mut trainer),
            ref_bits,
            "recovered run diverged from reference (workers {workers:?})"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn kill_right_after_a_checkpoint_resumes_from_that_checkpoint() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let e = steps_per_epoch(&train);
    let (ref_bits, _) = reference(&train, TrainConfig::quick());
    // The kill lands right after a cadence step, while that step's snapshot
    // may still sit in the background writer's queue: recovery waits for it
    // and resumes there, not from the snapshot three steps older.
    let step = (e + 1).next_multiple_of(3);
    let dir = temp_dir("kill-after-ckpt");
    let config = TrainConfig::quick().with_checkpoint_policy(CheckpointPolicy::every_steps(&dir, 3));
    faults::install(FaultPlan::new(42).with(Site::StepKill, Trigger::At(step - 1)));
    let mut trainer = make_trainer(config);
    let mut metrics = MetricStore::new();
    let out = quick_supervisor()
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap();

    assert_eq!(out.recoveries, 1);
    let rec = &metrics.recoveries()[0];
    assert_eq!((rec.kind.as_str(), rec.source.as_str()), ("kill", "disk"));
    assert_eq!(rec.resumed_step, step);
    assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
    assert_eq!(param_bits(&mut trainer), ref_bits);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loader_fault_retries_via_shadow_and_stays_bitwise() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let e = steps_per_epoch(&train);
    let (ref_bits, _) = reference(&train, TrainConfig::quick());

    for workers in [None, Some(2)] {
        // The metric trajectory is compared against an unfaulted run on
        // the same path: the two paths bracket the epoch loss differently.
        faults::clear();
        let (_, ref_metrics) = reference(&train, config_for(workers));

        // No checkpoint policy: recovery can only use the in-memory shadow.
        // The loader site is checked once per trained batch, so At(e + 1)
        // fires on the second batch of epoch 2.
        faults::install(FaultPlan::new(7).with(Site::LoaderError, Trigger::At(e + 1)));
        let mut trainer = make_trainer(config_for(workers));
        let mut metrics = MetricStore::new();
        let out = quick_supervisor()
            .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
            .unwrap();

        assert_eq!(out.recoveries, 1, "workers {workers:?}");
        assert_eq!(out.outcome.epochs_run, 3);
        let rec = &metrics.recoveries()[0];
        assert_eq!(rec.kind, "loader");
        assert_eq!(rec.source, "shadow");
        assert_eq!(rec.attempt, 1);
        assert_eq!(rec.resumed_epoch, 1, "shadow was taken at the epoch-1 boundary");
        assert_eq!(rec.resumed_step, e);
        assert!(
            rec.backoff_ms >= 1,
            "loader faults are transient and must back off"
        );
        assert_eq!(param_bits(&mut trainer), ref_bits, "workers {workers:?}");
        // A full epoch replay reproduces the reference metric records exactly.
        assert_eq!(metrics.records(), ref_metrics.records());
    }
}

#[test]
fn engine_panic_quarantines_and_stays_bitwise() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let (ref_bits, _) = reference(&train, TrainConfig::quick().with_engine_name("parallel:simd"));

    // Panic the 6th parallel:simd dispatch (early in epoch 1). After the
    // quarantine every dispatch degrades to scalar — which is parity-pinned,
    // so the trajectory must not move.
    faults::install(FaultPlan::new(3).with_engine(Site::EnginePanic, Trigger::At(5), "parallel:simd"));
    let mut trainer = make_trainer(TrainConfig::quick().with_engine_name("parallel:simd"));
    let mut metrics = MetricStore::new();
    let out = quick_supervisor()
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap();

    assert_eq!(out.recoveries, 1);
    assert_eq!(out.quarantined, vec!["parallel:simd".to_string()]);
    let rec = &metrics.recoveries()[0];
    assert_eq!(rec.kind, "engine-panic");
    assert_eq!(rec.quarantined.as_deref(), Some("parallel:simd"));
    assert_eq!(
        rec.resumed_epoch, 0,
        "failed in epoch 1: shadow is the initial state"
    );
    assert!(trainer.context_mut().is_quarantined("parallel:simd"));
    assert_eq!(
        trainer.engine_name(),
        "parallel:simd",
        "configured name survives quarantine"
    );
    assert_eq!(
        param_bits(&mut trainer),
        ref_bits,
        "scalar fallback must be bitwise-neutral"
    );
}

#[test]
fn corrupt_newest_snapshot_is_skipped_and_reported() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let e = steps_per_epoch(&train);
    let (ref_bits, _) = reference(&train, TrainConfig::quick());

    let dir = temp_dir("torn");
    let config =
        TrainConfig::quick().with_checkpoint_policy(CheckpointPolicy::every_steps(&dir, 3).with_keep(3));
    // Kill right after the write at step s (a multiple of the cadence, deep
    // enough into epoch 2 that the previous snapshot at s-3 still beats the
    // epoch-1 shadow) and tear that very write: the newest snapshot on disk
    // is truncated garbage, and recovery must skip it, report it by name,
    // and resume from the older valid one.
    let s = (e + 5).div_ceil(3) * 3;
    faults::install(
        FaultPlan::new(9)
            .with(Site::StepKill, Trigger::At(s - 1))
            .with(Site::CkptWriteTorn, Trigger::At(s / 3 - 1)),
    );
    let mut trainer = make_trainer(config);
    let mut metrics = MetricStore::new();
    let out = quick_supervisor()
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap();

    assert_eq!(out.recoveries, 1);
    let rec = &metrics.recoveries()[0];
    assert_eq!(rec.kind, "kill");
    assert_eq!(rec.source, "disk");
    assert_eq!(
        rec.skipped.len(),
        1,
        "exactly the torn newest snapshot is skipped"
    );
    assert!(
        rec.skipped[0].contains(".stck"),
        "skip report names the file: {}",
        rec.skipped[0]
    );
    assert_eq!(rec.resumed_step, s - 3, "resumed from the older valid snapshot");
    assert_eq!(param_bits(&mut trainer), ref_bits);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_retries_surface_as_typed_error() {
    let _g = FaultGuard::lock();
    let train = dataset();

    // Every batch fails, forever: the supervisor must give up after
    // max_retries consecutive attempts instead of spinning.
    faults::install(FaultPlan::new(1).with(Site::LoaderError, Trigger::Prob(1.0)));
    let supervisor = Supervisor::new(SupervisorConfig {
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
    });
    let mut trainer = make_trainer(TrainConfig::quick());
    let mut metrics = MetricStore::new();
    let err = supervisor
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap_err();

    match err {
        SuperviseError::RetriesExhausted { attempts, last } => {
            assert_eq!(
                attempts, 3,
                "max_retries=2 allows two recoveries, fails on the third"
            );
            assert!(last.contains("loader.error"), "detail names the site: {last}");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    // The two recoveries before giving up are still on record.
    assert_eq!(metrics.recoveries().len(), 2);
}

#[test]
fn recovery_records_land_in_the_jsonl_file() {
    let _g = FaultGuard::lock();
    let train = dataset();
    let e = steps_per_epoch(&train);

    let path = std::env::temp_dir().join(format!(
        "sparsetrain-supervisor-jsonl-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    faults::install(FaultPlan::new(11).with(Site::LoaderError, Trigger::At(e + 1)));
    let mut trainer = make_trainer(TrainConfig::quick());
    let mut metrics = MetricStore::with_jsonl(&path);
    quick_supervisor()
        .train(&mut trainer, &train, None, 3, &mut metrics, &mut [])
        .unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let recovery_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"recovery\":{"))
        .collect();
    assert_eq!(recovery_lines.len(), 1);
    assert!(recovery_lines[0].contains("\"kind\":\"loader\""));
    assert!(recovery_lines[0].contains("\"source\":\"shadow\""));
    assert!(text.ends_with('\n'), "jsonl file ends on a complete line");
    std::fs::remove_file(&path).unwrap();
}
