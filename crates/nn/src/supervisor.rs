//! The self-healing training supervisor.
//!
//! [`Supervisor::train`] wraps the epoch loop of [`Trainer::train`] in
//! crash isolation: every epoch runs under `catch_unwind`, and a panic —
//! an injected fault, a kernel blowing up mid-band, a checkpoint write
//! failing — is classified, retried with bounded exponential backoff, and
//! recovered from instead of taking the process down. Recovery restores
//! the trainer from the newest **valid** snapshot in the checkpoint
//! directory (corrupt or truncated files are skipped via their typed
//! [`LoadError`]s, never trusted), falling back to the in-memory shadow
//! snapshot taken at the start of the failed epoch. A panicking engine is
//! quarantined — its dispatches fall back to `scalar`, which is
//! bitwise-safe because every float engine is parity-pinned — and the
//! quarantine set is re-applied after every resume, since resuming can
//! rebuild the execution context.
//!
//! Because training is a pure function of the recorded state, a recovered
//! run lands **bitwise** on the uninterrupted run's trajectory: resuming
//! from an older snapshot merely replays more steps, and a replayed epoch
//! that was already recorded is not recorded again. The metric records
//! match the uninterrupted run's except where a recovery resumed
//! mid-epoch from disk: that epoch's record covers only the batches
//! trained after the resume, so its loss and accuracy differ. Every
//! recovery is appended to the [`MetricStore`] as a structured
//! [`RecoveryRecord`] jsonl line.
//!
//! ```
//! use sparsetrain_nn::data::SyntheticSpec;
//! use sparsetrain_nn::metrics::MetricStore;
//! use sparsetrain_nn::models;
//! use sparsetrain_nn::supervisor::Supervisor;
//! use sparsetrain_nn::train::{TrainConfig, Trainer};
//!
//! let (train, _) = SyntheticSpec::tiny(2).generate();
//! let mut trainer = Trainer::new(models::mini_cnn(2, 2, None), TrainConfig::quick());
//! let mut metrics = MetricStore::new();
//! let out = Supervisor::default()
//!     .train(&mut trainer, &train, None, 1, &mut metrics, &mut [])
//!     .unwrap();
//! assert_eq!(out.outcome.epochs_run, 1);
//! assert_eq!(out.recoveries, 0); // no faults, no recoveries
//! ```

use crate::data::Dataset;
use crate::metrics::{MetricStore, RecoveryRecord, StopCondition};
use crate::train::{TrainOutcome, Trainer};
use sparsetrain_checkpoint::{scan_latest_valid, LoadError, Snapshot};
use sparsetrain_faults::{InjectedFault, Site};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Retry and backoff policy of a [`Supervisor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Consecutive failed epoch attempts tolerated before giving up.
    pub max_retries: usize,
    /// Backoff before the first retry of a transient fault; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 5,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(2),
        }
    }
}

impl SupervisorConfig {
    /// The exponential backoff before retry `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at `backoff_max`.
    pub fn backoff_delay(&self, attempt: usize) -> Duration {
        let factor = 1u32 << (attempt.saturating_sub(1)).min(20) as u32;
        self.backoff_base.saturating_mul(factor).min(self.backoff_max)
    }
}

/// What a supervised run did, beyond the plain [`TrainOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedOutcome {
    /// The underlying training outcome (progress epochs and early-stop
    /// reason).
    pub outcome: TrainOutcome,
    /// Recoveries performed (each one is also a [`RecoveryRecord`] in the
    /// metric store).
    pub recoveries: usize,
    /// Engines quarantined over the run, in quarantine order.
    pub quarantined: Vec<String>,
}

/// Why a supervised run gave up.
#[derive(Debug)]
pub enum SuperviseError {
    /// More consecutive failures than `max_retries` allows.
    RetriesExhausted {
        /// Consecutive failed attempts.
        attempts: usize,
        /// Detail of the last failure.
        last: String,
    },
    /// Recovery itself failed — no valid snapshot and the in-memory shadow
    /// would not restore.
    Unrecoverable(String),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} consecutive failures (last: {last})")
            }
            SuperviseError::Unrecoverable(msg) => write!(f, "unrecoverable: {msg}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

/// A classified epoch failure.
struct Failure {
    /// Classification for the recovery record (`"kill"`, `"engine-panic"`,
    /// `"loader"`, `"transient-io"`, `"step-panic"`).
    kind: &'static str,
    /// Rendered panic payload.
    detail: String,
    /// Transient faults sleep the exponential backoff before retrying;
    /// crash-like faults retry immediately (waiting cannot help a kill).
    transient: bool,
    /// Engine to quarantine before retrying, if the failure implicates one.
    quarantine: Option<String>,
}

/// The text of a string panic payload (what `panic!` carries), if any.
pub fn panic_text(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
}

fn classify(payload: &(dyn Any + Send), last_engine: Option<&'static str>, streak: usize) -> Failure {
    if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        let detail = fault.to_string();
        return match fault.site {
            Site::EnginePanic => Failure {
                kind: "engine-panic",
                detail,
                transient: false,
                quarantine: Some(fault.detail.clone()),
            },
            Site::LoaderError => Failure {
                kind: "loader",
                detail,
                transient: true,
                quarantine: None,
            },
            Site::StepKill => Failure {
                kind: "kill",
                detail,
                transient: false,
                quarantine: None,
            },
            _ => Failure {
                kind: "transient-io",
                detail,
                transient: true,
                quarantine: None,
            },
        };
    }
    let text = panic_text(payload);
    let detail = text.unwrap_or("non-string panic payload").to_string();
    if text.is_some_and(|t| t.contains("cannot write checkpoint")) {
        return Failure {
            kind: "transient-io",
            detail,
            transient: true,
            quarantine: None,
        };
    }
    // An unrecognized panic that keeps recurring while a non-scalar engine
    // was the last thing dispatched: suspect the engine and quarantine it —
    // a real kernel bug degrades to scalar instead of burning every retry.
    let quarantine = (streak >= 2)
        .then_some(last_engine)
        .flatten()
        .filter(|e| *e != "scalar")
        .map(str::to_string);
    Failure {
        kind: "step-panic",
        detail,
        transient: false,
        quarantine,
    }
}

/// Filters the process's panic hook: injected-fault panics are expected
/// control flow under a supervisor, so their stderr backtrace spam is
/// suppressed; every other panic still reaches the hook that was installed
/// when the first supervised run started. The filter is installed once per
/// process and never taken down, so the caller's hook outlives every
/// supervised run, and overlapping runs share the one filter.
fn filter_panic_hook() {
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let silenced = payload.is::<InjectedFault>()
                || panic_text(payload)
                    .is_some_and(|s| s.contains("injected") || s.contains("cannot write checkpoint"));
            if !silenced {
                prev(info);
            }
        }));
    });
}

/// Wraps a [`Trainer`] in crash isolation, retry/backoff, engine
/// quarantine and snapshot-based auto-resume. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor with the given retry/backoff policy.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor { config }
    }

    /// Runs up to `epochs` epochs like [`Trainer::train`], but rides
    /// through panics: classify, back off, quarantine, restore from the
    /// newest valid snapshot (disk first, in-memory shadow as fallback)
    /// and continue. Metric records for epochs already recorded before a
    /// rollback are suppressed on replay, so each epoch is recorded once;
    /// an epoch resumed mid-way from disk records the loss and accuracy of
    /// its remaining batches only.
    ///
    /// # Errors
    ///
    /// [`SuperviseError::RetriesExhausted`] after `max_retries`
    /// consecutive failed attempts; [`SuperviseError::Unrecoverable`] when
    /// no restorable state remains.
    pub fn train(
        &self,
        trainer: &mut Trainer,
        train: &Dataset,
        val: Option<&Dataset>,
        epochs: usize,
        metrics: &mut MetricStore,
        stops: &mut [Box<dyn StopCondition>],
    ) -> Result<SupervisedOutcome, SuperviseError> {
        filter_panic_hook();
        let target = trainer.stream_seeds().epoch() + epochs as u64;
        let mut last_recorded = trainer.stream_seeds().epoch();
        let mut epochs_run = 0usize;
        let mut recoveries = 0usize;
        let mut quarantined: Vec<String> = Vec::new();
        let mut streak = 0usize;
        let mut stopped = None;

        while trainer.stream_seeds().epoch() < target && stopped.is_none() {
            // The shadow snapshot: whatever happens to the disk, this
            // epoch's starting state stays restorable. (Mid-epoch positions
            // snapshot correctly too — resume replays the shuffle and skips
            // the already-trained batches.)
            let shadow = trainer.snapshot();
            // The epoch's last checkpoint lands inside the isolation, so a
            // failing background write is classified and retried like any
            // other panic instead of surfacing after the run.
            let run_epoch = || {
                let stats = trainer.train_epoch(train);
                trainer
                    .flush_checkpoints()
                    .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
                stats
            };
            match catch_unwind(AssertUnwindSafe(run_epoch)) {
                Ok(stats) => {
                    streak = 0;
                    let epoch = trainer.stream_seeds().epoch();
                    if epoch <= last_recorded {
                        continue; // replaying an already-recorded epoch
                    }
                    last_recorded = epoch;
                    epochs_run += 1;
                    stopped = trainer.record_epoch(stats, val, metrics, stops);
                }
                Err(payload) => {
                    streak += 1;
                    let last_engine = trainer.context_mut().last_dispatched_engine();
                    let failure = classify(payload.as_ref(), last_engine, streak);
                    if streak > self.config.max_retries {
                        return Err(SuperviseError::RetriesExhausted {
                            attempts: streak,
                            last: failure.detail,
                        });
                    }
                    let backoff = if failure.transient {
                        self.config.backoff_delay(streak)
                    } else {
                        Duration::ZERO
                    };
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    let newly_quarantined = failure.quarantine.filter(|engine| {
                        let fresh = trainer.context_mut().quarantine(engine);
                        if fresh {
                            quarantined.push(engine.clone());
                        }
                        fresh
                    });
                    let failed_epoch = trainer.stream_seeds().epoch();
                    let failed_step = trainer.stream_seeds().step();
                    let recovery = self.recover(trainer, &shadow)?;
                    recoveries += 1;
                    metrics.record_recovery(RecoveryRecord {
                        kind: failure.kind.to_string(),
                        detail: failure.detail,
                        epoch: failed_epoch,
                        step: failed_step,
                        attempt: streak as u64,
                        quarantined: newly_quarantined,
                        resumed_epoch: recovery.epoch,
                        resumed_step: recovery.step,
                        source: recovery.source.to_string(),
                        skipped: recovery.skipped,
                        backoff_ms: backoff.as_millis() as u64,
                    });
                }
            }
        }
        Ok(SupervisedOutcome {
            outcome: TrainOutcome { epochs_run, stopped },
            recoveries,
            quarantined,
        })
    }

    /// Restores the trainer after a failure: newest valid disk snapshot if
    /// it is ahead of the shadow, the shadow otherwise. Corrupt snapshots
    /// (and a disk snapshot that refuses to resume) are reported in
    /// `skipped`, never fatal — only losing the shadow too is
    /// unrecoverable.
    fn recover(&self, trainer: &mut Trainer, shadow: &Snapshot) -> Result<Recovery, SuperviseError> {
        let mut skipped: Vec<String> = Vec::new();
        // A write handed off before the failure still lands (or fails) first,
        // so the scan below always sees the same directory.
        if let Err(e) = trainer.flush_checkpoints() {
            skipped.push(format!("background checkpoint write failed: {e}"));
        }
        let dir = trainer.checkpoints().map(|mgr| mgr.policy().dir.clone());
        if let Some(dir) = dir {
            match scan_latest_valid(&dir, &trainer.faults) {
                Ok(outcome) => {
                    skipped.extend(outcome.skipped.iter().map(LoadError::to_string));
                    if let Some((path, snap)) = outcome.latest_valid {
                        // A disk snapshot older than the shadow would only
                        // replay extra (bitwise-identical) steps; prefer
                        // whichever is further along.
                        if snap.position.step > shadow.position.step
                            || (snap.position.step == shadow.position.step
                                && snap.position.steps_into_epoch > shadow.position.steps_into_epoch)
                        {
                            match trainer.resume(&snap) {
                                Ok(()) => {
                                    return Ok(Recovery {
                                        source: "disk",
                                        epoch: snap.position.epoch,
                                        step: snap.position.step,
                                        skipped,
                                    })
                                }
                                Err(e) => skipped.push(format!("{}: {e}", path.display())),
                            }
                        }
                    }
                }
                Err(e) => skipped.push(format!("checkpoint scan of {} failed: {e}", dir.display())),
            }
        }
        match trainer.resume(shadow) {
            Ok(()) => Ok(Recovery {
                source: "shadow",
                epoch: shadow.position.epoch,
                step: shadow.position.step,
                skipped,
            }),
            Err(e) => Err(SuperviseError::Unrecoverable(format!(
                "in-memory shadow snapshot refused to resume: {e}"
            ))),
        }
    }
}

/// How one recovery restored the trainer.
struct Recovery {
    source: &'static str,
    epoch: u64,
    step: u64,
    skipped: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let config = SupervisorConfig {
            max_retries: 5,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(70),
        };
        assert_eq!(config.backoff_delay(1), Duration::from_millis(10));
        assert_eq!(config.backoff_delay(2), Duration::from_millis(20));
        assert_eq!(config.backoff_delay(3), Duration::from_millis(40));
        assert_eq!(config.backoff_delay(4), Duration::from_millis(70), "capped");
        assert_eq!(
            config.backoff_delay(100),
            Duration::from_millis(70),
            "shift saturates"
        );
    }

    #[test]
    fn supervise_error_display_names_every_detail() {
        let exhausted = SuperviseError::RetriesExhausted {
            attempts: 6,
            last: "injected step.kill after step 12".into(),
        }
        .to_string();
        assert!(
            exhausted.contains("6 consecutive failures") && exhausted.contains("after step 12"),
            "{exhausted}"
        );

        let unrecoverable =
            SuperviseError::Unrecoverable("shadow snapshot refused: seed mismatch".into()).to_string();
        assert!(
            unrecoverable.contains("unrecoverable") && unrecoverable.contains("seed mismatch"),
            "{unrecoverable}"
        );
    }

    #[test]
    fn classification_maps_sites_and_payloads() {
        let engine_panic: Box<dyn Any + Send> = Box::new(InjectedFault {
            site: Site::EnginePanic,
            detail: "parallel:simd".to_string(),
        });
        let f = classify(engine_panic.as_ref(), None, 1);
        assert_eq!(f.kind, "engine-panic");
        assert_eq!(f.quarantine.as_deref(), Some("parallel:simd"));
        assert!(!f.transient);

        let loader: Box<dyn Any + Send> = Box::new(InjectedFault {
            site: Site::LoaderError,
            detail: "batch 3".to_string(),
        });
        let f = classify(loader.as_ref(), None, 1);
        assert_eq!(f.kind, "loader");
        assert!(f.transient);

        let ckpt: Box<dyn Any + Send> = Box::new("cannot write checkpoint: injected (ENOSPC)".to_string());
        let f = classify(ckpt.as_ref(), None, 1);
        assert_eq!(f.kind, "transient-io");
        assert!(f.transient);

        // An unrecognized repeating panic under a real engine gets the
        // engine quarantined — but only from the second consecutive hit,
        // and never scalar.
        let other: Box<dyn Any + Send> = Box::new("index out of bounds".to_string());
        assert_eq!(classify(other.as_ref(), Some("simd"), 1).quarantine, None);
        assert_eq!(
            classify(other.as_ref(), Some("simd"), 2).quarantine.as_deref(),
            Some("simd")
        );
        assert_eq!(classify(other.as_ref(), Some("scalar"), 2).quarantine, None);
        let f = classify(other.as_ref(), None, 2);
        assert_eq!(f.kind, "step-panic");
        assert_eq!(f.quarantine, None);
    }
}
