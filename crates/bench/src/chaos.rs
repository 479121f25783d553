//! The chaos campaign behind `sparsetrain-bench chaos` and the CI `chaos`
//! job.
//!
//! Each scenario installs a seeded [`FaultPlan`] (kill mid-epoch, torn
//! checkpoint write, truncated read, injected engine panic, or a storm of
//! all of them), runs a short supervised training job through the faults,
//! and asserts the recovered run's final parameters are **bitwise
//! identical** to a fault-free reference run. Because every fault draw is
//! counter-keyed and every site is checked on the trainer's main thread,
//! the campaign is reproducible at any `RAYON_NUM_THREADS`.
//!
//! `extra` appends seeded randomized kill scenarios (kill step drawn from
//! the campaign seed's [`StreamKey`] ladder) on top of the five named
//! ones, so successive CI runs with different seeds keep widening
//! coverage without losing reproducibility.

mod report;

pub use report::{CampaignReport, ScenarioOutcome};

use rand::stream::StreamKey;
use sparsetrain_checkpoint::CheckpointPolicy;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_faults::{self as faults, FaultPlan, Site, Trigger};
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::layer::Layer;
use sparsetrain_nn::metrics::MetricStore;
use sparsetrain_nn::models;
use sparsetrain_nn::supervisor::{Supervisor, SupervisorConfig};
use sparsetrain_nn::train::{TrainConfig, Trainer};
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Engine under test: parity-pinned, so quarantine fallback to scalar must
/// be bitwise-neutral.
const ENGINE: &str = "parallel:simd";

/// Epochs per scenario run.
const EPOCHS: usize = 3;

/// Checkpoint step cadence of every scenario.
const CADENCE: u64 = 3;

/// Domain separator for the campaign's own randomized-scenario draws
/// (disjoint from the faults crate's `FAULT_DOMAIN`: b"CHAOS").
const CHAOS_DOMAIN: u64 = 0x0043_4841_4F53;

/// What a scenario injects and what it must observe beyond bitwise
/// equality.
struct Scenario {
    name: String,
    plan: FaultPlan,
    min_recoveries: usize,
    expect_quarantined: Option<&'static str>,
    /// Expect at least one corrupt snapshot skipped during recovery.
    expect_skipped: bool,
}

fn fixture_dataset() -> Dataset {
    SyntheticSpec::tiny(3).generate().0
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

fn supervisor() -> Supervisor {
    Supervisor::new(SupervisorConfig {
        max_retries: 5,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
    })
}

/// The five named scenarios plus `extra` seeded randomized kills.
///
/// `e` is the fixture's steps per epoch; `s` below is a checkpoint-cadence
/// step deep enough into epoch 2 that the *previous* snapshot still beats
/// the supervisor's epoch-boundary shadow — so corrupting the newest
/// snapshot genuinely exercises the skip-and-fall-back path.
fn scenarios(seed: u64, extra: usize, e: u64) -> Vec<Scenario> {
    let s = (e + 5).div_ceil(CADENCE) * CADENCE;
    let mut list = vec![
        // SIGKILL-shaped crash mid-epoch 2: resume from the newest snapshot.
        Scenario {
            name: "kill-mid-epoch".into(),
            plan: FaultPlan::new(seed).with(Site::StepKill, Trigger::At(e + e / 2)),
            min_recoveries: 1,
            expect_quarantined: None,
            expect_skipped: false,
        },
        // The write at step s is torn (truncated but renamed into place),
        // then the process dies right after: recovery must skip the corrupt
        // newest snapshot and restart from the older valid one.
        Scenario {
            name: "torn-write-newest".into(),
            plan: FaultPlan::new(seed)
                .with(Site::CkptWriteTorn, Trigger::At(s / CADENCE - 1))
                .with(Site::StepKill, Trigger::At(s - 1)),
            min_recoveries: 1,
            expect_quarantined: None,
            expect_skipped: true,
        },
        // A kernel engine blows up mid-dispatch: quarantine it and degrade
        // to scalar, bitwise-neutrally.
        Scenario {
            name: "engine-panic".into(),
            plan: FaultPlan::new(seed).with_engine(Site::EnginePanic, Trigger::At(20), ENGINE),
            min_recoveries: 1,
            expect_quarantined: Some(ENGINE),
            expect_skipped: false,
        },
        // The newest snapshot reads back short (torn at rest): the first
        // load of the recovery scan is truncated and must be skipped.
        Scenario {
            name: "short-read-newest".into(),
            plan: FaultPlan::new(seed)
                .with(Site::CkptReadShort, Trigger::At(0))
                .with(Site::StepKill, Trigger::At(s - 1)),
            min_recoveries: 1,
            expect_quarantined: None,
            expect_skipped: true,
        },
        // Everything at once: an ENOSPC-shaped write failure, a torn write,
        // an engine panic and a kill, in one run. `engine.panic` counts
        // convolution dispatches, five a step on this net: occurrence 143
        // is conv2's second backward dispatch of the 29th executed step,
        // after the kill and its replay.
        Scenario {
            name: "storm".into(),
            plan: FaultPlan::new(seed)
                .with(Site::CkptWriteError, Trigger::At(2))
                .with(Site::CkptWriteTorn, Trigger::At(4))
                .with_engine(Site::EnginePanic, Trigger::At(143), ENGINE)
                .with(Site::StepKill, Trigger::At(s - 1)),
            min_recoveries: 3,
            expect_quarantined: Some(ENGINE),
            expect_skipped: false,
        },
    ];
    // Seeded randomized kills: the kill step is a pure function of
    // (campaign seed, scenario index) via the stream ladder, so "random"
    // still replays exactly.
    let key = StreamKey::new(seed).derive(CHAOS_DOMAIN);
    for i in 0..extra {
        let kill_step = 1 + key.derive(i as u64).word_at(0) % (EPOCHS as u64 * e - 1);
        list.push(Scenario {
            name: format!("random-kill-{i}@{kill_step}"),
            plan: FaultPlan::new(seed ^ (i as u64 + 1)).with(Site::StepKill, Trigger::At(kill_step - 1)),
            min_recoveries: 1,
            expect_quarantined: None,
            expect_skipped: false,
        });
    }
    list
}

/// Runs the full campaign: fault-free reference first, then every
/// scenario, asserting each recovered run reproduces the reference
/// parameters bit for bit.
pub fn run_campaign(seed: u64, extra: usize) -> Result<CampaignReport, String> {
    let train = fixture_dataset();
    let e = {
        let mut probe = make_trainer(TrainConfig::quick());
        probe.train_epoch(&train);
        probe.stream_seeds().step()
    };

    // Fault-free supervised reference run (no checkpoints, no faults).
    faults::clear();
    let reference = {
        let mut trainer = make_trainer(TrainConfig::quick().with_engine_name(ENGINE));
        let mut metrics = MetricStore::new();
        let out = supervisor()
            .train(&mut trainer, &train, None, EPOCHS, &mut metrics, &mut [])
            .map_err(|err| format!("fault-free reference run failed: {err}"))?;
        if out.recoveries != 0 {
            return Err(format!(
                "fault-free reference run performed {} recoveries",
                out.recoveries
            ));
        }
        param_bits(&mut trainer)
    };

    let mut outcomes = Vec::new();
    for scenario in scenarios(seed, extra, e) {
        outcomes.push(run_scenario(&scenario, &train, &reference));
        faults::clear();
    }
    Ok(CampaignReport {
        seed,
        steps_per_epoch: e,
        outcomes,
    })
}

/// The `chaos` subcommand: runs the campaign, appends one
/// `{"chaos":{...}}` jsonl line per scenario to `out`, and returns the
/// Markdown summary and whether every scenario landed bitwise on the
/// fault-free run.
pub fn run(seed: u64, extra: usize, out: &str) -> Result<(String, bool), String> {
    let report = run_campaign(seed, extra)?;
    if let Some(parent) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("cannot open {out}: {e}"))?;
    for outcome in &report.outcomes {
        writeln!(file, "{}", outcome.to_jsonl()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    let mut summary = report.markdown();
    let _ = writeln!(
        summary,
        "\nAppended {} scenario records to `{out}`.",
        report.outcomes.len()
    );
    Ok((summary, report.all_pass()))
}

fn scenario_dir(name: &str) -> PathBuf {
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    std::env::temp_dir().join(format!("sparsetrain-chaos-{}-{slug}", std::process::id()))
}

fn run_scenario(scenario: &Scenario, train: &Dataset, reference: &[u32]) -> ScenarioOutcome {
    let started = Instant::now();
    let dir = scenario_dir(&scenario.name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = ScenarioOutcome {
        name: scenario.name.clone(),
        pass: false,
        detail: "ok".into(),
        recoveries: 0,
        quarantined: Vec::new(),
        kinds: Vec::new(),
        skipped: 0,
        backoff_ms: 0,
        recover_ms: 0,
        elapsed_ms: 0,
    };

    faults::install(scenario.plan.clone());
    let config = TrainConfig::quick()
        .with_engine_name(ENGINE)
        .with_checkpoint_policy(CheckpointPolicy::every_steps(&dir, CADENCE).with_keep(3));
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut trainer = make_trainer(config);
        let mut metrics = MetricStore::new();
        let supervised = supervisor().train(&mut trainer, train, None, EPOCHS, &mut metrics, &mut []);
        (supervised, param_bits(&mut trainer), metrics)
    }));
    faults::clear();

    match run {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            outcome.detail = format!("escaped the supervisor: {msg}");
        }
        Ok((Err(err), _, metrics)) => {
            outcome.recoveries = metrics.recoveries().len();
            outcome.detail = format!("supervisor gave up: {err}");
        }
        Ok((Ok(supervised), bits, metrics)) => {
            outcome.recoveries = supervised.recoveries;
            outcome.quarantined = supervised.quarantined.clone();
            for rec in metrics.recoveries() {
                outcome.kinds.push(rec.kind.clone());
                outcome.skipped += rec.skipped.len();
                outcome.backoff_ms += rec.backoff_ms;
                outcome.recover_ms += rec.recover_ms;
            }
            outcome.detail =
                check_expectations(scenario, &supervised.quarantined, &outcome, &bits, reference);
            outcome.pass = outcome.detail == "ok";
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    outcome.elapsed_ms = started.elapsed().as_millis() as u64;
    outcome
}

fn check_expectations(
    scenario: &Scenario,
    quarantined: &[String],
    outcome: &ScenarioOutcome,
    bits: &[u32],
    reference: &[u32],
) -> String {
    if bits != reference {
        let diverged = bits.iter().zip(reference).filter(|(a, b)| a != b).count();
        return format!(
            "final parameters diverged from the fault-free run ({diverged} of {} words differ)",
            reference.len()
        );
    }
    if outcome.recoveries < scenario.min_recoveries {
        return format!(
            "expected at least {} recoveries, saw {}",
            scenario.min_recoveries, outcome.recoveries
        );
    }
    if let Some(engine) = scenario.expect_quarantined {
        if !quarantined.iter().any(|q| q == engine) {
            return format!("expected `{engine}` to be quarantined, got {quarantined:?}");
        }
    }
    if scenario.expect_skipped && outcome.skipped == 0 {
        return "expected at least one corrupt snapshot to be skipped".into();
    }
    "ok".into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_list_scales_with_extra_and_stays_seeded() {
        let a = scenarios(42, 2, 13);
        let b = scenarios(42, 2, 13);
        assert_eq!(a.len(), 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name, "randomized scenarios must replay from the seed");
            assert_eq!(x.plan, y.plan);
        }
        assert_eq!(scenarios(42, 0, 13).len(), 5);
        // A different campaign seed produces different fault plans.
        let c = scenarios(43, 2, 13);
        assert_ne!(a[5].plan, c[5].plan);
    }
}
