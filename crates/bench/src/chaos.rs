//! The guarantee matrix: every bitwise contract of `docs/DETERMINISM.md`
//! as a named [`Row`] over one runner, and the chaos campaign behind
//! `sparsetrain-bench chaos` as its fault rows.
//!
//! `run` trains one point of the `Axes` — model, engine, shard worker
//! count, interruption, injected faults, pruning — and returns its
//! `Outcome`: the final parameter bits, the encoded `.stck` state, the
//! metric jsonl and the recovery records. [`scenario`] holds a row to its
//! expectations and to its model's fault-free reference run, computed once
//! per process: parameters, the whole `.stck` and every metric record must
//! match bit for bit. One pair of fields is exempt: the loss and accuracy
//! of an epoch in which a mid-epoch resume lands cover only the batches
//! trained after it. `fixed` is outside the bitwise guarantee and only has
//! to train to a finite loss.
//!
//! A run arms its own fault plan and hands the handle to its trainers, the
//! resumed one included, so runs share nothing and the rows can run side
//! by side. Every fault draw is counter-keyed and every site a row aims at
//! is checked on the trainer's thread, so the matrix replays at any
//! `RAYON_NUM_THREADS`. `crates/bench/tests/guarantees.rs` runs every row;
//! the `chaos` subcommand runs the fault rows plus `extra` seeded kills,
//! whose kill step is drawn from the campaign seed's [`StreamKey`] ladder.

mod report;

pub use report::{CampaignReport, ScenarioOutcome};

use rand::stream::StreamKey;
use sparsetrain_checkpoint::{self as checkpoint, CheckpointPolicy, Snapshot};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_faults::{FaultPlan, Faults, Site, Trigger};
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::layer::Layer;
use sparsetrain_nn::metrics::{MetricRecord, MetricStore, RecoveryRecord};
use sparsetrain_nn::models;
use sparsetrain_nn::sequential::Sequential;
use sparsetrain_nn::shard::ShardError;
use sparsetrain_nn::supervisor::{SuperviseError, SupervisedOutcome, Supervisor, SupervisorConfig};
use sparsetrain_nn::train::{TrainConfig, Trainer};
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Engine of the campaign's fault rows: an alias of `simd`, so an engine
/// panic quarantines it by name and the fallback to `scalar` must be
/// bitwise-neutral.
const ENGINE: &str = "parallel:simd";

/// Checkpoint step cadence of the supervised rows.
const CADENCE: u64 = 3;

/// Domain separator for the campaign's own randomized-scenario draws
/// (disjoint from the faults crate's `FAULT_DOMAIN`: b"CHAOS").
const CHAOS_DOMAIN: u64 = 0x0043_4841_4F53;

/// A network the matrix trains, at the test suites' tiny size, on three
/// classes of 3 × 8 × 8 images in batches of eight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Model {
    /// `models::mini_cnn`: two convolutions and a classifier; the one
    /// shardable model.
    MiniCnn,
    /// AlexNet at width 4: five convolutions, train-mode Dropout.
    Alexnet,
    /// ResNet-18 at width 4: BatchNorm and residual blocks.
    Resnet18,
}

impl Model {
    const ALL: [Model; 3] = [Model::MiniCnn, Model::Alexnet, Model::Resnet18];

    fn name(self) -> &'static str {
        match self {
            Model::MiniCnn => "mini",
            Model::Alexnet => "alexnet",
            Model::Resnet18 => "resnet18",
        }
    }

    fn net(self, prune: bool) -> Sequential {
        let prune = prune.then(|| PruneConfig::new(0.9, 2));
        match self {
            Model::MiniCnn => models::mini_cnn(3, 4, prune),
            Model::Alexnet => models::alexnet(3, 8, 3, 4, prune, 11),
            Model::Resnet18 => models::resnet18(3, 3, 4, prune, 11),
        }
    }

    fn config(self) -> TrainConfig {
        match self {
            Model::MiniCnn => TrainConfig::quick(),
            Model::Alexnet | Model::Resnet18 => TrainConfig {
                lr: 0.01,
                weight_decay: 1e-4,
                seed: 5,
                ..TrainConfig::quick()
            },
        }
    }

    /// Epochs of every run: three where the fault rows aim at epoch 2.
    fn epochs(self) -> usize {
        match self {
            Model::MiniCnn => 3,
            Model::Alexnet | Model::Resnet18 => 2,
        }
    }
}

/// The engine and worker count a trainer runs on.
#[derive(Clone, Copy, Debug, Default)]
struct Leg {
    /// Registered engine name; `None` trains on the default, `simd`.
    engine: Option<&'static str>,
    /// Shard worker count; `None` trains on the classic loop.
    workers: Option<usize>,
}

impl Leg {
    fn on(engine: &'static str) -> Self {
        Leg {
            engine: Some(engine),
            workers: None,
        }
    }

    fn sharded(workers: usize) -> Self {
        Leg {
            engine: None,
            workers: Some(workers),
        }
    }

    fn config(self, model: Model) -> TrainConfig {
        let mut config = model.config();
        if let Some(name) = self.engine {
            config = config.with_engine_name(name);
        }
        if let Some(n) = self.workers {
            config = config.with_workers(n);
        }
        config
    }
}

/// How a run is cut in two. The second half runs on its own leg in a
/// fresh trainer that sees only the snapshot, as after a process death.
#[derive(Clone, Debug)]
enum Interrupt {
    /// One straight run.
    None,
    /// Train one epoch, encode the snapshot, drop the trainer, then decode
    /// and resume the bytes.
    Boundary(Leg),
    /// Checkpoint to disk every `MID_EPOCH_CADENCE` steps, keeping two
    /// snapshots; the process dies inside epoch 2, which goes unrecorded,
    /// and the newest snapshot, which must lie inside it, is resumed.
    MidEpoch(Leg),
}

/// The cadence of [`Interrupt::MidEpoch`]: not a divisor of the nine
/// steps an epoch takes, so the newest snapshot of epoch 2 lies inside it.
const MID_EPOCH_CADENCE: u64 = 5;

/// What is injected into a run.
#[derive(Clone, Debug)]
enum Injection {
    None,
    /// A plan for an unsupervised run: worker kills and slowdowns, which
    /// the shard pool rides through on its own.
    Plan(FaultPlan),
    /// A plan for a run under the supervisor, which checkpoints every
    /// `cadence` steps (keeping three) or, with `None`, can only recover
    /// from its in-memory shadow.
    Supervised {
        plan: FaultPlan,
        cadence: Option<u64>,
        max_retries: usize,
    },
}

/// One point of the matrix.
#[derive(Clone, Debug)]
struct Axes {
    model: Model,
    /// The engine and worker count the run starts on.
    leg: Leg,
    interrupt: Interrupt,
    faults: Injection,
    /// Gradient pruning at p = 0.9 at every prune site.
    prune: bool,
}

impl Axes {
    /// The model's reference point: `simd`, classic loop, straight,
    /// fault-free, pruned.
    fn reference(model: Model) -> Self {
        Axes {
            model,
            leg: Leg::default(),
            interrupt: Interrupt::None,
            faults: Injection::None,
            prune: true,
        }
    }

    fn on(model: Model, leg: Leg) -> Self {
        Axes {
            leg,
            ..Axes::reference(model)
        }
    }

    fn cut(self, interrupt: Interrupt) -> Self {
        Axes { interrupt, ..self }
    }

    /// The leg the run ends on.
    fn last_leg(&self) -> Leg {
        match self.interrupt {
            Interrupt::None => self.leg,
            Interrupt::Boundary(then) | Interrupt::MidEpoch(then) => then,
        }
    }
}

/// Everything a run leaves behind that a guarantee speaks about.
#[derive(Debug, Default)]
struct Outcome {
    /// Final parameters as bit patterns (`-0.0` and NaN payloads count).
    params: Vec<u32>,
    /// The final `Trainer::snapshot().encode()`: parameters, optimizer
    /// velocities, pruner and ρ_nnz state, the stream-ladder position and
    /// the shuffle RNG.
    state: Vec<u8>,
    /// Every epoch record, across a resume.
    records: Vec<MetricRecord>,
    /// The metric jsonl file both halves of the run appended to.
    jsonl: String,
    /// The run's directory, gone by the time the outcome is returned.
    dir: PathBuf,
    /// The supervisor's recovery records, in order.
    recoveries: Vec<RecoveryRecord>,
    /// Epochs (1-based) whose record starts at a mid-epoch resume and so
    /// covers only the batches trained after it.
    landings: Vec<u64>,
    /// What the supervisor returned, for a supervised run.
    supervised: Option<Result<SupervisedOutcome, SuperviseError>>,
    /// The layers the sharder refused; such a run never trains.
    vetoed: Option<Vec<String>>,
    /// The engine name the final trainer reports, and whether that engine
    /// ended the run quarantined.
    engine: &'static str,
    engine_quarantined: bool,
    /// Shard workers respawned by the final trainer's pool.
    respawns: usize,
}

/// The `(train, test)` sets every run uses.
fn data() -> &'static (Dataset, Dataset) {
    static DATA: OnceLock<(Dataset, Dataset)> = OnceLock::new();
    DATA.get_or_init(|| SyntheticSpec::tiny(3).generate())
}

/// Optimizer steps per epoch, the unit fault triggers are aimed in.
fn steps_per_epoch() -> u64 {
    data().0.len().div_ceil(TrainConfig::quick().batch_size) as u64
}

/// A fresh directory for one run's checkpoints and metric file.
fn run_dir() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sparsetrain-matrix-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// A fresh trainer on `leg` under the run's `faults` that continues from
/// `snap`, whose own snapshot must then encode to `snap`'s bytes.
fn resumed(axes: &Axes, leg: Leg, snap: &Snapshot, faults: &Faults) -> Trainer {
    let mut trainer =
        Trainer::new(axes.model.net(axes.prune), leg.config(axes.model)).with_faults(faults.clone());
    trainer
        .resume(snap)
        .unwrap_or_else(|e| panic!("resume on {leg:?} failed: {e}"));
    let encode = |s: &Snapshot| s.encode().expect("snapshot encodes");
    assert!(
        encode(&trainer.snapshot()) == encode(snap),
        "resume on {leg:?} changed the state"
    );
    trainer
}

/// Trains one point of the matrix and returns what it left behind. Panics
/// when an interruption finds no snapshot where it needs one.
fn run(axes: &Axes) -> Outcome {
    let (train, val) = (&data().0, Some(&data().1));
    let (epochs, e) = (axes.model.epochs(), steps_per_epoch());
    let dir = run_dir();
    let ckpt_dir = dir.join("ckpt");
    let mut config = axes.leg.config(axes.model);
    let policy = match (&axes.interrupt, &axes.faults) {
        (_, Injection::Supervised { cadence: Some(n), .. }) => Some((*n, 3)),
        (Interrupt::MidEpoch(_), _) => Some((MID_EPOCH_CADENCE, 2)),
        _ => None,
    };
    if let Some((cadence, keep)) = policy {
        config =
            config.with_checkpoint_policy(CheckpointPolicy::every_steps(&ckpt_dir, cadence).with_keep(keep));
    }
    let faults = match &axes.faults {
        Injection::Plan(plan) | Injection::Supervised { plan, .. } => plan.clone().arm(),
        Injection::None => Faults::default(),
    };
    let mut outcome = Outcome::default();
    let mut trainer = match Trainer::new_sharded(axes.model.net(axes.prune), config) {
        Ok(trainer) => trainer.with_faults(faults.clone()),
        Err(ShardError::Unshardable(layers)) => {
            outcome.vetoed = Some(layers);
            let _ = std::fs::remove_dir_all(&dir);
            return outcome;
        }
        Err(err) => panic!("{err}"),
    };
    let metrics_path = dir.join("metrics.jsonl");
    let mut metrics = MetricStore::with_jsonl(&metrics_path);
    match (&axes.interrupt, &axes.faults) {
        (Interrupt::None, Injection::Supervised { max_retries, .. }) => {
            let supervisor = Supervisor::new(SupervisorConfig {
                max_retries: *max_retries,
                backoff_base: Duration::from_millis(1),
                backoff_max: Duration::from_millis(8),
            });
            outcome.supervised =
                Some(supervisor.train(&mut trainer, train, val, epochs, &mut metrics, &mut []));
        }
        (_, Injection::Supervised { .. }) => panic!("a supervised row has no interruption of its own"),
        (Interrupt::None, _) => {
            trainer.train(train, val, epochs, &mut metrics, &mut []);
        }
        (Interrupt::Boundary(then), _) => {
            trainer.train(train, val, 1, &mut metrics, &mut []);
            let bytes = trainer.snapshot().encode().expect("snapshot encodes");
            drop(trainer);
            let snap = Snapshot::decode(&bytes).expect("snapshot decodes");
            trainer = resumed(axes, *then, &snap, &faults);
            trainer.train(train, val, epochs - 1, &mut metrics, &mut []);
        }
        (Interrupt::MidEpoch(then), _) => {
            trainer.train(train, val, 1, &mut metrics, &mut []);
            trainer.train_epoch(train);
            trainer.flush_checkpoints().expect("checkpoints written");
            let kept = trainer.checkpoints().expect("manager active").files().len();
            assert!(kept <= 2, "keep-2 rotation left {kept} snapshots");
            drop(trainer);
            let latest = checkpoint::latest_in(&ckpt_dir).expect("directory readable");
            let snap = checkpoint::load(&latest.expect("a snapshot on disk")).expect("snapshot loads");
            let at = snap.position;
            assert!(
                at.epoch == 1 && (1..e).contains(&at.steps_into_epoch),
                "expected the newest snapshot inside epoch 2, got {at:?}"
            );
            outcome.landings.push(2);
            trainer = resumed(axes, *then, &snap, &faults);
            trainer.train(train, val, epochs - 1, &mut metrics, &mut []);
        }
    }
    for rec in metrics.recoveries() {
        if rec.resumed_step != rec.resumed_epoch * e {
            outcome.landings.push(rec.resumed_epoch + 1);
        }
    }
    trainer
        .network_mut()
        .visit_params(&mut |w, _| outcome.params.extend(w.iter().map(|v| v.to_bits())));
    outcome.state = trainer.snapshot().encode().expect("snapshot encodes");
    outcome.records = metrics.records().to_vec();
    outcome.recoveries = metrics.recoveries().to_vec();
    outcome.engine = trainer.engine_name();
    outcome.engine_quarantined = trainer.context_mut().is_quarantined(outcome.engine);
    outcome.respawns = trainer.shard_health().map_or(0, |h| h.respawns);
    drop((trainer, metrics));
    outcome.jsonl = std::fs::read_to_string(&metrics_path).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    outcome.dir = dir;
    outcome
}

/// The fault-free reference run of `model`, computed once per process.
fn reference(model: Model) -> &'static Outcome {
    static REFERENCES: [OnceLock<Outcome>; 3] = [const { OnceLock::new() }; 3];
    let slot = Model::ALL.iter().position(|&m| m == model).expect("listed");
    REFERENCES[slot].get_or_init(|| run(&Axes::reference(model)))
}

/// One recovery record a row expects.
#[derive(Clone, Debug)]
struct Recovery {
    kind: &'static str,
    source: &'static str,
    attempt: u64,
    /// The `(epoch, step)` the run restarted from.
    resumed: (u64, u64),
    /// Corrupt snapshots skipped on the way.
    skipped: usize,
    quarantined: Option<&'static str>,
}

fn recovery(kind: &'static str, source: &'static str, resumed: (u64, u64)) -> Recovery {
    Recovery {
        kind,
        source,
        attempt: 1,
        resumed,
        skipped: 0,
        quarantined: None,
    }
}

impl Recovery {
    fn matches(&self, r: &RecoveryRecord) -> bool {
        r.kind == self.kind
            && r.source == self.source
            && r.attempt == self.attempt
            && (r.resumed_epoch, r.resumed_step) == self.resumed
            && r.skipped.len() == self.skipped
            && r.quarantined.as_deref() == self.quarantined
    }
}

/// What a row must observe beyond matching its model's reference.
#[derive(Clone, Debug, Default)]
struct Expect {
    /// Every recovery record, in order; `None` checks only the count below.
    recoveries: Option<Vec<Recovery>>,
    min_recoveries: usize,
    /// The engine the supervisor quarantined, if any.
    quarantined: Option<&'static str>,
    /// At least one shard worker respawned.
    respawned: bool,
    /// The sharder refuses the model, naming a layer containing this.
    vetoed: Option<&'static str>,
    /// The supervisor gives up after this many attempts, its last failure
    /// naming this fault site.
    gives_up: Option<(usize, &'static str)>,
}

/// A named point of the matrix and what it must observe.
#[derive(Clone, Debug)]
pub struct Row {
    /// Stable name: the jsonl key and what `docs/DETERMINISM.md` cites.
    pub name: String,
    axes: Axes,
    expect: Expect,
}

impl Row {
    fn new(name: impl Into<String>, axes: Axes) -> Self {
        Row {
            name: name.into(),
            axes,
            expect: Expect::default(),
        }
    }

    fn expecting(mut self, set: impl FnOnce(&mut Expect)) -> Self {
        set(&mut self.expect);
        self
    }

    /// The engine names the row trains on: the first leg's and the last's.
    pub fn engines(&self) -> [&'static str; 2] {
        [self.axes.leg, self.axes.last_leg()].map(|leg| leg.engine.unwrap_or("simd"))
    }
}

/// A supervised `mini` row on `leg`, under a supervisor with five retries
/// that checkpoints every `cadence` steps.
fn supervised(name: &str, leg: Leg, plan: FaultPlan, cadence: Option<u64>) -> Row {
    let faults = Injection::Supervised {
        plan,
        cadence,
        max_retries: 5,
    };
    Row::new(
        name,
        Axes {
            faults,
            ..Axes::on(Model::MiniCnn, leg)
        },
    )
}

/// Every named row, its fault plans drawn from `seed`.
pub fn rows(seed: u64) -> Vec<Row> {
    let mini = Model::MiniCnn;
    let mut rows = Vec::new();
    // Engine × interruption: each float engine once, on every model.
    for model in Model::ALL {
        for engine in ["scalar", "simd"] {
            let axes = Axes::on(model, Leg::on(engine));
            let boundary = axes.clone().cut(Interrupt::Boundary(Leg::on(engine)));
            let mid_epoch = axes.cut(Interrupt::MidEpoch(Leg::on(engine)));
            rows.push(Row::new(format!("{}-boundary-{engine}", model.name()), boundary));
            rows.push(Row::new(
                format!("{}-mid-epoch-{engine}", model.name()),
                mid_epoch,
            ));
        }
    }
    let scalar_to_simd =
        Axes::on(Model::Alexnet, Leg::on("scalar")).cut(Interrupt::Boundary(Leg::on("simd")));
    rows.push(Row::new("alexnet-boundary-scalar-to-simd", scalar_to_simd));
    let simd_to_scalar = Axes::on(mini, Leg::on("simd")).cut(Interrupt::MidEpoch(Leg::on("scalar")));
    rows.push(Row::new("mini-mid-epoch-simd-to-scalar", simd_to_scalar));
    let fixed = Axes::on(mini, Leg::on("fixed"));
    rows.push(Row::new(
        "mini-fixed",
        Axes {
            prune: false,
            ..fixed
        },
    ));

    // Sharding: worker count × float engine against the classic loop, and
    // what the pool rides through.
    for engine in ["scalar", "simd"] {
        for n in [1, 2, 4] {
            let leg = Leg {
                engine: Some(engine),
                workers: Some(n),
            };
            rows.push(Row::new(format!("shard-n{n}-{engine}"), Axes::on(mini, leg)));
        }
    }
    let four = |plan| Axes {
        faults: Injection::Plan(plan),
        ..Axes::on(mini, Leg::sharded(4))
    };
    // Rank 2 dies at its third kill check (step 3 of epoch 1): the pool
    // respawns it from the template and replays its granules.
    let kill = FaultPlan::new(seed).with_engine(Site::WorkerKill, Trigger::At(2), "2");
    rows.push(Row::new("shard-worker-kill", four(kill)).expecting(|x| x.respawned = true));
    // A rank stalls for a seeded 1–20 ms on one `(step, rank)` in ten: its
    // reply comes after those of higher ranks, but the reduction is keyed
    // by granule index. One in ten keeps the row's sleeps below the
    // ResNet-18 rows' training time; the `shard_transport` suite shows the
    // replies still arrive out of rank order under this plan.
    let slow = FaultPlan::new(seed).with(Site::WorkerSlow, Trigger::Prob(0.1));
    rows.push(Row::new("shard-slow-workers", four(slow)));
    let two = Axes::on(mini, Leg::sharded(2));
    let boundary = two.clone().cut(Interrupt::Boundary(Leg::sharded(4)));
    rows.push(Row::new("shard-n2-to-n4-boundary", boundary));
    rows.push(Row::new(
        "shard-n2-to-n4-mid-epoch",
        two.cut(Interrupt::MidEpoch(Leg::sharded(4))),
    ));
    // Train-mode Dropout draws from a sequential RNG, BatchNorm reads the
    // whole batch: the sharder refuses both, naming the layers.
    for (model, blocker) in [(Model::Alexnet, "drop"), (Model::Resnet18, "bn")] {
        let name = format!("shard-veto-{}", model.name());
        rows.push(Row::new(name, Axes::on(model, Leg::sharded(2))).expecting(|x| x.vetoed = Some(blocker)));
    }

    // The supervisor: the chaos campaign's scenarios and its own cases.
    let e = steps_per_epoch();
    let (simd, campaign, two) = (Leg::default(), Leg::on(ENGINE), Leg::sharded(2));
    let plan = || FaultPlan::new(seed);
    let exactly = |recoveries: Vec<Recovery>| move |x: &mut Expect| x.recoveries = Some(recoveries);
    let disk = |step: u64| recovery("kill", "disk", (step / e, step));
    // The step-kill site is checked once per completed step, so `At(n)`
    // crashes the epoch loop right after step n + 1: `e + e / 2` aims
    // mid-epoch 2, whose newest snapshot sits on the cadence below.
    let kill_at = e + e / 2;
    let newest = (kill_at + 1) / CADENCE * CADENCE;
    let kill = || plan().with(Site::StepKill, Trigger::At(kill_at));
    rows.push(supervised("supervised-clean", simd, plan(), Some(CADENCE)).expecting(exactly(vec![])));
    // A SIGKILL-shaped crash mid-epoch 2, on either kind of step: resume
    // from the newest snapshot.
    for (name, leg) in [("kill-mid-epoch", campaign), ("kill-mid-epoch-sharded", two)] {
        rows.push(supervised(name, leg, kill(), Some(CADENCE)).expecting(exactly(vec![disk(newest)])));
    }
    // The kill lands right after a cadence step, while that step's snapshot
    // may still sit in the background writer's queue: recovery waits for
    // it and resumes there.
    let after = (e + 1).next_multiple_of(CADENCE);
    let kill_after = plan().with(Site::StepKill, Trigger::At(after - 1));
    let row = supervised("kill-after-checkpoint", simd, kill_after, Some(CADENCE));
    rows.push(row.expecting(exactly(vec![disk(after)])));
    // A cadence step deep enough into epoch 2 that the snapshot before it
    // still beats the supervisor's epoch-boundary shadow, so a corrupt
    // newest snapshot exercises the skip-and-fall-back path.
    let s = (e + 5).div_ceil(CADENCE) * CADENCE;
    let older = Recovery {
        skipped: 1,
        ..disk(s - CADENCE)
    };
    // The write at step s is torn (truncated but renamed into place), then
    // the process dies right after it: recovery skips the corrupt newest
    // snapshot, names it, and restarts from the older one.
    let torn = plan()
        .with(Site::CkptWriteTorn, Trigger::At(s / CADENCE - 1))
        .with(Site::StepKill, Trigger::At(s - 1));
    let row = supervised("torn-write-newest", campaign, torn, Some(CADENCE));
    rows.push(row.expecting(exactly(vec![older.clone()])));
    // A kernel engine blows up mid-dispatch in epoch 1: quarantine it and
    // degrade to scalar, bitwise-neutrally; the trainer still reports the
    // configured name.
    let quarantine = |step| Recovery {
        kind: "engine-panic",
        quarantined: Some(ENGINE),
        ..disk(step)
    };
    let panic = plan().with_engine(Site::EnginePanic, Trigger::At(20), ENGINE);
    let row = supervised("engine-panic", campaign, panic, Some(CADENCE))
        .expecting(|x| x.quarantined = Some(ENGINE));
    rows.push(row.expecting(exactly(vec![quarantine(3)])));
    // The newest snapshot reads back short (torn at rest): the first load
    // of the recovery scan is truncated and skipped.
    let short_read = plan()
        .with(Site::CkptReadShort, Trigger::At(0))
        .with(Site::StepKill, Trigger::At(s - 1));
    let row = supervised("short-read-newest", campaign, short_read, Some(CADENCE));
    rows.push(row.expecting(exactly(vec![older])));
    // Everything at once: an ENOSPC-shaped write failure, a torn write, an
    // engine panic and a kill, in one run. `engine.panic` counts the
    // convolution dispatches of training steps only, five a step on this
    // net, replayed steps included: occurrence 143 is conv2's second
    // backward dispatch of the 29th executed step, after the kill and its
    // replay. The kill resumes from the step-9 snapshot, taken before
    // epoch 1 ended.
    let storm = plan()
        .with(Site::CkptWriteError, Trigger::At(2))
        .with(Site::CkptWriteTorn, Trigger::At(4))
        .with_engine(Site::EnginePanic, Trigger::At(143), ENGINE)
        .with(Site::StepKill, Trigger::At(s - 1));
    let storm_recoveries = vec![
        recovery("transient-io", "disk", (0, 6)),
        Recovery {
            skipped: 1,
            ..recovery("kill", "disk", (0, 9))
        },
        quarantine(21),
    ];
    let row = supervised("storm", campaign, storm, Some(CADENCE)).expecting(|x| x.quarantined = Some(ENGINE));
    rows.push(row.expecting(exactly(storm_recoveries)));
    // The loader site is checked once per trained batch, so `At(e + 1)`
    // fires on the second batch of epoch 2, and without checkpoints the
    // shadow of epoch 2's start is all the run can fall back to.
    for (name, leg) in [("loader-fault", simd), ("loader-fault-sharded", two)] {
        let loader = plan().with(Site::LoaderError, Trigger::At(e + 1));
        let row = supervised(name, leg, loader, None);
        rows.push(row.expecting(exactly(vec![recovery("loader", "shadow", (1, e))])));
    }
    // Every batch fails, forever: the supervisor gives up after its retry
    // budget of two instead of spinning, with both recoveries on record.
    let mut row = supervised("retries-exhausted", simd, plan(), None);
    row.axes.faults = Injection::Supervised {
        plan: plan().with(Site::LoaderError, Trigger::Prob(1.0)),
        cadence: None,
        max_retries: 2,
    };
    let retries = (1..=2).map(|attempt| Recovery {
        attempt,
        ..recovery("loader", "shadow", (0, 0))
    });
    let row = row.expecting(|x| x.gives_up = Some((3, "loader.error")));
    rows.push(row.expecting(exactly(retries.collect())));
    rows
}

/// `extra` seeded kills: the kill step is a pure function of (campaign
/// seed, index) through the stream ladder, so "random" still replays
/// exactly.
fn random_kills(seed: u64, extra: usize) -> Vec<Row> {
    let steps = Model::MiniCnn.epochs() as u64 * steps_per_epoch();
    let key = StreamKey::new(seed).derive(CHAOS_DOMAIN);
    (0..extra)
        .map(|i| {
            let kill_step = 1 + key.derive(i as u64).word_at(0) % (steps - 1);
            let plan = FaultPlan::new(seed ^ (i as u64 + 1)).with(Site::StepKill, Trigger::At(kill_step - 1));
            let row = supervised(
                &format!("random-kill-{i}@{kill_step}"),
                Leg::on(ENGINE),
                plan,
                Some(CADENCE),
            );
            row.expecting(|x| x.min_recoveries = 1)
        })
        .collect()
}

/// The records as jsonl lines, with the loss and accuracy of the
/// `landings` epochs zeroed.
fn masked(records: &[MetricRecord], landings: &[u64]) -> Vec<String> {
    let mask = |r: &MetricRecord| {
        let mut r = r.clone();
        if landings.contains(&r.epoch) {
            (r.loss, r.accuracy) = (0.0, 0.0);
        }
        r.to_jsonl()
    };
    records.iter().map(mask).collect()
}

/// Holds `out` to `row`'s expectations and to its model's reference;
/// `Err` says what failed first.
fn verify(row: &Row, out: &Outcome) -> Result<(), String> {
    let ex = &row.expect;
    match (&out.vetoed, ex.vetoed) {
        (Some(layers), Some(needle)) if layers.iter().any(|l| l.contains(needle)) => return Ok(()),
        (Some(layers), _) => return Err(format!("the sharder refused the model: {layers:?}")),
        (None, Some(needle)) => return Err(format!("expected the sharder to refuse a `{needle}` layer")),
        (None, None) => {}
    }
    let engine = row.axes.last_leg().engine.unwrap_or("simd");
    if out.engine != engine {
        return Err(format!("the trainer runs `{}`, not `{engine}`", out.engine));
    }
    if out.engine_quarantined != ex.quarantined.is_some() {
        return Err(format!("`{engine}` quarantined: {}", out.engine_quarantined));
    }

    // The supervisor's verdict and its recovery records.
    let recoveries = &out.recoveries;
    match (&out.supervised, ex.gives_up) {
        (Some(Err(SuperviseError::RetriesExhausted { attempts, last })), Some((n, site))) => {
            if *attempts != n || !last.contains(site) {
                return Err(format!(
                    "gave up after {attempts} attempts on `{last}`, want {n} on {site}"
                ));
            }
        }
        (Some(Err(err)), _) => return Err(format!("supervisor gave up: {err}")),
        (_, Some(_)) => return Err("expected the supervisor to give up".into()),
        (Some(Ok(s)), None) => {
            let quarantined: Vec<&str> = ex.quarantined.into_iter().collect();
            if s.outcome.epochs_run != row.axes.model.epochs()
                || s.recoveries != recoveries.len()
                || s.quarantined != quarantined
            {
                return Err(format!("the supervised run ended as {s:?}"));
            }
        }
        (None, None) => {}
    }
    let exact = ex.recoveries.as_ref().is_none_or(|want| {
        want.len() == recoveries.len() && want.iter().zip(recoveries).all(|(w, r)| w.matches(r))
    });
    if !exact || recoveries.len() < ex.min_recoveries {
        let seen: Vec<String> = recoveries.iter().map(RecoveryRecord::to_jsonl).collect();
        return Err(format!(
            "recoveries {seen:?}, want {:?} (at least {})",
            ex.recoveries, ex.min_recoveries
        ));
    }
    if let Some(s) = recoveries
        .iter()
        .flat_map(|r| &r.skipped)
        .find(|s| !s.contains(".stck"))
    {
        return Err(format!("a skip report does not name its snapshot file: {s}"));
    }
    let transient = |r: &&RecoveryRecord| matches!(r.kind.as_str(), "loader" | "transient-io");
    if let Some(r) = recoveries.iter().filter(transient).find(|r| r.backoff_ms == 0) {
        return Err(format!(
            "a transient fault retried without backing off: {}",
            r.to_jsonl()
        ));
    }
    if ex.respawned && out.respawns == 0 {
        return Err("the killed worker was never respawned".into());
    }

    // The metric file holds every record and recovery as one complete
    // line each, in order.
    let (recovery_lines, record_lines): (Vec<&str>, Vec<&str>) =
        out.jsonl.lines().partition(|l| l.starts_with("{\"recovery\":{"));
    let records: Vec<String> = out.records.iter().map(MetricRecord::to_jsonl).collect();
    let recovery_jsonl: Vec<String> = recoveries.iter().map(RecoveryRecord::to_jsonl).collect();
    if record_lines != records || recovery_lines != recovery_jsonl || !out.jsonl.ends_with('\n') {
        return Err(format!(
            "the metric file does not hold the run's records:\n{}",
            out.jsonl
        ));
    }
    if ex.gives_up.is_some() {
        return Ok(());
    }
    if engine.starts_with("fixed") {
        // Outside the bitwise guarantee: it only has to train.
        let finite = out.records.iter().all(|r| r.loss.is_finite());
        if finite && out.records.len() == row.axes.model.epochs() {
            return Ok(());
        }
        return Err(format!("records: {records:?}"));
    }

    // Bit for bit against the reference.
    let reference = reference(row.axes.model);
    if out.params != reference.params {
        let diverged = out
            .params
            .iter()
            .zip(&reference.params)
            .filter(|(a, b)| a != b)
            .count();
        let of = reference.params.len();
        return Err(format!(
            "final parameters diverged from the reference ({diverged} of {of} words differ)"
        ));
    }
    if out.state != reference.state {
        let at = out.state.iter().zip(&reference.state).position(|(a, b)| a != b);
        let (got, want) = (out.state.len(), reference.state.len());
        return Err(format!(
            "the encoded .stck state differs from the reference ({got} against {want} bytes, first difference at {at:?})"
        ));
    }
    let (got, want) = (
        masked(&out.records, &out.landings),
        masked(&reference.records, &out.landings),
    );
    match (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        Some(i) => Err(format!(
            "metric record {} differs from the reference: got {:?}, want {:?}",
            i + 1,
            got.get(i),
            want.get(i)
        )),
        None => Ok(()),
    }
}

/// Runs `row` and holds it to its expectations: the verdict as a
/// campaign record.
pub fn scenario(row: &Row) -> ScenarioOutcome {
    let started = Instant::now();
    let mut record = ScenarioOutcome {
        name: row.name.clone(),
        pass: false,
        detail: "ok".into(),
        recoveries: 0,
        quarantined: Vec::new(),
        kinds: Vec::new(),
        skipped: 0,
        backoff_ms: 0,
        elapsed_ms: 0,
    };
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let out = run(&row.axes);
        let verdict = verify(row, &out);
        (out, verdict)
    }));
    match checked {
        Err(payload) => {
            let text = sparsetrain_nn::supervisor::panic_text(payload.as_ref());
            let msg = text.unwrap_or("non-string panic payload");
            record.detail = format!("escaped the supervisor: {msg}");
        }
        Ok((out, verdict)) => {
            record.recoveries = out.recoveries.len();
            if let Some(Ok(s)) = &out.supervised {
                record.quarantined = s.quarantined.clone();
            }
            for rec in &out.recoveries {
                record.kinds.push(rec.kind.clone());
                record.skipped += rec.skipped.len();
                record.backoff_ms += rec.backoff_ms;
            }
            match verdict {
                Ok(()) => record.pass = true,
                Err(detail) => record.detail = detail,
            }
        }
    }
    record.elapsed_ms = started.elapsed().as_millis() as u64;
    record
}

/// The `chaos` subcommand: runs every fault row and `extra` seeded kills,
/// appends one `{"chaos":{...}}` jsonl line per scenario to `out`, and
/// returns the Markdown summary and whether every scenario held.
pub fn run_campaign(seed: u64, extra: usize, out: &str) -> Result<(String, bool), String> {
    let mut rows: Vec<Row> = rows(seed)
        .into_iter()
        .filter(|r| !matches!(r.axes.faults, Injection::None))
        .collect();
    rows.extend(random_kills(seed, extra));
    let report = CampaignReport {
        seed,
        steps_per_epoch: steps_per_epoch(),
        outcomes: rows.iter().map(scenario).collect(),
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique_and_kills_stay_seeded() {
        let mut names: Vec<String> = rows(42).into_iter().map(|r| r.name).collect();
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "{names:?}");

        let plans = |seed| -> Vec<(String, String)> {
            let kills = random_kills(seed, 2).into_iter();
            kills
                .map(|r| match r.axes.faults {
                    Injection::Supervised { plan, .. } => (r.name, plan.to_spec()),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        assert_eq!(plans(42).len(), 2);
        assert_eq!(
            plans(42),
            plans(42),
            "randomized scenarios must replay from the seed"
        );
        assert_ne!(plans(42), plans(43), "another campaign seed draws other plans");
        assert!(random_kills(42, 0).is_empty());
    }

    /// A recovery record holds no measured field: two runs of one
    /// supervised row write the same metric jsonl, recovery lines included.
    /// The row recovers from disk, and its record names the torn file it
    /// skipped, so each run's own directory is masked.
    #[test]
    fn a_supervised_row_writes_the_same_metric_jsonl_twice() {
        let row = rows(42)
            .into_iter()
            .find(|r| r.name == "torn-write-newest")
            .expect("a row");
        let jsonl = |out: Outcome| out.jsonl.replace(&*out.dir.to_string_lossy(), "<run>");
        let (first, second) = (jsonl(run(&row.axes)), jsonl(run(&row.axes)));
        assert!(first.contains("{\"recovery\":{"), "{first}");
        assert_eq!(first, second);
    }
}
