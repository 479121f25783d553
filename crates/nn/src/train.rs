//! The batch training loop with pruning, metrics and trace capture.

use crate::data::Dataset;
use crate::layer::{Batch, Layer};
use crate::loss::{argmax, softmax_cross_entropy};
use crate::metrics::{MetricRecord, MetricStore, StopCondition};
use crate::optim::Sgd;
use crate::sequential::Sequential;
use crate::shard::{self, EngineSetup, ShardError, ShardPool, ShardSpec, StepInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsetrain_checkpoint::{
    CheckpointManager, CheckpointPolicy, OptimizerState, PlanPayload, RunPosition, Section, Snapshot,
};
use sparsetrain_core::dataflow::NetworkTrace;
use sparsetrain_core::prune::{StepStreams, StreamSeeds};
use sparsetrain_faults::{FaultPlan, Faults, Site, FAULTS_ENV};
use sparsetrain_sparse::{registry, EngineHandle, ExecutionContext};
use sparsetrain_tensor::Tensor3;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// RNG seed (shuffling and stochastic pruning).
    pub seed: u64,
    /// Kernel execution engine every `Conv2d` runs its SRC/MSRC/OSRC
    /// stages on, resolved through the engine registry (see
    /// [`TrainConfig::with_engine_name`]). `None` means the default,
    /// `simd`.
    pub engine: Option<EngineHandle>,
    /// Checkpoint cadence and run directory; `None` disables snapshots.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Sharded data-parallel execution; `None` trains single-threaded on
    /// the coordinator. See [`crate::shard`].
    pub shard: Option<ShardSpec>,
}

impl TrainConfig {
    /// Sensible defaults for the synthetic experiments.
    pub fn standard() -> Self {
        Self {
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            seed: 0,
            engine: None,
            checkpoint: None,
            shard: None,
        }
    }

    /// Fast settings for unit tests.
    pub fn quick() -> Self {
        Self {
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            seed: 0,
            engine: None,
            checkpoint: None,
            shard: None,
        }
    }

    /// Returns the config with the named sparse row-dataflow engine
    /// selected (`"scalar"`, `"simd"`, `"fixed"`, `"fixed:qI.F"`, or an
    /// alias such as `"auto"`).
    ///
    /// # Panics
    ///
    /// Panics when `name` is not registered, listing the known engines.
    pub fn with_engine_name(mut self, name: &str) -> Self {
        let handle: EngineHandle = name.parse().unwrap_or_else(|e| panic!("{e}"));
        self.engine = Some(handle);
        self
    }

    /// Returns the config with an already-resolved engine handle.
    pub fn with_engine_handle(mut self, handle: EngineHandle) -> Self {
        self.engine = Some(handle);
        self
    }

    /// Applies the `SPARSETRAIN_ENGINE` environment override, if set.
    ///
    /// # Panics
    ///
    /// Panics when the variable names an unregistered engine.
    pub fn with_env_engine(mut self) -> Self {
        if let Some(handle) = registry::env_override().unwrap_or_else(|e| panic!("{e}")) {
            self.engine = Some(handle);
        }
        self
    }

    /// The engine setup the trainer and its shard workers run on.
    fn engine_setup(&self) -> EngineSetup {
        self.engine.map_or(EngineSetup::Dense, EngineSetup::Engine)
    }

    /// Returns the config with periodic checkpointing under `policy`.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Applies the `SPARSETRAIN_CHECKPOINT_DIR` environment override, if
    /// set: snapshots after every epoch into the named directory
    /// (consistent with `SPARSETRAIN_ENGINE`).
    pub fn with_env_checkpoint_dir(mut self) -> Self {
        if let Some(policy) = CheckpointPolicy::from_env() {
            self.checkpoint = Some(policy);
        }
        self
    }

    /// Returns the config with sharded data-parallel training over
    /// `workers` workers (one-sample granules).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.shard = Some(ShardSpec::new(workers));
        self
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Metrics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy loss over the epoch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Why [`Trainer::resume`] rejected a snapshot.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot was taken under a different run seed; resuming it
    /// would splice two unrelated pruning-stream ladders together.
    SeedMismatch {
        /// Seed recorded in the snapshot.
        snapshot: u64,
        /// Seed of this trainer's config.
        config: u64,
    },
    /// A layer recognised a state entry but its shape/config disagreed.
    Layer(String),
    /// No layer in the network claimed this state entry (the snapshot was
    /// taken from a differently-shaped model).
    UnclaimedState {
        /// The layer name recorded in the snapshot.
        layer: String,
        /// The state kind (`"params"`, `"rng"`, …).
        kind: &'static str,
    },
    /// On an `auto` trainer, the snapshot carries a legacy execution plan
    /// (a `plan` or `plan-program` section). Plans are no longer read, and
    /// one may pin an engine that is not bitwise equal to `simd`, so the
    /// resume is refused rather than the plan ignored.
    LegacyPlan {
        /// The `.stck` section holding the plan.
        section: Section,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::SeedMismatch { snapshot, config } => write!(
                f,
                "snapshot was taken under seed {snapshot} but the trainer is configured \
                 with seed {config}; resuming would break stream determinism"
            ),
            ResumeError::Layer(msg) => write!(f, "layer state mismatch: {msg}"),
            ResumeError::UnclaimedState { layer, kind } => write!(
                f,
                "no layer in the network claimed the snapshot's {kind} state for layer \"{layer}\" \
                 (the snapshot was taken from a differently-shaped model)"
            ),
            ResumeError::LegacyPlan { section } => write!(
                f,
                "the snapshot carries a legacy execution plan (section {}), which an auto run no \
                 longer reads: resume it under a pinned engine (e.g. SPARSETRAIN_ENGINE=simd), \
                 which ignores the plan; only builds up to 12d3f1c can check it",
                section.name()
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// What [`Trainer::train`] did: how far it got and why it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainOutcome {
    /// Epochs actually run in this call (not counting resumed history).
    pub epochs_run: usize,
    /// `Some(reason)` when a [`StopCondition`] ended the run early.
    pub stopped: Option<String>,
}

/// Drives training of a [`Sequential`] network.
///
/// ```
/// use sparsetrain_nn::data::SyntheticSpec;
/// use sparsetrain_nn::models;
/// use sparsetrain_nn::train::{TrainConfig, Trainer};
///
/// let (train, _) = SyntheticSpec::tiny(2).generate();
/// let net = models::mini_cnn(2, 2, None);
/// let mut trainer = Trainer::new(net, TrainConfig::quick());
/// let stats = trainer.train_epoch(&train);
/// assert!(stats.loss.is_finite());
/// ```
pub struct Trainer {
    net: Sequential,
    config: TrainConfig,
    sgd: Sgd,
    /// Feeds data-order decisions only (epoch shuffling). Stochastic
    /// pruning draws from the counter-based `streams` ladder instead, so
    /// pruning never perturbs the shuffle sequence (or vice versa).
    rng: StdRng,
    /// The `(seed, epoch, step)` ladder every backward pass derives its
    /// pruning streams from.
    streams: StreamSeeds,
    ctx: ExecutionContext,
    /// `rng`'s state captured just before the current epoch's shuffle, so a
    /// mid-epoch snapshot can replay the identical data order on resume.
    epoch_start_rng: [u64; 4],
    /// Optimizer steps taken in the current (possibly partial) epoch.
    steps_into_epoch: u64,
    /// Batches the next `train_epoch` must skip after a mid-epoch resume
    /// (they were already trained before the snapshot).
    resume_skip: u64,
    checkpoints: Option<CheckpointManager>,
    /// The worker pool when the config shards training; spawned lazily so
    /// that `resume` can tear it down and the next epoch rebuilds it from
    /// the restored network.
    shard_pool: Option<ShardPool>,
    /// The run's fault handle: checked here (loader, step kill) and lent to
    /// the context per step, the checkpoint manager, pool and recovery scan.
    pub(crate) faults: Faults,
}

impl Trainer {
    /// Creates a trainer owning the network. The trainer resolves the
    /// config's kernel engine (`simd` when it names none) once into its
    /// [`ExecutionContext`].
    ///
    /// # Panics
    ///
    /// Panics when the config shards training but the network cannot be
    /// sharded; [`Trainer::new_sharded`] is the typed-error path.
    pub fn new(net: Sequential, config: TrainConfig) -> Self {
        match Self::new_sharded(net, config) {
            Ok(trainer) => trainer,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a trainer like [`Trainer::new`], returning a typed
    /// [`ShardError`] instead of panicking when the config shards training
    /// and the network is rejected — layers with cross-sample semantics
    /// (BatchNorm) or embedded sequential RNGs (train-mode Dropout) cannot
    /// run as worker replicas ([`crate::layer::Layer::shard_blockers`]).
    ///
    /// # Errors
    ///
    /// Any [`ShardError`] from [`shard::validate`].
    pub fn new_sharded(net: Sequential, config: TrainConfig) -> Result<Self, ShardError> {
        if let Some(spec) = &config.shard {
            shard::validate(&net, spec)?;
        }
        Ok(Self::build(net, config))
    }

    /// The trainer under the plan `SPARSETRAIN_FAULTS` names, if any (a
    /// spec that does not parse panics, like the other overrides).
    fn build(net: Sequential, config: TrainConfig) -> Self {
        let ctx = config.engine_setup().context();
        let checkpoints = config.checkpoint.clone().map(|policy| {
            CheckpointManager::new(policy)
                .unwrap_or_else(|e| panic!("cannot initialise checkpoint directory: {e}"))
        });
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            net,
            sgd: Sgd::new(config.lr, config.momentum, config.weight_decay),
            epoch_start_rng: rng.state(),
            rng,
            streams: StreamSeeds::new(config.seed),
            config,
            ctx,
            steps_into_epoch: 0,
            resume_skip: 0,
            checkpoints,
            shard_pool: None,
            faults: Faults::default(),
        }
        .with_faults(match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.is_empty() => FaultPlan::from_spec(&spec)
                .unwrap_or_else(|e| panic!("{e}"))
                .arm(),
            _ => Faults::default(),
        })
    }

    /// Returns the trainer running under `faults` instead of the plan
    /// `SPARSETRAIN_FAULTS` names. Clones share the handle's counters, so
    /// a resumed trainer handed a run's handle continues its fault schedule.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        if let Some(mgr) = &mut self.checkpoints {
            mgr.set_faults(faults.clone());
        }
        self.shard_pool = None;
        self.faults = faults;
        self
    }

    /// Borrow the network (e.g. for inspection).
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the network.
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// The execution context the trainer threads through every pass.
    pub fn context_mut(&mut self) -> &mut ExecutionContext {
        &mut self.ctx
    }

    /// The `(seed, epoch, step)` ladder pruning streams derive from;
    /// advances once per trained batch and once per epoch.
    pub fn stream_seeds(&self) -> StreamSeeds {
        self.streams
    }

    /// Name of the resolved kernel engine (`"simd"` when the config names
    /// none).
    pub fn engine_name(&self) -> &'static str {
        self.ctx.engine_name()
    }

    /// Updates the learning rate (for step schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.sgd.set_learning_rate(lr);
    }

    /// The checkpoint manager, when the config enables checkpointing.
    pub fn checkpoints(&self) -> Option<&CheckpointManager> {
        self.checkpoints.as_ref()
    }

    /// Runs one epoch over `data` and returns loss/accuracy.
    ///
    /// This is the one epoch scaffold — seeded shuffle, resume skip, fault
    /// seams, stream-ladder advance, optimizer step, checkpoint cadence —
    /// for both execution modes; only the step in the middle differs
    /// (computed on the coordinator, or scattered to the worker pool when
    /// the config shards training — see [`crate::shard`]).
    ///
    /// After a mid-epoch [`Trainer::resume`], the first call replays the
    /// snapshot epoch's shuffle and skips the batches trained before the
    /// snapshot, so the trajectory continues bitwise where it left off (the
    /// returned stats then cover only the remaining batches).
    pub fn train_epoch(&mut self, data: &Dataset) -> EpochStats {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        self.ensure_shard_pool();
        let n = data.len();
        self.epoch_start_rng = self.rng.state();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }

        let skip = std::mem::take(&mut self.resume_skip);
        self.steps_into_epoch = skip;
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut seen = 0usize;
        for (chunk_idx, chunk) in order.chunks(self.config.batch_size).enumerate() {
            if (chunk_idx as u64) < skip {
                continue; // trained before the snapshot this run resumed from
            }
            // Fault seam: a loader fault fails batch assembly, surfacing as
            // a panic the supervisor classifies as transient.
            if self.faults.on_loader() {
                sparsetrain_faults::panic_injected(
                    Site::LoaderError,
                    format!("batch {chunk_idx} of epoch {}", self.streams.epoch() + 1),
                );
            }
            seen += chunk.len();
            correct += if self.shard_pool.is_some() {
                self.sharded_step(data, chunk, &mut total_loss)
            } else {
                self.local_step(data, chunk, &mut total_loss, self.faults.clone())
            };
            self.streams.advance_step();
            self.sgd.step(&mut self.net, 1.0 / chunk.len() as f32);
            self.steps_into_epoch += 1;
            self.write_due_checkpoint(false);
            // Fault seam: a step-kill fault "crashes the process" right
            // after a step (and any due checkpoint) completed — the point a
            // real SIGKILL is most likely to land.
            if self.faults.on_step_kill() {
                sparsetrain_faults::panic_injected(
                    Site::StepKill,
                    format!("after step {}", self.streams.step()),
                );
            }
        }
        self.streams.advance_epoch();
        self.steps_into_epoch = 0;
        self.write_due_checkpoint(true);
        let denom = seen.max(1) as f64;
        EpochStats {
            loss: total_loss / denom,
            accuracy: correct as f64 / denom,
        }
    }

    /// One step computed on the coordinator: [`step_body`] under `faults`
    /// over the batch `chunk` indexes, leaving the gradients in the
    /// network. Each sample's loss is added to `loss` in sample order;
    /// returns the correctly classified count.
    fn local_step(&mut self, data: &Dataset, chunk: &[usize], loss: &mut f64, faults: Faults) -> usize {
        // The batch borrows straight from the dataset — no per-image
        // clone; layers take ownership only where backward needs it.
        let xs = Batch::gather(&data.images, chunk);
        let labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
        let step = self.streams.streams();
        step_body(&mut self.net, &mut self.ctx, faults, xs, &labels, &step, loss)
    }

    /// The sharded counterpart of [`Trainer::local_step`]: the batch is
    /// scattered as granules to the worker pool and the gradients and
    /// pruning statistics, reduced in fixed granule order, are installed
    /// exactly where the local backward pass would have left them. The
    /// batch's reduced loss is added to `loss` once.
    fn sharded_step(&mut self, data: &Dataset, chunk: &[usize], loss: &mut f64) -> usize {
        let granule = self.config.shard.as_ref().expect("sharded path").granule;
        let mut taus = Vec::new();
        self.net.collect_prune_taus(&mut taus);
        let mut params = Vec::new();
        self.net.visit_params(&mut |p, _| params.extend_from_slice(p));
        let input = StepInput {
            seed: self.streams.seed(),
            epoch: self.streams.epoch(),
            step: self.streams.step(),
            params,
            taus,
            granules: shard::granules_of(data, chunk, granule),
        };
        let pool = self.shard_pool.as_mut().expect("sharded path");
        let reduced = pool.run_step(&input);
        *loss += reduced.loss;
        self.net.zero_grads();
        let mut offset = 0usize;
        self.net.visit_params(&mut |_, g| {
            g.copy_from_slice(&reduced.grads[offset..offset + g.len()]);
            offset += g.len();
        });
        self.net.absorb_prune_stats(&reduced.prune_stats);
        reduced.correct
    }

    /// Spawns the worker pool if the config shards training and no pool is
    /// live: replicates the network as the respawn template and resolves
    /// the engine setup.
    fn ensure_shard_pool(&mut self) {
        let Some(spec) = self.config.shard.clone() else {
            return;
        };
        if self.shard_pool.is_some() {
            return;
        }
        let setup = self.config.engine_setup();
        let template = self
            .net
            .try_replicate()
            .expect("shardability was validated at construction");
        let pool = ShardPool::armed(spec, template, setup, self.faults.clone())
            .unwrap_or_else(|e| panic!("cannot spawn shard worker pool: {e}"));
        self.shard_pool = Some(pool);
    }

    /// Self-healing counters of the live worker pool (`None` when training
    /// is not sharded or no pool has been spawned yet).
    pub fn shard_health(&self) -> Option<crate::shard::ShardHealth> {
        self.shard_pool.as_ref().map(ShardPool::health)
    }

    /// Hands a snapshot to the checkpoint manager's background writer when
    /// the checkpoint policy says one is due — `epoch_boundary` selects
    /// between the per-epoch and per-step cadence. The write overlaps the
    /// steps that follow; the hand-off blocks only while the writer is two
    /// snapshots behind.
    ///
    /// # Panics
    ///
    /// Panics when a snapshot cannot be persisted (an injected write error
    /// at this hand-off, a real one at a later hand-off); silently losing
    /// checkpoints would defeat their purpose.
    fn write_due_checkpoint(&mut self, epoch_boundary: bool) {
        let due = match &self.checkpoints {
            Some(mgr) if epoch_boundary => mgr.policy().epoch_due(self.streams.epoch()),
            Some(mgr) => mgr.policy().step_due(self.streams.step()),
            None => false,
        };
        if !due {
            return;
        }
        let snap = self.snapshot();
        let mgr = self.checkpoints.as_mut().expect("due implies a manager");
        mgr.save_in_background(snap)
            .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
    }

    /// Waits until every checkpoint handed to the background writer is on
    /// disk and rotated. [`Trainer::train`] ends with it; dropping the
    /// trainer also waits, but drops the writes' errors.
    ///
    /// # Errors
    ///
    /// The first I/O error among those writes.
    pub fn flush_checkpoints(&mut self) -> std::io::Result<()> {
        match &mut self.checkpoints {
            Some(mgr) => mgr.flush(),
            None => Ok(()),
        }
    }

    /// Captures the complete mutable training state as a [`Snapshot`]:
    /// parameters, optimizer velocities, pruner statistics, RNG positions,
    /// the `(seed, epoch, step)` ladder. It embeds no execution plan.
    /// Feeding it to [`Trainer::resume`] on a fresh trainer reproduces the
    /// remaining run bitwise.
    pub fn snapshot(&self) -> Snapshot {
        // Mid-epoch the shuffle must be replayed from the epoch's start, so
        // store the pre-shuffle state; at an epoch boundary the live state
        // is exactly what the next epoch will shuffle from.
        let shuffle_rng = if self.steps_into_epoch == 0 {
            self.rng.state()
        } else {
            self.epoch_start_rng
        };
        let mut layers = Vec::new();
        self.net.collect_state(&mut layers);
        Snapshot {
            position: RunPosition {
                seed: self.streams.seed(),
                epoch: self.streams.epoch(),
                step: self.streams.step(),
                steps_into_epoch: self.steps_into_epoch,
            },
            shuffle_rng,
            plan: None,
            optimizer: OptimizerState {
                lr: self.sgd.learning_rate(),
                velocities: self.sgd.velocities().to_vec(),
            },
            layers,
        }
    }

    /// Restores the trainer to `snap`'s position. The network must have the
    /// same architecture (layer names and shapes) and the config the same
    /// seed as the run that produced the snapshot; continuing afterwards
    /// reproduces the original trajectory bitwise.
    ///
    /// A snapshot from an older build may embed a legacy execution plan —
    /// binary program or text payload. A pinned engine ignores it unread;
    /// an `auto` trainer refuses it ([`ResumeError::LegacyPlan`]).
    ///
    /// # Errors
    ///
    /// Rejects seed mismatches, on `auto` an embedded plan, and layer state
    /// that no layer claims or that disagrees with the network's shapes.
    /// The trainer may be partially restored after a layer error.
    pub fn resume(&mut self, snap: &Snapshot) -> Result<(), ResumeError> {
        if snap.position.seed != self.config.seed {
            return Err(ResumeError::SeedMismatch {
                snapshot: snap.position.seed,
                config: self.config.seed,
            });
        }
        if let (Some(payload), "auto") = (&snap.plan, self.ctx.engine_name()) {
            let section = match payload {
                PlanPayload::Text(_) => Section::Plan,
                PlanPayload::Program(_) => Section::PlanProgram,
            };
            return Err(ResumeError::LegacyPlan { section });
        }
        for state in &snap.layers {
            match self.net.restore_state(state) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(ResumeError::UnclaimedState {
                        layer: state.layer().to_string(),
                        kind: state.kind_name(),
                    })
                }
                Err(msg) => return Err(ResumeError::Layer(msg)),
            }
        }
        self.sgd.set_learning_rate(snap.optimizer.lr);
        self.sgd.restore_velocities(snap.optimizer.velocities.clone());
        self.streams = StreamSeeds::at(snap.position.seed, snap.position.epoch, snap.position.step);
        self.rng = StdRng::from_state(snap.shuffle_rng);
        self.epoch_start_rng = snap.shuffle_rng;
        self.steps_into_epoch = snap.position.steps_into_epoch;
        self.resume_skip = snap.position.steps_into_epoch;
        // Tear the worker pool down so the next epoch respawns it from the
        // restored network (snapshots are shard-agnostic, so resuming under
        // a different worker count is fine).
        self.shard_pool = None;
        Ok(())
    }

    /// Runs up to `epochs` training epochs, recording one [`MetricRecord`]
    /// per epoch into `metrics` (training loss/accuracy, validation stats
    /// when `val` is given, mean ρ_nnz, and mean per-step latency), and
    /// consulting `stops` after every epoch.
    ///
    /// Epoch numbers continue across [`Trainer::resume`] — a run resumed at
    /// epoch 3 records epochs 4, 5, … — so trajectories of a straight run
    /// and a resumed run line up record-for-record. Returns once the last
    /// checkpoint is on disk ([`Trainer::flush_checkpoints`]).
    ///
    /// # Panics
    ///
    /// Panics when a checkpoint cannot be persisted.
    pub fn train(
        &mut self,
        train: &Dataset,
        val: Option<&Dataset>,
        epochs: usize,
        metrics: &mut MetricStore,
        stops: &mut [Box<dyn StopCondition>],
    ) -> TrainOutcome {
        let mut epochs_run = 0;
        let mut stopped = None;
        while epochs_run < epochs && stopped.is_none() {
            let step_before = self.streams.step();
            let started = std::time::Instant::now();
            let stats = self.train_epoch(train);
            epochs_run += 1;
            stopped = self.record_epoch(stats, step_before, started, val, metrics, stops);
        }
        self.flush_checkpoints()
            .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
        TrainOutcome { epochs_run, stopped }
    }

    /// Records the epoch that just finished — its training stats,
    /// validation stats when `val` is given, mean ρ_nnz, and the mean
    /// per-step latency since `started` — as one [`MetricRecord`], then
    /// asks the stop conditions; returns the first stop reason. The epoch
    /// loops of [`Trainer::train`] and the supervisor both end in this.
    pub(crate) fn record_epoch(
        &mut self,
        stats: EpochStats,
        step_before: u64,
        started: std::time::Instant,
        val: Option<&Dataset>,
        metrics: &mut MetricStore,
        stops: &mut [Box<dyn StopCondition>],
    ) -> Option<String> {
        let elapsed = started.elapsed();
        let steps = self.streams.step() - step_before;
        let vstats = val.map(|d| self.evaluate_stats(d));
        metrics.record(MetricRecord {
            epoch: self.streams.epoch(),
            loss: stats.loss,
            accuracy: stats.accuracy,
            val_loss: vstats.map(|s| s.loss),
            val_accuracy: vstats.map(|s| s.accuracy),
            rho_nnz: self.mean_grad_density(),
            step_latency_ns: (steps > 0).then(|| elapsed.as_nanos() as f64 / steps as f64),
        });
        let record = metrics.last().expect("record just pushed").clone();
        stops.iter_mut().find_map(|stop| stop.check(&record))
    }

    /// Evaluates mean loss and accuracy on `data`: evaluation-mode forward
    /// passes (batch norm and dropout included) in batch-size chunks, in
    /// dataset order, with no parameter updates — trajectory-neutral.
    pub fn evaluate_stats(&mut self, data: &Dataset) -> EpochStats {
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        for chunk_start in (0..data.len()).step_by(self.config.batch_size) {
            let end = (chunk_start + self.config.batch_size).min(data.len());
            let xs = Batch::borrowed(&data.images[chunk_start..end]);
            let outs = self.net.forward(xs, &mut self.ctx, false);
            for (out, &label) in outs.iter().zip(&data.labels[chunk_start..end]) {
                total_loss += softmax_cross_entropy(out.as_slice(), label).0 as f64;
                correct += usize::from(argmax(out.as_slice()) == label);
            }
        }
        let denom = data.len().max(1) as f64;
        EpochStats {
            loss: total_loss / denom,
            accuracy: correct as f64 / denom,
        }
    }

    /// Evaluates classification accuracy on `data` (no parameter updates,
    /// evaluation-mode batch norm).
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        self.evaluate_stats(data).accuracy
    }

    /// Mean activation-gradient density over all instrumented layers
    /// (Table II's ρ_nnz), or `None` before any backward pass.
    pub fn mean_grad_density(&self) -> Option<f64> {
        let mut densities = Vec::new();
        self.net.grad_densities(&mut densities);
        if densities.is_empty() {
            None
        } else {
            Some(densities.iter().map(|(_, d)| d).sum::<f64>() / densities.len() as f64)
        }
    }

    /// Per-layer `(name, density)` pairs.
    pub fn grad_densities(&self) -> Vec<(String, f64)> {
        let mut densities = Vec::new();
        self.net.grad_densities(&mut densities);
        densities
    }

    /// Captures a dataflow trace of one training step (one batch, no
    /// parameter update) for the accelerator simulator. The traced sample
    /// is the first of the dataset; use [`Trainer::capture_trace_at`] to
    /// trace other samples.
    pub fn capture_trace(&mut self, data: &Dataset, model: &str, dataset: &str) -> NetworkTrace {
        self.capture_trace_at(data, 0, model, dataset)
    }

    /// Like [`Trainer::capture_trace`], but the batch (and hence the traced
    /// sample) starts at `start` (wrapped to the dataset length) — capture
    /// several offsets and average the simulations to estimate per-sample
    /// cost over the data distribution.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn capture_trace_at(
        &mut self,
        data: &Dataset,
        start: usize,
        model: &str,
        dataset: &str,
    ) -> NetworkTrace {
        self.net.set_capture(true);
        self.probe_pass(data, start);
        let mut trace = NetworkTrace::new(model, dataset);
        self.net.collect_traces(&mut trace.layers);
        self.net.set_capture(false);
        trace
    }

    /// Runs one forward/backward step (no parameter update) with gradient
    /// taps armed at every pruning position and returns the *pre-prune*
    /// activation gradients per position — the inputs to the distribution
    /// diagnostics of `sparsetrain_core::prune::diagnostics`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn tap_gradients(&mut self, data: &Dataset) -> Vec<(String, Vec<f32>)> {
        self.net.set_grad_tap(true);
        self.probe_pass(data, 0);
        let mut tapped = Vec::new();
        self.net.take_tapped_grads(&mut tapped);
        self.net.set_grad_tap(false);
        tapped
    }

    /// The one probe pass behind [`Trainer::capture_trace_at`] and
    /// [`Trainer::tap_gradients`]: a local step over the batch starting at
    /// `start` (wrapped), off the training path. It reuses the upcoming
    /// step's stream coordinates without advancing the ladder and runs
    /// with pruning state frozen (predicted thresholds applied, no
    /// FIFO/statistics updates) and no fault plan, then discards the
    /// gradient side effects, so inspecting a run never perturbs it.
    fn probe_pass(&mut self, data: &Dataset, start: usize) {
        assert!(!data.is_empty(), "cannot probe an empty dataset");
        let n = data.len();
        let bs = self.config.batch_size.min(n);
        let indices: Vec<usize> = (0..bs).map(|i| (start + i) % n).collect();
        self.net.set_prune_frozen(true);
        self.local_step(data, &indices, &mut 0.0, Faults::default());
        self.net.set_prune_frozen(false);
        self.net.zero_grads();
    }
}

/// The one training-step body — zero the gradients, forward in training
/// mode, per-sample cross-entropy loss and `dlogits`, backward under
/// `streams` — leaving the batch's summed gradients in `net`. The local
/// step, a shard worker's granule and the probe pass all run exactly this.
///
/// `ctx` holds `faults` for the length of the body, also when it unwinds,
/// so `engine.panic` counts the dispatches of steps only, never evaluation's.
///
/// Each sample's loss is added to the caller's `loss` accumulator in
/// sample order. The bracketing is contract: the local path hands in the
/// epoch's running total (per-sample adds across batch boundaries), a
/// worker hands in a fresh `0.0` per granule. Returns the number of
/// correctly classified samples.
pub(crate) fn step_body(
    net: &mut Sequential,
    ctx: &mut ExecutionContext,
    faults: Faults,
    xs: Batch<'_>,
    labels: &[usize],
    streams: &StepStreams,
    loss: &mut f64,
) -> usize {
    struct Lent<'a>(&'a mut ExecutionContext);
    impl Drop for Lent<'_> {
        fn drop(&mut self) {
            self.0.set_faults(Faults::default());
        }
    }
    ctx.set_faults(faults);
    let lent = Lent(ctx);
    let ctx = &mut *lent.0;
    net.zero_grads();
    let outs = net.forward(xs, ctx, true);
    let mut correct = 0usize;
    let mut grads = Vec::with_capacity(outs.len());
    for (out, &label) in outs.iter().zip(labels) {
        let logits = out.as_slice();
        let (sample_loss, dlogits) = softmax_cross_entropy(logits, label);
        *loss += sample_loss as f64;
        correct += usize::from(argmax(logits) == label);
        grads.push(Tensor3::from_vec(logits.len(), 1, 1, dlogits));
    }
    net.backward(grads, ctx, streams);
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::models;
    use sparsetrain_core::prune::PruneConfig;
    use sparsetrain_faults::Trigger;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn training_reduces_loss() {
        let (train, _) = SyntheticSpec::tiny(3).generate();
        let net = models::mini_cnn(3, 4, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        let first = trainer.train_epoch(&train);
        let mut last = first;
        for _ in 0..4 {
            last = trainer.train_epoch(&train);
        }
        assert!(
            last.loss < first.loss,
            "loss did not decrease: {} -> {}",
            first.loss,
            last.loss
        );
    }

    #[test]
    fn learns_above_chance() {
        let (train, test) = SyntheticSpec::tiny(3).generate();
        let net = models::mini_cnn(3, 4, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        for _ in 0..6 {
            trainer.train_epoch(&train);
        }
        let acc = trainer.evaluate(&test);
        assert!(acc > 1.0 / 3.0 + 0.1, "accuracy {acc} not above chance");
    }

    #[test]
    fn pruned_training_still_learns() {
        let (train, test) = SyntheticSpec::tiny(3).generate();
        let net = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        for _ in 0..6 {
            trainer.train_epoch(&train);
        }
        let acc = trainer.evaluate(&test);
        assert!(acc > 1.0 / 3.0 + 0.1, "pruned accuracy {acc} not above chance");
        let density = trainer.mean_grad_density().expect("density recorded");
        assert!(density < 1.0);
    }

    #[test]
    fn trace_capture_produces_conv_traces() {
        let (train, _) = SyntheticSpec::tiny(2).generate();
        let net = models::mini_cnn(2, 4, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        trainer.train_epoch(&train);
        let trace = trainer.capture_trace(&train, "mini", "tiny");
        assert!(trace.validate().is_ok());
        // mini_cnn has 2 convs + 1 fc = 3 traced layers.
        assert_eq!(trace.layers.len(), 3);
        assert!(trace.dense_macs() > 0);
    }

    #[test]
    fn tap_gradients_yields_every_pruning_position() {
        let (train, _) = SyntheticSpec::tiny(3).generate();
        let net = models::mini_cnn(3, 8, Some(PruneConfig::paper_default()));
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        trainer.train_epoch(&train);
        let tapped = trainer.tap_gradients(&train);
        // mini_cnn has one prune hook per conv layer (2 convs).
        assert_eq!(tapped.len(), 2);
        for (name, values) in &tapped {
            assert!(!values.is_empty(), "{name} tapped nothing");
            assert!(values.iter().any(|&v| v != 0.0), "{name} all zero");
        }
        // Taps disarm afterwards: a training epoch must not accumulate.
        trainer.train_epoch(&train);
        let mut out = Vec::new();
        trainer.network_mut().take_tapped_grads(&mut out);
        assert!(out.is_empty(), "taps leaked into normal training");
    }

    #[test]
    fn probe_passes_do_not_perturb_training() {
        // capture_trace and tap_gradients run real backward passes, but
        // with pruning state frozen and the stream ladder unadvanced —
        // inspecting a run must leave its trajectory and the state a
        // snapshot records (conv density accumulators included) bitwise
        // unchanged.
        let (train, _) = SyntheticSpec::tiny(3).generate();
        let run = |probe: bool| -> Vec<f32> {
            let net = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
            let mut trainer = Trainer::new(net, TrainConfig::quick());
            trainer.train_epoch(&train);
            if probe {
                let before = trainer.snapshot().encode().unwrap();
                trainer.capture_trace(&train, "m", "d");
                assert_eq!(trainer.snapshot().encode().unwrap(), before, "capture_trace");
                trainer.tap_gradients(&train);
                assert_eq!(trainer.snapshot().encode().unwrap(), before, "tap_gradients");
            }
            trainer.train_epoch(&train);
            let mut weights = Vec::new();
            trainer
                .network_mut()
                .visit_params(&mut |w, _| weights.extend_from_slice(w));
            weights
        };
        assert_eq!(run(false), run(true), "probe passes perturbed the trajectory");
    }

    #[test]
    fn a_background_checkpoint_records_the_state_at_its_hand_off() {
        let (train, _) = SyntheticSpec::tiny(3).generate();
        let dir = std::env::temp_dir().join(format!("sparsetrain-handoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            TrainConfig::quick().with_checkpoint_policy(CheckpointPolicy::every_epochs(&dir, 1).with_keep(0));
        let mut trainer = Trainer::new(models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2))), config);
        trainer.train_epoch(&train);
        let handed_off = trainer.snapshot().encode().unwrap();
        // The next epoch trains while the first epoch's write is in flight.
        trainer.train(&train, None, 1, &mut MetricStore::new(), &mut []);
        let files = trainer.checkpoints().expect("manager active").files().to_vec();
        assert_eq!(files.len(), 2, "{files:?}");
        assert_eq!(std::fs::read(&files[0]).unwrap(), handed_off);
        // Read without the checkpoint crate's wait: `train` returned with
        // its last write landed.
        assert_eq!(
            std::fs::read(&files[1]).unwrap(),
            trainer.snapshot().encode().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_seed_mismatch_and_foreign_layers() {
        let (train, _) = SyntheticSpec::tiny(2).generate();
        let mut trainer = Trainer::new(models::mini_cnn(2, 4, None), TrainConfig::quick());
        trainer.train_epoch(&train);
        let snap = trainer.snapshot();

        let mut other_seed = Trainer::new(
            models::mini_cnn(2, 4, None),
            TrainConfig {
                seed: 9,
                ..TrainConfig::quick()
            },
        );
        match other_seed.resume(&snap) {
            Err(ResumeError::SeedMismatch {
                snapshot: 0,
                config: 9,
            }) => {}
            other => panic!("expected SeedMismatch, got {other:?}"),
        }

        // A differently-shaped network leaves state unclaimed or mismatched.
        let mut other_net = Trainer::new(models::mini_cnn(2, 8, None), TrainConfig::quick());
        assert!(other_net.resume(&snap).is_err());
    }

    #[test]
    fn train_harness_records_metrics_and_stops() {
        use crate::metrics::{MetricStore, Patience, TargetAccuracy};

        let (train, test) = SyntheticSpec::tiny(3).generate();
        let net = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        let mut store = MetricStore::new().with_latency();
        let mut stops: Vec<Box<dyn StopCondition>> = vec![Box::new(TargetAccuracy::new(2.0))];
        let outcome = trainer.train(&train, Some(&test), 3, &mut store, &mut stops);
        assert_eq!(outcome.epochs_run, 3);
        assert!(outcome.stopped.is_none(), "accuracy 2.0 is unreachable");
        assert_eq!(store.records().len(), 3);
        let rec = store.last().unwrap();
        assert_eq!(rec.epoch, 3);
        assert!(rec.val_loss.is_some() && rec.val_accuracy.is_some());
        assert!(rec.rho_nnz.is_some(), "pruned net must report density");
        assert!(rec.step_latency_ns.is_some(), "harness records latency");

        // A vanishing learning rate stalls the loss, so patience triggers.
        let net = models::mini_cnn(3, 4, None);
        let mut trainer = Trainer::new(
            net,
            TrainConfig {
                lr: 1e-30,
                ..TrainConfig::quick()
            },
        );
        let mut store = MetricStore::new();
        let mut stops: Vec<Box<dyn StopCondition>> = vec![Box::new(Patience::new(1))];
        let outcome = trainer.train(&train, None, 5, &mut store, &mut stops);
        assert!(outcome.stopped.is_some(), "zero-lr run should stall out");
        assert!(outcome.epochs_run < 5);
    }

    #[test]
    fn resume_error_display_names_every_detail() {
        // One assertion per variant: the rendered message must carry the
        // identifying detail (seed values, layer name, state kind, plan
        // parser message) so a failed resume is diagnosable from the log
        // line alone.
        let seed = ResumeError::SeedMismatch {
            snapshot: 7,
            config: 9,
        }
        .to_string();
        assert!(seed.contains("seed 7") && seed.contains("seed 9"), "{seed}");

        let layer = ResumeError::Layer("conv1: expected 18 weights, got 20".into()).to_string();
        assert!(layer.contains("conv1: expected 18 weights"), "{layer}");

        let unclaimed = ResumeError::UnclaimedState {
            layer: "fc".into(),
            kind: "rng",
        }
        .to_string();
        assert!(
            unclaimed.contains("rng state") && unclaimed.contains("\"fc\""),
            "{unclaimed}"
        );

        let plan = ResumeError::LegacyPlan {
            section: Section::PlanProgram,
        }
        .to_string();
        for needle in ["section plan-program", "SPARSETRAIN_ENGINE=simd", "12d3f1c"] {
            assert!(plan.contains(needle), "{plan} lacks {needle:?}");
        }
    }

    #[test]
    fn env_checkpoint_dir_sets_policy() {
        // Serialised via a dedicated env var name; no other test reads it.
        std::env::set_var(sparsetrain_checkpoint::CHECKPOINT_DIR_ENV, "/tmp/ckpt-env-test");
        let config = TrainConfig::quick().with_env_checkpoint_dir();
        std::env::remove_var(sparsetrain_checkpoint::CHECKPOINT_DIR_ENV);
        let policy = config.checkpoint.expect("env override should apply");
        assert_eq!(policy.dir, std::path::PathBuf::from("/tmp/ckpt-env-test"));
        assert_eq!(policy.every_epochs, Some(1));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let net = models::mini_cnn(2, 2, None);
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        let empty = Dataset {
            images: Vec::new(),
            labels: Vec::new(),
            num_classes: 2,
        };
        let _ = trainer.train_epoch(&empty);
    }

    /// Trains `mini_cnn` for three epochs under `faults`, validating on
    /// `val` after each: whether the run died, its step, its encoded state.
    fn faulted_run(train: &Dataset, val: Option<&Dataset>, faults: Faults) -> (bool, u64, Vec<u8>) {
        let mut trainer =
            Trainer::new(models::mini_cnn(3, 4, None), TrainConfig::quick()).with_faults(faults);
        let run = AssertUnwindSafe(|| trainer.train(train, val, 3, &mut MetricStore::new(), &mut []));
        let died = catch_unwind(run).is_err();
        (died, trainer.streams.step(), trainer.snapshot().encode().unwrap())
    }

    /// Two runs train at once, only one of them armed: it dies after its
    /// own step `k + 1`, and the other trains as it does alone, bit for bit.
    #[test]
    fn a_plan_stays_with_its_run() {
        let (train, _) = SyntheticSpec::tiny(3).generate();
        let solo = faulted_run(&train, None, Faults::default());
        let kill = FaultPlan::new(1).with(Site::StepKill, Trigger::At(4)).arm();
        let (armed, unarmed) = std::thread::scope(|s| {
            let armed = s.spawn(|| faulted_run(&train, None, kill));
            let unarmed = s.spawn(|| faulted_run(&train, None, Faults::default()));
            (armed.join().unwrap(), unarmed.join().unwrap())
        });
        assert_eq!((armed.0, armed.1), (true, 5));
        assert!(!solo.0);
        assert_eq!(unarmed, solo);
    }

    /// The same `engine.panic@57` — the third of step 12's five dispatches,
    /// in epoch 2 — lands on the same step whether or not the run validates
    /// after epoch 1: evaluation dispatches neither count nor fire.
    #[test]
    fn engine_panic_counts_training_dispatches_only() {
        let (train, val) = SyntheticSpec::tiny(3).generate();
        let panic = || FaultPlan::new(1).with(Site::EnginePanic, Trigger::At(57)).arm();
        let (validated, unvalidated) = (
            faulted_run(&train, Some(&val), panic()),
            faulted_run(&train, None, panic()),
        );
        assert_eq!(
            (validated.0, validated.1),
            (true, 11),
            "the panic lands inside step 12"
        );
        assert_eq!((unvalidated.0, unvalidated.1), (true, 11));
    }
}
