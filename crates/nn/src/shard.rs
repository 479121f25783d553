//! Sharded data-parallel training with deterministic aggregation.
//!
//! A coordinator splits every mini-batch into fixed-size **granules**
//! (default: one sample) and farms them out to `N` workers. Each worker
//! holds a replica of the network ([`Layer::try_clone`]), prunes
//! statelessly under the coordinator-broadcast thresholds on its own
//! slice of the counter-based pruning streams
//! (`StepStreams::with_sample_base`), and returns per-granule gradients
//! and [`SiteStats`]. The coordinator reduces everything in **global
//! granule-index order** — never arrival order — so the aggregated step
//! is bitwise-identical for any worker count, any engine, and any rayon
//! thread count. The granule size is a function of configuration only
//! (never of `N`); that is what makes `N ∈ {1, 2, 4, …}` produce the
//! same floating-point sums.
//!
//! Workers are reached through the [`WorkerTransport`] trait. The
//! in-process backend is [`ThreadTransport`] (one thread per rank, mpsc
//! channels); the command/reply types are plain data so a process or
//! socket backend can slot in without touching the coordinator.
//!
//! Worker failure handling mirrors the supervisor's epoch loop at step
//! scale: a panicking granule is retried with bounded backoff on the same
//! rank, a repeatedly failing rank has its engine quarantined (bitwise
//! safe — engines are parity-pinned), a dead worker is respawned from the
//! coordinator's template and its outstanding granules are resubmitted.
//! Because replayed granules see identical parameters, thresholds and
//! stream slices, recovery never perturbs the aggregate. Exhausted
//! retries escalate as a panic that the outer
//! [`Supervisor`](crate::supervisor::Supervisor) classifies and recovers
//! from at epoch scale.
//!
//! ```
//! use sparsetrain_nn::data::SyntheticSpec;
//! use sparsetrain_nn::models;
//! use sparsetrain_nn::train::{TrainConfig, Trainer};
//!
//! let (train, _) = SyntheticSpec::tiny(2).generate();
//! let net = models::mini_cnn(2, 2, None);
//! let config = TrainConfig::quick().with_workers(2);
//! let mut trainer = Trainer::new_sharded(net, config).unwrap();
//! let stats = trainer.train_epoch(&train);
//! assert!(stats.loss.is_finite());
//! ```

use crate::layer::{Batch, Layer};
use crate::sequential::Sequential;
use crate::supervisor::{panic_text, SupervisorConfig};
use crate::train::step_body;
use sparsetrain_core::prune::{SiteStats, StreamSeeds};
use sparsetrain_sparse::{registry, EngineHandle, ExecutionContext};
use sparsetrain_tensor::Tensor3;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

/// The per-rank retry policy — the supervisor's, at step scale:
/// consecutive failures tolerated before escalating, and the backoff
/// before a retry (doubling per consecutive failure, capped).
const RETRY: SupervisorConfig = SupervisorConfig {
    max_retries: 5,
    backoff_base: Duration::from_millis(1),
    backoff_max: Duration::from_millis(100),
};

/// How a training run is sharded across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Worker count (`1` is valid and anchors the N-invariance tests).
    pub workers: usize,
    /// Samples per granule. The granule is the unit of work distribution
    /// *and* of gradient reduction, so it must depend only on
    /// configuration — deriving it from the worker count would change the
    /// f32/f64 summation bracketing across `N` and break invariance.
    pub granule: usize,
}

impl ShardSpec {
    /// A spec with `workers` workers and one-sample granules.
    pub fn new(workers: usize) -> Self {
        ShardSpec { workers, granule: 1 }
    }
}

/// Why a network/spec pair cannot be sharded.
#[derive(Debug)]
pub enum ShardError {
    /// The spec asks for zero workers.
    NoWorkers,
    /// Layers whose semantics break under replica execution
    /// ([`Layer::shard_blockers`]): cross-sample batch statistics or
    /// embedded sequential RNGs.
    Unshardable(Vec<String>),
    /// A layer could not be cloned into a worker replica
    /// ([`Layer::try_clone`] returned `None`).
    NotReplicable(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoWorkers => write!(f, "shard spec requests zero workers"),
            ShardError::Unshardable(layers) => write!(
                f,
                "network cannot be sharded: layer(s) [{}] have cross-sample or \
                 order-dependent semantics",
                layers.join(", ")
            ),
            ShardError::NotReplicable(net) => {
                write!(
                    f,
                    "network {net:?} cannot be replicated onto workers (try_clone failed)"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Checks that `net` can run under `spec`: a positive worker count, no
/// semantic shard blockers, and a mechanically replicable layer tree.
pub fn validate(net: &Sequential, spec: &ShardSpec) -> Result<(), ShardError> {
    if spec.workers == 0 {
        return Err(ShardError::NoWorkers);
    }
    let mut blockers = Vec::new();
    net.shard_blockers(&mut blockers);
    if !blockers.is_empty() {
        return Err(ShardError::Unshardable(blockers));
    }
    if net.try_replicate().is_none() {
        return Err(ShardError::NotReplicable(net.name().to_string()));
    }
    Ok(())
}

/// One granule of a step: a contiguous run of batch samples plus the
/// stream-slice offset that makes the worker's pruning draws identical to
/// the draws a single worker would have made at the same position.
#[derive(Debug, Clone)]
pub struct GranuleSpec {
    /// Global granule index within the step — the reduction key.
    pub index: usize,
    /// Index of the granule's first sample within the batch, in samples
    /// (the `StepStreams::with_sample_base` offset).
    pub sample_base: u64,
    /// The granule's input images.
    pub images: Vec<Tensor3>,
    /// The matching labels.
    pub labels: Vec<usize>,
}

/// Everything a worker needs to execute its share of one optimizer step.
/// Plain data — a process/socket transport can serialize it.
#[derive(Debug, Clone)]
pub struct StepCommand {
    /// Stream-ladder coordinates of the step (`seed`, `epoch`, `step`).
    pub seed: u64,
    /// Epoch coordinate.
    pub epoch: u64,
    /// Step coordinate.
    pub step: u64,
    /// Coordinator parameters, flattened in `visit_params` order; the
    /// worker loads them before computing (respawned workers are thereby
    /// in sync for free).
    pub params: Vec<f32>,
    /// Per-site predicted pruning thresholds broadcast for this step.
    pub taus: Vec<(String, Option<f64>)>,
    /// The granules assigned to this worker.
    pub granules: Vec<GranuleSpec>,
    /// Engines the worker must quarantine before computing.
    pub quarantine: Vec<String>,
    /// Fault injection: die instead of computing (`worker.kill`).
    pub kill: bool,
    /// Fault injection: sleep this long before computing (`worker.slow`).
    pub slow_ms: Option<u64>,
}

/// What one granule contributed: loss, accuracy counts, flattened
/// parameter gradients and per-site pruning statistics.
#[derive(Debug, Clone)]
pub struct GranuleResult {
    /// The granule's global index (the reduction key).
    pub index: usize,
    /// Summed cross-entropy loss over the granule's samples.
    pub loss: f64,
    /// Correctly classified samples.
    pub correct: usize,
    /// Samples in the granule.
    pub samples: usize,
    /// Parameter gradients, flattened in `visit_params` order.
    pub grads: Vec<f32>,
    /// `(site name, stats)` per pruning site, in forward order.
    pub prune_stats: Vec<(String, SiteStats)>,
}

/// A worker-to-coordinator message.
#[derive(Debug)]
pub enum WorkerReply {
    /// One granule finished.
    Granule {
        /// Reporting worker.
        rank: usize,
        /// The granule's contribution.
        result: GranuleResult,
    },
    /// One granule panicked; the worker survives and continues with its
    /// remaining granules.
    Failed {
        /// Reporting worker.
        rank: usize,
        /// Index of the failed granule.
        granule: usize,
        /// Rendered panic payload.
        detail: String,
    },
    /// The worker is gone (injected kill, or its loop panicked). A socket
    /// transport maps disconnects to this variant.
    Died {
        /// The dead worker.
        rank: usize,
        /// Why it died.
        detail: String,
    },
}

/// How worker replicas execute kernels, resolved once per pool.
#[derive(Debug, Clone)]
pub enum EngineSetup {
    /// The default engine, `simd`: what a trainer whose config names no
    /// engine runs on.
    Dense,
    /// The named backend.
    Engine(EngineHandle),
}

impl EngineSetup {
    /// The engine this setup resolves to.
    pub fn handle(&self) -> EngineHandle {
        match self {
            EngineSetup::Dense => registry::lookup("simd").expect("simd engine is always registered"),
            EngineSetup::Engine(handle) => *handle,
        }
    }

    /// Builds a worker's execution context.
    pub fn context(&self) -> ExecutionContext {
        ExecutionContext::new(self.handle())
    }
}

/// The coordinator's view of a worker pool: submit commands per rank,
/// receive replies from any rank, respawn dead ranks.
///
/// Implementations deliver every submitted command to the named rank and
/// surface worker death as [`WorkerReply::Died`] (cooperatively or via
/// disconnect detection) — the coordinator never polls liveness. The
/// `replica` handed to [`WorkerTransport::respawn`] is the in-process
/// seed for the new worker; an out-of-process transport may ignore it and
/// rebuild from its own configuration, since parameters arrive with every
/// command anyway.
pub trait WorkerTransport {
    /// Number of ranks.
    fn workers(&self) -> usize;
    /// Sends `cmd` to `rank`. Sending to a dead rank is a no-op; its
    /// death has already been (or will be) reported via
    /// [`WorkerReply::Died`].
    fn submit(&mut self, rank: usize, cmd: StepCommand);
    /// Blocks until the next reply from any rank.
    ///
    /// # Panics
    ///
    /// Panics if no reply arrives within the transport's deadline — a
    /// hung transport must surface as a supervisable failure, not a
    /// deadlock.
    fn recv(&mut self) -> WorkerReply;
    /// Replaces a dead rank with a fresh worker built from `replica`.
    fn respawn(&mut self, rank: usize, replica: Sequential);
}

/// The in-process [`WorkerTransport`]: one OS thread per rank, commands
/// over per-rank mpsc channels, replies multiplexed onto one channel.
pub struct ThreadTransport {
    setup: EngineSetup,
    reply_tx: mpsc::Sender<WorkerReply>,
    replies: mpsc::Receiver<WorkerReply>,
    workers: Vec<WorkerHandle>,
}

struct WorkerHandle {
    commands: Option<mpsc::Sender<StepCommand>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ThreadTransport {
    /// Deadline for [`WorkerTransport::recv`]; generous, because hitting
    /// it means a worker vanished without its cooperative death message.
    const RECV_DEADLINE: Duration = Duration::from_secs(60);

    /// Spawns `workers` threads, each owning a replica of `template`.
    ///
    /// # Errors
    ///
    /// [`ShardError::NotReplicable`] when the template refuses to clone.
    pub fn spawn(workers: usize, template: &Sequential, setup: EngineSetup) -> Result<Self, ShardError> {
        let (reply_tx, replies) = mpsc::channel();
        let mut transport = ThreadTransport {
            setup,
            reply_tx,
            replies,
            workers: Vec::with_capacity(workers),
        };
        for rank in 0..workers {
            let replica = template
                .try_replicate()
                .ok_or_else(|| ShardError::NotReplicable(template.name().to_string()))?;
            let handle = transport.launch(rank, replica);
            transport.workers.push(handle);
        }
        Ok(transport)
    }

    fn launch(&self, rank: usize, replica: Sequential) -> WorkerHandle {
        let (command_tx, commands) = mpsc::channel();
        let replies = self.reply_tx.clone();
        let setup = self.setup.clone();
        let thread = std::thread::spawn(move || worker_loop(rank, replica, setup, commands, replies));
        WorkerHandle {
            commands: Some(command_tx),
            thread: Some(thread),
        }
    }
}

impl WorkerTransport for ThreadTransport {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn submit(&mut self, rank: usize, cmd: StepCommand) {
        if let Some(commands) = &self.workers[rank].commands {
            // A send error means the worker is gone; its cooperative
            // `Died` reply is already queued, so dropping the command is
            // correct — the coordinator will resubmit after respawning.
            let _ = commands.send(cmd);
        }
    }

    fn recv(&mut self) -> WorkerReply {
        match self.replies.recv_timeout(Self::RECV_DEADLINE) {
            Ok(reply) => reply,
            Err(e) => panic!("shard transport: no worker reply within deadline: {e}"),
        }
    }

    fn respawn(&mut self, rank: usize, replica: Sequential) {
        let old = std::mem::replace(
            &mut self.workers[rank],
            WorkerHandle {
                commands: None,
                thread: None,
            },
        );
        drop(old.commands);
        if let Some(thread) = old.thread {
            let _ = thread.join(); // the rank died, so this returns promptly
        }
        self.workers[rank] = self.launch(rank, replica);
    }
}

impl Drop for ThreadTransport {
    fn drop(&mut self) {
        for handle in &mut self.workers {
            handle.commands = None; // disconnect: the worker loop exits
        }
        for handle in &mut self.workers {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// The body of one worker thread: receive commands, execute granules,
/// reply. Exits when the command channel disconnects or a kill fires.
fn worker_loop(
    rank: usize,
    mut net: Sequential,
    setup: EngineSetup,
    commands: mpsc::Receiver<StepCommand>,
    replies: mpsc::Sender<WorkerReply>,
) {
    let mut ctx = setup.context();
    net.set_shard_prune(true);
    while let Ok(cmd) = commands.recv() {
        if let Some(ms) = cmd.slow_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if cmd.kill {
            let _ = replies.send(WorkerReply::Died {
                rank,
                detail: format!("injected worker.kill at step {}", cmd.step),
            });
            return;
        }
        for engine in &cmd.quarantine {
            ctx.quarantine(engine);
        }
        let mut offset = 0usize;
        net.visit_params(&mut |p, _| {
            p.copy_from_slice(&cmd.params[offset..offset + p.len()]);
            offset += p.len();
        });
        net.set_shard_taus(&cmd.taus);
        for granule in &cmd.granules {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_granule(&mut net, &mut ctx, &cmd, granule)
            }));
            let reply = match outcome {
                Ok(result) => WorkerReply::Granule { rank, result },
                Err(payload) => WorkerReply::Failed {
                    rank,
                    granule: granule.index,
                    detail: panic_text(payload.as_ref())
                        .unwrap_or("non-string panic payload")
                        .to_string(),
                },
            };
            if replies.send(reply).is_err() {
                return; // coordinator gone
            }
        }
    }
}

/// [`step_body`] over one granule on a worker replica. Pure in the
/// granule given the command's parameters and thresholds: replaying it on
/// any rank reproduces the identical result.
fn run_granule(
    net: &mut Sequential,
    ctx: &mut ExecutionContext,
    cmd: &StepCommand,
    granule: &GranuleSpec,
) -> GranuleResult {
    let streams = StreamSeeds::at(cmd.seed, cmd.epoch, cmd.step)
        .streams()
        .with_sample_base(granule.sample_base);
    let xs = Batch::borrowed(&granule.images);
    // A fresh accumulator per granule: the coordinator sums granule losses
    // in granule order, which is what makes the loss worker-count-invariant.
    let mut loss = 0.0f64;
    let correct = step_body(net, ctx, xs, &granule.labels, &streams, &mut loss);
    let mut prune_stats = Vec::new();
    net.take_shard_stats(&mut prune_stats);
    let mut flat = Vec::new();
    net.visit_params(&mut |_, g| flat.extend_from_slice(g));
    GranuleResult {
        index: granule.index,
        loss,
        correct,
        samples: granule.images.len(),
        grads: flat,
        prune_stats,
    }
}

/// One step's coordinator-side inputs, already granule-partitioned.
#[derive(Debug, Clone)]
pub struct StepInput {
    /// Stream-ladder seed.
    pub seed: u64,
    /// Stream-ladder epoch.
    pub epoch: u64,
    /// Stream-ladder step.
    pub step: u64,
    /// Flattened coordinator parameters.
    pub params: Vec<f32>,
    /// Per-site predicted thresholds for this step.
    pub taus: Vec<(String, Option<f64>)>,
    /// The step's granules, indexed `0..granules.len()`.
    pub granules: Vec<GranuleSpec>,
}

/// The granule-order reduction of one step.
#[derive(Debug, Clone, Default)]
pub struct StepReduction {
    /// Summed loss over the batch (granule-order f64 sum).
    pub loss: f64,
    /// Correctly classified samples.
    pub correct: usize,
    /// Samples covered.
    pub samples: usize,
    /// Summed parameter gradients (granule-order f32 sums).
    pub grads: Vec<f32>,
    /// Per-site stats accumulated in granule order, in forward site
    /// order — ready for `absorb_prune_stats`.
    pub prune_stats: Vec<(String, SiteStats)>,
}

/// Counters of the pool's self-healing activity, for diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Granules retried after a worker-side panic.
    pub retries: usize,
    /// Workers respawned after dying.
    pub respawns: usize,
    /// Engine quarantines applied across ranks.
    pub quarantines: usize,
}

/// The coordinator's worker pool: owns the transport, the respawn
/// template and the per-rank failure bookkeeping, and runs the
/// deterministic scatter/reduce of each optimizer step.
pub struct ShardPool {
    template: Sequential,
    setup: EngineSetup,
    transport: Box<dyn WorkerTransport>,
    /// Consecutive failures per rank (reset by that rank's next success).
    streaks: Vec<usize>,
    /// Engines quarantined per rank, re-broadcast with every command.
    quarantined: Vec<Vec<String>>,
    health: ShardHealth,
}

impl ShardPool {
    /// A pool over the in-process [`ThreadTransport`].
    ///
    /// # Errors
    ///
    /// [`ShardError::NoWorkers`] / [`ShardError::NotReplicable`] via
    /// [`validate`] and replica construction.
    pub fn threads(spec: ShardSpec, template: Sequential, setup: EngineSetup) -> Result<Self, ShardError> {
        if spec.workers == 0 {
            return Err(ShardError::NoWorkers);
        }
        let transport = ThreadTransport::spawn(spec.workers, &template, setup.clone())?;
        Ok(Self::with_transport(template, setup, Box::new(transport)))
    }

    /// A pool over an externally built transport (the seam for process or
    /// socket backends).
    pub fn with_transport(
        template: Sequential,
        setup: EngineSetup,
        transport: Box<dyn WorkerTransport>,
    ) -> Self {
        let workers = transport.workers();
        ShardPool {
            template,
            setup,
            transport,
            streaks: vec![0; workers],
            quarantined: vec![Vec::new(); workers],
            health: ShardHealth::default(),
        }
    }

    /// Self-healing counters accumulated over the pool's lifetime.
    pub fn health(&self) -> ShardHealth {
        self.health
    }

    /// Scatters one step's granules, rides through worker failures, and
    /// returns the granule-order reduction.
    ///
    /// Fault hooks (`worker.kill`, `worker.slow`) are consulted here —
    /// once per `(step, rank)` in rank order on the coordinator thread —
    /// so the injection schedule is deterministic regardless of worker
    /// timing.
    ///
    /// # Panics
    ///
    /// Panics when a rank exceeds the retry budget; the outer
    /// supervisor classifies and recovers at epoch scale.
    pub fn run_step(&mut self, input: &StepInput) -> StepReduction {
        let workers = self.transport.workers();
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for granule in &input.granules {
            assigned[granule.index % workers].push(granule.index);
        }
        let mut outstanding = assigned;
        for rank in 0..workers {
            // Deterministic fault schedule: exactly one kill/slow check
            // per (step, rank), in rank order. The slow salt is a raw
            // stream word; clamp it to a bounded stall that still
            // scrambles completion order.
            let kill = sparsetrain_faults::on_worker_kill(rank);
            let slow_ms = sparsetrain_faults::on_worker_slow(rank).map(|salt| 1 + salt % 20);
            if outstanding[rank].is_empty() && !kill {
                continue;
            }
            let cmd = self.command(input, &outstanding[rank], kill, slow_ms, rank);
            self.transport.submit(rank, cmd);
        }

        let mut collected: BTreeMap<usize, GranuleResult> = BTreeMap::new();
        while collected.len() < input.granules.len() {
            match self.transport.recv() {
                WorkerReply::Granule { rank, result } => {
                    self.streaks[rank] = 0;
                    outstanding[rank].retain(|&g| g != result.index);
                    collected.insert(result.index, result);
                }
                WorkerReply::Failed {
                    rank,
                    granule,
                    detail,
                } => {
                    self.note_failure(rank, &detail);
                    self.health.retries += 1;
                    let cmd = self.command(input, &[granule], false, None, rank);
                    self.transport.submit(rank, cmd);
                }
                WorkerReply::Died { rank, detail } => {
                    self.note_failure(rank, &detail);
                    self.health.respawns += 1;
                    let replica = self
                        .template
                        .try_replicate()
                        .expect("template replicated at spawn, so it replicates now");
                    self.transport.respawn(rank, replica);
                    if !outstanding[rank].is_empty() {
                        let pending = outstanding[rank].clone();
                        let cmd = self.command(input, &pending, false, None, rank);
                        self.transport.submit(rank, cmd);
                    }
                }
            }
        }
        reduce(input, collected)
    }

    /// Bumps a rank's failure streak: backoff, quarantine from the second
    /// consecutive hit, escalate past the retry budget.
    fn note_failure(&mut self, rank: usize, detail: &str) {
        self.streaks[rank] += 1;
        let streak = self.streaks[rank];
        if streak > RETRY.max_retries {
            panic!(
                "shard worker {rank} exhausted {} retries (last failure: {detail})",
                RETRY.max_retries
            );
        }
        std::thread::sleep(RETRY.backoff_delay(streak));
        let engine = self.setup.handle().name();
        if streak >= 2 && engine != "scalar" && !self.quarantined[rank].iter().any(|e| e == engine) {
            self.quarantined[rank].push(engine.to_string());
            self.health.quarantines += 1;
        }
    }

    fn command(
        &self,
        input: &StepInput,
        granules: &[usize],
        kill: bool,
        slow_ms: Option<u64>,
        rank: usize,
    ) -> StepCommand {
        StepCommand {
            seed: input.seed,
            epoch: input.epoch,
            step: input.step,
            params: input.params.clone(),
            taus: input.taus.clone(),
            granules: granules.iter().map(|&g| input.granules[g].clone()).collect(),
            quarantine: self.quarantined[rank].clone(),
            kill,
            slow_ms,
        }
    }
}

/// Folds collected granules in global granule-index order (the `BTreeMap`
/// iteration order) — the fixed-reduction-order rule that makes the
/// aggregate independent of worker count and arrival timing.
fn reduce(input: &StepInput, collected: BTreeMap<usize, GranuleResult>) -> StepReduction {
    let mut out = StepReduction {
        grads: vec![0.0f32; input.params.len()],
        ..StepReduction::default()
    };
    for result in collected.values() {
        out.loss += result.loss;
        out.correct += result.correct;
        out.samples += result.samples;
        assert_eq!(
            result.grads.len(),
            out.grads.len(),
            "granule {} returned a gradient vector of the wrong arity",
            result.index
        );
        for (acc, g) in out.grads.iter_mut().zip(&result.grads) {
            *acc += *g;
        }
        for (i, (name, stats)) in result.prune_stats.iter().enumerate() {
            if out.prune_stats.len() <= i {
                out.prune_stats.push((name.clone(), SiteStats::default()));
            }
            assert_eq!(
                &out.prune_stats[i].0, name,
                "granule {} reported pruning sites in a different order",
                result.index
            );
            out.prune_stats[i].1.accumulate(stats);
        }
    }
    out
}

/// Splits one shuffled mini-batch into granules of `granule` samples
/// (the tail granule may be shorter). `sample_base` is the granule's
/// first-sample offset within the batch, which slices the per-sample
/// pruning streams exactly as a single worker would walk them.
pub fn granules_of(data: &crate::data::Dataset, chunk: &[usize], granule: usize) -> Vec<GranuleSpec> {
    let granule = granule.max(1);
    chunk
        .chunks(granule)
        .enumerate()
        .map(|(index, part)| GranuleSpec {
            index,
            sample_base: (index * granule) as u64,
            images: part.iter().map(|&i| data.images[i].clone()).collect(),
            labels: part.iter().map(|&i| data.labels[i]).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::models;
    use sparsetrain_core::prune::PruneConfig;

    #[test]
    fn spec_defaults_and_backoff() {
        let spec = ShardSpec::new(4);
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.granule, 1);
        assert!(RETRY.backoff_delay(1) <= RETRY.backoff_delay(2));
    }

    #[test]
    fn validate_rejects_blockers_and_zero_workers() {
        let net = models::mini_cnn(2, 4, None);
        assert!(matches!(
            validate(&net, &ShardSpec::new(0)),
            Err(ShardError::NoWorkers)
        ));
        assert!(validate(&net, &ShardSpec::new(2)).is_ok());

        let dropout_net = Sequential::new("d").push(crate::layers::Dropout::new("drop", 0.5, 7));
        match validate(&dropout_net, &ShardSpec::new(2)) {
            Err(ShardError::Unshardable(layers)) => assert_eq!(layers, vec!["drop".to_string()]),
            other => panic!("expected Unshardable, got {other:?}"),
        }

        let bn_net = Sequential::new("b").push(crate::layers::BatchNorm2d::new("bn", 4));
        assert!(matches!(
            validate(&bn_net, &ShardSpec::new(2)),
            Err(ShardError::Unshardable(_))
        ));
    }

    #[test]
    fn shard_error_display_names_every_detail() {
        assert!(ShardError::NoWorkers.to_string().contains("zero workers"));
        let unshardable = ShardError::Unshardable(vec!["bn1".into(), "drop".into()]).to_string();
        assert!(unshardable.contains("bn1, drop"), "{unshardable}");
        let not_replicable = ShardError::NotReplicable("alexnet".into()).to_string();
        assert!(not_replicable.contains("\"alexnet\""), "{not_replicable}");
    }

    #[test]
    fn granules_partition_the_batch_contiguously() {
        let (data, _) = SyntheticSpec::tiny(2).generate();
        let chunk: Vec<usize> = (0..7).collect();
        let granules = granules_of(&data, &chunk, 2);
        assert_eq!(granules.len(), 4);
        assert_eq!(granules[0].sample_base, 0);
        assert_eq!(granules[1].sample_base, 2);
        assert_eq!(granules[3].sample_base, 6);
        assert_eq!(granules[3].images.len(), 1, "tail granule holds the remainder");
        let total: usize = granules.iter().map(|g| g.images.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn pool_reduces_identically_for_any_worker_count() {
        let (data, _) = SyntheticSpec::tiny(3).generate();
        let chunk: Vec<usize> = (0..8).collect();
        let run = |workers: usize| -> StepReduction {
            let net = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
            let mut params = Vec::new();
            let mut template = net;
            template.visit_params(&mut |p, _| params.extend_from_slice(p));
            let mut taus = Vec::new();
            template.collect_prune_taus(&mut taus);
            let mut pool = ShardPool::threads(ShardSpec::new(workers), template, EngineSetup::Dense).unwrap();
            pool.run_step(&StepInput {
                seed: 0,
                epoch: 1,
                step: 1,
                params,
                taus,
                granules: granules_of(&data, &chunk, 1),
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.loss.to_bits(), four.loss.to_bits());
        assert_eq!(one.correct, four.correct);
        assert_eq!(one.samples, 8);
        let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.grads), bits(&four.grads));
        assert_eq!(one.prune_stats, four.prune_stats);
    }
}
