//! The bench-side training loop: the same public calls `Trainer` makes,
//! one span around each, with every top-level layer re-boxed into a
//! [`Timed`] wrapper. It replaces `Trainer::train_epoch` in the traced
//! run and must reproduce its loss bit for bit.

use crate::span::{self_times, Recorder, Span};
use crate::spec::{Workload, BATCH};
use crate::stats::{median, tail_percentile};
use crate::workload::{
    build_net, checkpoint_policy, metric, Metric, Tally, TempRoot, Warmed, MOMENTUM, WEIGHT_DECAY, WORKERS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsetrain_checkpoint::{CheckpointManager, LayerState, OptimizerState, RunPosition, Snapshot};
use sparsetrain_core::dataflow::LayerTrace;
use sparsetrain_core::prune::{SiteStats, StepStreams, StreamSeeds};
use sparsetrain_nn::data::Dataset;
use sparsetrain_nn::layer::{Batch, Layer};
use sparsetrain_nn::loss::softmax_cross_entropy;
use sparsetrain_nn::optim::Sgd;
use sparsetrain_nn::shard::{self, EngineSetup, ShardHealth, ShardPool, ShardSpec, StepInput};
use sparsetrain_nn::Sequential;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// A layer that records a span around each forward and backward call of
/// the layer it wraps and passes everything else through untouched.
struct Timed {
    name: String,
    inner: Box<dyn Layer>,
    rec: Arc<Recorder>,
}

impl Layer for Timed {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        let Timed { name, inner, rec } = self;
        rec.leaf(name, "forward", || inner.forward(xs, ctx, train))
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        ctx: &mut ExecutionContext,
        streams: &StepStreams,
    ) -> Vec<Tensor3> {
        let Timed { name, inner, rec } = self;
        rec.leaf(name, "backward", || inner.backward(grads, ctx, streams))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.inner.visit_params(f);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn set_capture(&mut self, enable: bool) {
        self.inner.set_capture(enable);
    }

    fn collect_traces(&self, out: &mut Vec<LayerTrace>) {
        self.inner.collect_traces(out);
    }

    fn grad_densities(&self, out: &mut Vec<(String, f64)>) {
        self.inner.grad_densities(out);
    }

    fn set_grad_tap(&mut self, enable: bool) {
        self.inner.set_grad_tap(enable);
    }

    fn take_tapped_grads(&mut self, out: &mut Vec<(String, Vec<f32>)>) {
        self.inner.take_tapped_grads(out);
    }

    fn reset_density_stats(&mut self) {
        self.inner.reset_density_stats();
    }

    fn set_prune_frozen(&mut self, frozen: bool) {
        self.inner.set_prune_frozen(frozen);
    }

    fn set_sparse_execution(&mut self, enabled: bool) {
        self.inner.set_sparse_execution(enabled);
    }

    fn collect_state(&self, out: &mut Vec<LayerState>) {
        self.inner.collect_state(out);
    }

    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        self.inner.restore_state(state)
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    /// Shard workers run replicas of the coordinator's network, so a
    /// replica of a timed layer is a timed layer on the same recorder.
    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Timed {
            name: self.name.clone(),
            inner: self.inner.try_clone()?,
            rec: Arc::clone(&self.rec),
        }))
    }

    fn shard_blockers(&self, out: &mut Vec<String>) {
        self.inner.shard_blockers(out);
    }

    fn set_shard_prune(&mut self, worker: bool) {
        self.inner.set_shard_prune(worker);
    }

    fn set_shard_taus(&mut self, taus: &[(String, Option<f64>)]) {
        self.inner.set_shard_taus(taus);
    }

    fn take_shard_stats(&mut self, out: &mut Vec<(String, SiteStats)>) {
        self.inner.take_shard_stats(out);
    }

    fn collect_prune_taus(&self, out: &mut Vec<(String, Option<f64>)>) {
        self.inner.collect_prune_taus(out);
    }

    fn absorb_prune_stats(&mut self, stats: &[(String, SiteStats)]) {
        self.inner.absorb_prune_stats(stats);
    }
}

/// The same network with every top-level child wrapped in [`Timed`].
fn wrap(net: &Sequential, rec: &Arc<Recorder>) -> Sequential {
    let mut wrapped = Sequential::new(net.name());
    for child in net.iter() {
        wrapped.push_boxed(Box::new(Timed {
            name: child.name().to_string(),
            inner: child
                .try_clone()
                .expect("every layer of the model zoo can be cloned"),
            rec: Arc::clone(rec),
        }));
    }
    wrapped
}

/// Bytes the coordinator hands to and gets back from the workers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Traffic {
    pub broadcast_bytes: u64,
    pub reduce_bytes: u64,
    pub granules: u64,
    pub steps: u64,
}

/// The sharded half of the loop: worker pool, checkpoint writer and the
/// position a mid-epoch snapshot has to record.
struct Sharded {
    pool: ShardPool,
    checkpoints: CheckpointManager,
    granule: usize,
    epoch_start_rng: [u64; 4],
    steps_into_epoch: u64,
    traffic: Traffic,
}

/// What one epoch of the loop saw.
#[derive(Debug, Clone, Copy)]
pub struct LoopEpoch {
    pub loss: f64,
    pub steps: u64,
    /// Steps whose summed loss was NaN or infinite.
    pub bad_steps: u64,
}

/// The bench-side loop. Built like `Trainer::new` builds its state, so
/// that from one seed both walk the same trajectory.
pub struct BenchLoop {
    net: Sequential,
    ctx: ExecutionContext,
    sgd: Sgd,
    rng: StdRng,
    streams: StreamSeeds,
    rec: Arc<Recorder>,
    sharded: Option<Sharded>,
}

impl BenchLoop {
    /// The loop of workload `w` on engine `engine` (`None`: the default
    /// dense execution). `ckpt_dir` is used by the sharded workload only.
    pub fn new(
        w: Workload,
        engine: Option<&str>,
        seed: u64,
        rec: Arc<Recorder>,
        ckpt_dir: &Path,
    ) -> BenchLoop {
        let mut net = wrap(&build_net(w, seed), &rec);
        let ctx = match engine {
            Some(name) => {
                net.set_sparse_execution(true);
                ExecutionContext::by_name(name).expect("engine names come from the workload table")
            }
            None => ExecutionContext::scalar(),
        };
        let sharded = w.sharded().then(|| {
            let spec = ShardSpec::new(WORKERS);
            shard::validate(&net, &spec).expect("the sharded workload's network can be sharded");
            let setup = if engine.is_some() {
                EngineSetup::Engine(ctx.handle())
            } else {
                EngineSetup::Dense
            };
            let template = net.try_replicate().expect("validated above");
            let granule = spec.granule;
            Sharded {
                pool: ShardPool::threads(spec, template, setup).expect("worker pool spawns"),
                checkpoints: CheckpointManager::new(checkpoint_policy(ckpt_dir))
                    .expect("checkpoint directory inside the build directory is writable"),
                granule,
                epoch_start_rng: [0; 4],
                steps_into_epoch: 0,
                traffic: Traffic::default(),
            }
        });
        BenchLoop {
            net,
            ctx,
            sgd: Sgd::new(w.learning_rate(), MOMENTUM, WEIGHT_DECAY),
            rng: StdRng::seed_from_u64(seed),
            streams: StreamSeeds::new(seed),
            rec,
            sharded,
        }
    }

    /// Optimizer steps taken so far; span step numbers count the same way.
    pub fn steps_taken(&self) -> u64 {
        self.streams.step()
    }

    /// The execution context (its plan, on the `auto` engine).
    pub fn context(&self) -> &ExecutionContext {
        &self.ctx
    }

    pub fn traffic(&self) -> Option<Traffic> {
        self.sharded.as_ref().map(|s| s.traffic)
    }

    pub fn shard_health(&self) -> Option<ShardHealth> {
        self.sharded.as_ref().map(|s| s.pool.health())
    }

    /// One epoch over `data`: the mirror of `Trainer::train_epoch`.
    pub fn epoch(&mut self, data: &Dataset) -> LoopEpoch {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let n = data.len();
        if let Some(sh) = &mut self.sharded {
            sh.epoch_start_rng = self.rng.state();
            sh.steps_into_epoch = 0;
        }
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total_loss = 0.0f64;
        let mut out = LoopEpoch {
            loss: 0.0,
            steps: 0,
            bad_steps: 0,
        };
        for chunk in order.chunks(BATCH) {
            let before = total_loss;
            self.rec.next_step();
            let span = self.rec.open("step", "step");
            if self.sharded.is_some() {
                self.sharded_step(data, chunk, &mut total_loss);
            } else {
                self.step(data, chunk, &mut total_loss);
            }
            self.rec.close(span);
            out.steps += 1;
            if !(total_loss - before).is_finite() {
                out.bad_steps += 1;
            }
        }
        self.streams.advance_epoch();
        if let Some(sh) = &mut self.sharded {
            sh.steps_into_epoch = 0;
        }
        out.loss = total_loss / n as f64;
        out
    }

    fn step(&mut self, data: &Dataset, chunk: &[usize], total_loss: &mut f64) {
        let rec = Arc::clone(&self.rec);
        let (xs, labels) = rec.within("gather", "phase", || {
            let xs = Batch::gather(&data.images, chunk);
            let labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            (xs, labels)
        });
        rec.within("zero_grads", "phase", || self.net.zero_grads());
        let outs = rec.within("forward", "phase", || self.net.forward(xs, &mut self.ctx, true));
        let grads = rec.within("loss", "phase", || {
            let mut grads = Vec::with_capacity(outs.len());
            for (out, &label) in outs.iter().zip(&labels) {
                let logits = out.as_slice();
                let (loss, dlogits) = softmax_cross_entropy(logits, label);
                *total_loss += loss as f64;
                grads.push(Tensor3::from_vec(logits.len(), 1, 1, dlogits));
            }
            grads
        });
        let streams = self.streams.streams();
        rec.within("backward", "phase", || {
            self.net.backward(grads, &mut self.ctx, &streams);
        });
        rec.within("optim", "phase", || {
            self.streams.advance_step();
            self.sgd.step(&mut self.net, 1.0 / chunk.len() as f32);
        });
    }

    fn sharded_step(&mut self, data: &Dataset, chunk: &[usize], total_loss: &mut f64) {
        let rec = Arc::clone(&self.rec);
        let sh = self.sharded.as_mut().expect("sharded workload");
        let granules = rec.within("gather", "phase", || shard::granules_of(data, chunk, sh.granule));
        let input = rec.within("broadcast", "phase", || {
            let mut taus = Vec::new();
            self.net.collect_prune_taus(&mut taus);
            let mut params = Vec::new();
            self.net.visit_params(&mut |p, _| params.extend_from_slice(p));
            StepInput {
                seed: self.streams.seed(),
                epoch: self.streams.epoch(),
                step: self.streams.step(),
                params,
                taus,
                granules,
            }
        });
        let reduced = rec.within("run_step", "phase", || sh.pool.run_step(&input));
        *total_loss += reduced.loss;
        sh.traffic.steps += 1;
        sh.traffic.granules += input.granules.len() as u64;
        sh.traffic.broadcast_bytes += 4 * input.params.len() as u64
            + input
                .taus
                .iter()
                .map(|(name, _)| name.len() as u64 + 9)
                .sum::<u64>()
            + input
                .granules
                .iter()
                .map(|g| {
                    4 * g.images.iter().map(Tensor3::len).sum::<usize>() as u64 + 8 * g.labels.len() as u64
                })
                .sum::<u64>();
        sh.traffic.reduce_bytes += 4 * reduced.grads.len() as u64
            + reduced
                .prune_stats
                .iter()
                .map(|(name, _)| (name.len() + std::mem::size_of::<SiteStats>()) as u64)
                .sum::<u64>();
        rec.within("install", "phase", || {
            self.net.zero_grads();
            let mut offset = 0usize;
            self.net.visit_params(&mut |_, g| {
                g.copy_from_slice(&reduced.grads[offset..offset + g.len()]);
                offset += g.len();
            });
            self.net.absorb_prune_stats(&reduced.prune_stats);
        });
        rec.within("optim", "phase", || {
            self.streams.advance_step();
            self.sgd.step(&mut self.net, 1.0 / chunk.len() as f32);
        });
        sh.steps_into_epoch += 1;
        // What `Trainer::snapshot` assembles; a fixed engine has no plan.
        let snapshot = rec.within("snapshot", "phase", || {
            let mut layers = Vec::new();
            self.net.collect_state(&mut layers);
            Snapshot {
                position: RunPosition {
                    seed: self.streams.seed(),
                    epoch: self.streams.epoch(),
                    step: self.streams.step(),
                    steps_into_epoch: sh.steps_into_epoch,
                },
                shuffle_rng: sh.epoch_start_rng,
                plan: None,
                optimizer: OptimizerState {
                    lr: self.sgd.learning_rate(),
                    velocities: self.sgd.velocities().to_vec(),
                },
                layers,
            }
        });
        rec.within("save", "phase", || {
            sh.checkpoints
                .save(&snapshot)
                .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
        });
    }
}

/// Where, under the temporary root, the sharded loop keeps its snapshots.
pub const LOOP_CKPT: &str = "loop-ckpt";

/// The output check every run makes before timing: the warm-up epoch
/// through the bench-side loop must give the loss bits (and, sharded, the
/// newest snapshot bytes) that `Trainer::train_epoch` gave. Returns the
/// loop, warmed up, for the traced run to go on with.
pub fn warm_up_check(
    w: Workload,
    seed: u64,
    warmed: &Warmed,
    rec: Arc<Recorder>,
    tmp: &TempRoot,
    tally: &mut Tally,
) -> BenchLoop {
    let dir = tmp.sub(LOOP_CKPT);
    let mut bench = BenchLoop::new(w, w.engine(), seed, rec, &dir);
    let epoch = bench.epoch(&warmed.data.warm);
    tally.count(
        epoch.steps,
        epoch.bad_steps,
        "bench-side steps with a non-finite loss",
    );
    tally.check(
        epoch.loss.to_bits() == warmed.warm_loss.to_bits(),
        "bench-side loop does not reproduce Trainer::train_epoch's warm-up loss",
    );
    if w.sharded() {
        tally.check(
            newest_snapshot_bytes(&dir).is_some_and(|b| Some(b) == newest_snapshot_bytes(&warmed.ckpt_dir)),
            "bench-side loop's newest snapshot differs from the trainer's",
        );
    }
    bench
}

pub fn newest_snapshot_bytes(dir: &Path) -> Option<Vec<u8>> {
    let path = sparsetrain_checkpoint::latest_in(dir).ok().flatten()?;
    std::fs::read(path).ok()
}

/// Which kind of layer a top-level child is, told from the names the
/// model zoo gives (the `Layer` trait has no type tag).
pub fn layer_kind(name: &str) -> &'static str {
    let is_block = |n: &str| {
        n.strip_prefix('s')
            .and_then(|rest| rest.split_once('b'))
            .is_some_and(|(stage, block)| {
                !stage.is_empty()
                    && !block.is_empty()
                    && stage.bytes().chain(block.bytes()).all(|c| c.is_ascii_digit())
            })
    };
    if name.contains("relu") {
        "relu"
    } else if name.contains("prune") {
        "prune"
    } else if name.contains("conv") {
        "conv"
    } else if name.contains("bn") {
        "bn"
    } else if name.starts_with("drop") {
        "dropout"
    } else if name.starts_with("fc") {
        "linear"
    } else if name.starts_with("pool") || name == "gap" {
        "pool"
    } else if is_block(name) {
        "residual"
    } else {
        "other"
    }
}

/// Mean time per step of one top-level layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: String,
    pub kind: &'static str,
    pub fwd_ms: f64,
    pub bwd_ms: f64,
}

/// What the spans of the timed steps add up to.
#[derive(Debug, Clone, Default)]
pub struct StepProfile {
    /// Timed steps.
    pub steps: usize,
    /// Duration of each timed step, in ms.
    pub step_ms: Vec<f64>,
    /// Sum of the timed steps' durations, in ms.
    pub total_ms: f64,
    /// Mean ms per step of each phase, by span name.
    pub phase_ms: BTreeMap<String, f64>,
    /// Duration in ms of each span of a phase (`run_step`, `save`), for
    /// percentiles.
    pub phase_samples: BTreeMap<String, Vec<f64>>,
    /// Time inside a step that no phase covers plus time inside the
    /// forward and backward phases that no layer covers, over `total_ms`.
    pub unattributed_share: f64,
    pub layers: Vec<LayerTime>,
}

impl StepProfile {
    /// Reads the spans of steps after `first_step` (the warm-up's last).
    pub fn of(spans: &[Span], first_step: u64) -> StepProfile {
        let own = self_times(spans);
        let mut p = StepProfile::default();
        let mut unattributed_ns = 0u64;
        let mut phase_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut layers: Vec<LayerTime> = Vec::new();
        for (span, own_ns) in spans.iter().zip(own) {
            if span.step <= first_step {
                continue;
            }
            let ms = span.ns() as f64 / 1e6;
            match span.op {
                "step" => {
                    p.step_ms.push(ms);
                    unattributed_ns += own_ns;
                }
                "phase" => {
                    *phase_ns.entry(span.name.clone()).or_default() += span.ns();
                    p.phase_samples.entry(span.name.clone()).or_default().push(ms);
                    if span.name == "forward" || span.name == "backward" {
                        unattributed_ns += own_ns;
                    }
                }
                _ => {
                    let at = layers
                        .iter()
                        .position(|l| l.name == span.name)
                        .unwrap_or_else(|| {
                            layers.push(LayerTime {
                                name: span.name.clone(),
                                kind: layer_kind(&span.name),
                                fwd_ms: 0.0,
                                bwd_ms: 0.0,
                            });
                            layers.len() - 1
                        });
                    if span.op == "forward" {
                        layers[at].fwd_ms += ms;
                    } else {
                        layers[at].bwd_ms += ms;
                    }
                }
            }
        }
        p.steps = p.step_ms.len();
        p.total_ms = p.step_ms.iter().sum();
        let per_step = 1.0 / p.steps.max(1) as f64;
        p.phase_ms = phase_ns
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6 * per_step))
            .collect();
        for layer in &mut layers {
            layer.fwd_ms *= per_step;
            layer.bwd_ms *= per_step;
        }
        p.layers = layers;
        p.unattributed_share = unattributed_ns as f64 / 1e6 / p.total_ms;
        p
    }

    /// Mean ms per step of a phase (0 when the loop has no such phase).
    pub fn phase(&self, name: &str) -> f64 {
        self.phase_ms.get(name).copied().unwrap_or(0.0)
    }

    /// `(forward, backward)` ms per step summed over the layers of a kind,
    /// or `None` when the network has no such layer at its top level.
    pub fn kind_ms(&self, kind: &str) -> Option<(f64, f64)> {
        let mut of_kind = self.layers.iter().filter(|l| l.kind == kind).peekable();
        of_kind.peek()?;
        Some(of_kind.fold((0.0, 0.0), |(f, b), l| (f + l.fwd_ms, b + l.bwd_ms)))
    }

    /// The metrics that come from spans alone (`n` timed steps each).
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            metric("nn.trainer.steps", self.steps as f64, "count"),
            metric("nn.data.gather_us_per_step", self.phase("gather") * 1e3, "us"),
        ];
        if let Some(p50) = median(&self.step_ms) {
            m.push(metric("nn.trainer.step_ms_p50", p50, "ms"));
        }
        if let Some(p90) = tail_percentile(&self.step_ms, 90.0) {
            m.push(metric("nn.trainer.step_ms_p90", p90, "ms"));
        }
        let step_mean = self.total_ms / self.steps.max(1) as f64;
        for phase in ["forward", "backward"] {
            if self.phase_ms.contains_key(phase) {
                let name = format!("nn.trainer.{phase}_share");
                m.push(metric(&name, self.phase(phase) / step_mean, "fraction"));
            }
        }
        m.push(metric(
            "nn.trainer.unattributed_share",
            self.unattributed_share,
            "fraction",
        ));
        if self.phase_ms.contains_key("loss") {
            m.push(metric("nn.loss.us_per_step", self.phase("loss") * 1e3, "us"));
        }
        m.push(metric("nn.optim.step_ms", self.phase("optim"), "ms"));
        for (kind, split) in [
            ("conv", true),
            ("prune", false),
            ("relu", false),
            ("pool", false),
            ("linear", false),
            ("dropout", false),
            ("bn", false),
            ("residual", true),
        ] {
            let Some((fwd, bwd)) = self.kind_ms(kind) else {
                continue;
            };
            if split {
                m.push(metric(&format!("nn.layers.{kind}.fwd_ms"), fwd, "ms"));
                m.push(metric(&format!("nn.layers.{kind}.bwd_ms"), bwd, "ms"));
            } else if kind == "prune" {
                // A prune hook's forward passes the batch through untouched.
                m.push(metric("nn.layers.prune.bwd_ms", bwd, "ms"));
            } else {
                m.push(metric(&format!("nn.layers.{kind}.ms"), fwd + bwd, "ms"));
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{set_up, Sizes};

    #[test]
    fn layer_kinds_follow_the_model_zoo_names() {
        for (name, kind) in [
            ("conv1", "conv"),
            ("stem.conv", "conv"),
            ("prune3", "prune"),
            ("stem.prune", "prune"),
            ("relu_fc1", "relu"),
            ("stem.relu", "relu"),
            ("stem.bn", "bn"),
            ("drop_fc1", "dropout"),
            ("fc", "linear"),
            ("fc2", "linear"),
            ("pool5", "pool"),
            ("gap", "pool"),
            ("s0b1", "residual"),
            ("s12b3", "residual"),
            ("flatten", "other"),
            ("sb", "other"),
            ("s1bx", "other"),
        ] {
            assert_eq!(layer_kind(name), kind, "{name}");
        }
    }

    fn span(
        name: &str,
        op: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        step: u64,
    ) -> Span {
        Span {
            name: name.to_string(),
            op,
            start_ns,
            end_ns,
            parent,
            step,
        }
    }

    #[test]
    fn profile_sums_timed_steps_only() {
        let ms = 1_000_000;
        let spans = vec![
            // Warm-up step: ignored.
            span("step", "step", 0, 50 * ms, None, 1),
            // Timed step 2: 10 ms, of which forward 6 (conv1 4, relu1 1), optim 2.
            span("step", "step", 100 * ms, 110 * ms, None, 2),
            span("forward", "phase", 100 * ms, 106 * ms, Some(1), 2),
            span("conv1", "forward", 100 * ms, 104 * ms, Some(2), 2),
            span("relu1", "forward", 104 * ms, 105 * ms, Some(2), 2),
            span("optim", "phase", 107 * ms, 109 * ms, Some(1), 2),
            // Timed step 3: 20 ms, backward 20 fully covered by conv1.
            span("step", "step", 200 * ms, 220 * ms, None, 3),
            span("backward", "phase", 200 * ms, 220 * ms, Some(6), 3),
            span("conv1", "backward", 200 * ms, 220 * ms, Some(7), 3),
        ];
        let p = StepProfile::of(&spans, 1);
        assert_eq!(p.steps, 2);
        assert_eq!(p.step_ms, [10.0, 20.0]);
        assert_eq!(p.phase("forward"), 3.0);
        assert_eq!(p.phase("optim"), 1.0);
        assert_eq!(p.phase("save"), 0.0);
        // Step 2 leaves 2 ms outside phases, its forward 1 ms outside layers.
        assert_eq!(p.unattributed_share, 3.0 / 30.0);
        assert_eq!(p.kind_ms("conv"), Some((2.0, 10.0)));
        assert_eq!(p.kind_ms("relu"), Some((0.5, 0.0)));
        assert_eq!(p.kind_ms("bn"), None);
        let names: Vec<String> = p.metrics().into_iter().map(|(n, _, _)| n).collect();
        assert!(names.contains(&"nn.layers.conv.bwd_ms".to_string()));
        assert!(names.contains(&"nn.trainer.forward_share".to_string()));
        // Two steps support a median but no p90, and there is no loss phase.
        assert!(names.contains(&"nn.trainer.step_ms_p50".to_string()));
        assert!(!names.contains(&"nn.trainer.step_ms_p90".to_string()));
        assert!(!names.contains(&"nn.loss.us_per_step".to_string()));
    }

    /// The loop's whole reason to exist: it walks the trainer's trajectory.
    #[test]
    fn loop_reproduces_the_trainer_on_every_workload() {
        for w in Workload::ALL {
            let tmp = TempRoot::create().unwrap();
            let mut tally = Tally::default();
            let sizes = Sizes::smoke(w);
            let mut warmed = set_up(w, 3, &sizes, tmp.sub("ckpt"), &mut tally);
            let rec = Arc::new(Recorder::default());
            let mut bench = warm_up_check(w, 3, &warmed, Arc::clone(&rec), &tmp, &mut tally);
            for batch in &warmed.data.timed {
                let trained = warmed.trainer.train_epoch(batch);
                let looped = bench.epoch(batch);
                assert_eq!(looped.loss.to_bits(), trained.loss.to_bits(), "{}", w.name());
            }
            assert_eq!(tally.failures, Vec::<String>::new(), "{}", w.name());
            assert_eq!(bench.steps_taken(), ((sizes.warm + sizes.timed) / BATCH) as u64);
            let profile = StepProfile::of(&rec.spans(), (sizes.warm / BATCH) as u64);
            assert_eq!(profile.steps, sizes.timed / BATCH);
            assert!(profile.kind_ms("conv").is_some(), "{}", w.name());
            assert_eq!(bench.traffic().is_some(), w.sharded());
        }
    }
}
