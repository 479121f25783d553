//! The traced run of one workload: spans from the bench-side loop, kernel
//! and pruner attribution by replay, simulator figures for the same step,
//! and the per-layer metrics those add up to.

use crate::json::Json;
use crate::replay::{median_ns, replay, replay_prune, ENGINES};
use crate::span::{write_jsonl, Recorder};
use crate::spec::{Workload, BATCH};
use crate::stats::{median, tail_percentile};
use crate::traced::{newest_snapshot_bytes, warm_up_check, BenchLoop, StepProfile, LOOP_CKPT};
use crate::workload::{
    build_net, capture_and_simulate, metric, set_up, train_config, Metric, Sizes, Tally, TempRoot, WORKERS,
};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::data::Dataset;
use sparsetrain_nn::layer::Layer;
use sparsetrain_nn::train::Trainer;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The traced run's metrics and the tables behind them.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// `layers`, `cells` and (with extras) `legs` tables for the trace
    /// document.
    pub tables: Vec<(String, Json)>,
}

/// The first `steps` batches joined into one dataset.
fn prefix(batches: &[Dataset], steps: usize) -> Dataset {
    let mut joined = Dataset {
        images: Vec::new(),
        labels: Vec::new(),
        num_classes: batches[0].num_classes,
    };
    for batch in batches.iter().take(steps) {
        joined.images.extend_from_slice(&batch.images);
        joined.labels.extend_from_slice(&batch.labels);
    }
    joined
}

/// One comparison leg: the workload's network from scratch on another
/// engine (`None`: default dense execution), step times from spans.
struct Leg {
    engine: &'static str,
    step_ms: Vec<f64>,
    /// `(layer, stage, engine)` cells of the frozen plan (`auto` only).
    plan: Vec<(String, &'static str, &'static str)>,
}

impl Leg {
    fn run(w: Workload, engine: Option<&'static str>, seed: u64, data: &Dataset, tmp: &TempRoot) -> Leg {
        let rec = Arc::new(Recorder::default());
        let mut bench = BenchLoop::new(w, engine, seed, Arc::clone(&rec), &tmp.sub("leg-ckpt"));
        bench.epoch(data);
        let plan = bench.context().plan().map_or(Vec::new(), |plan| {
            plan.cells()
                .map(|(layer, stage, handle)| (layer.to_string(), stage.name(), handle.name()))
                .collect()
        });
        Leg {
            engine: engine.unwrap_or("default"),
            step_ms: StepProfile::of(&rec.spans(), 0).step_ms,
            plan,
        }
    }

    /// Median step time after the first step (which probes, on `auto`).
    fn p50(&self) -> f64 {
        let later = self.step_ms.get(1..).filter(|s| !s.is_empty());
        median(later.unwrap_or(&self.step_ms)).unwrap_or(f64::NAN)
    }

    fn json(&self) -> Json {
        Json::obj([
            ("engine", Json::str(self.engine)),
            ("steps", Json::Num(self.step_ms.len() as f64)),
            (
                "first_step_ms",
                Json::Num(self.step_ms.first().copied().unwrap_or(f64::NAN)),
            ),
            ("step_ms_p50", Json::Num(self.p50())),
        ])
    }
}

/// The planner diagnostics: what probing costs, how `auto` compares with
/// the best fixed engine, and how many cells two independent probes of
/// the same run decide differently.
fn planner_legs(w: Workload, seed: u64, data: &Dataset, tmp: &TempRoot, m: &mut Vec<Metric>) -> Vec<Leg> {
    let mut legs = vec![
        Leg::run(w, Some("auto"), seed, data, tmp),
        Leg::run(w, Some("auto"), seed, data, tmp),
    ];
    for fixed in ["scalar", "simd", "im2row"] {
        legs.push(Leg::run(w, Some(fixed), seed, data, tmp));
    }
    legs.push(Leg::run(w, None, seed, data, tmp));
    let auto = &legs[0];
    let changed = auto
        .plan
        .iter()
        .filter(|cell| !legs[1].plan.contains(cell))
        .count();
    let best_fixed = legs[2..5].iter().map(Leg::p50).fold(f64::INFINITY, f64::min);
    m.push(metric(
        "sparse.planner.probe_ms",
        auto.step_ms.first().copied().unwrap_or(f64::NAN) - auto.p50(),
        "ms",
    ));
    m.push(metric("sparse.planner.auto_step_ms_p50", auto.p50(), "ms"));
    m.push(metric(
        "sparse.planner.auto_over_best_fixed",
        auto.p50() / best_fixed,
        "ratio",
    ));
    m.push(metric("sparse.planner.cells", auto.plan.len() as f64, "count"));
    m.push(metric(
        "sparse.planner.plan_cells_changed",
        changed as f64,
        "count",
    ));
    legs
}

/// Wall time of one untraced epoch of the sharded workload's trainer,
/// from scratch, on `workers` workers.
fn shard_epoch_wall(w: Workload, seed: u64, workers: usize, data: &Dataset, tmp: &TempRoot) -> f64 {
    let config = train_config(w, seed, &tmp.sub(&format!("workers{workers}"))).with_workers(workers);
    let mut trainer = Trainer::new(build_net(w, seed), config);
    let started = Instant::now();
    trainer.train_epoch(data);
    started.elapsed().as_secs_f64()
}

/// Runs the traced measurement of `w`. With `extras`, also the comparison
/// legs that take long (planner probes, other engines, one shard worker).
pub fn run_traced(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    extras: bool,
    tmp: &TempRoot,
    tally: &mut Tally,
    spans_out: Option<&Path>,
) -> io::Result<Traced> {
    let mut m = Vec::new();
    let mut tables = Vec::new();

    // Two walkers from one seed: the trainer (untraced reference) and the
    // bench-side loop (traced). Both warm up, then train the timed epoch.
    let mut a = set_up(w, seed, sizes, tmp.sub("ckpt"), tally);
    m.push(metric(
        "nn.data.generate_ms",
        a.data.generate.as_secs_f64() * 1e3,
        "ms",
    ));
    let rec = Arc::new(Recorder::default());
    let mut bench = warm_up_check(w, seed, &a, Arc::clone(&rec), tmp, tally);
    let warm_steps = bench.steps_taken();

    // The two take turns batch by batch, so that a slow spell of the
    // machine falls on both and the step times compare in pairs.
    let mut untraced_ms = Vec::with_capacity(a.data.timed.len());
    let mut loss = 0.0;
    let (mut bad_steps, mut differing) = (0, 0);
    for batch in &a.data.timed {
        let started = Instant::now();
        let trained = a.trainer.train_epoch(batch);
        untraced_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let looped = bench.epoch(batch);
        loss += trained.loss;
        bad_steps += looped.bad_steps;
        differing += u64::from(looped.loss.to_bits() != trained.loss.to_bits());
    }
    let steps = a.data.timed.len() as u64;
    let loss = loss / steps.max(1) as f64;
    tally.count(steps, bad_steps, "traced steps with a non-finite loss");
    tally.count(
        steps,
        differing,
        "traced steps whose loss differs from Trainer::train_epoch's",
    );
    if w.sharded() {
        tally.check(
            newest_snapshot_bytes(&tmp.sub(LOOP_CKPT))
                .is_some_and(|b| Some(b) == newest_snapshot_bytes(&a.ckpt_dir)),
            "traced run's newest snapshot differs from the trainer's",
        );
    }

    let spans = rec.spans();
    if let Some(path) = spans_out {
        // Appended: `stbench trace` collects every workload in one file.
        let mut out = BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?);
        write_jsonl(w.name(), &spans, &mut out)?;
        out.flush()?;
    }
    let profile = StepProfile::of(&spans, warm_steps);
    m.extend(profile.metrics());
    // Median of the paired ratios: each traced step against the untraced
    // step on the same batch, taken a moment earlier.
    let ratios: Vec<f64> = profile
        .step_ms
        .iter()
        .zip(&untraced_ms)
        .map(|(traced, untraced)| traced / untraced)
        .collect();
    if let Some(ratio) = median(&ratios) {
        m.push(metric("nn.trainer.trace_overhead_share", ratio - 1.0, "fraction"));
    }
    m.push(metric("epoch_loss", loss, "nats"));
    if let Some(density) = a.trainer.mean_grad_density() {
        m.push(metric("grad_density", density, "fraction"));
    }

    // Steps after the timed phase, captured and simulated; the first one is
    // replayed cell by cell.
    let sim = capture_and_simulate(w, &mut a.trainer, &a.data.timed);
    m.push(metric(
        "core.dataflow.capture_ms",
        sim.capture.as_secs_f64() * 1e3,
        "ms",
    ));
    m.push(metric("sim_speedup", sim.speedup, "x"));
    m.push(metric("sim_energy_eff", sim.energy_eff, "x"));
    let trace = sim.trace;
    let mut params = Vec::new();
    a.trainer.network().collect_state(&mut params);
    let own = w.engine().map(|name| {
        ENGINES
            .iter()
            .position(|(_, registry_name)| *registry_name == name)
            .expect("every workload engine is a replay engine")
    });
    let rep = replay(&trace, &params, own, sizes.replay_calls);
    m.extend(rep.metrics.iter().cloned());

    // Conv2d span minus the kernel time inside it: compress, densify,
    // allocation. Spans cover the batch, a replayed cell one sample.
    let per_batch_ms = |keep: &dyn Fn(&str) -> bool| BATCH as f64 * rep.own_ns(own, keep) / 1e6;
    if let Some((fwd, bwd)) = profile.kind_ms("conv") {
        let top_level = |name: &str| profile.layers.iter().any(|l| l.kind == "conv" && l.name == name);
        m.push(metric(
            "sparse.engine.conv_glue_share",
            (fwd + bwd - per_batch_ms(&top_level)) / (fwd + bwd),
            "fraction",
        ));
    }

    let mut prune_site_ns = Vec::new();
    if w.pruned() {
        let tapped = a.trainer.tap_gradients(&a.data.timed[0]);
        let pruned = replay_prune(&tapped, PruneConfig::new(0.9, 4), sizes.replay_calls);
        m.extend(pruned.metrics);
        prune_site_ns = pruned.site_ns;
    }

    // Residual block span minus replayed kernel and pruner time inside the
    // blocks: BatchNorm, ReLU, the add and the glue.
    if let Some((fwd, bwd)) = profile.kind_ms("residual") {
        let in_block = |name: &str| {
            profile.layers.iter().any(|l| {
                l.kind == "residual"
                    && name
                        .strip_prefix(l.name.as_str())
                        .is_some_and(|r| r.starts_with('.'))
            })
        };
        let prune_ms: f64 = prune_site_ns
            .iter()
            .filter(|(site, _)| in_block(site))
            .map(|(_, ns)| ns / 1e6)
            .sum();
        m.push(metric(
            "nn.layers.residual.non_kernel_share",
            (fwd + bwd - per_batch_ms(&in_block) - prune_ms) / (fwd + bwd),
            "fraction",
        ));
    }

    if w.sharded() {
        let samples = |phase: &str| profile.phase_samples.get(phase).cloned().unwrap_or_default();
        let run_step = samples("run_step");
        if let Some(p50) = median(&run_step) {
            m.push(metric("nn.shard.run_step_ms_p50", p50, "ms"));
        }
        if let Some(p90) = tail_percentile(&run_step, 90.0) {
            m.push(metric("nn.shard.run_step_ms_p90", p90, "ms"));
        }
        let traffic = bench.traffic().expect("sharded loop counts its traffic");
        let per_step = 1.0 / traffic.steps.max(1) as f64;
        m.push(metric(
            "nn.shard.broadcast_bytes_per_step",
            traffic.broadcast_bytes as f64 * per_step,
            "bytes",
        ));
        m.push(metric(
            "nn.shard.reduce_bytes_per_step",
            traffic.reduce_bytes as f64 * per_step,
            "bytes",
        ));
        m.push(metric(
            "nn.shard.granules_per_step",
            traffic.granules as f64 * per_step,
            "count",
        ));
        m.push(metric("nn.shard.install_ms", profile.phase("install"), "ms"));
        let health = bench.shard_health().unwrap_or_default();
        tally.count(
            bench.steps_taken(),
            health.retries as u64,
            "shard granules retried",
        );
        m.push(metric("nn.shard.retries", health.retries as f64, "count"));
        m.push(metric("nn.shard.respawns", health.respawns as f64, "count"));

        m.push(metric("checkpoint.snapshot_ms", profile.phase("snapshot"), "ms"));
        let save = samples("save");
        if let Some(p50) = median(&save) {
            m.push(metric("checkpoint.save_ms_p50", p50, "ms"));
        }
        if let Some(p90) = tail_percentile(&save, 90.0) {
            m.push(metric("checkpoint.save_ms_p90", p90, "ms"));
        }
        let step_mean = profile.total_ms / profile.steps.max(1) as f64;
        m.push(metric(
            "checkpoint.stall_share",
            (profile.phase("snapshot") + profile.phase("save")) / step_mean,
            "fraction",
        ));
        let snapshot = a.trainer.snapshot();
        let mut bytes = 0usize;
        let encode_ns = median_ns(sizes.replay_calls, || {
            let t = Instant::now();
            bytes = snapshot.encode().map_or(0, |b| b.len());
            t.elapsed()
        });
        tally.check(bytes > 0, "snapshot does not encode");
        m.push(metric("checkpoint.encode_ms", encode_ns / 1e6, "ms"));
        m.push(metric("checkpoint.bytes", bytes as f64, "bytes"));
        if let Ok(Some(newest)) = sparsetrain_checkpoint::latest_in(&a.ckpt_dir) {
            let mut loaded = true;
            let load_ns = median_ns(sizes.replay_calls, || {
                let t = Instant::now();
                loaded &= sparsetrain_checkpoint::load(&newest).is_ok();
                t.elapsed()
            });
            tally.check(loaded, "newest snapshot does not load");
            m.push(metric("checkpoint.load_ms", load_ns / 1e6, "ms"));
        }
    }

    if extras {
        let mut legs = Vec::new();
        let leg_data = prefix(&a.data.timed, sizes.leg_steps);
        match w {
            Workload::AlexnetPruned => legs = planner_legs(w, seed, &leg_data, tmp, &mut m),
            // Pruned training on the default dense execution against the
            // same net on the sparse engine: a measurement the README cites.
            Workload::ResnetPrunedMt => {
                legs.push(Leg::run(w, w.engine(), seed, &leg_data, tmp));
                legs.push(Leg::run(w, Some("simd"), seed, &leg_data, tmp));
                legs.push(Leg::run(w, None, seed, &leg_data, tmp));
            }
            Workload::ResnetDenseRef => {}
            Workload::OpsShardCkpt => {
                let data = prefix(&a.data.timed, 5 * sizes.leg_steps);
                let one = shard_epoch_wall(w, seed, 1, &data, tmp);
                let many = shard_epoch_wall(w, seed, WORKERS, &data, tmp);
                m.push(metric("nn.shard.speedup_vs_1worker", one / many, "x"));
            }
        }
        tables.push((
            "legs".to_string(),
            Json::Arr(legs.iter().map(Leg::json).collect()),
        ));
    }

    tables.push((
        "layers".to_string(),
        Json::Arr(
            profile
                .layers
                .iter()
                .map(|l| {
                    Json::obj([
                        ("name", Json::str(l.name.as_str())),
                        ("kind", Json::str(l.kind)),
                        ("fwd_ms", Json::Num(l.fwd_ms)),
                        ("bwd_ms", Json::Num(l.bwd_ms)),
                    ])
                })
                .collect(),
        ),
    ));
    tables.push((
        "phases".to_string(),
        Json::Obj(
            profile
                .phase_ms
                .iter()
                .map(|(name, ms)| (name.clone(), Json::Num(*ms)))
                .collect(),
        ),
    ));
    tables.push(("cells".to_string(), rep.cells_json()));
    Ok(Traced { metrics: m, tables })
}
