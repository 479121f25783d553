//! Registered kernel engines on AlexNet-shape layer workloads.
//!
//! Each bench executes one full layer stage (Forward / GTA / GTW) through
//! the engine seam — the same zero-allocation accumulate-into-scratch hot
//! path `Conv2d` and the dataflow executor use — plus a batched-vs-
//! per-sample comparison of the batch entry points on an AlexNet-shape
//! mini-batch. Labels carry the engine name, so the JSON lines in
//! `target/bench-results.jsonl` (see the criterion shim) give a
//! machine-readable cross-engine trajectory.
//!
//! The engine set is registry-driven: every distinct registered engine
//! runs once by default (an alias such as `parallel:simd` is the engine
//! its target already benched, so it is skipped), and setting
//! `SPARSETRAIN_ENGINE=<name>` restricts the run to that single backend
//! (`scalar`, `simd`, `fixed`, …).
//!
//! Every engine's `run_batch` bands work across `samples × filters`; the
//! win scales with hardware threads and batch size, and on 1 core it is
//! one band (parity). No committed number shows a multi-core win yet; the
//! place to measure one is `stbench`'s `resnet_pruned_mt` workload, not a
//! ratio of these legs on a shared runner. The simd engine's win is
//! lane-level — it walks the non-zeros with its lanes across the filter /
//! channel axis — and shows up even on one core at every density and row
//! width below. With every alias skipped that is three engines: `scalar`,
//! `simd` and `fixed`. The `engine_end_to_end` group runs all three stages
//! of each layer through the per-layer `ExecutionContext` entry points the
//! training step uses. The `pruning` group covers the stochastic pruning
//! stage: the one pass on 1 band vs on pool-sized bands, across batch sizes
//! and input densities, with the rayon worker count in the label. The `fork_join`
//! group is the measurement the banding threshold
//! (`engine::MIN_OPS_PER_BAND`) is derived from: the round trip of a
//! two-task `rayon::scope` at four gaps between calls. The `compress`
//! group is the glue around the kernels: compressing a batch of dense
//! maps and taking their masks.
//!
//! CI runs this bench as a smoke and uploads the resulting
//! `target/bench-results.jsonl`; it gates on no ratio from it (`stbench
//! compare` is the perf gate).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::stream::StreamKey;
use rand::{Rng, SeedableRng};
use sparsetrain_bench::fixtures::{fixture, fixture_seeded, LayerFixture, LAYERS};
use sparsetrain_core::prune::pruner::prune_pass_in_bands;
use sparsetrain_core::prune::{prune_pass, BatchStream, LayerPruner, PruneConfig, SiteStats};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{registry, BatchOut, EngineHandle, ExecutionContext, Stage, StageOp};
use sparsetrain_tensor::Tensor3;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Batched comparison shape: one AlexNet conv3-like layer over a
/// mini-batch.
const BATCH: usize = 8;

/// The engines under test: the `SPARSETRAIN_ENGINE` override alone when
/// set, otherwise every registered engine once — a handle whose engine an
/// earlier one already names (an alias) is skipped.
fn engines() -> Vec<EngineHandle> {
    let only = registry::env_override().expect("SPARSETRAIN_ENGINE must name a registered engine");
    let mut distinct: Vec<EngineHandle> = Vec::new();
    for handle in only.map_or_else(|| registry::registry().to_vec(), |handle| vec![handle]) {
        if !distinct.iter().any(|seen| seen.same_engine(handle)) {
            distinct.push(handle);
        }
    }
    distinct
}

/// One full layer stage per bench — `engine_forward`, `engine_input_grad`,
/// `engine_weight_grad` — on every layer, per engine.
fn bench_stages(c: &mut Criterion) {
    println!("hardware threads: {}", rayon::current_num_threads());
    for stage in Stage::ALL {
        let mut group = c.benchmark_group(format!("engine_{}", stage.name()));
        group.sample_size(10);
        for (name, ci, fi, hw, din, dout) in LAYERS {
            let fx = fixture(ci, fi, hw, din, dout);
            for handle in engines() {
                group.bench_with_input(BenchmarkId::new(handle.name(), name), &fx, |b, fx| {
                    let op = fx.op(stage);
                    b.iter(|| black_box(op.run_on(handle.engine())));
                });
            }
        }
        group.finish();
    }
}

/// Batched vs per-sample execution of one AlexNet-shape layer over a
/// mini-batch, per engine: the batched entry points amortize dispatch and
/// band across `samples × filters` instead of filters alone.
fn bench_batched_vs_per_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_forward_batched");
    group.sample_size(10);
    // Selected by name, not position: this trajectory series has used
    // the conv3 shape since the batched entry points landed — prepending
    // layers must not silently move it.
    let (name, ci, fi, hw, din, dout) = *LAYERS
        .iter()
        .find(|l| l.0 == "conv3_128x192x8")
        .expect("conv3 layer present");
    let fxs: Vec<LayerFixture> = (0..BATCH)
        .map(|s| fixture_seeded(ci, fi, hw, din, dout, 42 + s as u64))
        .collect();
    // One layer, so every sample runs under the first fixture's weights.
    let (weights, bias, geom) = (&fxs[0].weights, Some(fxs[0].bias.as_slice()), fxs[0].geom);
    let ops: Vec<StageOp<'_>> = fxs
        .iter()
        .map(|fx| StageOp::Forward {
            input: &fx.input,
            weights,
            bias,
            geom,
        })
        .collect();
    for handle in engines() {
        let engine = handle.engine();
        group.bench_function(
            BenchmarkId::new(format!("{}/per_sample", handle.name()), name),
            |b| {
                b.iter(|| {
                    for op in &ops {
                        black_box(op.run_on(engine));
                    }
                });
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("{}/batched", handle.name()), name),
            |b| {
                b.iter(|| {
                    let mut outs: Vec<Vec<f32>> = ops.iter().map(|op| vec![0.0; op.out_len()]).collect();
                    engine.run_batch(
                        &ops,
                        BatchOut::PerSample(outs.iter_mut().map(Vec::as_mut_slice).collect()),
                        None,
                    );
                    black_box(outs)
                });
            },
        );
    }
    group.finish();
}

/// One full training step (Forward + GTA + GTW) of each AlexNet-shape
/// layer through the per-layer `ExecutionContext` entry points, per
/// engine: the three stages as `Conv2d` dispatches them.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_end_to_end");
    group.sample_size(10);
    for (name, ci, fi, hw, din, dout) in LAYERS {
        let fx = fixture(ci, fi, hw, din, dout);
        for handle in engines() {
            group.bench_with_input(BenchmarkId::new(handle.name(), name), &fx, |b, fx| {
                let mut ctx = ExecutionContext::new(handle);
                b.iter(|| black_box(fx.train_step(&mut ctx, name)));
            });
        }
    }
    group.finish();
}

/// Stochastic pruning throughput: the one pass with its snap/zero sweep on
/// 1 band vs on the band count `prune_pass` sizes from the rayon pool,
/// across batch sizes and input densities. Labels carry the rayon worker
/// count so the CI matrix legs (`RAYON_NUM_THREADS` ∈ {1, 4}) land as
/// distinct series in the `target/bench-results.jsonl` trajectory; the gap
/// between the `1band` and `pool` legs is the batch-parallel prune win
/// (none on one worker, where both legs run the same single band). The
/// pruner's work follows the non-zeros, so the input density is an axis:
/// the two values are what `stbench` reads as `core.prune.density_in` on
/// AlexNet (ReLU-masked gradients, 0.17) and on ResNet (dense until
/// pruned, 1.0).
fn bench_pruning(c: &mut Criterion) {
    const ELEMENTS: usize = 4096; // one sample's activation-gradient tensor
    let threads = rayon::current_num_threads();
    let mut group = c.benchmark_group("pruning");
    group.sample_size(10);
    for (batch, density) in [8usize, 32, 128]
        .into_iter()
        .flat_map(|b| [(b, 0.17f64), (b, 1.0)])
    {
        let mut rng = StdRng::seed_from_u64(0x5EED + batch as u64);
        // Gradient-like data: a `density` share of non-zeros, ~90 % of the
        // magnitudes under the threshold the warmed pruner predicts.
        let mut element = || match rng.gen::<f64>() < density {
            true => (rng.gen::<f32>() - 0.5) * 0.02,
            false => 0.0,
        };
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..ELEMENTS).map(|_| element()).collect())
            .collect();
        let stream = BatchStream::per_sample(StreamKey::new(0xBE7C).derive(batch as u64));
        let tau = {
            let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 1));
            let mut data = samples.clone();
            let mut parts: Vec<&mut [f32]> = data.iter_mut().map(|v| v.as_mut_slice()).collect();
            pruner.prune_batch_parts(&mut parts, &stream);
            pruner.predicted_threshold()
        };
        assert!(tau.is_some(), "a cold pruner passes through and draws nothing");
        let case = format!("b{batch}/d{density}");
        let mut leg = |label: &str, pass: &dyn Fn(&mut [&mut [f32]]) -> SiteStats| {
            group.bench_function(BenchmarkId::new(format!("{label}/t{threads}"), &case), |b| {
                b.iter_batched(
                    || samples.clone(),
                    |mut data| {
                        let mut parts: Vec<&mut [f32]> = data.iter_mut().map(|v| v.as_mut_slice()).collect();
                        black_box(pass(&mut parts));
                    },
                    BatchSize::LargeInput,
                );
            });
        };
        leg("1band", &|parts| prune_pass_in_bands(tau, parts, &stream, 1));
        leg("pool", &|parts| prune_pass(tau, parts, &stream));
    }
    group.finish();
}

/// The fork-join round trip `engine::MIN_OPS_PER_BAND` is derived from:
/// two 100 µs tasks through `rayon::scope` the way `for_each_band` deals
/// two bands (one spawned, one on the caller), so 100 µs is the ideal and
/// the rest is overhead. The caller stays busy for 0 / 300 / 1 000 µs
/// between calls — the sequential work between two fan-outs of a training
/// step — or for 10 ms, longer than the pool's workers keep polling: the
/// last leg is what a call pays to wake a parked worker. Besides the mean
/// the harness records, prints the round-trip quartiles and how many
/// spawned jobs ended up on the owner (nobody picked them up before it was
/// done with its own).
fn bench_fork_join(c: &mut Criterion) {
    const TASK: Duration = Duration::from_micros(100);
    let busy = |d: Duration| {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    };
    let threads = rayon::current_num_threads();
    let mut group = c.benchmark_group("fork_join");
    group.sample_size(20);
    for gap_us in [0u64, 300, 1000, 10_000] {
        let trips = RefCell::new(Vec::new());
        let on_owner = AtomicUsize::new(0);
        let id = BenchmarkId::new(format!("2x100us/t{threads}"), format!("gap{gap_us}us"));
        group.bench_function(id, |b| {
            b.iter_batched(
                || busy(Duration::from_micros(gap_us)),
                |()| {
                    let owner = std::thread::current().id();
                    let start = Instant::now();
                    rayon::scope(|s| {
                        s.spawn(|_| {
                            if std::thread::current().id() == owner {
                                on_owner.fetch_add(1, Ordering::Relaxed);
                            }
                            busy(TASK);
                        });
                        busy(TASK);
                    });
                    trips.borrow_mut().push(start.elapsed());
                },
                BatchSize::PerIteration,
            );
        });
        let mut trips = trips.into_inner();
        if trips.is_empty() {
            continue; // filtered out
        }
        trips.sort();
        let at = |q: usize| trips[(trips.len() - 1) * q / 100].as_secs_f64() * 1e6;
        println!(
            "fork_join gap {gap_us:>5} µs: round trip p25 / p50 / p90 = {:.0} / {:.0} / {:.0} µs over {} trips, \
             {} spawned jobs ran on the owner",
            at(25),
            at(50),
            at(90),
            trips.len(),
            on_owner.into_inner(),
        );
    }
    group.finish();
}

/// What `Conv2d` does to a batch before and after its kernels: compress
/// 16 dense maps (`SparseFeatureMap::from_tensor`) and take their forward
/// masks, at a map of AlexNet w=16 (`conv2`'s input, 16 × 16 rows of 16)
/// and of ResNet w=8 (stage 2, 16 × 8 rows of 8), as activations (density
/// 0.66) and as pruned gradients (0.05). Besides the mean the harness
/// records, prints the per-batch quartiles.
fn bench_compress(c: &mut Criterion) {
    const BATCH: usize = 16;
    let mut group = c.benchmark_group("compress");
    group.sample_size(20);
    for (net, (ch, hw)) in [("alexnet_w16", (16, 16)), ("resnet_w8", (16, 8))] {
        for (kind, density) in [("act", 0.66), ("grad", 0.05)] {
            let mut rng = StdRng::seed_from_u64(0xC0DE);
            let maps: Vec<Tensor3> = (0..BATCH)
                .map(|_| {
                    Tensor3::from_fn(ch, hw, hw, |_, _, _| match rng.gen::<f64>() < density {
                        true => rng.gen::<f32>() - 0.5,
                        false => 0.0,
                    })
                })
                .collect();
            let batches = RefCell::new(Vec::new());
            group.bench_function(BenchmarkId::new(net, kind), |b| {
                b.iter(|| {
                    let start = Instant::now();
                    for t in &maps {
                        let fm = SparseFeatureMap::from_tensor(black_box(t));
                        black_box(fm.masks());
                        black_box(fm);
                    }
                    batches.borrow_mut().push(start.elapsed());
                });
            });
            let mut batches = batches.into_inner();
            if batches.is_empty() {
                continue; // filtered out
            }
            batches.sort();
            let at = |q: usize| batches[(batches.len() - 1) * q / 100].as_secs_f64() * 1e6;
            println!(
                "compress {net} {kind} (d {density}): from_tensor + masks of {BATCH} maps, \
                 p25 / p50 / p90 = {:.1} / {:.1} / {:.1} µs per batch over {} batches",
                at(25),
                at(50),
                at(90),
                batches.len(),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stages,
    bench_batched_vs_per_sample,
    bench_end_to_end,
    bench_pruning,
    bench_fork_join,
    bench_compress
);
criterion_main!(benches);
