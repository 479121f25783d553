//! Design-choice ablations of the pruning algorithm (§III):
//!
//! * FIFO depth `N_F` — prediction accuracy vs adaptation lag,
//! * stochastic vs hard (deterministic) pruning — the bias the stochastic
//!   rule removes,
//! * predicted vs exactly-determined thresholds — the cost of the
//!   single-pass constraint,
//! * the achieved density per target pruning rate,
//! * streaming O(n) vs sort-based O(n log n) threshold selection,
//! * the PPU's LFSR pruning stage vs the software pruner.
//!
//! These report their measured quantities via Criterion so a regression in
//! any of them shows up as a timing/aggregate change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::stream::StreamKey;
use rand::SeedableRng;
use sparsetrain_core::prune::{
    determine_threshold, prune_slice, sigma_hat, threshold_from_slice, BatchStream, LayerPruner, PruneConfig,
};
use sparsetrain_sim::prune_unit::PruneUnit;
use sparsetrain_tensor::init::sample_standard_normal;
use std::hint::black_box;

fn batch(rng: &mut StdRng, n: usize, sigma: f32) -> Vec<f32> {
    (0..n).map(|_| sample_standard_normal(rng) * sigma).collect()
}

/// Hard pruning: everything below τ becomes exactly zero (the biased
/// alternative to the paper's stochastic rule).
fn hard_prune(grads: &mut [f32], tau: f64) {
    for g in grads.iter_mut() {
        if (g.abs() as f64) < tau {
            *g = 0.0;
        }
    }
}

fn bench_fifo_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fifo_depth");
    group.sample_size(10);
    for depth in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                // Drifting gradient scale: deeper FIFOs smooth more but lag.
                let mut pruner = LayerPruner::new(PruneConfig::new(0.9, depth));
                let mut rng = StdRng::seed_from_u64(5);
                let key = StreamKey::new(5);
                let mut err = 0.0f64;
                for step in 0..24u64 {
                    let sigma = 0.05 * (1.0 - step as f32 * 0.02);
                    let mut g = batch(&mut rng, 4096, sigma);
                    pruner.prune_batch(&mut g, &BatchStream::contiguous(key.derive(step)));
                    if let (Some(p), Some(d)) = (
                        pruner.stats().last_predicted_tau,
                        pruner.stats().last_determined_tau,
                    ) {
                        err += (p - d).abs() / d.max(1e-12);
                    }
                }
                black_box(err)
            });
        });
    }
    group.finish();
}

fn bench_stochastic_vs_hard(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_prune_rule");
    group.sample_size(10);
    let n = 65_536;
    let tau = 0.08; // aggressive threshold on sigma = 0.05 data

    group.bench_function("stochastic", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        let template = batch(&mut rng, n, 0.05);
        b.iter_batched(
            || template.clone(),
            |mut g| {
                let before: f64 = g.iter().map(|&v| v as f64).sum();
                prune_slice(&mut g, tau, &mut rng);
                let after: f64 = g.iter().map(|&v| v as f64).sum();
                // Bias metric: the stochastic rule keeps this near zero.
                black_box((after - before).abs())
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function("hard", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        let template = batch(&mut rng, n, 0.05);
        b.iter_batched(
            || template.clone(),
            |mut g| {
                hard_prune(&mut g, tau);
                black_box(g)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_predicted_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_threshold_source");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(8);
    let data = batch(&mut rng, 65_536, 0.05);

    group.bench_function("exact_two_pass", |b| {
        // Determination needs a full pass before pruning can start.
        let mut rng = StdRng::seed_from_u64(9);
        b.iter_batched(
            || data.clone(),
            |mut g| {
                let tau = threshold_from_slice(&g, 0.9);
                prune_slice(&mut g, tau, &mut rng);
                black_box(g)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function("predicted_single_pass", |b| {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
        let key = StreamKey::new(10);
        let mut step = 0u64;
        for _ in 0..4 {
            let mut warm = data.clone();
            pruner.prune_batch(&mut warm, &BatchStream::contiguous(key.derive(step)));
            step += 1;
        }
        b.iter_batched(
            || data.clone(),
            |mut g| {
                step += 1;
                pruner.prune_batch(&mut g, &BatchStream::contiguous(key.derive(step)));
                black_box(g)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_density_sweep(c: &mut Criterion) {
    // Not a figure of the paper: the achieved density per target pruning
    // rate p.
    let mut group = c.benchmark_group("ablation_density_sweep");
    group.sample_size(10);
    for p in [0.5f64, 0.7, 0.9, 0.99] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let mut pruner = LayerPruner::new(PruneConfig::new(p, 4));
                let mut rng = StdRng::seed_from_u64(11);
                let key = StreamKey::new(11);
                let mut density = 0.0;
                for step in 0..6u64 {
                    let mut g = batch(&mut rng, 8192, 0.05);
                    pruner.prune_batch(&mut g, &BatchStream::contiguous(key.derive(step)));
                    density = pruner.stats().last_density().unwrap_or(1.0);
                }
                black_box(density)
            });
        });
    }
    group.finish();
}

/// The naive alternative: sort |g| and read the p-quantile threshold.
fn sort_based_threshold(grads: &[f32], p: f64) -> f64 {
    let mut mags: Vec<f32> = grads.iter().map(|g| g.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((mags.len() as f64 * p) as usize).min(mags.len() - 1);
    mags[idx] as f64
}

/// §III-B's complexity claim: the paper's O(n) single-pass threshold vs
/// the O(n log n) sort-based selection it replaces.
fn bench_streaming_vs_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_selection");
    group.sample_size(15);
    for n in [16_384usize, 65_536, 262_144] {
        let grads = batch(&mut StdRng::seed_from_u64(7), n, 0.05);
        group.bench_with_input(BenchmarkId::new("streaming_o_n", n), &grads, |b, g| {
            b.iter(|| {
                // One pass: Σ|g| + analytic quantile (the paper's method).
                let abs_sum: f64 = g.iter().map(|&v| (v as f64).abs()).sum();
                let sigma = sigma_hat(abs_sum, g.len());
                black_box(determine_threshold(sigma, 0.9))
            });
        });
        group.bench_with_input(BenchmarkId::new("sort_o_nlogn", n), &grads, |b, g| {
            b.iter(|| black_box(sort_based_threshold(g, 0.9)));
        });
    }
    group.finish();
}

/// The PPU's in-stream hardware pruning stage (LFSR lanes) vs the
/// software pruner on the same batch: the hardware model must not be
/// slower at simulation time, and its one-value-per-cycle structure is
/// what the machine's zero-overhead accounting rests on.
fn bench_hardware_prune_unit(c: &mut Criterion) {
    let mut group = c.benchmark_group("hardware_prune");
    group.sample_size(20);
    let grads = batch(&mut StdRng::seed_from_u64(11), 65_536, 0.05);
    group.bench_function("ppu_lfsr_stream", |b| {
        b.iter(|| {
            let mut unit = PruneUnit::new(0xACE1);
            unit.set_threshold(0.08);
            let mut sink = 0.0f32;
            for &g in black_box(&grads) {
                sink += unit.process_one(g);
            }
            sink
        })
    });
    group.bench_function("software_prune_slice", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut batch = grads.clone();
            prune_slice(black_box(&mut batch), 0.08, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fifo_depth,
    bench_stochastic_vs_hard,
    bench_predicted_vs_exact,
    bench_density_sweep,
    bench_streaming_vs_sort,
    bench_hardware_prune_unit
);
criterion_main!(benches);
