//! Determinism properties of stream-keyed stochastic pruning.
//!
//! These tests pin the contract that makes batch-parallel pruning safe:
//! Algorithm 1's stochastic keep/snap decisions are a pure function of
//! each element's `(stream key, position)` coordinates, so the pruned
//! gradients are bitwise-identical
//!
//! * across band counts of the snap/zero sweep (1 / 2 / 3 / 4 / 7 bands,
//!   and the pool-sized count `prune_pass` picks itself),
//! * across the split points of a contiguous batch
//!   (`prune_batch_parts` over any partition == the whole-slice prune),
//!
//! while the stochastic rule itself still matches the paper's expected
//! keep/snap rates (`E[ĝ] = g`, `P[snap] = |g|/τ`).

use proptest::prelude::*;
use rand::stream::StreamKey;
use sparsetrain_core::prune::pruner::prune_pass_in_bands;
use sparsetrain_core::prune::{
    prune_pass, prune_slice_at, BatchStream, LayerPruner, PruneConfig, PruneOutcome,
};

/// Sparse-ish gradient values spanning the keep/snap/zero regimes for the
/// thresholds the tests use.
fn arb_grads(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            2u32 => Just(0.0f32),
            5u32 => (-0.02f32..0.02).prop_filter("non-zero", |v| *v != 0.0),
            3u32 => (-1.0f32..1.0).prop_filter("large", |v| v.abs() >= 0.05),
        ],
        1..=max_len,
    )
}

/// A batch of same-shape per-sample gradient tensors.
fn arb_batch() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..=6, 1usize..=400, 0u64..1000).prop_map(|(samples, len, seed)| {
        let key = StreamKey::new(seed).derive(0xDA7A);
        (0..samples)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        let w = key.derive(s as u64).word_at(i as u64);
                        match w % 10 {
                            0 | 1 => 0.0,
                            2..=7 => ((w >> 8) % 2000) as f32 * 2e-5 - 0.02,
                            _ => ((w >> 8) % 2000) as f32 * 1e-3 - 1.0,
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

/// Warms a fresh pruner on `warm` (so the next batch is actually pruned)
/// and returns it.
fn warmed(p: f64, warm: &[f32]) -> LayerPruner {
    let mut pruner = LayerPruner::new(PruneConfig::new(p, 1));
    let mut batch = warm.to_vec();
    pruner.prune_batch(&mut batch, &BatchStream::contiguous(StreamKey::new(99).derive(0)));
    pruner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `prune_batch_parts` over ANY partition of a contiguous gradient
    /// vector is bitwise-identical to the whole-slice prune — outcome
    /// counts included.
    #[test]
    fn partition_invariance(
        grads in arb_grads(600),
        warm in arb_grads(600),
        cut_a in 0usize..600,
        cut_b in 0usize..600,
    ) {
        let stream = BatchStream::contiguous(StreamKey::new(7).derive(1));
        let mut whole = grads.clone();
        let want = warmed(0.9, &warm).prune_batch(&mut whole, &stream);

        let n = grads.len();
        let (a, b) = (cut_a.min(n), cut_b.min(n));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut split = grads.clone();
        let (head, rest) = split.split_at_mut(lo);
        let (mid, tail) = rest.split_at_mut(hi - lo);
        let mut parts: Vec<&mut [f32]> = vec![head, mid, tail];
        let got = warmed(0.9, &warm).prune_batch_parts(&mut parts, &stream);

        prop_assert_eq!(&split, &whole, "partition ({}, {}) diverged", lo, hi);
        prop_assert_eq!(got, want);
    }

    /// However many bands the snap/zero sweep is cut into — the pool-sized
    /// count included — the pruned values, the outcome counts and `Σ|g|`
    /// are bitwise those of the one-band pass; and under a contiguous
    /// stream the values and counts are those of the whole-slice prune of
    /// the concatenated parts (`Σ|g|` is summed part by part, so its bits
    /// belong to the partition, not to the band count).
    #[test]
    fn band_count_invariance(batch in arb_batch(), tau in 0.005f64..0.05, contiguous in any::<bool>()) {
        let key = StreamKey::new(3).derive(1);
        let stream = if contiguous { BatchStream::contiguous(key) } else { BatchStream::per_sample(key) };
        let run = |bands: Option<usize>| {
            let mut data = batch.clone();
            let mut parts: Vec<&mut [f32]> = data.iter_mut().map(|v| v.as_mut_slice()).collect();
            let stats = match bands {
                Some(bands) => prune_pass_in_bands(Some(tau), &mut parts, &stream, bands),
                None => prune_pass(Some(tau), &mut parts, &stream),
            };
            let bits: Vec<u32> = data.iter().flatten().map(|v| v.to_bits()).collect();
            (bits, stats.outcome, stats.elements, stats.abs_sum.to_bits())
        };
        let want = run(Some(1));
        for bands in [Some(2), Some(3), Some(4), Some(7), None] {
            prop_assert_eq!(&run(bands), &want, "{:?} bands diverged", bands);
        }
        if contiguous {
            let mut whole: Vec<f32> = batch.concat();
            let stats = prune_pass_in_bands(Some(tau), &mut [&mut whole], &stream, 1);
            let bits: Vec<u32> = whole.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!((&bits, stats.outcome, stats.elements), (&want.0, want.1, want.2));
        }
    }

    /// Per-sample streams: dropping trailing samples never changes the
    /// surviving samples' pruning (threshold held fixed by identical
    /// warm-up).
    #[test]
    fn sample_drop_independence(batch in arb_batch(), warm in arb_grads(400)) {
        prop_assume!(batch.len() >= 2);
        let stream = BatchStream::per_sample(StreamKey::new(11).derive(4));
        let mut full = batch.clone();
        {
            let mut parts: Vec<&mut [f32]> = full.iter_mut().map(|v| v.as_mut_slice()).collect();
            warmed(0.9, &warm).prune_batch_parts(&mut parts, &stream);
        }
        let keep = batch.len() - 1;
        let mut dropped = batch[..keep].to_vec();
        {
            let mut parts: Vec<&mut [f32]> = dropped.iter_mut().map(|v| v.as_mut_slice()).collect();
            warmed(0.9, &warm).prune_batch_parts(&mut parts, &stream);
        }
        prop_assert_eq!(&full[..keep], &dropped[..]);
    }
}

/// The paper's expected keep/snap rates survive the stream-keyed rewrite:
/// a value `|g| < τ` snaps with probability `|g|/τ` (so `E[kept]` per
/// element is `|g|/τ` of the sub-threshold population), and the pruned
/// estimator stays unbiased.
#[test]
fn keep_snap_rates_match_expectation() {
    let tau = 0.01f64;
    let n = 120_000;
    for &g0 in &[0.002f32, 0.0055, 0.009] {
        let key = StreamKey::new(0xEE).derive(g0.to_bits() as u64);
        let mut g = vec![g0; n];
        let out = prune_slice_at(&mut g, tau, key, 0);
        let snap_frac = out.snapped as f64 / n as f64;
        let want = g0 as f64 / tau;
        assert!(
            (snap_frac - want).abs() < 0.01,
            "P[snap | g={g0}] = {snap_frac}, want {want}"
        );
        // Unbiasedness: E[pruned] = g0 (snapped values are ±τ).
        let mean = g.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        assert!((mean - g0 as f64).abs() < 3e-4, "E[pruned({g0})] = {mean}");
    }
}

/// End-to-end repeatability: the same stream coordinates and data give the
/// same pruner trajectory — across fresh pruner instances, not just calls.
#[test]
fn trajectory_is_reproducible() {
    let run = || -> (Vec<Vec<f32>>, Vec<PruneOutcome>) {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 2));
        let key = StreamKey::new(21);
        let mut outs = Vec::new();
        let mut all = Vec::new();
        for step in 0..6u64 {
            let mut g: Vec<f32> = (0..2000)
                .map(|i| {
                    let w = key.derive(0x0DD).derive(step).word_at(i as u64);
                    (w % 4000) as f32 * 1e-5 - 0.02
                })
                .collect();
            outs.push(pruner.prune_batch(&mut g, &BatchStream::contiguous(key.derive(step))));
            all.push(g);
        }
        (all, outs)
    };
    let (a_data, a_outs) = run();
    let (b_data, b_outs) = run();
    assert_eq!(a_data, b_data);
    assert_eq!(a_outs, b_outs);
}
