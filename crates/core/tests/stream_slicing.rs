//! The stream-slicing invariant the shard coordinator relies on.
//!
//! A sharded trainer hands each worker a contiguous slice of the global
//! batch plus the slice's starting position, and the worker rebuilds its
//! pruning streams with [`BatchStream::with_base`] /
//! [`StepStreams::with_sample_base`]. For the aggregate step to be
//! bitwise-identical to the 1-worker run, every sliced draw must equal
//! the whole-batch draw at the same global coordinates — for **any**
//! partition into N workers, any batch size, and any ragged tail. These
//! properties pin that invariant at the stream layer, independently of
//! the sharder built on top of it.

use proptest::prelude::*;
use rand::stream::StreamKey;
use sparsetrain_core::prune::{prune_pass, BatchStream, LayerPruner, PruneConfig, SiteStats, StepStreams};

/// Deterministically generated gradient batch spanning the keep/snap/zero
/// regimes (proptest shrinks the *shape*, the values are seed-derived).
fn batch_values(seed: u64, samples: usize, len: usize) -> Vec<Vec<f32>> {
    let key = StreamKey::new(seed).derive(0x51_1C_E5);
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
}

/// Splits `0..total` into `workers` contiguous ranges the way a
/// coordinator would: near-even, in rank order, optionally dropping a
/// ragged tail of `drop_tail` samples entirely (simulating a short final
/// batch that leaves trailing workers idle).
fn contiguous_ranges(total: usize, workers: usize, drop_tail: usize) -> Vec<(usize, usize)> {
    let covered = total.saturating_sub(drop_tail);
    let per = covered / workers;
    let extra = covered % workers;
    let mut out = Vec::new();
    let mut start = 0usize;
    for rank in 0..workers {
        let n = per + usize::from(rank < extra);
        out.push((start, start + n));
        start += n;
    }
    out
}

proptest! {
    /// Per-sample layout: pruning a slice `[start, end)` of the batch on a
    /// `with_sample_base(start)` stream produces exactly the whole-batch
    /// prune of those samples — for every worker of every partition.
    #[test]
    fn per_sample_slices_reproduce_the_whole_batch_prune(
        seed in 0u64..1000,
        samples in 1usize..=12,
        len in 1usize..=300,
        workers in 1usize..=5,
        drop_tail in 0usize..=2,
        tau in 1e-3f64..0.1,
    ) {
        let batch = batch_values(seed, samples, len);
        let step = StepStreams::new(seed, 1, 2);
        let site = step.site("conv1");

        let mut want = batch.clone();
        {
            let mut parts: Vec<&mut [f32]> = want.iter_mut().map(|v| v.as_mut_slice()).collect();
            prune_pass(Some(tau), &mut parts, &site);
        }

        for (start, end) in contiguous_ranges(samples, workers, drop_tail.min(samples - 1)) {
            let mut slice: Vec<Vec<f32>> = batch[start..end].to_vec();
            let sliced_site = step.with_sample_base(start as u64).site("conv1");
            let mut parts: Vec<&mut [f32]> =
                slice.iter_mut().map(|v| v.as_mut_slice()).collect();
            prune_pass(Some(tau), &mut parts, &sliced_site);
            prop_assert_eq!(
                &slice[..],
                &want[start..end],
                "worker slice [{}..{}) diverged from the whole-batch prune",
                start,
                end
            );
        }
    }

    /// Contiguous layout: splitting one logical vector at arbitrary
    /// worker boundaries and re-basing each piece by its element offset
    /// reproduces the unsliced draws bitwise.
    #[test]
    fn contiguous_slices_reproduce_the_whole_vector_prune(
        seed in 0u64..1000,
        len in 1usize..=2000,
        workers in 1usize..=5,
        tau in 1e-3f64..0.1,
    ) {
        let flat: Vec<f32> = batch_values(seed, 1, len).remove(0);
        let stream = BatchStream::contiguous(StreamKey::new(seed).derive(7));

        let mut want = flat.clone();
        prune_pass(Some(tau), &mut [want.as_mut_slice()], &stream);

        for (start, end) in contiguous_ranges(len, workers, 0) {
            let mut piece = flat[start..end].to_vec();
            let based = stream.with_base(start as u64);
            prune_pass(Some(tau), &mut [piece.as_mut_slice()], &based);
            prop_assert_eq!(
                &piece[..],
                &want[start..end],
                "element slice [{}..{}) diverged",
                start,
                end
            );
        }
    }

    /// The full coordinator round-trip over arbitrary partitions: workers
    /// prune their slices statelessly under the coordinator's prediction,
    /// the coordinator reduces the returned [`SiteStats`] in rank order
    /// and absorbs them — and the resulting pruner state (FIFO and all)
    /// is bitwise the 1-worker pruner's, for N∈{1..5} over several steps.
    #[test]
    fn rank_ordered_reduction_is_worker_count_invariant(
        seed in 0u64..500,
        samples in 2usize..=10,
        len in 16usize..=200,
        workers in 2usize..=5,
    ) {
        let mut single = LayerPruner::new(PruneConfig::new(0.9, 2));
        let mut sharded = LayerPruner::new(PruneConfig::new(0.9, 2));
        let mut seeds_single = sparsetrain_core::prune::StreamSeeds::new(seed);
        let mut seeds_sharded = sparsetrain_core::prune::StreamSeeds::new(seed);

        for step in 0..4u64 {
            let batch = batch_values(seed ^ step, samples, len);

            // 1-worker reference: granule = 1 sample, reduced in order.
            let tau = single.predicted_threshold();
            let mut want = batch.clone();
            let mut reduced = SiteStats::default();
            for (s, sample) in want.iter_mut().enumerate() {
                let site = seeds_single.streams().with_sample_base(s as u64).site("fc");
                reduced.accumulate(&prune_pass(tau, &mut [sample.as_mut_slice()], &site));
            }
            single.absorb_batch(&reduced);
            seeds_single.advance_step();

            // N workers: each prunes its contiguous sample range; the
            // coordinator reduces per-granule stats in global order.
            let tau = sharded.predicted_threshold();
            let mut got = batch.clone();
            let mut stats: Vec<(usize, SiteStats)> = Vec::new();
            for (start, end) in contiguous_ranges(samples, workers, 0) {
                for s in start..end {
                    let site = seeds_sharded.streams().with_sample_base(s as u64).site("fc");
                    let st = prune_pass(tau, &mut [got[s].as_mut_slice()], &site);
                    stats.push((s, st));
                }
            }
            stats.sort_by_key(|&(s, _)| s);
            let mut reduced = SiteStats::default();
            for (_, st) in &stats {
                reduced.accumulate(st);
            }
            sharded.absorb_batch(&reduced);
            seeds_sharded.advance_step();

            prop_assert_eq!(got, want, "step {}: sharded prune diverged", step);
        }
        prop_assert_eq!(sharded.snapshot_state(), single.snapshot_state());
    }
}
