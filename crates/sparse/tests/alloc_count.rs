//! Compressing a map and taking its masks allocates a constant number of
//! heap blocks — the arena's handful — however many rows the map has, and
//! generating a synthetic dataset holds one copy of it: the live-heap peak
//! during `SyntheticSpec::generate` stays within 1.1 × the bytes it returns
//! (plus 64 KiB), so no second image buffer exists while the splits are
//! shuffled.
//!
//! A counting global allocator tallies the blocks each thread allocates,
//! so the count is exact for work done on the test's own thread whatever
//! the harness runs beside it. The ignored `alexnet_pruned_step` test
//! reports the blocks one `stbench` `alexnet_pruned` training step
//! allocates (all of them, not only compress) and the live-heap
//! high-water mark of those steps, for the before / after numbers in
//! CHANGES.md:
//! `RAYON_NUM_THREADS=1 cargo test --release -p sparsetrain-sparse --test
//! alloc_count -- --ignored --nocapture`.

use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_tensor::Tensor3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed, and their high-water mark.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// Counts `blocks` more blocks and `grown` more live bytes (negative: freed).
fn tally(blocks: u64, grown: isize) {
    let _ = BLOCKS.try_with(|n| n.set(n.get() + blocks));
    let _ = LIVE.try_with(|l| {
        let (live, peak) = l.get();
        l.set((live + grown, peak.max(live + grown)));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; the tallies are const-initialised
// thread-locals without a destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` / `realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as isize - layout.size() as isize);
        // SAFETY: the caller's guarantees for `ptr` / `layout` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks allocated (or grown) on this thread while `f` runs.
fn blocks_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

/// Restarts this thread's live-heap high-water mark at the current live
/// bytes, and returns them.
fn reset_live_peak() -> isize {
    LIVE.with(|l| {
        let (live, _) = l.get();
        l.set((live, live));
        live
    })
}

/// A `c × h × w` map with about `density_pct` % non-zeros.
fn map(c: usize, h: usize, w: usize, density_pct: u64) -> Tensor3 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    Tensor3::from_fn(c, h, w, |_, _, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        if s % 100 < density_pct {
            (s % 1000) as f32 / 500.0 - 1.0 + 1e-3
        } else {
            0.0
        }
    })
}

#[test]
fn compress_and_masks_allocate_a_constant_number_of_blocks() {
    // AlexNet-like activations (16×16 rows of 16, density ≈ 0.66) and
    // ResNet-like pruned gradients (48×8 rows of 8, density 0.05).
    let mut counts = Vec::new();
    for (c, h, w, pct) in [(16, 16, 16, 66), (48, 8, 8, 5), (4, 4, 8, 20), (64, 32, 32, 66)] {
        let t = map(c, h, w, pct);
        let (blocks, (fm, masks)) = blocks_during(|| {
            let fm = SparseFeatureMap::from_tensor(&t);
            let masks = fm.masks();
            (fm, masks)
        });
        assert!(fm.nnz() > 0 && masks.len() == c * h);
        counts.push(blocks);
    }
    // Row pointers, offsets, values, mask words, and the mask vector.
    assert_eq!(
        counts,
        vec![5; counts.len()],
        "blocks per from_tensor + masks, by map"
    );
}

#[test]
fn generation_holds_one_copy_of_the_dataset() {
    use sparsetrain_nn::data::{Dataset, SyntheticSpec};

    let spec = SyntheticSpec {
        train_samples: 2000,
        size: 16,
        ..SyntheticSpec::cifar10_like()
    };
    let start = reset_live_peak();
    let (train, test) = spec.generate();
    let peak = LIVE.with(Cell::get).1 - start;
    let held = |d: &Dataset| {
        d.images.capacity() * std::mem::size_of::<Tensor3>()
            + d.labels.capacity() * std::mem::size_of::<usize>()
            + d.images.iter().map(Tensor3::len).sum::<usize>() * std::mem::size_of::<f32>()
    };
    let returned = (held(&train) + held(&test)) as f64;
    assert!(
        peak as f64 <= 1.1 * returned + 65536.0,
        "live-heap peak during generate is {peak} B, {:.2}× the {returned} B it returns",
        peak as f64 / returned
    );
}

/// A shard granule's three engine calls on one sample — Forward, GTA and
/// GTW of a `16 → 32`-filter conv on `8 × 8` maps, small enough for one
/// band — allocate a fixed handful of blocks once the context's panel
/// cache is warm. On `simd`: the outputs and the op lists, the contexts,
/// one tile or scratch per stage and GTW's channels-last input copy; no
/// weight panel is re-laid and no scope is entered. On `scalar`, which
/// runs the shared op enumeration (`sparse::ops`), 12: the enumeration
/// allocates nothing per op or per call.
#[test]
fn warm_one_sample_calls_allocate_a_fixed_number_of_blocks() {
    use sparsetrain_sparse::{ExecutionContext, RowMask};
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::Tensor4;

    let geom = ConvGeometry::new(3, 1, 1);
    let input = vec![SparseFeatureMap::from_tensor(&map(16, 8, 8, 50))];
    let dout = vec![SparseFeatureMap::from_tensor(&map(32, 8, 8, 30))];
    let masks: Vec<Vec<RowMask>> = vec![input[0].masks()];
    let weights = Tensor4::from_fn(32, 16, 3, 3, |f, c, u, v| {
        ((f + 2 * c + 3 * u + v) % 7) as f32 * 0.25 - 0.75
    });
    let bias = vec![0.125f32; 32];
    let step = |ctx: &mut ExecutionContext, dins: &mut [Tensor3], dw: &mut Tensor4| {
        let out = ctx.forward_batch_for("conv", &input, &weights, Some(&bias), geom);
        ctx.input_grad_batch_for_into("conv", &dout, &weights, geom, &masks, dins);
        ctx.weight_grad_batch_for("conv", &input, &dout, geom, dw);
        out
    };
    for (engine, want) in [("simd", 16), ("scalar", 12)] {
        let mut ctx = ExecutionContext::by_name(engine).unwrap();
        let mut dw = Tensor4::zeros(32, 16, 3, 3);
        let mut dins = vec![Tensor3::zeros(16, 8, 8)];
        step(&mut ctx, &mut dins, &mut dw);
        let (blocks, out) = blocks_during(|| step(&mut ctx, &mut dins, &mut dw));
        assert_eq!(out.len(), 1);
        assert_eq!(
            blocks, want,
            "heap blocks of a warm one-sample Forward + GTA + GTW on {engine}"
        );
    }
}

/// `alexnet_pruned`'s set-up, then the blocks of its next steps: a report,
/// not a check (it prints; run it as the module docs say).
#[test]
#[ignore = "reports allocations per alexnet_pruned step; run with RAYON_NUM_THREADS=1 in release"]
fn alexnet_pruned_step() {
    use sparsetrain_core::prune::PruneConfig;
    use sparsetrain_nn::data::{Dataset, SyntheticSpec};
    use sparsetrain_nn::models::ModelKind;
    use sparsetrain_nn::train::{TrainConfig, Trainer};

    assert_eq!(
        rayon::current_num_threads(),
        1,
        "set RAYON_NUM_THREADS=1: blocks are counted on the calling thread"
    );
    const BATCH: usize = 16;
    const STEPS: usize = 5;
    let seed = 1;
    let (train, _) = SyntheticSpec {
        train_samples: 160 + STEPS * BATCH,
        test_samples: BATCH,
        size: 32,
        seed,
        ..SyntheticSpec::cifar10_like()
    }
    .generate();
    let slice = |range: std::ops::Range<usize>| Dataset {
        images: train.images[range.clone()].to_vec(),
        labels: train.labels[range].to_vec(),
        num_classes: train.num_classes,
    };
    let net = ModelKind::Alexnet.build(3, 32, 10, Some(PruneConfig::new(0.9, 4)), seed);
    let config = TrainConfig {
        batch_size: BATCH,
        lr: 0.003,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed,
        engine: None,
        checkpoint: None,
        shard: None,
    }
    .with_engine_name("simd");
    let mut trainer = Trainer::new(net, config);
    trainer.train_epoch(&slice(0..160));
    let batches: Vec<Dataset> = (0..STEPS)
        .map(|s| slice(160 + s * BATCH..160 + (s + 1) * BATCH))
        .collect();
    let start = reset_live_peak();
    let (blocks, ()) = blocks_during(|| {
        for batch in &batches {
            trainer.train_epoch(batch);
        }
    });
    let mib = |bytes: isize| bytes as f64 / (1 << 20) as f64;
    println!(
        "alexnet_pruned: {} heap blocks per step (mean of {STEPS} steps); live heap {:.2} MiB \
         before them, high-water {:.2} MiB during",
        blocks / STEPS as u64,
        mib(start),
        mib(LIVE.with(Cell::get).1),
    );
}
