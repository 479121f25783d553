//! Property tests pinning the engine contracts:
//!
//! * **one differential oracle, stage as an input** — `single_op_parity`
//!   and `batch_parity` generate the stage, the shapes (1-wide and 1-high
//!   maps, kernels wider than the unpadded map, strides, padding), the
//!   per-row densities (empty rows, empty maps), a pre-seeded output and
//!   the band count, and hold every engine under test to the scalar
//!   reference at one band bit for bit, the scalar reference to the dense
//!   `sparsetrain_tensor::conv` within tolerance, and every engine's
//!   `run_batch` (fixed-point included) to its own sample-by-sample `run`;
//! * the registry enumeration below automatically covers every registered
//!   backend — including `simd` (runtime-dispatched AVX2/portable lanes),
//!   `im2row` (cache-blocked dense lowering) and their `parallel:*`
//!   aliases, each banded by the pool — or just the `SPARSETRAIN_ENGINE`
//!   override when set, as in one cell of the CI engine matrix;
//! * one engine call prepares its [`BandContext`]s (the weight re-layout
//!   every sample shares, im2row patches) exactly once regardless of band
//!   count, and every band borrows the shared state;
//! * the Q8.8 [`FixedPointEngine`] stays within its analytic quantization
//!   error bounds against the scalar reference (golden tests).
//!
//! Parity is asserted with exact `==` on the raw f32 slices — banding only
//! ever splits work across disjoint output regions while keeping the
//! scalar per-row accumulation order, so any difference at all is a bug.

use proptest::prelude::*;
use sparsetrain_sparse::engine::run_batch_in_bands;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{
    registry, BandContext, BatchOut, FixedPointEngine, KernelEngine, RowMask, ScalarEngine, SimdEngine,
    Stage, StageOp,
};
use sparsetrain_tensor::conv::{self, ConvGeometry};
use sparsetrain_tensor::{Tensor3, Tensor4};

const H: usize = 6;
const W: usize = 7;

fn arb_feature_map(channels: usize) -> impl Strategy<Value = SparseFeatureMap> {
    proptest::collection::vec(
        prop_oneof![
            55u32 => Just(0.0f32),
            45u32 => (-2.0f32..2.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        channels * H * W,
    )
    .prop_map(move |data| SparseFeatureMap::from_tensor(&Tensor3::from_vec(channels, H, W, data)))
}

fn arb_weights(f: usize, c: usize, k: usize) -> impl Strategy<Value = Tensor4> {
    proptest::collection::vec(-1.5f32..1.5, f * c * k * k)
        .prop_map(move |data| Tensor4::from_vec(f, c, k, k, data))
}

fn arb_geom() -> impl Strategy<Value = ConvGeometry> {
    (1usize..=3, 1usize..=2, 0usize..=1).prop_map(|(k, s, p)| ConvGeometry::new(k, s, p))
}

/// The registry engines under test: restricted to the `SPARSETRAIN_ENGINE`
/// override when set (the CI matrix leg), the whole registry otherwise.
fn engines_under_test() -> Vec<registry::EngineHandle> {
    match registry::env_override().expect("SPARSETRAIN_ENGINE must name a registered engine") {
        Some(handle) => vec![handle],
        None => registry::registry(),
    }
}

fn forward_op<'a>(input: &'a SparseFeatureMap, weights: &'a Tensor4, geom: ConvGeometry) -> StageOp<'a> {
    StageOp::Forward {
        input,
        weights,
        bias: None,
        geom,
    }
}

// ---------------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------------

/// What every sample of one generated case shares: the stage, the layer
/// shape, and the explicit band count of the scalar engine under test.
#[derive(Debug, Clone, Copy)]
struct Layer {
    stage: Stage,
    c: usize,
    f: usize,
    geom: ConvGeometry,
    bias: bool,
    threads: usize,
}

/// Channel / filter counts: below one lane block, at its boundary (7, 8,
/// 9), across two (16, 17) and AlexNet's widest panel (48: six blocks, so
/// one fused run of the simd engine spans up to `K × 48` lanes) — the
/// simd engine's lanes run along this axis.
fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=4,
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(16usize),
        Just(17usize),
        Just(48usize)
    ]
}

fn arb_layer() -> impl Strategy<Value = Layer> {
    (
        0usize..3,
        (arb_width(), arb_width()),
        (1usize..=5, 1usize..=3, 0usize..=2),
        any::<bool>(),
        1usize..=9,
    )
        .prop_map(|(stage, (c, f), (k, s, p), bias, threads)| Layer {
            stage: Stage::ALL[stage],
            c,
            f,
            geom: ConvGeometry::new(k, s, p),
            bias,
            threads,
        })
}

/// Deterministic content generator for one case (xorshift64*): the
/// proptest strategies draw the structure, this fills the tensors, whose
/// sizes depend on it.
struct Fill(u64);

impl Fill {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A non-zero value in `(-2, 2)`.
    fn value(&mut self) -> f32 {
        let magnitude = 0.01 + self.below(1990) as f32 / 1000.0;
        if self.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    }

    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.value()).collect()
    }

    /// A `c × h × w` map where every row draws its own density — empty,
    /// full, or anything between — and one map in eight is empty.
    fn map(&mut self, c: usize, h: usize, w: usize) -> SparseFeatureMap {
        let empty_map = self.below(8) == 0;
        let mut data = vec![0.0f32; c * h * w];
        for row in data.chunks_mut(w) {
            let density_pct = match self.below(6) {
                _ if empty_map => 0,
                0 | 1 => 0,
                2 => 100,
                _ => 5 + self.below(91),
            };
            for v in row {
                if self.below(100) < density_pct {
                    *v = self.value();
                }
            }
        }
        SparseFeatureMap::from_tensor(&Tensor3::from_vec(c, h, w, data))
    }
}

/// One sample's operands plus the pre-seeded (non-zero) output.
struct Sample {
    input: SparseFeatureMap,
    dout: SparseFeatureMap,
    masks: Vec<RowMask>,
    seed: Vec<f32>,
}

impl Layer {
    /// A sample on an `h × w` map drawn from `1..=9` each — as small as
    /// the padded extent still covering the kernel allows, so kernels
    /// wider than the unpadded map occur.
    fn sample(&self, fill: &mut Fill) -> Sample {
        let lo = self.geom.kernel.saturating_sub(2 * self.geom.pad).max(1);
        let (h, w) = (lo + fill.below(10 - lo), lo + fill.below(10 - lo));
        self.sample_on(h, w, fill)
    }

    fn sample_on(&self, h: usize, w: usize, fill: &mut Fill) -> Sample {
        let (oh, ow) = (self.geom.output_extent(h), self.geom.output_extent(w));
        let out_len = match self.stage {
            Stage::Forward => self.f * oh * ow,
            Stage::InputGrad => self.c * h * w,
            Stage::WeightGrad => self.f * self.c * self.geom.kernel * self.geom.kernel,
        };
        Sample {
            input: fill.map(self.c, h, w),
            dout: fill.map(self.f, oh, ow),
            masks: fill.map(self.c, h, w).masks(),
            seed: fill.values(out_len),
        }
    }

    fn weights(&self, fill: &mut Fill) -> (Tensor4, Vec<f32>) {
        let k = self.geom.kernel;
        let weights = Tensor4::from_vec(self.f, self.c, k, k, fill.values(self.f * self.c * k * k));
        (weights, fill.values(self.f))
    }

    fn op<'a>(&self, s: &'a Sample, weights: &'a Tensor4, bias: Option<&'a [f32]>) -> StageOp<'a> {
        match self.stage {
            Stage::Forward => StageOp::Forward {
                input: &s.input,
                weights,
                bias,
                geom: self.geom,
            },
            Stage::InputGrad => StageOp::InputGrad {
                dout: &s.dout,
                weights,
                geom: self.geom,
                masks: &s.masks,
                in_h: s.input.height(),
                in_w: s.input.width(),
            },
            Stage::WeightGrad => StageOp::WeightGrad {
                input: &s.input,
                dout: &s.dout,
                geom: self.geom,
            },
        }
    }

    /// The dense reference of one sample's op on top of its seed.
    fn dense_reference(&self, s: &Sample, weights: &Tensor4, bias: Option<&[f32]>) -> Vec<f32> {
        let dense: Vec<f32> = match self.stage {
            Stage::Forward => {
                let out = conv::forward(&s.input.to_tensor(), weights, bias, self.geom);
                if bias.is_some() {
                    // A bias overwrites the seed.
                    return out.as_slice().to_vec();
                }
                out.as_slice().to_vec()
            }
            Stage::InputGrad => {
                let (h, w) = (s.input.height(), s.input.width());
                let mut din = conv::input_grad(&s.dout.to_tensor(), weights, self.geom, h, w);
                for (row, mask) in din.as_mut_slice().chunks_mut(w).zip(&s.masks) {
                    for (x, v) in row.iter_mut().enumerate() {
                        if !mask.contains(x) {
                            *v = 0.0;
                        }
                    }
                }
                din.as_slice().to_vec()
            }
            Stage::WeightGrad => conv::weight_grad(&s.input.to_tensor(), &s.dout.to_tensor(), self.geom)
                .as_slice()
                .to_vec(),
        };
        dense.iter().zip(&s.seed).map(|(d, seed)| seed + d).collect()
    }
}

/// `engine`'s batches at exactly the given band count, through the
/// explicit-band entry, instead of the pool-sized one.
struct InBands<'e>(&'e dyn KernelEngine, usize);

impl KernelEngine for InBands<'_> {
    fn run_batch(&self, ops: &[StageOp<'_>], out: BatchOut<'_>) {
        run_batch_in_bands(self.0, ops, out, self.1);
    }
}

/// The scalar reference at one band: the unbanded order every oracle is
/// computed in, whatever the pool size.
const REFERENCE: InBands<'static> = InBands(&ScalarEngine, 1);

/// Every engine under test plus `banded` (the scalar engine at the case's
/// explicit band count), each with whether it is a float engine — bitwise
/// equal to scalar by contract.
fn oracle_engines<'a>(banded: &'a InBands<'a>) -> Vec<(&'static str, &'a dyn KernelEngine, bool)> {
    let mut engines: Vec<(&'static str, &dyn KernelEngine, bool)> = engines_under_test()
        .into_iter()
        .map(|h| (h.name(), h.engine(), !h.name().starts_with("fixed")))
        .collect();
    engines.push(("scalar (explicit bands)", banded, true));
    engines
}

fn assert_close(a: &[f32], b: &[f32], tol: f32) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "mismatch at {}: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One op of a generated stage and shape, into a pre-seeded output:
    /// every float engine — and the scalar engine at every band count —
    /// equals the scalar reference bitwise, and the scalar reference
    /// agrees with the dense convolution. A GTA position the forward mask
    /// excludes keeps its seed bits on every float engine.
    #[test]
    fn single_op_parity(layer in arb_layer(), fill in any::<u64>()) {
        let mut fill = Fill(fill | 1);
        let (weights, bias) = layer.weights(&mut fill);
        let bias = layer.bias.then_some(&bias[..]);
        let sample = layer.sample(&mut fill);
        let op = layer.op(&sample, &weights, bias);

        let mut want = sample.seed.clone();
        REFERENCE.run(&op, &mut want);
        assert_close(&want, &layer.dense_reference(&sample, &weights, bias), 1e-4)?;
        for (name, engine, float) in oracle_engines(&InBands(&ScalarEngine, layer.threads)) {
            let mut got = sample.seed.clone();
            engine.run(&op, &mut got);
            if float {
                prop_assert_eq!(&got, &want, "engine {} on {:?} {:?}", name, layer, op.split());
            }
            if float && layer.stage == Stage::InputGrad {
                let w = sample.input.width();
                for (i, (g, seed)) in got.iter().zip(&sample.seed).enumerate() {
                    if !sample.masks[i / w].contains(i % w) {
                        prop_assert_eq!(g.to_bits(), seed.to_bits(), "engine {} moved masked-out din[{}]", name, i);
                    }
                }
            }
        }
    }

    /// A batch of up to four samples of a generated stage — mixed shapes
    /// half of the time — in one `run_batch` call: per-sample outputs for
    /// Forward and GTA, the shared accumulator for GTW. Every engine,
    /// fixed-point included, equals its own sample-by-sample `run`, and
    /// every float engine the scalar reference.
    #[test]
    fn batch_parity(layer in arb_layer(), n in 1usize..=4, mixed in any::<bool>(), fill in any::<u64>()) {
        let mut fill = Fill(fill | 1);
        let (weights, bias) = layer.weights(&mut fill);
        let bias = layer.bias.then_some(&bias[..]);
        let first = layer.sample(&mut fill);
        let (h, w) = (first.input.height(), first.input.width());
        let mut samples = vec![first];
        while samples.len() < n {
            samples.push(if mixed { layer.sample(&mut fill) } else { layer.sample_on(h, w, &mut fill) });
        }
        let ops: Vec<StageOp<'_>> = samples.iter().map(|s| layer.op(s, &weights, bias)).collect();
        let shared = layer.stage == Stage::WeightGrad;
        let seeds: Vec<Vec<f32>> = samples.iter().take(if shared { 1 } else { n }).map(|s| s.seed.clone()).collect();

        let sample_by_sample = |engine: &dyn KernelEngine| {
            let mut outs = seeds.clone();
            for (s, op) in ops.iter().enumerate() {
                engine.run(op, &mut outs[if shared { 0 } else { s }]);
            }
            outs
        };
        let want = sample_by_sample(&REFERENCE);
        for (name, engine, float) in oracle_engines(&InBands(&ScalarEngine, layer.threads)) {
            let mut got = seeds.clone();
            let out = if shared {
                BatchOut::Shared(&mut got[0])
            } else {
                BatchOut::PerSample(got.iter_mut().map(Vec::as_mut_slice).collect())
            };
            engine.run_batch(&ops, out);
            prop_assert_eq!(&got, &sample_by_sample(engine), "engine {} batch vs per-sample, {:?}", name, layer);
            if float {
                prop_assert_eq!(&got, &want, "engine {} batch vs scalar, {:?}", name, layer);
            }
        }
    }

    /// Golden bound: the Q8.8 engine's forward error against the float
    /// reference never exceeds the analytic per-term rounding budget.
    ///
    /// Every product of a rounded activation (error ≤ ε/2, magnitude < 2)
    /// and a rounded tap (error ≤ ε/2, magnitude < 1.5) is off by at most
    /// `2·ε/2 + 1.5·ε/2 + ε²/4 < 1.76ε`; an output accumulates at most
    /// `C × K × K` such terms and one final store rounding (ε/2).
    #[test]
    fn fixed_point_error_bounds(
        input in arb_feature_map(3),
        weights in arb_weights(4, 3, 3),
        geom in arb_geom().prop_filter("kernel 3", |g| g.kernel == 3),
    ) {
        let fixed = registry::lookup("fixed").unwrap().engine();
        let op = forward_op(&input, &weights, geom);
        let got = op.run_on(fixed);
        let want = op.run_on(&REFERENCE);
        let eps = FixedPointEngine::q8_8().format().epsilon();
        let terms = (3 * geom.kernel * geom.kernel) as f32;
        let bound = terms * 1.76 * eps + eps / 2.0;
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - w).abs() <= bound,
                "output {} error {} exceeds bound {}",
                i,
                (g - w).abs(),
                bound
            );
        }
    }

    /// Golden bound: the Q8.8 GTW error per tap is bounded by the number
    /// of accumulated products times the per-term budget (operands < 2.0
    /// on both sides ⇒ per-term error < `2·ε/2 + 2·ε/2 + ε²/4 < 2.1ε`),
    /// plus the final accumulator store rounding.
    #[test]
    fn fixed_point_weight_grad_error_bounds(
        input in arb_feature_map(2),
        dout in arb_feature_map(3),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let fixed = registry::lookup("fixed").unwrap().engine();
        let op = StageOp::WeightGrad { input: &input, dout: &dout, geom };
        let got = op.run_on(fixed);
        let want = op.run_on(&REFERENCE);
        let eps = FixedPointEngine::q8_8().format().epsilon();
        // Each tap accumulates at most Ho × Ow products.
        let terms = (H * W) as f32;
        let bound = terms * 2.1 * eps + eps / 2.0;
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - w).abs() <= bound,
                "tap {} error {} exceeds bound {}",
                i,
                (g - w).abs(),
                bound
            );
        }
    }
}

/// Non-finite values beside the zeros the scalar kernels skip — zero
/// weights, zero inputs, padded columns: `±∞ · 0` and `NaN · 0` are NaN,
/// so an engine that multiplies such a zero instead of skipping it
/// diverges. First in the sparse operands (the input, `dout`), then in the
/// weights. Every float engine, every stage, at 1, 2 and 5 bands and at
/// the pool's own count, holds the scalar reference's bits.
#[test]
fn non_finite_operands_match_scalar_bitwise() {
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let engines: Vec<registry::EngineHandle> = engines_under_test()
        .into_iter()
        .filter(|h| !h.name().starts_with("fixed"))
        .collect();
    for geom in [ConvGeometry::new(3, 1, 1), ConvGeometry::new(3, 2, 1)] {
        let (oh, ow) = (geom.output_extent(4), geom.output_extent(4));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            for in_weights in [false, true] {
                // A 2 × 4 × 4 checkerboard input and a 3-filter `dout` of
                // the same pattern; every third weight is an exact zero.
                let mut input = Tensor3::from_fn(2, 4, 4, |c, y, x| {
                    if (c + y + x) % 2 == 0 {
                        0.5 + (c + y) as f32 * 0.25 - x as f32 * 0.125
                    } else {
                        0.0
                    }
                });
                let mut dout = Tensor3::from_fn(3, oh, ow, |f, y, x| {
                    if (f + y + x) % 2 == 1 {
                        0.75 - (f + x) as f32 * 0.25 + y as f32 * 0.125
                    } else {
                        0.0
                    }
                });
                let mut weights = Tensor4::from_fn(3, 2, 3, 3, |f, c, u, v| {
                    if (f + c + u + v) % 3 == 0 {
                        0.0
                    } else {
                        ((f * 5 + c * 3 + u * 2 + v) % 7) as f32 * 0.25 - 0.625
                    }
                });
                if in_weights {
                    weights.as_mut_slice()[10] = bad;
                } else {
                    input.set(0, 1, 2, bad);
                    dout.set(1, 0, 0, bad);
                }
                let (input, dout) = (
                    SparseFeatureMap::from_tensor(&input),
                    SparseFeatureMap::from_tensor(&dout),
                );
                let masks = input.masks();
                let ops = [
                    forward_op(&input, &weights, geom),
                    StageOp::InputGrad {
                        dout: &dout,
                        weights: &weights,
                        geom,
                        masks: &masks,
                        in_h: 4,
                        in_w: 4,
                    },
                    StageOp::WeightGrad {
                        input: &input,
                        dout: &dout,
                        geom,
                    },
                ];
                for op in ops {
                    let want = bits(&op.run_on(&REFERENCE));
                    for handle in &engines {
                        let ctx = format!(
                            "{} on {}, {bad} in the {}, stride {}",
                            op.stage(),
                            handle.name(),
                            if in_weights { "weights" } else { "operands" },
                            geom.stride
                        );
                        assert_eq!(bits(&op.run_on(handle.engine())), want, "{ctx}, pool bands");
                        for bands in [1usize, 2, 5] {
                            let got = op.run_on(&InBands(handle.engine(), bands));
                            assert_eq!(bits(&got), want, "{ctx}, {bands} bands");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pruning leg of the engine matrix
// ---------------------------------------------------------------------------

/// One pruned training epoch's observables: final weights and per-site
/// pre-prune gradient taps.
struct PrunedEpoch {
    weights: Vec<f32>,
    tapped: Vec<(String, Vec<f32>)>,
}

/// Trains one epoch of a pruned mini CNN on `handle`'s engine.
fn pruned_epoch(handle: registry::EngineHandle) -> PrunedEpoch {
    use sparsetrain_nn::data::SyntheticSpec;
    use sparsetrain_nn::train::{TrainConfig, Trainer};
    use sparsetrain_nn::{models, Layer};

    let (train, _) = SyntheticSpec::tiny(3).generate();
    let net = models::mini_cnn(3, 4, Some(sparsetrain_core::prune::PruneConfig::new(0.9, 2)));
    let mut trainer = Trainer::new(net, TrainConfig::quick().with_engine_handle(handle));
    trainer.train_epoch(&train);
    let tapped = trainer.tap_gradients(&train);
    let mut weights = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| weights.extend_from_slice(w));
    PrunedEpoch { weights, tapped }
}

/// For every registered engine: a pruned training epoch is deterministic
/// (two independent runs agree bitwise) — the fixed-point engine included,
/// whose convolution datapath is outside the float parity guarantee.
#[test]
fn pruning_parity_across_engines() {
    for handle in engines_under_test() {
        let a = pruned_epoch(handle);
        let b = pruned_epoch(handle);
        assert_eq!(
            a.weights,
            b.weights,
            "engine {}: pruned training not reproducible",
            handle.name()
        );
        assert_eq!(
            a.tapped,
            b.tapped,
            "engine {}: gradients not reproducible",
            handle.name()
        );
    }
}

/// The float engines (scalar, simd, im2row, and the `parallel:*` aliases)
/// share one bitwise training trajectory with pruning enabled — banding
/// the convolutions across threads, sweeping them across vector lanes,
/// lowering dense layers through im2row patches, *and* banding the pruning
/// change nothing.
#[test]
fn pruned_training_identical_on_float_engines() {
    if registry::env_override().expect("valid engine").is_some() {
        // The CI engine matrix pins a single engine; the cross-engine
        // comparison runs in the unrestricted leg.
        return;
    }
    let scalar = pruned_epoch(registry::lookup("scalar").unwrap());
    for name in ["parallel", "simd", "parallel:simd", "im2row", "parallel:im2row"] {
        let other = pruned_epoch(registry::lookup(name).unwrap());
        assert_eq!(
            scalar.weights, other.weights,
            "{name}: pruned weights diverged from scalar"
        );
        assert_eq!(
            scalar.tapped, other.tapped,
            "{name}: gradient taps diverged from scalar"
        );
    }
}

/// The simd engine's portable path (what non-AVX2 targets run) matches
/// the dispatched engine bitwise on the conv kernels — so CI on any
/// hardware pins both implementations.
#[test]
fn simd_portable_path_matches_dispatched() {
    use sparsetrain_sparse::SimdEngine;
    let geom = ConvGeometry::new(3, 1, 1);
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, W, |c, y, x| {
        if (c + 2 * y + 3 * x) % 3 != 0 {
            (y as f32 - x as f32) * 0.21 + c as f32 * 0.4
        } else {
            0.0
        }
    }));
    let dout = SparseFeatureMap::from_tensor(&Tensor3::from_fn(4, H, W, |c, y, x| {
        if (c * y + x) % 4 == 0 {
            0.3 - (c + x) as f32 * 0.05
        } else {
            0.0
        }
    }));
    let weights = Tensor4::from_fn(4, 3, 3, 3, |f, c, u, v| {
        ((f * 7 + c * 5 + u * 3 + v) % 9) as f32 * 0.125 - 0.5
    });
    let masks = input.masks();
    let ops = [
        forward_op(&input, &weights, geom),
        StageOp::InputGrad {
            dout: &dout,
            weights: &weights,
            geom,
            masks: &masks,
            in_h: H,
            in_w: W,
        },
        StageOp::WeightGrad {
            input: &input,
            dout: &dout,
            geom,
        },
    ];
    for op in ops {
        assert_eq!(
            op.run_on(&SimdEngine::auto()),
            op.run_on(&SimdEngine::portable()),
            "{}",
            op.stage()
        );
    }
}

/// BandContext reuse: one engine call prepares its operands **exactly
/// once**, no matter how many bands the call fans out into, and every band
/// receives the shared prepared state — the one weight re-layout of the
/// call, held by every sample's context. Pinned through the public seam
/// with a counting wrapper around the simd engine, banded by the trait's
/// own `run_batch` body.
#[test]
fn band_context_prepared_once_per_engine_call() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct CountingEngine {
        prepares: AtomicUsize,
        bands: AtomicUsize,
    }

    impl KernelEngine for CountingEngine {
        fn prepare(&self, ops: &[StageOp<'_>]) -> Vec<BandContext> {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            let ctxs = SimdEngine::auto().prepare(ops);
            // The re-layout is per engine call, not per sample: every
            // context of the batch holds the same allocation.
            let first = ctxs[0].weights().expect("forward prepares a weight re-layout");
            for ctx in &ctxs {
                assert!(Arc::ptr_eq(first, ctx.weights().expect("one per context")));
            }
            ctxs
        }

        fn band(&self, ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
            self.bands.fetch_add(1, Ordering::SeqCst);
            // Every band borrows the call's one re-layout instead of
            // redoing it (the pre-BandContext per-band loss).
            assert!(
                ctxs.iter().all(|ctx| ctx.weights().is_some()),
                "band did not receive the prepared weight re-layout"
            );
            SimdEngine::auto().band(ctxs, ops, lo, out);
        }
    }

    static COUNTING: CountingEngine = CountingEngine {
        prepares: AtomicUsize::new(0),
        bands: AtomicUsize::new(0),
    };

    let geom = ConvGeometry::new(3, 1, 1);
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, W, |c, y, x| {
        0.25 + (c + y + x) as f32 * 0.125
    }));
    let weights = Tensor4::from_fn(8, 3, 3, 3, |f, c, u, v| ((f + c + u + v) % 5) as f32 * 0.25 - 0.5);
    let op = forward_op(&input, &weights, geom);
    let want = op.run_on(&REFERENCE);

    let mut expected_prepares = 0;
    for threads in [1usize, 2, 4, 7] {
        let engine = InBands(&COUNTING, threads);
        let bands_before = COUNTING.bands.load(Ordering::SeqCst);
        assert_eq!(op.run_on(&engine), want, "threads {threads}");
        expected_prepares += 1;
        assert_eq!(
            COUNTING.prepares.load(Ordering::SeqCst),
            expected_prepares,
            "exactly one preparation per engine call at {threads} bands"
        );
        // Near-equal contiguous splitting: requesting `threads` bands over
        // 8 filters yields ceil(8 / ceil(8 / threads)) band calls.
        let per_band = 8usize.div_ceil(threads);
        assert_eq!(
            COUNTING.bands.load(Ordering::SeqCst) - bands_before,
            8usize.div_ceil(per_band),
            "band fan-out at {threads} bands"
        );
    }

    // Batched entry point: one preparation for the whole batch, not one
    // per sample or per band chunk.
    let ops = [op; 3];
    let engine = InBands(&COUNTING, 5);
    let mut outs = vec![vec![0.0f32; op.out_len()]; ops.len()];
    engine.run_batch(
        &ops,
        BatchOut::PerSample(outs.iter_mut().map(Vec::as_mut_slice).collect()),
    );
    for out in &outs {
        assert_eq!(out, &want);
    }
    assert_eq!(
        COUNTING.prepares.load(Ordering::SeqCst),
        expected_prepares + 1,
        "batched call prepares once"
    );
}

/// The im2row fallback legs through the registry handle: stride ≠ 1 (the
/// lowering is stride-1 only), a literal -0.0 bias (only the scalar skips
/// preserve its sign bit), and a map straddling the density cutoff (mixed
/// micro-kernel/sparse output rows) all stay bitwise equal to scalar.
#[test]
fn im2row_fallback_legs_match_scalar() {
    let engine = registry::lookup("im2row").expect("registered").engine();
    let weights = Tensor4::from_fn(9, 3, 3, 3, |f, c, u, v| {
        ((f * 7 + c * 5 + u * 3 + v) % 9) as f32 * 0.125 - 0.5
    });

    // Mixed-density map: channel 0 dense, channel 1 at the 1/8 cutoff
    // boundary, channel 2 far below it.
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, 16, |c, y, x| match c {
        0 => 0.3 + (y + x) as f32 * 0.05,
        1 if (y + x) % 8 == 0 => 1.0 + y as f32 * 0.25,
        2 if (y * 16 + x) % 40 == 0 => -0.75,
        _ => 0.0,
    }));

    for geom in [ConvGeometry::new(3, 1, 1), ConvGeometry::new(3, 2, 1)] {
        let op = forward_op(&input, &weights, geom);
        assert_eq!(op.run_on(engine), op.run_on(&REFERENCE), "stride {}", geom.stride);
    }

    let geom = ConvGeometry::new(3, 1, 1);
    let mut bias = vec![0.5f32; 9];
    bias[4] = -0.0;
    let op = StageOp::Forward {
        input: &input,
        weights: &weights,
        bias: Some(&bias),
        geom,
    };
    let bits = |values: Vec<f32>| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(op.run_on(engine)),
        bits(op.run_on(&REFERENCE)),
        "-0.0 bias leg"
    );
}
