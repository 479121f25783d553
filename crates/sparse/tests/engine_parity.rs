//! Property tests pinning the engine contracts:
//!
//! * **one differential oracle, stage as an input** — `single_op_parity`
//!   and `batch_parity` generate the stage, the shapes (1-wide and 1-high
//!   maps, kernels wider than the unpadded map, strides, padding), the
//!   per-row densities (empty rows, empty maps), a pre-seeded output and
//!   the band count, and hold every engine under test to the scalar
//!   reference at one band bit for bit, the scalar reference to the dense
//!   `sparsetrain_tensor::conv` within tolerance, and every engine's
//!   `run_batch` (fixed-point included) to its own sample-by-sample runs;
//! * the registry enumeration below automatically covers every distinct
//!   registered engine once — `scalar`, `simd` (runtime-dispatched
//!   AVX2/portable lanes) and `fixed`, each banded by the pool; an alias
//!   is the engine it names — or just the `SPARSETRAIN_ENGINE` override
//!   when set, as in one cell of the CI engine matrix;
//! * one engine call prepares its [`BandContext`]s (the weight re-layout
//!   every sample shares) exactly once regardless of band count, and
//!   every band borrows the shared state;
//! * the Q8.8 [`FixedPointEngine`] stays within its analytic quantization
//!   error bounds against the scalar reference (golden tests).
//!
//! Parity is asserted with exact `==` on the raw f32 slices — banding only
//! ever splits work across disjoint output regions while keeping the
//! scalar per-row accumulation order, so any difference at all is a bug.

use proptest::prelude::*;
use sparsetrain_sparse::engine::run_batch_in_bands;
use sparsetrain_sparse::panels::PANEL_CACHE_BYTES;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{
    registry, BandContext, BatchOut, KernelEngine, PanelCache, RowMask, ScalarEngine, SimdEngine, Stage,
    StageOp,
};
use sparsetrain_tensor::conv::{self, ConvGeometry};
use sparsetrain_tensor::qformat::QFormat;
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

/// The registry engines under test: the `SPARSETRAIN_ENGINE` override when
/// set (the CI matrix leg), otherwise each distinct engine of the registry
/// once, under the first name it is listed by — an alias dispatches to the
/// very engine its target does, so testing it again proves nothing.
fn engines_under_test() -> Vec<registry::EngineHandle> {
    match registry::env_override().expect("SPARSETRAIN_ENGINE must name a registered engine") {
        Some(handle) => vec![handle],
        None => {
            let mut distinct: Vec<registry::EngineHandle> = Vec::new();
            for &handle in registry::registry() {
                if !distinct.iter().any(|d| d.same_engine(handle)) {
                    distinct.push(handle);
                }
            }
            distinct
        }
    }
}

/// `op` on `engine`, added into the pre-seeded `out`: a batch of one.
fn run_into(engine: &dyn KernelEngine, op: &StageOp<'_>, out: &mut [f32]) {
    engine.run_batch(std::slice::from_ref(op), BatchOut::PerSample(vec![out]), None);
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
    fn run_batch(&self, ops: &[StageOp<'_>], out: BatchOut<'_>, panels: Option<&mut PanelCache>) {
        run_batch_in_bands(self.0, ops, out, self.1, panels);
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
        run_into(&REFERENCE, &op, &mut want);
        assert_close(&want, &layer.dense_reference(&sample, &weights, bias), 1e-4)?;
        for (name, engine, float) in oracle_engines(&InBands(&ScalarEngine, layer.threads)) {
            let mut got = sample.seed.clone();
            run_into(engine, &op, &mut got);
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
    /// fixed-point included, equals its own sample-by-sample runs, and
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
                run_into(engine, op, &mut outs[if shared { 0 } else { s }]);
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
            engine.run_batch(&ops, out, None);
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
        let eps = QFormat::q8_8().epsilon();
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
        let eps = QFormat::q8_8().epsilon();
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
    let mut trainer = Trainer::new(net, TrainConfig::quick().with_engine_name(handle.name()));
    trainer.train_epoch(&train);
    let tapped = trainer.tap_gradients(&train);
    let mut weights = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| weights.extend_from_slice(w));
    PrunedEpoch { weights, tapped }
}

/// For every distinct engine: a pruned training epoch is deterministic
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

/// The float engines (`scalar` and `simd`, each once: the aliases
/// dispatch to one of them) share one bitwise training trajectory with
/// pruning enabled — banding the convolutions across threads, sweeping
/// them across vector lanes *and* banding the pruning change nothing.
#[test]
fn pruned_training_identical_on_float_engines() {
    if registry::env_override().expect("valid engine").is_some() {
        // The CI engine matrix pins a single engine; the cross-engine
        // comparison runs in the unrestricted leg.
        return;
    }
    let scalar = pruned_epoch(registry::lookup("scalar").unwrap());
    let others = engines_under_test()
        .into_iter()
        .filter(|h| h.name() != "scalar" && !h.name().starts_with("fixed"));
    for handle in others {
        let name = handle.name();
        let other = pruned_epoch(handle);
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
        fn prepare(&self, ops: &[StageOp<'_>], panels: Option<&mut PanelCache>) -> Vec<BandContext> {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            let ctxs = SimdEngine::auto().prepare(ops, panels);
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
        None,
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

/// `simd`'s scalar fallback legs, reached through an alias handle
/// (`im2row`): a stride-2 Forward beside stride 1, on a map mixing a dense
/// channel with sparse ones, and a literal -0.0 bias (only the scalar
/// skips preserve its sign bit) stay bitwise equal to scalar.
#[test]
fn simd_stride_and_negative_zero_bias_legs_match_scalar_through_an_alias() {
    let handle = registry::lookup("im2row").expect("registered");
    assert!(handle.same_engine(registry::lookup("simd").unwrap()));
    let engine = handle.engine();
    let weights = Tensor4::from_fn(9, 3, 3, 3, |f, c, u, v| {
        ((f * 7 + c * 5 + u * 3 + v) % 9) as f32 * 0.125 - 0.5
    });

    // Mixed-density map: channel 0 dense, channel 1 at one in eight,
    // channel 2 far sparser.
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

// ---------------------------------------------------------------------------
// Seeds, the two GTW paths and the panel cache, at 1 and 4 bands
// ---------------------------------------------------------------------------

/// A deterministic `c × h × w` map with about `pct` % non-zeros, none of
/// them `-0.0`.
fn seeded_map(c: usize, h: usize, w: usize, pct: u64, s: &mut u64) -> Tensor3 {
    Tensor3::from_fn(c, h, w, |_, _, _| {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        if *s % 100 < pct {
            (*s % 1000) as f32 / 400.0 - 1.25 + 1e-3
        } else {
            0.0
        }
    })
}

/// A non-zero seed for an output of `len` elements.
fn preseeded(len: usize) -> Vec<f32> {
    (0..len).map(|i| 0.375 - (i % 11) as f32 * 0.0625).collect()
}

/// A layer's operands: `c → f` filters over `h × w` maps, `3 × 3`, pad 1.
struct Operands {
    input: SparseFeatureMap,
    dout: SparseFeatureMap,
    masks: Vec<RowMask>,
    weights: Tensor4,
    geom: ConvGeometry,
}

fn operands(c: usize, f: usize, hw: usize, seed: u64) -> Operands {
    let mut s = seed;
    let geom = ConvGeometry::new(3, 1, 1);
    let input = SparseFeatureMap::from_tensor(&seeded_map(c, hw, hw, 55, &mut s));
    let dout = SparseFeatureMap::from_tensor(&seeded_map(f, hw, hw, 30, &mut s));
    let masks = input.masks();
    let weights = Tensor4::from_vec(
        f,
        c,
        3,
        3,
        seeded_map(1, 1, f * c * 9, 100, &mut s).as_slice().to_vec(),
    );
    Operands {
        input,
        dout,
        masks,
        weights,
        geom,
    }
}

impl Operands {
    /// Forward (no bias) and GTA on these operands' `weights`.
    fn ops_with<'a>(&'a self, weights: &'a Tensor4) -> [StageOp<'a>; 2] {
        [
            forward_op(&self.input, weights, self.geom),
            StageOp::InputGrad {
                dout: &self.dout,
                weights,
                geom: self.geom,
                masks: &self.masks,
                in_h: self.input.height(),
                in_w: self.input.width(),
            },
        ]
    }
}

/// `op` on `engine` at `bands` bands into a copy of `seed`.
fn run_seeded(engine: &dyn KernelEngine, op: StageOp<'_>, bands: usize, seed: &[f32]) -> Vec<f32> {
    let mut out = seed.to_vec();
    run_batch_in_bands(engine, &[op], BatchOut::PerSample(vec![&mut out]), bands, None);
    out
}

/// Bit patterns, so `-0.0` and `+0.0` differ.
fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The simd engine's seeding branches on pre-seeded outputs: a Forward
/// without bias reads its seed from `out` (with a bias it copies the bias
/// into each tile column), and a GTA into a non-zero `din` seeds its tile
/// from it (an all-`+0.0` `din` skips the seed).
#[test]
fn preseeded_forward_and_gta_match_scalar() {
    let layer = operands(17, 9, 6, 0x5EED);
    let bias: Vec<f32> = (0..9).map(|i| i as f32 * 0.25 - 1.0).collect();
    let [forward, input_grad] = layer.ops_with(&layer.weights);
    let with_bias = StageOp::Forward {
        input: &layer.input,
        weights: &layer.weights,
        bias: Some(&bias),
        geom: layer.geom,
    };
    for op in [forward, with_bias, input_grad] {
        for seed in [vec![0.0; op.out_len()], preseeded(op.out_len())] {
            let want = bits_of(&run_seeded(&REFERENCE, op, 1, &seed));
            for simd in [SimdEngine::auto(), SimdEngine::portable()] {
                for bands in [1, 4] {
                    let got = run_seeded(&simd, op, bands, &seed);
                    assert_eq!(bits_of(&got), want, "{} at {bands} bands", op.stage());
                }
            }
        }
    }
}

/// GTW's two paths into a non-zero `dW`: one op adds its sample's `dW`
/// straight in, more share a transposed accumulator.
#[test]
fn preseeded_weight_grad_matches_scalar_on_both_paths() {
    let layers: Vec<Operands> = (0..3).map(|s| operands(17, 9, 6, 0xD0 + s)).collect();
    let ops: Vec<StageOp<'_>> = layers
        .iter()
        .map(|l| StageOp::WeightGrad {
            input: &l.input,
            dout: &l.dout,
            geom: l.geom,
        })
        .collect();
    for ops in [&ops[..1], &ops[..]] {
        let seed = preseeded(ops[0].out_len());
        let run = |engine: &dyn KernelEngine, bands: usize| {
            let mut dw = seed.clone();
            run_batch_in_bands(engine, ops, BatchOut::Shared(&mut dw), bands, None);
            bits_of(&dw)
        };
        let want = run(&REFERENCE, 1);
        for simd in [SimdEngine::auto(), SimdEngine::portable()] {
            for bands in [1, 4] {
                assert_eq!(run(&simd, bands), want, "{} ops at {bands} bands", ops.len());
            }
        }
    }
}

/// Forward and GTA of one sample on `weights` through `cache`, bitwise
/// against the scalar reference at 1 and 4 bands.
fn assert_cached_matches_scalar(layer: &Operands, weights: &Tensor4, cache: &mut PanelCache, what: &str) {
    for op in layer.ops_with(weights) {
        let seed = preseeded(op.out_len());
        let want = bits_of(&run_seeded(&REFERENCE, op, 1, &seed));
        for bands in [1, 4] {
            let mut out = seed.clone();
            run_batch_in_bands(
                &SimdEngine::auto(),
                &[op],
                BatchOut::PerSample(vec![&mut out]),
                bands,
                Some(&mut *cache),
            );
            assert_eq!(bits_of(&out), want, "{what}: {} at {bands} bands", op.stage());
        }
    }
}

/// Weights mutated in place keep their address but not their bits: the
/// cache must build new panels, never hand out the old ones.
#[test]
fn cache_rebuilds_panels_for_weights_mutated_in_place() {
    let layer = operands(16, 32, 8, 0xCAFE);
    let mut weights = layer.weights.clone();
    let mut cache = PanelCache::new();
    assert_cached_matches_scalar(&layer, &weights, &mut cache, "first use");
    for step in 0..3 {
        for (i, w) in weights.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == step {
                *w = *w * 0.5 + 0.125;
            }
        }
        // One element, signed zero: equal as floats, not as bits.
        weights.as_mut_slice()[7] = if step % 2 == 0 { -0.0 } else { 0.0 };
        assert_cached_matches_scalar(&layer, &weights, &mut cache, "after an in-place step");
    }
    assert!(cache.bytes() <= PANEL_CACHE_BYTES);
}

/// A snapshot round trip: the conv's weights are stepped and then restored
/// from the snapshot, bits and all. The restored weights hit the entry
/// built before the step, and the results stay the scalar ones.
#[test]
fn cache_serves_weights_restored_from_a_snapshot() {
    use sparsetrain_nn::layer::Layer;
    use sparsetrain_nn::layers::Conv2d;

    let layer = operands(16, 32, 8, 0xBEEF);
    let mut conv = Conv2d::new("conv", 16, 32, layer.geom, 9);
    let mut state = Vec::new();
    conv.collect_state(&mut state);
    let mut cache = PanelCache::new();
    assert_cached_matches_scalar(&layer, conv.weights(), &mut cache, "before the step");
    let held = cache.len();

    conv.visit_params(&mut |w, _| w.iter_mut().for_each(|v| *v -= 0.01));
    assert_cached_matches_scalar(&layer, conv.weights(), &mut cache, "after the step");
    for s in &state {
        conv.restore_state(s).expect("own snapshot restores");
    }
    assert_cached_matches_scalar(&layer, conv.weights(), &mut cache, "restored");
    assert!(
        cache.len() <= held + 1,
        "the restored weights found their old entry"
    );
}

/// Two tensors holding the same bits share one entry, and either serves
/// the other's calls.
#[test]
fn cache_shares_an_entry_between_tensors_with_equal_bits() {
    let layer = operands(16, 32, 8, 0xF00D);
    let twin = layer.weights.clone();
    let mut cache = PanelCache::new();
    assert_cached_matches_scalar(&layer, &layer.weights, &mut cache, "original");
    assert_cached_matches_scalar(&layer, &twin, &mut cache, "twin");
    assert_eq!(cache.len(), 1, "equal bits, one entry");
}

/// More weight tensors than the cap holds, revisited in a cycle: entries
/// are evicted, the bytes stay under the cap, and every call is still the
/// scalar result.
#[test]
fn cache_evicts_when_more_keys_than_the_cap_holds() {
    let layers: Vec<Operands> = (0..4).map(|s| operands(16, 32, 8, 0xA0 + s)).collect();
    let mut cache = PanelCache::new();
    for round in 0..2 {
        for layer in &layers {
            assert_cached_matches_scalar(layer, &layer.weights, &mut cache, &format!("round {round}"));
            assert!(cache.bytes() <= PANEL_CACHE_BYTES);
        }
    }
    assert!(
        cache.len() < layers.len(),
        "four 54 KiB entries cannot all be held"
    );
}

// ---------------------------------------------------------------------------
// Gradients with no zero: the simd engine's dense GTA and GTW kernels
// ---------------------------------------------------------------------------

/// A `c × h × w` map with no zero: the gradient shape on which the simd
/// engine swaps its non-zero walk for output-stationary kernels.
fn no_zero_map(c: usize, h: usize, w: usize, s: &mut u64) -> SparseFeatureMap {
    let map = SparseFeatureMap::from_tensor(&seeded_map(c, h, w, 100, s));
    assert_eq!(map.nnz(), c * h * w);
    map
}

/// The float engines under test plus the portable simd path.
fn float_engines() -> Vec<(&'static str, &'static dyn KernelEngine)> {
    static PORTABLE: SimdEngine = SimdEngine::portable();
    let mut engines: Vec<(&'static str, &'static dyn KernelEngine)> = engines_under_test()
        .into_iter()
        .filter(|h| !h.name().starts_with("fixed"))
        .map(|h| (h.name(), h.engine()))
        .collect();
    engines.push(("simd (portable)", &PORTABLE));
    engines
}

/// GTA and GTW of three samples whose gradients hold no zero — plus a
/// fourth whose gradient holds exactly one, which the walk takes — on
/// pre-seeded outputs: every float engine matches the scalar reference bit
/// for bit as a batch at 1, 2 and 5 bands, and as one-op calls drawing
/// their panels from a cache. Every kernel size (1, 3, 5), stride (1, 2)
/// and padding (0–2), with channel / filter counts 3, 8, 9, 16, 32 and 48
/// (whole lane blocks, partial ones, both) rotating through the shapes.
#[test]
fn gradients_without_zeros_match_scalar_bitwise() {
    let widths = [(3, 48), (8, 32), (9, 16), (16, 9), (32, 8), (48, 3)];
    let mut s = 0x0DE5_u64;
    let mut case = 0;
    for k in [1, 3, 5] {
        for stride in [1, 2] {
            for pad in 0..=2 {
                let geom = ConvGeometry::new(k, stride, pad);
                let (c, f) = widths[case % widths.len()];
                case += 1;
                let (h, w) = (5, 6);
                let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
                let weights = Tensor4::from_vec(
                    f,
                    c,
                    k,
                    k,
                    seeded_map(1, 1, f * c * k * k, 90, &mut s).as_slice().to_vec(),
                );
                let mut douts: Vec<SparseFeatureMap> =
                    (0..3).map(|_| no_zero_map(f, oh, ow, &mut s)).collect();
                let mut one_zero = douts[0].to_tensor();
                one_zero.as_mut_slice()[(f * oh * ow) / 2] = 0.0;
                douts.push(SparseFeatureMap::from_tensor(&one_zero));
                let inputs: Vec<SparseFeatureMap> = (0..4)
                    .map(|_| SparseFeatureMap::from_tensor(&seeded_map(c, h, w, 55, &mut s)))
                    .collect();
                let masks: Vec<Vec<RowMask>> = inputs.iter().map(SparseFeatureMap::masks).collect();
                let gta: Vec<StageOp<'_>> = (0..4)
                    .map(|i| StageOp::InputGrad {
                        dout: &douts[i],
                        weights: &weights,
                        geom,
                        masks: &masks[i],
                        in_h: h,
                        in_w: w,
                    })
                    .collect();
                let gtw: Vec<StageOp<'_>> = (0..4)
                    .map(|i| StageOp::WeightGrad {
                        input: &inputs[i],
                        dout: &douts[i],
                        geom,
                    })
                    .collect();
                let what = format!("k={k} s={stride} p={pad} c={c} f={f}");
                for ops in [&gta[..], &gtw[..]] {
                    let shared = ops[0].stage() == Stage::WeightGrad;
                    let seeds: Vec<Vec<f32>> = (0..if shared { 1 } else { ops.len() })
                        .map(|_| preseeded(ops[0].out_len()))
                        .collect();
                    let run = |engine: &dyn KernelEngine, bands: usize| {
                        let mut outs = seeds.clone();
                        let out = if shared {
                            BatchOut::Shared(&mut outs[0])
                        } else {
                            BatchOut::PerSample(outs.iter_mut().map(Vec::as_mut_slice).collect())
                        };
                        run_batch_in_bands(engine, ops, out, bands, None);
                        outs.iter().map(|o| bits_of(o)).collect::<Vec<_>>()
                    };
                    let want = run(&REFERENCE, 1);
                    for (name, engine) in float_engines() {
                        for bands in [1, 2, 5] {
                            assert_eq!(
                                run(engine, bands),
                                want,
                                "{} {name} {what} batch at {bands} bands",
                                ops[0].stage()
                            );
                        }
                        let mut cache = PanelCache::new();
                        for op in ops {
                            let seed = preseeded(op.out_len());
                            let want = bits_of(&run_seeded(&REFERENCE, *op, 1, &seed));
                            for bands in [1, 2, 5] {
                                let mut out = seed.clone();
                                run_batch_in_bands(
                                    engine,
                                    &[*op],
                                    BatchOut::PerSample(vec![&mut out]),
                                    bands,
                                    Some(&mut cache),
                                );
                                assert_eq!(
                                    bits_of(&out),
                                    want,
                                    "{} {name} {what} cached one-op call at {bands} bands",
                                    op.stage()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The hazards the dense kernels must not paper over, on gradients with
/// no zero: a `din` / `dW` seeded with `-0.0`, an infinite weight (whose
/// product with GTA's zero padding would be NaN) and a NaN in `dout`. Every
/// float engine keeps the scalar reference's bits at 1, 2 and 5 bands.
#[test]
fn gradients_without_zeros_keep_the_hazard_fallbacks() {
    let mut s = 0xFA11_u64;
    let geom = ConvGeometry::new(3, 1, 1);
    let (c, f, hw) = (16, 8, 6);
    let input = SparseFeatureMap::from_tensor(&seeded_map(c, hw, hw, 55, &mut s));
    let masks = input.masks();
    let weights = Tensor4::from_vec(
        f,
        c,
        3,
        3,
        seeded_map(1, 1, f * c * 9, 90, &mut s).as_slice().to_vec(),
    );
    let mut infinite = weights.clone();
    // Filter 0, channel 4, tap (0, 0): it reads GTA's padded column.
    infinite.as_mut_slice()[36] = f32::INFINITY;
    let dense = no_zero_map(f, hw, hw, &mut s);
    let mut nan = dense.to_tensor();
    nan.as_mut_slice()[9] = f32::NAN;
    let nan = SparseFeatureMap::from_tensor(&nan);
    for (dout, weights, negative_zero, what) in [
        (&dense, &weights, true, "-0.0 seed"),
        (&dense, &infinite, false, "infinite weight"),
        (&nan, &weights, false, "NaN in dout"),
    ] {
        let ops = [
            StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks: &masks,
                in_h: hw,
                in_w: hw,
            },
            StageOp::WeightGrad {
                input: &input,
                dout,
                geom,
            },
        ];
        for op in ops {
            let mut seed = preseeded(op.out_len());
            if negative_zero {
                seed.iter_mut().step_by(4).for_each(|v| *v = -0.0);
            }
            let want = bits_of(&run_seeded(&REFERENCE, op, 1, &seed));
            for (name, engine) in float_engines() {
                for bands in [1, 2, 5] {
                    let got = run_seeded(engine, op, bands, &seed);
                    assert_eq!(
                        bits_of(&got),
                        want,
                        "{} {name} {what} at {bands} bands",
                        op.stage()
                    );
                }
            }
        }
    }
}
