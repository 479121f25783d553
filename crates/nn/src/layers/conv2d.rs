//! 2-D convolution layer with dataflow trace capture.

use crate::layer::{Batch, Layer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::dataflow::{ConvLayerTrace, LayerTrace};
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::engine::map_banded;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{ExecutionContext, RowMask};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{init, Tensor3, Tensor4};

/// A trainable 2-D convolution.
///
/// Every stage runs as one batched call on the execution context's
/// engine, over the sparse row dataflow: SRC for Forward, OSRC for GTW
/// (each sample's `dW` summed from `+0.0`, then added into the batch
/// gradient in sample order), and MSRC for GTA with the forward non-zero
/// masks fused in — the paper's ReLU-backward fusion: input-gradient
/// positions whose forward activation was zero stay zero. GTA is skipped
/// for the first layer of a network ([`Conv2d::set_first_layer`]).
///
/// Instrumentation: the layer records the density of its incoming output
/// gradients each backward pass (Table II's ρ_nnz), and when capture is
/// enabled it snapshots a [`ConvLayerTrace`] of sample 0 for the
/// accelerator simulator.
#[derive(Clone)]
pub struct Conv2d {
    name: String,
    geom: ConvGeometry,
    in_channels: usize,
    out_channels: usize,
    weights: Tensor4,
    bias: Vec<f32>,
    wgrad: Tensor4,
    bgrad: Vec<f32>,
    // The compressed inputs of the last training forward, which backward
    // (and trace capture) reuse and then drop.
    ctx_input_fms: Vec<SparseFeatureMap>,
    first_layer: bool,
    capture: bool,
    captured: Option<ConvLayerTrace>,
    dout_density_sum: f64,
    dout_density_count: usize,
    // Set during probe passes, which must leave the accumulators (snapshot
    // state) untouched.
    stats_frozen: bool,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        geom: ConvGeometry,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = init::kaiming_conv(&mut rng, out_channels, in_channels, geom.kernel, geom.kernel);
        Self {
            name: name.into(),
            geom,
            in_channels,
            out_channels,
            wgrad: Tensor4::zeros(out_channels, in_channels, geom.kernel, geom.kernel),
            weights,
            bias: vec![0.0; out_channels],
            bgrad: vec![0.0; out_channels],
            ctx_input_fms: Vec::new(),
            first_layer: false,
            capture: false,
            captured: None,
            dout_density_sum: 0.0,
            dout_density_count: 0,
            stats_frozen: false,
        }
    }

    /// Marks this as the network's first layer: its input gradient is never
    /// needed, so the GTA step is skipped (also reflected in captured
    /// traces).
    pub fn set_first_layer(&mut self, first: bool) {
        self.first_layer = first;
    }

    /// Immutable access to the weights (for tests and inspection).
    pub fn weights(&self) -> &Tensor4 {
        &self.weights
    }

    /// Mean density of incoming output gradients since the last reset.
    pub fn mean_dout_density(&self) -> Option<f64> {
        if self.dout_density_count == 0 {
            None
        } else {
            Some(self.dout_density_sum / self.dout_density_count as f64)
        }
    }
}

/// Compresses the `n` dense maps `sample` yields, one contiguous run of
/// samples per band (a map is its own sample's value, so the band count
/// cannot show).
fn compress<'t>(n: usize, sample: impl Fn(usize) -> &'t Tensor3 + Sync) -> Vec<SparseFeatureMap> {
    let elements = (0..n).map(|s| sample(s).len()).sum();
    map_banded(n, elements, &|s| SparseFeatureMap::from_tensor(sample(s)))
}

/// Adds one sample's bias gradient — each channel's sum of `dout` — into
/// `bgrad`, from the compressed map's stored non-zeros: each channel's
/// contiguous arena slice, in row order. The bits are those of
/// `conv::bias_grad` over the dense map: the channel sum starts at `+0.0`,
/// so it is never `-0.0`, and the `±0.0` terms it skips would leave it
/// unchanged.
fn add_bias_grad(bgrad: &mut [f32], dout: &SparseFeatureMap) {
    for (c, bg) in bgrad.iter_mut().enumerate() {
        *bg += dout.channel_values(c).iter().fold(0.0f32, |sum, &v| sum + v);
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        for x in xs.iter() {
            assert_eq!(
                x.channels(),
                self.in_channels,
                "{}: input channel mismatch",
                self.name
            );
        }
        // One batched engine call; the compressed maps alone are cached for
        // backward, so dense activations borrowed from the dataset are
        // never cloned.
        let fms = compress(xs.len(), |s| &xs[s]);
        let out = ctx
            .forward_batch_for(&self.name, &fms, &self.weights, Some(&self.bias), self.geom)
            .into_iter()
            .collect();
        if train {
            self.ctx_input_fms = fms;
        }
        out
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        ctx: &mut ExecutionContext,
        _streams: &StepStreams,
    ) -> Vec<Tensor3> {
        // The cached maps are dropped when this pass is done, so a second
        // backward needs a fresh forward.
        let input_fms = std::mem::take(&mut self.ctx_input_fms);
        assert_eq!(
            grads.len(),
            input_fms.len(),
            "{}: backward called with mismatched batch",
            self.name
        );
        if self.capture {
            // Snapshot sample 0 as a dataflow trace, reusing the forward
            // pass's compression.
            let input_fm = input_fms[0].clone();
            let masks = if self.first_layer {
                Vec::new()
            } else {
                input_fm.masks()
            };
            self.captured = Some(ConvLayerTrace {
                name: self.name.clone(),
                geom: self.geom,
                filters: self.out_channels,
                input: input_fm,
                input_masks: masks,
                dout: SparseFeatureMap::from_tensor(&grads[0]),
                needs_input_grad: !self.first_layer,
            });
        }

        let dout_fms = compress(grads.len(), |s| &grads[s]);
        // ρ_nnz of dO over the whole batch, from the non-zeros the
        // compressed maps already counted.
        let total: usize = grads.iter().map(Tensor3::len).sum();
        if total > 0 && !self.stats_frozen {
            let nnz: usize = dout_fms.iter().map(SparseFeatureMap::nnz).sum();
            self.dout_density_sum += nnz as f64 / total as f64;
            self.dout_density_count += 1;
        }
        // Batched GTW adds every sample's gradient into the batch gradient,
        // in sample order — one engine call.
        ctx.weight_grad_batch_for(&self.name, &input_fms, &dout_fms, self.geom, &mut self.wgrad);
        for fm in &dout_fms {
            add_bias_grad(&mut self.bgrad, fm);
        }
        // Each din takes its own sample's spatial extent, so mixed-shape
        // batches stay correct (the engine's batched GTA falls back to
        // per-sample execution for them).
        let mut dins: Vec<Tensor3> = input_fms
            .iter()
            .map(|fm| Tensor3::zeros(fm.channels(), fm.height(), fm.width()))
            .collect();
        if !self.first_layer {
            // Batched GTA with the forward masks fused in (the paper's
            // ReLU-backward fusion): positions whose forward input was zero
            // keep a zero gradient. The first layer skips GTA — the network
            // input needs no gradient — and returns the zero tensors as-is.
            let elements = dins.iter().map(Tensor3::len).sum();
            let masks: Vec<Vec<RowMask>> = map_banded(input_fms.len(), elements, &|s| input_fms[s].masks());
            ctx.input_grad_batch_for_into(&self.name, &dout_fms, &self.weights, self.geom, &masks, &mut dins);
        }
        dins
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.weights.as_mut_slice(), self.wgrad.as_mut_slice());
        f(&mut self.bias, &mut self.bgrad);
    }

    fn zero_grads(&mut self) {
        self.wgrad.fill(0.0);
        self.bgrad.fill(0.0);
    }

    fn set_capture(&mut self, enable: bool) {
        self.capture = enable;
        if !enable {
            self.captured = None;
        }
    }

    fn collect_traces(&self, out: &mut Vec<LayerTrace>) {
        if let Some(t) = &self.captured {
            out.push(LayerTrace::Conv(t.clone()));
        }
    }

    fn grad_densities(&self, out: &mut Vec<(String, f64)>) {
        if let Some(d) = self.mean_dout_density() {
            out.push((self.name.clone(), d));
        }
    }

    fn reset_density_stats(&mut self) {
        self.dout_density_sum = 0.0;
        self.dout_density_count = 0;
    }

    fn set_prune_frozen(&mut self, frozen: bool) {
        self.stats_frozen = frozen;
    }

    fn collect_state(&self, out: &mut Vec<LayerState>) {
        out.push(LayerState::Params {
            layer: self.name.clone(),
            tensors: vec![self.weights.as_slice().to_vec(), self.bias.clone()],
        });
        // The density accumulators feed ρ_nnz reporting, so a resumed run
        // must continue them for a byte-identical metric trajectory.
        out.push(LayerState::Density {
            layer: self.name.clone(),
            sum: self.dout_density_sum,
            count: self.dout_density_count as u64,
        });
    }

    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        match state {
            LayerState::Params { layer, tensors } if *layer == self.name => match tensors.as_slice() {
                [w, b] if w.len() == self.weights.len() && b.len() == self.bias.len() => {
                    self.weights.as_mut_slice().copy_from_slice(w);
                    self.bias.copy_from_slice(b);
                    Ok(true)
                }
                _ => Err(format!(
                    "conv layer {:?}: snapshot params do not match [{}, {}]",
                    self.name,
                    self.weights.len(),
                    self.bias.len()
                )),
            },
            LayerState::Density { layer, sum, count } if *layer == self.name => {
                self.dout_density_sum = *sum;
                self.dout_density_count = *count as usize;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_tensor::{conv, stats};

    fn ctx() -> ExecutionContext {
        ExecutionContext::scalar()
    }

    #[test]
    fn forward_shapes() {
        let mut conv = Conv2d::new("c", 3, 8, ConvGeometry::new(3, 1, 1), 1);
        let xs = vec![Tensor3::zeros(3, 8, 8), Tensor3::zeros(3, 8, 8)];
        let out = conv.forward(xs.into(), &mut ctx(), true);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].shape(), (8, 8, 8));
    }

    #[test]
    fn backward_accumulates_over_batch() {
        let mut conv = Conv2d::new("c", 1, 1, ConvGeometry::new(1, 1, 0), 2);
        let xs = vec![
            Tensor3::from_vec(1, 1, 2, vec![1.0, 2.0]),
            Tensor3::from_vec(1, 1, 2, vec![3.0, 4.0]),
        ];
        conv.forward(xs.into(), &mut ctx(), true);
        let grads = vec![
            Tensor3::from_vec(1, 1, 2, vec![1.0, 1.0]),
            Tensor3::from_vec(1, 1, 2, vec![1.0, 1.0]),
        ];
        conv.backward(grads, &mut ctx(), &StepStreams::new(0, 0, 0));
        // dW = sum over batch of <g, x> = (1+2) + (3+4) = 10
        assert_eq!(conv.wgrad.get(0, 0, 0, 0), 10.0);
        assert_eq!(conv.bgrad[0], 4.0);
    }

    #[test]
    fn first_layer_skips_input_grad() {
        let mut conv = Conv2d::new("c", 2, 2, ConvGeometry::new(3, 1, 1), 3);
        conv.set_first_layer(true);
        let xs = vec![Tensor3::from_fn(2, 4, 4, |_, y, x| (y + x) as f32)];
        conv.forward(xs.into(), &mut ctx(), true);
        let dins = conv.backward(
            vec![Tensor3::from_fn(2, 4, 4, |_, _, _| 1.0)],
            &mut ctx(),
            &StepStreams::new(0, 0, 0),
        );
        assert!(dins[0].as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn capture_produces_valid_trace() {
        let mut conv = Conv2d::new("c", 2, 3, ConvGeometry::new(3, 1, 1), 4);
        conv.set_capture(true);
        let xs = vec![Tensor3::from_fn(2, 4, 4, |c, y, x| {
            if (c + y + x) % 2 == 0 {
                1.0
            } else {
                0.0
            }
        })];
        conv.forward(xs.into(), &mut ctx(), true);
        conv.backward(
            vec![Tensor3::from_fn(3, 4, 4, |_, y, x| (y * x % 2) as f32)],
            &mut ctx(),
            &StepStreams::new(0, 0, 0),
        );
        let mut traces = Vec::new();
        conv.collect_traces(&mut traces);
        assert_eq!(traces.len(), 1);
        if let LayerTrace::Conv(t) = &traces[0] {
            assert!(t.validate().is_ok());
            assert!(t.input_density() < 1.0);
        } else {
            panic!("expected conv trace");
        }
    }

    #[test]
    fn density_instrumentation() {
        let mut conv = Conv2d::new("c", 1, 1, ConvGeometry::new(1, 1, 0), 5);
        conv.forward(vec![Tensor3::zeros(1, 2, 2)].into(), &mut ctx(), true);
        let g = Tensor3::from_vec(1, 2, 2, vec![1.0, 0.0, 0.0, 0.0]);
        conv.backward(vec![g], &mut ctx(), &StepStreams::new(0, 0, 0));
        assert_eq!(conv.mean_dout_density(), Some(0.25));
        conv.reset_density_stats();
        assert_eq!(conv.mean_dout_density(), None);

        // The layer counts through the compressed maps it builds; the
        // checkpointed accumulators hold the bits of the dense count — over
        // a batch with natural zeros, −0.0 (a zero to both) and an
        // all-zero sample.
        let mut conv = Conv2d::new("c", 2, 3, ConvGeometry::new(3, 1, 1), 5);
        let mut want = 0.0f64;
        for step in 0..3 {
            conv.forward(vec![Tensor3::zeros(2, 4, 5); 3].into(), &mut ctx(), true);
            let grads: Vec<Tensor3> = (0..3)
                .map(|s| {
                    Tensor3::from_fn(3, 4, 5, |c, y, x| match (c + y + 2 * x + step) % 4 {
                        _ if s == 2 => 0.0,
                        0 => 0.5,
                        1 => -0.0,
                        2 => -1.5,
                        _ => 0.0,
                    })
                })
                .collect();
            let nnz: usize = grads.iter().map(|g| stats::nnz(g.as_slice())).sum();
            want += nnz as f64 / (3 * 3 * 4 * 5) as f64;
            conv.backward(grads, &mut ctx(), &StepStreams::new(0, 0, step as u64));
        }
        let mut state = Vec::new();
        conv.collect_state(&mut state);
        let density = state.into_iter().find_map(|s| match s {
            LayerState::Density { sum, count, .. } => Some((sum.to_bits(), count)),
            _ => None,
        });
        assert_eq!(density, Some((want.to_bits(), 3)));
        assert!(want > 0.0 && want < 3.0);
    }

    /// A backward pass drops the cached input maps, so a second backward
    /// without a fresh forward is a batch mismatch.
    #[test]
    #[should_panic(expected = "backward called with mismatched batch")]
    fn backward_consumes_the_cached_inputs() {
        let mut conv = Conv2d::new("c", 1, 1, ConvGeometry::new(1, 1, 0), 9);
        let xs = vec![Tensor3::from_vec(1, 1, 2, vec![1.0, 2.0])];
        conv.forward(xs.into(), &mut ctx(), true);
        let grads = || vec![Tensor3::from_vec(1, 1, 2, vec![1.0, 1.0])];
        conv.backward(grads(), &mut ctx(), &StepStreams::new(0, 0, 0));
        assert!(conv.ctx_input_fms.is_empty());
        conv.backward(grads(), &mut ctx(), &StepStreams::new(0, 0, 1));
    }

    /// The layer sums the bias gradient from the compressed maps; it holds
    /// the bits of `conv::bias_grad` over the dense gradients, accumulated
    /// over the batch — through natural zeros, a channel of `-0.0` only,
    /// NaN, ±∞ and an all-zero sample.
    #[test]
    fn sparse_bias_grad_matches_the_dense_sum_bitwise() {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut conv = Conv2d::new("c", 2, 4, geom, 8);
        let xs: Vec<Tensor3> = (0..4)
            .map(|s| Tensor3::from_fn(2, 3, 5, |c, y, x| ((c + y * x + s) % 3) as f32 * 0.5))
            .collect();
        conv.forward(xs.into(), &mut ctx(), true);
        let grads: Vec<Tensor3> = (0..4)
            .map(|s| {
                Tensor3::from_fn(4, 3, 5, |c, y, x| match (s, c, (y * 5 + x + c) % 6) {
                    (3, _, r) => [0.0, -0.0][r % 2],
                    (_, 0, _) => -0.0,
                    (1, 1, 0) => f32::NAN,
                    (2, 2, 0) => f32::INFINITY,
                    (2, 3, 1) => f32::NEG_INFINITY,
                    (_, _, 0 | 3) => 0.0,
                    (_, _, 1) => -0.0,
                    (_, c, r) => (r as f32 - 2.5) * 0.375 + c as f32 * 0.125 + s as f32 * 0.0625,
                })
            })
            .collect();
        let mut want = vec![0.0f32; 4];
        for g in &grads {
            for (w, d) in want.iter_mut().zip(conv::bias_grad(g)) {
                *w += d;
            }
        }
        conv.backward(grads, &mut ctx(), &StepStreams::new(0, 0, 0));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&conv.bgrad), bits(&want));
        assert!(conv.bgrad[1].is_nan() && conv.bgrad[2].is_infinite());
    }

    #[test]
    fn zero_grads_clears() {
        let mut conv = Conv2d::new("c", 1, 1, ConvGeometry::new(1, 1, 0), 6);
        conv.forward(
            vec![Tensor3::from_vec(1, 1, 1, vec![2.0])].into(),
            &mut ctx(),
            true,
        );
        conv.backward(
            vec![Tensor3::from_vec(1, 1, 1, vec![3.0])],
            &mut ctx(),
            &StepStreams::new(0, 0, 0),
        );
        assert_ne!(conv.wgrad.get(0, 0, 0, 0), 0.0);
        conv.zero_grads();
        assert_eq!(conv.wgrad.get(0, 0, 0, 0), 0.0);
        assert_eq!(conv.bgrad[0], 0.0);
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new("c", 3, 8, ConvGeometry::new(3, 1, 1), 7);
        assert_eq!(Layer::param_count(&conv), 8 * 3 * 9 + 8);
    }
}
