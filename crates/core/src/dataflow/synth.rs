//! Synthetic trace generation for architecture sweeps.
//!
//! Capturing a [`NetworkTrace`] from a real training
//! run is the faithful path, but sweeping dozens of architecture points
//! (PE counts, buffer sizes, scheduler policies) only needs traces with
//! *controlled* shapes and densities. This module fabricates such traces:
//! every layer is given Bernoulli-sparse activations and gradients at
//! requested densities, with values drawn from a zero-mean normal — the
//! distribution the pruning analysis of §III assumes.
//!
//! The generated trace passes [`NetworkTrace::validate`] and is accepted
//! by every simulator entry point, the compiler and the work analysis.
//!
//! # Example
//!
//! ```
//! use sparsetrain_core::dataflow::synth::{SynthLayer, SynthNet};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let net = SynthNet::new("toy", "sweep")
//!     .conv(SynthLayer::conv(3, 16, 8, 3).input_density(0.4).dout_density(0.2));
//! let mut rng = StdRng::seed_from_u64(7);
//! let trace = net.generate(&mut rng);
//! assert_eq!(trace.layers.len(), 1);
//! trace.validate().unwrap();
//! ```

use super::trace::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace, TraceError, TraceErrorKind};
use rand::Rng;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

/// Specification of one synthetic CONV layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthLayer {
    /// Input channels.
    pub channels: usize,
    /// Output channels (filters).
    pub filters: usize,
    /// Input height = width (square maps, as in the evaluated models).
    pub size: usize,
    /// Kernel size `K`.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Target density of the input activations (natural ReLU sparsity).
    pub input_density: f64,
    /// Target density of the output activation gradients (after pruning).
    pub dout_density: f64,
    /// Whether the GTA stage runs for this layer (false for the first
    /// layer of a network).
    pub needs_input_grad: bool,
}

impl SynthLayer {
    /// A conv layer spec with dense operands; refine with the builder
    /// methods.
    pub fn conv(channels: usize, filters: usize, size: usize, kernel: usize) -> Self {
        Self {
            channels,
            filters,
            size,
            kernel,
            stride: 1,
            input_density: 1.0,
            dout_density: 1.0,
            needs_input_grad: true,
        }
    }

    /// Sets the stride.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the input-activation density in `[0, 1]`.
    pub fn input_density(mut self, d: f64) -> Self {
        self.input_density = d;
        self
    }

    /// Sets the output-gradient density in `[0, 1]`.
    pub fn dout_density(mut self, d: f64) -> Self {
        self.dout_density = d;
        self
    }

    /// Marks the layer as the network input (GTA skipped).
    pub fn first_layer(mut self) -> Self {
        self.needs_input_grad = false;
        self
    }

    /// Output map height/width under `kernel`/`stride` with same-row
    /// padding semantics used throughout the dataflow (padding K/2).
    pub fn out_size(&self) -> usize {
        let pad = self.kernel / 2;
        (self.size + 2 * pad - self.kernel) / self.stride + 1
    }

    /// Checks the specification for degenerate values. The error names
    /// the layer `synth_conv`: a spec does not know its index in the net.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.check().map_err(|kind| TraceError {
            layer: "synth_conv".into(),
            kind,
        })
    }

    fn check(&self) -> Result<(), TraceErrorKind> {
        for (quantity, value) in [
            ("channels", self.channels),
            ("filters", self.filters),
            ("size", self.size),
            ("kernel", self.kernel),
            ("stride", self.stride),
        ] {
            if value == 0 {
                return Err(TraceErrorKind::NotPositive { quantity });
            }
        }
        if self.kernel > self.size {
            return Err(TraceErrorKind::KernelExceedsInput {
                kernel: self.kernel,
                extent: self.size,
            });
        }
        for (quantity, density) in [
            ("input_density", self.input_density),
            ("dout_density", self.dout_density),
        ] {
            if !(0.0..=1.0).contains(&density) {
                return Err(TraceErrorKind::DensityOutOfRange { quantity, density });
            }
        }
        Ok(())
    }

    fn generate<R: Rng + ?Sized>(&self, index: usize, rng: &mut R) -> ConvLayerTrace {
        let geom = ConvGeometry::new(self.kernel, self.stride, self.kernel / 2);
        let input = bernoulli_tensor(self.channels, self.size, self.size, self.input_density, rng);
        let out = self.out_size();
        let dout = bernoulli_tensor(self.filters, out, out, self.dout_density, rng);
        let input = SparseFeatureMap::from_tensor(&input);
        let input_masks = if self.needs_input_grad {
            input.masks()
        } else {
            Vec::new()
        };
        ConvLayerTrace {
            name: format!("synth_conv{index}"),
            geom,
            filters: self.filters,
            input,
            input_masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: self.needs_input_grad,
        }
    }
}

/// Specification of one synthetic FC layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthFc {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Density of the input vector.
    pub input_density: f64,
    /// Density of the output-gradient vector.
    pub dout_density: f64,
}

impl SynthFc {
    /// An FC spec with dense operands.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Self {
            in_features,
            out_features,
            input_density: 1.0,
            dout_density: 1.0,
        }
    }

    /// Sets the input density in `[0, 1]`.
    pub fn input_density(mut self, d: f64) -> Self {
        self.input_density = d;
        self
    }

    /// Sets the gradient density in `[0, 1]`.
    pub fn dout_density(mut self, d: f64) -> Self {
        self.dout_density = d;
        self
    }

    fn generate(&self, index: usize) -> FcLayerTrace {
        let clamp = |n: f64, cap: usize| -> usize { (n.round() as usize).min(cap) };
        let input_nnz = clamp(self.in_features as f64 * self.input_density, self.in_features);
        FcLayerTrace {
            name: format!("synth_fc{index}"),
            in_features: self.in_features,
            out_features: self.out_features,
            input_nnz,
            dout_nnz: clamp(self.out_features as f64 * self.dout_density, self.out_features),
            mask_nnz: input_nnz,
            needs_input_grad: true,
        }
    }
}

/// Builder for a whole synthetic network trace.
#[derive(Debug, Clone, Default)]
pub struct SynthNet {
    model: String,
    dataset: String,
    convs: Vec<SynthLayer>,
    fcs: Vec<SynthFc>,
}

impl SynthNet {
    /// Starts an empty network with the given labels.
    pub fn new(model: impl Into<String>, dataset: impl Into<String>) -> Self {
        Self {
            model: model.into(),
            dataset: dataset.into(),
            convs: Vec::new(),
            fcs: Vec::new(),
        }
    }

    /// Appends a CONV layer spec.
    pub fn conv(mut self, layer: SynthLayer) -> Self {
        self.convs.push(layer);
        self
    }

    /// Appends an FC layer spec (FC layers always follow the convs).
    pub fn fc(mut self, fc: SynthFc) -> Self {
        self.fcs.push(fc);
        self
    }

    /// Number of layers specified so far.
    pub fn len(&self) -> usize {
        self.convs.len() + self.fcs.len()
    }

    /// Whether no layers are specified.
    pub fn is_empty(&self) -> bool {
        self.convs.is_empty() && self.fcs.is_empty()
    }

    /// Materializes the trace, sampling sparsity patterns from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if any layer spec fails validation — specs are programmer
    /// input, not data.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> NetworkTrace {
        let mut trace = NetworkTrace::new(self.model.clone(), self.dataset.clone());
        for (i, spec) in self.convs.iter().enumerate() {
            spec.validate().expect("invalid synthetic conv spec");
            trace.layers.push(LayerTrace::Conv(spec.generate(i, rng)));
        }
        for (i, spec) in self.fcs.iter().enumerate() {
            trace.layers.push(LayerTrace::Fc(spec.generate(i)));
        }
        trace
    }
}

/// Samples a `c × h × w` tensor whose elements are non-zero with
/// probability `density`; non-zero values are standard-normal (via a
/// Box–Muller pair on `rng`'s uniforms).
pub fn bernoulli_tensor<R: Rng + ?Sized>(c: usize, h: usize, w: usize, density: f64, rng: &mut R) -> Tensor3 {
    Tensor3::from_fn(c, h, w, |_, _, _| {
        if rng.gen_bool(density.clamp(0.0, 1.0)) {
            // Box–Muller: two uniforms → one standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_trace_validates() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = SynthNet::new("m", "d")
            .conv(SynthLayer::conv(4, 8, 12, 3).input_density(0.3).dout_density(0.2))
            .conv(SynthLayer::conv(8, 8, 12, 5).stride(2))
            .fc(SynthFc::new(128, 10).input_density(0.5));
        let trace = net.generate(&mut rng);
        assert_eq!(trace.layers.len(), 3);
        trace.validate().unwrap();
    }

    #[test]
    fn densities_land_near_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = SynthNet::new("m", "d").conv(SynthLayer::conv(8, 8, 32, 3).input_density(0.25));
        let trace = net.generate(&mut rng);
        let LayerTrace::Conv(conv) = &trace.layers[0] else {
            panic!("expected conv")
        };
        let d = conv.input_density();
        assert!((d - 0.25).abs() < 0.05, "density {d} far from 0.25");
    }

    #[test]
    fn first_layer_skips_gta() {
        let mut rng = StdRng::seed_from_u64(3);
        let trace = SynthNet::new("m", "d")
            .conv(SynthLayer::conv(3, 4, 8, 3).first_layer())
            .generate(&mut rng);
        let LayerTrace::Conv(conv) = &trace.layers[0] else {
            panic!("expected conv")
        };
        assert!(!conv.needs_input_grad);
        assert!(conv.input_masks.is_empty());
    }

    #[test]
    fn zero_density_yields_empty_maps() {
        let mut rng = StdRng::seed_from_u64(4);
        let trace = SynthNet::new("m", "d")
            .conv(SynthLayer::conv(2, 2, 6, 3).input_density(0.0).dout_density(0.0))
            .generate(&mut rng);
        let LayerTrace::Conv(conv) = &trace.layers[0] else {
            panic!("expected conv")
        };
        assert_eq!(conv.input.nnz(), 0);
        assert_eq!(conv.dout.nnz(), 0);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let net = SynthNet::new("m", "d")
            .conv(SynthLayer::conv(3, 8, 16, 3).input_density(0.4).dout_density(0.2))
            .fc(SynthFc::new(8 * 16 * 16, 10).input_density(0.4));
        let a = net.generate(&mut StdRng::seed_from_u64(9));
        let b = net.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.dense_macs(), b.dense_macs());
        assert_eq!(a.mean_input_density(), b.mean_input_density());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let kind = |spec: SynthLayer| spec.validate().unwrap_err().kind;
        assert_eq!(
            kind(SynthLayer::conv(0, 1, 8, 3)),
            TraceErrorKind::NotPositive { quantity: "channels" }
        );
        assert_eq!(
            kind(SynthLayer::conv(1, 1, 8, 9)),
            TraceErrorKind::KernelExceedsInput { kernel: 9, extent: 8 }
        );
        assert_eq!(
            kind(SynthLayer::conv(1, 1, 8, 3).stride(0)),
            TraceErrorKind::NotPositive { quantity: "stride" }
        );
        let err = SynthLayer::conv(1, 1, 8, 3)
            .input_density(1.5)
            .validate()
            .unwrap_err();
        assert_eq!(err.to_string(), "synth_conv: input_density 1.5 outside [0, 1]");
    }

    #[test]
    fn fc_nnz_is_capped() {
        let fc = SynthFc::new(10, 5).input_density(1.0).generate(0);
        assert_eq!(fc.input_nnz, 10);
        assert!(fc.dout_nnz <= 5);
    }

    #[test]
    fn out_size_accounts_for_stride_and_padding() {
        let l = SynthLayer::conv(1, 1, 32, 3);
        assert_eq!(l.out_size(), 32); // same padding, stride 1
        assert_eq!(l.clone().stride(2).out_size(), 16);
    }
}
