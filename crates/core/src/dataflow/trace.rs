//! Captured per-layer training-step traces.
//!
//! A trace records exactly the information the accelerator's behaviour
//! depends on: the sparsity patterns (with values) of each CONV layer's
//! input activations and output gradients, the forward masks, and the layer
//! geometry. Traces are captured by the training framework during a real
//! training step, so the simulated sparsity is the genuine article — both
//! the natural sparsity from ReLU/MaxPool and the artificial sparsity from
//! gradient pruning.

use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::RowMask;
use sparsetrain_tensor::conv::ConvGeometry;
use std::fmt;

/// The quantity a [`TraceError`] found out of range or inconsistent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceErrorKind {
    /// A count, extent, kernel size or stride that must be positive is zero.
    NotPositive {
        /// Which quantity (`"kernel"`, `"stride"`, `"channels"`, …).
        quantity: &'static str,
    },
    /// The kernel is larger than the (padded) input extent it slides over.
    KernelExceedsInput {
        /// Kernel size `K`.
        kernel: usize,
        /// The input extent, padding included.
        extent: usize,
    },
    /// A density lies outside `[0, 1]`.
    DensityOutOfRange {
        /// Which density.
        quantity: &'static str,
        /// Its value.
        density: f64,
    },
    /// `dO` has a different channel count than the layer has filters.
    DoutChannels {
        /// Channels of `dO`.
        dout: usize,
        /// Filters of the layer.
        filters: usize,
    },
    /// `dO`'s `(height, width)` disagrees with the geometry's output extent.
    DoutShape {
        /// `dO`'s `(height, width)`.
        dout: (usize, usize),
        /// The geometry's `(Ho, Wo)`.
        expected: (usize, usize),
    },
    /// The layer needs its input gradient but has the wrong number of masks.
    MaskCount {
        /// Masks present.
        masks: usize,
        /// `(channel, row)` pairs of the input.
        rows: usize,
    },
}

/// An inconsistent layer trace or synthetic layer spec, as reported by
/// [`ConvLayerTrace::validate`], [`NetworkTrace::validate`] and
/// [`SynthLayer::validate`](super::synth::SynthLayer::validate).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// Name of the layer at fault.
    pub layer: String,
    /// What was wrong with it.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceErrorKind::NotPositive { quantity } => write!(f, "{quantity} must be positive"),
            TraceErrorKind::KernelExceedsInput { kernel, extent } => {
                write!(f, "kernel {kernel} larger than input extent {extent}")
            }
            TraceErrorKind::DensityOutOfRange { quantity, density } => {
                write!(f, "{quantity} {density} outside [0, 1]")
            }
            TraceErrorKind::DoutChannels { dout, filters } => {
                write!(f, "dout channels {dout} != filters {filters}")
            }
            TraceErrorKind::DoutShape { dout, expected } => write!(
                f,
                "dout {}x{} inconsistent with geometry ({}x{})",
                dout.0, dout.1, expected.0, expected.1
            ),
            TraceErrorKind::MaskCount { masks, rows } => {
                write!(f, "{masks} masks for {rows} (channel, row) pairs")
            }
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.layer, self.kind)
    }
}

impl std::error::Error for TraceError {}

/// The output `(Ho, Wo)` of an `h × w` input under `geom`, or why the
/// geometry cannot slide over it. Never panics, unlike
/// [`ConvGeometry::output_extent`].
pub(crate) fn checked_output_shape(
    geom: &ConvGeometry,
    h: usize,
    w: usize,
) -> Result<(usize, usize), TraceErrorKind> {
    for (quantity, value) in [("kernel", geom.kernel), ("stride", geom.stride)] {
        if value == 0 {
            return Err(TraceErrorKind::NotPositive { quantity });
        }
    }
    let extent = |n: usize| {
        let padded = n.saturating_add(geom.pad.saturating_mul(2));
        match padded.checked_sub(geom.kernel) {
            Some(span) => Ok(span / geom.stride + 1),
            None => Err(TraceErrorKind::KernelExceedsInput {
                kernel: geom.kernel,
                extent: padded,
            }),
        }
    };
    Ok((extent(h)?, extent(w)?))
}

/// Trace of one convolutional layer for one training sample.
#[derive(Debug, Clone)]
pub struct ConvLayerTrace {
    /// Human-readable layer name (e.g. `"conv2"`).
    pub name: String,
    /// Convolution geometry.
    pub geom: ConvGeometry,
    /// Number of filters `F` (output channels).
    pub filters: usize,
    /// Input activations `I` (sparse after the upstream ReLU/MaxPool).
    pub input: SparseFeatureMap,
    /// Per-`(channel, row)` non-zero masks of `I`, channel-major — the
    /// masks MSRC uses in the GTA step. Empty if the layer's input gradient
    /// is never needed (first layer).
    pub input_masks: Vec<RowMask>,
    /// Output activation gradients `dO` (sparse naturally and/or after
    /// pruning).
    pub dout: SparseFeatureMap,
    /// Whether the GTA step must be executed for this layer (false for the
    /// first layer of the network, whose input gradient is unused).
    pub needs_input_grad: bool,
}

impl ConvLayerTrace {
    /// Output spatial height `Ho`.
    pub fn out_height(&self) -> usize {
        self.geom.output_extent(self.input.height())
    }

    /// Output spatial width `Wo`.
    pub fn out_width(&self) -> usize {
        self.geom.output_extent(self.input.width())
    }

    /// Density of the input activations.
    pub fn input_density(&self) -> f64 {
        self.input.density()
    }

    /// Density of the output gradients.
    pub fn dout_density(&self) -> f64 {
        self.dout.density()
    }

    /// Dense MAC count of the Forward step (also of GTA; GTW has the same
    /// asymptotic count) — the work a dense accelerator must do.
    pub fn dense_macs(&self) -> u64 {
        self.geom.dense_macs(
            self.input.channels(),
            self.input.height(),
            self.input.width(),
            self.filters,
        )
    }

    /// Checks internal consistency of the trace. Never panics.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.check().map_err(|kind| TraceError {
            layer: self.name.clone(),
            kind,
        })
    }

    fn check(&self) -> Result<(), TraceErrorKind> {
        if self.dout.channels() != self.filters {
            return Err(TraceErrorKind::DoutChannels {
                dout: self.dout.channels(),
                filters: self.filters,
            });
        }
        let expected = checked_output_shape(&self.geom, self.input.height(), self.input.width())?;
        let dout = (self.dout.height(), self.dout.width());
        if dout != expected {
            return Err(TraceErrorKind::DoutShape { dout, expected });
        }
        let rows = self.input.channels() * self.input.height();
        if self.needs_input_grad && self.input_masks.len() != rows {
            return Err(TraceErrorKind::MaskCount {
                masks: self.input_masks.len(),
                rows,
            });
        }
        Ok(())
    }
}

/// Trace of one fully-connected layer for one training sample.
///
/// FC layers are costed analytically (a matrix–vector product has no row
/// structure to exploit); their sparsity still matters, since the input
/// vector is post-ReLU.
#[derive(Debug, Clone)]
pub struct FcLayerTrace {
    /// Human-readable layer name.
    pub name: String,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Non-zeros of the input vector.
    pub input_nnz: usize,
    /// Non-zeros of the output-gradient vector.
    pub dout_nnz: usize,
    /// Non-zeros of the forward input mask (bounds the GTA output).
    pub mask_nnz: usize,
    /// Whether the GTA step is required.
    pub needs_input_grad: bool,
}

impl FcLayerTrace {
    /// Dense MAC count of the forward matrix–vector product.
    pub fn dense_macs(&self) -> u64 {
        self.in_features as u64 * self.out_features as u64
    }

    /// Input-vector density.
    pub fn input_density(&self) -> f64 {
        if self.in_features == 0 {
            1.0
        } else {
            self.input_nnz as f64 / self.in_features as f64
        }
    }

    /// Output-gradient density.
    pub fn dout_density(&self) -> f64 {
        if self.out_features == 0 {
            1.0
        } else {
            self.dout_nnz as f64 / self.out_features as f64
        }
    }
}

/// One layer of a network trace.
// A trace holds one of these per layer, so the size gap between the
// variants (a conv trace holds two arena maps) costs a few hundred bytes a
// trace — not worth a box at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LayerTrace {
    /// A convolutional layer, simulated at row-operation granularity.
    Conv(ConvLayerTrace),
    /// A fully-connected layer, costed analytically.
    Fc(FcLayerTrace),
}

impl LayerTrace {
    /// The layer's name.
    pub fn name(&self) -> &str {
        match self {
            LayerTrace::Conv(t) => &t.name,
            LayerTrace::Fc(t) => &t.name,
        }
    }

    /// Dense MAC count of the forward pass.
    pub fn dense_macs(&self) -> u64 {
        match self {
            LayerTrace::Conv(t) => t.dense_macs(),
            LayerTrace::Fc(t) => t.dense_macs(),
        }
    }
}

/// The full per-sample trace of one training step of a network.
#[derive(Debug, Clone, Default)]
pub struct NetworkTrace {
    /// Network name (e.g. `"alexnet"`).
    pub model: String,
    /// Dataset name the trace was captured on.
    pub dataset: String,
    /// Per-layer traces, in forward order.
    pub layers: Vec<LayerTrace>,
}

impl NetworkTrace {
    /// Creates an empty trace for a named model/dataset pair.
    pub fn new(model: impl Into<String>, dataset: impl Into<String>) -> Self {
        Self {
            model: model.into(),
            dataset: dataset.into(),
            layers: Vec::new(),
        }
    }

    /// Total dense forward MACs across all layers.
    pub fn dense_macs(&self) -> u64 {
        self.layers.iter().map(LayerTrace::dense_macs).sum()
    }

    /// Mean input-activation density over CONV layers (weighted by size).
    pub fn mean_input_density(&self) -> f64 {
        let mut nnz = 0usize;
        let mut total = 0usize;
        for l in &self.layers {
            if let LayerTrace::Conv(t) = l {
                nnz += t.input.nnz();
                total += t.input.channels() * t.input.height() * t.input.width();
            }
        }
        if total == 0 {
            1.0
        } else {
            nnz as f64 / total as f64
        }
    }

    /// Mean output-gradient density over CONV layers (weighted by size).
    pub fn mean_dout_density(&self) -> f64 {
        let mut nnz = 0usize;
        let mut total = 0usize;
        for l in &self.layers {
            if let LayerTrace::Conv(t) = l {
                nnz += t.dout.nnz();
                total += t.dout.channels() * t.dout.height() * t.dout.width();
            }
        }
        if total == 0 {
            1.0
        } else {
            nnz as f64 / total as f64
        }
    }

    /// Validates every CONV layer trace.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), TraceError> {
        for l in &self.layers {
            if let LayerTrace::Conv(t) = l {
                t.validate()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_tensor::Tensor3;

    pub(crate) fn tiny_conv_trace() -> ConvLayerTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(2, 4, 4, |c, y, x| {
            if (c + y + x) % 2 == 0 {
                (c + y + x + 1) as f32
            } else {
                0.0
            }
        });
        let dout = Tensor3::from_fn(
            3,
            4,
            4,
            |c, y, x| {
                if (c + 2 * y + x) % 3 == 0 {
                    0.5
                } else {
                    0.0
                }
            },
        );
        let input_fm = SparseFeatureMap::from_tensor(&input);
        let masks = input_fm.masks();
        ConvLayerTrace {
            name: "tiny".to_string(),
            geom,
            filters: 3,
            input: input_fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }
    }

    #[test]
    fn conv_trace_validates() {
        let t = tiny_conv_trace();
        assert!(t.validate().is_ok());
        assert_eq!(t.out_height(), 4);
        assert_eq!(t.dense_macs(), 4 * 4 * 3 * 2 * 9);
    }

    #[test]
    fn conv_trace_detects_bad_dout() {
        let mut t = tiny_conv_trace();
        t.filters = 5;
        let err = t.validate().unwrap_err();
        assert_eq!(err.layer, "tiny");
        assert_eq!(err.kind, TraceErrorKind::DoutChannels { dout: 3, filters: 5 });
        assert_eq!(err.to_string(), "tiny: dout channels 3 != filters 5");
    }

    #[test]
    fn conv_trace_detects_missing_masks() {
        let mut t = tiny_conv_trace();
        t.input_masks.pop();
        assert_eq!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::MaskCount { masks: 7, rows: 8 }
        );
    }

    #[test]
    fn conv_trace_validate_never_panics_on_bad_geometry() {
        let mut t = tiny_conv_trace();
        t.geom.kernel = 0;
        assert_eq!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::NotPositive { quantity: "kernel" }
        );
        t.geom.kernel = 3;
        t.geom.stride = 0;
        assert_eq!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::NotPositive { quantity: "stride" }
        );
        t.geom = ConvGeometry::new(7, 1, 1);
        assert_eq!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::KernelExceedsInput { kernel: 7, extent: 6 }
        );
        t.geom = ConvGeometry::new(3, 1, usize::MAX);
        assert!(matches!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::DoutShape { .. }
        ));
        t.geom = ConvGeometry::new(3, 2, 1);
        assert_eq!(
            t.validate().unwrap_err().kind,
            TraceErrorKind::DoutShape {
                dout: (4, 4),
                expected: (2, 2)
            }
        );
    }

    #[test]
    fn fc_trace_densities() {
        let t = FcLayerTrace {
            name: "fc".into(),
            in_features: 100,
            out_features: 10,
            input_nnz: 40,
            dout_nnz: 10,
            mask_nnz: 40,
            needs_input_grad: true,
        };
        assert_eq!(t.input_density(), 0.4);
        assert_eq!(t.dout_density(), 1.0);
        assert_eq!(t.dense_macs(), 1000);
    }

    #[test]
    fn network_trace_aggregates() {
        let mut net = NetworkTrace::new("m", "d");
        net.layers.push(LayerTrace::Conv(tiny_conv_trace()));
        assert!(net.validate().is_ok());
        assert!(net.dense_macs() > 0);
        let d = net.mean_input_density();
        assert!(d > 0.0 && d < 1.0);
    }
}
