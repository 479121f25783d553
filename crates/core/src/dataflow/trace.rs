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

    /// Checks internal consistency of the trace.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dout.channels() != self.filters {
            return Err(format!(
                "{}: dout channels {} != filters {}",
                self.name,
                self.dout.channels(),
                self.filters
            ));
        }
        if self.dout.height() != self.out_height() || self.dout.width() != self.out_width() {
            return Err(format!(
                "{}: dout {}x{} inconsistent with geometry ({}x{})",
                self.name,
                self.dout.height(),
                self.dout.width(),
                self.out_height(),
                self.out_width()
            ));
        }
        if self.needs_input_grad && self.input_masks.len() != self.input.channels() * self.input.height() {
            return Err(format!(
                "{}: {} masks for {} (channel, row) pairs",
                self.name,
                self.input_masks.len(),
                self.input.channels() * self.input.height()
            ));
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
    pub fn validate(&self) -> Result<(), String> {
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
        assert!(t.validate().is_err());
    }

    #[test]
    fn conv_trace_detects_missing_masks() {
        let mut t = tiny_conv_trace();
        t.input_masks.pop();
        assert!(t.validate().is_err());
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
