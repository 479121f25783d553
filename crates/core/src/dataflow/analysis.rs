//! Static trace analysis: work counts and ideal-speedup bounds.
//!
//! Before simulating, a trace already determines how much arithmetic each
//! architecture must perform. This module computes those static quantities
//! — dense vs sparse MAC counts per stage — and the resulting *ideal*
//! (compute-bound, perfectly balanced) speedup. The simulator's measured
//! speedup can never exceed the ideal bound; the gap between them is
//! scheduling/bandwidth/overhead loss, a useful architecture diagnostic
//! that the tests here pin down.

use super::trace::{ConvLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};

/// Static work counts of one trace, by stage (indexed in
/// `sparsetrain_sparse::Stage` order: Forward, GTA, GTW).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkSummary {
    /// Dense MACs a baseline must perform (Forward; GTA and GTW have the
    /// same dense count for CONV layers).
    pub dense_macs: [u64; 3],
    /// MACs SparseTrain performs after all skipping.
    pub sparse_macs: [u64; 3],
    /// SparseTrain PE cycles (work-model, before scheduling).
    pub sparse_cycles: [u64; 3],
}

impl WorkSummary {
    /// Total dense MACs.
    pub fn total_dense_macs(&self) -> u64 {
        self.dense_macs.iter().sum()
    }

    /// Total sparse MACs.
    pub fn total_sparse_macs(&self) -> u64 {
        self.sparse_macs.iter().sum()
    }

    /// Ideal compute-bound speedup: dense work over sparse work (1.0 when
    /// no work exists).
    pub fn ideal_speedup(&self) -> f64 {
        let sparse = self.total_sparse_macs();
        if sparse == 0 {
            return 1.0;
        }
        self.total_dense_macs() as f64 / sparse as f64
    }
}

/// Computes the static work summary of a conv layer.
pub fn analyze_conv(conv: &ConvLayerTrace) -> WorkSummary {
    let mut s = WorkSummary::default();
    let dense = conv.dense_macs();
    s.dense_macs[0] = dense;
    s.dense_macs[1] = if conv.needs_input_grad { dense } else { 0 };
    s.dense_macs[2] = dense;

    conv.forward_ops(|_, op| {
        let w = src_work(op.input, op.geom);
        s.sparse_macs[0] += w.macs;
        s.sparse_cycles[0] += w.cycles;
    });
    conv.gta_ops(|_, op| {
        let w = msrc_work(op.grad, op.geom, op.mask);
        s.sparse_macs[1] += w.macs;
        s.sparse_cycles[1] += w.cycles;
    });
    conv.gtw_ops(|_, op| {
        let w = osrc_work(op.input, op.grad, op.geom);
        s.sparse_macs[2] += w.macs;
        s.sparse_cycles[2] += w.cycles;
    });
    s
}

/// Computes the static work summary of a whole trace (CONV layers only —
/// FC layers are costed by the simulator's analytic path).
pub fn analyze(trace: &NetworkTrace) -> WorkSummary {
    let mut total = WorkSummary::default();
    for layer in &trace.layers {
        if let LayerTrace::Conv(conv) = layer {
            let s = analyze_conv(conv);
            for i in 0..3 {
                total.dense_macs[i] += s.dense_macs[i];
                total.sparse_macs[i] += s.sparse_macs[i];
                total.sparse_cycles[i] += s.sparse_cycles[i];
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::Tensor3;

    fn conv_trace(density_mod: usize) -> ConvLayerTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(
            2,
            6,
            6,
            |c, y, x| {
                if (c + y + x) % density_mod == 0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let dout = Tensor3::from_fn(
            3,
            6,
            6,
            |c, y, x| {
                if (c + y * x) % density_mod == 0 {
                    0.5
                } else {
                    0.0
                }
            },
        );
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        ConvLayerTrace {
            name: "a".into(),
            geom,
            filters: 3,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }
    }

    #[test]
    fn dense_trace_has_near_unit_ideal_speedup() {
        // Fully dense operands: sparse MACs equal dense MACs for the
        // Forward step (edge taps differ only through padding handling).
        let s = analyze_conv(&conv_trace(1));
        assert_eq!(s.dense_macs[0], conv_trace(1).dense_macs());
        let ratio = s.dense_macs[0] as f64 / s.sparse_macs[0] as f64;
        assert!(
            (0.9..=1.35).contains(&ratio),
            "dense forward ratio {ratio} should be ~1 (padding edge effects only)"
        );
    }

    #[test]
    fn sparser_trace_has_higher_ideal_speedup() {
        let dense = analyze_conv(&conv_trace(1));
        let sparse = analyze_conv(&conv_trace(3));
        assert!(sparse.ideal_speedup() > dense.ideal_speedup());
        assert!(sparse.ideal_speedup() > 2.0, "got {}", sparse.ideal_speedup());
    }

    #[test]
    fn gta_skipped_when_no_input_grad() {
        let mut t = conv_trace(2);
        t.needs_input_grad = false;
        t.input_masks = Vec::new();
        let s = analyze_conv(&t);
        assert_eq!(s.dense_macs[1], 0);
        assert_eq!(s.sparse_macs[1], 0);
    }

    #[test]
    fn network_analysis_sums_layers() {
        let mut trace = NetworkTrace::new("m", "d");
        trace.layers.push(LayerTrace::Conv(conv_trace(2)));
        trace.layers.push(LayerTrace::Conv(conv_trace(2)));
        let one = analyze_conv(&conv_trace(2));
        let both = analyze(&trace);
        assert_eq!(both.total_dense_macs(), 2 * one.total_dense_macs());
        assert_eq!(both.total_sparse_macs(), 2 * one.total_sparse_macs());
    }

    #[test]
    fn stage_reductions_reflect_operand_sparsity() {
        let s = analyze_conv(&conv_trace(3));
        // GTW multiplies two sparse operands — its reduction should be the
        // strongest of the three stages.
        let reduction = |stage: usize| s.dense_macs[stage] as f64 / s.sparse_macs[stage] as f64;
        let (f, gtw) = (reduction(0), reduction(2));
        assert!(gtw > f, "GTW reduction {gtw} should exceed Forward {f}");
    }
}
