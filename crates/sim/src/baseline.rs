//! The dense baseline: modified Eyeriss for training (§VI).
//!
//! The paper's baseline has the same PE count (168) and buffer size as
//! SparseTrain but processes dense, uncompressed data. We model it as the
//! *same machine* running a **densified** trace: every operand row is
//! fully dense, every mask is full, so no operation is skipped and all
//! traffic is uncompressed. This keeps the timing/energy models identical
//! between the two designs — exactly the controlled comparison the paper
//! makes — while charging the baseline the full dense work.

use crate::machine::{Machine, OperandFormat};
use crate::report::SimReport;
use sparsetrain_core::dataflow::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::RowMask;
use sparsetrain_tensor::Tensor3;

/// Simulates the dense-baseline architecture on (the densified version of)
/// `trace`: raw uncompressed operands, no skipping — the modified Eyeriss
/// of §VI.
pub fn simulate_baseline(machine: &Machine, trace: &NetworkTrace) -> SimReport {
    machine.simulate_with_format(&densified(trace), OperandFormat::Raw)
}

/// Returns a copy of `trace` with every operand densified: input feature
/// maps and output gradients become all-non-zero, masks become full, FC
/// sparsity counts become their dense sizes.
pub fn densified(trace: &NetworkTrace) -> NetworkTrace {
    let mut out = NetworkTrace::new(trace.model.clone(), trace.dataset.clone());
    out.layers = trace
        .layers
        .iter()
        .map(|l| match l {
            LayerTrace::Conv(c) => LayerTrace::Conv(densify_conv(c)),
            LayerTrace::Fc(f) => LayerTrace::Fc(densify_fc(f)),
        })
        .collect();
    out
}

fn dense_map(channels: usize, height: usize, width: usize) -> SparseFeatureMap {
    let ones = Tensor3::from_fn(channels, height, width, |_, _, _| 1.0);
    SparseFeatureMap::from_tensor(&ones)
}

fn densify_conv(c: &ConvLayerTrace) -> ConvLayerTrace {
    let input = dense_map(c.input.channels(), c.input.height(), c.input.width());
    let masks = if c.needs_input_grad {
        (0..c.input.channels() * c.input.height())
            .map(|_| RowMask::full(c.input.width()))
            .collect()
    } else {
        Vec::new()
    };
    ConvLayerTrace {
        name: c.name.clone(),
        geom: c.geom,
        filters: c.filters,
        input,
        input_masks: masks,
        dout: dense_map(c.dout.channels(), c.dout.height(), c.dout.width()),
        needs_input_grad: c.needs_input_grad,
    }
}

fn densify_fc(f: &FcLayerTrace) -> FcLayerTrace {
    FcLayerTrace {
        name: f.name.clone(),
        in_features: f.in_features,
        out_features: f.out_features,
        input_nnz: f.in_features,
        dout_nnz: f.out_features,
        mask_nnz: f.in_features,
        needs_input_grad: f.needs_input_grad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::machine::Machine;
    use sparsetrain_tensor::conv::ConvGeometry;

    fn sparse_net() -> NetworkTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(2, 6, 6, |c, y, x| if (c + y + x) % 3 == 0 { 1.0 } else { 0.0 });
        let dout = Tensor3::from_fn(2, 6, 6, |c, y, x| if (c * y + x) % 4 == 0 { 0.5 } else { 0.0 });
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        let mut t = NetworkTrace::new("m", "d");
        t.layers.push(LayerTrace::Conv(ConvLayerTrace {
            name: "c".into(),
            geom,
            filters: 2,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }));
        t
    }

    #[test]
    fn densified_trace_is_fully_dense() {
        let t = densified(&sparse_net());
        assert_eq!(t.mean_input_density(), 1.0);
        assert_eq!(t.mean_dout_density(), 1.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn densified_preserves_shapes_and_macs() {
        let orig = sparse_net();
        let dense = densified(&orig);
        assert_eq!(orig.dense_macs(), dense.dense_macs());
    }

    #[test]
    fn baseline_costs_at_least_as_much() {
        let m = Machine::new(ArchConfig::tiny());
        let orig = sparse_net();
        let sparse_report = m.simulate(&orig);
        let dense_report = m.simulate(&densified(&orig));
        assert!(dense_report.total_cycles >= sparse_report.total_cycles);
        assert!(dense_report.energy.total_pj() >= sparse_report.energy.total_pj());
        assert!(dense_report.total_macs > sparse_report.total_macs);
    }

    #[test]
    fn densify_fc_counts() {
        let f = FcLayerTrace {
            name: "fc".into(),
            in_features: 10,
            out_features: 4,
            input_nnz: 3,
            dout_nnz: 2,
            mask_nnz: 3,
            needs_input_grad: true,
        };
        let d = densify_fc(&f);
        assert_eq!(d.input_nnz, 10);
        assert_eq!(d.dout_nnz, 4);
        assert_eq!(d.mask_nnz, 10);
    }
}
