//! The "simple compiler": lowers a network trace into the paper's
//! instruction list.
//!
//! The paper drives its simulator through a compiler that converts PyTorch
//! models into internal instructions (§V). [`compile`] materialises the
//! one enumeration of the §IV row operations (`sparsetrain_sparse::ops`,
//! the list the scalar engine executes) as that list: one [`Instr`] per
//! SRC / MSRC / OSRC op of every layer and stage, with its operand sizes.
//! The simulator walks the same ops directly (no allocation), so the
//! [`Program`] is an inspectable count of the work, not an input to it.

use super::trace::{LayerTrace, NetworkTrace};
use sparsetrain_sparse::Stage;

/// One 1-D convolution instruction, with its operand metadata (sizes, not
/// data — data stays in the buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Index of the layer in the network.
    pub layer: u32,
    /// Which training stage the instruction belongs to.
    pub step: Stage,
    /// Scheduling task this instruction contributes to (instructions of a
    /// task run back-to-back on one PE).
    pub task: u32,
    /// Kernel size `K` of the row operation.
    pub kernel: u8,
    /// Stride of the row operation.
    pub stride: u8,
    /// Non-zeros of the Port-1 (streamed) operand.
    pub port1_nnz: u32,
    /// Non-zeros of the Port-2 operand (OSRC's second stream; 0 otherwise).
    pub port2_nnz: u32,
    /// Population of the Port-3 mask (MSRC; 0 otherwise).
    pub mask_nnz: u32,
}

/// A compiled instruction program for one network training step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// All instructions, in (layer, stage, task) order.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction count per training stage, in [`Stage`] order.
    pub fn instrs_per_step(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for i in &self.instrs {
            counts[i.step as usize] += 1;
        }
        counts
    }
}

/// Compiles a network trace into an instruction program.
///
/// FC layers are costed analytically by the simulator and contribute no row
/// instructions (they have no row structure); only CONV layers lower.
pub fn compile(trace: &NetworkTrace) -> Program {
    let mut program = Program::default();
    for (layer_idx, layer) in trace.layers.iter().enumerate() {
        let LayerTrace::Conv(conv) = layer else {
            continue;
        };
        // `[port1, port2, mask]` non-zeros of one op.
        let instr = |step, task: usize, [port1, port2, mask]: [usize; 3]| Instr {
            layer: layer_idx as u32,
            step,
            task: task as u32,
            kernel: conv.geom.kernel as u8,
            stride: conv.geom.stride as u8,
            port1_nnz: port1 as u32,
            port2_nnz: port2 as u32,
            mask_nnz: mask as u32,
        };
        let instrs = &mut program.instrs;
        conv.forward_ops(|task, op| instrs.push(instr(Stage::Forward, task, [op.input.nnz(), 0, 0])));
        conv.gta_ops(|task, op| {
            instrs.push(instr(Stage::InputGrad, task, [op.grad.nnz(), 0, op.mask.count()]));
        });
        conv.gtw_ops(|task, op| {
            instrs.push(instr(Stage::WeightGrad, task, [op.input.nnz(), op.grad.nnz(), 0]));
        });
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::trace::ConvLayerTrace;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::Tensor3;

    fn trace() -> NetworkTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(2, 4, 4, |c, y, x| ((c + y + x) % 2) as f32);
        let dout = Tensor3::from_fn(3, 4, 4, |c, y, x| ((c + y * x) % 3 == 0) as u8 as f32);
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        let mut t = NetworkTrace::new("m", "d");
        t.layers.push(LayerTrace::Conv(ConvLayerTrace {
            name: "c".into(),
            geom,
            filters: 3,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }));
        t
    }

    #[test]
    fn compiles_all_three_stages() {
        let p = compile(&trace());
        let per_step = p.instrs_per_step();
        assert!(per_step[0] > 0, "no forward instructions");
        assert!(per_step[1] > 0, "no GTA instructions");
        assert!(per_step[2] > 0, "no GTW instructions");
        assert_eq!(p.len(), per_step.iter().sum::<usize>());
    }

    #[test]
    fn instruction_counts_match_visitors() {
        let t = trace();
        let p = compile(&t);
        let conv = match &t.layers[0] {
            LayerTrace::Conv(c) => c,
            _ => unreachable!(),
        };
        let mut fwd = 0usize;
        conv.forward_ops(|_, _| fwd += 1);
        assert_eq!(p.instrs_per_step()[0], fwd);
    }

    #[test]
    fn task_grouping_is_contiguous() {
        let p = compile(&trace());
        // Within one (layer, step), tasks must be non-decreasing: all of a
        // task's instructions run back-to-back on one PE.
        let mut last: Option<(u32, Stage, u32)> = None;
        for i in &p.instrs {
            if let Some((l, s, t)) = last {
                if l == i.layer && s == i.step {
                    assert!(i.task >= t, "task order regressed");
                }
            }
            last = Some((i.layer, i.step, i.task));
        }
    }

    #[test]
    fn osrc_instrs_have_two_streams() {
        let p = compile(&trace());
        for i in p.instrs.iter().filter(|i| i.step == Stage::WeightGrad) {
            assert!(i.port1_nnz > 0 && i.port2_nnz > 0);
        }
        for i in p.instrs.iter().filter(|i| i.step != Stage::WeightGrad) {
            assert_eq!(i.port2_nnz, 0);
        }
    }

    #[test]
    fn empty_network_compiles_empty() {
        let p = compile(&NetworkTrace::new("e", "d"));
        assert!(p.is_empty());
    }
}
