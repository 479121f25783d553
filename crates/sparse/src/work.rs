//! Analytic PE work model for the three 1-D primitives.
//!
//! The PE (§V) consumes one sparse operand element per cycle and performs up
//! to `K` multiply–accumulates against the register-held operand in that
//! cycle. These formulas give the exact cycle and MAC counts of one 1-D
//! operation; the cycle-exact PE model in `sparsetrain-sim` is tested to
//! agree with them, and the fast whole-network simulator is built on them.

use crate::compressed::SparseRow;
use crate::mask::RowMask;
use crate::msrc::fully_masked_loads;
use crate::osrc::osrc_pair_count;
use sparsetrain_tensor::conv::ConvGeometry;

/// Fixed pipeline-fill overhead of starting one 1-D convolution on a PE:
/// load the register operand, prime the multiplier array.
pub const OP_SETUP_CYCLES: u64 = 2;

/// Cycle and MAC cost of a single 1-D operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpWork {
    /// Cycles the PE is busy (including [`OP_SETUP_CYCLES`] if any work exists).
    pub cycles: u64,
    /// Multiply–accumulates actually performed.
    pub macs: u64,
    /// Operand words streamed through Port-1 (sparse operand loads).
    pub loads: u64,
}

impl OpWork {
    /// An operation that was skipped entirely (no non-zero work).
    pub fn skipped() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    pub fn add(&self, other: &OpWork) -> OpWork {
        OpWork {
            cycles: self.cycles + other.cycles,
            macs: self.macs + other.macs,
            loads: self.loads + other.loads,
        }
    }
}

/// Work of one SRC operation: one cycle per non-zero input element, `K`
/// MACs per cycle (the multiplier array covers the whole kernel row).
///
/// A fully-zero input row is skipped with zero cycles (the controller never
/// dispatches it — its compressed form is empty).
pub fn src_work<'a>(input: impl Into<SparseRow<'a>>, geom: ConvGeometry) -> OpWork {
    let nnz = input.into().nnz() as u64;
    if nnz == 0 {
        return OpWork::skipped();
    }
    OpWork {
        cycles: OP_SETUP_CYCLES + nnz,
        macs: nnz * geom.kernel as u64,
        loads: nnz,
    }
}

/// Work of one MSRC operation: like SRC over the non-zero gradients, but
/// gradient elements whose whole scatter window is masked out are skipped
/// by the Port-3 look-ahead at no cycle cost (§V).
pub fn msrc_work<'a>(grad: impl Into<SparseRow<'a>>, geom: ConvGeometry, mask: &RowMask) -> OpWork {
    let grad = grad.into();
    let nnz = grad.nnz() as u64;
    if nnz == 0 {
        return OpWork::skipped();
    }
    let skipped = fully_masked_loads(grad, geom, mask) as u64;
    let useful = nnz - skipped;
    if useful == 0 {
        return OpWork::skipped();
    }
    OpWork {
        cycles: OP_SETUP_CYCLES + useful,
        macs: useful * geom.kernel as u64,
        loads: useful,
    }
}

/// Work of one OSRC operation.
///
/// The PE streams the input row from Port-1 (one non-zero per cycle) while
/// the matching `K`-element gradient window sits in Reg-1; gradient
/// non-zeros stream through Port-2 concurrently. An input element overlapped
/// by `m` gradient non-zeros costs `max(m, 1)` effective MAC slots but the
/// element itself is a single load; the dominant term is
/// `max(loads, pairs / K)` since the multiplier array retires `K` pairs per
/// cycle. Rows with no overlapping non-zero pairs are skipped.
pub fn osrc_work<'a, 'b>(
    input: impl Into<SparseRow<'a>>,
    grad: impl Into<SparseRow<'b>>,
    geom: ConvGeometry,
) -> OpWork {
    let (input, grad) = (input.into(), grad.into());
    let pairs = osrc_pair_count(input, grad, geom);
    if pairs == 0 {
        return OpWork::skipped();
    }
    let in_nnz = input.nnz() as u64;
    let g_nnz = grad.nnz() as u64;
    let k = geom.kernel as u64;
    // Both operands must be streamed at one word per port per cycle; the
    // MAC array retires up to K pairs per cycle.
    let stream_cycles = in_nnz.max(g_nnz);
    let mac_cycles = pairs.div_ceil(k);
    OpWork {
        cycles: OP_SETUP_CYCLES + stream_cycles.max(mac_cycles),
        macs: pairs,
        loads: in_nnz + g_nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::SparseVec;

    #[test]
    fn src_work_counts_nonzeros() {
        let v = SparseVec::from_dense(&[0.0, 1.0, 0.0, 2.0, 3.0]);
        let w = src_work(&v, ConvGeometry::new(3, 1, 1));
        assert_eq!(w.cycles, OP_SETUP_CYCLES + 3);
        assert_eq!(w.macs, 9);
        assert_eq!(w.loads, 3);
    }

    #[test]
    fn src_zero_row_skipped() {
        let v = SparseVec::zeros(32);
        assert_eq!(src_work(&v, ConvGeometry::new(3, 1, 1)), OpWork::skipped());
    }

    #[test]
    fn msrc_masked_loads_cost_nothing() {
        let grad = SparseVec::from_dense(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let geom = ConvGeometry::new(3, 1, 1);
        let mask = RowMask::from_offsets(6, &[3]); // only grad[4]'s window hits
        let w = msrc_work(&grad, geom, &mask);
        assert_eq!(w.cycles, OP_SETUP_CYCLES + 1);
        assert_eq!(w.loads, 1);
    }

    #[test]
    fn msrc_fully_masked_row_skipped() {
        let grad = SparseVec::from_dense(&[1.0, 1.0]);
        let geom = ConvGeometry::new(1, 1, 0);
        let mask = RowMask::empty(2);
        assert_eq!(msrc_work(&grad, geom, &mask), OpWork::skipped());
    }

    #[test]
    fn osrc_work_streams_both_operands() {
        let input = SparseVec::from_dense(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let grad = SparseVec::from_dense(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let geom = ConvGeometry::new(3, 1, 1);
        let w = osrc_work(&input, &grad, geom);
        assert!(w.macs > 0);
        assert_eq!(w.loads, 8);
        assert!(w.cycles >= OP_SETUP_CYCLES + 6); // input stream dominates
    }

    #[test]
    fn osrc_disjoint_operands_skipped() {
        let input = SparseVec::from_dense(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let grad = SparseVec::from_dense(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let geom = ConvGeometry::new(1, 1, 0);
        assert_eq!(osrc_work(&input, &grad, geom), OpWork::skipped());
    }

    #[test]
    fn opwork_add_sums_components() {
        let a = OpWork {
            cycles: 1,
            macs: 2,
            loads: 3,
        };
        let b = OpWork {
            cycles: 10,
            macs: 20,
            loads: 30,
        };
        assert_eq!(
            a.add(&b),
            OpWork {
                cycles: 11,
                macs: 22,
                loads: 33
            }
        );
    }
}
