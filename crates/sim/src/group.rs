//! PE-group co-simulation: 3 cycle-exact PEs executing assigned task
//! queues (the group's PPU is not modelled here; its pruning stage is
//! [`crate::prune_unit`]).
//!
//! This is the bridge between the cycle-exact PE model and the whole-
//! machine scheduler: a group executes its queues one op at a time, ticking
//! every PE each cycle, and its measured makespan must equal the sum of the
//! per-op work-model cycles of the longest queue — the quantity the fast
//! scheduler uses. The tests pin that equality down.

use crate::pe::CycleExactPe;
use sparsetrain_core::dataflow::{MsrcOp, OsrcOp, SrcOp};

/// One operation assigned to a PE queue.
pub enum QueuedOp<'a> {
    /// A Forward-step SRC operation.
    Src(SrcOp<'a>),
    /// A GTA-step MSRC operation.
    Msrc(MsrcOp<'a>),
    /// A GTW-step OSRC operation.
    Osrc(OsrcOp<'a>),
}

/// A PE group: `n` cycle-exact PEs.
pub struct PeGroup<'a> {
    pes: Vec<CycleExactPe>,
    queues: Vec<std::collections::VecDeque<QueuedOp<'a>>>,
}

impl<'a> PeGroup<'a> {
    /// Creates a group of `pes` processing elements with `mac_lanes`
    /// multiplier lanes each.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0`.
    pub fn new(pes: usize, mac_lanes: usize) -> Self {
        assert!(pes > 0, "group needs at least one PE");
        Self {
            pes: (0..pes).map(|_| CycleExactPe::new(mac_lanes)).collect(),
            queues: (0..pes).map(|_| std::collections::VecDeque::new()).collect(),
        }
    }

    /// Number of PEs in the group.
    pub fn size(&self) -> usize {
        self.pes.len()
    }

    /// Appends an op to PE `pe`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn enqueue(&mut self, pe: usize, op: QueuedOp<'a>) {
        self.queues[pe].push_back(op);
    }

    /// Runs every queue to completion, ticking all PEs in lock-step.
    /// Returns the makespan in cycles.
    pub fn run(&mut self) -> u64 {
        let mut cycles = 0u64;
        loop {
            let mut any_active = false;
            for (pe, queue) in self.pes.iter_mut().zip(&mut self.queues) {
                if !pe.is_busy() {
                    // Issue the next op; zero-work ops are skipped
                    // immediately (they cost no cycles), so drain them.
                    while let Some(op) = queue.pop_front() {
                        match op {
                            QueuedOp::Src(op) => pe.issue_src(&op),
                            QueuedOp::Msrc(op) => pe.issue_msrc(&op),
                            QueuedOp::Osrc(op) => pe.issue_osrc(&op),
                        }
                        if pe.is_busy() {
                            break;
                        }
                    }
                }
                if pe.is_busy() {
                    pe.tick();
                    any_active = true;
                }
            }
            if !any_active {
                break;
            }
            cycles += 1;
        }
        cycles
    }

    /// Total MACs performed across the group's PEs.
    pub fn total_macs(&self) -> u64 {
        self.pes.iter().map(|p| p.macs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::one_row;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_sparse::work::{src_work, OpWork};
    use sparsetrain_tensor::conv::ConvGeometry;

    fn rows() -> Vec<SparseFeatureMap> {
        vec![
            one_row(&[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0]),
            one_row(&[0.0; 8]),
            one_row(&[1.0; 8]),
            one_row(&[0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 5.0]),
            one_row(&[1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
        ]
    }

    #[test]
    fn group_makespan_matches_work_model() {
        let geom = ConvGeometry::new(3, 1, 1);
        let rows = rows();
        let mut group = PeGroup::new(3, 11);
        // Distribute ops round-robin and compute the expected makespan from
        // the analytic work model with identical assignment.
        let mut expected = [0u64; 3];
        for (i, row) in rows.iter().enumerate() {
            let pe = i % 3;
            group.enqueue(
                pe,
                QueuedOp::Src(SrcOp {
                    input: row.row(0, 0),
                    geom,
                    out_len: 8,
                }),
            );
            expected[pe] += src_work(row.row(0, 0), geom).cycles;
        }
        let makespan = group.run();
        assert_eq!(makespan, *expected.iter().max().unwrap());
    }

    #[test]
    fn total_work_is_conserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let rows = rows();
        let mut group = PeGroup::new(2, 11);
        let mut expected = OpWork::default();
        for (i, row) in rows.iter().enumerate() {
            group.enqueue(
                i % 2,
                QueuedOp::Src(SrcOp {
                    input: row.row(0, 0),
                    geom,
                    out_len: 8,
                }),
            );
            expected = expected.add(&src_work(row.row(0, 0), geom));
        }
        group.run();
        assert_eq!(group.total_macs(), expected.macs);
    }

    #[test]
    fn empty_group_runs_zero_cycles() {
        let mut group = PeGroup::new(3, 4);
        assert_eq!(group.run(), 0);
    }

    #[test]
    fn zero_work_ops_are_skipped_in_queue() {
        let geom = ConvGeometry::new(3, 1, 1);
        let zero = one_row(&[0.0; 8]);
        let nonzero = one_row(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut group = PeGroup::new(1, 11);
        group.enqueue(
            0,
            QueuedOp::Src(SrcOp {
                input: zero.row(0, 0),
                geom,
                out_len: 8,
            }),
        );
        group.enqueue(
            0,
            QueuedOp::Src(SrcOp {
                input: nonzero.row(0, 0),
                geom,
                out_len: 8,
            }),
        );
        group.enqueue(
            0,
            QueuedOp::Src(SrcOp {
                input: zero.row(0, 0),
                geom,
                out_len: 8,
            }),
        );
        let makespan = group.run();
        assert_eq!(makespan, src_work(nonzero.row(0, 0), geom).cycles);
    }
}
