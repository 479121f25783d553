//! Enumeration of the 1-D row operations of each training stage.
//!
//! Operations are visited grouped into **tasks**: all operations that
//! accumulate into the same output row (Forward, GTA) or the same kernel
//! row of `dW` (GTW) share a task id. The controller dispatches a task to
//! one PE, so partial sums stay in the PE's registers for the task's whole
//! lifetime — this is the scheduling contract the simulator implements.

use super::trace::ConvLayerTrace;
use sparsetrain_sparse::{RowMask, SparseRow};
use sparsetrain_tensor::conv::ConvGeometry;

/// Identifies one scheduling task (one output row's worth of work).
pub type TaskId = usize;

/// Which training stage an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Forward propagation (SRC operations).
    Forward,
    /// Gradients to activations (MSRC operations).
    Gta,
    /// Gradients to weights (OSRC operations).
    Gtw,
}

impl StepKind {
    /// All three stages in execution order.
    pub const ALL: [StepKind; 3] = [StepKind::Forward, StepKind::Gta, StepKind::Gtw];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            StepKind::Forward => "forward",
            StepKind::Gta => "gta",
            StepKind::Gtw => "gtw",
        }
    }
}

/// One SRC operation: a sparse input row against one dense kernel row.
#[derive(Debug, Clone, Copy)]
pub struct SrcOp<'a> {
    /// The sparse input-activation row streamed through Port-1.
    pub input: SparseRow<'a>,
    /// Convolution geometry of the row operation.
    pub geom: ConvGeometry,
    /// Length of the output row being accumulated.
    pub out_len: usize,
}

/// One MSRC operation: a sparse gradient row scattered under a mask.
#[derive(Debug, Clone, Copy)]
pub struct MsrcOp<'a> {
    /// The sparse output-gradient row streamed through Port-1.
    pub grad: SparseRow<'a>,
    /// Non-zero mask of the forward input row being written (Port-3).
    pub mask: &'a RowMask,
    /// Convolution geometry of the row operation.
    pub geom: ConvGeometry,
    /// Length of the input-gradient row being accumulated.
    pub out_len: usize,
}

/// One OSRC operation: two sparse rows correlated into `K` taps.
#[derive(Debug, Clone, Copy)]
pub struct OsrcOp<'a> {
    /// The sparse input-activation row (Port-1).
    pub input: SparseRow<'a>,
    /// The sparse output-gradient row (Port-2, cached `K` at a time).
    pub grad: SparseRow<'a>,
    /// Convolution geometry of the row operation.
    pub geom: ConvGeometry,
}

/// Visits every SRC operation of the Forward step.
///
/// Task `(fi, oy)` — one output row — contains one operation per
/// `(input channel, kernel row)` pair whose input row is in bounds and
/// non-empty. `on_op(task, op)` is called in task-major order.
///
/// Returns the number of tasks (`F × Ho`, including all-skipped ones).
pub fn for_each_forward_op<'a>(trace: &'a ConvLayerTrace, mut on_op: impl FnMut(TaskId, SrcOp<'a>)) -> usize {
    let geom = trace.geom;
    let oh = trace.out_height();
    let ow = trace.out_width();
    let c = trace.input.channels();
    let h = trace.input.height();
    let mut task = 0;
    for _fi in 0..trace.filters {
        for oy in 0..oh {
            for u in 0..geom.kernel {
                let iy = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for ci in 0..c {
                    let row = trace.input.row(ci, iy as usize);
                    if row.nnz() == 0 {
                        continue;
                    }
                    on_op(
                        task,
                        SrcOp {
                            input: row,
                            geom,
                            out_len: ow,
                        },
                    );
                }
            }
            task += 1;
        }
    }
    task
}

/// Visits every MSRC operation of the GTA step.
///
/// Task `(ci, iy)` — one input-gradient row — contains one operation per
/// `(filter, kernel row)` pair whose gradient row reaches it. Rows whose
/// mask is empty produce no operations (the whole row is known-zero).
///
/// Returns the number of tasks (`C × H`). Returns 0 immediately if the
/// layer does not need its input gradient.
pub fn for_each_gta_op<'a>(trace: &'a ConvLayerTrace, mut on_op: impl FnMut(TaskId, MsrcOp<'a>)) -> usize {
    if !trace.needs_input_grad {
        return 0;
    }
    let geom = trace.geom;
    let h = trace.input.height();
    let w = trace.input.width();
    let c = trace.input.channels();
    let oh = trace.dout.height();
    let mut task = 0;
    for ci in 0..c {
        for iy in 0..h {
            let mask = &trace.input_masks[ci * h + iy];
            if mask.count() > 0 {
                // Gradient rows oy with oy*stride - pad + u == iy for some
                // u in [0, K): oy in [(iy + pad - K + 1), (iy + pad)] / stride.
                let lo = (iy + geom.pad).saturating_sub(geom.kernel - 1);
                let hi = iy + geom.pad;
                for fi in 0..trace.filters {
                    for t in lo..=hi {
                        if t % geom.stride != 0 {
                            continue;
                        }
                        let oy = t / geom.stride;
                        if oy >= oh {
                            continue;
                        }
                        let grow = trace.dout.row(fi, oy);
                        if grow.nnz() == 0 {
                            continue;
                        }
                        on_op(
                            task,
                            MsrcOp {
                                grad: grow,
                                mask,
                                geom,
                                out_len: w,
                            },
                        );
                    }
                }
            }
            task += 1;
        }
    }
    task
}

/// Visits every OSRC operation of the GTW step.
///
/// Task `(fi, ci, u)` — one kernel row of `dW` — contains one operation per
/// output row `oy` whose matching input row `iy = oy·s − pad + u` is in
/// bounds, with both operands non-empty.
///
/// Returns the number of tasks (`F × C × K`).
pub fn for_each_gtw_op<'a>(trace: &'a ConvLayerTrace, mut on_op: impl FnMut(TaskId, OsrcOp<'a>)) -> usize {
    let geom = trace.geom;
    let h = trace.input.height();
    let c = trace.input.channels();
    let oh = trace.dout.height();
    let mut task = 0;
    for fi in 0..trace.filters {
        for ci in 0..c {
            for u in 0..geom.kernel {
                for oy in 0..oh {
                    let iy = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let irow = trace.input.row(ci, iy as usize);
                    let grow = trace.dout.row(fi, oy);
                    if irow.nnz() == 0 || grow.nnz() == 0 {
                        continue;
                    }
                    on_op(
                        task,
                        OsrcOp {
                            input: irow,
                            grad: grow,
                            geom,
                        },
                    );
                }
                task += 1;
            }
        }
    }
    task
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::Tensor3;

    fn trace() -> ConvLayerTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(2, 4, 4, |c, y, x| if (c + y + x) % 2 == 0 { 1.0 } else { 0.0 });
        let dout = Tensor3::from_fn(3, 4, 4, |c, y, x| if (c + y * x) % 3 == 0 { 0.5 } else { 0.0 });
        let input_fm = SparseFeatureMap::from_tensor(&input);
        let masks = input_fm.masks();
        ConvLayerTrace {
            name: "t".into(),
            geom,
            filters: 3,
            input: input_fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }
    }

    #[test]
    fn forward_task_count_is_f_times_oh() {
        let t = trace();
        let tasks = for_each_forward_op(&t, |_, _| {});
        assert_eq!(tasks, 3 * 4);
    }

    #[test]
    fn forward_ops_are_task_major() {
        let t = trace();
        let mut last = 0;
        for_each_forward_op(&t, |task, _| {
            assert!(task >= last, "tasks must be non-decreasing");
            last = task;
        });
    }

    #[test]
    fn forward_op_count_bounded_by_dense() {
        let t = trace();
        let mut ops = 0;
        for_each_forward_op(&t, |_, _| ops += 1);
        // at most F * Oh * K * C ops
        assert!(ops <= 3 * 4 * 3 * 2);
        assert!(ops > 0);
    }

    #[test]
    fn gta_task_count_is_c_times_h() {
        let t = trace();
        let tasks = for_each_gta_op(&t, |_, _| {});
        assert_eq!(tasks, 2 * 4);
    }

    #[test]
    fn gta_skipped_when_not_needed() {
        let mut t = trace();
        t.needs_input_grad = false;
        let mut ops = 0;
        let tasks = for_each_gta_op(&t, |_, _| ops += 1);
        assert_eq!(tasks, 0);
        assert_eq!(ops, 0);
    }

    #[test]
    fn gtw_task_count_is_f_c_k() {
        let t = trace();
        let tasks = for_each_gtw_op(&t, |_, _| {});
        assert_eq!(tasks, 3 * 2 * 3);
    }

    #[test]
    fn gta_enumeration_covers_exactly_reachable_pairs() {
        // Cross-check the (oy, u) enumeration against a brute-force scan.
        let t = trace();
        let mut got = 0usize;
        for_each_gta_op(&t, |_, _| got += 1);
        let geom = t.geom;
        let mut want = 0usize;
        for ci in 0..t.input.channels() {
            for iy in 0..t.input.height() {
                if t.input_masks[ci * t.input.height() + iy].count() == 0 {
                    continue;
                }
                for fi in 0..t.filters {
                    for oy in 0..t.dout.height() {
                        for u in 0..geom.kernel {
                            let target = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                            if target == iy as isize && t.dout.row(fi, oy).nnz() > 0 {
                                want += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn stride_two_gta_enumeration_consistent() {
        let geom = ConvGeometry::new(3, 2, 1);
        let input = Tensor3::from_fn(1, 6, 6, |_, y, x| ((y * x) % 2) as f32);
        let oh = geom.output_extent(6);
        let dout = Tensor3::from_fn(2, oh, oh, |_, _, _| 1.0);
        let input_fm = SparseFeatureMap::from_tensor(&input);
        let masks = input_fm.masks();
        let t = ConvLayerTrace {
            name: "s2".into(),
            geom,
            filters: 2,
            input: input_fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        };
        let mut got = 0usize;
        for_each_gta_op(&t, |_, _| got += 1);
        let mut want = 0usize;
        for ci in 0..1 {
            for iy in 0..6 {
                if t.input_masks[ci * 6 + iy].count() == 0 {
                    continue;
                }
                for _fi in 0..2 {
                    for oy in 0..oh {
                        for u in 0..3 {
                            let target = (oy * 2) as isize - 1 + u as isize;
                            if target == iy as isize {
                                want += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn step_kind_names() {
        assert_eq!(StepKind::Forward.name(), "forward");
        assert_eq!(StepKind::ALL.len(), 3);
    }
}
