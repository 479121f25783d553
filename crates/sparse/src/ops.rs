//! The §IV row operations of each training stage, enumerated once.
//!
//! Every stage of a CONV layer decomposes into 1-D row operations: SRC for
//! Forward, MSRC for GTA, OSRC for GTW. The three visitors here list them,
//! grouped into **tasks**: all operations that accumulate into one output
//! row (Forward, GTA) or one kernel row of `dW` (GTW) share a task id. The
//! accelerator's controller dispatches a task to one PE, so partial sums
//! stay in the PE's registers for the task's whole lifetime.
//!
//! This is the one list of the ops. [`crate::ScalarEngine`]'s band runs
//! each op through its `*_accumulate` kernel in visit order, and that
//! order defines the bits every engine must match. The simulator, the
//! static analysis and the compiler of `sparsetrain-core` price or count
//! the same ops through [`crate::work`].
//!
//! Every visitor keeps one contract:
//!
//! * it visits the output units of `units` (filters for Forward and GTW,
//!   channels for GTA) and calls `on_op(task, op)` task-major, in the order
//!   its doc gives;
//! * a task id is the index of the task's output row in the stage's whole
//!   output, counted in rows (`Ow`, `W` or `K` elements), so a sub-range
//!   yields the ids the full range would;
//! * it skips an op whose operand row or mask is empty: the kernels add
//!   nothing for it, so skipping keeps the bits;
//! * it allocates nothing: each op goes straight to the closure.

use crate::compressed::SparseRow;
use crate::mask::RowMask;
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use std::ops::Range;

/// Identifies one scheduling task: the output row (Forward, GTA) or the
/// `dW` kernel row (GTW) its operations accumulate into.
pub type TaskId = usize;

/// Where one row operation sits in its stage's loop nest. The op reads
/// kernel row `W[fi][ci][u]` (SRC, MSRC) or writes `dW[fi][ci][u]` (OSRC);
/// input row `iy` and gradient row `oy` are related by `iy = oy·s − pad + u`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpAt {
    /// Filter.
    pub fi: usize,
    /// Input channel.
    pub ci: usize,
    /// Kernel row.
    pub u: usize,
    /// The output row accumulated: `oy` of `out[fi]` for SRC, `iy` of
    /// `din[ci]` for MSRC. OSRC accumulates into kernel row `u`; its `row`
    /// is the gradient row `oy` it correlates.
    pub row: usize,
}

/// One SRC operation: a sparse input row against one dense kernel row.
#[derive(Debug, Clone, Copy)]
pub struct SrcOp<'a> {
    /// The sparse input-activation row streamed through Port-1.
    pub input: SparseRow<'a>,
    /// Convolution geometry of the row operation.
    pub geom: ConvGeometry,
    /// The op's coordinates.
    pub at: OpAt,
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
    /// The op's coordinates.
    pub at: OpAt,
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
    /// The op's coordinates.
    pub at: OpAt,
}

/// The input row `oy·s − pad + u` that output row `oy` reads through
/// kernel row `u`, when it lies in `0..h`.
#[inline(always)]
pub(crate) fn input_row(oy: usize, u: usize, geom: ConvGeometry, h: usize) -> Option<usize> {
    (oy * geom.stride + u).checked_sub(geom.pad).filter(|&iy| iy < h)
}

/// Visits the SRC operations of the Forward step of `filters`.
///
/// Task `fi·Ho + oy` is output row `oy` of filter `fi`. Its ops come in
/// `(u, ci)` order, one per in-bounds, non-empty input row
/// `(ci, oy·s − pad + u)`.
pub fn for_each_forward_op<'a>(
    input: &'a SparseFeatureMap,
    geom: ConvGeometry,
    filters: Range<usize>,
    mut on_op: impl FnMut(TaskId, SrcOp<'a>),
) {
    let oh = geom.output_extent(input.height());
    for fi in filters {
        for oy in 0..oh {
            for u in 0..geom.kernel {
                let Some(iy) = input_row(oy, u, geom, input.height()) else {
                    continue;
                };
                for ci in 0..input.channels() {
                    let row = input.row(ci, iy);
                    if row.nnz() > 0 {
                        let at = OpAt { fi, ci, u, row: oy };
                        on_op(fi * oh + oy, SrcOp { input: row, geom, at });
                    }
                }
            }
        }
    }
}

/// Visits the MSRC operations of the GTA step of `channels`. `masks` holds
/// one forward mask per `(channel, input row)`, channel-major, over `in_h`
/// rows.
///
/// Task `ci·H + iy` is input-gradient row `iy` of channel `ci`. Its ops
/// come in `(fi, oy)` order, ascending, one per non-empty gradient row
/// `(fi, oy)` that reaches `iy` (`u = iy + pad − oy·s` in `0..K`). A row
/// whose mask is empty has no ops: the downstream ReLU zeroes all of it.
/// Each op writes row `iy` only, so for one `din` element this adds in the
/// `(fi, oy)` order of a scatter from each gradient row.
pub fn for_each_gta_op<'a>(
    dout: &'a SparseFeatureMap,
    masks: &'a [RowMask],
    geom: ConvGeometry,
    in_h: usize,
    channels: Range<usize>,
    mut on_op: impl FnMut(TaskId, MsrcOp<'a>),
) {
    let s = geom.stride;
    for ci in channels {
        for iy in 0..in_h {
            let task = ci * in_h + iy;
            let mask = &masks[task];
            if mask.count() == 0 {
                continue;
            }
            // Gradient rows with oy·s in [iy + pad − K + 1, iy + pad].
            let hi = iy + geom.pad;
            let oys = hi.saturating_sub(geom.kernel - 1).div_ceil(s)..(hi / s + 1).min(dout.height());
            if oys.is_empty() {
                continue;
            }
            for fi in 0..dout.channels() {
                // A filter whose window holds no non-zero has no ops here:
                // skip it on the row pointers, not row by row.
                if dout.rows_nnz(fi, oys.clone()) == 0 {
                    continue;
                }
                for oy in oys.clone() {
                    let grad = dout.row(fi, oy);
                    if grad.nnz() > 0 {
                        let at = OpAt {
                            fi,
                            ci,
                            u: hi - oy * s,
                            row: iy,
                        };
                        on_op(task, MsrcOp { grad, mask, geom, at });
                    }
                }
            }
        }
    }
}

/// Visits the OSRC operations of the GTW step of `filters`.
///
/// Task `(fi·C + ci)·K + u` is kernel row `u` of `dW[fi][ci]`. Its ops
/// come in `oy` order, one per gradient row `(fi, oy)` whose input row
/// `(ci, oy·s − pad + u)` is in bounds, with both rows non-empty.
pub fn for_each_gtw_op<'a>(
    input: &'a SparseFeatureMap,
    dout: &'a SparseFeatureMap,
    geom: ConvGeometry,
    filters: Range<usize>,
    mut on_op: impl FnMut(TaskId, OsrcOp<'a>),
) {
    let (c, k) = (input.channels(), geom.kernel);
    for fi in filters {
        for ci in 0..c {
            for u in 0..k {
                for oy in 0..dout.height() {
                    let Some(iy) = input_row(oy, u, geom, input.height()) else {
                        continue;
                    };
                    let (irow, grad) = (input.row(ci, iy), dout.row(fi, oy));
                    if irow.nnz() > 0 && grad.nnz() > 0 {
                        let at = OpAt { fi, ci, u, row: oy };
                        on_op(
                            (fi * c + ci) * k + u,
                            OsrcOp {
                                input: irow,
                                grad,
                                geom,
                                at,
                            },
                        );
                    }
                }
            }
        }
    }
}
