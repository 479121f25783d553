//! Cycle-exact processing-element model (§V, Fig. 7c).
//!
//! The PE executes one 1-D convolution at a time. It holds one operand in
//! Reg-1 (a kernel row for SRC/MSRC, a sliding window of `K` gradient
//! values for OSRC), streams the sparse operand through Port-1 one non-zero
//! per cycle, performs up to `K` multiplies against Reg-1 in that cycle,
//! and accumulates into Reg-2. Look-ahead on Port-3 lets MSRC skip operands
//! whose entire scatter window is masked out, at zero cycle cost.
//!
//! [`CycleExactPe`] steps this state machine one cycle at a time; its cycle
//! counts must equal the closed-form work model in
//! [`sparsetrain_sparse::work`] — the property the tests here pin down and
//! that justifies using the work model for whole-network simulation.

use sparsetrain_sparse::ops::{MsrcOp, OsrcOp, SrcOp};
use sparsetrain_sparse::work::{OpWork, OP_SETUP_CYCLES};
use sparsetrain_sparse::SparseRow;

/// Internal pipeline state of the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Loading the register operand / priming the multiplier array.
    Setup { remaining: u64 },
    /// Streaming sparse operand elements.
    Stream,
    /// No operation in flight.
    Idle,
}

/// A processing element stepped one cycle at a time.
///
/// Usage: [`CycleExactPe::issue_src`] (or `_msrc` / `_osrc`) to start an
/// operation, then [`CycleExactPe::tick`] until it returns `false`
/// (operation finished). Statistics accumulate across operations.
#[derive(Debug)]
pub struct CycleExactPe {
    state: State,
    /// Queue of per-element MAC counts remaining for the current op.
    pending: Vec<u64>,
    cursor: usize,
    mac_lanes: usize,
    /// Port-2 loads charged when the in-flight op completes (OSRC's second
    /// operand stream, fetched concurrently with Port-1).
    extra_loads: u64,
    /// Total cycles ticked while busy.
    pub busy_cycles: u64,
    /// Total MACs performed.
    pub macs: u64,
    /// Total Port-1 operand loads.
    pub loads: u64,
}

impl CycleExactPe {
    /// Creates a PE with `mac_lanes` multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `mac_lanes == 0`.
    pub fn new(mac_lanes: usize) -> Self {
        assert!(mac_lanes > 0, "PE needs at least one MAC lane");
        Self {
            state: State::Idle,
            pending: Vec::new(),
            cursor: 0,
            mac_lanes,
            extra_loads: 0,
            busy_cycles: 0,
            macs: 0,
            loads: 0,
        }
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.state != State::Idle
    }

    fn issue(&mut self, per_element_macs: Vec<u64>) {
        assert!(!self.is_busy(), "PE already has an operation in flight");
        if per_element_macs.is_empty() {
            // Zero-work op: skipped entirely by the controller, no cycles.
            return;
        }
        self.pending = per_element_macs;
        self.cursor = 0;
        self.state = State::Setup {
            remaining: OP_SETUP_CYCLES,
        };
    }

    /// Issues an SRC operation. Each non-zero input element is one stream
    /// cycle performing `K` MACs.
    pub fn issue_src(&mut self, op: &SrcOp<'_>) {
        let k = op.geom.kernel as u64;
        let elems: Vec<u64> = op.input.iter().map(|_| k).collect();
        self.issue(elems);
    }

    /// Issues an MSRC operation. Gradient elements whose whole scatter
    /// window misses the mask are skipped by look-ahead (no cycle).
    pub fn issue_msrc(&mut self, op: &MsrcOp<'_>) {
        let k = op.geom.kernel;
        let stride = op.geom.stride as isize;
        let pad = op.geom.pad as isize;
        let elems: Vec<u64> = op
            .grad
            .iter()
            .filter(|&(ox, _)| {
                let base = ox as isize * stride - pad;
                let start = base.max(0) as usize;
                let end = (base + k as isize).max(0) as usize;
                op.mask.any_in_range(start, end)
            })
            .map(|_| k as u64)
            .collect();
        self.issue(elems);
    }

    /// Issues an OSRC operation. The longer operand streams; the MAC array
    /// retires up to `K` overlapping pairs per cycle; both operands must be
    /// fetched, so the stream length is the max of the two non-zero counts.
    pub fn issue_osrc(&mut self, op: &OsrcOp<'_>) {
        let pairs = count_pairs(op.input, op.grad, op.geom.kernel, op.geom.stride, op.geom.pad);
        if pairs == 0 {
            return;
        }
        let k = op.geom.kernel as u64;
        let stream = (op.input.nnz() as u64).max(op.grad.nnz() as u64);
        let mac_cycles = pairs.div_ceil(k);
        let cycles = stream.max(mac_cycles);
        // Distribute the pair-MACs over the stream cycles (up to K each);
        // the element list is synthetic but cycle- and MAC-exact.
        let mut elems = Vec::with_capacity(cycles as usize);
        let mut left = pairs;
        for i in 0..cycles {
            let rest_cycles = cycles - i;
            let this = (left / rest_cycles)
                .min(k)
                .max(u64::from(left > 0 && rest_cycles == 1));
            let this = if rest_cycles == 1 { left } else { this };
            elems.push(this);
            left -= this;
        }
        debug_assert_eq!(left, 0);
        // OSRC streams both operands; Port-1 loads are counted per stream
        // cycle, the remainder (Port-2) is charged at op completion.
        self.extra_loads = (op.input.nnz() as u64 + op.grad.nnz() as u64).saturating_sub(cycles);
        self.issue(elems);
    }

    /// Advances one clock cycle. Returns `true` while the operation is
    /// still in flight.
    pub fn tick(&mut self) -> bool {
        match self.state {
            State::Idle => false,
            State::Setup { remaining } => {
                self.busy_cycles += 1;
                if remaining > 1 {
                    self.state = State::Setup {
                        remaining: remaining - 1,
                    };
                } else {
                    self.state = State::Stream;
                }
                true
            }
            State::Stream => {
                self.busy_cycles += 1;
                let macs = self.pending[self.cursor].min(self.mac_lanes as u64);
                self.macs += self.pending[self.cursor];
                let _ = macs;
                self.loads += 1;
                self.cursor += 1;
                if self.cursor >= self.pending.len() {
                    self.state = State::Idle;
                    self.pending.clear();
                    self.cursor = 0;
                    self.loads += self.extra_loads;
                    self.extra_loads = 0;
                    false
                } else {
                    true
                }
            }
        }
    }

    /// Runs the in-flight operation to completion and returns its cost.
    pub fn run_to_completion(&mut self) -> OpWork {
        let c0 = self.busy_cycles;
        let m0 = self.macs;
        let l0 = self.loads;
        while self.tick() {}
        OpWork {
            cycles: self.busy_cycles - c0,
            macs: self.macs - m0,
            loads: self.loads - l0,
        }
    }
}

fn count_pairs(input: SparseRow<'_>, grad: SparseRow<'_>, k: usize, stride: usize, pad: usize) -> u64 {
    let k = k as isize;
    let stride = stride as isize;
    let pad = pad as isize;
    let in_offsets = input.offsets();
    let mut cursor = 0usize;
    let mut pairs = 0u64;
    for (ox, _) in grad.iter() {
        let base = ox as isize * stride - pad;
        let win_start = base.max(0) as u32;
        while cursor < in_offsets.len() && in_offsets[cursor] < win_start {
            cursor += 1;
        }
        let mut j = cursor;
        while j < in_offsets.len() && (in_offsets[j] as isize) < base + k {
            pairs += 1;
            j += 1;
        }
    }
    pairs
}

/// A one-row (`1 × 1 × len`) map of `dense`, for unit tests.
#[cfg(test)]
pub(crate) fn one_row(dense: &[f32]) -> sparsetrain_sparse::rowconv::SparseFeatureMap {
    let t = sparsetrain_tensor::Tensor3::from_vec(1, 1, dense.len(), dense.to_vec());
    sparsetrain_sparse::rowconv::SparseFeatureMap::from_tensor(&t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_sparse::ops::OpAt;
    use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};
    use sparsetrain_sparse::RowMask;
    use sparsetrain_tensor::conv::ConvGeometry;

    #[test]
    fn src_cycles_match_work_model() {
        let geom = ConvGeometry::new(3, 1, 1);
        for pattern in [
            vec![0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 0.0, 1.0],
            vec![1.0; 16],
            vec![0.0; 8],
            vec![5.0],
        ] {
            let input = one_row(&pattern);
            let op = SrcOp {
                input: input.row(0, 0),
                geom,
                at: OpAt::default(),
            };
            let mut pe = CycleExactPe::new(11);
            pe.issue_src(&op);
            let got = pe.run_to_completion();
            let want = src_work(input.row(0, 0), geom);
            assert_eq!(got, want, "pattern {pattern:?}");
        }
    }

    #[test]
    fn msrc_cycles_match_work_model() {
        let geom = ConvGeometry::new(3, 1, 1);
        let grad = one_row(&[1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0]);
        for mask_offsets in [vec![3u32], vec![0, 1, 2, 3, 4, 5, 6, 7], vec![], vec![7]] {
            let mask = RowMask::from_offsets(8, &mask_offsets);
            let op = MsrcOp {
                grad: grad.row(0, 0),
                mask: &mask,
                geom,
                at: OpAt::default(),
            };
            let mut pe = CycleExactPe::new(11);
            pe.issue_msrc(&op);
            let got = pe.run_to_completion();
            let want = msrc_work(grad.row(0, 0), geom, &mask);
            assert_eq!(got, want, "mask {mask_offsets:?}");
        }
    }

    #[test]
    fn osrc_cycles_match_work_model() {
        let geom = ConvGeometry::new(3, 1, 1);
        let cases = [
            (
                vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0],
            ),
            (vec![1.0; 8], vec![1.0; 8]),
            (vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], vec![0.0; 8]),
        ];
        for (i_pat, g_pat) in cases {
            let input = one_row(&i_pat);
            let grad = one_row(&g_pat);
            let op = OsrcOp {
                input: input.row(0, 0),
                grad: grad.row(0, 0),
                geom,
                at: OpAt::default(),
            };
            let mut pe = CycleExactPe::new(11);
            pe.issue_osrc(&op);
            let got = pe.run_to_completion();
            let want = osrc_work(input.row(0, 0), grad.row(0, 0), geom);
            assert_eq!(got.cycles, want.cycles, "cycles for {i_pat:?} x {g_pat:?}");
            assert_eq!(got.macs, want.macs, "macs for {i_pat:?} x {g_pat:?}");
            assert_eq!(got.loads, want.loads, "loads for {i_pat:?} x {g_pat:?}");
        }
    }

    #[test]
    fn zero_work_op_takes_zero_cycles() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = one_row(&[0.0; 8]);
        let op = SrcOp {
            input: input.row(0, 0),
            geom,
            at: OpAt::default(),
        };
        let mut pe = CycleExactPe::new(3);
        pe.issue_src(&op);
        assert!(!pe.is_busy());
        assert_eq!(pe.busy_cycles, 0);
    }

    #[test]
    fn pe_reusable_across_ops() {
        let geom = ConvGeometry::new(1, 1, 0);
        let a = one_row(&[1.0, 2.0]);
        let b = one_row(&[3.0]);
        let mut pe = CycleExactPe::new(1);
        pe.issue_src(&SrcOp {
            input: a.row(0, 0),
            geom,
            at: OpAt::default(),
        });
        pe.run_to_completion();
        pe.issue_src(&SrcOp {
            input: b.row(0, 0),
            geom,
            at: OpAt::default(),
        });
        pe.run_to_completion();
        assert_eq!(pe.busy_cycles, (OP_SETUP_CYCLES + 2) + (OP_SETUP_CYCLES + 1));
        assert_eq!(pe.loads, 3);
    }

    #[test]
    #[should_panic(expected = "already has an operation")]
    fn double_issue_panics() {
        let geom = ConvGeometry::new(1, 1, 0);
        let a = one_row(&[1.0]);
        let mut pe = CycleExactPe::new(1);
        pe.issue_src(&SrcOp {
            input: a.row(0, 0),
            geom,
            at: OpAt::default(),
        });
        pe.issue_src(&SrcOp {
            input: a.row(0, 0),
            geom,
            at: OpAt::default(),
        });
    }
}
