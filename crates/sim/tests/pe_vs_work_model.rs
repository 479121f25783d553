//! Cross-validation of the cycle-exact PE state machine against the
//! closed-form work model over randomized operands — the property that
//! justifies running whole-network simulations on the closed form.

use proptest::prelude::*;
use sparsetrain_core::dataflow::{MsrcOp, OsrcOp, SrcOp};
use sparsetrain_sim::group::{PeGroup, QueuedOp};
use sparsetrain_sim::pe::CycleExactPe;
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};
use sparsetrain_sparse::{RowMask, SparseVec};
use sparsetrain_tensor::conv::ConvGeometry;

fn arb_sparse_row(len: usize) -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec(
        prop_oneof![
            55u32 => Just(0.0f32),
            45u32 => (-3.0f32..3.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        len,
    )
    .prop_map(|dense| SparseVec::from_dense(&dense))
}

fn arb_geom() -> impl Strategy<Value = ConvGeometry> {
    (1usize..=5, 1usize..=2, 0usize..=2).prop_map(|(k, s, p)| ConvGeometry::new(k, s, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn src_pe_equals_work_model(row in arb_sparse_row(40), geom in arb_geom()) {
        let op = SrcOp { input: row.as_row(), geom, out_len: 40 };
        let mut pe = CycleExactPe::new(11);
        pe.issue_src(&op);
        let got = pe.run_to_completion();
        prop_assert_eq!(got, src_work(&row, geom));
    }

    #[test]
    fn msrc_pe_equals_work_model(
        grad in arb_sparse_row(40),
        mask_pattern in arb_sparse_row(40),
        geom in arb_geom(),
    ) {
        let mask = RowMask::from_offsets(40, mask_pattern.offsets());
        let op = MsrcOp { grad: grad.as_row(), mask: &mask, geom, out_len: 40 };
        let mut pe = CycleExactPe::new(11);
        pe.issue_msrc(&op);
        let got = pe.run_to_completion();
        prop_assert_eq!(got, msrc_work(&grad, geom, &mask));
    }

    #[test]
    fn osrc_pe_equals_work_model(input in arb_sparse_row(40), geom in arb_geom()) {
        if 40 + 2 * geom.pad < geom.kernel { return Ok(()); }
        let out_len = geom.output_extent(40);
        let grad_dense: Vec<f32> = (0..out_len)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let grad = SparseVec::from_dense(&grad_dense);
        let op = OsrcOp { input: input.as_row(), grad: grad.as_row(), geom };
        let mut pe = CycleExactPe::new(11);
        pe.issue_osrc(&op);
        let got = pe.run_to_completion();
        prop_assert_eq!(got, osrc_work(&input, &grad, geom));
    }

    /// A PE group's lock-step execution of queued ops finishes in exactly
    /// the longest queue's work-model total.
    #[test]
    fn group_makespan_equals_longest_queue(
        rows in proptest::collection::vec(arb_sparse_row(24), 1..12),
        pes in 1usize..4,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut group = PeGroup::new(pes, 11);
        let mut expected = vec![0u64; pes];
        for (i, row) in rows.iter().enumerate() {
            let pe = i % pes;
            group.enqueue(pe, QueuedOp::Src(SrcOp { input: row.as_row(), geom, out_len: 24 }));
            expected[pe] += src_work(row, geom).cycles;
        }
        let makespan = group.run();
        prop_assert_eq!(makespan, *expected.iter().max().unwrap());
    }
}
