//! Property-based tests of the sparse kernels' algebraic invariants.

use proptest::prelude::*;
use sparsetrain_sparse::msrc::{fully_masked_loads, msrc_accumulate};
use sparsetrain_sparse::osrc::{osrc_accumulate, osrc_pair_count};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::src::src_accumulate;
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};
use sparsetrain_sparse::RowMask;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

/// `dense` as a one-row map.
fn one_row(dense: Vec<f32>) -> SparseFeatureMap {
    SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, dense.len(), dense))
}

fn arb_sparse_row(len: usize) -> impl Strategy<Value = SparseFeatureMap> {
    proptest::collection::vec(
        prop_oneof![
            60u32 => Just(0.0f32),
            40u32 => (-4.0f32..4.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        len,
    )
    .prop_map(one_row)
}

fn arb_geom() -> impl Strategy<Value = ConvGeometry> {
    (1usize..=5, 1usize..=2, 0usize..=2).prop_map(|(k, s, p)| ConvGeometry::new(k, s, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A one-row map's dense roundtrip is lossless.
    #[test]
    fn compressed_roundtrip(row in arb_sparse_row(64)) {
        let dense = row.to_tensor();
        prop_assert!(row.row(0, 0).validate().is_ok());
        prop_assert_eq!(SparseFeatureMap::from_tensor(&dense), row);
    }

    /// SRC is linear: conv(a + b) == conv(a) + conv(b) element-wise.
    #[test]
    fn src_is_linear(
        a in arb_sparse_row(32),
        b in arb_sparse_row(32),
        geom in arb_geom(),
    ) {
        let kernel: Vec<f32> = (0..geom.kernel).map(|i| 0.5 + i as f32 * 0.25).collect();
        if 32 + 2 * geom.pad < geom.kernel { return Ok(()); }
        let out_len = geom.output_extent(32);
        let conv = |row: &SparseFeatureMap| {
            let mut out = vec![0.0; out_len];
            src_accumulate(row.row(0, 0), &kernel, geom, &mut out);
            out
        };
        let (ca, cb) = (conv(&a), conv(&b));
        let (da, db) = (a.to_tensor(), b.to_tensor());
        let sum_dense: Vec<f32> = da.as_slice().iter().zip(db.as_slice()).map(|(x, y)| x + y).collect();
        let csum = conv(&one_row(sum_dense));
        for i in 0..out_len {
            prop_assert!(
                (csum[i] - (ca[i] + cb[i])).abs() < 1e-3 * (1.0 + csum[i].abs()),
                "linearity violated at {}", i
            );
        }
    }

    /// src_accumulate into an existing buffer equals conv + add.
    #[test]
    fn src_accumulate_is_additive(
        row in arb_sparse_row(24),
        base in proptest::collection::vec(-1.0f32..1.0, 24),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let kernel = [1.0f32, -0.5, 0.25];
        let mut fresh = vec![0.0; 24];
        src_accumulate(row.row(0, 0), &kernel, geom, &mut fresh);
        let mut acc = base.clone();
        src_accumulate(row.row(0, 0), &kernel, geom, &mut acc);
        for i in 0..24 {
            prop_assert!((acc[i] - (base[i] + fresh[i])).abs() < 1e-5);
        }
    }

    /// MSRC with a full mask never writes outside the scatter of its
    /// non-zeros, and an empty mask writes nothing.
    #[test]
    fn msrc_mask_extremes(grad in arb_sparse_row(32), geom in arb_geom(), kernel_seed in 0u32..100) {
        let kernel: Vec<f32> = (0..geom.kernel).map(|i| ((kernel_seed + i as u32) % 7) as f32 - 3.0).collect();
        let grad = grad.row(0, 0);
        let empty = RowMask::empty(32);
        let mut out = vec![0.0; 32];
        msrc_accumulate(grad, &kernel, geom, &empty, &mut out);
        prop_assert!(out.iter().all(|&v| v == 0.0), "empty mask must produce zeros");
        prop_assert_eq!(fully_masked_loads(grad, geom, &empty), grad.nnz());
        // With a full mask, only gradients whose entire scatter window is
        // out of bounds are skipped (stride can push windows past the row).
        let full = RowMask::full(32);
        let out_of_bounds = grad
            .iter()
            .filter(|&(ox, _)| {
                let base = ox as isize * geom.stride as isize - geom.pad as isize;
                base >= 32 || base + geom.kernel as isize <= 0
            })
            .count();
        prop_assert_eq!(fully_masked_loads(grad, geom, &full), out_of_bounds);
    }

    /// OSRC commutes with the dense definition for random operands.
    #[test]
    fn osrc_matches_dense_definition(
        input in arb_sparse_row(24),
        geom in arb_geom(),
        grad_seed in 0u64..500,
    ) {
        if 24 + 2 * geom.pad < geom.kernel { return Ok(()); }
        let out_len = geom.output_extent(24);
        // Deterministic pseudo-random gradient of the right length.
        let grad_dense: Vec<f32> = (0..out_len)
            .map(|i| {
                let v = ((i as u64 * 2654435761 + grad_seed) >> 7) % 5;
                if v == 0 { 0.0 } else { v as f32 - 2.0 }
            })
            .collect();
        let grad = one_row(grad_dense.clone());
        let mut got = vec![0.0f32; geom.kernel];
        osrc_accumulate(input.row(0, 0), grad.row(0, 0), geom, &mut got);
        let in_dense = input.to_tensor();
        let in_dense = in_dense.as_slice();
        let mut want = vec![0.0f32; geom.kernel];
        for (ox, &g) in grad_dense.iter().enumerate() {
            for (v, w) in want.iter_mut().enumerate() {
                let ix = ox as isize * geom.stride as isize - geom.pad as isize + v as isize;
                if ix >= 0 && (ix as usize) < in_dense.len() {
                    *w += g * in_dense[ix as usize];
                }
            }
        }
        for v in 0..geom.kernel {
            prop_assert!(
                (got[v] - want[v]).abs() < 1e-3 * (1.0 + want[v].abs()),
                "tap {} mismatch: {} vs {}", v, got[v], want[v]
            );
        }
    }

    /// Work-model invariants: cycles and MACs scale with non-zeros; zero
    /// rows cost nothing; pair counts bound OSRC MACs.
    #[test]
    fn work_model_invariants(
        row in arb_sparse_row(48),
        grad in arb_sparse_row(48),
        mask_row in arb_sparse_row(48),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let (row, grad) = (row.row(0, 0), grad.row(0, 0));
        let sw = src_work(row, geom);
        prop_assert_eq!(sw.loads, row.nnz() as u64);
        prop_assert_eq!(sw.macs, row.nnz() as u64 * 3);

        let mask = RowMask::from_offsets(48, mask_row.row(0, 0).offsets());
        let mw = msrc_work(grad, geom, &mask);
        prop_assert!(mw.loads <= grad.nnz() as u64);

        let ow = osrc_work(row, grad, geom);
        prop_assert_eq!(ow.macs, osrc_pair_count(row, grad, geom));
        if ow.macs > 0 {
            prop_assert!(ow.cycles >= ow.macs.div_ceil(3));
        }
    }

    /// Storage accounting: compressed words are twice the non-zero count.
    #[test]
    fn storage_words_track_nnz(row in arb_sparse_row(64)) {
        prop_assert_eq!(row.storage_words(), 2 * row.nnz());
    }
}
