//! Property tests for the compressed-row storage-format cost model.

use proptest::prelude::*;
use sparsetrain_sparse::formats::{best_format, compression_ratio, storage_words, RowFormat};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_tensor::Tensor3;

/// Arbitrary dense rows with controllable zero runs (value 0 with
/// probability ~2/3), each as a one-row map.
fn arb_row() -> impl Strategy<Value = SparseFeatureMap> {
    prop::collection::vec(prop_oneof![2 => Just(0.0f32), 1 => 0.01f32..1.0], 1..512)
        .prop_map(|dense| SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, dense.len(), dense)))
}

proptest! {
    #[test]
    fn every_format_stores_at_least_the_values(map in arb_row()) {
        let row = map.row(0, 0);
        for f in RowFormat::ALL {
            prop_assert!(
                storage_words(row, f) >= row.nnz() as u64,
                "{} lost values",
                f.name()
            );
        }
    }

    #[test]
    fn dense_cost_is_always_the_row_length(map in arb_row()) {
        let row = map.row(0, 0);
        prop_assert_eq!(storage_words(row, RowFormat::Dense), row.len() as u64);
    }

    #[test]
    fn best_format_is_the_minimum(map in arb_row()) {
        let row = map.row(0, 0);
        let (best, words) = best_format(row);
        for f in RowFormat::ALL {
            prop_assert!(storage_words(row, f) >= words, "{} beat {}", f.name(), best.name());
        }
    }

    #[test]
    fn bitmap_overhead_is_exactly_len_over_16(map in arb_row()) {
        let row = map.row(0, 0);
        let overhead = storage_words(row, RowFormat::Bitmap) - row.nnz() as u64;
        prop_assert_eq!(overhead, (row.len() as u64).div_ceil(16));
    }

    #[test]
    fn compression_ratio_inverts_storage(map in arb_row()) {
        let row = map.row(0, 0);
        for f in RowFormat::ALL {
            let r = compression_ratio(row, f);
            let w = storage_words(row, f);
            if w > 0 {
                prop_assert!((r - row.len() as f64 / w as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn offsets_beat_bitmap_below_quarter_density(map in arb_row()) {
        let row = map.row(0, 0);
        // The analytic crossover: offsets pay ⌈slots/4⌉ ≥ ⌈nnz/4⌉ words,
        // bitmap pays ⌈len/16⌉. When nnz/len is well below 1/4 and gaps
        // are short enough to avoid escapes, offsets never lose by more
        // than the escape slack; we assert the weaker monotone form —
        // best_format never returns Dense for rows under 50% density
        // with at least 32 positions.
        prop_assume!(row.len() >= 32);
        prop_assume!(map.density() < 0.5);
        let (best, _) = best_format(row);
        prop_assert_ne!(best, RowFormat::Dense);
    }
}
