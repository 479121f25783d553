//! A map's arena is the per-row model laid out once: every row it lends
//! equals a plain filter of that dense row's non-zeros, bit for bit, and
//! every derived quantity (`to_tensor`, `masks`, `nnz`, `storage_words`,
//! `map_values`) equals the same quantity summed or mapped row by row —
//! at row widths on both sides of every mask-word boundary and at the
//! widths the models train at (4, 16, 32), with all-zero
//! channels, signed zeros, NaN, ±∞ and subnormals in the data.

use proptest::prelude::*;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{RowMask, SparseRow};
use sparsetrain_tensor::Tensor3;

const WIDTHS: [usize; 9] = [1, 4, 7, 16, 32, 63, 64, 65, 130];
const MAX_C: usize = 3;
const MAX_H: usize = 3;
const MAX_W: usize = 130;

fn arb_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        30u32 => -3.0f32..3.0,
        8u32 => Just(0.0f32),
        8u32 => Just(-0.0f32),
        4u32 => Just(f32::NAN),
        2u32 => Just(f32::INFINITY),
        2u32 => Just(f32::NEG_INFINITY),
        // Subnormals of both signs (bit pattern 0 is +0.0, also fine).
        4u32 => (0u32..0x0080_0000).prop_map(f32::from_bits),
        4u32 => (0u32..0x0080_0000).prop_map(|b| -f32::from_bits(b)),
    ]
}

/// A `c × h × w` map (`w` one of [`WIDTHS`]) whose elements are kept with
/// probability `density` %, and whose channel `zero` (when `< c`) is all
/// zeros.
fn arb_tensor() -> impl Strategy<Value = Tensor3> {
    (
        0..WIDTHS.len(),
        1usize..=MAX_C,
        1usize..=MAX_H,
        0usize..=MAX_C,
        0u32..=100,
        proptest::collection::vec((arb_value(), 0u32..100), MAX_C * MAX_H * MAX_W),
    )
        .prop_map(|(wi, c, h, zero, density, data)| {
            Tensor3::from_fn(c, h, WIDTHS[wi], |ci, y, x| {
                let (v, coin) = data[(ci * MAX_H + y) * MAX_W + x];
                if ci == zero || coin >= density {
                    0.0
                } else {
                    v
                }
            })
        })
}

/// One reference row: its non-zeros' offsets and values.
type Pairs = (Vec<u32>, Vec<f32>);

/// Equal to a `len`-position reference row as stored bits (`==` on the
/// values would call two NaNs unequal).
fn same_row(a: SparseRow<'_>, len: usize, (offsets, values): &Pairs) -> bool {
    let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.len() == len && a.offsets() == offsets.as_slice() && bits(a.values()) == bits(values)
}

/// The per-row reference: each dense row's non-zeros (`±0.0` dropped,
/// NaN and ±∞ kept), filtered on their own.
fn reference_rows(t: &Tensor3) -> Vec<Pairs> {
    let (c, h, _) = t.shape();
    (0..c * h)
        .map(|r| {
            let row = t.row(r / h, r % h).iter().enumerate();
            row.filter(|&(_, &v)| v != 0.0)
                .map(|(o, &v)| (o as u32, v))
                .unzip()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn rows_equal_the_per_row_model(t in arb_tensor()) {
        let fm = SparseFeatureMap::from_tensor(&t);
        prop_assert_eq!(fm.validate(), Ok(()));
        let (c, h, w) = t.shape();
        prop_assert_eq!((fm.channels(), fm.height(), fm.width()), (c, h, w));
        let want = reference_rows(&t);
        for (r, row) in want.iter().enumerate() {
            prop_assert!(same_row(fm.row(r / h, r % h), w, row), "row {}", r);
        }
        let nnz = want.iter().map(|(_, values)| values.len()).sum::<usize>();
        prop_assert_eq!(fm.nnz(), nnz);
        prop_assert_eq!(fm.storage_words(), 2 * nnz);
        let masks = fm.masks();
        prop_assert_eq!(masks.len(), want.len());
        for (r, (mask, (offsets, _))) in masks.iter().zip(&want).enumerate() {
            prop_assert_eq!(mask, &RowMask::from_offsets(w, offsets), "mask of row {}", r);
        }
    }

    /// `to_tensor` gives back the dense map bit for bit, except that a
    /// `-0.0` comes back `+0.0` (zeros are not stored); compressing the
    /// result again gives the same arena.
    #[test]
    fn to_tensor_round_trips(t in arb_tensor()) {
        let fm = SparseFeatureMap::from_tensor(&t);
        let back = fm.to_tensor();
        prop_assert_eq!(back.shape(), t.shape());
        for (i, (&got, &was)) in back.as_slice().iter().zip(t.as_slice()).enumerate() {
            let want = if was == 0.0 { 0.0f32 } else { was };
            prop_assert_eq!(got.to_bits(), want.to_bits(), "element {}", i);
        }
        prop_assert_eq!(format!("{:?}", SparseFeatureMap::from_tensor(&back)), format!("{:?}", fm));
    }

    /// `map_values` maps each stored value and drops what maps to `±0.0`,
    /// row by row — quantizer-like maps included, which underflow.
    #[test]
    fn map_values_is_the_row_by_row_map(t in arb_tensor(), which in 0usize..3) {
        let f = |v: f32| match which {
            0 => v * 0.5,
            1 => if v.abs() < 1.0 { -0.0 } else { -v },
            _ => (v * 256.0).round() / 256.0,
        };
        let fm = SparseFeatureMap::from_tensor(&t);
        let mapped = fm.map_values(f);
        prop_assert_eq!(mapped.validate(), Ok(()));
        let (_, h, w) = t.shape();
        let masks = mapped.masks();
        for (r, (offsets, values)) in reference_rows(&t).iter().enumerate() {
            let want: Pairs = offsets
                .iter()
                .zip(values)
                .map(|(&o, &v)| (o, f(v)))
                .filter(|&(_, m)| m != 0.0)
                .unzip();
            prop_assert!(same_row(mapped.row(r / h, r % h), w, &want), "row {}", r);
            prop_assert_eq!(&masks[r], &RowMask::from_offsets(w, &want.0), "mask of row {}", r);
        }
    }
}

#[test]
fn empty_and_degenerate_shapes() {
    for (c, h, w) in [(0, 3, 4), (2, 0, 4), (2, 3, 0), (1, 1, 1)] {
        let t = Tensor3::zeros(c, h, w);
        let fm = SparseFeatureMap::from_tensor(&t);
        assert_eq!(fm.validate(), Ok(()), "{c}x{h}x{w}");
        assert_eq!(fm.nnz(), 0);
        assert_eq!(fm.to_tensor(), t);
        assert_eq!(fm.masks(), vec![RowMask::empty(w); c * h]);
        assert_eq!(fm.map_values(|v| v + 1.0), fm);
    }
}
