//! Offset–value compressed sparse vectors.
//!
//! This is the storage format the PPU writes back to the global buffer
//! (§V: "resulting vector will be converted into a compressed format") and
//! the format PE Port-1 consumes: a list of `(offset, value)` pairs with
//! strictly increasing offsets.
//!
//! [`SparseRow`] is the format as a borrowed view — what every kernel and
//! cost model reads, and what a row of a
//! [`SparseFeatureMap`](crate::rowconv::SparseFeatureMap) lends out.
//! [`SparseVec`] is one row that owns its storage. The public row
//! functions (the SRC / MSRC / OSRC kernels, the work model, the format
//! costs) take `impl Into<SparseRow>`, so a map's row and a `&SparseVec`
//! go in alike.

use std::fmt;

/// A broken compressed-row invariant, as reported by
/// [`SparseRow::validate`] and
/// [`SparseFeatureMap::validate`](crate::rowconv::SparseFeatureMap::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowError {
    /// `offsets` and `values` differ in length.
    LengthMismatch {
        /// Stored offsets.
        offsets: usize,
        /// Stored values.
        values: usize,
    },
    /// An offset lies at or past the row's logical length.
    OffsetOutOfRange {
        /// The offending offset.
        offset: u32,
        /// The row's logical length.
        len: usize,
    },
    /// An offset is not greater than the one before it.
    NotIncreasing {
        /// The offending offset.
        offset: u32,
    },
    /// A stored value is `±0.0`.
    StoredZero {
        /// Where the zero is stored.
        offset: u32,
    },
    /// A map's row pointers are not `c·h + 1` non-decreasing entries from
    /// 0 to the stored non-zero count; `row` is the first row they fail to
    /// delimit.
    RowPtr {
        /// The row (channel-major `c·h + y`).
        row: usize,
    },
    /// A map's mask words do not have exactly the stored offsets of `row`
    /// set.
    MaskDisagrees {
        /// The row (channel-major `c·h + y`).
        row: usize,
    },
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RowError::LengthMismatch { offsets, values } => {
                write!(f, "offsets ({offsets}) and values ({values}) length mismatch")
            }
            RowError::OffsetOutOfRange { offset, len } => {
                write!(f, "offset {offset} out of range for len {len}")
            }
            RowError::NotIncreasing { offset } => write!(f, "offsets not strictly increasing at {offset}"),
            RowError::StoredZero { offset } => write!(f, "stored value at offset {offset} is zero"),
            RowError::RowPtr { row } => write!(f, "row pointers do not delimit row {row}"),
            RowError::MaskDisagrees { row } => write!(f, "mask words of row {row} disagree with its offsets"),
        }
    }
}

impl std::error::Error for RowError {}

/// A borrowed compressed row: logical length `len`, sorted `(offset,
/// value)` pairs. `Copy`, so kernels take it by value.
///
/// Built by [`SparseVec::as_row`] and
/// [`SparseFeatureMap::row`](crate::rowconv::SparseFeatureMap::row); the
/// invariants of [`SparseVec`] hold for every view (see
/// [`SparseRow::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseRow<'a> {
    len: usize,
    offsets: &'a [u32],
    values: &'a [f32],
}

impl<'a> SparseRow<'a> {
    /// A view of `len` positions over parallel `offsets` / `values`.
    pub(crate) fn new(len: usize, offsets: &'a [u32], values: &'a [f32]) -> Self {
        Self { len, offsets, values }
    }

    /// Checks the representation invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), RowError> {
        if self.offsets.len() != self.values.len() {
            return Err(RowError::LengthMismatch {
                offsets: self.offsets.len(),
                values: self.values.len(),
            });
        }
        let mut prev: Option<u32> = None;
        for (&offset, &value) in self.offsets.iter().zip(self.values) {
            if offset as usize >= self.len {
                return Err(RowError::OffsetOutOfRange {
                    offset,
                    len: self.len,
                });
            }
            if prev.is_some_and(|p| offset <= p) {
                return Err(RowError::NotIncreasing { offset });
            }
            if value == 0.0 {
                return Err(RowError::StoredZero { offset });
            }
            prev = Some(offset);
        }
        Ok(())
    }

    /// Logical length of the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of non-zero elements (1.0 for a zero-length row).
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.nnz() as f64 / self.len as f64
        }
    }

    /// The sorted offsets of the non-zero elements.
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// The non-zero values, parallel to [`SparseRow::offsets`].
    pub fn values(&self) -> &'a [f32] {
        self.values
    }

    /// Iterates over `(offset, value)` pairs in increasing offset order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + 'a {
        self.offsets
            .iter()
            .zip(self.values)
            .map(|(&o, &v)| (o as usize, v))
    }

    /// Value at `index` (zero when not stored).
    ///
    /// `O(log nnz)` binary search.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> f32 {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        match self.offsets.binary_search(&(index as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Index of the first stored offset `>= index`, for cursor-based scans.
    pub fn lower_bound(&self, index: usize) -> usize {
        self.offsets.partition_point(|&o| (o as usize) < index)
    }

    /// Expands back to a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0; self.len];
        for (o, v) in self.iter() {
            dense[o] = v;
        }
        dense
    }

    /// Number of 16-bit words this row occupies in the compressed on-chip
    /// format (one word per value plus one offset word per value).
    pub fn storage_words(&self) -> usize {
        2 * self.nnz()
    }
}

impl<'a> From<&'a SparseVec> for SparseRow<'a> {
    fn from(v: &'a SparseVec) -> Self {
        v.as_row()
    }
}

/// A sparse 1-D vector of logical length `len` that owns its sorted
/// `(offset, value)` pairs — the single-row counterpart of a map's arena.
///
/// Invariants (kept by every constructor, checked by
/// [`SparseVec::validate`]): offsets strictly increase, every offset is
/// `< len`, and stored values are non-zero. The read API is
/// [`SparseRow`]'s, through [`SparseVec::as_row`].
///
/// ```
/// use sparsetrain_sparse::SparseVec;
/// let v = SparseVec::from_dense(&[0.0, 3.0, 0.0, -1.0]);
/// assert_eq!(v.nnz(), 2);
/// assert_eq!(v.to_dense(), vec![0.0, 3.0, 0.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    len: usize,
    offsets: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVec {
    /// Creates an empty (all-zero) sparse vector of logical length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            offsets: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Compresses a dense slice, dropping exact zeros (`±0.0`; NaN and
    /// ±∞ are kept).
    pub fn from_dense(dense: &[f32]) -> Self {
        let (offsets, values) = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .unzip();
        Self {
            len: dense.len(),
            offsets,
            values,
        }
    }

    /// This vector as a borrowed row.
    pub fn as_row(&self) -> SparseRow<'_> {
        SparseRow::new(self.len, &self.offsets, &self.values)
    }

    /// Checks the representation invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), RowError> {
        self.as_row().validate()
    }

    /// Logical length of the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of non-zero elements (1.0 for a zero-length vector).
    pub fn density(&self) -> f64 {
        self.as_row().density()
    }

    /// The sorted offsets of the non-zero elements.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The non-zero values, parallel to [`SparseVec::offsets`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over `(offset, value)` pairs in increasing offset order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.as_row().iter()
    }

    /// Value at `index` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> f32 {
        self.as_row().get(index)
    }

    /// Expands back to a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        self.as_row().to_dense()
    }

    /// Appends a non-zero element with an offset beyond the current last.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range, not greater than the last stored
    /// offset, or `value` is zero.
    pub fn push(&mut self, offset: usize, value: f32) {
        assert!(offset < self.len, "offset {offset} out of range {}", self.len);
        assert!(value != 0.0, "cannot store an explicit zero");
        if let Some(&last) = self.offsets.last() {
            assert!(offset as u32 > last, "offsets must strictly increase");
        }
        self.offsets.push(offset as u32);
        self.values.push(value);
    }

    /// Index of the first stored offset `>= index`, for cursor-based scans.
    pub fn lower_bound(&self, index: usize) -> usize {
        self.as_row().lower_bound(index)
    }

    /// Number of 16-bit words this vector occupies in the compressed
    /// on-chip format (one word per value plus one offset word per value).
    pub fn storage_words(&self) -> usize {
        self.as_row().storage_words()
    }
}

impl fmt::Display for SparseVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVec(len={}, nnz={})", self.len, self.nnz())
    }
}

impl FromIterator<f32> for SparseVec {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        let dense: Vec<f32> = iter.into_iter().collect();
        Self::from_dense(&dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_dense() {
        let dense = vec![0.0, 1.5, 0.0, 0.0, -2.5, 3.0];
        let s = SparseVec::from_dense(&dense);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), dense);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn get_is_sparse_aware() {
        let s = SparseVec::from_dense(&[0.0, 7.0, 0.0]);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.get(1), 7.0);
        assert_eq!(s.get(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = SparseVec::zeros(3);
        let _ = s.get(3);
    }

    #[test]
    fn push_maintains_order() {
        let mut s = SparseVec::zeros(10);
        s.push(2, 1.0);
        s.push(7, -1.0);
        assert_eq!(s.to_dense()[2], 1.0);
        assert_eq!(s.to_dense()[7], -1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn push_out_of_order_panics() {
        let mut s = SparseVec::zeros(10);
        s.push(5, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn density_and_storage() {
        let s = SparseVec::from_dense(&[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.density(), 0.25);
        assert_eq!(s.storage_words(), 2);
    }

    #[test]
    fn lower_bound_cursor() {
        let s = SparseVec::from_dense(&[0.0, 1.0, 0.0, 2.0, 0.0, 3.0]);
        assert_eq!(s.lower_bound(0), 0);
        assert_eq!(s.lower_bound(2), 1);
        assert_eq!(s.lower_bound(4), 2);
        assert_eq!(s.lower_bound(6), 3);
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let row = |len, offsets: Vec<u32>, values: Vec<f32>| SparseVec { len, offsets, values };
        assert_eq!(
            row(4, vec![1, 2], vec![1.0]).validate(),
            Err(RowError::LengthMismatch {
                offsets: 2,
                values: 1
            })
        );
        assert_eq!(
            row(4, vec![1, 4], vec![1.0, 2.0]).validate(),
            Err(RowError::OffsetOutOfRange { offset: 4, len: 4 })
        );
        assert_eq!(
            row(4, vec![3, 1], vec![1.0, 2.0]).validate(),
            Err(RowError::NotIncreasing { offset: 1 })
        );
        assert_eq!(
            row(4, vec![1, 1], vec![1.0, 2.0]).validate(),
            Err(RowError::NotIncreasing { offset: 1 })
        );
        assert_eq!(
            row(4, vec![0, 2], vec![1.0, -0.0]).validate(),
            Err(RowError::StoredZero { offset: 2 })
        );
        assert_eq!(row(4, vec![0, 2], vec![f32::NAN, 1.0]).validate(), Ok(()));
    }

    #[test]
    fn from_dense_drops_signed_zeros_and_keeps_non_finite() {
        let s = SparseVec::from_dense(&[-0.0, f32::NAN, 0.0, f32::NEG_INFINITY, 1e-45]);
        assert_eq!(s.offsets(), &[1, 3, 4]);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn from_iterator_collects() {
        let s: SparseVec = vec![0.0, 2.0, 0.0].into_iter().collect();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.len(), 3);
    }
}
