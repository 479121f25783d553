//! Offset–value compressed sparse vectors.
//!
//! This is the storage format the PPU writes back to the global buffer
//! (§V: "resulting vector will be converted into a compressed format") and
//! the format PE Port-1 consumes: a list of `(offset, value)` pairs with
//! strictly increasing offsets.

use std::fmt;

/// A sparse 1-D vector of logical length `len`, stored as sorted
/// `(offset, value)` pairs.
///
/// Invariants (checked by constructors and [`SparseVec::validate`]):
/// offsets strictly increase, every offset is `< len`, and stored values
/// are non-zero.
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

    /// Compresses a dense slice, dropping exact zeros.
    pub fn from_dense(dense: &[f32]) -> Self {
        // Count first: one exact allocation per part instead of growing
        // both from empty, row after row.
        let nnz = dense.iter().filter(|&&v| v != 0.0).count();
        let mut offsets = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                offsets.push(i as u32);
                values.push(v);
            }
        }
        Self {
            len: dense.len(),
            offsets,
            values,
        }
    }

    /// Checks the representation invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.values.len() {
            return Err(format!(
                "offsets ({}) and values ({}) length mismatch",
                self.offsets.len(),
                self.values.len()
            ));
        }
        let mut prev: Option<u32> = None;
        for &o in &self.offsets {
            if o as usize >= self.len {
                return Err(format!("offset {o} out of range for len {}", self.len));
            }
            if let Some(p) = prev {
                if o <= p {
                    return Err(format!("offsets not strictly increasing at {o}"));
                }
            }
            prev = Some(o);
        }
        if self.values.contains(&0.0) {
            return Err("stored value is zero".to_string());
        }
        Ok(())
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
        if self.len == 0 {
            1.0
        } else {
            self.nnz() as f64 / self.len as f64
        }
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
        self.offsets
            .iter()
            .zip(&self.values)
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

    /// Expands back to a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0; self.len];
        for (o, v) in self.iter() {
            dense[o] = v;
        }
        dense
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
        self.offsets.partition_point(|&o| (o as usize) < index)
    }

    /// Number of 16-bit words this vector occupies in the compressed
    /// on-chip format (one word per value plus one offset word per value).
    pub fn storage_words(&self) -> usize {
        2 * self.nnz()
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
    fn validate_rejects_unsorted_offsets() {
        let unsorted = SparseVec {
            len: 4,
            offsets: vec![3, 1],
            values: vec![1.0, 2.0],
        };
        assert!(unsorted.validate().is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let s: SparseVec = vec![0.0, 2.0, 0.0].into_iter().collect();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.len(), 3);
    }
}
