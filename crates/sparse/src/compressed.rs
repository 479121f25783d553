//! Offset–value compressed sparse rows.
//!
//! This is the storage format the PPU writes back to the global buffer
//! (§V: "resulting vector will be converted into a compressed format") and
//! the format PE Port-1 consumes: a list of `(offset, value)` pairs with
//! strictly increasing offsets.
//!
//! [`SparseRow`] is the format as a borrowed view — what every kernel and
//! cost model reads, and what a row of a
//! [`SparseFeatureMap`](crate::rowconv::SparseFeatureMap) lends out. The
//! map owns the storage; a single row is a `1 × 1 × len` map.

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
/// Lent by [`SparseFeatureMap::row`](crate::rowconv::SparseFeatureMap::row).
/// Offsets strictly increase, every offset is `< len`, and stored values
/// are non-zero (NaN and ±∞ are stored); [`SparseRow::validate`] checks
/// all three.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_names_each_broken_invariant() {
        let check = |len, offsets: &[u32], values: &[f32]| SparseRow::new(len, offsets, values).validate();
        assert_eq!(
            check(4, &[1, 2], &[1.0]),
            Err(RowError::LengthMismatch {
                offsets: 2,
                values: 1
            })
        );
        assert_eq!(
            check(4, &[1, 4], &[1.0, 2.0]),
            Err(RowError::OffsetOutOfRange { offset: 4, len: 4 })
        );
        assert_eq!(
            check(4, &[3, 1], &[1.0, 2.0]),
            Err(RowError::NotIncreasing { offset: 1 })
        );
        assert_eq!(
            check(4, &[1, 1], &[1.0, 2.0]),
            Err(RowError::NotIncreasing { offset: 1 })
        );
        assert_eq!(
            check(4, &[0, 2], &[1.0, -0.0]),
            Err(RowError::StoredZero { offset: 2 })
        );
        assert_eq!(check(4, &[0, 2], &[f32::NAN, 1.0]), Ok(()));
    }
}
