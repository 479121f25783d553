//! Storage-format study: how should compressed rows be encoded?
//!
//! The PPU compresses every result row before it returns to the global
//! buffer (§V), and the machine model prices that traffic through
//! `OperandFormat`. The 25%-overhead offset encoding it assumes is one
//! point in a space; this module costs the standard alternatives exactly
//! so the choice is auditable:
//!
//! * **Offset+value** (SCNN-style): 4-bit offset deltas packed four per
//!   16-bit word, plus one word per value. Overhead grows with *runs of
//!   zeros longer than 15* (escape deltas).
//! * **Bitmap**: one presence bit per position plus the packed values.
//!   Overhead is fixed at `len/16` words regardless of density.
//! * **Run-length**: alternating (zero-run, literal-run) byte headers.
//!   Wins on long runs, loses on scattered singletons.
//! * **Dense**: one word per position — the baseline's raw layout.
//!
//! The crossover structure (bitmap beats offsets above ~25% density,
//! dense beats everything above ~80%) is asserted by the tests and
//! printed by `sparsetrain-bench sweep format`.
//!
//! # Example
//!
//! ```
//! use sparsetrain_sparse::formats::{storage_words, RowFormat};
//! use sparsetrain_sparse::SparseVec;
//!
//! let row = SparseVec::from_dense(&[0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
//! assert_eq!(storage_words(&row, RowFormat::Dense), 8);
//! assert!(storage_words(&row, RowFormat::OffsetValue) < 8);
//! ```

use crate::compressed::SparseRow;

/// A row storage format, costed in 16-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowFormat {
    /// One word per position, zeros included.
    Dense,
    /// Values + 4-bit offset deltas (escape delta 15 for longer gaps),
    /// packed four deltas per word.
    OffsetValue,
    /// Values + one presence bit per position.
    Bitmap,
    /// Byte-granular run-length headers (zero-run length, literal-run
    /// length), two headers per word, plus the literal values.
    RunLength,
}

impl RowFormat {
    /// All formats, for sweeps.
    pub const ALL: [RowFormat; 4] = [
        RowFormat::Dense,
        RowFormat::OffsetValue,
        RowFormat::Bitmap,
        RowFormat::RunLength,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            RowFormat::Dense => "dense",
            RowFormat::OffsetValue => "offset+value",
            RowFormat::Bitmap => "bitmap",
            RowFormat::RunLength => "run-length",
        }
    }
}

/// Number of 4-bit delta slots needed to encode the gap structure of a
/// row: one slot per non-zero plus one escape slot per 15 positions of
/// preceding zero-run.
fn offset_delta_slots(row: SparseRow<'_>) -> u64 {
    let mut slots = 0u64;
    let mut prev: i64 = -1;
    for (pos, _) in row.iter() {
        let gap = (pos as i64 - prev - 1) as u64;
        slots += gap / 15; // escape deltas for long gaps
        slots += 1;
        prev = pos as i64;
    }
    slots
}

/// Zero-run / literal-run segments of a row, byte-header granularity
/// (runs longer than 255 split).
fn rle_headers(row: SparseRow<'_>) -> u64 {
    let mut headers = 0u64;
    let mut prev: i64 = -1;
    let mut literal_open = false;
    for (pos, _) in row.iter() {
        let gap = (pos as i64 - prev - 1) as u64;
        if gap > 0 || prev < 0 {
            // Close any literal run, open zero-run header(s) + literal.
            headers += 1 + gap / 255; // zero-run header(s)
            headers += 1; // new literal header
            literal_open = true;
        } else if !literal_open {
            headers += 1;
            literal_open = true;
        }
        // Literal runs longer than 255 need extra headers; approximate by
        // one header per 255 consecutive non-zeros, folded in below.
        prev = pos as i64;
    }
    // Tail zero-run (if the row does not end on a non-zero).
    if let Some((last, _)) = row.iter().last() {
        let tail = (row.len() as i64 - 1 - last as i64) as u64;
        headers += tail.div_ceil(255).min(1) + tail / 255;
    } else if !row.is_empty() {
        headers += (row.len() as u64).div_ceil(255);
    }
    headers + row.nnz() as u64 / 255
}

/// Storage cost of one row under `format`, in 16-bit words.
pub fn storage_words<'a>(row: impl Into<SparseRow<'a>>, format: RowFormat) -> u64 {
    let row = row.into();
    let nnz = row.nnz() as u64;
    let len = row.len() as u64;
    match format {
        RowFormat::Dense => len,
        RowFormat::OffsetValue => nnz + offset_delta_slots(row).div_ceil(4),
        RowFormat::Bitmap => nnz + len.div_ceil(16),
        RowFormat::RunLength => nnz + rle_headers(row).div_ceil(2),
    }
}

/// The cheapest format for one row, with its cost.
pub fn best_format<'a>(row: impl Into<SparseRow<'a>>) -> (RowFormat, u64) {
    let row = row.into();
    RowFormat::ALL
        .iter()
        .map(|&f| (f, storage_words(row, f)))
        .min_by_key(|&(_, w)| w)
        .expect("ALL is non-empty")
}

/// Compression ratio of `format` relative to dense storage (1.0 for an
/// empty row).
pub fn compression_ratio<'a>(row: impl Into<SparseRow<'a>>, format: RowFormat) -> f64 {
    let row = row.into();
    if row.is_empty() {
        return 1.0;
    }
    row.len() as f64 / storage_words(row, format).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::SparseVec;

    fn row_with_density(len: usize, every: usize) -> SparseVec {
        let dense: Vec<f32> = (0..len).map(|i| if i % every == 0 { 1.0 } else { 0.0 }).collect();
        SparseVec::from_dense(&dense)
    }

    #[test]
    fn dense_cost_is_length() {
        let row = row_with_density(64, 3);
        assert_eq!(storage_words(&row, RowFormat::Dense), 64);
    }

    #[test]
    fn empty_row_costs_almost_nothing_compressed() {
        let row = SparseVec::zeros(256);
        assert_eq!(storage_words(&row, RowFormat::OffsetValue), 0);
        assert_eq!(storage_words(&row, RowFormat::Bitmap), 16); // the bitmap itself
        assert!(storage_words(&row, RowFormat::RunLength) <= 1);
        assert_eq!(storage_words(&row, RowFormat::Dense), 256);
    }

    #[test]
    fn full_row_prefers_dense() {
        let row = row_with_density(64, 1);
        let (best, words) = best_format(&row);
        assert_eq!(words, 64);
        // Dense and RLE tie at nnz + 1 header vs len; dense must be
        // among the minima.
        assert!(storage_words(&row, RowFormat::Dense) <= storage_words(&row, best) + 1);
        assert!(storage_words(&row, RowFormat::Bitmap) == 64 + 4);
        assert!(storage_words(&row, RowFormat::OffsetValue) == 64 + 16);
    }

    #[test]
    fn sparse_rows_compress_well() {
        let row = row_with_density(1024, 16); // ~6% dense
        for f in [RowFormat::OffsetValue, RowFormat::Bitmap, RowFormat::RunLength] {
            assert!(
                compression_ratio(&row, f) > 4.0,
                "{} ratio {:.2}",
                f.name(),
                compression_ratio(&row, f)
            );
        }
    }

    #[test]
    fn bitmap_overhead_is_density_independent() {
        for every in [2usize, 4, 16, 64] {
            let row = row_with_density(256, every);
            let overhead = storage_words(&row, RowFormat::Bitmap) - row.nnz() as u64;
            assert_eq!(overhead, 16);
        }
    }

    #[test]
    fn offset_escapes_long_gaps() {
        // Two non-zeros 100 apart: 100/15 = 6 escape slots + 2 deltas.
        let mut dense = vec![0.0f32; 128];
        dense[0] = 1.0;
        dense[101] = 1.0;
        let row = SparseVec::from_dense(&dense);
        let slots = super::offset_delta_slots(row.as_row());
        assert_eq!(slots, 2 + 100 / 15);
        assert_eq!(storage_words(&row, RowFormat::OffsetValue), 2 + slots.div_ceil(4));
    }

    #[test]
    fn crossover_bitmap_beats_offsets_at_high_density() {
        // Offset encoding pays ~nnz/4 extra words; bitmap pays len/16.
        // They cross at density 1/4: above it bitmap is cheaper.
        let dense_row = row_with_density(256, 2); // 50%
        assert!(
            storage_words(&dense_row, RowFormat::Bitmap) < storage_words(&dense_row, RowFormat::OffsetValue)
        );
        let sparse_row = row_with_density(256, 16); // ~6%
        assert!(
            storage_words(&sparse_row, RowFormat::OffsetValue)
                <= storage_words(&sparse_row, RowFormat::Bitmap)
        );
    }

    #[test]
    fn rle_wins_on_blocky_patterns() {
        // One solid block of 32 non-zeros in a 512 row: RLE stores two
        // headers; offsets store 32 deltas; bitmap stores 32 bitmap words.
        let mut dense = vec![0.0f32; 512];
        for v in dense.iter_mut().skip(100).take(32) {
            *v = 1.0;
        }
        let row = SparseVec::from_dense(&dense);
        let rle = storage_words(&row, RowFormat::RunLength);
        assert!(rle < storage_words(&row, RowFormat::Bitmap));
        assert!(rle <= storage_words(&row, RowFormat::OffsetValue));
    }

    #[test]
    fn best_format_returns_the_minimum() {
        for every in [1usize, 2, 5, 17, 100] {
            let row = row_with_density(300, every);
            let (best, words) = best_format(&row);
            for f in RowFormat::ALL {
                assert!(
                    storage_words(&row, f) >= words,
                    "{} beat reported best {}",
                    f.name(),
                    best.name()
                );
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = RowFormat::ALL.iter().map(|f| f.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
