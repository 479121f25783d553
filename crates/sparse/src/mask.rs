//! Non-zero position masks recorded in the Forward step.
//!
//! ReLU and MaxPool layers record which positions survived (§II); the GTA
//! step replays these masks, and MSRC uses them to skip computing gradient
//! values that the mask would zero anyway (§IV-A).
//!
//! [`mask_of`] is the one classifier behind every mask here and behind the
//! pruner's sweep: it turns a run of up to [`RUN`] values into one `u64`
//! word, branch-free.

/// Elements classified per mask word: one bit each in a `u64`.
pub const RUN: usize = 64;

/// Bit `i` of the result is `pred(run[i])`, for a run of at most [`RUN`]
/// elements (bits past `run.len()` are zero).
///
/// Branch-free: the predicate is evaluated into a byte per element (a loop
/// the compiler vectorises), then eight bytes at a time are packed into
/// eight bits by one multiply. Each byte is 0 or 1, and multiplying by
/// `0x0102_0408_1020_4080` moves byte `i` of the group onto bit `56 + i`
/// of the product: the partial product of byte `i` with the constant's
/// byte `7 − i` lands there, and every other partial product of that byte
/// lands on a different bit (`8·(i + j) + (7 − j)` for constant byte `j`),
/// so no two partial products share a bit and nothing carries into the
/// top byte, which is exactly the eight flags.
///
/// ```
/// use sparsetrain_sparse::mask::mask_of;
/// assert_eq!(mask_of(&[0.0, 1.0, -0.0, f32::NAN], |v| v != 0.0), 0b1010);
/// ```
#[inline]
pub fn mask_of(run: &[f32], pred: impl Fn(f32) -> bool) -> u64 {
    debug_assert!(run.len() <= RUN, "a run is at most {RUN} elements");
    let mut flags = [0u8; RUN];
    for (flag, &v) in flags.iter_mut().zip(run) {
        *flag = pred(v) as u8;
    }
    let mut mask = 0u64;
    for (byte, group) in flags.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(group.try_into().expect("chunks_exact(8) yields 8 bytes"));
        mask |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * byte);
    }
    mask
}

/// Positions `0..len` of one word: bits at `len` and above clear.
fn low_bits(len: usize) -> u64 {
    if len >= RUN {
        !0
    } else {
        (1u64 << len) - 1
    }
}

/// The set bits of `word`, lowest first, each offset by `base`.
pub(crate) fn set_bits(base: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// A mask's words: a row of up to [`RUN`] positions — every row of the
/// paper's models — fits in one word inline; longer rows use the heap.
/// Which one is a function of the length alone, so the derived equality
/// compares like with like.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline(u64),
    Heap(Box<[u64]>),
}

/// A per-row bitmask of positions that are allowed to be non-zero.
///
/// Bits at `len` and above are always clear.
///
/// ```
/// use sparsetrain_sparse::RowMask;
/// let m = RowMask::from_dense(&[0.0, 1.0, 0.0, 2.0]);
/// assert!(m.contains(1));
/// assert!(!m.contains(2));
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    len: usize,
    words: Words,
}

impl RowMask {
    /// A mask of `len` positions over `words` (`⌈len/64⌉` of them, clear
    /// at `len` and above).
    pub(crate) fn from_words(len: usize, words: &[u64]) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(RUN), "one word per {RUN} positions");
        debug_assert!(
            words
                .last()
                .is_none_or(|&w| w & !low_bits(len - (words.len() - 1) * RUN) == 0),
            "bits past the mask's length are clear"
        );
        let words = if len <= RUN {
            Words::Inline(words.first().copied().unwrap_or(0))
        } else {
            Words::Heap(words.into())
        };
        Self { len, words }
    }

    /// Creates an all-false mask of logical length `len`.
    pub fn empty(len: usize) -> Self {
        let words = if len <= RUN {
            Words::Inline(0)
        } else {
            Words::Heap(vec![0; len.div_ceil(RUN)].into())
        };
        Self { len, words }
    }

    /// Creates an all-true mask (everything allowed — "no mask").
    pub fn full(len: usize) -> Self {
        let mut m = Self::empty(len);
        for (i, word) in m.words_mut().iter_mut().enumerate() {
            *word = low_bits(len - i * RUN);
        }
        m
    }

    /// Mask of the non-zero positions in a dense slice.
    pub fn from_dense(dense: &[f32]) -> Self {
        let mut m = Self::empty(dense.len());
        for (word, run) in m.words_mut().iter_mut().zip(dense.chunks(RUN)) {
            *word = mask_of(run, |v| v != 0.0);
        }
        m
    }

    /// Mask from sorted offsets.
    ///
    /// # Panics
    ///
    /// Panics if any offset is `>= len`.
    pub fn from_offsets(len: usize, offsets: &[u32]) -> Self {
        let mut m = Self::empty(len);
        for &o in offsets {
            m.set(o as usize);
        }
        m
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(word) => std::slice::from_ref(word),
            Words::Heap(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(word) => std::slice::from_mut(word),
            Words::Heap(words) => words,
        }
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks position `i` as allowed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        self.words_mut()[i / RUN] |= 1u64 << (i % RUN);
    }

    /// Marks position `i` as disallowed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        self.words_mut()[i / RUN] &= !(1u64 << (i % RUN));
    }

    /// Whether position `i` is allowed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        (self.words()[i / RUN] >> (i % RUN)) & 1 == 1
    }

    /// Number of allowed positions.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any position in `[start, end)` (clamped to the mask) is allowed.
    pub fn any_in_range(&self, start: usize, end: usize) -> bool {
        let end = end.min(self.len);
        if start >= end {
            return false;
        }
        let (first, last) = (start / RUN, (end - 1) / RUN);
        self.words()[first..=last].iter().enumerate().any(|(i, &word)| {
            let lo = if i == 0 { start % RUN } else { 0 };
            let hi = if first + i == last { end - last * RUN } else { RUN };
            word & low_bits(hi) & !low_bits(lo) != 0
        })
    }

    /// Iterates over the allowed positions in increasing order, visiting
    /// the set bits only.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words()
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| set_bits(i * RUN, word))
    }

    /// Intersection with another mask of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and(&self, other: &RowMask) -> RowMask {
        assert_eq!(self.len, other.len, "mask length mismatch");
        let mut out = self.clone();
        for (a, b) in out.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = RowMask::empty(70);
        assert_eq!(e.count(), 0);
        let f = RowMask::full(70);
        assert_eq!(f.count(), 70);
        assert!(f.contains(69));
    }

    #[test]
    fn set_clear_contains() {
        let mut m = RowMask::empty(10);
        m.set(3);
        assert!(m.contains(3));
        m.clear(3);
        assert!(!m.contains(3));
    }

    #[test]
    fn from_dense_matches_nonzeros() {
        let m = RowMask::from_dense(&[1.0, 0.0, -2.0, 0.0]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn any_in_range_detects() {
        let m = RowMask::from_offsets(10, &[5]);
        assert!(m.any_in_range(3, 6));
        assert!(!m.any_in_range(0, 5));
        assert!(!m.any_in_range(6, 10));
        assert!(m.any_in_range(5, 100)); // end clamped
    }

    #[test]
    fn and_intersects() {
        let a = RowMask::from_offsets(8, &[1, 3, 5]);
        let b = RowMask::from_offsets(8, &[3, 5, 7]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let mut m = RowMask::empty(4);
        m.set(4);
    }

    #[test]
    fn word_boundary_behaviour() {
        let mut m = RowMask::empty(130);
        m.set(63);
        m.set(64);
        m.set(129);
        assert_eq!(m.count(), 3);
        assert!(m.contains(63) && m.contains(64) && m.contains(129));
        assert!(!m.contains(65));
    }

    /// A naive per-position model of the mask, for every length on both
    /// sides of the inline / heap boundary.
    #[test]
    fn word_wise_operations_match_a_per_position_reference() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            // Two patterns per length: every third position, and a run
            // straddling the word boundaries.
            let a: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let b: Vec<bool> = (0..len).map(|i| (60..70).contains(&i) || i + 1 == len).collect();
            let build = |bits: &[bool]| {
                let offsets: Vec<u32> = (0..len).filter(|&i| bits[i]).map(|i| i as u32).collect();
                RowMask::from_offsets(len, &offsets)
            };
            for (bits, other) in [(&a, &b), (&b, &a)] {
                let m = build(bits);
                let want: Vec<usize> = (0..len).filter(|&i| bits[i]).collect();
                assert_eq!(m.iter().collect::<Vec<_>>(), want, "iter, len {len}");
                assert_eq!(m.count(), want.len(), "count, len {len}");
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!(m.contains(i), bit, "contains({i}), len {len}");
                }
                let both: Vec<bool> = bits.iter().zip(other.iter()).map(|(x, y)| *x && *y).collect();
                assert_eq!(m.and(&build(other)), build(&both), "and, len {len}");
                for start in 0..=len + 1 {
                    for end in start..=len + 2 {
                        let want = (start..end.min(len)).any(|i| bits[i]);
                        assert_eq!(
                            m.any_in_range(start, end),
                            want,
                            "any_in_range({start}, {end}), len {len}"
                        );
                    }
                }
                let dense: Vec<f32> = bits.iter().map(|&x| if x { -1.5 } else { 0.0 }).collect();
                assert_eq!(RowMask::from_dense(&dense), m, "from_dense, len {len}");
                let mut words = vec![0u64; len.div_ceil(RUN)];
                for &i in &want {
                    words[i / RUN] |= 1 << (i % RUN);
                }
                assert_eq!(RowMask::from_words(len, &words), m, "from_words, len {len}");
            }
            let full = RowMask::full(len);
            assert_eq!(
                full.iter().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>(),
                "full, len {len}"
            );
            assert_eq!(full.count(), len);
            assert_eq!(RowMask::empty(len).iter().count(), 0);
        }
    }

    #[test]
    fn mask_of_packs_the_predicate_bit_per_element() {
        let run: Vec<f32> = (0..RUN)
            .map(|i| if i % 5 == 0 { 0.0 } else { i as f32 })
            .collect();
        for len in [0usize, 1, 7, 8, 9, 63, 64] {
            let want = (0..len).filter(|&i| run[i] != 0.0).fold(0u64, |m, i| m | 1 << i);
            assert_eq!(mask_of(&run[..len], |v| v != 0.0), want, "len {len}");
        }
        // ±0.0 are zeros; NaN and ±∞ are not.
        let special = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
        ];
        assert_eq!(mask_of(&special, |v| v != 0.0), 0b111100);
    }
}
