//! Counter-based random streams (Philox 2×64-10).
//!
//! [`StreamKey`] / [`StreamRng`] provide *counter-based* randomness in the
//! style of Salmon et al.'s Random123 generators (Philox/Threefry): every
//! draw is a pure function `philox(key, counter)` of an explicit key and
//! counter, with no hidden evolving state. Two properties follow that a
//! conventional sequential generator cannot offer:
//!
//! * **Order independence** — the draw for position `i` is the same whether
//!   positions are visited forward, backward, or split across threads, so
//!   parallel consumers are bitwise-deterministic by construction.
//! * **Cheap stream splitting** — [`StreamKey::derive`] folds a component
//!   (epoch, batch, sample index, …) into the key, giving every logical
//!   position in a training run its own statistically independent stream
//!   without any generator round-trips.
//!
//! The concrete generator is Philox 2×64 with 10 rounds — the full-strength
//! round count from the Random123 paper, which passes BigCrush. The 64-bit
//! key is the derived stream identity and the 128-bit counter carries the
//! draw offset, so a single stream supports 2⁶⁴ addressable draws (the low
//! word) with the high word reserved (always zero today; a future 2-D
//! offset can use it without changing any existing stream).
//!
//! Two reads of a stream exist. [`StreamKey::word_at`] /
//! [`StreamKey::uniform_at`] spend one block per position and read its
//! first 64-bit word (fault injection and the chaos campaign draw this
//! way). [`KeySchedule`], the draw of stochastic pruning, reads all 128
//! output bits of a block as four 32-bit words, one per consecutive
//! position, and keeps the top 24 bits of each: four `f32` draws per
//! ten-round block, where `word_at` uses half a block for one.
//!
//! ```
//! use rand::stream::StreamKey;
//!
//! let key = StreamKey::new(42).derive(3); // e.g. seed 42, sample 3
//! // Pure positional draws: same value regardless of evaluation order.
//! assert_eq!(key.uniform_at(7), key.uniform_at(7));
//! assert!((0.0..1.0).contains(&key.uniform_at(7)));
//! ```

use crate::RngCore;

/// Philox 2×64 multiplier (Random123 reference constant).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Philox 2×64 Weyl key increment (golden-ratio constant).
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Number of Philox rounds; 10 is the full-strength Random123 default.
const PHILOX_ROUNDS: u32 = 10;

/// The Weyl key schedule `kᵣ = key + r·W`: counter-independent, so a
/// consumer of many draws folds it once ([`StreamKey::schedule`]).
#[inline]
const fn philox_round_keys(key: u64) -> [u64; PHILOX_ROUNDS as usize] {
    let mut keys = [0u64; PHILOX_ROUNDS as usize];
    let mut k = key;
    let mut round = 0;
    while round < keys.len() {
        keys[round] = k;
        k = k.wrapping_add(PHILOX_W);
        round += 1;
    }
    keys
}

/// The Philox 2×64 round core over `N` independent counters: encrypts
/// each 128-bit counter `(x0[lane], 0)` under pre-folded round keys and
/// returns each block's two output words `(x0, x1)`. The single source of
/// the round arithmetic, shared by [`StreamKey::word_at`] (which reads
/// `x0`) and [`KeySchedule`] (which reads all 128 bits); with `N > 1` the
/// lanes' multiply chains are independent, so they overlap in the
/// pipeline instead of waiting on one another.
#[inline]
const fn philox_blocks<const N: usize>(
    round_keys: &[u64; PHILOX_ROUNDS as usize],
    mut x0: [u64; N],
) -> ([u64; N], [u64; N]) {
    let mut x1 = [0u64; N];
    let mut round = 0;
    while round < round_keys.len() {
        let mut lane = 0;
        while lane < N {
            let product = (x0[lane] as u128).wrapping_mul(PHILOX_M as u128);
            x0[lane] = (product >> 64) as u64 ^ round_keys[round] ^ x1[lane];
            x1[lane] = product as u64;
            lane += 1;
        }
        round += 1;
    }
    (x0, x1)
}

/// The `[0, 1)` draw of a 32-bit output word: its top 24 bits × 2⁻²⁴,
/// exact in `f32`.
#[inline]
fn unit24(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// SplitMix64 finalizer: a strong 64-bit bijective mixer, used to fold
/// stream components into a key.
#[inline]
const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The identity of one random stream: a 64-bit key built by folding the
/// coordinates of a draw site (seed, epoch, batch, sample, …) one
/// [`derive`](StreamKey::derive) at a time.
///
/// Keys are plain `Copy` values; deriving never consumes randomness. The
/// fold is order-sensitive (`derive(a).derive(b) != derive(b).derive(a)`
/// in general), so a fixed derivation ladder gives every coordinate tuple
/// its own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    key: u64,
}

impl StreamKey {
    /// The root key of a run, from its seed.
    pub const fn new(seed: u64) -> Self {
        Self { key: mix64(seed) }
    }

    /// Folds one stream coordinate (epoch, batch, sample index, …) into
    /// the key, yielding the sub-stream's key.
    pub const fn derive(self, component: u64) -> Self {
        // Weyl-offset the component so derive(0) is not the identity, then
        // mix to spread it over all 64 bits.
        Self {
            key: mix64(
                self.key
                    .wrapping_add(PHILOX_W)
                    .wrapping_add(component.wrapping_mul(PHILOX_M)),
            ),
        }
    }

    /// Folds a string coordinate (e.g. a pruning-site name) into the key
    /// via an FNV-1a hash of its bytes.
    pub fn derive_str(self, component: &str) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in component.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.derive(h)
    }

    /// The raw 64-bit key value (for diagnostics and goldens).
    pub const fn value(self) -> u64 {
        self.key
    }

    /// The random 64-bit word at position `offset` of this stream — a pure
    /// function of `(key, offset)`.
    pub const fn word_at(self, offset: u64) -> u64 {
        philox_blocks(&philox_round_keys(self.key), [offset]).0[0]
    }

    /// The uniform `[0, 1)` draw at position `offset` of this stream (53
    /// mantissa bits, like `Rng::gen::<f64>()`).
    pub const fn uniform_at(self, offset: u64) -> f64 {
        (self.word_at(offset) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// This stream's key schedule, folded once: the handle stochastic
    /// pruning's snap/zero sweep reads its four-per-block draws through.
    pub const fn schedule(self) -> KeySchedule {
        KeySchedule {
            round_keys: philox_round_keys(self.key),
        }
    }

    /// A sequential [`RngCore`] view of this stream starting at `offset` —
    /// for handing a sub-stream to code written against the `Rng` traits.
    pub const fn rng_at(self, offset: u64) -> StreamRng {
        StreamRng {
            key: self,
            counter: offset,
        }
    }
}

/// One stream's pre-folded Philox round keys ([`StreamKey::schedule`]),
/// and the stream's `f32` draw: four draws per Philox block.
///
/// Position `p` reads 32-bit word `p mod 4` of block `⌊p/4⌋` (the block
/// whose counter is `⌊p/4⌋`), in the order `x0` low, `x0` high, `x1` low,
/// `x1` high, and uses its top 24 bits × 2⁻²⁴ ([`KeySchedule::draw_at`]).
/// So one block of ten multiply rounds pays for four consecutive
/// positions. Philox's per-round keys `kᵣ = key + r·W` do not depend on
/// the counter, so they are computed once. Draws stay pure functions of
/// `(key, position)`: which positions are evaluated, in what order and how
/// many at a time cannot change any of them. Positions wrap modulo 2⁶⁴,
/// and so, since 4 divides 2⁶⁴, do blocks: position `2⁶⁴ − 1` is word 3 of
/// block `2⁶² − 1`, and position 0 after it word 0 of block 0.
///
/// ```
/// use rand::stream::StreamKey;
///
/// let schedule = StreamKey::new(42).schedule();
/// let [block] = schedule.draw_blocks([3]); // positions 12..16
/// assert_eq!(block[1].to_bits(), schedule.draw_at(13).to_bits());
/// assert!((0.0..1.0).contains(&block[1]));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeySchedule {
    round_keys: [u64; PHILOX_ROUNDS as usize],
}

impl KeySchedule {
    /// The draws of positions `4·b .. 4·b + 4` for each of `N` blocks `b`
    /// (any `N` — they need not be consecutive), the blocks' counters in
    /// flight through one round loop.
    #[inline]
    pub fn draw_blocks<const N: usize>(&self, blocks: [u64; N]) -> [[f32; 4]; N] {
        let (x0, x1) = philox_blocks(&self.round_keys, blocks);
        let mut draws = [[0.0; 4]; N];
        for ((d, w0), w1) in draws.iter_mut().zip(x0).zip(x1) {
            *d = [w0 as u32, (w0 >> 32) as u32, w1 as u32, (w1 >> 32) as u32].map(unit24);
        }
        draws
    }

    /// The draw at position `pos` — the definition every batched read
    /// ([`KeySchedule::draw_blocks`]) equals.
    #[inline]
    pub fn draw_at(&self, pos: u64) -> f32 {
        self.draw_blocks([pos / 4])[0][(pos % 4) as usize]
    }
}

/// A sequential cursor over one counter-based stream: [`RngCore`] whose
/// `next_u64` returns [`StreamKey::word_at`] at an advancing offset.
///
/// Equal `(key, offset)` cursors produce equal sequences; the cursor is
/// `Clone`, and cloning forks a reader (not the stream — both read the
/// same positions).
#[derive(Debug, Clone)]
pub struct StreamRng {
    key: StreamKey,
    counter: u64,
}

impl StreamRng {
    /// Cursor over `key`'s stream, starting at position 0.
    pub const fn new(key: StreamKey) -> Self {
        key.rng_at(0)
    }

    /// The stream this cursor reads.
    pub const fn key(&self) -> StreamKey {
        self.key
    }

    /// The position of the next draw.
    pub const fn position(&self) -> u64 {
        self.counter
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.key.word_at(self.counter);
        self.counter = self.counter.wrapping_add(1);
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn draws_are_pure_functions_of_position() {
        let key = StreamKey::new(7).derive(1).derive(2);
        let forward: Vec<u64> = (0..64).map(|i| key.word_at(i)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|i| key.word_at(i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn derive_is_order_sensitive_and_splits_streams() {
        let root = StreamKey::new(0);
        assert_ne!(root.derive(1).derive(2), root.derive(2).derive(1));
        assert_ne!(root.derive(0), root, "derive(0) must not be the identity");
        assert_ne!(root.derive(1).word_at(0), root.derive(2).word_at(0));
        assert_ne!(root.derive_str("conv1"), root.derive_str("conv2"));
    }

    #[test]
    fn stream_rng_walks_the_counter() {
        let key = StreamKey::new(3);
        let mut rng = StreamRng::new(key);
        assert_eq!(rng.next_u64(), key.word_at(0));
        assert_eq!(rng.next_u64(), key.word_at(1));
        assert_eq!(rng.position(), 2);
        let f: f64 = rng.gen();
        assert!((0.0..1.0).contains(&f));
        // A cursor opened mid-stream sees the same positions.
        assert_eq!(key.rng_at(1).next_u64(), key.word_at(1));
    }

    #[test]
    fn uniform_draws_are_unit_interval() {
        let key = StreamKey::new(11).derive(4);
        for i in 0..4096 {
            let u = key.uniform_at(i);
            assert!((0.0..1.0).contains(&u), "draw {i} = {u}");
        }
    }

    /// Uniformity: chi-squared over 16 equiprobable bins. With 15 degrees
    /// of freedom the 99.9th percentile is 37.7; a healthy generator sits
    /// far below it.
    #[test]
    fn chi_squared_uniformity_over_16_bins() {
        let key = StreamKey::new(2024).derive(9);
        let n = 65_536u64;
        let mut bins = [0u64; 16];
        for i in 0..n {
            bins[(key.word_at(i) >> 60) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = bins
            .iter()
            .map(|&b| {
                let d = b as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 37.7, "chi-squared {chi2} over 16 bins (df=15, p<0.001)");
    }

    /// Stream independence: draws from keys differing only in one derived
    /// component (the sample index) are uncorrelated, as are draws at
    /// distinct offsets of one stream.
    #[test]
    fn distinct_keys_and_offsets_are_uncorrelated() {
        let step = StreamKey::new(5).derive(17);
        let n = 16_384;
        let corr = |xs: &[f64], ys: &[f64]| {
            let m = xs.len() as f64;
            let (mx, my) = (xs.iter().sum::<f64>() / m, ys.iter().sum::<f64>() / m);
            let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
            cov / (vx * vy).sqrt()
        };
        let sample0: Vec<f64> = (0..n).map(|i| step.derive(0).uniform_at(i)).collect();
        let sample1: Vec<f64> = (0..n).map(|i| step.derive(1).uniform_at(i)).collect();
        let r_keys = corr(&sample0, &sample1);
        assert!(
            r_keys.abs() < 0.03,
            "adjacent sample keys correlate: r = {r_keys}"
        );
        let shifted: Vec<f64> = (0..n).map(|i| step.derive(0).uniform_at(i + 1)).collect();
        let r_lag = corr(&sample0, &shifted);
        assert!(r_lag.abs() < 0.03, "lag-1 offsets correlate: r = {r_lag}");
    }

    /// Stability goldens: these eight outputs pin the Philox 2×64-10
    /// algorithm and the derivation ladder. An intentional algorithm change
    /// must re-anchor them (and every seed-sensitive pruning capture);
    /// an accidental one fails here first.
    #[test]
    fn stability_goldens() {
        let root = StreamKey::new(0);
        let derived = StreamKey::new(42).derive(1).derive(2);
        let named = StreamKey::new(7).derive_str("conv1");
        let cases: [(u64, u64); 8] = [
            (root.word_at(0), 0xCA00_A045_9843_D731),
            (root.word_at(1), 0x268B_107F_7AEF_5856),
            (root.word_at(u64::MAX), 0x5922_32D1_2630_0E79),
            (derived.word_at(0), 0xB31B_27A4_7CA9_1E7C),
            (derived.word_at(12_345), 0xD204_D588_E54E_3017),
            (named.word_at(3), 0x32D7_0900_C8AA_CD65),
            (StreamKey::new(1).value(), 0x5692_161D_100B_05E5),
            (StreamKey::new(1).derive(1).value(), 0xCBB0_A6E3_0C0F_E10E),
        ];
        for (i, (got, want)) in cases.iter().enumerate() {
            assert_eq!(got, want, "golden {i}: got {got:#018X}, want {want:#018X}");
        }
    }

    /// Stability goldens of the block draw: the bits of
    /// [`KeySchedule::draw_at`] for fresh, derived and named keys, at all
    /// four words of a block, mid-stream, and at the counter's last
    /// position. An intentional change of the draw must re-anchor them
    /// (and every seed-sensitive pruning capture); an accidental one fails
    /// here first.
    #[test]
    fn block_draw_goldens() {
        let root = StreamKey::new(0).schedule();
        let derived = StreamKey::new(42).derive(1).derive(2).schedule();
        let named = StreamKey::new(7).derive_str("conv1").schedule();
        let cases: [(f32, u32); 10] = [
            (root.draw_at(0), 0x3F18_43D7),
            (root.draw_at(1), 0x3F4A_00A0),
            (root.draw_at(2), 0x3F49_A845),
            (root.draw_at(3), 0x3ECD_8484),
            (root.draw_at(4), 0x3EF5_DEB0),
            (root.draw_at(u64::MAX), 0x3F33_4C0F),
            (derived.draw_at(0), 0x3EF9_523C),
            (derived.draw_at(12_345), 0x3EAC_F280),
            (named.draw_at(3), 0x3F09_350A),
            (named.draw_at(14), 0x3EF0_42FC),
        ];
        for (i, (got, want)) in cases.iter().enumerate() {
            let got = got.to_bits();
            assert_eq!(got, *want, "golden {i}: got {got:#010X}, want {want:#010X}");
        }
    }

    /// The block draw is the definition: position `p` is word `p mod 4` of
    /// block `⌊p/4⌋` in the order `x0` low, `x0` high, `x1` low, `x1`
    /// high, top 24 bits × 2⁻²⁴. Words 0 and 1 tie it to the `word_at`
    /// goldens above; one block at a time and four in flight, scattered
    /// (non-consecutive) blocks, counter-wrapping ones included, read the
    /// same bits.
    #[test]
    fn block_draws_read_the_four_words_of_the_block() {
        let scale = 1.0 / (1u64 << 24) as f64;
        for key in [
            StreamKey::new(0),
            StreamKey::new(42).derive(1),
            StreamKey::new(7).derive_str("conv1"),
        ] {
            let schedule = key.schedule();
            for offset in [0u64, 1, 12_345, u64::MAX - 3] {
                let pos: Vec<u64> = (0..20u64).map(|i| offset.wrapping_add(i * i * 7)).collect();
                for &p in &pos {
                    let (x0, x1) = philox_blocks(&philox_round_keys(key.value()), [p / 4]);
                    assert_eq!(x0[0], key.word_at(p / 4));
                    let word = [x0[0], x0[0] >> 32, x1[0], x1[0] >> 32][(p % 4) as usize] as u32;
                    let want = (word >> 8) as f64 * scale;
                    assert_eq!(schedule.draw_at(p) as f64, want, "position {p}");
                }
                let blocks: Vec<u64> = pos.iter().map(|p| p / 4).collect();
                let want: Vec<u32> = blocks
                    .iter()
                    .flat_map(|&b| (0..4).map(move |w| schedule.draw_at(b * 4 + w).to_bits()))
                    .collect();
                let one: Vec<u32> = blocks
                    .iter()
                    .flat_map(|&b| schedule.draw_blocks([b])[0])
                    .map(f32::to_bits)
                    .collect();
                let four: Vec<u32> = blocks
                    .chunks_exact(4)
                    .flat_map(|b| {
                        schedule
                            .draw_blocks([b[0], b[1], b[2], b[3]])
                            .into_iter()
                            .flatten()
                    })
                    .map(f32::to_bits)
                    .collect();
                assert_eq!(one, want, "one block at a time, offset {offset}");
                assert_eq!(four, want, "four blocks in flight, offset {offset}");
            }
        }
        // The extreme words map to 0 and 1 − 2⁻²⁴, so every draw is in
        // [0, 1); the last position of the counter is word 3 of the last
        // block.
        assert_eq!((unit24(0), unit24(0xFF)), (0.0, 0.0));
        assert_eq!(unit24(u32::MAX) as f64, 1.0 - scale);
        let schedule = StreamKey::new(0).schedule();
        assert_eq!(
            schedule.draw_at(u64::MAX).to_bits(),
            schedule.draw_blocks([u64::MAX / 4])[0][3].to_bits()
        );
    }

    /// The four words of a block are as uniform and as uncorrelated as
    /// draws from distinct blocks: chi-squared over 16 bins (df = 15,
    /// 99.9th percentile 37.7) and lag-1 / lag-4 correlation of
    /// consecutive positions.
    #[test]
    fn block_draws_are_uniform_and_uncorrelated() {
        let schedule = StreamKey::new(2024).derive(9).schedule();
        let n = 65_536u64;
        let draws: Vec<f64> = (0..n).map(|p| schedule.draw_at(p) as f64).collect();
        let mut bins = [0u64; 16];
        for &r in &draws {
            bins[(r * 16.0) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = bins
            .iter()
            .map(|&b| (b as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 37.7, "chi-squared {chi2} over 16 bins (df=15, p<0.001)");
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for lag in [1usize, 2, 3, 4] {
            let (xs, ys) = (&draws[..draws.len() - lag], &draws[lag..]);
            let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - 0.5) * (y - 0.5)).sum();
            let var: f64 = draws.iter().map(|x| (x - 0.5) * (x - 0.5)).sum();
            let r = cov / var;
            assert!(r.abs() < 0.03, "lag-{lag} draws correlate: r = {r}");
        }
    }

    /// The split-stream mean stays centred (sanity on top of chi-squared).
    #[test]
    fn per_stream_mean_is_centred() {
        let key = StreamKey::new(33).derive(2);
        let n = 50_000u64;
        let mean = (0..n).map(|i| key.uniform_at(i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
