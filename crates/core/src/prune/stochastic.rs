//! The stochastic pruning rule (§III-A, Fig. 3).
//!
//! A gradient with `|g| < τ` cannot simply be zeroed in bulk — that shifts
//! the gradient distribution and hurts convergence. Instead it is snapped to
//! `sign(g)·τ` with probability `|g|/τ` and to `0` otherwise, which keeps
//! `E[ĝ] = (|g|/τ)·sign(g)·τ = g` — the update is unbiased.
//!
//! Two implementations of the rule live here, differing only in where the
//! random draw comes from:
//!
//! * [`prune_slice_at`] — the production path: each element's draw is read
//!   from a counter-based stream ([`rand::stream::StreamKey`]) at that
//!   element's position, so results are independent of visitation order
//!   and thread count (see [`crate::prune::stream`]). One Philox block
//!   serves four consecutive positions (a 24-bit draw each, where the
//!   PPU's LFSR lanes hand 16), and, like the PPU, which only ever sees
//!   the non-zeros of the compressed stream, its work follows the
//!   non-zeros: a block is computed only where one of its positions holds
//!   a non-zero below `τ`.
//! * [`prune_slice`] — the element-order reference mirroring the hardware
//!   PPU, whose LFSR lanes hand one draw per *non-zero sub-threshold*
//!   value in stream order. Order-dependent by design; used by the
//!   simulator cross-checks and statistical property tests.

use rand::stream::StreamKey;
use rand::Rng;
use sparsetrain_sparse::mask::{mask_of, RUN};

/// Outcome counts of one pruning pass, for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneOutcome {
    /// Values left untouched (`|g| ≥ τ`).
    pub kept: usize,
    /// Values snapped to `±τ`.
    pub snapped: usize,
    /// Values set to zero.
    pub zeroed: usize,
}

impl PruneOutcome {
    /// Total number of values inspected.
    pub fn total(&self) -> usize {
        self.kept + self.snapped + self.zeroed
    }

    /// Density of the pruned output: the non-zero (kept or snapped)
    /// fraction. Inputs that were already zero are counted in `zeroed` by
    /// both prune passes, so they need no separate correction. Returns 1.0
    /// for an empty pass.
    pub fn density(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.kept + self.snapped) as f64 / total as f64
    }
}

/// Applies the stochastic pruning rule to every element of `grads` with
/// threshold `tau`, in place. Returns the outcome counts.
///
/// `tau <= 0` disables pruning (everything is kept).
///
/// Exact zeros are counted as `zeroed` (they stay zero and never consume a
/// random draw, matching the hardware, which only sees non-zero gradients
/// in the compressed stream).
///
/// ```
/// use sparsetrain_core::prune::prune_slice;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut g = vec![0.5, -0.001, 0.0008, 2.0];
/// let out = prune_slice(&mut g, 0.01, &mut StdRng::seed_from_u64(0));
/// assert_eq!(out.kept, 2);               // 0.5 and 2.0 pass through
/// assert_eq!(out.snapped + out.zeroed, 2);
/// for &v in &g {
///     assert!(v == 0.0 || v.abs() >= 0.01 - 1e-9 || v == 0.5 || v == 2.0);
/// }
/// ```
pub fn prune_slice<R: Rng + ?Sized>(grads: &mut [f32], tau: f64, rng: &mut R) -> PruneOutcome {
    let mut outcome = PruneOutcome::default();
    if tau <= 0.0 {
        outcome.kept = grads.iter().filter(|&&g| g != 0.0).count();
        outcome.zeroed = grads.len() - outcome.kept;
        return outcome;
    }
    let tau_f = tau as f32;
    for g in grads.iter_mut() {
        let a = g.abs();
        if *g == 0.0 {
            outcome.zeroed += 1;
        } else if (a as f64) < tau {
            // r ~ U[0,1): keep ±τ iff |g| > τ·r  ⇔  with probability |g|/τ.
            let r: f64 = rng.gen();
            if (a as f64) > tau * r {
                *g = if *g > 0.0 { tau_f } else { -tau_f };
                outcome.snapped += 1;
            } else {
                *g = 0.0;
                outcome.zeroed += 1;
            }
        } else {
            outcome.kept += 1;
        }
    }
    outcome
}

/// `Σ|g|` over `part` and its non-zero count, visiting the non-zeros only.
///
/// Bitwise equal to the left-to-right sum over *all* elements: the
/// accumulator starts at `+0.0` and only ever adds non-negative terms, so
/// it is never `-0.0`, and adding the `+0.0` an exact zero (of either
/// sign) would contribute leaves every such accumulator unchanged. The
/// non-zeros are still added in element order — the sum is a
/// floating-point one, so its order is part of the result.
pub(super) fn abs_sum_nonzeros(part: &[f32]) -> (f64, usize) {
    let mut sum = 0.0f64;
    let mut nonzeros = 0usize;
    for run in part.chunks(RUN) {
        let mut nonzero = mask_of(run, |g| g != 0.0);
        nonzeros += nonzero.count_ones() as usize;
        while nonzero != 0 {
            sum += (run[nonzero.trailing_zeros() as usize] as f64).abs();
            nonzero &= nonzero - 1;
        }
    }
    (sum, nonzeros)
}

/// Applies the stochastic pruning rule to every element of `grads` with
/// threshold `tau`, in place, drawing each element's randomness from the
/// counter-based stream `key` at position `offset + index`
/// ([`rand::stream::KeySchedule::draw_at`]). Returns the outcome counts.
///
/// Because the draw for an element is a pure function of `(key, position)`,
/// the result is independent of visitation order: pruning a slice whole,
/// in arbitrary sub-slices (with matching offsets), or banded across
/// threads produces bitwise-identical gradients. `tau <= 0` disables
/// pruning, and exact zeros stay zero, exactly as in [`prune_slice`].
///
/// The work follows the candidates (non-zeros below `tau`). Each
/// 64-element run is classified branch-free into bitmasks; a run with no
/// candidate costs its classification and nothing else. Otherwise only
/// the Philox blocks holding a candidate's position are computed (one
/// block serves four consecutive positions), four blocks in flight, and
/// the whole run is then settled branch-free: each candidate snaps or
/// zeroes by a select, every other element is written back unchanged.
///
/// ```
/// use sparsetrain_core::prune::prune_slice_at;
/// use rand::stream::StreamKey;
///
/// let key = StreamKey::new(0);
/// let mut whole = vec![0.5, -0.001, 0.0008, 2.0];
/// let out = prune_slice_at(&mut whole, 0.01, key, 0);
/// assert_eq!(out.kept, 2); // 0.5 and 2.0 pass through
///
/// // Any partition with matching offsets reproduces the whole-slice prune.
/// let mut parts = vec![0.5, -0.001, 0.0008, 2.0];
/// let (head, tail) = parts.split_at_mut(2);
/// prune_slice_at(head, 0.01, key, 0);
/// prune_slice_at(tail, 0.01, key, 2);
/// assert_eq!(parts, whole);
/// ```
pub fn prune_slice_at(grads: &mut [f32], tau: f64, key: StreamKey, offset: u64) -> PruneOutcome {
    let nonzeros = grads.iter().filter(|&&g| g != 0.0).count();
    if tau <= 0.0 {
        return PruneOutcome {
            kept: nonzeros,
            snapped: 0,
            zeroed: grads.len() - nonzeros,
        };
    }
    let tau_f = tau as f32;
    let schedule = key.schedule();
    // NaN and ±∞ compare false here and are kept; −0.0 is a zero.
    let is_candidate = |g: f32| (g != 0.0) & ((g.abs() as f64) < tau);
    let mut drawn = 0usize;
    for (start, run) in (0..).step_by(RUN).zip(grads.chunks_mut(RUN)) {
        let candidates = mask_of(run, is_candidate);
        if candidates == 0 {
            continue;
        }
        drawn += candidates.count_ones() as usize;
        // The run's first position sits `lead` words into its block, so
        // element `i` reads `draws[lead + i]` and block `k` of the run
        // fills `draws[4k..4k + 4]`. Bit 4k of `holding` is set iff block
        // `k` holds a candidate; those blocks are listed branch-free.
        let first = offset.wrapping_add(start);
        let (aligned, lead) = (first & !3, (first & 3) as usize);
        let spread = (candidates as u128) << lead;
        let holding = (spread | spread >> 1 | spread >> 2 | spread >> 3) & NIBBLE_LOWS;
        let mut blocks = [0usize; RUN / 4 + 1];
        let mut listed = 0;
        for k in 0..blocks.len() {
            blocks[listed] = k;
            listed += (holding >> (4 * k)) as usize & 1;
        }
        // Four blocks in flight; a short last group repeats its last block.
        // Each block's counter is taken from its own (wrapped) position,
        // so a run crossing 2⁶⁴ reads block 0 after block 2⁶² − 1.
        let mut draws = [0f32; RUN + 4];
        for group in blocks[..listed].chunks(4) {
            let last = group[group.len() - 1];
            let ks = [0, 1, 2, 3].map(|j| *group.get(j).unwrap_or(&last));
            let quads = schedule.draw_blocks(ks.map(|k| aligned.wrapping_add(4 * k as u64) / 4));
            for (k, quad) in ks.into_iter().zip(quads) {
                draws[4 * k..][..4].copy_from_slice(&quad);
            }
        }
        // r ~ U[0,1) at the element's stream position: keep ±τ iff
        // |g| > τ·r ⇔ with probability |g|/τ. Selects, not branches — the
        // outcome is a coin flip by construction — over the whole run;
        // every other element is written back unchanged.
        for (g, &r) in run.iter_mut().zip(&draws[lead..]) {
            let snap = (g.abs() as f64) > tau * r as f64;
            let settled = if snap { tau_f.copysign(*g) } else { 0.0 };
            *g = if is_candidate(*g) { settled } else { *g };
        }
    }
    let kept = nonzeros - drawn;
    // A snapped value is ±τ as f32, never zero: a candidate is a non-zero
    // f32 below τ, so τ rounds to at least the smallest subnormal.
    let snapped = grads.iter().filter(|&&g| g != 0.0).count() - kept;
    PruneOutcome {
        kept,
        snapped,
        zeroed: grads.len() - kept - snapped,
    }
}

/// Bit `4k` set for every `k`: the low bit of each 4-bit group of a
/// `u128`.
const NIBBLE_LOWS: u128 = u128::MAX / 0xF;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_tau_keeps_everything() {
        let mut g = vec![0.1, -0.2, 0.0];
        let out = prune_slice(&mut g, 0.0, &mut StdRng::seed_from_u64(0));
        assert_eq!(g, vec![0.1, -0.2, 0.0]);
        assert_eq!(out.kept, 2);
        assert_eq!(out.zeroed, 1);
    }

    #[test]
    fn large_values_pass_through() {
        let mut g = vec![1.0, -1.0];
        let out = prune_slice(&mut g, 0.5, &mut StdRng::seed_from_u64(0));
        assert_eq!(g, vec![1.0, -1.0]);
        assert_eq!(out.kept, 2);
    }

    #[test]
    fn small_values_become_zero_or_tau() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-5).collect();
        prune_slice(&mut g, 0.01, &mut rng);
        for &v in &g {
            assert!(
                v == 0.0 || (v.abs() - 0.01).abs() < 1e-9,
                "value {v} is neither 0 nor ±τ"
            );
        }
    }

    #[test]
    fn signs_are_preserved_when_snapped() {
        let mut rng = StdRng::seed_from_u64(1);
        // Values just below τ snap with high probability; check sign.
        let mut g = vec![0.0099f32; 50];
        g.extend(vec![-0.0099f32; 50]);
        prune_slice(&mut g, 0.01, &mut rng);
        for (i, &v) in g.iter().enumerate() {
            if v != 0.0 {
                if i < 50 {
                    assert!(v > 0.0);
                } else {
                    assert!(v < 0.0);
                }
            }
        }
    }

    #[test]
    fn expectation_is_preserved() {
        // The core unbiasedness property: E[ĝ] = g.
        let mut rng = StdRng::seed_from_u64(7);
        let g0 = 0.003f32;
        let tau = 0.01f64;
        let n = 200_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let mut g = [g0];
            prune_slice(&mut g, tau, &mut rng);
            sum += g[0] as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - g0 as f64).abs() < 2e-4, "E[pruned] = {mean}, want {g0}");
    }

    #[test]
    fn snap_probability_matches_ratio() {
        let mut rng = StdRng::seed_from_u64(11);
        let tau = 0.01f64;
        let g0 = 0.007f32; // expect snapped with prob 0.7
        let n = 100_000;
        let mut g: Vec<f32> = vec![g0; n];
        let out = prune_slice(&mut g, tau, &mut rng);
        let frac = out.snapped as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "snap fraction {frac}, want 0.7");
    }

    #[test]
    fn stream_prune_matches_rule_semantics() {
        let key = StreamKey::new(42);
        let mut g: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-5).collect();
        let out = prune_slice_at(&mut g, 0.01, key, 0);
        assert_eq!(out.total(), 1000);
        for &v in &g {
            assert!(
                v == 0.0 || (v.abs() - 0.01).abs() < 1e-9,
                "value {v} is neither 0 nor ±τ"
            );
        }
    }

    #[test]
    fn stream_prune_is_order_independent() {
        let key = StreamKey::new(7).derive(3);
        let base: Vec<f32> = (0..512).map(|i| ((i * 37 % 101) as f32 - 50.0) * 2e-4).collect();
        let mut whole = base.clone();
        prune_slice_at(&mut whole, 0.008, key, 0);
        for split in [1usize, 100, 256, 511] {
            let mut parts = base.clone();
            let (head, tail) = parts.split_at_mut(split);
            let a = prune_slice_at(head, 0.008, key, 0);
            let b = prune_slice_at(tail, 0.008, key, split as u64);
            assert_eq!(parts, whole, "split at {split} diverged");
            assert_eq!(a.total() + b.total(), 512);
        }
    }

    /// The rule one element at a time, each draw read straight off the
    /// stream at the element's position (word `p mod 4` of Philox block
    /// `⌊p/4⌋`): what [`prune_slice_at`] must equal bit for bit however it
    /// batches its work.
    fn prune_reference(grads: &mut [f32], tau: f64, key: StreamKey, offset: u64) -> PruneOutcome {
        let schedule = key.schedule();
        let mut out = PruneOutcome::default();
        for (i, g) in grads.iter_mut().enumerate() {
            let a = g.abs() as f64;
            if *g == 0.0 {
                out.zeroed += 1;
            } else if a < tau {
                let r = schedule.draw_at(offset.wrapping_add(i as u64)) as f64;
                if a > tau * r {
                    *g = if *g > 0.0 { tau as f32 } else { -(tau as f32) };
                    out.snapped += 1;
                } else {
                    *g = 0.0;
                    out.zeroed += 1;
                }
            } else {
                out.kept += 1;
            }
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sweep_matches_the_per_element_reference() {
        // τ exactly an f32 (so |g| == τ occurs), τ between two f32s (its
        // f32 neighbours fall on either side), and a subnormal τ.
        let taus = [0.01f32 as f64, 0.01f64, 1e-40f64];
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for tau in taus {
            let t = tau as f32;
            let specials = [
                -0.0,
                t,
                -t,
                t.next_up(),
                t.next_down(),
                -t.next_down(),
                f32::from_bits(1),
                -f32::from_bits(0x007F_FFFF),
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            for density in [0.0, 0.05, 0.17, 0.5, 1.0] {
                for len in [0usize, 1, 63, 64, 65, 1000] {
                    let base: Vec<f32> = (0..len)
                        .map(|_| {
                            if next() >= density {
                                0.0
                            } else if next() < 0.1 {
                                specials[(next() * specials.len() as f64) as usize]
                            } else {
                                // Magnitudes on both sides of τ, both signs.
                                ((next() * 4.0 - 2.0) * tau) as f32
                            }
                        })
                        .collect();
                    let key = StreamKey::new(len as u64).derive((density * 100.0) as u64);
                    // Every residue of the offset mod 4 (a run starting
                    // mid-block), and runs crossing 2⁶⁴ at each residue.
                    for offset in [
                        0u64,
                        12_345,
                        6,
                        7,
                        u64::MAX - 3,
                        u64::MAX - 40,
                        u64::MAX - 1,
                        u64::MAX - 2,
                    ] {
                        let mut want = base.clone();
                        let want_out = prune_reference(&mut want, tau, key, offset);
                        // Every two-way split, the whole slice (split 0)
                        // included: a draw depends on the element's
                        // position, never on where a call or a run begins.
                        for split in 0..=len {
                            let mut got = base.clone();
                            let (head, tail) = got.split_at_mut(split);
                            let a = prune_slice_at(head, tau, key, offset);
                            let b = prune_slice_at(tail, tau, key, offset.wrapping_add(split as u64));
                            let ctx =
                                format!("τ {tau} density {density} len {len} offset {offset} split {split}");
                            assert_eq!(bits(&got), bits(&want), "{ctx}");
                            assert_eq!(
                                (a.kept + b.kept, a.snapped + b.snapped, a.zeroed + b.zeroed),
                                (want_out.kept, want_out.snapped, want_out.zeroed),
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stream_prune_zero_tau_and_zeros() {
        let key = StreamKey::new(0);
        let mut g = vec![0.1, -0.2, 0.0];
        let out = prune_slice_at(&mut g, 0.0, key, 0);
        assert_eq!(g, vec![0.1, -0.2, 0.0]);
        assert_eq!((out.kept, out.zeroed), (2, 1));
        // Exact zeros never flip, whatever their stream position says.
        let mut z = vec![0.0f32; 64];
        let out = prune_slice_at(&mut z, 0.5, key, 0);
        assert_eq!(out.zeroed, 64);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stream_snap_probability_matches_ratio() {
        // P[snap] = |g|/τ, element-wise over distinct stream positions.
        let key = StreamKey::new(11).derive(1);
        let tau = 0.01f64;
        let g0 = 0.007f32;
        let n = 100_000;
        let mut g = vec![g0; n];
        let out = prune_slice_at(&mut g, tau, key, 0);
        let frac = out.snapped as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "snap fraction {frac}, want 0.7");
    }

    #[test]
    fn outcome_total_and_density() {
        let out = PruneOutcome {
            kept: 5,
            snapped: 3,
            zeroed: 2,
        };
        assert_eq!(out.total(), 10);
        assert_eq!(out.density(), 0.8);
    }

    /// Inputs that were already zero are `zeroed` in the outcome and count
    /// once: the density is the output's non-zero fraction.
    #[test]
    fn density_counts_zero_inputs_once() {
        let mut g = vec![0.0, 0.5, -0.0, 2.0, 0.0, -0.001, 0.0009, 0.0];
        let out = prune_slice_at(&mut g, 0.01, StreamKey::new(3), 0);
        assert_eq!((out.kept, out.total()), (2, 8));
        let nonzeros = g.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(out.kept + out.snapped, nonzeros);
        assert_eq!(out.density(), nonzeros as f64 / 8.0);
        let zeros_in = PruneOutcome {
            kept: 3,
            snapped: 1,
            zeroed: 4,
        };
        assert_eq!(zeros_in.density(), 0.5);
    }

    #[test]
    fn empty_slice_is_noop() {
        let mut g: Vec<f32> = Vec::new();
        let out = prune_slice(&mut g, 0.1, &mut StdRng::seed_from_u64(0));
        assert_eq!(out.total(), 0);
        assert_eq!(out.density(), 1.0);
    }
}
