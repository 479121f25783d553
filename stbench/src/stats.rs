//! Order statistics for timings: medians, tail percentiles with the
//! "at least ten samples beyond" rule, and spreads.

/// Sorted copy of `values` (NaN sorts last, so it cannot hide in a median).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize; // 1-based
    v.get(rank.checked_sub(1)?).copied()
}

/// Samples that must lie beyond a tail percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile, or `None` when fewer than ten
/// samples would lie beyond it: a tail read off a handful of samples is
/// one slow step, not a percentile. p90 needs 100 samples.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    if values.len() - rank.min(values.len()) < MIN_BEYOND {
        return None;
    }
    percentile(values, p)
}

/// `(min, max)` of the values.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    Some((*v.first()?, *v.last()?))
}

/// Distance between the smallest and the largest value as a share of the
/// median: the run-to-run spread `compare` holds against a bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (lo, hi) = min_max(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (hi - lo) / mid.abs())
}

/// Total length covered by the union of `[start, end)` intervals: the part
/// of a span its children account for, also when they ran in parallel.
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match &mut open {
            Some((_, open_end)) if start <= *open_end => *open_end = (*open_end).max(end),
            _ => {
                if let Some((s, e)) = open {
                    total += e - s;
                }
                open = Some((start, end.max(start)));
            }
        }
    }
    if let Some((s, e)) = open {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One wild repetition does not move it.
        assert_eq!(median(&[94.5, 94.6, 300.0]), Some(94.6));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let steps = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&steps(99), 90.0), None);
        assert_eq!(tail_percentile(&steps(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&steps(125), 90.0), Some(113.0));
        assert_eq!(tail_percentile(&steps(125), 99.0), None);
        assert_eq!(tail_percentile(&steps(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&steps(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
        // The lower quartile needs no such margin.
        assert_eq!(percentile(&steps(8), 25.0), Some(2.0));
        assert_eq!(percentile(&steps(125), 25.0), Some(32.0));
        assert_eq!(percentile(&[5.0], 25.0), Some(5.0));
        assert_eq!(percentile(&[], 25.0), None);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[100.0, 104.0, 96.0]), Some(0.08));
        assert_eq!(spread(&[5.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
        assert_eq!(min_max(&[2.0, -1.0, 9.0]), Some((-1.0, 9.0)));
    }

    #[test]
    fn covered_merges_overlaps_and_keeps_gaps() {
        assert_eq!(covered(vec![]), 0);
        // Siblings with a gap between them.
        assert_eq!(covered(vec![(0, 10), (20, 30)]), 20);
        // Parallel workers overlap: their union counts once.
        assert_eq!(covered(vec![(5, 15), (0, 10), (12, 14)]), 15);
        // Touching intervals merge without double counting.
        assert_eq!(covered(vec![(0, 5), (5, 9)]), 9);
    }
}
