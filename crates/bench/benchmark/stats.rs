//! Order statistics and the regression verdicts built on them.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones a
//! reader recomputes from the same values with the standard library.

/// Sorted copy of `values` (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile, by the exclusive method of Python's
/// `statistics.quantiles`. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile `p` (in percent) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail latency may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest reportable percentile for `n` samples: the highest one
/// with at least ten samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Outcome of comparing a metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins the pair rule.
    Better,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The parent's own spread is wider than the bound, so the comparison
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parent/change pairs below which no run set can show a gain.
pub const MIN_PAIRS: usize = 10;

/// Judges `change` against `parent` (one value per run) for a metric
/// where lower is better when `lower_is_better`, with regression `bound`
/// as a share of the parent median.
///
/// * a spread wider than the bound is unresolved, unless every change
///   run reads better than every parent run;
/// * a change median worse by more than the bound is worse;
/// * a change that wins at least 9 of 10 pairs `(parent[i], change[i])`
///   (ties count for neither) with medians further apart than the
///   parent's interquartile range is better;
/// * anything else is unchanged.
///
/// No gain is shown by fewer than [`MIN_PAIRS`] pairs.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    // Flip signs so "smaller is better" holds for every metric below.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let p: Vec<f64> = parent.iter().map(|x| sign * x).collect();
    let c: Vec<f64> = change.iter().map(|x| sign * x).collect();
    let (pm, cm) = (median(&p), median(&c));
    let pairs = p.len().min(c.len());
    let all_better = pairs >= MIN_PAIRS && sorted(&c).last() < sorted(&p).first();
    if relative_spread(parent) > bound || relative_spread(change) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if cm - pm > bound * pm.abs() {
        return Verdict::Worse;
    }
    let wins = p.iter().zip(&c).filter(|(a, b)| b < a).count();
    let [q1, _, q3] = quartiles(&p);
    if pairs >= MIN_PAIRS && wins as f64 >= 0.9 * pairs as f64 && pm - cm > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(5_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn verdicts_cover_all_four_outcomes() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Unchanged: same distribution, shuffled.
        let same = [
            100.1, 99.9, 100.0, 99.5, 100.5, 99.8, 100.2, 100.0, 101.0, 99.0,
        ];
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::Unchanged);
        // Worse: 20 % slower against a 10 % bound.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &slow, true, 0.1), Verdict::Worse);
        // Better: 5 % faster in every pair, beyond the parent's IQR.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&parent, &fast, true, 0.1), Verdict::Better);
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(verdict(&parent, &fast, false, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&parent, &slow, false, 0.1), Verdict::Better);
        // Unresolved: the parent's own spread exceeds the bound.
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &same, true, 0.1), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let tiny: Vec<f64> = noisy.iter().map(|x| x * 0.1).collect();
        assert_eq!(verdict(&noisy, &tiny, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&[], &same, true, 0.1), Verdict::Unresolved);
        // Fewer than ten pairs never show a gain, but still show a loss.
        assert_eq!(
            verdict(&parent[..9], &fast[..9], true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&parent[..1], &slow[..1], true, 0.1), Verdict::Worse);
    }
}
