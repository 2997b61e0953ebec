//! Summary statistics over host-time samples: median, quartiles, and the
//! nearest-rank tail percentile.

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so numbers reported here match a Python check of the same
/// sample. A single value is its own quartiles; an empty sample gives
/// zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// The tail percentile reported for a sample of `n` timings: the highest
/// whole nearest-rank percentile `p` with at least 10 samples above its
/// rank (`n - ceil(p·n/100) ≥ 10`). When that percentile would fall below
/// the median (fewer than 20 samples) the tail is the maximum, reported
/// as percentile 100.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99).rev().find(|&p| n >= 10 + nearest_rank(p, n)).unwrap_or(100)
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// `(percentile, value)` of the tail of `values` per [`tail_percentile`].
pub fn tail(values: &[f64]) -> (u32, f64) {
    let v = sorted(values);
    if v.is_empty() {
        return (100, 0.0);
    }
    let p = tail_percentile(v.len());
    (p, v[nearest_rank(p, v.len()).min(v.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(42), 76);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
        for n in 20..2000 {
            let p = tail_percentile(n);
            assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn small_samples_report_the_maximum() {
        assert_eq!(tail_percentile(3), 100);
        assert_eq!(tail_percentile(19), 100);
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (100, 9.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75, 30.0));
    }
}
