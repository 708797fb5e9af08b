//! Order statistics over latency samples and run-to-run figures.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n => (s[(n - 1) / 2] + s[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest whole percentile that
/// still has at least ten samples beyond it. Returns
/// `(value, percentile, sample count)`; with ten samples or fewer no
/// percentile qualifies and the maximum is reported as p100.
pub fn tail(xs: &[f64]) -> (f64, u32, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, 100, 0);
    }
    if n <= 10 {
        return (s[n - 1], 100, n);
    }
    // Percentile p puts rank ceil(p·n/100) at or below it; keep at
    // least ten samples strictly above that rank.
    let mut p = 99u32;
    while p > 0 && (p as usize * n).div_ceil(100) > n - 10 {
        p -= 1;
    }
    let rank = (p as usize * n).div_ceil(100).max(1);
    (s[rank - 1], p, n)
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method), so spreads printed here match the
/// ones an outside check computes from the same values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v, v, v];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, p, n), (90.0, 90, 100));
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let (v, p, _) = tail(&xs);
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10, "p{p} -> {v}");
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100, 2));
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
