//! Order statistics over repetition samples.

/// Percentiles the tail rule picks from, lowest first.
const TAILS: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples a reported tail percentile must leave above it.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`TAILS`] that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples above it (the median when none does).
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|q| n as f64 * (1.0 - q) >= TAIL_SAMPLES as f64 - 1e-9)
        .unwrap_or(0.5)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` percentile: the smallest sample with at least a
/// `q` share of the samples at or below it.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_reps_report_p75_with_ten_samples_above() {
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        let reps: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let p75 = percentile(&reps, 0.75);
        assert_eq!(p75, 30.0);
        assert_eq!(reps.iter().filter(|&&x| x > p75).count(), TAIL_SAMPLES);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
