//! Order statistics and the best-round estimator.
//!
//! The definitions are the benchmark's own and stay fixed even when the
//! repository's helpers change: a committed number means the same thing
//! on every commit it is measured on.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => rel,
            Better::Higher => -rel,
        }
    }
}

/// Ascending copy of a sample.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the `ceil(p·n)`-th
/// smallest value (the smallest for `p = 0`). Always one of the samples,
/// never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them, so `spread` and `compare` print the
/// numbers the acceptance driver computes. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let x = sorted(values.to_vec());
    let n = x.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One metric over the statistically identical rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// The best round: the gated value. Interference on a shared box only
    /// ever makes a round slower, so the best of many identical rounds
    /// repeats where their median does not.
    pub best: f64,
    /// Median round (ungated, printed beside `best`).
    pub median: f64,
    /// Inter-quartile range of the rounds (ungated).
    pub iqr: f64,
    pub better: Better,
}

pub fn summarize_rounds(per_round: &[f64], better: Better) -> RoundSummary {
    let x = sorted(per_round.to_vec());
    let best = match better {
        Better::Lower => x[0],
        Better::Higher => x[x.len() - 1],
    };
    let (q1, median, q3) = quartiles(&x);
    RoundSummary { best, median, iqr: q3 - q1, better }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let x: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&x, 0.5), 500.0);
        assert_eq!(percentile(&x, 0.99), 990.0);
        assert_eq!(percentile(&x, 0.9), 900.0);
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 1.0), 1000.0);
        // Odd sizes round the rank up, never interpolate.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.67), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn best_round_follows_the_direction() {
        let rounds = [1.31, 1.29, 1.52, 1.30, 1.45];
        let lat = summarize_rounds(&rounds, Better::Lower);
        assert_eq!(lat.best, 1.29);
        assert_eq!(lat.median, 1.31);
        let rate = summarize_rounds(&rounds, Better::Higher);
        assert_eq!(rate.best, 1.52);
        assert!(lat.iqr > 0.0 && lat.iqr == rate.iqr);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
    }
}
