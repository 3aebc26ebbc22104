//! Order statistics for timing samples: median, quartiles (the same
//! definition as Python's `statistics.quantiles(v, n=4)`, which the
//! acceptance driver uses), and the tail-percentile rule of the
//! `choosing-metrics` guide ("the highest percentile that has at least ten
//! samples beyond it").

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    s
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// First and third quartile, exclusive method (Python's default). A single
/// sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles a timing may be reported at, ascending, in per mille (so
/// the sample counts below are exact integer arithmetic).
const TAIL_MENU: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest menu percentile with at least ten samples beyond it, and
/// its nearest-rank value; `None` below 40 samples (p75 needs 10 of 40).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    // Nearest rank: the smallest sample with at least p of the data at or
    // below it; the samples after it are "beyond".
    let rank = |pm: usize| (n * pm).div_ceil(1000).max(1);
    let pm = TAIL_MENU
        .iter()
        .rev()
        .copied()
        .find(|&pm| n >= rank(pm) + 10)?;
    Some((pm as f64 / 10.0, s[rank(pm) - 1]))
}

/// Median + quartiles + sample count + tail percentile of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            n: samples.len(),
            median: median(samples),
            q1,
            q3,
            tail: tail_percentile(samples),
        }
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// acceptance driver compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} [q1 {:.6}, q3 {:.6}] n={}",
            self.median, self.q1, self.q3, self.n
        )?;
        if let Some((p, v)) = self.tail {
            write!(f, " p{p}={v:.6}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(39)), None);
        // 40 samples: exactly 10 beyond p75.
        assert_eq!(tail_percentile(&v(40)), Some((75.0, 30.0)));
        // 100 samples: 10 beyond p90, only 5 beyond p95.
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 90.0)));
        // 400 samples: 20 beyond p95, 4 beyond p99.
        assert_eq!(tail_percentile(&v(400)), Some((95.0, 380.0)));
        assert_eq!(tail_percentile(&v(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail_percentile(&v(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn summary_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.spread(), 1.0);
    }
}
