//! Order statistics, interval arithmetic and the regression verdict.

use std::fmt;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller aggregates at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles with the "exclusive" interpolation of
/// Python's `statistics.quantiles(values, n=4)`, so the spreads this crate
/// reports agree with the ones computed over its JSON output. A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (`0..=100`) by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Total length covered by the union of half-open `[start, end)`
/// intervals, in their own unit. Overlapping evaluation intervals from
/// parallel threads count once, which is what makes `race.self_s` the
/// time during which *no* evaluation was running.
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in iv {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, errors).
    Lower,
    /// Larger values are better (throughputs, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The median, quartiles and sample count of one metric on one side of
/// a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of runs.
    pub n: usize,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Quartile spread as a share of the median (0 when the median is 0
    /// and the quartiles agree).
    pub fn spread(&self) -> f64 {
        let width = self.q3 - self.q1;
        if width == 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }
}

/// The outcome of comparing a metric between a parent (`a`) and a
/// change (`b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Improved,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b`
/// is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// The bound check: the verdict on `b` against `a` for a metric that may
/// worsen by at most `bound` (a share of `a`'s median).
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.median, b.median, better);
    if w > bound {
        Verdict::Regressed
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0], 99.0), 3.0);
        assert_eq!(percentile(&[3.0], 0.0), 3.0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_length(&[]), 0.0);
        assert_eq!(union_length(&[(0.0, 2.0)]), 2.0);
        // Two threads overlapping on [1, 2): 0..3 covered.
        assert_eq!(union_length(&[(1.0, 3.0), (0.0, 2.0)]), 3.0);
        // Disjoint, nested and touching intervals.
        assert_eq!(
            union_length(&[(0.0, 1.0), (5.0, 6.0), (5.2, 5.5), (1.0, 1.5)]),
            2.5
        );
        // Empty and inverted intervals cover nothing.
        assert_eq!(union_length(&[(2.0, 2.0), (4.0, 3.0)]), 0.0);
    }

    #[test]
    fn bound_check_respects_direction_and_spread() {
        let tight = |m: f64| Summary {
            median: m,
            q1: m * 0.99,
            q3: m * 1.01,
            n: 5,
        };
        let lower = Better::Lower;
        assert_eq!(
            verdict(&tight(10.0), &tight(10.5), lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&tight(10.0), &tight(11.5), lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&tight(10.0), &tight(8.5), lower, 0.1),
            Verdict::Improved
        );
        let higher = Better::Higher;
        assert_eq!(
            verdict(&tight(10.0), &tight(8.5), higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&tight(10.0), &tight(11.5), higher, 0.1),
            Verdict::Improved
        );
        // A spread wider than the bound hides any median difference.
        let wide = Summary {
            median: 10.0,
            q1: 8.0,
            q3: 12.0,
            n: 5,
        };
        assert_eq!(
            verdict(&wide, &tight(20.0), lower, 0.1),
            Verdict::Unresolved
        );
        // Exact metrics: identical values are unchanged at any bound.
        let exact = Summary::of(&[2.88, 2.88, 2.88]);
        assert_eq!(exact.spread(), 0.0);
        assert_eq!(verdict(&exact, &exact, lower, 0.0), Verdict::Unchanged);
    }
}
