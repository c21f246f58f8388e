//! The benchmark's pure parts: order statistics with their support rule,
//! span self-time arithmetic, and the metric-name rules of the result
//! line. Everything here is deterministic and unit-tested.

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-quantile (`ceil(p * n)`, at least 1).
fn nearest_rank(n: usize, p: f64) -> usize {
    // Round before the ceiling so that 0.99 * 1000 stays rank 990.
    let exact = (p * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Does a run of `n` samples support reporting the `p`-quantile, i.e. do
/// at least [`TAIL_SUPPORT`] samples lie beyond it?
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_SUPPORT
}

/// Fewest samples that support the `p`-quantile.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| supports(n, p))
        .expect("some count supports p < 1")
}

/// Nearest-rank `p`-quantile of `sorted` (ascending). `NaN` when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of an unsorted sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median, p99 and count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Whether `n` supports the p99 (see [`supports`]).
    pub p99_supported: bool,
}

impl Summary {
    /// The median over `rounds` of each round's median, and the p99 of
    /// all samples pooled, supported by the pooled count. For rounds too
    /// small to support a p99 of their own (a cold pass yields one sample
    /// per job).
    pub fn pooled_tail(rounds: &[Vec<f64>]) -> Summary {
        let pooled = Summary::of(&rounds.concat());
        let medians: Vec<f64> = rounds.iter().map(|r| median(r)).collect();
        Summary {
            p50: median(&medians),
            ..pooled
        }
    }

    /// The same summary with every time multiplied by `factor`.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            p50: self.p50 * factor,
            p99: self.p99 * factor,
            ..self
        }
    }

    /// Summarizes `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: median(&v),
            p99: quantile(&v, 0.99),
            p99_supported: supports(v.len(), 0.99),
        }
    }
}

/// Total length covered by the union of half-open `[start, end)`
/// intervals (empty or reversed intervals cover nothing).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and may
/// overlap each other (threads), so the covered part is their union.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    end.saturating_sub(start) - union_len(&clipped)
}

/// Is `name` a valid metric or workload name: 1 to 64 characters, the
/// first a letter or digit, all letters, digits, `_`, `.` or `-`?
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Is `unit` a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// or `-`?
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(min_samples_for(0.5), 20);
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.p50, s.p99, s.p99_supported),
            (1000, 500.5, 990.0, true)
        );
        assert!(!Summary::of(&v[..999]).p99_supported);
    }

    #[test]
    fn pooled_tail_supports_the_p99_by_the_pooled_count() {
        // 20 rounds of 50 samples: no round supports a p99, the pool does.
        let rounds: Vec<Vec<f64>> = (0..20)
            .map(|r| (0..50).map(|i| f64::from(r * 50 + i + 1)).collect())
            .collect();
        let sum = Summary::pooled_tail(&rounds);
        assert_eq!((sum.n, sum.p99, sum.p99_supported), (1000, 990.0, true));
        // Round medians 25.5, 75.5, ..., 975.5: their median is 500.5.
        assert_eq!(sum.p50, 500.5);
        let short = Summary::pooled_tail(&rounds[..19]);
        assert_eq!((short.n, short.p99_supported), (950, false));
    }

    #[test]
    fn scaling_a_summary_scales_its_times_only() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).scaled(2.0);
        assert_eq!((s.n, s.p50, s.p99, s.p99_supported), (3, 4.0, 6.0, false));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two threads) are not counted twice.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 70)]), 40);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Nested and empty children.
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30), (5, 5)]), 0);
        assert_eq!(union_len(&[(5, 10), (0, 3), (2, 4), (10, 12)]), 11);
    }

    #[test]
    fn metric_names_follow_the_result_rules() {
        for good in [
            "setup_s",
            "graph.gen_ms",
            "serve_cold_p99_us",
            "9x",
            "a-b.c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ü", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB/s", "ns/edge"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
