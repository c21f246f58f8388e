//! Verdict layer: maps a metric's time series to an
//! ok/improved/regressed status through the [`stats`](crate::stats)
//! machinery, under a configurable tolerance.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::stats::{changepoint_scan, mean_std, prediction_t_test, ChangePoint};

/// Detection thresholds.
///
/// Both gates must trip before a metric is flagged: the shift must be
/// statistically resolvable (`alpha`) *and* operationally meaningful
/// (`rel`). The deterministic simulator makes tiny shifts trivially
/// significant, so the relative band is the knob that matters in
/// practice — it replaces the old hand-locked golden makespans with a
/// tolerance the history can drift inside.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerance {
    /// Relative mean-shift band; shifts within `±rel` never flag.
    pub rel: f64,
    /// Two-sided significance level for the t-tests.
    pub alpha: f64,
    /// Post-split comparison window (runs) for the changepoint scan.
    pub window: usize,
    /// Minimum series length before any verdict other than
    /// [`Status::Insufficient`].
    pub min_runs: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            rel: 0.02,
            alpha: 1e-3,
            window: 4,
            min_runs: 4,
        }
    }
}

/// Per-metric verdict. Metrics are durations, so a positive shift is a
/// slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// No significant shift anywhere in the series.
    Ok,
    /// A significant *downward* shift (the platform got faster).
    Improved,
    /// A significant *upward* shift (the platform got slower).
    Regressed,
    /// Too few runs to test.
    Insufficient,
}

impl Status {
    /// Stable lowercase wire name, the one `regress.json` carries.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "regressed",
            Status::Insufficient => "insufficient",
        }
    }
}

// Manual serde: the wire format is the lowercase name, not a struct.
impl Serialize for Status {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Status {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s == "ok" => Ok(Status::Ok),
            Value::Str(s) if s == "improved" => Ok(Status::Improved),
            Value::Str(s) if s == "regressed" => Ok(Status::Regressed),
            Value::Str(s) if s == "insufficient" => Ok(Status::Insufficient),
            _ => Err(DeError::expected("status string")),
        }
    }
}

/// Everything the detector concluded about one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The verdict.
    pub status: Status,
    /// Index (into the series) of the first offending run, when a shift
    /// was found.
    pub first_offending: Option<usize>,
    /// Relative mean shift: post-shift vs pre-shift mean for a detected
    /// change, latest-vs-baseline otherwise.
    pub effect: f64,
    /// p-value of the decisive test (1.0 when insufficient).
    pub p_value: f64,
    /// Mean of the baseline segment (everything before the shift, or the
    /// whole series minus the latest run).
    pub baseline_mean: f64,
    /// Population standard deviation of the baseline segment.
    pub baseline_std: f64,
    /// Number of baseline samples.
    pub n_baseline: usize,
    /// The raw changepoint, when one was found.
    pub change: Option<ChangePoint>,
}

/// Runs the full detection pipeline over one metric series (ordered
/// oldest → newest, the last sample being the run under test).
pub fn detect(series: &[f64], tol: &Tolerance) -> Detection {
    let n = series.len();
    if n < tol.min_runs.max(2) {
        let (m, s) = mean_std(series);
        return Detection {
            status: Status::Insufficient,
            first_offending: None,
            effect: 0.0,
            p_value: 1.0,
            baseline_mean: m,
            baseline_std: s,
            n_baseline: n,
            change: None,
        };
    }
    if n == 2 {
        // A one-run baseline has no variance to test against: the band
        // alone decides, strictly (a shift of exactly `rel` passes).
        let (base, latest) = (series[0], series[1]);
        let effect = (latest - base) / base.abs().max(f64::EPSILON);
        let status = if effect > tol.rel {
            Status::Regressed
        } else if effect < -tol.rel {
            Status::Improved
        } else {
            Status::Ok
        };
        return Detection {
            status,
            first_offending: (status != Status::Ok).then_some(1),
            effect,
            p_value: 1.0,
            baseline_mean: base,
            baseline_std: 0.0,
            n_baseline: 1,
            change: None,
        };
    }
    if let Some(cp) = changepoint_scan(series, tol.window, tol.alpha, tol.rel) {
        let (m, s) = mean_std(&series[..cp.index]);
        let effect = (cp.after_mean - cp.before_mean) / cp.before_mean.abs().max(f64::EPSILON);
        return Detection {
            status: if effect > 0.0 {
                Status::Regressed
            } else {
                Status::Improved
            },
            first_offending: Some(cp.index),
            effect,
            p_value: cp.p,
            baseline_mean: m,
            baseline_std: s,
            n_baseline: cp.index,
            change: Some(cp),
        };
    }
    // No shift: report how the latest run sits against its history.
    let baseline = &series[..n - 1];
    let latest = series[n - 1];
    let (m, s) = mean_std(baseline);
    let p = prediction_t_test(baseline, latest).map_or(1.0, |t| t.p);
    Detection {
        status: Status::Ok,
        first_offending: None,
        effect: (latest - m) / m.abs().max(f64::EPSILON),
        p_value: p,
        baseline_mean: m,
        baseline_std: s,
        n_baseline: baseline.len(),
        change: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittered(base: f64, n: usize) -> Vec<f64> {
        let noise = [0.0008, -0.0015, 0.0011, -0.0004, 0.0013, -0.0009];
        (0..n)
            .map(|i| base * (1.0 + noise[i % noise.len()]))
            .collect()
    }

    #[test]
    fn stable_series_is_ok() {
        let d = detect(&jittered(80e6, 8), &Tolerance::default());
        assert_eq!(d.status, Status::Ok);
        assert_eq!(d.first_offending, None);
        assert!(d.effect.abs() < 0.01);
        assert_eq!(d.n_baseline, 7);
    }

    #[test]
    fn slowdown_is_regressed_at_the_right_run() {
        let mut series = jittered(80e6, 6);
        series.extend(jittered(84e6, 4)); // +5% from run 6 on
        let d = detect(&series, &Tolerance::default());
        assert_eq!(d.status, Status::Regressed);
        assert_eq!(d.first_offending, Some(6));
        assert!((d.effect - 0.05).abs() < 0.01, "effect = {}", d.effect);
        assert!(d.p_value < 1e-3);
    }

    #[test]
    fn speedup_is_improved() {
        let mut series = jittered(100.0, 6);
        series.extend(jittered(90.0, 4));
        let d = detect(&series, &Tolerance::default());
        assert_eq!(d.status, Status::Improved);
        assert!(d.effect < -0.05);
    }

    #[test]
    fn short_series_is_insufficient() {
        let d = detect(&[1.0, 2.0], &Tolerance::default());
        assert_eq!(d.status, Status::Insufficient);
        assert_eq!(d.p_value, 1.0);
    }

    #[test]
    fn one_run_baseline_is_decided_by_the_band_alone() {
        let tol = Tolerance {
            rel: 0.10,
            min_runs: 2,
            ..Tolerance::default()
        };
        let d = detect(&[100.0, 130.0], &tol);
        assert_eq!(d.status, Status::Regressed);
        assert_eq!(d.first_offending, Some(1));
        assert!((d.effect - 0.30).abs() < 1e-12);
        assert_eq!((d.baseline_mean, d.n_baseline), (100.0, 1));
        assert_eq!(detect(&[100.0, 80.0], &tol).status, Status::Improved);
        assert_eq!(detect(&[100.0, 105.0], &tol).status, Status::Ok);
        // The band is strict: a shift of exactly `rel` either way passes.
        assert_eq!(detect(&[100_000.0, 110_000.0], &tol).status, Status::Ok);
        assert_eq!(detect(&[100_000.0, 90_000.0], &tol).status, Status::Ok);
    }

    #[test]
    fn shift_inside_the_band_stays_ok() {
        // A real but sub-band (+1%) shift must not flag under rel = 2%.
        let mut series = jittered(100.0, 6);
        series.extend(jittered(101.0, 4));
        assert_eq!(detect(&series, &Tolerance::default()).status, Status::Ok);
    }

    #[test]
    fn status_round_trips_through_serde() {
        for s in [
            Status::Ok,
            Status::Improved,
            Status::Regressed,
            Status::Insufficient,
        ] {
            let v = s.to_value();
            assert_eq!(v, Value::Str(s.as_str().to_string()));
            assert_eq!(Status::from_value(&v).unwrap(), s);
        }
        assert!(Status::from_value(&Value::Str("bogus".into())).is_err());
    }
}
