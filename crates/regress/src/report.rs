//! The machine-readable verdict (`regress.json`) and its text rendering.

use serde::{Deserialize, Serialize};

use crate::detect::{detect, Detection, Status, Tolerance};
use crate::history::{History, MetricSeries, SkippedRun};

/// Version stamped into `regress.json`; consumers (CI) check it before
/// trusting the field layout.
///
/// v2 added `skipped_runs`: history files that were present on disk but
/// could not be loaded (corrupt or unreadable `.gar`). They no longer
/// abort the analysis — the verdict is computed over the surviving runs,
/// degrading to `insufficient` when too few remain.
pub const SCHEMA_VERSION: u32 = 2;

/// One run of the analyzed history, in series order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunInfo {
    /// Run id from the store header.
    pub run_id: String,
    /// Header timestamp, microseconds since the epoch.
    pub timestamp_us: u64,
    /// Header label (branch, commit, machine).
    pub label: String,
    /// File or tag the run was ingested from.
    pub source: String,
}

/// Verdict for one `(job, metric)` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Job id the metric belongs to.
    pub job_id: String,
    /// Metric name (`makespan` or `phase/<Kind>`).
    pub metric: String,
    /// Unit of the `*_us` fields; always `"us"` today.
    pub unit: String,
    /// The verdict.
    pub status: Status,
    /// Baseline (pre-shift) mean, microseconds.
    pub baseline_mean_us: f64,
    /// Baseline population standard deviation, microseconds.
    pub baseline_std_us: f64,
    /// The newest run's value, microseconds.
    pub current_us: f64,
    /// Relative mean shift (positive = slower).
    pub effect: f64,
    /// p-value of the decisive test.
    pub p_value: f64,
    /// Run id of the first run breaching the tolerance band, when a
    /// shift was detected.
    pub first_offending_run: Option<String>,
    /// Number of runs in the baseline segment.
    pub n_baseline: usize,
}

/// The full regression report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Thresholds the verdicts were computed under.
    pub tolerance: Tolerance,
    /// The analyzed runs, oldest first.
    pub runs: Vec<RunInfo>,
    /// History files that could not be loaded and were excluded from the
    /// analysis, with the reason each failed.
    pub skipped_runs: Vec<SkippedRun>,
    /// Per-metric verdicts, sorted by `(job_id, metric)`.
    pub metrics: Vec<MetricReport>,
    /// Aggregate verdict: `regressed` if any metric regressed, else
    /// `improved` if any improved, else `ok`; `insufficient` only when
    /// every metric lacked history.
    pub verdict: Status,
}

impl RegressReport {
    /// Metrics with the given status.
    pub fn with_status(&self, status: Status) -> impl Iterator<Item = &MetricReport> {
        self.metrics.iter().filter(move |m| m.status == status)
    }
}

/// A metric series paired with its detection — the unit the trend charts
/// render.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedSeries {
    /// The extracted series.
    pub series: MetricSeries,
    /// What the detector concluded about it.
    pub detection: Detection,
}

/// Runs detection over every metric series of `history` and assembles
/// the report plus the per-series detail (for rendering).
pub fn analyze(history: &History, tol: &Tolerance) -> (RegressReport, Vec<AnalyzedSeries>) {
    let run_id_of = |history: &History, idx: usize| history.runs()[idx].meta.run_id.clone();
    let all_series = history.series();
    let mut metrics = Vec::with_capacity(all_series.len());
    let mut analyzed = Vec::with_capacity(all_series.len());
    for series in all_series {
        let detection = detect(&series.values, tol);
        metrics.push(MetricReport {
            job_id: series.job_id.clone(),
            metric: series.metric.clone(),
            unit: "us".to_string(),
            status: detection.status,
            baseline_mean_us: detection.baseline_mean,
            baseline_std_us: detection.baseline_std,
            current_us: series.values.last().copied().unwrap_or(0.0),
            effect: detection.effect,
            p_value: detection.p_value,
            first_offending_run: detection
                .first_offending
                .map(|i| run_id_of(history, series.run_indexes[i])),
            n_baseline: detection.n_baseline,
        });
        analyzed.push(AnalyzedSeries { series, detection });
    }
    let verdict = if metrics.iter().any(|m| m.status == Status::Regressed) {
        Status::Regressed
    } else if metrics.iter().any(|m| m.status == Status::Improved) {
        Status::Improved
    } else if metrics.iter().any(|m| m.status == Status::Ok) {
        Status::Ok
    } else {
        Status::Insufficient
    };
    let runs = history
        .runs()
        .iter()
        .map(|r| RunInfo {
            run_id: r.meta.run_id.clone(),
            timestamp_us: r.meta.timestamp_us,
            label: r.meta.label.clone(),
            source: r.source.clone(),
        })
        .collect();
    (
        RegressReport {
            schema_version: SCHEMA_VERSION,
            tolerance: *tol,
            runs,
            skipped_runs: history.skipped().to_vec(),
            metrics,
            verdict,
        },
        analyzed,
    )
}

/// Plain-text rendering of the report, one line per metric.
pub fn render_text(report: &RegressReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "regression report over {} runs (band ±{:.1}%, alpha {:.0e})\n",
        report.runs.len(),
        report.tolerance.rel * 100.0,
        report.tolerance.alpha
    ));
    for s in &report.skipped_runs {
        out.push_str(&format!(
            "  WARNING: skipped unreadable run {}: {}\n",
            s.source, s.reason
        ));
    }
    let width = report
        .metrics
        .iter()
        .map(|m| m.job_id.len() + m.metric.len() + 1)
        .max()
        .unwrap_or(0);
    for m in &report.metrics {
        let name = format!("{} {}", m.job_id, m.metric);
        let mut line = format!(
            "  {name:<width$}  {:>12}  {:+7.2}%  {:<12}",
            format_us(m.current_us),
            m.effect * 100.0,
            m.status.as_str(),
        );
        if let Some(run) = &m.first_offending_run {
            line.push_str(&format!("  since {run} (p={:.2e})", m.p_value));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str(&format!("verdict: {}\n", report.verdict.as_str()));
    out
}

fn format_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{us:.0} us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, MAKESPAN};
    use crate::synth::scaled_store;
    use granula_archive::{ArchiveStore, JobArchive, JobMeta, RunMeta};
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn base_store(total_us: i64) -> ArchiveStore {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        t.set_info(job, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(job, Info::raw(names::END_TIME, InfoValue::Int(total_us)))
            .unwrap();
        let mut s = ArchiveStore::new();
        s.add(JobArchive::new(
            JobMeta {
                job_id: "g".into(),
                ..JobMeta::default()
            },
            t,
        ))
        .unwrap();
        s
    }

    fn history(factors: &[f64]) -> History {
        let mut h = History::new();
        for (i, f) in factors.iter().enumerate() {
            let run = RunMeta::new(format!("r{i}"), 1_000 + i as u64, "");
            h.push_store(
                scaled_store(&base_store(1_000_000), *f).with_run(run),
                format!("r{i}.gar"),
            );
        }
        h
    }

    #[test]
    fn stable_history_verdict_is_ok() {
        let h = history(&[1.0, 1.001, 0.999, 1.0005, 0.9995, 1.0]);
        let (report, analyzed) = analyze(&h, &Tolerance::default());
        assert_eq!(report.verdict, Status::Ok);
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(analyzed.len(), 1);
        assert!(report.metrics[0].first_offending_run.is_none());
    }

    #[test]
    fn shifted_history_names_the_offending_run() {
        let h = history(&[1.0, 1.001, 0.999, 1.0005, 1.05, 1.051, 1.049, 1.0505]);
        let (report, _) = analyze(&h, &Tolerance::default());
        assert_eq!(report.verdict, Status::Regressed);
        let m = &report.metrics[0];
        assert_eq!(m.status, Status::Regressed);
        assert_eq!(m.first_offending_run.as_deref(), Some("r4"));
        assert!((m.effect - 0.05).abs() < 0.01);
        assert!((m.baseline_mean_us - 1_000_000.0).abs() < 2_000.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let h = history(&[1.0, 1.001, 0.999, 1.0005]);
        let (report, _) = analyze(&h, &Tolerance::default());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RegressReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        for key in [
            "schema_version",
            "verdict",
            "metrics",
            "runs",
            "skipped_runs",
            "first_offending_run",
            "p_value",
        ] {
            assert!(json.contains(key), "regress.json must carry `{key}`");
        }
    }

    #[test]
    fn skipped_runs_flow_into_the_report() {
        let dir = std::env::temp_dir().join(format!("granula-report-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, f) in [1.0, 1.001, 0.999, 1.0005, 1.0, 0.9995].iter().enumerate() {
            let run = RunMeta::new(format!("r{i}"), 1_000 + i as u64, "");
            scaled_store(&base_store(1_000_000), *f)
                .with_run(run)
                .save(dir.join(format!("r{i}.gar")))
                .unwrap();
        }
        std::fs::write(dir.join("crashed.gar"), b"GRNA torn to bits").unwrap();
        let h = History::load_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let (report, _) = analyze(&h, &Tolerance::default());
        assert_eq!(report.verdict, Status::Ok, "6 good runs still analyze");
        assert_eq!(report.skipped_runs.len(), 1);
        assert_eq!(report.skipped_runs[0].source, "crashed.gar");
        let text = render_text(&report);
        assert!(text.contains("WARNING: skipped unreadable run crashed.gar"));
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("crashed.gar"));
    }

    #[test]
    fn too_few_surviving_runs_degrade_to_insufficient() {
        let dir = std::env::temp_dir().join(format!("granula-report-few-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Two good runs (below Tolerance::default().min_runs), two corrupt.
        for i in 0..2 {
            let run = RunMeta::new(format!("r{i}"), 1_000 + i as u64, "");
            base_store(1_000_000)
                .with_run(run)
                .save(dir.join(format!("r{i}.gar")))
                .unwrap();
        }
        std::fs::write(dir.join("bad1.gar"), b"zzzz").unwrap();
        std::fs::write(dir.join("bad2.gar"), b"").unwrap();
        let h = History::load_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let (report, _) = analyze(&h, &Tolerance::default());
        assert_eq!(report.verdict, Status::Insufficient);
        assert_eq!(report.skipped_runs.len(), 2);
    }

    #[test]
    fn text_rendering_mentions_status_and_verdict() {
        let h = history(&[1.0, 1.001, 0.999, 1.0005, 1.05, 1.051, 1.049, 1.05]);
        let (report, _) = analyze(&h, &Tolerance::default());
        let text = render_text(&report);
        assert!(text.contains("verdict: regressed"));
        assert!(text.contains("since r4"));
        assert!(text.contains("g makespan"));
    }

    /// A job whose root lasts `total` µs, with a `load` µs LoadGraph.
    fn job(job_id: &str, total: i64, load: i64) -> JobArchive {
        let mut t = OperationTree::new();
        let root = t
            .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
            .unwrap();
        let l = t
            .add_child(root, Actor::new("Job", "0"), Mission::new("LoadGraph", "0"))
            .unwrap();
        for (id, end) in [(root, total), (l, load)] {
            t.set_info(id, Info::raw(names::START_TIME, InfoValue::Int(0)))
                .unwrap();
            t.set_info(id, Info::raw(names::END_TIME, InfoValue::Int(end)))
                .unwrap();
        }
        JobArchive::new(
            JobMeta {
                job_id: job_id.into(),
                platform: "Giraph".into(),
                ..JobMeta::default()
            },
            t,
        )
    }

    /// Pairwise check of `candidate` against `baseline` under a ±10% band.
    fn pairwise(candidate: JobArchive) -> RegressReport {
        let tol = Tolerance {
            rel: 0.10,
            min_runs: 2,
            ..Tolerance::default()
        };
        let h = History::pair(job("base", 100_000, 40_000), candidate);
        analyze(&h, &tol).0
    }

    fn effect_of(report: &RegressReport, metric: &str) -> (Status, f64) {
        let m = report.metrics.iter().find(|m| m.metric == metric).unwrap();
        (m.status, m.effect)
    }

    #[test]
    fn pairwise_within_band_passes() {
        let report = pairwise(job("cand", 105_000, 41_000));
        assert_eq!(report.verdict, Status::Ok, "{report:?}");
        assert_eq!(report.metrics.len(), 2, "makespan + phase/LoadGraph");
    }

    #[test]
    fn pairwise_slowdown_beyond_band_regresses() {
        let report = pairwise(job("cand", 130_000, 80_000));
        assert_eq!(report.verdict, Status::Regressed);
        let (status, effect) = effect_of(&report, "phase/LoadGraph");
        assert_eq!(status, Status::Regressed);
        assert!((effect - 1.0).abs() < 1e-9, "+100%: {effect}");
        let (status, effect) = effect_of(&report, MAKESPAN);
        assert_eq!(status, Status::Regressed);
        assert!((effect - 0.3).abs() < 1e-9, "+30%: {effect}");
        for m in &report.metrics {
            assert_eq!(m.first_offending_run.as_deref(), Some("current"));
        }
    }

    #[test]
    fn pairwise_improvement_is_reported_separately() {
        let report = pairwise(job("cand", 80_000, 20_000));
        assert_eq!(report.verdict, Status::Improved);
        assert_eq!(report.with_status(Status::Regressed).count(), 0);
        let (status, effect) = effect_of(&report, "phase/LoadGraph");
        assert_eq!(status, Status::Improved);
        assert!((effect + 0.5).abs() < 1e-9, "-50%: {effect}");
    }

    #[test]
    fn unmatched_workload_has_nothing_to_compare() {
        // Without `History::pair` filing the candidate under the
        // baseline's job id, no series spans both runs.
        let mut h = History::new();
        for (archive, source) in [
            (job("base", 100_000, 40_000), "base.gar"),
            (job("other", 500_000, 400_000), "other.gar"),
        ] {
            let mut store = ArchiveStore::new();
            store.add(archive).unwrap();
            h.push_latest(store, source);
        }
        let tol = Tolerance {
            rel: 0.10,
            min_runs: 2,
            ..Tolerance::default()
        };
        let (report, _) = analyze(&h, &tol);
        assert_eq!(report.verdict, Status::Insufficient);
        assert!(report.metrics.iter().all(|m| m.n_baseline <= 1));
    }

    #[test]
    fn pairwise_band_is_strict_at_exactly_rel() {
        // +10% on every metric under a 10% band: not a regression.
        let report = pairwise(job("cand", 110_000, 44_000));
        assert_eq!(report.verdict, Status::Ok, "{report:?}");
        let (_, effect) = effect_of(&report, MAKESPAN);
        assert_eq!(effect, 0.10);
    }

    #[test]
    fn empty_history_is_insufficient() {
        let h = History::new();
        let (report, _) = analyze(&h, &Tolerance::default());
        assert_eq!(report.verdict, Status::Insufficient);
        assert!(report.metrics.is_empty());
    }
}
