//! # granula-regress
//!
//! The continuous performance-regression service (paper §6, future
//! work): archives are collected per run into `.gar` stores, ordered
//! into a history by their embedded [`RunMeta`](granula_archive::RunMeta)
//! headers, and interrogated as *time series* — per-job makespan and
//! per-choke-point phase costs — rather than as isolated snapshots.
//!
//! The test layer replaces hand-locked golden values with statistics:
//! a metric regresses only when a level shift is both statistically
//! significant (Welch's t-test over sliding windows, [`stats`]) *and*
//! larger than a relative tolerance band ([`detect::Tolerance`]).
//! Deterministic-simulation jitter below the band never flags, which the
//! proptest suite (`tests/detector_prop.rs`) locks in across a thousand
//! generated histories.
//!
//! The pipeline:
//!
//! 1. [`history::History::load_dir`] ingests a directory of `.gar`
//!    stores, sorted by run header;
//! 2. [`history::History::series`] extracts metric series: the makespan
//!    and the summed duration of each phase kind;
//! 3. [`detect::detect`] runs the changepoint scan per series;
//! 4. [`report::analyze`] assembles the machine-readable
//!    [`report::RegressReport`] (`regress.json`) consumed by CI, plus
//!    per-series detail for the trend charts in `granula-viz`.
//!
//! ```
//! use granula_regress::{analyze, History, Status, Tolerance};
//!
//! let history = History::new(); // normally History::load_dir(...)
//! let (report, _) = analyze(&history, &Tolerance::default());
//! assert_eq!(report.verdict, Status::Insufficient); // no runs yet
//! ```

pub mod detect;
pub mod history;
pub mod report;
pub mod stats;
pub mod synth;

pub use detect::{detect, Detection, Status, Tolerance};
pub use history::{History, MetricSeries, RunEntry, SkippedRun, MAKESPAN, PHASE_KINDS};
pub use report::{
    analyze, render_text, AnalyzedSeries, MetricReport, RegressReport, RunInfo, SCHEMA_VERSION,
};
pub use stats::{
    changepoint_scan, mean, mean_std, prediction_t_test, sample_mean_var, t_sf_two_sided,
    welch_t_test, ChangePoint, TTest,
};
pub use synth::{scale_timings, scaled_store};
