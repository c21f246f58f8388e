//! Performance-regression testing with archives (paper §6 future work):
//! archive a known-good configuration as the baseline, then let a
//! misconfigured run fail the check — with the regressing *phases* named.
//! A pairwise check is a two-run history: the baseline as its only run,
//! the candidate as the run under test, judged by the tolerance band.
//!
//! ```sh
//! cargo run --release --example regression_testing
//! ```

use granula::calibration;
use granula::experiment::{run_experiment, Platform};
use granula_archive::JobArchive;
use granula_regress::{analyze, History, RegressReport, Status, Tolerance};

/// Checks `candidate` against `baseline`, tolerating 10 % noise.
fn check(baseline: &JobArchive, candidate: JobArchive) -> RegressReport {
    let tol = Tolerance {
        rel: 0.10,
        min_runs: 2,
        ..Tolerance::default()
    };
    analyze(&History::pair(baseline.clone(), candidate), &tol).0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (graph, scale) = calibration::dg_graph_small(8_000, calibration::DG_SEED);

    // Baseline: the calibrated configuration.
    let mut base_cfg = calibration::giraph_dg1000_job();
    base_cfg.scale_factor = scale;
    println!("running baseline ...");
    let baseline = run_experiment(Platform::Giraph, &graph, &base_cfg)?;
    println!(
        "baseline total: {:.2}s (archived as the reference)",
        baseline.breakdown.total_s()
    );

    let baseline_archive = baseline.report.archive;

    // Candidate 1: identical configuration — must pass.
    println!("\nrunning candidate 1 (unchanged config) ...");
    let cand1 = run_experiment(Platform::Giraph, &graph, &base_cfg)?;
    let report = check(&baseline_archive, cand1.report.archive);
    println!(
        "candidate 1 passed: {}",
        report.verdict != Status::Regressed
    );

    // Candidate 2: a misconfiguration — the operator halves the compute
    // threads per worker (a classic Giraph tuning mistake).
    println!("\nrunning candidate 2 (worker threads 24 -> 6) ...");
    let mut bad_cfg = base_cfg.clone();
    bad_cfg.costs.worker_threads = 6;
    let cand2 = run_experiment(Platform::Giraph, &graph, &bad_cfg)?;
    let report = check(&baseline_archive, cand2.report.archive.clone());
    println!(
        "candidate 2 passed: {}",
        report.verdict != Status::Regressed
    );
    for m in report.with_status(Status::Regressed) {
        println!(
            "  regression in {:<20} {:>8.2}s -> {:>8.2}s  ({:+.1}%)",
            m.metric,
            m.baseline_mean_us / 1e6,
            m.current_us / 1e6,
            100.0 * m.effect
        );
    }
    // Drill down: the operation-level diff behind the failed check.
    println!("\noperation-level diff (largest changes):");
    let rows = granula_viz::diff_archives(
        &baseline_archive,
        &cand2.report.archive,
        500_000, // ignore sub-0.5s noise
    );
    print!("{}", granula_viz::render_diff(&rows, 8));

    println!(
        "\nthe per-phase attribution (loading and the superstep loop regress,\n\
         startup and cleanup do not) is what coarse end-to-end timing could\n\
         never tell you."
    );
    Ok(())
}
