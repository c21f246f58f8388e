//! End-to-end integration: platform simulation → monitoring → archiving →
//! metrics → sharing, across crates.

use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::Algorithm;
use granula::experiment::{dg1000_quick, run_experiment, Platform};
use granula::metrics::{DomainBreakdown, Phase};
use granula_archive::{from_json, to_json, ArchiveStore, Query};
use granula_regress::{analyze, History, Status, Tolerance};

#[test]
fn giraph_pipeline_end_to_end() {
    let result = dg1000_quick(Platform::Giraph, 6_000);
    let archive = &result.report.archive;

    // Clean evaluation.
    assert!(result.report.validation.is_clean());
    assert!(result.report.assembly_warnings.is_empty());

    // The archive answers the paper's questions.
    let b = &result.breakdown;
    assert!(b.total_us > 0);
    assert!(b.unattributed_us().abs() < b.total_us as i64 / 10);

    // Path query across the hierarchy.
    let q = Query::parse("GiraphJob/ProcessGraph/Superstep/LocalSuperstep@Worker-0/Compute")
        .expect("valid query");
    let computes = q.select(&archive.tree);
    assert_eq!(computes.len() as u32, result.run.iterations);

    // Sharing: JSON roundtrip preserves the archive bit-for-bit.
    let json = to_json(archive).expect("serializable");
    let back = from_json(&json).expect("deserializable");
    assert_eq!(&back, archive);
}

#[test]
fn powergraph_pipeline_end_to_end() {
    let result = dg1000_quick(Platform::PowerGraph, 6_000);
    assert!(result.report.validation.is_clean());
    let archive = &result.report.archive;

    // GAS minor-steps archived under iterations.
    let q = Query::parse("PowerGraphJob/ProcessGraph/Iteration/Gather@Machine-0").unwrap();
    assert_eq!(q.select(&archive.tree).len() as u32, result.run.iterations);

    // The sequential loader is archived as one machine-0 operation.
    let seq = Query::parse("SequentialLoad")
        .unwrap()
        .find_all(&archive.tree);
    assert_eq!(seq.len(), 1);
    let op = archive.tree.op(seq[0]);
    assert_eq!(op.actor.to_string(), "Machine-0");
    assert!(
        op.info_f64("LoadThroughput").is_some(),
        "derived throughput present"
    );
}

#[test]
fn cross_platform_store_reproduces_paper_conclusions() {
    let mut store = ArchiveStore::new();
    let g = dg1000_quick(Platform::Giraph, 6_000);
    let p = dg1000_quick(Platform::PowerGraph, 6_000);
    store.add(g.report.archive.clone()).unwrap();
    store.add(p.report.archive.clone()).unwrap();

    // PowerGraph's processing is faster in absolute terms...
    let rows = store.compare("ProcessGraph");
    let by = |name: &str| {
        rows.iter()
            .find(|r| r.platform == name)
            .expect("row present")
    };
    assert!(by("PowerGraph").mission_us < by("Giraph").mission_us);
    // ...but its I/O dominates and the total is much slower.
    let load = store.compare("LoadGraph");
    assert!(
        by("Giraph").total_us * 3
            < load
                .iter()
                .find(|r| r.platform == "PowerGraph")
                .unwrap()
                .total_us
    );
}

#[test]
fn breakdown_fractions_are_consistent() {
    for platform in [Platform::Giraph, Platform::PowerGraph] {
        let result = dg1000_quick(platform, 4_000);
        let b = &result.breakdown;
        let sum = b.fraction(Phase::Setup)
            + b.fraction(Phase::InputOutput)
            + b.fraction(Phase::Processing);
        assert!(sum > 0.85 && sum <= 1.01, "{}: {sum}", platform.name());
    }
}

#[test]
fn regression_suite_detects_injected_slowdown_end_to_end() {
    let (graph, scale) = granula::calibration::dg_graph_small(4_000, 9);
    let mut cfg = granula::calibration::giraph_dg1000_job();
    cfg.scale_factor = scale;
    let baseline = run_experiment(Platform::Giraph, &graph, &cfg).unwrap();
    let tol = Tolerance {
        rel: 0.10,
        min_runs: 2,
        ..Tolerance::default()
    };
    let check = |candidate: granula_archive::JobArchive| {
        let history = History::pair(baseline.report.archive.clone(), candidate);
        analyze(&history, &tol).0
    };

    // Unchanged config: deterministic simulation -> identical archive.
    let same = run_experiment(Platform::Giraph, &graph, &cfg).unwrap();
    assert_eq!(check(same.report.archive).verdict, Status::Ok);

    // Injected slowdown: halve the worker threads.
    let mut bad = cfg.clone();
    bad.costs.worker_threads /= 4;
    let worse = run_experiment(Platform::Giraph, &graph, &bad).unwrap();
    let report = check(worse.report.archive);
    assert_eq!(report.verdict, Status::Regressed);
    assert!(report
        .with_status(Status::Regressed)
        .any(|m| m.metric == "makespan"));
}

/// The headline numbers of the paper's §4.2 comparison at full dg1000
/// scale: Giraph finishes BFS in ~81.9 s, PowerGraph in ~398.7 s.
///
/// These used to be hand-locked to the microsecond; they are now gated
/// by the statistical trend check of `granula-regress` against the
/// committed fixture history (`tests/fixtures/history/`), plus a coarse
/// absolute anchor to the paper's own measurements. A calibration or
/// scheduler change that moves the makespan beyond the ±2% band fails
/// here with the offending run named; regenerate the fixtures
/// (`UPDATE_GOLDEN=1 cargo test --test regress_history`) to accept it
/// deliberately (and update the EXPERIMENTS.md narrative).
#[test]
fn headline_makespans_stay_inside_the_trend_band() {
    let giraph = granula::experiment::dg1000(Platform::Giraph);
    let powergraph = granula::experiment::dg1000(Platform::PowerGraph);

    // Coarse absolute anchor to the paper (§4.2): ±5% of 81.59 s and
    // 400.38 s keeps the simulation tethered to the source even if the
    // fixture history were regenerated from a drifted build.
    let g_us = giraph.run.makespan_us as f64;
    let p_us = powergraph.run.makespan_us as f64;
    assert!(
        (g_us / 81.59e6 - 1.0).abs() < 0.05,
        "Giraph makespan {g_us} µs strays from the paper's 81.59 s"
    );
    assert!(
        (p_us / 400.38e6 - 1.0).abs() < 0.05,
        "PowerGraph makespan {p_us} µs strays from the paper's 400.38 s"
    );

    // Statistical gate: the fresh run joins the fixture history as the
    // run under test; every metric must stay inside the tolerance band.
    let mut store = ArchiveStore::new();
    store.add(giraph.report.archive.clone()).unwrap();
    store.add(powergraph.report.archive.clone()).unwrap();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/history");
    let mut history = History::load_dir(&fixtures).expect("committed fixture history");
    assert!(history.len() >= 5, "fixture corpus holds at least 5 runs");
    history.push_latest(store, "current");
    let (report, _) = analyze(&history, &Tolerance::default());
    for m in &report.metrics {
        assert_eq!(
            m.status,
            Status::Ok,
            "{} {} drifted: effect {:+.2}% since {:?} (p={:.2e})",
            m.job_id,
            m.metric,
            m.effect * 100.0,
            m.first_offending_run,
            m.p_value
        );
    }
    assert_eq!(report.verdict, Status::Ok);
    // The archived root spans the whole run; its runtime is the makespan.
    for result in [&giraph, &powergraph] {
        assert_eq!(
            result.report.archive.total_runtime_us(),
            Some(result.run.makespan_us),
            "{} archive runtime",
            result.report.archive.meta.platform
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = dg1000_quick(Platform::Giraph, 4_000);
    let b = dg1000_quick(Platform::Giraph, 4_000);
    assert_eq!(a.report.archive, b.report.archive);
    assert_eq!(a.run.makespan_us, b.run.makespan_us);
}

#[test]
fn all_algorithms_validate_on_both_platforms() {
    let graph = datagen_like(&GenConfig::datagen(1_500, 33));
    let algorithms = [
        Algorithm::Bfs { source: 2 },
        Algorithm::PageRank { iterations: 4 },
        Algorithm::Wcc,
        Algorithm::Cdlp { iterations: 3 },
        Algorithm::Sssp { source: 2 },
    ];
    for platform in [
        Platform::Giraph,
        Platform::PowerGraph,
        Platform::GraphMat,
        Platform::Grape,
        Platform::GraphX,
    ] {
        for algorithm in algorithms {
            let mut cfg = platform.dg1000_job();
            cfg.algorithm = algorithm;
            cfg.scale_factor = 1.0;
            cfg.nodes = 4;
            let result = run_experiment(platform, &graph, &cfg).expect("runs");
            let reference = gpsim_platforms::common::reference_output(&graph, algorithm);
            assert!(
                result.run.output.matches(&reference),
                "{} {} output mismatch",
                platform.name(),
                algorithm.name()
            );
            // Metrics derivable for every workload.
            assert!(DomainBreakdown::from_archive(&result.report.archive).is_some());
        }
    }
}
