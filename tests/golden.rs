//! Golden-file snapshot tests: the textual figure renders are compared
//! byte-for-byte against checked-in fixtures under `tests/golden/`.
//!
//! The whole pipeline is deterministic — same seed, same scheduler, same
//! renders — so any byte of drift in these snapshots is a behavior change
//! that must be reviewed, not noise. CI runs this suite twice
//! back-to-back to prove the renders are bit-deterministic run-over-run.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden
//! ```
//!
//! then review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use granula::experiment::{dg1000_quick, Platform};
use granula_monitor::ResourceKind;
use granula_viz::{BreakdownChart, BreakdownRow, GanttChart, TimelineChart};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the fixture `name`, or rewrites the fixture
/// when `UPDATE_GOLDEN=1`. On mismatch the panic message carries a
/// line-level diff so the drift is readable straight from the test log.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        println!("updated golden fixture {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `UPDATE_GOLDEN=1 cargo test \
             --release --test golden` to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut diff = String::new();
    let mut shown = 0;
    let (mut exp_lines, mut act_lines) = (expected.lines(), actual.lines());
    let mut line_no = 0;
    loop {
        let (e, a) = (exp_lines.next(), act_lines.next());
        line_no += 1;
        if e.is_none() && a.is_none() {
            break;
        }
        if e != a {
            let _ = writeln!(diff, "  line {line_no}:");
            let _ = writeln!(diff, "  - {}", e.unwrap_or("<end of fixture>"));
            let _ = writeln!(diff, "  + {}", a.unwrap_or("<end of output>"));
            shown += 1;
            if shown == 10 {
                let _ = writeln!(diff, "  ... (further differences elided)");
                break;
            }
        }
    }
    panic!(
        "golden mismatch for {name} ({} fixture lines vs {} output lines):\n{diff}\
         if the change is intentional: UPDATE_GOLDEN=1 cargo test --release --test golden",
        expected.lines().count(),
        actual.lines().count()
    );
}

/// Figure 5 — domain-level breakdown of both platforms, rendered exactly
/// the way the `fig5` binary does (per-mission segments, width 72).
#[test]
fn golden_fig5_breakdown() {
    let mut chart = BreakdownChart::new();
    for platform in [Platform::Giraph, Platform::PowerGraph] {
        let result = dg1000_quick(platform, 8_000);
        let archive = &result.report.archive;
        let mut row = BreakdownRow::new(platform.name(), result.breakdown.total_us);
        for kind in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            let d = archive.total_duration_of_us(kind);
            if d > 0 {
                row = row.with_segment(kind, d);
            }
        }
        chart.add_row(row);
    }
    check_golden("fig5_breakdown.txt", &chart.render_text(72));
}

/// Figure 6 — cumulative CPU timeline of the Giraph job with phase bands.
#[test]
fn golden_fig6_cpu_timeline() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let archive = &result.report.archive;
    let env = &result.report.env;
    let mut chart = TimelineChart::new(env, ResourceKind::Cpu);
    let root = archive.tree.root().expect("archived job has a root");
    for kind in [
        "Startup",
        "LoadGraph",
        "ProcessGraph",
        "OffloadGraph",
        "Cleanup",
    ] {
        if let Some(id) = archive.tree.child_by_mission(root, kind) {
            let op = archive.tree.op(id);
            if let (Some(s), Some(e)) = (op.start_us(), op.end_us()) {
                chart = chart.with_phase(kind, s, e);
            }
        }
    }
    check_golden("fig6_cpu_timeline.txt", &chart.render_text(96, 14));
}

/// Figure 8 — per-worker Gantt of the Giraph supersteps.
#[test]
fn golden_fig8_gantt() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let gantt = GanttChart::from_archive(
        &result.report.archive,
        &["PreStep", "Compute", "PostStep"],
        "Compute",
    );
    check_golden("fig8_gantt.txt", &gantt.render_text(80));
}

/// Network timeline of the Giraph job — the beyond-the-paper channel the
/// monitoring layer exposes (message bursts during ProcessGraph).
#[test]
fn golden_network_timeline() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let archive = &result.report.archive;
    let env = &result.report.env;
    let root = archive.tree.root().expect("archived job has a root");
    let mut chart = TimelineChart::new(env, ResourceKind::Network);
    for kind in ["LoadGraph", "ProcessGraph"] {
        if let Some(id) = archive.tree.child_by_mission(root, kind) {
            let op = archive.tree.op(id);
            if let (Some(s), Some(e)) = (op.start_us(), op.end_us()) {
                chart = chart.with_phase(kind, s, e);
            }
        }
    }
    check_golden("network_timeline.txt", &chart.render_text(96, 10));
}

/// The choke-point matrix over the two new engines, rendered exactly the
/// way the `choke_matrix` binary does: per cell, total runtime plus the
/// dominant domain phase read back from the archive.
#[test]
fn golden_choke_matrix() {
    use gpsim_platforms::Algorithm;
    use granula::calibration;
    use granula::experiment::run_experiment;
    use granula_viz::{MatrixCell, MatrixChart};

    let (graph, scale) = calibration::dg_graph_small(8_000, calibration::DG_SEED);
    let mut chart = MatrixChart::new(["Grape/hash-ec", "GraphX/hash-ec"], ["BFS", "PageRank"]);
    for (r, platform) in [Platform::Grape, Platform::GraphX].into_iter().enumerate() {
        for (c, algorithm) in [
            Algorithm::Bfs { source: 1 },
            Algorithm::PageRank { iterations: 10 },
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = platform.dg1000_job();
            cfg.algorithm = algorithm;
            cfg.scale_factor = scale;
            let result = run_experiment(platform, &graph, &cfg).expect("matrix cell runs");
            let archive = &result.report.archive;
            let total_us = archive.total_runtime_us().expect("archived job has a span");
            let (bottleneck, dominant_us) = [
                "Startup",
                "LoadGraph",
                "ProcessGraph",
                "OffloadGraph",
                "Cleanup",
            ]
            .iter()
            .map(|k| (*k, archive.total_duration_of_us(k)))
            .max_by_key(|(_, us)| *us)
            .expect("five domain kinds");
            chart.set(
                r,
                c,
                MatrixCell {
                    total_us,
                    bottleneck: bottleneck.into(),
                    bottleneck_frac: dominant_us as f64 / total_us.max(1) as f64,
                },
            );
        }
    }
    check_golden("choke_matrix.txt", &chart.render_text());
}

/// The archive query listing (`granula-cli archive query` output body):
/// path, actor, duration, start time of each superstep hit.
#[test]
fn golden_query_listing() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let tree = &result.report.archive.tree;
    let query = granula_archive::Query::parse("GiraphJob/ProcessGraph/Superstep").unwrap();
    let hits = query.select(tree);
    check_golden(
        "query_supersteps.txt",
        &granula_viz::tree::render_ops(tree, &hits),
    );
}

/// FNV-1a over the `Debug` rendering of every event and environment
/// sample: `{:?}` prints floats in their shortest round-trip form, so any
/// change of a single bit in a timestamp, info or sample changes the digest.
fn run_digest(run: &gpsim_platforms::PlatformRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: String| {
        for b in s.bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &run.events {
        feed(format!("{e:?}"));
    }
    for s in &run.env_samples {
        feed(format!("{s:?}"));
    }
    h
}

/// The raw output of every platform driver, pinned byte for byte: one line
/// per run with its event count, makespan and a digest of its events and
/// environment samples. Covers each platform healthy and, for the four
/// fault-capable platforms, a node-1 crash at 40% of the healthy makespan
/// and a slowdown-only plan (Giraph's crash also with checkpoints every two
/// supersteps).
#[test]
fn golden_platform_event_digests() {
    use gpsim_cluster::{DegradedChannel, FaultPlan, NodeId};
    use gpsim_platforms::{
        GiraphPlatform, GrapePlatform, GraphMatPlatform, GraphXPlatform, PlatformRun,
        PowerGraphPlatform,
    };
    use granula::calibration;

    let (graph, scale) = calibration::dg_graph_small(2_000, calibration::DG_SEED);
    let run = |platform: Platform, plan: &FaultPlan, checkpoint: Option<u32>| -> PlatformRun {
        let mut cfg = platform.dg1000_job();
        cfg.scale_factor = scale;
        match platform {
            Platform::Giraph => GiraphPlatform {
                checkpoint_interval: checkpoint,
                ..GiraphPlatform::default()
            }
            .run_with_faults(&graph, &cfg, plan),
            Platform::PowerGraph => {
                PowerGraphPlatform::default().run_with_faults(&graph, &cfg, plan)
            }
            Platform::GraphMat => GraphMatPlatform::default().run(&graph, &cfg),
            Platform::Grape => GrapePlatform::default().run_with_faults(&graph, &cfg, plan),
            Platform::GraphX => GraphXPlatform::default().run_with_faults(&graph, &cfg, plan),
        }
        .expect("platform run simulates")
    };
    let mut out = String::new();
    let mut line = |platform: Platform, scenario: &str, r: &PlatformRun| {
        let _ = writeln!(
            out,
            "{} {scenario} events={} makespan_us={} digest={:016x}",
            platform.name(),
            r.events.len(),
            r.makespan_us,
            run_digest(r)
        );
    };
    for platform in [
        Platform::Giraph,
        Platform::PowerGraph,
        Platform::GraphMat,
        Platform::Grape,
        Platform::GraphX,
    ] {
        let healthy = run(platform, &FaultPlan::new(), None);
        line(platform, "healthy", &healthy);
        if platform == Platform::GraphMat {
            continue;
        }
        let makespan = healthy.makespan_us as f64;
        let crash = FaultPlan::new().crash(NodeId(1), makespan * 0.4);
        line(platform, "crash", &run(platform, &crash, None));
        if platform == Platform::Giraph {
            line(platform, "crash-ckpt2", &run(platform, &crash, Some(2)));
        }
        let slow = FaultPlan::new().slow(
            NodeId(1),
            DegradedChannel::All,
            makespan * 0.2,
            makespan * 0.6,
            0.5,
        );
        line(platform, "slowdown", &run(platform, &slow, None));
    }
    check_golden("platform_events.txt", &out);
}
