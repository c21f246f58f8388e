//! Experiment drivers: run a platform job through the full Granula pipeline.
//!
//! These are the entry points the figure-regeneration binaries and examples
//! use: pick a platform, a graph, and a job config; get back the archive,
//! the environment log, the domain breakdown, and all feedback.

use gpsim_cluster::{FaultPlan, SimError};
use gpsim_graph::Graph;
use gpsim_platforms::{
    GiraphPlatform, GrapePlatform, GraphMatPlatform, GraphXPlatform, JobConfig, PlatformRun,
    PowerGraphPlatform,
};
use granula_archive::JobMeta;

use crate::calibration;
use crate::metrics::DomainBreakdown;
use crate::models;
use crate::process::{EvaluationProcess, EvaluationReport};

/// The platforms under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The Giraph-like Pregel platform.
    Giraph,
    /// The PowerGraph-like GAS platform.
    PowerGraph,
    /// The GraphMat-like SpMV platform (Table 1 extension).
    GraphMat,
    /// The GRAPE-like subgraph-centric platform (choke-point matrix
    /// extension).
    Grape,
    /// The GraphX/Spark-like dataflow platform (choke-point matrix
    /// extension).
    GraphX,
}

impl Platform {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Giraph => "Giraph",
            Platform::PowerGraph => "PowerGraph",
            Platform::GraphMat => "GraphMat",
            Platform::Grape => "Grape",
            Platform::GraphX => "GraphX",
        }
    }

    /// The platform's full performance model.
    pub fn model(self) -> granula_model::PerformanceModel {
        match self {
            Platform::Giraph => models::giraph_model(),
            Platform::PowerGraph => models::powergraph_model(),
            Platform::GraphMat => models::graphmat_model(),
            Platform::Grape => models::grape_model(),
            Platform::GraphX => models::graphx_model(),
        }
    }

    /// The platform's calibrated BFS-on-dg1000 job configuration.
    pub fn dg1000_job(self) -> JobConfig {
        match self {
            Platform::Giraph => calibration::giraph_dg1000_job(),
            Platform::PowerGraph => calibration::powergraph_dg1000_job(),
            Platform::GraphMat => calibration::graphmat_dg1000_job(),
            Platform::Grape => calibration::grape_dg1000_job(),
            Platform::GraphX => calibration::graphx_dg1000_job(),
        }
    }

    /// The platform's model extended with checkpoint/recovery operation
    /// types — required when evaluating a run under fault injection, or the
    /// model-driven event filter drops the recovery events. `None` for
    /// [`Platform::GraphMat`], whose fault behavior is not modeled.
    pub fn fault_model(self) -> Option<granula_model::PerformanceModel> {
        match self {
            Platform::Giraph => Some(models::giraph_fault_model()),
            Platform::PowerGraph => Some(models::powergraph_fault_model()),
            Platform::GraphMat => None,
            Platform::Grape => Some(models::grape_fault_model()),
            Platform::GraphX => Some(models::graphx_fault_model()),
        }
    }
}

/// Why a fault-injected experiment could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The simulator rejected the run or could not finish it.
    Sim(SimError),
    /// A non-empty fault plan was given for a platform whose fault behavior
    /// is not modeled ([`Platform::fault_model`] is `None`).
    FaultsNotModeled {
        /// The platform.
        platform: Platform,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Sim(e) => e.fmt(f),
            ExperimentError::FaultsNotModeled { platform } => {
                write!(f, "fault injection is not modeled for {}", platform.name())
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::FaultsNotModeled { .. } => None,
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// Everything one experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The Granula evaluation output (archive + feedback).
    pub report: EvaluationReport,
    /// The raw platform run (events, samples, algorithm output).
    pub run: PlatformRun,
    /// Domain-level breakdown (Figure 5 row).
    pub breakdown: DomainBreakdown,
}

/// Runs one job on one platform and evaluates it with the platform's full
/// model, on the default DAS5-like cluster.
pub fn run_experiment(
    platform: Platform,
    graph: &Graph,
    cfg: &JobConfig,
) -> Result<ExperimentResult, SimError> {
    run_experiment_on(
        platform,
        graph,
        cfg,
        &gpsim_cluster::ClusterSpec::das5(cfg.nodes),
    )
}

/// Like [`run_experiment`], on an explicit (possibly heterogeneous)
/// cluster — e.g. one with a straggler node.
pub fn run_experiment_on(
    platform: Platform,
    graph: &Graph,
    cfg: &JobConfig,
    cluster: &gpsim_cluster::ClusterSpec,
) -> Result<ExperimentResult, SimError> {
    let process = {
        let _span = granula_trace::span!("modeling", "build_model {}", platform.name());
        EvaluationProcess::new(platform.model())
    };
    let run = {
        let _span = granula_trace::span!(
            "monitoring",
            "platform_run {} ({})",
            cfg.job_id,
            platform.name()
        );
        match platform {
            Platform::Giraph => GiraphPlatform::default().run_on(graph, cfg, cluster)?,
            Platform::PowerGraph => PowerGraphPlatform::default().run_on(graph, cfg, cluster)?,
            Platform::GraphMat => GraphMatPlatform::default().run_on(graph, cfg, cluster)?,
            Platform::Grape => GrapePlatform::default().run_on(graph, cfg, cluster)?,
            Platform::GraphX => GraphXPlatform::default().run_on(graph, cfg, cluster)?,
        }
    };
    let meta = JobMeta {
        job_id: cfg.job_id.clone(),
        platform: platform.name().into(),
        algorithm: cfg.algorithm.name().into(),
        dataset: cfg.dataset.clone(),
        nodes: cfg.nodes as u32,
        model: String::new(),
    };
    let report = process.evaluate(&run, meta);
    let breakdown = DomainBreakdown::from_archive(&report.archive)
        .expect("archive of a simulated run always has a runtime");
    Ok(ExperimentResult {
        report,
        run,
        breakdown,
    })
}

/// Like [`run_experiment`], under an injected fault plan on the default
/// DAS5-like cluster.
///
/// `giraph_checkpoint_interval` enables Giraph's checkpointing (every K
/// supersteps) so recovery can replay from the last checkpoint instead of
/// superstep zero; it is ignored by other platforms. When the plan contains
/// crashes or checkpointing is on, the run is evaluated against
/// [`Platform::fault_model`] so the recovery operations survive the
/// model-driven event filter.
///
/// A non-empty plan for [`Platform::GraphMat`], whose fault behavior is not
/// modeled, is [`ExperimentError::FaultsNotModeled`].
pub fn run_experiment_with_faults(
    platform: Platform,
    graph: &Graph,
    cfg: &JobConfig,
    plan: &FaultPlan,
    giraph_checkpoint_interval: Option<u32>,
) -> Result<ExperimentResult, ExperimentError> {
    let process = {
        let _span = granula_trace::span!("modeling", "build_model {}", platform.name());
        let faulted = !plan.crashes.is_empty()
            || (platform == Platform::Giraph && giraph_checkpoint_interval.is_some());
        let model = if faulted {
            platform
                .fault_model()
                .ok_or(ExperimentError::FaultsNotModeled { platform })?
        } else {
            platform.model()
        };
        EvaluationProcess::new(model)
    };
    let run = {
        let _span = granula_trace::span!(
            "monitoring",
            "platform_run {} ({})",
            cfg.job_id,
            platform.name()
        );
        match platform {
            Platform::Giraph => {
                let p = GiraphPlatform {
                    checkpoint_interval: giraph_checkpoint_interval,
                    ..GiraphPlatform::default()
                };
                p.run_with_faults(graph, cfg, plan)?
            }
            Platform::PowerGraph => {
                PowerGraphPlatform::default().run_with_faults(graph, cfg, plan)?
            }
            Platform::GraphMat if !plan.is_empty() => {
                return Err(ExperimentError::FaultsNotModeled { platform })
            }
            Platform::GraphMat => GraphMatPlatform::default().run(graph, cfg)?,
            Platform::Grape => GrapePlatform::default().run_with_faults(graph, cfg, plan)?,
            Platform::GraphX => GraphXPlatform::default().run_with_faults(graph, cfg, plan)?,
        }
    };
    let meta = JobMeta {
        job_id: cfg.job_id.clone(),
        platform: platform.name().into(),
        algorithm: cfg.algorithm.name().into(),
        dataset: cfg.dataset.clone(),
        nodes: cfg.nodes as u32,
        model: String::new(),
    };
    let report = process.evaluate(&run, meta);
    let breakdown = DomainBreakdown::from_archive(&report.archive)
        .expect("archive of a simulated run always has a runtime");
    Ok(ExperimentResult {
        report,
        run,
        breakdown,
    })
}

/// Default worker count for [`par_map`]: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deterministic parallel map: applies `f` to every item on up to
/// `threads` scoped worker threads and returns the results **in input
/// order**.
///
/// Work is claimed through an atomic cursor, so the assignment of items to
/// threads varies between runs — but each result depends only on its item,
/// and results are placed by index, so the output is bit-identical to the
/// sequential `items.iter().map(f)` regardless of thread count. Built on
/// [`std::thread::scope`]; no external dependencies.
///
/// # Panics
/// Propagates a panic from `f` after all workers have stopped.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in chunks.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Runs a batch of `(platform, config)` experiments on `graph` in
/// parallel ([`par_map`] over [`default_threads`]), preserving input
/// order. Each experiment is independent and internally deterministic, so
/// the batch output matches a sequential run bit-for-bit.
pub fn run_experiments(
    jobs: &[(Platform, JobConfig)],
    graph: &Graph,
) -> Vec<Result<ExperimentResult, SimError>> {
    par_map(jobs, default_threads(), |(platform, cfg)| {
        run_experiment(*platform, graph, cfg)
    })
}

/// The paper's dg1000 experiment on the full down-sampled graph
/// (100 k vertices): the configuration behind Figures 5–8. Takes a few
/// seconds of real time per platform.
pub fn dg1000(platform: Platform) -> ExperimentResult {
    let graph = calibration::dg_graph();
    let cfg = platform.dg1000_job();
    run_experiment(platform, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

/// The paper's Giraph dg1000 experiment at **full scale**: the algorithm
/// executes on the real dataset volume (103 M vertices, 927 M edges) with
/// `scale_factor = 1.0` — no down-sampling, no demand scaling. The graph
/// is built out-CSR-only via the streaming generator and BFS runs through
/// the flat frontier engine, so the dominant costs are one generator
/// sweep and one O(n + m) traversal; expect minutes of wall-clock and a
/// ~7 GB high-water mark.
///
/// Only Giraph is supported: PowerGraph's vertex-cut partitioner and the
/// GAS gather phase need the reverse CSR, which the out-only full-scale
/// graph deliberately does not carry.
///
/// # Panics
/// For platforms other than [`Platform::Giraph`].
pub fn dg1000_full() -> ExperimentResult {
    dg1000_full_sized(calibration::DG_FULL_VERTICES)
}

/// [`dg1000_full`] with an adjustable vertex count, for smoke runs that
/// exercise the same streaming-generation + flat-BFS path at a fraction of
/// the wall-clock. Edges keep the Datagen 9:1 ratio and the scale factor
/// is adjusted so the job still emulates the 1.03e9-element dataset; at
/// [`calibration::DG_FULL_VERTICES`] the factor is exactly 1.0.
pub fn dg1000_full_sized(vertices: u32) -> ExperimentResult {
    let _span = granula_trace::span!("experiment", "dg1000_full giraph");
    let graph = {
        let _span = granula_trace::span!("experiment", "dg1000_full.generate");
        gpsim_graph::gen::datagen_like_full(&gpsim_graph::gen::GenConfig {
            vertices,
            edges: vertices as u64 * 9,
            alpha: 2.2,
            seed: calibration::DG_SEED,
        })
    };
    let mut cfg = calibration::giraph_dg1000_job();
    cfg.job_id = "giraph-bfs-dg1000-full".into();
    cfg.scale_factor = 1.03e9 / (vertices as f64 * 10.0);
    run_experiment(Platform::Giraph, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

/// A fast variant of [`dg1000`] on a smaller logical graph with the scale
/// factor adjusted to keep emulating the full dataset. Used by tests.
pub fn dg1000_quick(platform: Platform, vertices: u32) -> ExperimentResult {
    let (graph, scale) = calibration::dg_graph_small(vertices, calibration::DG_SEED);
    let mut cfg = platform.dg1000_job();
    cfg.scale_factor = scale;
    run_experiment(platform, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PAPER;
    use crate::metrics::Phase;

    #[test]
    fn quick_giraph_experiment_has_paper_shape() {
        let r = dg1000_quick(Platform::Giraph, 8_000);
        let b = &r.breakdown;
        // Shape targets (§4.2): every phase substantial; I/O largest.
        let setup = b.fraction(Phase::Setup);
        let io = b.fraction(Phase::InputOutput);
        let proc_ = b.fraction(Phase::Processing);
        assert!(setup > 0.10 && setup < 0.55, "setup {setup}");
        assert!(io > 0.25 && io < 0.60, "io {io}");
        assert!(proc_ > 0.08 && proc_ < 0.50, "proc {proc_}");
        assert!(io > proc_, "I/O should exceed processing: {io} vs {proc_}");
        // Total within 2x of the paper's 81.59 s.
        assert!(
            b.total_s() > PAPER.giraph_total_s / 2.0 && b.total_s() < PAPER.giraph_total_s * 2.0,
            "total {}",
            b.total_s()
        );
    }

    #[test]
    fn quick_powergraph_experiment_is_io_dominated() {
        let r = dg1000_quick(Platform::PowerGraph, 8_000);
        let b = &r.breakdown;
        let io = b.fraction(Phase::InputOutput);
        let proc_ = b.fraction(Phase::Processing);
        assert!(io > 0.85, "io {io}");
        assert!(proc_ < 0.10, "proc {proc_}");
        assert!(
            b.total_s() > PAPER.powergraph_total_s / 2.0
                && b.total_s() < PAPER.powergraph_total_s * 2.0,
            "total {}",
            b.total_s()
        );
    }

    #[test]
    fn powergraph_is_much_slower_than_giraph_end_to_end() {
        // The paper's headline comparison: PowerGraph processes faster but
        // its sequential loader makes the end-to-end job ~5x slower.
        let g = dg1000_quick(Platform::Giraph, 5_000);
        let p = dg1000_quick(Platform::PowerGraph, 5_000);
        assert!(
            p.breakdown.total_us > 3 * g.breakdown.total_us,
            "PowerGraph {}s vs Giraph {}s",
            p.breakdown.total_s(),
            g.breakdown.total_s()
        );
        assert!(
            p.breakdown.processing_us < g.breakdown.processing_us,
            "PowerGraph processing should be faster"
        );
    }

    #[test]
    fn fault_experiment_surfaces_recovery_overhead() {
        use crate::analysis::{find_choke_points, ChokePointConfig, ChokePointKind};
        use gpsim_cluster::NodeId;

        let (graph, scale) = crate::calibration::dg_graph_small(4_000, crate::calibration::DG_SEED);
        for platform in [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::Grape,
            Platform::GraphX,
        ] {
            let mut cfg = match platform {
                Platform::Giraph => crate::calibration::giraph_dg1000_job(),
                Platform::Grape => crate::calibration::grape_dg1000_job(),
                Platform::GraphX => crate::calibration::graphx_dg1000_job(),
                _ => crate::calibration::powergraph_dg1000_job(),
            };
            cfg.scale_factor = scale;
            let healthy = run_experiment(platform, &graph, &cfg).unwrap();
            let plan = FaultPlan::new().crash(NodeId(2), healthy.run.makespan_us as f64 * 0.4);
            let interval = (platform == Platform::Giraph).then_some(2);
            let faulty =
                run_experiment_with_faults(platform, &graph, &cfg, &plan, interval).unwrap();
            assert!(
                faulty.run.makespan_us > healthy.run.makespan_us,
                "{}: recovery must cost time",
                platform.name()
            );
            assert!(
                faulty.report.assembly_warnings.is_empty(),
                "{}: {:?}",
                platform.name(),
                &faulty.report.assembly_warnings[..3.min(faulty.report.assembly_warnings.len())]
            );
            let cps = find_choke_points(&faulty.report.archive, &ChokePointConfig::default());
            let rec = cps
                .iter()
                .find_map(|c| match &c.kind {
                    ChokePointKind::RecoveryOverhead { worker, wasted_us } => {
                        Some((worker.clone(), *wasted_us))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{}: no RecoveryOverhead in {cps:?}", platform.name()));
            assert_eq!(rec.0, "node302", "{}", platform.name());
            assert!(rec.1 > 0, "{}", platform.name());
        }
    }

    #[test]
    fn graphmat_fault_plan_is_a_typed_error() {
        use gpsim_cluster::{DegradedChannel, NodeId};

        let (graph, scale) = crate::calibration::dg_graph_small(2_000, crate::calibration::DG_SEED);
        let mut cfg = Platform::GraphMat.dg1000_job();
        cfg.scale_factor = scale;
        let crash = FaultPlan::new().crash(NodeId(2), 1e6);
        let slow = FaultPlan::new().slow(NodeId(1), DegradedChannel::Disk, 0.0, 1e6, 0.5);
        for plan in [crash, slow] {
            let err = run_experiment_with_faults(Platform::GraphMat, &graph, &cfg, &plan, None)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(
                err,
                ExperimentError::FaultsNotModeled {
                    platform: Platform::GraphMat
                }
            );
            assert_eq!(
                err.to_string(),
                "fault injection is not modeled for GraphMat"
            );
        }
        // Without a plan GraphMat runs as usual.
        run_experiment_with_faults(Platform::GraphMat, &graph, &cfg, &FaultPlan::new(), None)
            .unwrap();
    }

    #[test]
    fn empty_fault_plan_matches_plain_experiment() {
        let (graph, scale) = crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED);
        let mut cfg = crate::calibration::giraph_dg1000_job();
        cfg.scale_factor = scale;
        let plain = run_experiment(Platform::Giraph, &graph, &cfg).unwrap();
        let faulted =
            run_experiment_with_faults(Platform::Giraph, &graph, &cfg, &FaultPlan::new(), None)
                .unwrap();
        assert_eq!(plain.run.makespan_us, faulted.run.makespan_us);
        assert_eq!(plain.run.events, faulted.run.events);
        assert_eq!(plain.breakdown, faulted.breakdown);
    }

    #[test]
    fn par_map_preserves_order_and_determinism() {
        let items: Vec<u64> = (0..37).collect();
        let f = |x: &u64| x * x + 1;
        let seq: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, f), seq, "threads={threads}");
        }
        assert!(par_map(&[] as &[u64], 4, f).is_empty());
    }

    #[test]
    fn parallel_experiments_match_sequential_bitwise() {
        let graph = crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED).0;
        let jobs: Vec<(Platform, gpsim_platforms::JobConfig)> = [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::GraphMat,
            Platform::Grape,
            Platform::GraphX,
        ]
        .into_iter()
        .map(|p| {
            let mut cfg = p.dg1000_job();
            cfg.scale_factor =
                crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED).1;
            (p, cfg)
        })
        .collect();
        let parallel = run_experiments(&jobs, &graph);
        let sequential: Vec<_> = jobs
            .iter()
            .map(|(p, cfg)| run_experiment(*p, &graph, cfg))
            .collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.breakdown.total_us, s.breakdown.total_us);
            assert_eq!(p.run.makespan_us, s.run.makespan_us);
            assert_eq!(p.run.events.len(), s.run.events.len());
        }
    }

    #[test]
    fn experiments_validate_cleanly() {
        for platform in [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::GraphMat,
            Platform::Grape,
            Platform::GraphX,
        ] {
            let r = dg1000_quick(platform, 4_000);
            assert!(
                r.report.validation.is_clean(),
                "{}: {:?}",
                platform.name(),
                &r.report.validation.issues[..3.min(r.report.validation.issues.len())]
            );
            assert!(r.report.assembly_warnings.is_empty());
        }
    }

    /// The hand-written models and the drivers describe one operation
    /// tree: every op a healthy run emits is a type of
    /// [`Platform::model`] with the same parent kinds and every type of the
    /// model is emitted; every op a crash run emits is a type of
    /// [`Platform::fault_model`] with the same parent kinds (containment
    /// only: an early crash, say, skips GRAPE's `PEval`).
    #[test]
    fn models_agree_with_the_ops_drivers_emit() {
        use gpsim_cluster::NodeId;
        use granula_model::{OperationTypeId, PerformanceModel};
        use granula_monitor::EventPayload;
        use std::collections::BTreeSet;

        type Edge = (OperationTypeId, Option<OperationTypeId>);
        let kinds = |a: &granula_model::Actor, m: &granula_model::Mission| {
            OperationTypeId::new(&a.kind, &m.kind)
        };
        let emitted = |run: &PlatformRun| -> BTreeSet<Edge> {
            run.events
                .iter()
                .filter_map(|e| match &e.payload {
                    EventPayload::OpStart {
                        actor,
                        mission,
                        parent,
                    } => Some((
                        kinds(actor, mission),
                        parent.as_ref().map(|(a, m)| kinds(a, m)),
                    )),
                    _ => None,
                })
                .collect()
        };
        let declared = |model: &PerformanceModel| -> BTreeSet<Edge> {
            model
                .types
                .iter()
                .map(|t| (t.id.clone(), t.parent.clone()))
                .collect()
        };
        let (graph, scale) = crate::calibration::dg_graph_small(2_000, crate::calibration::DG_SEED);
        for platform in [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::GraphMat,
            Platform::Grape,
            Platform::GraphX,
        ] {
            let mut cfg = platform.dg1000_job();
            cfg.scale_factor = scale;
            let healthy = run_experiment(platform, &graph, &cfg).unwrap().run;
            assert_eq!(
                emitted(&healthy),
                declared(&platform.model()),
                "{}",
                platform.name()
            );
            let Some(fault_model) = platform.fault_model() else {
                continue;
            };
            let plan = FaultPlan::new().crash(NodeId(1), healthy.makespan_us as f64 * 0.4);
            let interval = (platform == Platform::Giraph).then_some(2);
            let crashed = run_experiment_with_faults(platform, &graph, &cfg, &plan, interval)
                .unwrap()
                .run;
            let stray: Vec<Edge> = emitted(&crashed)
                .difference(&declared(&fault_model))
                .cloned()
                .collect();
            assert!(stray.is_empty(), "{}: {stray:?}", platform.name());
        }
    }
}
