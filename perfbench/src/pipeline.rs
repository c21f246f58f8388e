//! The batch workloads and their pipeline pass: graph generation →
//! `experiment::run_experiment` (model build, platform run — partition,
//! algorithm, DAG build, simulation, log emission — and evaluation —
//! filter, assemble, derive, map, validate) → analysis → archive save →
//! figure render (→ regression gate).
//!
//! The pass calls only public entry points of the program, each wrapped
//! in a benchmark span ([`layer`]). The traced run splits a job's
//! `run_experiment` span into platform run and evaluation with the
//! program's own spans. With probes on (the traced run), the pass also
//! calls the layers that it reaches only from inside another layer —
//! partitioners, algorithm engines, the evaluation steps, the encoder,
//! the other graph generator — directly on the same inputs, so every
//! layer has a time of its own.

use std::path::{Path, PathBuf};
use std::time::Duration;

use gpsim_graph::gen::{self, GenConfig};
use gpsim_graph::partition::{BlockPartition, EdgeCutPartition, VertexCutPartition};
use gpsim_graph::Graph;
use gpsim_platforms::{common::reference_output, gas, pregel, Algorithm, JobConfig, PlatformRun};
use granula::calibration;
use granula::experiment::run_experiment;
use granula::{find_choke_points, ChokePointConfig, DomainBreakdown, EvaluationProcess, Platform};
use granula_archive::{store_to_bytes, ArchiveStore};
use granula_model::rules::{derive_all_durations, RuleEngine};
use granula_monitor::{Assembler, EnvLog, EventFilter, ResourceKind};
use granula_regress::{analyze, History, Status, Tolerance};
use granula_viz::{BreakdownChart, BreakdownRow};

use crate::clock::{Span, Stamp};

/// The seed at which `paper-dg1000` is the paper's Figure 5 experiment.
pub const DEFAULT_SEED: u64 = calibration::DG_SEED;

/// Regression history the `paper-dg1000` pass is gated against.
pub const HISTORY_DIR: &str = "tests/fixtures/history";

/// Graph size cap for a probe of the generator a workload does not use
/// (the in-memory generator on `fullscale-2m`): the probe measures the
/// generator's per-edge cost without doubling the workload's memory.
const PROBE_MAX_VERTICES: u32 = 250_000;

/// Mission kinds of the domain breakdown, in chart order.
pub const PHASE_KINDS: [&str; 5] = [
    "Startup",
    "LoadGraph",
    "ProcessGraph",
    "OffloadGraph",
    "Cleanup",
];

/// Opens a benchmark layer span named after the metric it feeds.
pub fn layer(name: &'static str) -> Option<granula_trace::SpanGuard> {
    granula_trace::span!("bench", "{name}")
}

/// Opens a benchmark grouping span (a job, a pass, a phase). Layer spans
/// opened inside it share its id as their parent.
pub fn group(name: &str) -> Option<granula_trace::SpanGuard> {
    granula_trace::span!("bench.group", "{name}")
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperDg1000,
    ScaleoutSim,
    FinegrainedArchive,
    ServeFleet,
    Fullscale2m,
}

impl Workload {
    /// Every workload the benchmark runs, in `BENCHMARK.json` order.
    /// `fullscale-2m` runs, traced and untraced, but `BENCHMARK.json` does
    /// not declare it: its pass time swings with the shared machine's
    /// cache load by more than the largest bound the ledger allows (see
    /// the README).
    pub const ALL: [Workload; 5] = [
        Workload::PaperDg1000,
        Workload::ScaleoutSim,
        Workload::FinegrainedArchive,
        Workload::ServeFleet,
        Workload::Fullscale2m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDg1000 => "paper-dg1000",
            Workload::ScaleoutSim => "scaleout-sim",
            Workload::FinegrainedArchive => "finegrained-archive",
            Workload::ServeFleet => "serve-fleet",
            Workload::Fullscale2m => "fullscale-2m",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's fixed job batch, generated from `seed`.
    pub fn batch(self, seed: u64) -> Batch {
        const FOUR: [Platform; 4] = [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::Grape,
            Platform::GraphX,
        ];
        match self {
            // `experiment::dg1000` per platform, as `fig5` runs it, with
            // the graph's seed an argument: each job generates its graph.
            Workload::PaperDg1000 => Batch {
                groups: vec![Group {
                    graph: dg_config(calibration::DG_VERTICES, seed),
                    streamed: false,
                    graph_per_job: true,
                    jobs: [Platform::Giraph, Platform::PowerGraph]
                        .into_iter()
                        .map(|p| (p, p.dg1000_job()))
                        .collect(),
                }],
                regress: true,
            },
            Workload::ScaleoutSim => {
                let pr = Algorithm::PageRank { iterations: 10 };
                Batch::single(dg_config(20_000, seed), &FOUR, pr, 32, "scaleout")
            }
            Workload::FinegrainedArchive => {
                let pr = Algorithm::PageRank { iterations: 200 };
                Batch::single(dg_config(2_000, seed), &FOUR, pr, 8, "finegrained")
            }
            Workload::ServeFleet => {
                let platforms = [
                    Platform::Giraph,
                    Platform::PowerGraph,
                    Platform::GraphMat,
                    Platform::Grape,
                    Platform::GraphX,
                ];
                let algorithms = [
                    Algorithm::Bfs { source: 1 },
                    Algorithm::PageRank { iterations: 10 },
                ];
                let groups = (0..6u64)
                    .map(|i| {
                        let graph = dg_config(3_000, seed.wrapping_mul(6).wrapping_add(i));
                        let jobs = platforms
                            .iter()
                            .flat_map(|&p| algorithms.iter().map(move |&a| (p, a)))
                            .map(|(p, a)| {
                                let id = format!(
                                    "{}-{}-fleet{i}",
                                    p.name().to_lowercase(),
                                    a.name().to_lowercase()
                                );
                                (p, scaled_job(p, id, a, 8, graph.vertices))
                            })
                            .collect();
                        Group {
                            graph,
                            streamed: false,
                            graph_per_job: false,
                            jobs,
                        }
                    })
                    .collect();
                Batch {
                    groups,
                    regress: false,
                }
            }
            // `experiment::dg1000_full_sized(2_000_000)`, with the graph's
            // seed an argument.
            Workload::Fullscale2m => {
                let vertices = 2_000_000;
                let mut cfg = calibration::giraph_dg1000_job();
                cfg.job_id = "giraph-bfs-dg1000-full".into();
                cfg.scale_factor = 1.03e9 / (vertices as f64 * 10.0);
                Batch {
                    groups: vec![Group {
                        graph: dg_config(vertices, seed),
                        streamed: true,
                        graph_per_job: false,
                        jobs: vec![(Platform::Giraph, cfg)],
                    }],
                    regress: false,
                }
            }
        }
    }
}

/// The set-up warm-up: one small Giraph BFS job through every layer.
pub fn warmup_batch(seed: u64) -> Batch {
    let graph = dg_config(1_000, seed);
    let cfg = scaled_job(
        Platform::Giraph,
        "giraph-bfs-warmup".into(),
        Algorithm::Bfs { source: 1 },
        8,
        graph.vertices,
    );
    Batch {
        groups: vec![Group {
            graph,
            streamed: false,
            graph_per_job: false,
            jobs: vec![(Platform::Giraph, cfg)],
        }],
        regress: false,
    }
}

/// The dg1000 generator settings (Datagen 9:1 edge ratio, α = 2.2) at a
/// given size and seed; at 100 k vertices and [`DEFAULT_SEED`] this is
/// `calibration::dg_graph()`.
fn dg_config(vertices: u32, seed: u64) -> GenConfig {
    GenConfig {
        vertices,
        edges: vertices as u64 * 9,
        alpha: 2.2,
        seed,
    }
}

/// A platform's calibrated dg1000 job re-targeted at another algorithm,
/// cluster size and graph size (the scale factor keeps emulating the
/// 1.03e9-element dataset, as `calibration::dg_graph_small` does).
fn scaled_job(
    p: Platform,
    id: String,
    algorithm: Algorithm,
    nodes: u16,
    vertices: u32,
) -> JobConfig {
    let mut cfg = p.dg1000_job();
    cfg.job_id = id;
    cfg.algorithm = algorithm;
    cfg.nodes = nodes;
    cfg.scale_factor = 1.03e9 / (vertices as f64 * 10.0);
    cfg
}

/// Jobs that share one generated graph and are saved to one `.gar`.
pub struct Group {
    pub graph: GenConfig,
    /// Generate out-CSR only through the streamed generator.
    pub streamed: bool,
    /// Generate the graph afresh for every job instead of once.
    pub graph_per_job: bool,
    pub jobs: Vec<(Platform, JobConfig)>,
}

/// A workload's fixed job batch.
pub struct Batch {
    pub groups: Vec<Group>,
    /// Gate the pass against [`HISTORY_DIR`].
    pub regress: bool,
}

impl Batch {
    fn single(
        graph: GenConfig,
        platforms: &[Platform],
        a: Algorithm,
        nodes: u16,
        tag: &str,
    ) -> Batch {
        let jobs = platforms
            .iter()
            .map(|&p| {
                let id = format!(
                    "{}-{}-{tag}",
                    p.name().to_lowercase(),
                    a.name().to_lowercase()
                );
                (p, scaled_job(p, id, a, nodes, graph.vertices))
            })
            .collect();
        Batch {
            groups: vec![Group {
                graph,
                streamed: false,
                graph_per_job: false,
                jobs,
            }],
            regress: false,
        }
    }

    pub fn job_count(&self) -> usize {
        self.groups.iter().map(|g| g.jobs.len()).sum()
    }
}

/// What one job of a pass produced, for the correctness checks.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub job_id: String,
    pub platform: Platform,
    pub makespan_us: u64,
    pub events: usize,
    pub breakdown: DomainBreakdown,
    pub validation_issues: usize,
    pub assembly_warnings: usize,
    /// The first validation issue or assembly warning, for the failure
    /// report.
    pub first_problem: Option<String>,
    /// `Some(matches)` when the pass compared the output to the
    /// sequential reference implementation.
    pub output_ok: Option<bool>,
}

/// Counts a traced pass reports next to its layer times.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub gen_edges: u64,
    pub gen_full_edges: u64,
    pub supersteps: u64,
    pub messages: u64,
    pub platform_events: u64,
    pub events_total: u64,
    pub events_kept: u64,
    pub ops: u64,
    pub encoded_bytes: u64,
}

/// One pass over a batch.
pub struct PassOutcome {
    /// Wall time of the pass, correctness checks excluded.
    pub wall: Duration,
    /// The process's CPU time in the pass, correctness checks excluded.
    pub cpu: Duration,
    pub jobs: Vec<JobOutcome>,
    /// The saved stores, one per group.
    pub files: Vec<PathBuf>,
    pub regress: Option<Status>,
    pub counts: Counts,
    /// The process's resident-memory high-water mark when the pass ended,
    /// MB.
    pub peak_rss_mb: f64,
}

/// Pass switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassOptions {
    /// Call every layer directly as well (traced run).
    pub probes: bool,
    /// Compare algorithm outputs with the reference implementation.
    pub check_outputs: bool,
}

/// The algorithm a job runs on `g`. A BFS from a vertex without
/// out-edges sends no message, so the model's message operations are
/// never observed and validation reports them: such a job is not the
/// traversal the workload means to time. A BFS therefore starts at its
/// configured source or, when that vertex has no out-edges in `g` (about
/// one vertex in 500 at these graphs' 9 edges per vertex), at the
/// lowest-id vertex that has.
fn on_graph(algorithm: Algorithm, g: &Graph) -> Algorithm {
    match algorithm {
        Algorithm::Bfs { source } if g.out_degree(source) == 0 => Algorithm::Bfs {
            source: (0..g.num_vertices())
                .find(|&v| g.out_degree(v) > 0)
                .unwrap_or(source),
        },
        other => other,
    }
}

/// Generates a group's graph, counting its edges.
fn generate(group: &Group, counts: &mut Counts) -> Graph {
    if group.streamed {
        let _l = layer("graph.gen_full");
        counts.gen_full_edges += group.graph.edges;
        gen::datagen_like_full(&group.graph)
    } else {
        let _l = layer("graph.gen");
        counts.gen_edges += group.graph.edges;
        gen::datagen_like(&group.graph)
    }
}

/// Runs one pass over `batch`, saving stores and the figure under `out`.
pub fn run_pass(batch: &Batch, out: &Path, opts: PassOptions) -> Result<PassOutcome, String> {
    let start = Stamp::now();
    let mut checks = Span::default();
    let mut counts = Counts::default();
    let mut jobs = Vec::with_capacity(batch.job_count());
    let mut files = Vec::with_capacity(batch.groups.len());
    let mut chart = BreakdownChart::new();
    let mut stores = Vec::with_capacity(batch.groups.len());

    for (gi, jobs_group) in batch.groups.iter().enumerate() {
        let mut graph = None;
        let mut store = ArchiveStore::new();
        for (ji, (platform, cfg)) in jobs_group.jobs.iter().enumerate() {
            let _job = group(&cfg.job_id);
            if ji == 0 || jobs_group.graph_per_job {
                // The previous job's graph goes before the next is made.
                drop(graph.take());
                let g = generate(jobs_group, &mut counts);
                if opts.probes && ji == 0 {
                    probe_graph(&g, jobs_group, &mut counts);
                }
                graph = Some(g);
            }
            let graph = graph.as_ref().expect("a graph was generated");
            let algorithm = on_graph(cfg.algorithm, graph);
            if algorithm != cfg.algorithm {
                println!(
                    "{}: the BFS source has no out-edges; {algorithm:?} instead",
                    cfg.job_id
                );
            }
            let cfg = &JobConfig {
                algorithm,
                ..cfg.clone()
            };
            let result = {
                let _l = layer("experiment.run");
                run_experiment(*platform, graph, cfg)
                    .map_err(|e| format!("{}: simulation failed: {e}", cfg.job_id))?
            };
            let (report, run, breakdown) = (result.report, result.run, result.breakdown);
            if opts.probes {
                probe_evaluation(*platform, &run);
                counts.supersteps += run.iterations as u64;
                counts.platform_events += run.events.len() as u64;
                counts.events_total += report.events_total as u64;
                counts.events_kept += report.events_kept as u64;
                counts.ops += report.archive.tree.len() as u64;
            }
            {
                let _l = layer("core.analysis");
                std::hint::black_box(find_choke_points(
                    &report.archive,
                    &ChokePointConfig::default(),
                ));
                let mut row = BreakdownRow::new(platform.name(), breakdown.total_us);
                for kind in PHASE_KINDS {
                    let d = report.archive.total_duration_of_us(kind);
                    if d > 0 {
                        row = row.with_segment(kind, d);
                    }
                }
                chart.add_row(row);
            }

            let check_start = Stamp::now();
            let output_ok = opts
                .check_outputs
                .then(|| run.output.matches(&reference_output(graph, cfg.algorithm)));
            jobs.push(JobOutcome {
                job_id: cfg.job_id.clone(),
                platform: *platform,
                makespan_us: run.makespan_us,
                events: run.events.len(),
                breakdown,
                validation_issues: report.validation.issues.len(),
                assembly_warnings: report.assembly_warnings.len(),
                first_problem: report
                    .validation
                    .issues
                    .first()
                    .map(|i| i.to_string())
                    .or_else(|| report.assembly_warnings.first().map(|w| format!("{w:?}"))),
                output_ok,
            });
            checks += check_start.elapsed();
            store.upsert(report.archive);
        }
        drop(graph);

        let path = out.join(format!("group{gi}.gar"));
        {
            let _l = layer("archive.save");
            store
                .save(&path)
                .map_err(|e| format!("saving {}: {e}", path.display()))?;
        }
        if opts.probes {
            let _l = layer("archive.encode");
            counts.encoded_bytes += store_to_bytes(&store).len() as u64;
        }
        files.push(path);
        stores.push(store);
    }

    {
        let _l = layer("viz.render");
        let svg = chart.render_svg();
        std::fs::write(out.join("breakdown.svg"), svg)
            .map_err(|e| format!("writing figure: {e}"))?;
    }
    // The paper workload is gated like CI gates fig5; the traced run
    // times the same gate on every workload's jobs.
    let regress = if batch.regress || opts.probes {
        let _l = layer("regress");
        let mut history =
            History::load_dir(HISTORY_DIR).map_err(|e| format!("loading {HISTORY_DIR}: {e}"))?;
        let mut latest = ArchiveStore::new();
        for archive in stores
            .into_iter()
            .flat_map(|s| s.iter().cloned().collect::<Vec<_>>())
        {
            latest.upsert(archive);
        }
        history.push_latest(latest, "perfbench");
        let (report, _) = analyze(&mut history, &Tolerance::default());
        batch.regress.then_some(report.verdict)
    } else {
        None
    };

    let took = start.elapsed() - checks;
    Ok(PassOutcome {
        wall: took.wall,
        cpu: took.cpu,
        jobs,
        files,
        regress,
        counts,
        peak_rss_mb: crate::machine::peak_rss_mb(),
    })
}

/// Direct calls into the graph and algorithm layers on a group's graph:
/// the three partitioners, the Pregel and GAS engines on the group's
/// algorithm, and the generator the group does not use.
fn probe_graph(g: &Graph, group: &Group, counts: &mut Counts) {
    let k = group.jobs[0].1.nodes;
    let algorithm = on_graph(group.jobs[0].1.algorithm, g);
    let hash = {
        let _l = layer("graph.partition_hash");
        EdgeCutPartition::hash(g.num_vertices(), k)
    };
    let vc = {
        let _l = layer("graph.partition_greedy_vc");
        VertexCutPartition::greedy(g, k)
    };
    {
        let _l = layer("graph.partition_block");
        std::hint::black_box(BlockPartition::by_edges(g, k));
    }
    {
        let _l = layer("platforms.algorithm");
        let pregel_out = match algorithm {
            Algorithm::Bfs { source } => pregel::run_bfs(g, &hash, source, 10_000).supersteps,
            Algorithm::PageRank { iterations } => {
                let program = pregel::PageRankProgram {
                    iterations,
                    damping: 0.85,
                };
                pregel::run(g, &hash, &program, 10_000).supersteps
            }
            other => unreachable!("no workload runs {}", other.name()),
        };
        counts.messages += pregel_out.iter().map(|s| s.total_messages()).sum::<u64>();
        // The GAS engine gathers over in-edges, which a streamed
        // (out-CSR only) graph does not carry.
        if !group.streamed {
            let gas_out = match algorithm {
                Algorithm::Bfs { source } => {
                    let mode = gas::IterationMode::Converge { max: 10_000 };
                    gas::run(g, &vc, &mut gas::BfsGas { source }, mode).iterations
                }
                Algorithm::PageRank { iterations } => {
                    gas::run_pagerank_gas(g, &vc, iterations, 0.85).iterations
                }
                other => unreachable!("no workload runs {}", other.name()),
            };
            counts.messages += gas_out
                .iter()
                .flat_map(|it| &it.per_machine)
                .map(|m| m.sync_sent)
                .sum::<u64>();
        }
    }
    let mut probe = group.graph.clone();
    probe.vertices = probe.vertices.min(PROBE_MAX_VERTICES);
    probe.edges = probe.edges.min(probe.vertices as u64 * 9);
    if group.streamed {
        let _l = layer("graph.gen");
        counts.gen_edges += probe.edges;
        std::hint::black_box(gen::datagen_like(&probe));
    } else {
        let _l = layer("graph.gen_full");
        counts.gen_full_edges += probe.edges;
        std::hint::black_box(gen::datagen_like_full(&probe));
    }
}

/// Direct calls into the evaluation steps `EvaluationProcess::evaluate`
/// chains, on the same run: filter, assemble, derive, map, validate.
fn probe_evaluation(platform: Platform, run: &PlatformRun) {
    let process = {
        let _l = layer("model.build");
        EvaluationProcess::new(platform.model())
    };
    let events = {
        let _l = layer("monitor.filter");
        let mut events = run.events.clone();
        process.skew.correct_all(&mut events);
        EventFilter::from_model(&process.model).apply(events)
    };
    let mut tree = {
        let _l = layer("monitor.assemble");
        Assembler::new().assemble(events).tree
    };
    {
        let _l = layer("model.derive");
        derive_all_durations(&mut tree);
        RuleEngine::apply(&process.model, &mut tree);
    }
    {
        let _l = layer("monitor.env_map");
        let mut env = EnvLog::new();
        env.extend(run.env_samples.iter().cloned());
        env.map_to_operations(&mut tree, ResourceKind::Cpu);
    }
    let _l = layer("model.validate");
    std::hint::black_box(granula_model::validate::validate(&process.model, &tree));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_moves_off_a_source_without_out_edges_only() {
        // 1 has no out-edges; 2 is the lowest-id vertex that has.
        let g = Graph::from_edges(4, &[(2, 1), (3, 1), (2, 3)]);
        let bfs = |source| Algorithm::Bfs { source };
        assert_eq!(on_graph(bfs(1), &g), bfs(2));
        assert_eq!(on_graph(bfs(3), &g), bfs(3));
        let pr = Algorithm::PageRank { iterations: 3 };
        assert_eq!(on_graph(pr, &g), pr);
    }
}
