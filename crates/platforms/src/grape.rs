//! The GRAPE-like platform driver.
//!
//! Subgraph-centric processing in the style of GRAPE / GraphScope's
//! analytical engine: the graph is edge-cut into `k` fragments, each worker
//! runs the *sequential* algorithm on its whole fragment (PEval), and rounds
//! only exchange updates for boundary vertices; subsequent rounds evaluate
//! incrementally (IncEval), touching just the vertices reached by incoming
//! boundary updates. Compared with vertex-centric BSP this trades
//! many-superstep barrier traffic for fewer, coarser sync rounds. The
//! driver:
//!
//! 1. assigns vertices to fragments (hash or contiguous-block edge-cut —
//!    the partitioner is a first-class experiment axis);
//! 2. executes the algorithm with the fragment-local work-list engine in
//!    this module, collecting per-round, per-fragment counters and the
//!    boundary-update matrix;
//! 3. compiles the job into an activity DAG — coordinator + worker
//!    deployment, parallel fragment loads from shared storage, per-round
//!    sequential fragment kernels plus boundary-sync transfers, offload,
//!    and finalization;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.
//!
//! Fault recovery is *fragment-local replay*: the coordinator detects the
//! lost worker, the replacement re-reads only its own fragment from shared
//! storage, and replays its local evaluations using the boundary updates
//! its peers logged — no global checkpoint (Giraph) and no full restart
//! (PowerGraph).

use std::collections::VecDeque;

use gpsim_cluster::{ActivityId, ClusterSpec, FaultPlan, SimError};
use gpsim_graph::{BlockPartition, EdgeCutPartition, Graph, VertexId};
use granula_model::{Actor, InfoValue};

use crate::common::{reference_output, Algorithm, AlgorithmOutput, JobConfig, PlatformRun};
use crate::ops::{CrashSite, JobBuilder, Sizes};

/// How vertices are assigned to edge-cut fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrapePartitioner {
    /// Murmur-mixed hash of the vertex id: balanced but locality-free, so
    /// almost every round crosses fragment boundaries.
    Hash,
    /// Contiguous vertex ranges balanced by out-edges: high locality on
    /// generator-ordered ids, so local fixpoints absorb most propagation.
    Block,
}

impl GrapePartitioner {
    /// Canonical short name, e.g. `"hash-ec"`.
    pub fn name(&self) -> &'static str {
        match self {
            GrapePartitioner::Hash => "hash-ec",
            GrapePartitioner::Block => "block-ec",
        }
    }

    /// Owner fragment of every vertex.
    pub fn owners(&self, g: &Graph, k: u16) -> Vec<u16> {
        match self {
            GrapePartitioner::Hash => EdgeCutPartition::hash(g.num_vertices(), k).owner,
            GrapePartitioner::Block => {
                let p = BlockPartition::by_edges(g, k);
                (0..g.num_vertices()).map(|v| p.owner_of(v)).collect()
            }
        }
    }
}

/// GRAPE-like platform: configuration knobs beyond the job's cost model.
#[derive(Debug, Clone)]
pub struct GrapePlatform {
    /// Coordinator + metadata-service startup latency, µs.
    pub deploy_us: f64,
    /// Per-worker process spawn latency, µs.
    pub worker_launch_us: f64,
    /// Engine finalization latency, µs.
    pub finalize_us: f64,
    /// Vertex-to-fragment assignment strategy.
    pub partitioner: GrapePartitioner,
    /// Round cap for convergent algorithms.
    pub max_rounds: u32,
    /// Time for the coordinator to notice a lost worker (missed liveness
    /// probes), µs.
    pub failure_detect_us: f64,
}

impl Default for GrapePlatform {
    fn default() -> Self {
        GrapePlatform {
            deploy_us: 1.5e6,
            worker_launch_us: 0.4e6,
            finalize_us: 0.8e6,
            partitioner: GrapePartitioner::Hash,
            max_rounds: 10_000,
            failure_detect_us: 1.5e6,
        }
    }
}

/// Per-fragment counters for one PEval/IncEval round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentRound {
    /// Work-list pops: vertices the sequential kernel evaluated.
    pub active_vertices: u64,
    /// Edges scanned while evaluating them.
    pub edges_scanned: u64,
}

/// One boundary-synchronized round of the subgraph-centric engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (0 = PEval, >0 = IncEval).
    pub round: u32,
    /// Counters per fragment.
    pub per_fragment: Vec<FragmentRound>,
    /// Aggregated boundary updates fragment `a` sent to fragment `b`.
    pub boundary: Vec<Vec<u64>>,
}

impl RoundStats {
    /// Total vertices evaluated across fragments.
    pub fn total_active(&self) -> u64 {
        self.per_fragment.iter().map(|f| f.active_vertices).sum()
    }

    /// Total boundary updates exchanged at the end of the round.
    pub fn total_boundary(&self) -> u64 {
        self.boundary.iter().flatten().sum()
    }
}

/// Fragment-local work-list evaluation with boundary-synchronized rounds:
/// round 0 floods from the seeds inside each fragment to a local fixpoint
/// (PEval); each later round applies the boundary updates received and
/// floods again from just those vertices (IncEval). Monotone `better`
/// guarantees convergence to the global fixpoint.
#[allow(clippy::too_many_arguments)]
fn flood<T, C, B>(
    g: &Graph,
    owner: &[u16],
    k: u16,
    mut values: Vec<T>,
    seeds: Vec<VertexId>,
    undirected: bool,
    max_rounds: u32,
    candidate: C,
    better: B,
) -> (Vec<T>, Vec<RoundStats>)
where
    T: Copy,
    C: Fn(VertexId, usize, T) -> T,
    B: Fn(T, T) -> bool,
{
    let kk = k as usize;
    let mut frontier: Vec<Vec<VertexId>> = vec![Vec::new(); kk];
    for v in seeds {
        frontier[owner[v as usize] as usize].push(v);
    }
    // Best unapplied cross-fragment candidate per vertex.
    let mut pending: Vec<Option<T>> = vec![None; g.num_vertices() as usize];
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut round = 0u32;
    while round < max_rounds && frontier.iter().any(|f| !f.is_empty()) {
        let mut per_fragment = vec![FragmentRound::default(); kk];
        let mut boundary = vec![vec![0u64; kk]; kk];
        let mut touched: Vec<VertexId> = Vec::new();
        for (f, seeds_f) in frontier.iter_mut().enumerate() {
            let frag = &mut per_fragment[f];
            let mut work: VecDeque<VertexId> = seeds_f.drain(..).collect();
            while let Some(v) = work.pop_front() {
                frag.active_vertices += 1;
                let val = values[v as usize];
                let nbrs = g.neighbors(v);
                frag.edges_scanned += nbrs.len() as u64;
                for (i, &t) in nbrs.iter().enumerate() {
                    let cand = candidate(v, i, val);
                    let to = owner[t as usize] as usize;
                    if to == f {
                        if better(cand, values[t as usize]) {
                            values[t as usize] = cand;
                            work.push_back(t);
                        }
                    } else if better(cand, pending[t as usize].unwrap_or(values[t as usize])) {
                        if pending[t as usize].is_none() {
                            touched.push(t);
                        }
                        pending[t as usize] = Some(cand);
                        boundary[f][to] += 1;
                    }
                }
                if undirected {
                    let inn = g.in_neighbors(v);
                    frag.edges_scanned += inn.len() as u64;
                    for &t in inn {
                        let cand = candidate(v, usize::MAX, val);
                        let to = owner[t as usize] as usize;
                        if to == f {
                            if better(cand, values[t as usize]) {
                                values[t as usize] = cand;
                                work.push_back(t);
                            }
                        } else if better(cand, pending[t as usize].unwrap_or(values[t as usize])) {
                            if pending[t as usize].is_none() {
                                touched.push(t);
                            }
                            pending[t as usize] = Some(cand);
                            boundary[f][to] += 1;
                        }
                    }
                }
            }
        }
        // Boundary sync: apply the aggregated updates; improved vertices
        // seed the next round in their owner fragment.
        for &t in &touched {
            if let Some(cand) = pending[t as usize].take() {
                if better(cand, values[t as usize]) {
                    values[t as usize] = cand;
                    frontier[owner[t as usize] as usize].push(t);
                }
            }
        }
        rounds.push(RoundStats {
            round,
            per_fragment,
            boundary,
        });
        round += 1;
    }
    (values, rounds)
}

/// Round schedule for fixed-iteration synchronous algorithms (PageRank,
/// CDLP): every round is a full sweep of each fragment, and the boundary
/// traffic is the (structural) cut-edge matrix.
fn fixed_rounds(
    g: &Graph,
    owner: &[u16],
    k: u16,
    iterations: u32,
    undirected: bool,
) -> Vec<RoundStats> {
    let kk = k as usize;
    let mut verts = vec![0u64; kk];
    let mut edges = vec![0u64; kk];
    let mut cut = vec![vec![0u64; kk]; kk];
    for v in 0..g.num_vertices() {
        let f = owner[v as usize] as usize;
        verts[f] += 1;
        edges[f] += g.out_degree(v) as u64;
        for &t in g.neighbors(v) {
            let to = owner[t as usize] as usize;
            if to != f {
                cut[f][to] += 1;
            }
        }
        if undirected {
            edges[f] += g.in_degree(v) as u64;
            for &t in g.in_neighbors(v) {
                let to = owner[t as usize] as usize;
                if to != f {
                    cut[f][to] += 1;
                }
            }
        }
    }
    (0..iterations)
        .map(|r| RoundStats {
            round: r,
            per_fragment: (0..kk)
                .map(|f| FragmentRound {
                    active_vertices: verts[f],
                    edges_scanned: edges[f],
                })
                .collect(),
            boundary: cut.clone(),
        })
        .collect()
}

fn run_program(
    g: &Graph,
    owner: &[u16],
    k: u16,
    algorithm: Algorithm,
    max_rounds: u32,
) -> (AlgorithmOutput, Vec<RoundStats>) {
    let n = g.num_vertices() as usize;
    match algorithm {
        Algorithm::Bfs { source } => {
            let mut values = vec![u32::MAX; n];
            values[source as usize] = 0;
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                vec![source],
                false,
                max_rounds,
                |_, _, d| d + 1,
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Levels(values), rounds)
        }
        Algorithm::Sssp { source } => {
            let mut values = vec![f64::INFINITY; n];
            values[source as usize] = 0.0;
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                vec![source],
                false,
                max_rounds,
                |v, i, d| d + g.edge_weights(v).map_or(1.0, |ws| ws[i] as f64),
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Distances(values), rounds)
        }
        Algorithm::Wcc => {
            let values: Vec<u32> = (0..n as u32).collect();
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                (0..n as u32).collect(),
                true,
                max_rounds,
                |_, _, l| l,
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Labels(values), rounds)
        }
        Algorithm::PageRank { iterations } => (
            reference_output(g, algorithm),
            fixed_rounds(g, owner, k, iterations, false),
        ),
        Algorithm::Cdlp { iterations } => (
            reference_output(g, algorithm),
            fixed_rounds(g, owner, k, iterations, true),
        ),
    }
}

impl GrapePlatform {
    /// Runs a job on a DAS5-like cluster with `cfg.nodes` nodes.
    pub fn run(&self, g: &Graph, cfg: &JobConfig) -> Result<PlatformRun, SimError> {
        self.run_on(g, cfg, &ClusterSpec::das5(cfg.nodes))
    }

    /// Runs a job on a DAS5-like cluster under an injected fault plan.
    pub fn run_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        self.run_on_with_faults(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
    }

    /// Runs a job on an explicit cluster (must have at least `cfg.nodes`
    /// nodes).
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        self.run_on_with_faults(g, cfg, cluster, &FaultPlan::default())
    }

    /// Runs a job on an explicit cluster under an injected fault plan.
    ///
    /// Slowdown windows pass straight through to the simulator. A node
    /// crash triggers GRAPE's fragment-local recovery: the coordinator
    /// detects the lost worker, a replacement re-reads *only the lost
    /// fragment* from shared storage, replays that fragment's evaluations
    /// for the committed rounds using the boundary updates its peers
    /// logged, and the interrupted round re-runs in full. The recovery is
    /// emitted as first-class Granula operations (`FailedRound`, `Recover`
    /// with `DetectFailure` / `ReloadFragment` / `Replay` children) so the
    /// archive can decompose the slowdown.
    ///
    /// Only the earliest crash in the plan is modeled; later crashes are
    /// dropped from the executed plan (single-failure model, as for the
    /// other platforms).
    pub fn run_on_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        assert!(
            cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
            "cluster too small for {} workers",
            cfg.nodes
        );
        let owner = self.partitioner.owners(g, cfg.nodes);
        let (output, rounds) = {
            let _span = granula_trace::span!("platform", "grape.eval {}", cfg.job_id);
            run_program(g, &owner, cfg.nodes, cfg.algorithm, self.max_rounds)
        };
        let sizes = Sizes::new(g, cfg, |v| owner[v as usize]);
        let layout = Layout {
            p: self,
            rounds: &rounds,
            sizes: &sizes,
        };
        let units: Vec<String> = rounds
            .iter()
            .map(|rs| format!("job/proc/r{}/", rs.round))
            .collect();
        let (b, exec) = JobBuilder::new("grape", cluster, cfg, ("Worker", "worker"))
            .single_failure(plan, self.failure_detect_us, &units, |b, crash| {
                layout.job(b, crash)
            })?;
        b.finish(&exec, output, rounds.len(), |b, sim| {
            b.resident(sim, "job/", "load/w", &sizes.edges)
        })
    }
}

fn coordinator() -> Actor {
    Actor::new("Coordinator", "0")
}

fn worker(w: u16) -> Actor {
    Actor::new("Worker", w.to_string())
}

/// CPU work of one fragment's sequential kernel in a round, core-µs.
fn work(cfg: &JobConfig, frag: &FragmentRound) -> f64 {
    (frag.edges_scanned as f64 * cfg.costs.compute_us_per_edge
        + frag.active_vertices as f64 * cfg.costs.compute_us_per_vertex)
        * cfg.scale_factor
}

/// The GRAPE job layout, healthy or recovering from one crash.
struct Layout<'a> {
    p: &'a GrapePlatform,
    rounds: &'a [RoundStats],
    sizes: &'a Sizes,
}

impl Layout<'_> {
    fn job(&self, b: &mut JobBuilder, crash: Option<&CrashSite>) {
        let (p, cfg) = (self.p, b.cfg);
        b.process("coordinator");
        b.op(Actor::new("Job", "0"), "GrapeJob", 0, "job/", |b| {
            b.info("Platform", InfoValue::Text("Grape".into()));
            b.info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()));
            b.info("Dataset", InfoValue::Text(cfg.dataset.clone()));
            b.info("Workers", InfoValue::Int(cfg.nodes as i64));
            b.info("Partitioner", InfoValue::Text(p.partitioner.name().into()));
            let started = b.child("Startup", 0, "startup/", |b| self.startup(b));
            let loaded = b.child("LoadGraph", 0, "load/", |b| self.load(b, started));
            let processed = b.child("ProcessGraph", 0, "proc/", |b| {
                (0..self.rounds.len()).fold(loaded, |prev, ri| match crash {
                    Some(site) if site.unit == ri => self.recover(b, site, prev),
                    _ => self.round(b, ri, prev),
                })
            });
            let offloaded = b.child("OffloadGraph", 0, "offload/", |b| {
                self.offload(b, processed)
            });
            b.child("Cleanup", 0, "cleanup/", |b| {
                b.op(coordinator(), "Terminate", 0, "finalize", |b| {
                    b.delay(p.finalize_us, &[offloaded], "")
                })
            });
        });
    }

    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        let p = self.p;
        let deploy = b.op(coordinator(), "DeployCoordinator", 0, "coordinator", |b| {
            b.delay(p.deploy_us, &[], "")
        });
        let ready: Vec<ActivityId> = b.op(coordinator(), "DeployWorkers", 0, "deploy/", |b| {
            (0..b.cfg.nodes)
                .map(|w| {
                    b.op(worker(w), "LocalStartup", 0, &format!("w{w}"), |b| {
                        let launch_us = p.worker_launch_us * (1.0 + 0.05 * w as f64);
                        b.delay(launch_us, &[deploy], "")
                    })
                })
                .collect()
        });
        b.barrier(&ready, "all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&self, b: &mut JobBuilder, started: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let costs = &cfg.costs;
        let loaded: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let bytes = self.sizes.input_bytes[w as usize];
                b.op(worker(w), "LocalLoad", 0, &format!("w{w}/"), |b| {
                    b.rounded("InputBytes", bytes);
                    // Parallel read of this worker's fragment from shared
                    // storage.
                    let read = b.child("ReadFragment", 0, "read", |b| {
                        b.shared_read(w, bytes, &[started], "")
                    });
                    let parse_us = bytes * costs.parse_cpu_us_per_byte;
                    let parse = b.compute(w, parse_us, costs.worker_threads, &[read], "parse");
                    let build_us = self.sizes.edges[w as usize] as f64
                        * cfg.scale_factor
                        * costs.build_cpu_us_per_edge;
                    b.child("BuildIndex", 0, "build", |b| {
                        b.compute(w, build_us, costs.worker_threads, &[parse], "")
                    })
                })
            })
            .collect();
        b.barrier(&loaded, "all-loaded")
    }

    // ---------------------------------------------- ProcessGraph (L1)
    fn round(&self, b: &mut JobBuilder, ri: usize, prev: ActivityId) -> ActivityId {
        let rs = &self.rounds[ri];
        b.op(
            Actor::new("Job", "0"),
            "Round",
            rs.round,
            &format!("r{}/", rs.round),
            |b| {
                b.scaled("ActiveVertices", rs.total_active());
                b.scaled("BoundaryMessages", rs.total_boundary());
                self.round_body(b, ri, prev)
            },
        )
    }

    /// One boundary-synchronized round: per-fragment *sequential* kernel
    /// (parallelism 1 — the defining GRAPE trait), boundary-update
    /// transfers, and the coordinator's sync barrier, under the current
    /// scope (a `Round` op, or a quiet scope under a `Replay` op).
    fn round_body(&self, b: &mut JobBuilder, ri: usize, prev_barrier: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let rs = &self.rounds[ri];
        let r = rs.round;
        let eval_kind = if r == 0 { "PEval" } else { "IncEval" };
        let evals: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let frag = &rs.per_fragment[w as usize];
                b.op(worker(w), eval_kind, r, &format!("f{w}/"), |b| {
                    b.scaled("EdgesScanned", frag.edges_scanned);
                    b.scaled("ActiveVertices", frag.active_vertices);
                    // Idle fragments still tick over the round machinery.
                    b.compute(w, work(cfg, frag).max(400.0), 1, &[prev_barrier], "eval")
                })
            })
            .collect();
        // Boundary-update exchange, then the coordinator's sync.
        b.op(coordinator(), "BoundarySync", r, "sync/", |b| {
            let mut deps = evals.clone();
            for (a, row) in rs.boundary.iter().enumerate() {
                for (d, &count) in row.iter().enumerate() {
                    if a != d && count > 0 {
                        let bytes = count as f64 * cfg.costs.bytes_per_message * cfg.scale_factor;
                        let leaf = format!("a{a}b{d}");
                        deps.push(b.transfer(a as u16, d as u16, bytes, &[evals[a]], &leaf));
                    }
                }
            }
            let join = b.barrier(&deps, "join");
            b.delay(cfg.costs.barrier_us, &[join], "coord")
        })
    }

    /// Fragment-local recovery from the crash in round `site.unit`. The
    /// attempt the crash interrupts gets its kernels but no sync — it never
    /// commits. The coordinator detects the lost worker, a replacement
    /// re-reads only the lost fragment, replays that fragment's
    /// evaluations of the committed rounds from the boundary updates its
    /// peers logged (resent, never recomputed), and the interrupted round
    /// re-runs in full.
    fn recover(&self, b: &mut JobBuilder, site: &CrashSite, prev: ActivityId) -> ActivityId {
        let (cfg, ri) = (b.cfg, site.unit);
        let costs = &cfg.costs;
        let r = self.rounds[ri].round;
        b.op(coordinator(), "FailedRound", r, &format!("r{r}/"), |b| {
            for (w, frag) in self.rounds[ri].per_fragment.iter().enumerate() {
                let work_us = work(cfg, frag).max(400.0);
                b.compute(w as u16, work_us, 1, &[prev], &format!("try/f{w}/eval"));
            }
        });
        // Only the interrupted round's partial work is wasted: committed
        // rounds survive on the healthy fragments and the lost one is
        // reconstructed by fragment-local replay, not re-executed globally.
        let wasted_us = site.failure.at_us - site.unit_starts[ri];
        let lost = site.failure.node.0;
        let lw = lost as usize;
        b.recover(
            coordinator(),
            "recovery/",
            &site.failure,
            wasted_us,
            |b, detect| {
                let bytes = self.sizes.input_bytes[lw];
                let rebuilt = b.child("ReloadFragment", 0, "reload/", |b| {
                    b.rounded("InputBytes", bytes);
                    let reread = b.shared_read(lost, bytes, &[detect], "read");
                    let build_us = self.sizes.edges[lw] as f64
                        * cfg.scale_factor
                        * costs.build_cpu_us_per_edge;
                    b.compute(lost, build_us, costs.worker_threads, &[reread], "build")
                });
                let replayed = (0..ri).fold(rebuilt, |prev, i| {
                    let rs = &self.rounds[i];
                    b.child("Replay", rs.round, &format!("replay/r{}/", rs.round), |b| {
                        let mut deps = vec![prev];
                        // Updates the lost fragment received in the
                        // previous round's sync.
                        let inbound = match i {
                            0 => &[][..],
                            _ => &self.rounds[i - 1].boundary[..],
                        };
                        for (a, row) in inbound.iter().enumerate() {
                            if a != lw && row[lw] > 0 {
                                let bytes =
                                    row[lw] as f64 * costs.bytes_per_message * cfg.scale_factor;
                                let leaf = format!("in/a{a}");
                                deps.push(b.transfer(a as u16, lost, bytes, &[prev], &leaf));
                            }
                        }
                        let work_us = work(cfg, &rs.per_fragment[lw]).max(400.0);
                        b.compute(lost, work_us, 1, &deps, "eval")
                    })
                });
                b.child("Replay", r, &format!("replay/r{r}/"), |b| {
                    b.quiet(|b| self.round_body(b, ri, replayed))
                })
            },
        )
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&self, b: &mut JobBuilder, prev: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let writes: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let bytes = self.sizes.verts[w as usize] as f64
                    * cfg.costs.bytes_per_vertex_out
                    * cfg.scale_factor;
                b.op(worker(w), "LocalOffload", 0, &format!("w{w}/"), |b| {
                    b.rounded("OutputBytes", bytes);
                    b.shared_read(w, bytes, &[prev], "write")
                })
            })
            .collect();
        b.barrier(&writes, "all-done")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CostModel;
    use gpsim_cluster::NodeId;
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::Assembler;

    fn job(algorithm: Algorithm) -> (Graph, JobConfig) {
        let g = datagen_like(&GenConfig::datagen(2_000, 11));
        let cfg = JobConfig::new(
            "test-job",
            "dg-test",
            algorithm,
            8,
            CostModel::powergraph_like(),
        );
        (g, cfg)
    }

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::Bfs { source: 3 },
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Sssp { source: 3 },
            Algorithm::Cdlp { iterations: 3 },
        ] {
            for partitioner in [GrapePartitioner::Hash, GrapePartitioner::Block] {
                let (g, cfg) = job(algorithm);
                let p = GrapePlatform {
                    partitioner,
                    ..GrapePlatform::default()
                };
                let run = p.run(&g, &cfg).unwrap();
                assert!(
                    run.output.matches(&reference_output(&g, algorithm)),
                    "{algorithm:?} under {partitioner:?}"
                );
            }
        }
    }

    #[test]
    fn subgraph_rounds_beat_vertex_centric_supersteps() {
        // The subgraph-centric pitch: fragment-local fixpoints absorb
        // propagation, so BFS needs fewer sync rounds than BSP supersteps
        // (which need one per level).
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let grape = GrapePlatform {
            partitioner: GrapePartitioner::Block,
            ..GrapePlatform::default()
        }
        .run(&g, &cfg)
        .unwrap();
        let giraph = crate::giraph::GiraphPlatform::default()
            .run(&g, &cfg)
            .unwrap();
        assert!(
            grape.iterations < giraph.iterations,
            "block-partitioned GRAPE rounds ({}) should undercut BSP supersteps ({})",
            grape.iterations,
            giraph.iterations
        );
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GrapePlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GrapeJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_rounds = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Round")
            .count();
        assert_eq!(n_rounds as u32, run.iterations);
        // Round 0 is PEval; later rounds are IncEval.
        assert_eq!(tree.by_mission_kind("PEval").count(), 8);
        assert!(tree.by_mission_kind("IncEval").count() >= 8);
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GrapePlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faultless = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn crash_recovery_reloads_and_replays_only_the_lost_fragment() {
        let (g, cfg) = job(Algorithm::PageRank { iterations: 6 });
        let p = GrapePlatform::default();
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.6);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        assert!(
            faulty.makespan_us > healthy.makespan_us,
            "recovery must cost time: {} vs {}",
            faulty.makespan_us,
            healthy.makespan_us
        );
        let outcome = Assembler::new().assemble(faulty.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        assert!(tree
            .children(proc_)
            .any(|o| o.mission.kind == "FailedRound"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "ReloadFragment"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let n_replay = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .count();
        assert!(n_replay >= 1, "lost rounds must be replayed");
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        // No round is lost or duplicated: the interrupted round moves from
        // the committed sequence into the replay set.
        let committed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Round")
            .count();
        let failed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "FailedRound")
            .count();
        assert_eq!(failed, 1);
        assert_eq!(committed + 1, healthy.iterations as usize);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = GrapePlatform::default().run(&g, &cfg).unwrap();
        let big = GrapePlatform::default()
            .run(&g, &cfg.clone().with_scale(50.0))
            .unwrap();
        assert!(big.makespan_us > small.makespan_us);
    }
}
