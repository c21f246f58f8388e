//! The GraphMat-like platform driver.
//!
//! SpMV on Intel-MPI-like provisioning with shared-filesystem storage
//! (Table 1 row 3). Structure distilled from GraphMat's published design:
//! every machine loads its block of the edge list *in parallel* (contending
//! on the shared server), then pays the famously expensive conversion into
//! the internal SpMV matrix format; iterations are generalized
//! matrix-vector products with an all-to-all message exchange and an
//! MPI-allreduce barrier.

use gpsim_cluster::{ActivityId, ClusterSpec, FaultPlan, SimError};
use gpsim_graph::{BlockPartition, Graph};
use granula_model::{Actor, InfoValue};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, PlatformRun};
use crate::gas::IterationMode;
use crate::ops::{JobBuilder, Sizes};
use crate::spmv::{self, SpmvIteration};

/// GraphMat-like platform configuration.
#[derive(Debug, Clone)]
pub struct GraphMatPlatform {
    /// `mpiexec` + daemon startup latency, µs.
    pub mpiexec_us: f64,
    /// Per-rank handshake latency, µs.
    pub per_rank_us: f64,
    /// MPI finalize latency, µs.
    pub finalize_us: f64,
    /// CPU work per edge for the format conversion, core-µs (GraphMat's
    /// conversion step is a large constant factor over reading).
    pub convert_us_per_edge: f64,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
}

impl Default for GraphMatPlatform {
    fn default() -> Self {
        GraphMatPlatform {
            mpiexec_us: 2.0e6,
            per_rank_us: 0.15e6,
            finalize_us: 1.0e6,
            convert_us_per_edge: 0.9,
            max_iterations: 10_000,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &BlockPartition,
    algorithm: Algorithm,
    max_iterations: u32,
) -> (AlgorithmOutput, Vec<SpmvIteration>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::BfsSpmv { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Levels(out.values), out.iterations)
        }
        Algorithm::PageRank { iterations } => {
            let mut prog = spmv::PageRankSpmv::new(g, 0.85);
            let out = spmv::run(g, part, &mut prog, IterationMode::Fixed(iterations));
            (AlgorithmOutput::Ranks(out.values), out.iterations)
        }
        Algorithm::Wcc => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::WccSpmv,
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
        Algorithm::Sssp { source } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::SsspSpmv { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Distances(out.values), out.iterations)
        }
        Algorithm::Cdlp { iterations } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::CdlpSpmv,
                IterationMode::Fixed(iterations),
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
    }
}

impl GraphMatPlatform {
    /// Runs a job on a DAS5-like cluster with `cfg.nodes` nodes.
    pub fn run(&self, g: &Graph, cfg: &JobConfig) -> Result<PlatformRun, SimError> {
        self.run_on(g, cfg, &ClusterSpec::das5(cfg.nodes))
    }

    /// Runs a job on an explicit cluster.
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        assert!(
            cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
            "cluster too small for {} ranks",
            cfg.nodes
        );
        let part = BlockPartition::by_edges(g, cfg.nodes);
        let (output, iterations) = {
            let _span = granula_trace::span!("platform", "graphmat.spmv_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_iterations)
        };
        let sizes = Sizes::new(g, cfg, |v| part.owner_of(v));
        let (k, costs, scale) = (cfg.nodes, &cfg.costs, cfg.scale_factor);
        let mut b = JobBuilder::new("graphmat", cluster, cfg, ("Machine", "rank"));
        b.process("mpiexec");
        b.op(Actor::new("Job", "0"), "GraphMatJob", 0, "job/", |b| {
            b.info("Platform", InfoValue::Text("GraphMat".into()));
            b.info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()));
            b.info("Dataset", InfoValue::Text(cfg.dataset.clone()));
            b.info("Ranks", InfoValue::Int(k as i64));

            // -------------------------------------------------- Startup (L1)
            let started = b.child("Startup", 0, "startup/", |b| {
                let ranks: Vec<ActivityId> = b.op(master(), "MpiSetup", 0, "mpi/", |b| {
                    let mpiexec = b.delay(self.mpiexec_us, &[], "daemon");
                    (0..k)
                        .map(|m| b.delay(self.per_rank_us, &[mpiexec], &format!("rank-{m}")))
                        .collect()
                });
                b.barrier(&ranks, "ready")
            });

            // ------------------------------------------------ LoadGraph (L1)
            b.process("rank-0");
            let loaded = b.child("LoadGraph", 0, "load/", |b| {
                let converted: Vec<ActivityId> = (0..k)
                    .map(|m| {
                        let bytes = sizes.input_bytes[m as usize];
                        b.op(machine(m), "LocalLoad", 0, &format!("m{m}/"), |b| {
                            b.rounded("InputBytes", bytes);
                            // Parallel read from the shared server, pipelined
                            // with parsing.
                            let read = b.child("ReadInput", 0, "read", |b| {
                                b.shared_read(m, bytes, &[started], "")
                            });
                            let parse_us = bytes * costs.parse_cpu_us_per_byte;
                            let parse =
                                b.compute(m, parse_us, costs.worker_threads, &[read], "parse");
                            // The expensive conversion to the internal SpMV
                            // format.
                            let convert_us =
                                sizes.edges[m as usize] as f64 * scale * self.convert_us_per_edge;
                            b.child("ConvertFormat", 0, "convert", |b| {
                                b.compute(m, convert_us, costs.worker_threads, &[parse], "")
                            })
                        })
                    })
                    .collect();
                b.barrier(&converted, "done")
            });

            // ---------------------------------------------- ProcessGraph (L1)
            let processed = b.child("ProcessGraph", 0, "proc/", |b| {
                iterations
                    .iter()
                    .fold(loaded, |prev, it| iteration(b, it, prev))
            });

            // --------------------------------------------- OffloadGraph (L1)
            let offloaded = b.child("OffloadGraph", 0, "offload/", |b| {
                let writes: Vec<ActivityId> = (0..k)
                    .map(|m| {
                        let bytes =
                            sizes.verts[m as usize] as f64 * costs.bytes_per_vertex_out * scale;
                        b.op(machine(m), "LocalOffload", 0, &format!("m{m}/"), |b| {
                            b.rounded("OutputBytes", bytes);
                            b.shared_read(m, bytes, &[processed], "write")
                        })
                    })
                    .collect();
                b.barrier(&writes, "done")
            });

            // -------------------------------------------------- Cleanup (L1)
            b.process("mpiexec");
            b.child("Cleanup", 0, "cleanup/", |b| {
                b.op(master(), "MpiFinalize", 0, "finalize", |b| {
                    b.delay(self.finalize_us, &[offloaded], "")
                })
            });
        });
        // Memory view: each rank's matrix block becomes resident over its
        // load+convert interval and lives until MPI finalize.
        b.finish(&FaultPlan::default(), output, iterations.len(), |b, sim| {
            b.resident(sim, "job/", "load/m", &sizes.edges)
        })
    }
}

fn master() -> Actor {
    Actor::new("Master", "0")
}

fn machine(m: u16) -> Actor {
    Actor::new("Machine", m.to_string())
}

/// One SpMV iteration: the per-machine multiply, the all-to-all exchange
/// of cross-block messages, the per-machine apply, and the MPI-allreduce
/// barrier.
fn iteration(b: &mut JobBuilder, it: &SpmvIteration, prev: ActivityId) -> ActivityId {
    let cfg = b.cfg;
    let (k, costs, scale) = (cfg.nodes, &cfg.costs, cfg.scale_factor);
    let t = it.iteration;
    b.child("Iteration", t, &format!("it{t}/"), |b| {
        b.scaled("ActiveVertices", it.active_vertices);
        // Multiply (SpMV) phase per machine.
        let multiplies: Vec<ActivityId> = (0..k)
            .map(|m| {
                let stats = &it.per_machine[m as usize];
                b.op(machine(m), "Multiply", t, &format!("m{m}/multiply"), |b| {
                    b.scaled("EdgesProcessed", stats.edges_processed);
                    let work_us = (stats.edges_processed as f64 * costs.compute_us_per_edge
                        + stats.messages_sent as f64 * costs.serialize_us_per_message)
                        * scale;
                    b.compute(m, work_us.max(300.0), costs.worker_threads, &[prev], "")
                })
            })
            .collect();
        // All-to-all exchange of cross-block messages.
        let remote = |a: usize, d: usize| a != d && it.exchange[a][d] > 0;
        let any = (0..k as usize).any(|a| (0..k as usize).any(|d| remote(a, d)));
        let exchanged = b.op_if(any, master(), "Exchange", t, "ex/", |b| {
            let mut deps = Vec::new();
            for (a, row) in it.exchange.iter().enumerate() {
                for (d, &count) in row.iter().enumerate().filter(|&(d, _)| remote(a, d)) {
                    let bytes = count as f64 * costs.bytes_per_message * scale;
                    let leaf = format!("a{a}b{d}");
                    deps.push(b.transfer(a as u16, d as u16, bytes, &[multiplies[a]], &leaf));
                }
            }
            if deps.is_empty() {
                return b.barrier(&multiplies, "none");
            }
            deps.extend_from_slice(&multiplies);
            b.barrier(&deps, "join")
        });
        // Apply phase per machine, then the allreduce barrier.
        let applies: Vec<ActivityId> = (0..k)
            .map(|m| {
                let stats = &it.per_machine[m as usize];
                b.op(machine(m), "Apply", t, &format!("m{m}/apply"), |b| {
                    let work_us = stats.applies as f64 * costs.compute_us_per_vertex * scale;
                    b.compute(
                        m,
                        work_us.max(200.0),
                        costs.worker_threads,
                        &[exchanged],
                        "",
                    )
                })
            })
            .collect();
        let join = b.barrier(&applies, "barrier/join");
        b.delay(costs.barrier_us, &[join], "barrier/allreduce")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::Assembler;

    fn job(algorithm: Algorithm) -> (Graph, JobConfig) {
        let g = datagen_like(&GenConfig::datagen(2_000, 11));
        let mut costs = CostModel::powergraph_like();
        costs.worker_threads = 16;
        let cfg = JobConfig::new("test-job", "dg-test", algorithm, 8, costs);
        (g, cfg)
    }

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::Bfs { source: 3 },
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Cdlp { iterations: 3 },
        ] {
            let (g, cfg) = job(algorithm);
            let run = GraphMatPlatform::default().run(&g, &cfg).unwrap();
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GraphMatPlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..3.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GraphMatJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        // Conversion ops present under LocalLoad.
        assert_eq!(tree.by_mission_kind("ConvertFormat").count(), 8);
    }

    #[test]
    fn load_is_parallel_across_machines() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let cfg = cfg.with_scale(1_000.0);
        let run = GraphMatPlatform::default().run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        // All 8 LocalLoads overlap in time (parallel, unlike PowerGraph).
        let loads: Vec<(u64, u64)> = tree
            .by_mission_kind("LocalLoad")
            .map(|o| (o.start_us().unwrap(), o.end_us().unwrap()))
            .collect();
        assert_eq!(loads.len(), 8);
        let max_start = loads.iter().map(|&(s, _)| s).max().unwrap();
        let min_end = loads.iter().map(|&(_, e)| e).min().unwrap();
        assert!(max_start < min_end, "loads should overlap: {loads:?}");
    }
}
