//! The GraphX-like platform driver.
//!
//! Dataflow graph processing in the style of GraphX on Spark: the graph is
//! a pair of hash-partitioned RDDs, every Pregel iteration lowers to a
//! join/aggregate stage pair with a shuffle between them, and the driver
//! schedules every stage. The driver:
//!
//! 1. hash-partitions the vertices over the executors (edge-cut);
//! 2. executes the vertex program with the [`crate::pregel`] engine — the
//!    GraphX Pregel API is BSP, so the per-superstep counters map directly
//!    onto map/shuffle/reduce stages;
//! 3. compiles the job into an activity DAG — driver + executor launches,
//!    HDFS partition reads followed by a `partitionBy` shuffle, per
//!    iteration a driver scheduling delay, map-side stage, all-to-all
//!    shuffle, and reduce-side stage, then offload and context stop;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.
//!
//! Fault recovery is *lineage recomputation*: no checkpoints and no global
//! restart — the driver reschedules the lost tasks and recomputes only the
//! doomed lineage cut (the lost partition's chain of stages, re-read from
//! the input split, fed by the shuffle outputs surviving on its peers),
//! then re-runs the interrupted stage pair. This contrasts with Giraph's
//! checkpoint/replay and PowerGraph's fail-stop restart.

use gpsim_cluster::{ActivityId, ClusterSpec, FaultPlan, FileSystem, SimError};
use gpsim_graph::{EdgeCutPartition, Graph};
use granula_model::{Actor, InfoValue};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, PlatformRun};
use crate::ops::{CrashSite, JobBuilder, Sizes};
use crate::pregel::{self, SuperstepStats, WorkerSuperstep};

/// GraphX-like platform: configuration knobs beyond the job's cost model.
#[derive(Debug, Clone)]
pub struct GraphXPlatform {
    /// Spark context + driver JVM startup latency, µs.
    pub driver_startup_us: f64,
    /// Per-executor container + JVM launch latency, µs.
    pub executor_launch_us: f64,
    /// Driver task-scheduling latency per stage, µs.
    pub task_sched_us: f64,
    /// HDFS-like storage.
    pub fs: FileSystem,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
    /// Time for the driver to notice a lost executor (missed heartbeats),
    /// µs.
    pub failure_detect_us: f64,
}

impl Default for GraphXPlatform {
    fn default() -> Self {
        GraphXPlatform {
            driver_startup_us: 3.0e6,
            executor_launch_us: 2.5e6,
            task_sched_us: 120_000.0,
            fs: FileSystem::hdfs(),
            max_iterations: 10_000,
            failure_detect_us: 2.0e6,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &EdgeCutPartition,
    algorithm: Algorithm,
    max_iterations: u32,
) -> (AlgorithmOutput, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = pregel::run_bfs(g, part, source, max_iterations);
            (AlgorithmOutput::Levels(out.values), out.supersteps)
        }
        Algorithm::PageRank { iterations } => {
            let out = pregel::run(
                g,
                part,
                &pregel::PageRankProgram {
                    iterations,
                    damping: 0.85,
                },
                max_iterations,
            );
            (AlgorithmOutput::Ranks(out.values), out.supersteps)
        }
        Algorithm::Wcc => {
            let out = pregel::run(g, part, &pregel::WccProgram, max_iterations);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
        Algorithm::Sssp { source } => {
            let out = pregel::run(g, part, &pregel::SsspProgram { source }, max_iterations);
            (AlgorithmOutput::Distances(out.values), out.supersteps)
        }
        Algorithm::Cdlp { iterations } => {
            let out = pregel::run(g, part, &pregel::CdlpProgram { iterations }, max_iterations);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
    }
}

impl GraphXPlatform {
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
    /// crash triggers Spark's lineage recovery: the driver detects the
    /// lost executor, relaunches it and reschedules the lost tasks, and
    /// the lost partition's lineage is recomputed — its input split
    /// re-read, its stage chain re-executed against the shuffle outputs
    /// surviving on the healthy executors — before the interrupted stage
    /// pair re-runs. The recovery is emitted as first-class Granula
    /// operations (`FailedStage`, `Recover` with `DetectFailure` /
    /// `Reschedule` / `Recompute` children) so the archive can decompose
    /// the slowdown.
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
            "cluster too small for {} executors",
            cfg.nodes
        );
        let part = EdgeCutPartition::hash(g.num_vertices(), cfg.nodes);
        let (output, iterations) = {
            let _span = granula_trace::span!("platform", "graphx.vertex_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_iterations)
        };
        let sizes = Sizes::new(g, cfg, |v| part.owner_of(v));
        let layout = Layout {
            p: self,
            iterations: &iterations,
            sizes: &sizes,
        };
        let units: Vec<String> = iterations
            .iter()
            .map(|it| format!("job/proc/it{}/", it.superstep))
            .collect();
        let (b, exec) = JobBuilder::new("graphx", cluster, cfg, ("Executor", "executor"))
            .single_failure(plan, self.failure_detect_us, &units, |b, crash| {
                layout.job(b, crash)
            })?;
        b.finish(&exec, output, iterations.len(), |b, sim| {
            b.resident(sim, "job/", "load/w", &sizes.edges)
        })
    }
}

fn driver() -> Actor {
    Actor::new("Driver", "0")
}

fn executor(w: u16) -> Actor {
    Actor::new("Executor", w.to_string())
}

/// CPU work of one executor's map-side tasks (join + message generation),
/// core-µs.
fn map_work(cfg: &JobConfig, stats: &WorkerSuperstep) -> f64 {
    (stats.edges_scanned as f64 * cfg.costs.compute_us_per_edge
        + stats.messages_sent as f64 * cfg.costs.serialize_us_per_message)
        * cfg.scale_factor
}

/// The GraphX job layout, healthy or recovering from one crash.
struct Layout<'a> {
    p: &'a GraphXPlatform,
    iterations: &'a [SuperstepStats],
    sizes: &'a Sizes,
}

impl Layout<'_> {
    fn job(&self, b: &mut JobBuilder, crash: Option<&CrashSite>) {
        let (p, cfg) = (self.p, b.cfg);
        b.process("driver");
        b.op(Actor::new("Job", "0"), "GraphXJob", 0, "job/", |b| {
            b.info("Platform", InfoValue::Text("GraphX".into()));
            b.info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()));
            b.info("Dataset", InfoValue::Text(cfg.dataset.clone()));
            b.info("Executors", InfoValue::Int(cfg.nodes as i64));
            let started = b.child("Startup", 0, "startup/", |b| self.startup(b));
            let loaded = b.child("LoadGraph", 0, "load/", |b| self.load(b, started));
            let processed = b.child("ProcessGraph", 0, "proc/", |b| {
                (0..self.iterations.len()).fold(loaded, |prev, ii| match crash {
                    Some(site) if site.unit == ii => self.recover(b, site, prev),
                    _ => self.iteration(b, ii, prev),
                })
            });
            let offloaded = b.child("OffloadGraph", 0, "offload/", |b| {
                self.offload(b, processed)
            });
            b.child("Cleanup", 0, "cleanup/", |b| {
                b.op(driver(), "StopContext", 0, "stop", |b| {
                    b.delay(p.driver_startup_us * 0.4, &[offloaded], "")
                })
            });
        });
    }

    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        let p = self.p;
        let launched = b.op(driver(), "LaunchDriver", 0, "driver", |b| {
            b.delay(p.driver_startup_us, &[], "")
        });
        let ready: Vec<ActivityId> = b.op(driver(), "LaunchExecutors", 0, "exec/", |b| {
            (0..b.cfg.nodes)
                .map(|w| {
                    b.op(executor(w), "LocalStartup", 0, &format!("w{w}"), |b| {
                        let launch_us = p.executor_launch_us * (1.0 + 0.08 * w as f64);
                        b.delay(launch_us, &[launched], "")
                    })
                })
                .collect()
        });
        b.barrier(&ready, "all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&self, b: &mut JobBuilder, started: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let (k, costs) = (cfg.nodes, &cfg.costs);
        let input = &self.sizes.input_bytes;
        // Each executor reads and parses its input split...
        let parsed: Vec<ActivityId> = (0..k)
            .map(|w| {
                b.op(executor(w), "LocalLoad", 0, &format!("w{w}/"), |b| {
                    b.rounded("InputBytes", input[w as usize]);
                    let read = b.child("ReadPartition", 0, "hdfs/", |b| {
                        b.read(&self.p.fs, w, input[w as usize], &[started], "")
                    });
                    let parse_us = input[w as usize] * costs.parse_cpu_us_per_byte;
                    b.compute(w, parse_us, costs.worker_threads, &[read], "parse")
                })
            })
            .collect();
        // ...then `partitionBy` shuffles the edge RDD into its hash layout:
        // roughly (k-1)/k of every split crosses the network...
        let mut shuffled: Vec<Vec<ActivityId>> = vec![Vec::new(); k as usize];
        b.op(driver(), "PartitionBy", 0, "shuffle/", |b| {
            for a in 0..k {
                for d in (0..k).filter(|&d| d != a) {
                    let bytes = input[a as usize] / k as f64;
                    let leaf = format!("a{a}b{d}");
                    shuffled[d as usize].push(b.transfer(
                        a,
                        d,
                        bytes,
                        &[parsed[a as usize]],
                        &leaf,
                    ));
                }
            }
        });
        // ...and each executor builds its edge partition.
        let built: Vec<ActivityId> = (0..k)
            .map(|w| {
                b.op_if(false, executor(w), "LocalLoad", 0, &format!("w{w}/"), |b| {
                    b.child("BuildPartition", 0, "build", |b| {
                        let mut deps = shuffled[w as usize].clone();
                        deps.push(parsed[w as usize]);
                        let build_us = self.sizes.edges[w as usize] as f64
                            * cfg.scale_factor
                            * costs.build_cpu_us_per_edge;
                        b.compute(w, build_us, costs.worker_threads, &deps, "")
                    })
                })
            })
            .collect();
        b.barrier(&built, "all-loaded")
    }

    // ---------------------------------------------- ProcessGraph (L1)
    fn iteration(&self, b: &mut JobBuilder, ii: usize, prev: ActivityId) -> ActivityId {
        let it = &self.iterations[ii];
        let seg = format!("it{}/", it.superstep);
        b.op(
            Actor::new("Job", "0"),
            "Iteration",
            it.superstep,
            &seg,
            |b| {
                b.scaled("ActiveVertices", it.total_active());
                b.scaled("ShuffleRecords", it.total_messages());
                self.iteration_body(b, ii, prev)
            },
        )
    }

    /// One Pregel iteration lowered to dataflow: driver scheduling, the
    /// map-side stage (join + message generation), the all-to-all shuffle,
    /// and the reduce-side stage (message aggregation + vertex update),
    /// under the current scope (an `Iteration` op, or a quiet scope under a
    /// `Recompute` op).
    fn iteration_body(
        &self,
        b: &mut JobBuilder,
        ii: usize,
        prev_barrier: ActivityId,
    ) -> ActivityId {
        let cfg = b.cfg;
        let (k, costs, scale) = (cfg.nodes, &cfg.costs, cfg.scale_factor);
        let it = &self.iterations[ii];
        let t = it.superstep;
        // The driver plans the stage pair's tasks before executors start.
        let sched = b.op(driver(), "ScheduleTasks", t, "sched", |b| {
            b.delay(self.p.task_sched_us, &[prev_barrier], "")
        });
        // Map-side stage: join vertex attributes onto edges and emit
        // messages (shuffle write).
        let maps: Vec<ActivityId> = (0..k)
            .map(|w| {
                let stats = &it.per_worker[w as usize];
                b.op(executor(w), "MapStage", t, &format!("w{w}/map"), |b| {
                    b.scaled("EdgesScanned", stats.edges_scanned);
                    let work_us = map_work(cfg, stats).max(500.0);
                    b.compute(w, work_us, costs.worker_threads, &[sched], "")
                })
            })
            .collect();
        // Shuffle: cross-executor message blocks.
        let blocks: Vec<(usize, usize, u64)> = it
            .remote_messages
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().enumerate().map(move |(d, &count)| (a, d, count)))
            .filter(|&(a, d, count)| a != d && count > 0)
            .collect();
        let mut fetches: Vec<Vec<ActivityId>> = vec![Vec::new(); k as usize];
        b.op_if(
            !blocks.is_empty(),
            driver(),
            "Shuffle",
            t,
            "shuffle/",
            |b| {
                for &(a, d, count) in &blocks {
                    let bytes = count as f64 * costs.bytes_per_message * scale;
                    let leaf = format!("a{a}b{d}");
                    fetches[d].push(b.transfer(a as u16, d as u16, bytes, &[maps[a]], &leaf));
                }
            },
        );
        // Reduce-side stage: aggregate fetched messages, update vertices.
        let reduces: Vec<ActivityId> = (0..k)
            .map(|w| {
                let stats = &it.per_worker[w as usize];
                b.op(
                    executor(w),
                    "ReduceStage",
                    t,
                    &format!("w{w}/reduce"),
                    |b| {
                        b.scaled("ActiveVertices", stats.active_vertices);
                        let work_us = ((stats.active_vertices as f64
                            * costs.compute_us_per_vertex
                            + stats.messages_received as f64 * costs.serialize_us_per_message)
                            * scale)
                            .max(500.0);
                        let mut deps = fetches[w as usize].clone();
                        deps.push(maps[w as usize]);
                        b.compute(w, work_us, costs.worker_threads, &deps, "")
                    },
                )
            })
            .collect();
        b.barrier(&reduces, "done")
    }

    /// Lineage recovery from the crash in iteration `site.unit`. The
    /// attempt the crash interrupts gets scheduling and map-side tasks but
    /// no shuffle commit — it never completes. The driver detects the lost
    /// executor, relaunches it and reschedules its tasks; the doomed
    /// lineage cut (the lost partition's input split and stage chain, fed
    /// by the shuffle outputs surviving on its peers) is recomputed, and
    /// the interrupted stage pair re-runs in full.
    fn recover(&self, b: &mut JobBuilder, site: &CrashSite, prev: ActivityId) -> ActivityId {
        let (p, cfg, ii) = (self.p, b.cfg, site.unit);
        let (costs, scale) = (&cfg.costs, cfg.scale_factor);
        let it = &self.iterations[ii];
        b.op(
            driver(),
            "FailedStage",
            it.superstep,
            &format!("it{}/", it.superstep),
            |b| {
                let sched = b.delay(p.task_sched_us, &[prev], "try/sched");
                for (w, stats) in it.per_worker.iter().enumerate() {
                    let work_us = map_work(cfg, stats).max(500.0);
                    let leaf = format!("try/w{w}/map");
                    b.compute(w as u16, work_us, costs.worker_threads, &[sched], &leaf);
                }
            },
        );
        // Only the interrupted stage pair's partial work is wasted: the
        // healthy executors keep their cached partitions and shuffle files,
        // and the lost partition is rebuilt from lineage, not re-run
        // globally.
        let wasted_us = site.failure.at_us - site.unit_starts[ii];
        let lost = site.failure.node.0;
        let lw = lost as usize;
        b.recover(
            driver(),
            "recovery/",
            &site.failure,
            wasted_us,
            |b, detect| {
                let resched = b.child("Reschedule", 0, "resched/", |b| {
                    let relaunch = b.delay(p.executor_launch_us, &[detect], "exec");
                    b.delay(p.task_sched_us * 2.0, &[relaunch], "plan")
                });
                let recomputed = (0..ii).fold(resched, |prev, i| {
                    let it = &self.iterations[i];
                    let seg = format!("recompute/it{}/", it.superstep);
                    b.child("Recompute", it.superstep, &seg, |b| {
                        let mut deps = vec![prev];
                        if i == 0 {
                            // The lineage root: re-read the input split.
                            let bytes = self.sizes.input_bytes[lw];
                            let reread = b.read(&p.fs, lost, bytes, &[prev], "split/");
                            let rebuild_us = bytes * costs.parse_cpu_us_per_byte
                                + self.sizes.edges[lw] as f64 * scale * costs.build_cpu_us_per_edge;
                            deps.push(b.compute(
                                lost,
                                rebuild_us,
                                costs.worker_threads,
                                &[reread],
                                "rebuild",
                            ));
                        } else {
                            for (a, row) in
                                self.iterations[i - 1].remote_messages.iter().enumerate()
                            {
                                if a != lw && row[lw] > 0 {
                                    let bytes = row[lw] as f64 * costs.bytes_per_message * scale;
                                    let leaf = format!("fetch/a{a}");
                                    deps.push(b.transfer(a as u16, lost, bytes, &[prev], &leaf));
                                }
                            }
                        }
                        let stats = &it.per_worker[lw];
                        let work_us = ((stats.edges_scanned as f64 * costs.compute_us_per_edge
                            + stats.active_vertices as f64 * costs.compute_us_per_vertex
                            + (stats.messages_sent + stats.messages_received) as f64
                                * costs.serialize_us_per_message)
                            * scale)
                            .max(400.0);
                        b.compute(lost, work_us, costs.worker_threads, &deps, "tasks")
                    })
                });
                let seg = format!("recompute/it{}/", it.superstep);
                b.child("Recompute", it.superstep, &seg, |b| {
                    b.quiet(|b| self.iteration_body(b, ii, recomputed))
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
                b.op(executor(w), "LocalOffload", 0, &format!("w{w}/"), |b| {
                    b.rounded("OutputBytes", bytes);
                    b.write(&self.p.fs, w, bytes, &[prev], "hdfs/")
                })
            })
            .collect();
        b.barrier(&writes, "all-done")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
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
            CostModel::giraph_like(),
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
            let (g, cfg) = job(algorithm);
            let run = GraphXPlatform::default().run(&g, &cfg).unwrap();
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GraphXPlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GraphXJob");
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
        let n_it = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Iteration")
            .count();
        assert_eq!(n_it as u32, run.iterations);
        // Every iteration is a map/reduce stage pair on every executor.
        assert_eq!(
            tree.by_mission_kind("MapStage").count(),
            8 * run.iterations as usize
        );
        assert_eq!(
            tree.by_mission_kind("ReduceStage").count(),
            8 * run.iterations as usize
        );
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GraphXPlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faultless = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn crash_recovery_recomputes_only_the_lost_lineage() {
        let (g, cfg) = job(Algorithm::PageRank { iterations: 6 });
        let p = GraphXPlatform::default();
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
            .any(|o| o.mission.kind == "FailedStage"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Reschedule"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let recomputes = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Recompute")
            .count();
        assert!(recomputes >= 1, "the doomed lineage cut must be recomputed");
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        // No iteration is lost or duplicated: the interrupted one moves
        // from the committed sequence into the recompute set.
        let committed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Iteration")
            .count();
        assert_eq!(committed + 1, healthy.iterations as usize);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = GraphXPlatform::default().run(&g, &cfg).unwrap();
        let big = GraphXPlatform::default()
            .run(&g, &cfg.clone().with_scale(50.0))
            .unwrap();
        assert!(big.makespan_us > small.makespan_us);
    }
}
