//! The PowerGraph-like platform driver.
//!
//! GAS on MPI-like provisioning with shared-filesystem storage, modeled
//! after PowerGraph 2.2 as characterized in Table 1. The structural
//! fidelity the paper's analysis depends on is the **loader**: one machine
//! reads and parses the entire input sequentially from the shared
//! filesystem while every other machine idles; only at the end of loading
//! do the others receive their edge partitions and participate in building
//! the in-memory graph (paper §4.3, Figure 7).

use gpsim_cluster::{
    ActivityGraph, ActivityId, ClusterSpec, FaultPlan, NodeCrash, NodeId, SimError, SimResult,
};
use gpsim_graph::{Graph, VertexCutPartition};
use granula_model::{Actor, InfoValue};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, MemoryPhase, PlatformRun};
use crate::gas::{self, IterationMode, IterationStats};
use crate::ops::{earliest_crash, Failure, JobBuilder};

/// Pipeline stages of the sequential loader (read chunk ↔ parse chunk).
const LOAD_CHUNKS: u32 = 16;

/// PowerGraph-like platform configuration.
#[derive(Debug, Clone)]
pub struct PowerGraphPlatform {
    /// `mpirun` + daemon startup latency, µs.
    pub mpirun_us: f64,
    /// Per-rank handshake latency, µs.
    pub per_rank_us: f64,
    /// MPI finalize latency, µs.
    pub finalize_us: f64,
    /// Parallelism of the sequential loader (PowerGraph's text parser is
    /// effectively single-threaded; 1-2 threads).
    pub loader_threads: u32,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
    /// Time for the MPI runtime to notice a dead rank and abort the job
    /// (fail-stop), µs.
    pub failure_detect_us: f64,
}

impl Default for PowerGraphPlatform {
    fn default() -> Self {
        PowerGraphPlatform {
            mpirun_us: 4.0e6,
            per_rank_us: 0.2e6,
            finalize_us: 3.0e6,
            loader_threads: 2,
            max_iterations: 10_000,
            failure_detect_us: 2.0e6,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &VertexCutPartition,
    algorithm: Algorithm,
    max_iterations: u32,
) -> (AlgorithmOutput, Vec<IterationStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = gas::run(
                g,
                part,
                &mut gas::BfsGas { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Levels(out.values), out.iterations)
        }
        Algorithm::PageRank { iterations } => {
            let out = gas::run_pagerank_gas(g, part, iterations, 0.85);
            (AlgorithmOutput::Ranks(out.values), out.iterations)
        }
        Algorithm::Wcc => {
            let out = gas::run(
                g,
                part,
                &mut gas::WccGas,
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
        Algorithm::Sssp { source } => {
            let out = gas::run(
                g,
                part,
                &mut gas::SsspGas { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Distances(out.values), out.iterations)
        }
        Algorithm::Cdlp { iterations } => {
            let out = gas::run(g, part, &mut gas::CdlpGas, IterationMode::Fixed(iterations));
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
    }
}

impl PowerGraphPlatform {
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

    /// Runs a job on an explicit cluster.
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
    /// PowerGraph has no checkpointing: MPI is fail-stop, so a node crash
    /// aborts the whole job once the runtime notices the dead rank, and the
    /// job is resubmitted from scratch. The aborted attempt keeps its
    /// original operation tags (truncated at the abort), the restart runs
    /// under `job/r1/` with `:r1`-suffixed mission ids, and the abort +
    /// respawn window is emitted as a `Recover` operation (with
    /// `DetectFailure` and `Respawn` children) carrying the lost node and
    /// the wasted first-attempt time.
    ///
    /// Only the earliest crash in the plan is modeled (one restart); later
    /// crashes are dropped from the executed plan.
    pub fn run_on_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        assert!(
            cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
            "cluster too small for {} machines",
            cfg.nodes
        );
        let k = cfg.nodes;
        let part = VertexCutPartition::greedy(g, k);
        let (output, iterations) = {
            let _span = granula_trace::span!("platform", "powergraph.gas_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_iterations)
        };

        // Per-machine sizes.
        let mut masters = vec![0u64; k as usize];
        for v in 0..g.num_vertices() {
            masters[part.master_of(v) as usize] += 1;
        }
        let layout = Layout {
            p: self,
            iterations: &iterations,
            edge_sizes: &part.sizes(),
            masters: &masters,
            total_bytes: (g.num_vertices() as f64 * 10.0
                + g.num_edges() as f64 * cfg.costs.bytes_per_edge_in)
                * cfg.scale_factor,
        };
        let mut b = JobBuilder::new("powergraph", cluster, cfg, ("Machine", "machine"));
        b.process("mpirun");
        let exec = b.op(Actor::new("Job", "0"), "PowerGraphJob", 0, "job/", |b| {
            b.info("Platform", InfoValue::Text("PowerGraph".into()));
            b.info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()));
            b.info("Dataset", InfoValue::Text(cfg.dataset.clone()));
            b.info("Machines", InfoValue::Int(k as i64));
            b.info(
                "ReplicationFactor",
                InfoValue::Float(part.replication_factor()),
            );
            layout.attempt(b, &[]);
            match earliest_crash(plan) {
                Some(crash) => layout.restart(b, plan, &crash),
                None => Ok(plan.clone()),
            }
        })?;
        b.finish(&exec, output, iterations.len(), |b, sim| {
            layout.memory(b, sim)
        })
    }
}

fn master() -> Actor {
    Actor::new("Master", "0")
}

fn machine(m: u16) -> Actor {
    Actor::new("Machine", m.to_string())
}

/// The PowerGraph job layout: one attempt, and the fail-stop restart.
struct Layout<'a> {
    p: &'a PowerGraphPlatform,
    iterations: &'a [IterationStats],
    edge_sizes: &'a [u64],
    masters: &'a [u64],
    total_bytes: f64,
}

impl Layout<'_> {
    /// One full job attempt under the current scope; `deps` gates its
    /// first activity.
    fn attempt(&self, b: &mut JobBuilder, deps: &[ActivityId]) {
        let (p, cfg) = (self.p, b.cfg);
        let (k, costs, scale) = (cfg.nodes, &cfg.costs, cfg.scale_factor);

        // -------------------------------------------------- Startup (L1)
        let started = b.child("Startup", 0, "startup/", |b| {
            let ranks: Vec<ActivityId> = b.op(master(), "MpiSetup", 0, "mpi/", |b| {
                let mpirun = b.delay(p.mpirun_us, deps, "daemon");
                (0..k)
                    .map(|m| b.delay(p.per_rank_us, &[mpirun], &format!("rank-{m}")))
                    .collect()
            });
            b.barrier(&ranks, "ready")
        });

        // ------------------------------------------------ LoadGraph (L1)
        b.process("machine-0");
        let loaded = b.child("LoadGraph", 0, "load/", |b| {
            // Sequential read + parse pipeline, all on machine 0.
            let parsed = b.op(machine(0), "SequentialLoad", 0, "seq/", |b| {
                b.rounded("InputBytes", self.total_bytes);
                let chunk = self.total_bytes / LOAD_CHUNKS as f64;
                let (mut prev_read, mut prev_parse) = (started, None);
                for c in 0..LOAD_CHUNKS {
                    let read = b.shared_read(0, chunk, &[prev_read], &format!("read/c{c}"));
                    // The parser is sequential: chunk c+1 is parsed only
                    // after chunk c — reads are pipelined ahead, parsing is
                    // the bottleneck.
                    let deps: Vec<ActivityId> = [read].into_iter().chain(prev_parse).collect();
                    let parse_us = chunk * costs.parse_cpu_us_per_byte;
                    let leaf = format!("parse/c{c}");
                    prev_parse = Some(b.compute(0, parse_us, p.loader_threads, &deps, &leaf));
                    prev_read = read;
                }
                b.barrier(&[prev_parse.expect("LOAD_CHUNKS > 0")], "done")
            });
            // Distribute edge partitions to the other machines.
            let mut finalize_deps = vec![(0, parsed)];
            b.op(machine(0), "DistributeEdges", 0, "dist/", |b| {
                for m in 1..k {
                    let bytes =
                        self.edge_sizes[m as usize] as f64 * costs.bytes_per_edge_in * scale;
                    finalize_deps.push((m, b.transfer(0, m, bytes, &[parsed], &format!("m{m}"))));
                }
            });
            // All machines build their local graph structures.
            let built: Vec<ActivityId> = finalize_deps
                .into_iter()
                .map(|(m, dep)| {
                    let edges = self.edge_sizes[m as usize];
                    b.op(machine(m), "FinalizeGraph", 0, &format!("fin/m{m}/"), |b| {
                        b.scaled("LocalEdges", edges);
                        let build_us = edges as f64 * scale * costs.build_cpu_us_per_edge;
                        b.compute(m, build_us, costs.worker_threads, &[dep], "build")
                    })
                })
                .collect();
            b.barrier(&built, "all-loaded")
        });

        // ---------------------------------------------- ProcessGraph (L1)
        let processed = b.child("ProcessGraph", 0, "proc/", |b| {
            self.iterations
                .iter()
                .fold(loaded, |prev, it| self.iteration(b, it, prev))
        });

        // --------------------------------------------- OffloadGraph (L1)
        let offloaded = b.child("OffloadGraph", 0, "offload/", |b| {
            let writes: Vec<ActivityId> = (0..k)
                .map(|m| {
                    let bytes =
                        self.masters[m as usize] as f64 * costs.bytes_per_vertex_out * scale;
                    b.op(machine(m), "LocalOffload", 0, &format!("m{m}/"), |b| {
                        b.rounded("OutputBytes", bytes);
                        b.shared_read(m, bytes, &[processed], "write")
                    })
                })
                .collect();
            b.barrier(&writes, "done")
        });

        // -------------------------------------------------- Cleanup (L1)
        b.process("mpirun");
        b.child("Cleanup", 0, "cleanup/", |b| {
            b.op(master(), "MpiFinalize", 0, "finalize", |b| {
                b.delay(p.finalize_us, &[offloaded], "")
            })
        });
    }

    /// One GAS iteration: per-machine gather, the replica-sync exchange,
    /// per-machine apply + scatter, and the iteration barrier.
    fn iteration(&self, b: &mut JobBuilder, it: &IterationStats, prev: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let (k, costs, scale) = (cfg.nodes, &cfg.costs, cfg.scale_factor);
        let t = it.iteration;
        b.child("Iteration", t, &format!("it{t}/"), |b| {
            b.scaled("ActiveVertices", it.active_vertices);
            let _span =
                granula_trace::span!("platform", "powergraph.iteration.build {}", b.tag(""));
            // Gather minor-step on every machine.
            let gathers: Vec<ActivityId> = (0..k)
                .map(|m| {
                    let edges = it.per_machine[m as usize].gather_edges;
                    b.op(machine(m), "Gather", t, &format!("m{m}/gather"), |b| {
                        b.scaled("GatherEdges", edges);
                        let work_us = (edges as f64 * costs.compute_us_per_edge * scale).max(500.0);
                        b.compute(m, work_us, costs.worker_threads, &[prev], "")
                    })
                })
                .collect();
            // Exchange: replica syncs between machines.
            let syncs: u64 = it.sync_matrix.iter().flatten().sum();
            let exchanged = b.op_if(syncs > 0, master(), "Exchange", t, "ex/", |b| {
                b.scaled("SyncMessages", syncs);
                let mut deps = Vec::new();
                for (a, row) in it.sync_matrix.iter().enumerate() {
                    for (d, &count) in row.iter().enumerate().filter(|&(_, &c)| c > 0) {
                        let bytes = count as f64 * costs.bytes_per_message * scale;
                        let leaf = format!("a{a}b{d}");
                        deps.push(b.transfer(a as u16, d as u16, bytes, &[gathers[a]], &leaf));
                    }
                }
                if deps.is_empty() {
                    return b.barrier(&gathers, "none");
                }
                deps.extend_from_slice(&gathers);
                b.barrier(&deps, "join")
            });
            // Apply + scatter per machine.
            let scatters: Vec<ActivityId> = (0..k)
                .map(|m| {
                    let stats = &it.per_machine[m as usize];
                    let apply = b.op(machine(m), "Apply", t, &format!("m{m}/apply"), |b| {
                        let work_us =
                            (stats.apply_vertices as f64 * costs.compute_us_per_vertex * scale)
                                .max(200.0);
                        b.compute(m, work_us, costs.worker_threads, &[exchanged], "")
                    });
                    b.op(machine(m), "Scatter", t, &format!("m{m}/scatter"), |b| {
                        let work_us =
                            (stats.scatter_edges as f64 * costs.compute_us_per_edge * 0.5 * scale)
                                .max(200.0);
                        b.compute(m, work_us, costs.worker_threads, &[apply], "")
                    })
                })
                .collect();
            let join = b.barrier(&scatters, "barrier/join");
            b.delay(costs.barrier_us, &[join], "barrier/sync")
        })
    }

    /// Fail-stop: the first attempt is cut at the abort (only activities
    /// that had started by then are kept, learned from a probe under the
    /// plan's slowdowns), then the runtime detects the dead rank,
    /// respawns MPI, and the whole job runs again under `job/r1/`. Returns
    /// the plan to execute: every rank dies at the abort and is back for
    /// the restart.
    fn restart(
        &self,
        b: &mut JobBuilder,
        plan: &FaultPlan,
        crash: &NodeCrash,
    ) -> Result<FaultPlan, SimError> {
        let (p, k) = (self.p, b.cfg.nodes);
        let _span = granula_trace::span!("platform", "powergraph.recovery.build {}", b.cfg.job_id);
        let probe = b.probe(plan)?;
        let at_us = crash.at_us.clamp(1.0, (probe.makespan_us - 1.0).max(1.0));

        // The kept set is dependency-closed (an activity starts only after
        // its dependencies ended), so ids remap cleanly. Specs keep their
        // tags: operations that never started have no span and are
        // skipped at emission.
        let mut kept = ActivityGraph::new();
        let mut map: Vec<Option<ActivityId>> = Vec::with_capacity(b.dag.len());
        for a in b.dag.iter() {
            if probe.results[a.id.0 as usize].start_us >= at_us {
                map.push(None);
                continue;
            }
            let deps: Vec<ActivityId> = a.deps.iter().filter_map(|d| map[d.0 as usize]).collect();
            map.push(Some(kept.add(*a.kind, &deps, a.tag_symbol())));
        }
        b.dag = kept;

        let failure = Failure {
            node: crash.node,
            at_us,
            detect_us: p.failure_detect_us,
        };
        let respawned = b.recover(master(), "fail/", &failure, at_us, |b, detect| {
            b.child("Respawn", 0, "respawn/", |b| {
                let mpirun = b.delay(p.mpirun_us, &[detect], "mpi/daemon");
                let ranks: Vec<ActivityId> = (0..k)
                    .map(|m| b.delay(p.per_rank_us, &[mpirun], &format!("mpi/rank-{m}")))
                    .collect();
                b.barrier(&ranks, "ready")
            })
        });
        b.retry("r1/", ":r1", |b| self.attempt(b, &[respawned]));
        Ok(FaultPlan {
            crashes: (0..k)
                .map(|m| NodeCrash {
                    node: NodeId(m),
                    at_us,
                    restart_after_us: Some(p.failure_detect_us),
                })
                .collect(),
            slowdowns: plan.slowdowns.clone(),
        })
    }

    /// Memory view. Machine 0 temporarily holds the *entire* parsed edge
    /// list as a staging buffer during the sequential load, released once
    /// partitions have been distributed — the memory-pressure signature of
    /// the single-loader design. Partitions then stay resident until MPI
    /// finalize. A restarted attempt repeats the pattern under its own tag
    /// prefix.
    fn memory(&self, b: &JobBuilder, sim: &SimResult) -> Vec<MemoryPhase> {
        let span = |tag: String| sim.span_of_tag(&b.dag, &tag);
        let mut phases = Vec::with_capacity(2 * (b.cfg.nodes as usize + 1));
        for prefix in ["job/", "job/r1/"] {
            if prefix == "job/r1/" && span(prefix.into()).is_none() {
                continue;
            }
            let seq = span(format!("{prefix}load/seq/"));
            if let (Some((start, end)), Some((_, released))) =
                (seq, span(format!("{prefix}load/dist/")).or(seq))
            {
                phases.push(MemoryPhase {
                    node: b.cluster.node(NodeId(0)).name.clone(),
                    ramp_start_us: start.round() as u64,
                    ramp_end_us: end.round() as u64,
                    hold_until_us: released.round() as u64,
                    bytes: self.total_bytes,
                });
            }
            phases.extend(b.resident(sim, prefix, "load/fin/m", self.edge_sizes));
        }
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::{Assembler, ResourceKind};

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
    fn bfs_run_produces_correct_output() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = PowerGraphPlatform::default().run(&g, &cfg).unwrap();
        assert!(run.output.matches(&reference_output(&g, cfg.algorithm)));
        assert!(run.makespan_us > 0);
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = PowerGraphPlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "PowerGraphJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
    }

    #[test]
    fn loading_is_sequential_on_one_machine() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let cfg = cfg.with_scale(1_000.0);
        let run = PowerGraphPlatform::default().run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events.clone()).tree;
        let root = tree.root().unwrap();
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        let (ls, le) = (
            tree.op(load).start_us().unwrap(),
            tree.op(load).end_us().unwrap(),
        );
        // During the first 60% of LoadGraph, only machine 0 consumes CPU.
        let cutoff = ls + (le - ls) * 6 / 10;
        let mut busy_others = 0.0f64;
        let mut busy_head = 0.0f64;
        for s in &run.env_samples {
            if s.kind == ResourceKind::Cpu && s.time_us >= ls && s.time_us < cutoff {
                if s.node == "node300" {
                    busy_head += s.value;
                } else {
                    busy_others += s.value;
                }
            }
        }
        assert!(busy_head > 0.0, "head node should be busy parsing");
        assert!(
            busy_others < 0.05 * busy_head,
            "other machines should idle during sequential load: head={busy_head} others={busy_others}"
        );
    }

    #[test]
    fn io_dominates_at_dg1000_scale() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        // Emulate a dg1000-sized input from the small logical graph.
        let cfg = cfg.with_scale(25_000.0);
        let run = PowerGraphPlatform::default().run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let total = tree.op(root).duration_us().unwrap() as f64;
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        let load_frac = tree.op(load).duration_us().unwrap() as f64 / total;
        assert!(load_frac > 0.7, "LoadGraph should dominate: {load_frac}");
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let proc_frac = tree.op(proc_).duration_us().unwrap() as f64 / total;
        assert!(proc_frac < 0.2, "processing should be small: {proc_frac}");
    }

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Cdlp { iterations: 3 },
        ] {
            let (g, cfg) = job(algorithm);
            let run = PowerGraphPlatform::default().run(&g, &cfg).unwrap();
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faulted = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faulted.makespan_us);
        assert_eq!(plain.events, faulted.events);
    }

    #[test]
    fn crash_triggers_full_restart() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.5);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        assert!(
            faulty.makespan_us > healthy.makespan_us,
            "fail-stop restart must cost time: {} vs {}",
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
        let recover = tree
            .child_by_mission(root, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Respawn"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "WastedUs" && i.value.as_i64().is_some_and(|v| v > 0)));
        // The restarted attempt runs as distinct `:r1` operations.
        let restarted = tree
            .children(root)
            .filter(|o| o.mission.id.ends_with(":r1"))
            .map(|o| o.mission.kind.clone())
            .collect::<Vec<_>>();
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(
                restarted.iter().any(|k| k == m),
                "missing restarted {m}: {restarted:?}"
            );
        }
        // The restart finishes the job: its cleanup ends at the makespan.
        let cleanup2 = tree
            .children(root)
            .find(|o| o.mission.kind == "Cleanup" && o.mission.id.ends_with(":r1"))
            .unwrap();
        assert!(cleanup2.end_us().unwrap() > healthy.makespan_us);
    }

    #[test]
    fn crash_during_load_wastes_only_partial_load() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let healthy = p.run(&g, &cfg).unwrap();
        // Crash early, while machine 0 is still parsing.
        let plan = FaultPlan::new().crash(NodeId(0), healthy.makespan_us as f64 * 0.1);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        let tree = Assembler::new().assemble(faulty.events).tree;
        let root = tree.root().unwrap();
        // The doomed attempt never reached processing.
        assert!(tree
            .children(root)
            .filter(|o| o.mission.kind == "ProcessGraph")
            .all(|o| o.mission.id.ends_with(":r1")));
        let recover = tree.child_by_mission(root, "Recover").unwrap();
        let wasted = tree
            .op(recover)
            .infos
            .iter()
            .find(|i| i.name == "WastedUs")
            .and_then(|i| i.value.as_i64())
            .unwrap();
        assert!(
            (wasted as u64) < healthy.makespan_us / 4,
            "early crash should waste little: {wasted}"
        );
    }
}
