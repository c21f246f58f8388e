//! The Giraph-like platform driver.
//!
//! Pregel/BSP on YARN-like provisioning with HDFS-like storage, modeled
//! after Apache Giraph 1.2 as characterized in Table 1 and Figure 4 of the
//! paper. The driver:
//!
//! 1. hash-partitions the vertices over the workers (edge-cut);
//! 2. executes the vertex program with the [`crate::pregel`] engine,
//!    collecting per-superstep, per-worker counters;
//! 3. compiles the job into an activity DAG — YARN container negotiation
//!    and JVM launches, pipelined HDFS read + parse + in-memory build per
//!    worker, per-superstep PreStep/Compute/Message/PostStep with a
//!    ZooKeeper-like global barrier, HDFS offload with replication, and the
//!    multi-stage cleanup of Figure 4;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.

use gpsim_cluster::{ActivityId, ClusterSpec, FaultPlan, FileSystem, SimError, YarnProvisioner};
use gpsim_graph::{EdgeCutPartition, Graph};
use granula_model::{Actor, InfoValue};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, PlatformRun};
use crate::ops::{CrashSite, JobBuilder, Sizes};
use crate::pregel::{self, SuperstepStats, WorkerSuperstep};

/// Number of read→parse pipeline stages per worker during LoadGraph.
const LOAD_CHUNKS: u32 = 8;

/// Giraph-like platform: configuration knobs beyond the job's cost model.
#[derive(Debug, Clone)]
pub struct GiraphPlatform {
    /// Client ↔ ResourceManager negotiation latency, µs.
    pub negotiation_us: f64,
    /// Per-container allocation latency, µs.
    pub container_alloc_us: f64,
    /// JVM startup per worker, µs.
    pub jvm_startup_us: f64,
    /// ZooKeeper registration per worker, µs.
    pub zk_register_us: f64,
    /// Cleanup stage latencies (AbortWorkers, ClientCleanup, ServerCleanup,
    /// ZkCleanup), µs.
    pub cleanup_us: [f64; 4],
    /// HDFS-like storage.
    pub fs: FileSystem,
    /// Superstep cap for convergent algorithms.
    pub max_supersteps: u32,
    /// Checkpoint every K supersteps (`None` disables checkpointing, the
    /// Giraph default). Required for worker-loss recovery: without a
    /// checkpoint the job reloads the input and replays from superstep 0.
    pub checkpoint_interval: Option<u32>,
    /// Time for the master to notice a lost worker (missed ZooKeeper
    /// heartbeats), µs.
    pub failure_detect_us: f64,
}

impl Default for GiraphPlatform {
    fn default() -> Self {
        GiraphPlatform {
            negotiation_us: 2.5e6,
            container_alloc_us: 1.0e6,
            jvm_startup_us: 4.5e6,
            zk_register_us: 1.2e6,
            cleanup_us: [2.0e6, 4.0e6, 5.0e6, 3.0e6],
            fs: FileSystem::hdfs(),
            max_supersteps: 10_000,
            checkpoint_interval: None,
            failure_detect_us: 2.0e6,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &EdgeCutPartition,
    algorithm: Algorithm,
    max_supersteps: u32,
) -> (AlgorithmOutput, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            // Size-dispatched: full-scale graphs take the flat frontier
            // engine, which produces bit-identical counters.
            let out = pregel::run_bfs(g, part, source, max_supersteps);
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
                max_supersteps,
            );
            (AlgorithmOutput::Ranks(out.values), out.supersteps)
        }
        Algorithm::Wcc => {
            let out = pregel::run(g, part, &pregel::WccProgram, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
        Algorithm::Sssp { source } => {
            let out = pregel::run(g, part, &pregel::SsspProgram { source }, max_supersteps);
            (AlgorithmOutput::Distances(out.values), out.supersteps)
        }
        Algorithm::Cdlp { iterations } => {
            let out = pregel::run(g, part, &pregel::CdlpProgram { iterations }, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
    }
}

impl GiraphPlatform {
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
    /// crash triggers the Giraph recovery protocol: the master detects the
    /// lost worker through missed ZooKeeper heartbeats, re-provisions a
    /// YARN container, every worker rolls back to the latest checkpoint
    /// (or the original input when [`GiraphPlatform::checkpoint_interval`]
    /// is `None`), and the lost supersteps are replayed. The recovery is
    /// emitted as first-class Granula operations (`Checkpoint`,
    /// `FailedSuperstep`, `Recover` with `DetectFailure` / `Provision` /
    /// `LoadCheckpoint` / `Replay` children) so the archive can decompose
    /// the slowdown.
    ///
    /// Only the earliest crash in the plan is modeled; Giraph's
    /// single-failure recovery does not compose with further crashes, so
    /// later ones are dropped from the executed plan.
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
        let part = EdgeCutPartition::hash(g.num_vertices(), cfg.nodes);
        let (output, supersteps) = {
            let _span = granula_trace::span!("platform", "giraph.vertex_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_supersteps)
        };
        let sizes = Sizes::new(g, cfg, |v| part.owner_of(v));
        let layout = Layout {
            p: self,
            supersteps: &supersteps,
            sizes: &sizes,
        };
        let units: Vec<String> = supersteps
            .iter()
            .map(|ss| format!("job/proc/ss{}/", ss.superstep))
            .collect();
        let (b, exec) = JobBuilder::new("giraph", cluster, cfg, ("Worker", "worker"))
            .single_failure(plan, self.failure_detect_us, &units, |b, crash| {
                layout.job(b, crash)
            })?;
        b.finish(&exec, output, supersteps.len(), |b, sim| {
            b.resident(sim, "job/", "load/w", &sizes.edges)
        })
    }
}

fn master() -> Actor {
    Actor::new("Master", "0")
}

fn worker(w: u16) -> Actor {
    Actor::new("Worker", w.to_string())
}

/// CPU work of one worker's superstep compute, core-µs.
fn work(cfg: &JobConfig, stats: &WorkerSuperstep) -> f64 {
    let costs = &cfg.costs;
    (stats.edges_scanned as f64 * costs.compute_us_per_edge
        + stats.active_vertices as f64 * costs.compute_us_per_vertex
        + stats.messages_sent as f64 * costs.serialize_us_per_message)
        * cfg.scale_factor
}

/// The Giraph job layout, healthy or recovering from one crash.
struct Layout<'a> {
    p: &'a GiraphPlatform,
    supersteps: &'a [SuperstepStats],
    sizes: &'a Sizes,
}

impl Layout<'_> {
    fn job(&self, b: &mut JobBuilder, crash: Option<&CrashSite>) {
        let cfg = b.cfg;
        b.process("client");
        b.op(Actor::new("Job", "0"), "GiraphJob", 0, "job/", |b| {
            b.info("Platform", InfoValue::Text("Giraph".into()));
            b.info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()));
            b.info("Dataset", InfoValue::Text(cfg.dataset.clone()));
            b.info("Workers", InfoValue::Int(cfg.nodes as i64));
            let started = b.child("Startup", 0, "startup/", |b| self.startup(b));
            let loaded = b.child("LoadGraph", 0, "load/", |b| self.load(b, started));
            let processed = b.child("ProcessGraph", 0, "proc/", |b| {
                b.process("master");
                let mut prev = loaded;
                for si in 0..self.supersteps.len() {
                    prev = match crash {
                        Some(site) if site.unit == si => self.recover(b, site, prev),
                        _ => self.superstep(b, si, prev),
                    };
                    prev = self.maybe_checkpoint(b, si, prev);
                }
                prev
            });
            let offloaded = b.child("OffloadGraph", 0, "offload/", |b| {
                self.offload(b, processed)
            });
            b.child("Cleanup", 0, "cleanup/", |b| self.cleanup(b, offloaded));
        });
    }

    /// Vertex-state bytes of worker `w` (checkpoint and output size).
    fn state_bytes(&self, cfg: &JobConfig, w: u16) -> f64 {
        self.sizes.verts[w as usize] as f64 * cfg.costs.bytes_per_vertex_out * cfg.scale_factor
    }

    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        let p = self.p;
        b.process("master");
        let negotiate = b.op(master(), "JobStartup", 0, "jobstartup/", |b| {
            b.delay(p.negotiation_us, &[], "negotiate")
        });
        let ready: Vec<ActivityId> = b.op(master(), "LaunchWorkers", 0, "launch/", |b| {
            (0..b.cfg.nodes)
                .map(|w| {
                    b.op(worker(w), "LocalStartup", 0, &format!("w{w}/"), |b| {
                        let alloc_us = p.container_alloc_us * (1.0 + 0.12 * w as f64);
                        let alloc = b.delay(alloc_us, &[negotiate], "alloc");
                        let jvm = b.delay(p.jvm_startup_us, &[alloc], "jvm");
                        b.delay(p.zk_register_us, &[jvm], "zk")
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
                    b.child("LoadHdfsData", 0, "hdfs/", |_| ());
                    // Pipelined chunks: read c -> parse c; read c+1 after read c.
                    let chunk = bytes / LOAD_CHUNKS as f64;
                    let (mut prev_read, mut prev_parse) = (started, None);
                    for c in 0..LOAD_CHUNKS {
                        let read =
                            b.read(&self.p.fs, w, chunk, &[prev_read], &format!("hdfs/c{c}/"));
                        // The worker's parser pool handles one chunk at a
                        // time at `worker_threads` parallelism; reads are
                        // pipelined ahead.
                        let deps: Vec<ActivityId> = [read].into_iter().chain(prev_parse).collect();
                        let parse_us = chunk * costs.parse_cpu_us_per_byte;
                        let leaf = format!("parse/c{c}");
                        prev_parse =
                            Some(b.compute(w, parse_us, costs.worker_threads, &deps, &leaf));
                        prev_read = read;
                    }
                    let parsed = b.barrier(&[prev_parse.expect("LOAD_CHUNKS > 0")], "parse/done");
                    let build_us = self.sizes.edges[w as usize] as f64
                        * cfg.scale_factor
                        * costs.build_cpu_us_per_edge;
                    b.compute(w, build_us, costs.worker_threads, &[parsed], "build")
                })
            })
            .collect();
        b.barrier(&loaded, "all-loaded")
    }

    // ---------------------------------------------- ProcessGraph (L1)
    fn superstep(&self, b: &mut JobBuilder, si: usize, prev: ActivityId) -> ActivityId {
        let ss = &self.supersteps[si];
        let seg = format!("ss{}/", ss.superstep);
        b.op(
            Actor::new("Job", "0"),
            "Superstep",
            ss.superstep,
            &seg,
            |b| {
                b.scaled("ActiveVertices", ss.total_active());
                b.scaled("MessagesSent", ss.total_messages());
                self.superstep_body(b, si, prev)
            },
        )
    }

    /// One BSP superstep: per-worker PreStep/Compute/Message/PostStep and
    /// the ZooKeeper-coordinated global barrier, under the current scope
    /// (a `Superstep` op, or a quiet scope under a `Replay` op).
    fn superstep_body(
        &self,
        b: &mut JobBuilder,
        si: usize,
        prev_barrier: ActivityId,
    ) -> ActivityId {
        let cfg = b.cfg;
        let costs = &cfg.costs;
        let ss = &self.supersteps[si];
        let s = ss.superstep;
        let _span = granula_trace::span!("platform", "giraph.superstep.build {}", b.tag(""));
        let computes: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let stats = &ss.per_worker[w as usize];
                b.op(worker(w), "LocalSuperstep", s, &format!("w{w}/"), |b| {
                    let pre = b.child("PreStep", s, "pre", |b| {
                        b.delay(costs.barrier_us * 0.4, &[prev_barrier], "")
                    });
                    b.child("Compute", s, "compute", |b| {
                        b.scaled("EdgesScanned", stats.edges_scanned);
                        b.scaled("ActiveVertices", stats.active_vertices);
                        // Idle workers still tick over the barrier machinery.
                        let work_us = work(cfg, stats).max(1_000.0);
                        b.compute(w, work_us, costs.worker_threads, &[pre], "")
                    })
                })
            })
            .collect();
        let posts: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let stats = &ss.per_worker[w as usize];
                let row = &ss.remote_messages[w as usize];
                let remote: u64 = (0..cfg.nodes)
                    .filter(|&d| d != w)
                    .map(|d| row[d as usize])
                    .sum();
                b.op_if(
                    false,
                    worker(w),
                    "LocalSuperstep",
                    s,
                    &format!("w{w}/"),
                    |b| {
                        // Message flushing: transfers to workers receiving
                        // remote messages from this worker.
                        let mut deps: Vec<ActivityId> =
                            b.op_if(remote > 0, worker(w), "Message", s, "msg/", |b| {
                                b.scaled("RemoteMessages", remote);
                                b.scaled("MessagesSent", stats.messages_sent);
                                (0..cfg.nodes)
                                    .filter(|&d| d != w && row[d as usize] > 0)
                                    .map(|d| {
                                        let bytes = row[d as usize] as f64
                                            * costs.bytes_per_message
                                            * cfg.scale_factor;
                                        b.transfer(
                                            w,
                                            d,
                                            bytes,
                                            &[computes[w as usize]],
                                            &format!("to{d}"),
                                        )
                                    })
                                    .collect()
                            });
                        deps.push(computes[w as usize]);
                        b.child("PostStep", s, "post", |b| {
                            b.delay(costs.barrier_us * 0.6, &deps, "")
                        })
                    },
                )
            })
            .collect();
        // ZooKeeper-coordinated global barrier.
        b.op(master(), "SyncZookeeper", s, "zk/", |b| {
            let join = b.barrier(&posts, "join");
            b.delay(costs.barrier_us * 0.3, &[join], "sync")
        })
    }

    /// Synchronous checkpoint after superstep index `si` when the cadence
    /// says so (never after the final superstep — nothing is left to
    /// protect): every worker writes its vertex state to the DFS before the
    /// next superstep may start.
    fn maybe_checkpoint(&self, b: &mut JobBuilder, si: usize, prev: ActivityId) -> ActivityId {
        let s = self.supersteps[si].superstep;
        let interval = self.p.checkpoint_interval.unwrap_or(0);
        if interval == 0 || !(s + 1).is_multiple_of(interval) || si + 1 == self.supersteps.len() {
            return prev;
        }
        let _span = granula_trace::span!("platform", "giraph.checkpoint.build ss{s}");
        b.op(master(), "Checkpoint", s, &format!("ckpt{s}/"), |b| {
            b.info("IntervalSupersteps", InfoValue::Int(interval as i64));
            let writes: Vec<ActivityId> = (0..b.cfg.nodes)
                .map(|w| {
                    let bytes = self.state_bytes(b.cfg, w);
                    b.write(&self.p.fs, w, bytes, &[prev], &format!("w{w}/"))
                })
                .collect();
            b.barrier(&writes, "done")
        })
    }

    /// Recovery from the crash in superstep `site.unit`. The attempt the
    /// crash interrupts gets pre-step and compute but no barrier — it never
    /// commits; then the master detects the lost worker through missed
    /// ZooKeeper heartbeats, re-provisions a YARN container, every worker
    /// rolls back to the latest checkpoint (or the input) and the lost
    /// supersteps are replayed, each covered by one `Replay` op.
    fn recover(&self, b: &mut JobBuilder, site: &CrashSite, prev: ActivityId) -> ActivityId {
        let (p, cfg, si) = (self.p, b.cfg, site.unit);
        let ss = &self.supersteps[si];
        b.op(
            master(),
            "FailedSuperstep",
            ss.superstep,
            &format!("ss{}/", ss.superstep),
            |b| {
                for w in 0..cfg.nodes {
                    let pre = b.delay(
                        cfg.costs.barrier_us * 0.4,
                        &[prev],
                        &format!("try/w{w}/pre"),
                    );
                    let work_us = work(cfg, &ss.per_worker[w as usize]).max(1_000.0);
                    let leaf = format!("try/w{w}/compute");
                    b.compute(w, work_us, cfg.costs.worker_threads, &[pre], &leaf);
                }
            },
        );
        // Latest checkpoint before the failed superstep; replay restarts
        // after it, or from superstep 0 off the original input when the job
        // never checkpointed.
        let ckpt = p.checkpoint_interval.filter(|&kk| kk > 0).and_then(|kk| {
            (0..si)
                .rev()
                .find(|&i| (self.supersteps[i].superstep + 1).is_multiple_of(kk))
        });
        let from = ckpt.map_or(0, |c| c + 1);
        let since = if from == 0 {
            site.proc_start_us
        } else {
            site.unit_starts[from]
        };
        let wasted_us = site.failure.at_us - since;
        b.recover(
            master(),
            "recovery/",
            &site.failure,
            wasted_us,
            |b, detect| {
                let provisioner = YarnProvisioner {
                    negotiation_us: p.negotiation_us,
                    container_alloc_us: p.container_alloc_us,
                    jvm_startup_us: p.jvm_startup_us,
                    zk_sync_us: p.zk_register_us,
                    ..YarnProvisioner::default()
                };
                let tag = b.tag("provision");
                let provisioned = provisioner.reprovision(&mut b.dag, 1, &[detect], &tag);
                b.child("Provision", 0, "provision/", |_| ());
                // All workers roll back: reload the checkpointed vertex state
                // (or re-read the input when no checkpoint exists).
                let reloaded = b.child("LoadCheckpoint", 0, "reload/", |b| {
                    let reads: Vec<ActivityId> = (0..cfg.nodes)
                        .map(|w| {
                            let bytes = match ckpt {
                                Some(_) => self.state_bytes(cfg, w),
                                None => self.sizes.input_bytes[w as usize],
                            };
                            b.read(&p.fs, w, bytes, &[provisioned], &format!("w{w}/"))
                        })
                        .collect();
                    b.barrier(&reads, "done")
                });
                (from..=si).fold(reloaded, |prev, i| {
                    let s = self.supersteps[i].superstep;
                    b.child("Replay", s, &format!("replay/ss{s}/"), |b| {
                        b.quiet(|b| self.superstep_body(b, i, prev))
                    })
                })
            },
        )
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&self, b: &mut JobBuilder, prev: ActivityId) -> ActivityId {
        let cfg = b.cfg;
        let writes: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let bytes = self.state_bytes(cfg, w);
                b.op(worker(w), "LocalOffload", 0, &format!("w{w}/"), |b| {
                    b.rounded("OutputBytes", bytes);
                    b.child("OffloadHdfsData", 0, "hdfs/", |b| {
                        b.write(&self.p.fs, w, bytes, &[prev], "")
                    })
                })
            })
            .collect();
        b.barrier(&writes, "all-done")
    }

    // -------------------------------------------------- Cleanup (L1)
    fn cleanup(&self, b: &mut JobBuilder, offloaded: ActivityId) {
        let us = self.p.cleanup_us;
        b.process("master");
        let aborted = b.op(master(), "AbortWorkers", 0, "abort/", |b| {
            let aborts: Vec<ActivityId> = (0..b.cfg.nodes)
                .map(|w| b.delay(us[0], &[offloaded], &format!("w{w}")))
                .collect();
            b.barrier(&aborts, "join")
        });
        let client = b.op(master(), "ClientCleanup", 0, "client", |b| {
            b.delay(us[1], &[aborted], "")
        });
        let server = b.op(master(), "ServerCleanup", 0, "server", |b| {
            b.delay(us[2], &[client], "")
        });
        b.op(master(), "ZkCleanup", 0, "zk", |b| {
            b.delay(us[3], &[server], "")
        });
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
    fn bfs_run_produces_correct_output() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        assert!(run.output.matches(&reference_output(&g, cfg.algorithm)));
        assert!(run.makespan_us > 0);
        assert!(run.iterations > 2);
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GiraphJob");
        // Domain level: all five operations of Figure 3.
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        // Supersteps appear under ProcessGraph.
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_ss = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Superstep")
            .count();
        assert_eq!(n_ss as u32, run.iterations);
    }

    #[test]
    fn domain_phases_are_ordered() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let phase = |m: &str| {
            let id = tree.child_by_mission(root, m).unwrap();
            (
                tree.op(id).start_us().unwrap(),
                tree.op(id).end_us().unwrap(),
            )
        };
        let startup = phase("Startup");
        let load = phase("LoadGraph");
        let proc_ = phase("ProcessGraph");
        let offload = phase("OffloadGraph");
        let cleanup = phase("Cleanup");
        assert!(startup.1 <= load.0 + 1);
        assert!(load.1 <= proc_.0 + 1);
        assert!(proc_.1 <= offload.0 + 1);
        assert!(offload.1 <= cleanup.0 + 1);
    }

    #[test]
    fn environment_samples_cover_all_nodes() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let nodes: std::collections::BTreeSet<&str> =
            run.env_samples.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let big = GiraphPlatform::default()
            .run(&g, &cfg.clone().with_scale(50.0))
            .unwrap();
        assert!(
            big.makespan_us > small.makespan_us,
            "scaled run should be slower: {} vs {}",
            big.makespan_us,
            small.makespan_us
        );
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faultless = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn checkpoints_appear_at_the_configured_cadence() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform {
            checkpoint_interval: Some(2),
            ..GiraphPlatform::default()
        };
        let run = p.run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_ckpt = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Checkpoint")
            .count() as u32;
        // One checkpoint after every 2nd superstep, except the last.
        assert_eq!(n_ckpt, (run.iterations - 1) / 2);
    }

    #[test]
    fn crash_recovery_replays_from_checkpoint() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform {
            checkpoint_interval: Some(2),
            ..GiraphPlatform::default()
        };
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.5);
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
        assert!(tree.children(proc_).any(|o| o.mission.kind == "Checkpoint"));
        assert!(tree
            .children(proc_)
            .any(|o| o.mission.kind == "FailedSuperstep"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Provision", "LoadCheckpoint"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let n_replay = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .count();
        assert!(n_replay >= 1, "lost supersteps must be replayed");
        // The recovery op names the lost worker.
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
    }

    #[test]
    fn crash_without_checkpoints_replays_from_superstep_zero() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform::default(); // checkpointing disabled
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(1), healthy.makespan_us as f64 * 0.6);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        let tree = Assembler::new().assemble(faulty.events).tree;
        let root = tree.root().unwrap();
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let recover = tree.child_by_mission(proc_, "Recover").unwrap();
        let replays: Vec<String> = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .map(|o| o.mission.id.clone())
            .collect();
        assert!(
            replays.contains(&"0".to_string()),
            "without checkpoints replay starts at superstep 0, got {replays:?}"
        );
        assert!(
            tree.children(proc_).all(|o| o.mission.kind != "Checkpoint"),
            "no checkpoints were configured"
        );
    }

    #[test]
    fn pagerank_and_wcc_also_validate() {
        for algorithm in [Algorithm::PageRank { iterations: 5 }, Algorithm::Wcc] {
            let (g, cfg) = job(algorithm);
            let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }
}
