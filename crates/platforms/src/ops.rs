//! Operation trees: how platform drivers declare a job's Granula operations
//! and turn the simulated activities into instrumentation logs.
//!
//! A driver builds a job with one `JobBuilder`. Each operation is
//! declared once, as a *scope*: `b.op(actor, mission, id, "seg/", |b| …)`
//! declares the op under the enclosing one, extends the tag prefix by
//! `seg`, and runs the closure inside it. Activities added in the closure
//! (`b.add`, `b.delay`, `b.compute`, …) get the prefix automatically, so
//! the op's interval is the span of its activities. Infos attach to the
//! innermost op. The node and process an op is logged under are inherited
//! from the enclosing scope (`JobBuilder::process` switches the process
//! for the ops declared after it); ops by the platform's per-node actor
//! (`Worker`, `Machine`, `Executor`) are logged on that node by its
//! process.
//!
//! Spec order is declaration order (parents first) and activity order is
//! insertion order; both are part of the output contract, because event
//! emission follows the specs and simulator ids follow the activities.
//!
//! After the simulation, [`emit_events`] looks up each spec's activity span
//! and emits the `START`/`END`/`INFO` log lines an instrumented platform
//! would have written. Specs whose activities never ran (e.g. an operation
//! elided for this workload) are skipped, exactly like a real log would
//! simply not contain those lines.
//!
//! The builder also carries the run plumbing every driver shares:
//! `JobBuilder::finish` (simulate, emit, sample, memory view) and the
//! single-failure protocol (`JobBuilder::single_failure`,
//! `JobBuilder::recover`).

use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, FaultPlan, FileSystem, NodeCrash, NodeId,
    SimError, SimResult, Simulation,
};
use gpsim_graph::{Graph, VertexId};
use granula_model::{Actor, InfoValue, Mission};
use granula_monitor::LogEvent;

use crate::common::{
    memory_samples, trace_to_samples, AlgorithmOutput, JobConfig, MemoryPhase, PlatformRun,
};

/// Declares one operation to be reconstructed from activity spans.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Operation actor.
    pub actor: Actor,
    /// Operation mission.
    pub mission: Mission,
    /// Parent operation identity (`None` for the job root).
    pub parent: Option<(Actor, Mission)>,
    /// Tag prefix of the activities implementing the operation. Must be
    /// prefix-free against sibling specs (use a trailing `/`).
    pub tag: String,
    /// Node to attribute the operation to in the logs.
    pub node: String,
    /// Emitting process name.
    pub process: String,
    /// Extra raw infos logged at operation start.
    pub infos: Vec<(String, InfoValue)>,
}

/// Generates the Granula log events of all specs from the simulated spans.
///
/// Events are emitted parent-before-child for identical timestamps (specs
/// must be ordered parents-first, which the drivers do naturally), so the
/// assembler reconstructs the intended hierarchy.
pub fn emit_events(specs: &[OpSpec], graph: &ActivityGraph, sim: &SimResult) -> Vec<LogEvent> {
    let mut events = Vec::with_capacity(specs.len() * 2);
    for spec in specs {
        let Some((start, end)) = sim.span_of_tag(graph, &spec.tag) else {
            continue;
        };
        let (start_us, end_us) = (start.round() as u64, end.round() as u64);
        events.push(LogEvent::start(
            start_us,
            spec.node.clone(),
            spec.process.clone(),
            spec.actor.clone(),
            spec.mission.clone(),
            spec.parent.clone(),
        ));
        for (name, value) in &spec.infos {
            events.push(LogEvent::info(
                start_us,
                spec.node.clone(),
                spec.process.clone(),
                spec.actor.clone(),
                spec.mission.clone(),
                name.clone(),
                value.clone(),
            ));
        }
        events.push(LogEvent::end(
            end_us,
            spec.node.clone(),
            spec.process.clone(),
            spec.actor.clone(),
            spec.mission.clone(),
        ));
    }
    events
}

/// Where the ops of a scope are declared and logged.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// Tag prefix of the activities added in the scope.
    tag: String,
    /// The enclosing op (`None` around the job root).
    parent: Option<(Actor, Mission)>,
    /// Node ops declared here are attributed to.
    node: String,
    /// Process ops declared here are logged by.
    process: String,
    /// Index of the spec this scope declared, if any (infos go there).
    spec: Option<usize>,
    /// Ops inside declare no spec: an enclosing op covers their activities.
    quiet: bool,
    /// Appended to the mission id of every op declared inside.
    suffix: String,
}

/// Builds one job's activity DAG and operation specs, then runs it.
#[derive(Debug)]
pub(crate) struct JobBuilder<'a> {
    /// Platform name prefixing the builder's trace spans, e.g. `"giraph"`.
    platform: &'static str,
    /// The cluster the job runs on.
    pub cluster: &'a ClusterSpec,
    /// The job.
    pub cfg: &'a JobConfig,
    /// The activities added so far.
    pub dag: ActivityGraph,
    specs: Vec<OpSpec>,
    /// The per-node actor kind and its process-name prefix, e.g.
    /// `("Worker", "worker")`.
    local: (&'static str, &'static str),
    scope: Scope,
}

impl<'a> JobBuilder<'a> {
    /// An empty job. Top-level ops are logged on the cluster's first node;
    /// `local` names the platform's per-node actor kind and the prefix of
    /// its process names (`("Worker", "worker")` logs `Worker-3` ops by
    /// `worker-3` on node 3).
    pub fn new(
        platform: &'static str,
        cluster: &'a ClusterSpec,
        cfg: &'a JobConfig,
        local: (&'static str, &'static str),
    ) -> Self {
        let scope = Scope {
            node: cluster.node(NodeId(0)).name.clone(),
            ..Scope::default()
        };
        JobBuilder {
            platform,
            cluster,
            cfg,
            dag: ActivityGraph::new(),
            specs: Vec::new(),
            local,
            scope,
        }
    }

    /// An empty builder for the same job.
    fn fresh(&self) -> Self {
        JobBuilder {
            dag: ActivityGraph::new(),
            specs: Vec::new(),
            scope: self.scope.clone(),
            ..*self
        }
    }

    // ---------------------------------------------------------- Scopes

    /// Declares the op `actor` × `mission-id` under the enclosing op, with
    /// tag prefix `seg` appended to the enclosing scope's, and runs `f`
    /// inside it.
    pub fn op<R>(
        &mut self,
        actor: Actor,
        mission: &str,
        id: impl ToString,
        seg: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.op_if(true, actor, mission, id, seg, f)
    }

    /// [`JobBuilder::op`], declaring the op only when `declare` holds.
    /// Otherwise `f` still runs inside the op's scope: that continues an op
    /// declared earlier (so its children keep their spec order), or skips
    /// an op that has no work in this run.
    pub fn op_if<R>(
        &mut self,
        declare: bool,
        actor: Actor,
        mission: &str,
        id: impl ToString,
        seg: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let mut mission = Mission::new(mission, id.to_string());
        let mut inner = Scope {
            spec: None,
            ..self.scope.clone()
        };
        inner.tag.push_str(seg);
        mission.id.push_str(&inner.suffix);
        if actor.kind == self.local.0 {
            let w: u16 = actor
                .id
                .parse()
                .expect("per-node actor ids are node indices");
            inner.node = self.cluster.node(NodeId(w)).name.clone();
            inner.process = format!("{}-{w}", self.local.1);
        }
        if declare && !inner.quiet {
            inner.spec = Some(self.specs.len());
            self.specs.push(OpSpec {
                actor: actor.clone(),
                mission: mission.clone(),
                parent: inner.parent.clone(),
                tag: inner.tag.clone(),
                node: inner.node.clone(),
                process: inner.process.clone(),
                infos: Vec::new(),
            });
        }
        inner.parent = Some((actor, mission));
        self.within(inner, f)
    }

    /// [`JobBuilder::op`] by the enclosing op's actor.
    pub fn child<R>(
        &mut self,
        mission: &str,
        id: impl ToString,
        seg: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let (actor, _) = self.scope.parent.clone().expect("a child op has a parent");
        self.op(actor, mission, id, seg, f)
    }

    /// Runs `f` with op declarations switched off: its activities are
    /// recorded under the current tag prefix and covered by the enclosing
    /// op (a replayed superstep under one `Replay` op, say).
    pub fn quiet<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let inner = Scope {
            spec: None,
            quiet: true,
            ..self.scope.clone()
        };
        self.within(inner, f)
    }

    /// Runs `f` as a re-run of part of the job: tags under `seg`, and
    /// `suffix` appended to every declared mission id so the re-run ops
    /// stay distinct from the first attempt's.
    pub fn retry<R>(&mut self, seg: &str, suffix: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let mut inner = Scope {
            spec: None,
            ..self.scope.clone()
        };
        inner.tag.push_str(seg);
        inner.suffix.push_str(suffix);
        self.within(inner, f)
    }

    fn within<R>(&mut self, inner: Scope, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.scope, inner);
        let out = f(self);
        self.scope = outer;
        out
    }

    /// Ops declared from here on in this scope are logged by `process`.
    pub fn process(&mut self, process: &str) {
        self.scope.process = process.into();
    }

    /// Attaches an info to the innermost declared op.
    pub fn info(&mut self, name: &str, value: InfoValue) {
        if let Some(i) = self.scope.spec {
            self.specs[i].infos.push((name.into(), value));
        }
    }

    /// Attaches an integer info, rounded.
    pub fn rounded(&mut self, name: &str, value: f64) {
        self.info(name, InfoValue::Int(value.round() as i64));
    }

    /// Attaches a logical count scaled to the emulated dataset.
    pub fn scaled(&mut self, name: &str, count: u64) {
        self.rounded(name, count as f64 * self.cfg.scale_factor);
    }

    // ------------------------------------------------------ Activities

    /// The current tag prefix followed by `leaf`.
    pub fn tag(&self, leaf: &str) -> String {
        format!("{}{leaf}", self.scope.tag)
    }

    /// Adds an activity tagged with the current prefix followed by `leaf`.
    pub fn add(&mut self, kind: ActivityKind, deps: &[ActivityId], leaf: &str) -> ActivityId {
        let tag = self.tag(leaf);
        self.dag.add(kind, deps, tag)
    }

    /// Adds a barrier.
    pub fn barrier(&mut self, deps: &[ActivityId], leaf: &str) -> ActivityId {
        self.add(ActivityKind::Barrier, deps, leaf)
    }

    /// Adds a fixed delay.
    pub fn delay(&mut self, duration_us: f64, deps: &[ActivityId], leaf: &str) -> ActivityId {
        self.add(ActivityKind::Delay { duration_us }, deps, leaf)
    }

    /// Adds CPU work on `node`.
    pub fn compute(
        &mut self,
        node: u16,
        work_core_us: f64,
        parallelism: u32,
        deps: &[ActivityId],
        leaf: &str,
    ) -> ActivityId {
        let kind = ActivityKind::Compute {
            node: NodeId(node),
            work_core_us,
            parallelism,
        };
        self.add(kind, deps, leaf)
    }

    /// Adds a network transfer.
    pub fn transfer(
        &mut self,
        src: u16,
        dst: u16,
        bytes: f64,
        deps: &[ActivityId],
        leaf: &str,
    ) -> ActivityId {
        let kind = ActivityKind::Transfer {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
        };
        self.add(kind, deps, leaf)
    }

    /// Adds a read from (or write to) the shared storage server.
    pub fn shared_read(
        &mut self,
        node: u16,
        bytes: f64,
        deps: &[ActivityId],
        leaf: &str,
    ) -> ActivityId {
        let kind = ActivityKind::SharedRead {
            node: NodeId(node),
            bytes,
        };
        self.add(kind, deps, leaf)
    }

    /// Adds a logical read of `bytes` on `node` from `fs`.
    pub fn read(
        &mut self,
        fs: &FileSystem,
        node: u16,
        bytes: f64,
        deps: &[ActivityId],
        leaf: &str,
    ) -> ActivityId {
        let tag = self.tag(leaf);
        fs.read(self.cluster, &mut self.dag, NodeId(node), bytes, deps, &tag)
    }

    /// Adds a logical write of `bytes` from `node` to `fs`.
    pub fn write(
        &mut self,
        fs: &FileSystem,
        node: u16,
        bytes: f64,
        deps: &[ActivityId],
        leaf: &str,
    ) -> ActivityId {
        let tag = self.tag(leaf);
        fs.write(self.cluster, &mut self.dag, NodeId(node), bytes, deps, &tag)
    }

    // ------------------------------------------------------------- Run

    /// Simulates the job under `plan` and packages the run: Granula
    /// events, environment samples, and the memory view built by `phases`
    /// from the simulated spans.
    pub fn finish(
        self,
        plan: &FaultPlan,
        output: AlgorithmOutput,
        iterations: usize,
        phases: impl FnOnce(&Self, &SimResult) -> Vec<MemoryPhase>,
    ) -> Result<PlatformRun, SimError> {
        let sim = {
            let _span =
                granula_trace::span!("platform", "{}.simulate {}", self.platform, self.cfg.job_id);
            Simulation::new(self.cluster.clone()).run_with_faults(&self.dag, plan)?
        };
        let events = {
            let _span = granula_trace::span!(
                "platform",
                "{}.emit_events {}",
                self.platform,
                self.cfg.job_id
            );
            emit_events(&self.specs, &self.dag, &sim)
        };
        let makespan_us = sim.makespan_us.round() as u64;
        let mut env_samples = trace_to_samples(&sim.trace);
        env_samples.extend(memory_samples(&phases(&self, &sim), makespan_us));
        Ok(PlatformRun {
            events,
            env_samples,
            output,
            makespan_us,
            iterations: iterations as u32,
        })
    }

    /// The usual memory view of a job (or of a restarted attempt under
    /// `prefix`): node `w`'s partition (`edges[w]` logical edges) becomes
    /// resident over the span of `{prefix}{load}{w}/` and is released when
    /// `{prefix}cleanup/` starts (or at the end of the job).
    pub fn resident(
        &self,
        sim: &SimResult,
        prefix: &str,
        load: &str,
        edges: &[u64],
    ) -> Vec<MemoryPhase> {
        let release = sim
            .span_of_tag(&self.dag, &format!("{prefix}cleanup/"))
            .map(|(s, _)| s.round() as u64)
            .unwrap_or(sim.makespan_us.round() as u64);
        (0..self.cfg.nodes)
            .filter_map(|w| {
                let (start, end) = sim.span_of_tag(&self.dag, &format!("{prefix}{load}{w}/"))?;
                Some(MemoryPhase {
                    node: self.cluster.node(NodeId(w)).name.clone(),
                    ramp_start_us: start.round() as u64,
                    ramp_end_us: end.round() as u64,
                    hold_until_us: release,
                    bytes: edges[w as usize] as f64
                        * self.cfg.scale_factor
                        * self.cfg.costs.bytes_per_edge_mem,
                })
            })
            .collect()
    }

    // -------------------------------------------------------- Failures

    /// Simulates the DAG built so far under the plan's slowdowns only.
    pub fn probe(&self, plan: &FaultPlan) -> Result<SimResult, SimError> {
        let slowdowns = FaultPlan {
            crashes: Vec::new(),
            slowdowns: plan.slowdowns.clone(),
        };
        Simulation::new(self.cluster.clone()).run_with_faults(&self.dag, &slowdowns)
    }

    /// The single-failure protocol of the platforms that recover inside
    /// their processing phase. `layout` builds the whole job: with `None`
    /// the healthy layout, with a [`CrashSite`] the layout that recovers
    /// from it. `units` are the tag prefixes of the processing units
    /// (supersteps, rounds, iterations) in order.
    ///
    /// Only the earliest crash of `plan` is modeled; later crashes are
    /// dropped from the executed plan. Without a crash (or without units)
    /// the healthy layout runs under `plan` as given. Otherwise a probe —
    /// the healthy layout under the plan's slowdowns only — locates the
    /// crash: clamped into the processing phase, then into the unit it
    /// interrupts. The recovery layout then runs under a plan holding that
    /// one crash, the node coming back after `detect_us` unless the crash
    /// says otherwise. Returns the builder and the plan to
    /// [`finish`](JobBuilder::finish) it under.
    pub fn single_failure(
        self,
        plan: &FaultPlan,
        detect_us: f64,
        units: &[String],
        layout: impl Fn(&mut Self, Option<&CrashSite>),
    ) -> Result<(Self, FaultPlan), SimError> {
        let (platform, job_id) = (self.platform, &self.cfg.job_id);
        let Some(crash) = earliest_crash(plan).filter(|_| !units.is_empty()) else {
            let mut b = self;
            let _span = granula_trace::span!("platform", "{platform}.build_dag {job_id}");
            layout(&mut b, None);
            return Ok((b, plan.clone()));
        };
        let probe_span = granula_trace::span!("platform", "{platform}.probe {job_id}");
        let mut probe = self.fresh();
        layout(&mut probe, None);
        let sim = probe.probe(plan)?;
        let span = |tag: &str| {
            sim.span_of_tag(&probe.dag, tag)
                .expect("unit was simulated")
        };
        let (proc_start_us, proc_end) = span("job/proc/");
        let t = crash.at_us.clamp(proc_start_us + 1.0, proc_end - 1.0);
        let mut unit_starts = Vec::new();
        let mut found = None;
        for (i, tag) in units.iter().enumerate() {
            let (start, end) = span(tag);
            unit_starts.push(start);
            found = Some((i, start, end));
            if t < end {
                break;
            }
        }
        let (unit, start, end) = found.expect("units is not empty");
        let at_us = t.clamp(start + 1.0, (end - 1.0).max(start + 1.0));
        drop(probe_span);

        let site = CrashSite {
            failure: Failure {
                node: crash.node,
                at_us,
                detect_us,
            },
            unit,
            proc_start_us,
            unit_starts,
        };
        let mut b = self;
        {
            let _span = granula_trace::span!("platform", "{platform}.recovery.build {job_id}");
            layout(&mut b, Some(&site));
        }
        let exec = FaultPlan {
            crashes: vec![NodeCrash {
                node: crash.node,
                at_us,
                restart_after_us: Some(crash.restart_after_us.unwrap_or(detect_us)),
            }],
            slowdowns: plan.slowdowns.clone(),
        };
        Ok((b, exec))
    }

    /// Declares the `Recover` op by `actor` under `seg` — infos
    /// `FailedNode` and `WastedUs` — with its `DetectFailure` child, pinned
    /// to the crash instant by a `job/meta/t-crash` anchor. `f` builds the
    /// rest of the recovery from the detection activity.
    pub fn recover<R>(
        &mut self,
        actor: Actor,
        seg: &str,
        failure: &Failure,
        wasted_us: f64,
        f: impl FnOnce(&mut Self, ActivityId) -> R,
    ) -> R {
        let failed = self.cluster.node(failure.node).name.clone();
        self.op(actor, "Recover", 0, seg, |b| {
            b.info("FailedNode", InfoValue::Text(failed));
            b.rounded("WastedUs", wasted_us);
            let anchor = b.dag.add(
                ActivityKind::Delay {
                    duration_us: failure.at_us,
                },
                &[],
                "job/meta/t-crash",
            );
            let detect = b.child("DetectFailure", 0, "detect", |b| {
                b.delay(failure.detect_us, &[anchor], "")
            });
            f(b, detect)
        })
    }
}

/// The earliest crash of a plan: the one single-failure recovery models.
pub(crate) fn earliest_crash(plan: &FaultPlan) -> Option<NodeCrash> {
    plan.crashes
        .iter()
        .min_by(|a, b| a.at_us.total_cmp(&b.at_us))
        .cloned()
}

/// A crash as the recovery layout sees it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Failure {
    /// The node that dies.
    pub node: NodeId,
    /// Effective crash instant, µs.
    pub at_us: f64,
    /// Time for the platform to notice the loss, µs.
    pub detect_us: f64,
}

/// Where the single-failure protocol located a crash.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CrashSite {
    /// The crash, its instant clamped into the interrupted unit.
    pub failure: Failure,
    /// Index of the interrupted unit.
    pub unit: usize,
    /// Start of the processing phase in the probe, µs.
    pub proc_start_us: f64,
    /// Start of each unit up to and including the interrupted one in the
    /// probe, µs.
    pub unit_starts: Vec<f64>,
}

/// Per-node data sizes of an edge-cut layout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sizes {
    /// Vertices owned (logical count).
    pub verts: Vec<u64>,
    /// Out-edges of the owned vertices (logical count).
    pub edges: Vec<u64>,
    /// Input bytes of the node's share, scaled to the emulated dataset.
    pub input_bytes: Vec<f64>,
}

impl Sizes {
    /// Sizes of the `cfg.nodes` shares when vertex `v` lives on `owner(v)`.
    pub fn new(g: &Graph, cfg: &JobConfig, owner: impl Fn(VertexId) -> u16) -> Self {
        let k = cfg.nodes as usize;
        let mut verts = vec![0u64; k];
        let mut edges = vec![0u64; k];
        for v in 0..g.num_vertices() {
            let w = owner(v) as usize;
            verts[w] += 1;
            edges[w] += g.out_degree(v) as u64;
        }
        let input_bytes = (0..k)
            .map(|w| {
                (verts[w] as f64 * 10.0 + edges[w] as f64 * cfg.costs.bytes_per_edge_in)
                    * cfg.scale_factor
            })
            .collect();
        Sizes {
            verts,
            edges,
            input_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Algorithm, CostModel};
    use gpsim_cluster::NodeSpec;
    use granula_monitor::Assembler;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: "n".into(),
                cores: 4,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        )
    }

    fn cfg() -> JobConfig {
        JobConfig::new("j", "d", Algorithm::Wcc, 2, CostModel::giraph_like())
    }

    #[test]
    fn scopes_reconstruct_hierarchy_through_assembler() {
        let (cluster, cfg) = (cluster(), cfg());
        let mut b = JobBuilder::new("test", &cluster, &cfg, ("Worker", "worker"));
        b.process("client");
        let job = Actor::new("Job", "0");
        b.op(job, "TestJob", 0, "job/", |b| {
            let load = b.child("LoadGraph", 0, "load/", |b| {
                b.rounded("Bytes", 41.6);
                b.op(Actor::new("Worker", "1"), "LocalLoad", 0, "w1/", |b| {
                    b.delay(1e6, &[], "x")
                })
            });
            b.child("ProcessGraph", 0, "proc/", |b| b.delay(5e5, &[load], "y"));
            // An op whose activities never existed: skipped.
            b.child("OffloadGraph", 0, "offload/", |_| ());
            // A skipped declaration still scopes its activities.
            b.op_if(
                false,
                Actor::new("Job", "0"),
                "Cleanup",
                0,
                "cleanup/",
                |b| b.quiet(|b| b.child("Stop", 0, "stop", |b| b.delay(1.0, &[], ""))),
            );
        });
        let tags: Vec<&str> = b.dag.iter().map(|a| a.tag()).collect();
        assert_eq!(tags, ["job/load/w1/x", "job/proc/y", "job/cleanup/stop"]);
        let sim = Simulation::new(cluster.clone()).run(&b.dag).unwrap();
        let events = emit_events(&b.specs, &b.dag, &sim);
        // 4 ops emitted (offload skipped): 2 events each + 1 info.
        assert_eq!(events.len(), 9);
        assert_eq!(events[5].node, "node301");
        assert_eq!(events[5].process, "worker-1");

        let outcome = Assembler::new().assemble(events);
        assert!(outcome.warnings.is_empty(), "{:?}", outcome.warnings);
        let tree = outcome.tree;
        assert_eq!(tree.len(), 4);
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "TestJob");
        assert_eq!(tree.op(root).children.len(), 2);
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        assert_eq!(tree.op(load).info_i64("Bytes"), Some(42));
        assert_eq!(tree.op(load).duration_us(), Some(1_000_000));
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        assert_eq!(tree.op(proc_).start_us(), Some(1_000_000));
    }

    #[test]
    fn retry_suffixes_mission_ids_under_its_own_prefix() {
        let (cluster, cfg) = (cluster(), cfg());
        let mut b = JobBuilder::new("test", &cluster, &cfg, ("Worker", "worker"));
        b.op(Actor::new("Job", "0"), "TestJob", 0, "job/", |b| {
            b.retry("r1/", ":r1", |b| {
                b.child("Startup", 0, "startup/", |b| b.delay(1.0, &[], "a"))
            })
        });
        assert_eq!(b.specs[1].mission, Mission::new("Startup", "0:r1"));
        assert_eq!(b.specs[1].tag, "job/r1/startup/");
        assert_eq!(
            b.specs[1].parent,
            Some((Actor::new("Job", "0"), Mission::new("TestJob", "0")))
        );
    }
}
