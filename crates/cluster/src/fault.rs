//! Deterministic fault injection: node crashes and degradation windows.
//!
//! A [`FaultPlan`] describes *when* the cluster misbehaves — a node crashes
//! at simulated time `T` (optionally coming back after a restart delay), or
//! a node's CPU/disk/NIC capacity is multiplied by a factor over a time
//! window. [`crate::sim::Simulation::run_with_faults`] honors the plan
//! with these semantics:
//!
//! - At a crash, every in-flight activity touching the node is **killed**:
//!   it is forced to complete at the crash instant (its unfinished work is
//!   lost), its dependents are released, and an
//!   [`FaultEvent::ActivityKilled`] is recorded. Failures are first-class
//!   events, not errors — platform drivers model what happens next
//!   (checkpoint recovery, full restart) in the activity DAG itself.
//! - A ready activity bound to a down node is **parked** until the node's
//!   scheduled restart. If the node will never restart, the run fails with
//!   [`crate::sim::SimError::NodeLost`] naming the activity and the
//!   simulated time.
//! - Slowdown windows scale resource capacities multiplicatively while
//!   active; rates are re-derived at every window edge.
//!
//! An empty plan adds no floating-point work to the engine, so fault
//! support leaves healthy simulations bit-identical.

use serde::{Deserialize, Serialize};

use crate::activity::{ActivityId, ActivityKind};
use crate::topology::NodeId;

/// Which of a node's resource channels a [`Slowdown`] degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedChannel {
    /// The node's cores.
    Cpu,
    /// The node's disk bandwidth.
    Disk,
    /// Both NIC directions.
    Nic,
    /// Every channel of the node.
    All,
}

/// A node crash at a simulated instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: NodeId,
    /// Crash instant, microseconds since job epoch.
    pub at_us: f64,
    /// Delay until the node is usable again (a replacement container /
    /// rebooted machine). `None` means the node never comes back.
    pub restart_after_us: Option<f64>,
}

/// A transient capacity-degradation window on one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slowdown {
    /// Affected node.
    pub node: NodeId,
    /// Affected channel(s).
    pub channel: DegradedChannel,
    /// Window start (inclusive), microseconds.
    pub from_us: f64,
    /// Window end (exclusive), microseconds.
    pub to_us: f64,
    /// Multiplier applied to the channel capacity while the window is
    /// active; in `(0, 1]`.
    pub factor: f64,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Capacity-degradation windows.
    pub slowdowns: Vec<Slowdown>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.slowdowns.is_empty()
    }

    /// Adds a permanent crash of `node` at `at_us`.
    pub fn crash(mut self, node: NodeId, at_us: f64) -> Self {
        assert!(at_us.is_finite() && at_us >= 0.0, "crash time {at_us}");
        self.crashes.push(NodeCrash {
            node,
            at_us,
            restart_after_us: None,
        });
        self
    }

    /// Adds a crash of `node` at `at_us` after which a replacement becomes
    /// usable `restart_after_us` later.
    pub fn crash_with_restart(mut self, node: NodeId, at_us: f64, restart_after_us: f64) -> Self {
        assert!(at_us.is_finite() && at_us >= 0.0, "crash time {at_us}");
        assert!(
            restart_after_us.is_finite() && restart_after_us > 0.0,
            "restart delay {restart_after_us}"
        );
        self.crashes.push(NodeCrash {
            node,
            at_us,
            restart_after_us: Some(restart_after_us),
        });
        self
    }

    /// Adds a degradation window: `channel` of `node` runs at `factor`
    /// capacity over `[from_us, to_us)`.
    pub fn slow(
        mut self,
        node: NodeId,
        channel: DegradedChannel,
        from_us: f64,
        to_us: f64,
        factor: f64,
    ) -> Self {
        assert!(
            from_us.is_finite() && from_us >= 0.0 && to_us.is_finite() && to_us > from_us,
            "window [{from_us}, {to_us})"
        );
        assert!(factor > 0.0 && factor <= 1.0, "factor {factor}");
        self.slowdowns.push(Slowdown {
            node,
            channel,
            from_us,
            to_us,
            factor,
        });
        self
    }

    /// A reproducible pseudo-random plan over `nodes` nodes within
    /// `[0, horizon_us)`: one restarting crash plus two degradation
    /// windows. Same seed, same plan.
    pub fn seeded(seed: u64, nodes: u16, horizon_us: f64) -> Self {
        assert!(nodes > 0 && horizon_us > 0.0);
        // Inline LCG (Numerical Recipes constants); no external RNG.
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 // in [0, 1)
        };
        let mut plan = FaultPlan::new();
        let crash_node = NodeId((next() * nodes as f64) as u16 % nodes);
        let at = (0.1 + 0.8 * next()) * horizon_us;
        plan = plan.crash_with_restart(crash_node, at, (0.02 + 0.08 * next()) * horizon_us);
        for _ in 0..2 {
            let node = NodeId((next() * nodes as f64) as u16 % nodes);
            let channel = match (next() * 4.0) as u8 {
                0 => DegradedChannel::Cpu,
                1 => DegradedChannel::Disk,
                2 => DegradedChannel::Nic,
                _ => DegradedChannel::All,
            };
            let from = next() * 0.8 * horizon_us;
            let len = (0.05 + 0.2 * next()) * horizon_us;
            plan = plan.slow(node, channel, from, from + len, 0.1 + 0.85 * next());
        }
        plan
    }

    /// Largest node id referenced by the plan, if any — used by the engine
    /// to validate the plan against the cluster.
    pub(crate) fn max_node(&self) -> Option<NodeId> {
        self.crashes
            .iter()
            .map(|c| c.node)
            .chain(self.slowdowns.iter().map(|s| s.node))
            .max()
    }
}

/// A failure observed during simulation — first-class output, not an error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A node crashed.
    NodeCrashed {
        /// The node.
        node: NodeId,
        /// Simulated instant, microseconds.
        at_us: f64,
    },
    /// A crashed node became usable again.
    NodeRestarted {
        /// The node.
        node: NodeId,
        /// Simulated instant, microseconds.
        at_us: f64,
    },
    /// An in-flight activity was killed by a node crash; its remaining work
    /// is lost and its dependents were released at the crash instant.
    ActivityKilled {
        /// The killed activity.
        activity: ActivityId,
        /// The node whose crash killed it.
        node: NodeId,
        /// Simulated instant, microseconds.
        at_us: f64,
    },
}

/// The nodes an activity kind physically occupies (none for delays and
/// barriers, two for cross-node transfers).
pub(crate) fn touched_nodes(kind: &ActivityKind) -> [Option<NodeId>; 2] {
    match kind {
        ActivityKind::Compute { node, .. }
        | ActivityKind::DiskRead { node, .. }
        | ActivityKind::DiskWrite { node, .. }
        | ActivityKind::SharedRead { node, .. } => [Some(*node), None],
        ActivityKind::Transfer { src, dst, .. } => [Some(*src), Some(*dst)],
        ActivityKind::Delay { .. } | ActivityKind::Barrier => [None, None],
    }
}

/// Engine-side clock over a plan's fault boundaries.
///
/// Crash instants, restart instants, and slowdown-window edges form a merged,
/// sorted timeline; the engine never advances simulated time past the next
/// unprocessed boundary. [`FaultClock::advance`] consumes boundaries up to
/// `t` and reports which nodes crashed/restarted and whether capacities
/// need re-deriving.
pub(crate) struct FaultClock<'a> {
    plan: &'a FaultPlan,
    /// `(at_us, node)` sorted ascending.
    crash_events: Vec<(f64, NodeId)>,
    /// `(at_us, node)` sorted ascending.
    restart_events: Vec<(f64, NodeId)>,
    /// Slowdown window edges (`from_us` and `to_us`), sorted ascending.
    cap_edges: Vec<f64>,
    ci: usize,
    ri: usize,
    ei: usize,
    down: Vec<bool>,
    /// Unprocessed restart events per node; a down node with none pending
    /// is lost for good.
    pending_restarts: Vec<u32>,
}

impl<'a> FaultClock<'a> {
    pub(crate) fn new(plan: &'a FaultPlan, nodes: usize) -> Self {
        let mut crash_events: Vec<(f64, NodeId)> =
            plan.crashes.iter().map(|c| (c.at_us, c.node)).collect();
        crash_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut restart_events: Vec<(f64, NodeId)> = plan
            .crashes
            .iter()
            .filter_map(|c| c.restart_after_us.map(|r| (c.at_us + r, c.node)))
            .collect();
        restart_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cap_edges: Vec<f64> = plan
            .slowdowns
            .iter()
            .flat_map(|s| [s.from_us, s.to_us])
            .collect();
        cap_edges.sort_by(f64::total_cmp);
        let mut pending_restarts = vec![0u32; nodes];
        for &(_, node) in &restart_events {
            pending_restarts[node.0 as usize] += 1;
        }
        FaultClock {
            plan,
            crash_events,
            restart_events,
            cap_edges,
            ci: 0,
            ri: 0,
            ei: 0,
            down: vec![false; nodes],
            pending_restarts,
        }
    }

    /// The earliest unprocessed fault boundary, if any.
    pub(crate) fn next_boundary(&self) -> Option<f64> {
        let mut b = f64::INFINITY;
        if let Some(&(t, _)) = self.crash_events.get(self.ci) {
            b = b.min(t);
        }
        if let Some(&(t, _)) = self.restart_events.get(self.ri) {
            b = b.min(t);
        }
        if let Some(&t) = self.cap_edges.get(self.ei) {
            b = b.min(t);
        }
        b.is_finite().then_some(b)
    }

    /// Consumes every boundary at or before `t`. Appends nodes that came
    /// back up to `restarted` and nodes that went down to `crashed` (each in
    /// timeline order), and returns `true` when a slowdown edge was crossed
    /// (capacities must be re-derived). Restarts are applied before crashes
    /// sharing the same instant, so a node crashed and restarted at the
    /// exact same time ends up down.
    pub(crate) fn advance(
        &mut self,
        t: f64,
        crashed: &mut Vec<NodeId>,
        restarted: &mut Vec<NodeId>,
    ) -> bool {
        while let Some(&(at, node)) = self.restart_events.get(self.ri) {
            if at > t {
                break;
            }
            self.ri += 1;
            self.pending_restarts[node.0 as usize] -= 1;
            if self.down[node.0 as usize] {
                self.down[node.0 as usize] = false;
                restarted.push(node);
            }
        }
        while let Some(&(at, node)) = self.crash_events.get(self.ci) {
            if at > t {
                break;
            }
            self.ci += 1;
            if !self.down[node.0 as usize] {
                self.down[node.0 as usize] = true;
                crashed.push(node);
            }
        }
        let mut caps_changed = false;
        while let Some(&at) = self.cap_edges.get(self.ei) {
            if at > t {
                break;
            }
            self.ei += 1;
            caps_changed = true;
        }
        caps_changed
    }

    /// Whether `node` is currently down.
    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
    }

    /// Whether a restart is still scheduled for `node`.
    pub(crate) fn has_pending_restart(&self, node: NodeId) -> bool {
        self.pending_restarts[node.0 as usize] > 0
    }

    /// The first down node the activity kind touches, if any.
    pub(crate) fn blocking_node(&self, kind: &ActivityKind) -> Option<NodeId> {
        touched_nodes(kind)
            .into_iter()
            .flatten()
            .find(|&n| self.is_down(n))
    }

    /// Rebuilds `caps` from `base` with every slowdown window active at `t`
    /// applied multiplicatively, in plan order. Layout matches
    /// [`crate::resources::ResourceTable`]: cores, disk, NIC-in, NIC-out
    /// blocks of `nodes` entries each, then the shared-FS server.
    pub(crate) fn refresh_caps(&self, base: &[f64], caps: &mut [f64], t: f64) {
        caps.copy_from_slice(base);
        let nodes = (base.len() - 1) / 4;
        for s in &self.plan.slowdowns {
            if !(s.from_us <= t && t < s.to_us) {
                continue;
            }
            let i = s.node.0 as usize;
            match s.channel {
                DegradedChannel::Cpu => caps[i] *= s.factor,
                DegradedChannel::Disk => caps[nodes + i] *= s.factor,
                DegradedChannel::Nic => {
                    caps[2 * nodes + i] *= s.factor;
                    caps[3 * nodes + i] *= s.factor;
                }
                DegradedChannel::All => {
                    caps[i] *= s.factor;
                    caps[nodes + i] *= s.factor;
                    caps[2 * nodes + i] *= s.factor;
                    caps[3 * nodes + i] *= s.factor;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_no_boundaries() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let clock = FaultClock::new(&plan, 4);
        assert_eq!(clock.next_boundary(), None);
    }

    #[test]
    fn boundaries_merge_in_time_order() {
        let plan = FaultPlan::new()
            .crash_with_restart(NodeId(1), 50.0, 25.0)
            .slow(NodeId(0), DegradedChannel::Disk, 10.0, 60.0, 0.5);
        let mut clock = FaultClock::new(&plan, 2);
        let (mut crashed, mut restarted) = (Vec::new(), Vec::new());
        assert_eq!(clock.next_boundary(), Some(10.0));
        assert!(clock.advance(10.0, &mut crashed, &mut restarted));
        assert_eq!(clock.next_boundary(), Some(50.0));
        assert!(!clock.advance(50.0, &mut crashed, &mut restarted));
        assert_eq!(crashed, vec![NodeId(1)]);
        assert!(clock.is_down(NodeId(1)));
        assert!(clock.has_pending_restart(NodeId(1)));
        assert_eq!(clock.next_boundary(), Some(60.0));
        assert!(clock.advance(60.0, &mut crashed, &mut restarted));
        assert_eq!(clock.next_boundary(), Some(75.0));
        clock.advance(75.0, &mut crashed, &mut restarted);
        assert_eq!(restarted, vec![NodeId(1)]);
        assert!(!clock.is_down(NodeId(1)));
        assert_eq!(clock.next_boundary(), None);
    }

    #[test]
    fn refresh_caps_applies_active_windows_only() {
        let plan = FaultPlan::new()
            .slow(NodeId(0), DegradedChannel::All, 0.0, 100.0, 0.5)
            .slow(NodeId(1), DegradedChannel::Cpu, 200.0, 300.0, 0.25);
        let clock = FaultClock::new(&plan, 2);
        let base = vec![8.0, 8.0, 100.0, 100.0, 10.0, 10.0, 10.0, 10.0, 1000.0];
        let mut caps = vec![0.0; base.len()];
        clock.refresh_caps(&base, &mut caps, 50.0);
        assert_eq!(caps[0], 4.0); // node 0 cpu halved
        assert_eq!(caps[2], 50.0); // node 0 disk halved
        assert_eq!(caps[1], 8.0); // node 1 untouched at t=50
        assert_eq!(caps[8], 1000.0); // shared fs never degraded
        clock.refresh_caps(&base, &mut caps, 250.0);
        assert_eq!(caps[0], 8.0); // window over
        assert_eq!(caps[1], 2.0); // node 1 cpu quartered
    }

    #[test]
    fn touched_nodes_by_kind() {
        assert_eq!(
            touched_nodes(&ActivityKind::Transfer {
                src: NodeId(1),
                dst: NodeId(2),
                bytes: 1.0
            }),
            [Some(NodeId(1)), Some(NodeId(2))]
        );
        assert_eq!(
            touched_nodes(&ActivityKind::Delay { duration_us: 1.0 }),
            [None, None]
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let a = FaultPlan::seeded(42, 8, 1e7);
        let b = FaultPlan::seeded(42, 8, 1e7);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(43, 8, 1e7));
        assert_eq!(a.crashes.len(), 1);
        assert_eq!(a.slowdowns.len(), 2);
        assert!(a.max_node().unwrap().0 < 8);
    }
}
