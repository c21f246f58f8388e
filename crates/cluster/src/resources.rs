//! Max-min fair rate assignment (progressive filling).
//!
//! Every running activity demands one or two resources (node cores, disk
//! bandwidth, NIC in/out, the shared-FS server). Rates are assigned by
//! progressive filling: all unfrozen activities' rates rise together; when a
//! resource saturates, its users freeze; when an activity reaches its own
//! cap (e.g. a compute activity's parallelism), it freezes. The result is
//! the classic max-min fair allocation, which models processor sharing and
//! TCP-like bandwidth sharing closely enough for the phenomena Granula
//! observes (contention, stragglers, sequential bottlenecks).

use crate::activity::ActivityKind;
use crate::topology::{ClusterSpec, NodeId};

/// A resource index in the flattened capacity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Res {
    Cpu(NodeId),
    Disk(NodeId),
    NicIn(NodeId),
    NicOut(NodeId),
    SharedFs,
}

/// Flattened view of all cluster resources with capacities in unit/µs.
pub(crate) struct ResourceTable {
    /// Capacity per resource index.
    pub(crate) caps: Vec<f64>,
    nodes: usize,
}

impl ResourceTable {
    pub(crate) fn new(cluster: &ClusterSpec) -> Self {
        let n = cluster.len();
        let mut caps = vec![0.0; 4 * n + 1];
        for (id, spec) in cluster.iter() {
            let i = id.0 as usize;
            caps[i] = spec.cores as f64; // cores (core-µs per µs)
            caps[n + i] = spec.disk_bps / 1e6; // bytes per µs
            caps[2 * n + i] = spec.nic_bps / 1e6;
            caps[3 * n + i] = spec.nic_bps / 1e6;
        }
        caps[4 * n] = cluster.shared_fs_bps / 1e6;
        ResourceTable { caps, nodes: n }
    }

    fn index(&self, r: Res) -> usize {
        match r {
            Res::Cpu(n) => n.0 as usize,
            Res::Disk(n) => self.nodes + n.0 as usize,
            Res::NicIn(n) => 2 * self.nodes + n.0 as usize,
            Res::NicOut(n) => 3 * self.nodes + n.0 as usize,
            Res::SharedFs => 4 * self.nodes,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.caps.len()
    }
}

/// The resources and cap of one running activity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Demand {
    /// Resource indices (0, 1 or 2 entries).
    pub resources: [usize; 2],
    /// Number of valid entries in `resources`.
    pub n_resources: u8,
    /// Per-activity rate cap (f64::INFINITY when only resource-limited).
    pub cap: f64,
}

impl Demand {
    /// The resource indices this demand uses.
    pub(crate) fn used(&self) -> &[usize] {
        &self.resources[..self.n_resources as usize]
    }
}

/// Builds the demand of one activity kind against the table.
pub(crate) fn demand(table: &ResourceTable, kind: &ActivityKind) -> Demand {
    match kind {
        ActivityKind::Compute {
            node, parallelism, ..
        } => Demand {
            resources: [table.index(Res::Cpu(*node)), 0],
            n_resources: 1,
            cap: *parallelism as f64,
        },
        ActivityKind::DiskRead { node, .. } | ActivityKind::DiskWrite { node, .. } => Demand {
            resources: [table.index(Res::Disk(*node)), 0],
            n_resources: 1,
            cap: f64::INFINITY,
        },
        ActivityKind::Transfer { src, dst, .. } => {
            if src == dst {
                Demand {
                    resources: [0, 0],
                    n_resources: 0,
                    cap: f64::INFINITY,
                }
            } else {
                Demand {
                    resources: [
                        table.index(Res::NicOut(*src)),
                        table.index(Res::NicIn(*dst)),
                    ],
                    n_resources: 2,
                    cap: f64::INFINITY,
                }
            }
        }
        ActivityKind::SharedRead { node, .. } => Demand {
            resources: [table.index(Res::SharedFs), table.index(Res::NicIn(*node))],
            n_resources: 2,
            cap: f64::INFINITY,
        },
        // A delay progresses at exactly 1 µs/µs.
        ActivityKind::Delay { .. } => Demand {
            resources: [0, 0],
            n_resources: 0,
            cap: 1.0,
        },
        ActivityKind::Barrier => Demand {
            resources: [0, 0],
            n_resources: 0,
            cap: f64::INFINITY,
        },
    }
}

/// Reusable buffers for [`assign_rates`]. A simulation run owns one, so a
/// pass allocates nothing once the buffers have grown to the run's peak.
#[derive(Debug, Default)]
pub(crate) struct RateScratch {
    /// One rate per demand of the last pass.
    pub(crate) rate: Vec<f64>,
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    /// Unfrozen users per resource.
    users: Vec<u32>,
    /// Every user per resource, as CSR: resource `r`'s users are
    /// `user_list[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    user_list: Vec<u32>,
    /// Resources with at least one unfrozen user.
    active: Vec<u32>,
    /// Items with a finite cap, in ascending cap order.
    by_cap: Vec<u32>,
}

/// Progressive-filling max-min fair allocation. Writes one rate per demand
/// into `s.rate` and returns the number of filling rounds.
///
/// Every unfrozen item starts at 0.0 and gains the same `delta` in the same
/// order each round, so all of them sit at one shared fill `level`, and an
/// item's rate is the level at the round it froze. That lets each round
/// touch only the resources that still have users plus the items it
/// freezes, instead of rescanning every demand:
///
/// * the smallest cap headroom `cap - level` belongs to the smallest
///   unfrozen cap (`fl(cap - level)` is monotone in `cap`), and the items
///   at their cap are a prefix of the cap-sorted order;
/// * a saturated resource freezes its users through its user list;
/// * `remaining[r]` drops by `delta` once per unfrozen user, as repeated
///   subtraction: a multiply would round differently.
///
/// The result is bit-identical to filling item by item.
pub(crate) fn assign_rates(table: &ResourceTable, demands: &[Demand], s: &mut RateScratch) -> u32 {
    const EPS: f64 = 1e-12;
    let m = demands.len();
    let n_res = table.len();
    let RateScratch {
        rate,
        frozen,
        remaining,
        users,
        start,
        user_list,
        active,
        by_cap,
    } = s;
    rate.clear();
    rate.resize(m, 0.0);
    frozen.clear();
    frozen.resize(m, false);
    remaining.clear();
    remaining.extend_from_slice(&table.caps);
    users.clear();
    users.resize(n_res, 0);
    by_cap.clear();

    // Items with no resources jump straight to their cap (delays) or stay
    // unconstrained (they are completed instantly by the caller when their
    // amount is zero).
    let mut unfrozen = 0usize;
    for (i, d) in demands.iter().enumerate() {
        if d.n_resources == 0 {
            rate[i] = if d.cap.is_finite() { d.cap } else { 1.0 };
            frozen[i] = true;
            continue;
        }
        unfrozen += 1;
        for &r in d.used() {
            users[r] += 1;
        }
        // Neither an infinite nor a NaN cap ever bounds the fill.
        if d.cap < f64::INFINITY {
            by_cap.push(i as u32);
        }
    }
    by_cap.sort_unstable_by(|&a, &b| demands[a as usize].cap.total_cmp(&demands[b as usize].cap));

    // CSR user lists: `start[r]` first holds the end of r's run, and
    // filling from the back walks it down to the run's beginning.
    start.clear();
    start.reserve(n_res + 1);
    let mut end = 0u32;
    for &u in users.iter() {
        end += u;
        start.push(end);
    }
    start.push(end);
    user_list.clear();
    user_list.resize(end as usize, 0);
    for (i, d) in demands.iter().enumerate().rev() {
        for &r in d.used() {
            start[r] -= 1;
            user_list[start[r] as usize] = i as u32;
        }
    }
    active.clear();
    active.extend((0..n_res as u32).filter(|&r| users[r as usize] > 0));

    let mut level = 0.0f64;
    let mut next_cap = 0usize; // by_cap before this index is frozen
    let mut rounds = 0u32;
    while unfrozen > 0 {
        // Smallest headroom: per-resource equal share, per-item cap distance.
        let mut delta = f64::INFINITY;
        for &r in active.iter() {
            let r = r as usize;
            delta = delta.min(remaining[r] / users[r] as f64);
        }
        while next_cap < by_cap.len() && frozen[by_cap[next_cap] as usize] {
            next_cap += 1;
        }
        if let Some(&i) = by_cap.get(next_cap) {
            delta = delta.min(demands[i as usize].cap - level);
        }
        if !delta.is_finite() || delta < 0.0 {
            break; // nothing left to fill
        }
        rounds += 1;
        level += delta;
        for &r in active.iter() {
            let r = r as usize;
            for _ in 0..users[r] {
                remaining[r] -= delta;
            }
        }

        let mut freeze = |i: u32| {
            let i = i as usize;
            if !frozen[i] {
                frozen[i] = true;
                rate[i] = level;
                for &r in demands[i].used() {
                    users[r] -= 1;
                }
                unfrozen -= 1;
            }
        };
        // Freeze items at their cap (past the first item below its cap,
        // every later cap is larger), and items using a saturated resource.
        for &i in &by_cap[next_cap..] {
            if level < demands[i as usize].cap - EPS {
                break;
            }
            freeze(i);
        }
        for &r in active.iter() {
            let r = r as usize;
            if remaining[r] <= EPS * table.caps[r].max(1.0) {
                for &i in &user_list[start[r] as usize..start[r + 1] as usize] {
                    freeze(i);
                }
            }
        }
        active.retain(|&r| users[r as usize] > 0);
    }
    // A fill that stopped early leaves its unfrozen items at the level.
    if unfrozen > 0 {
        for (x, _) in rate.iter_mut().zip(frozen.iter()).filter(|(_, &f)| !f) {
            *x = level;
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;
    use proptest::prelude::*;

    /// The progressive filling [`assign_rates`] replaced, item by item: the
    /// bitwise oracle. Also returns its number of filling rounds.
    fn naive_rates(table: &ResourceTable, demands: &[Demand]) -> (Vec<f64>, u32) {
        let m = demands.len();
        let mut rate = vec![0.0f64; m];
        let mut frozen = vec![false; m];
        let mut remaining = table.caps.clone();
        let mut users = vec![0u32; table.len()];

        for d in demands {
            for r in &d.resources[..d.n_resources as usize] {
                users[*r] += 1;
            }
        }
        // Items with no resources jump straight to their cap (delays) or stay
        // unconstrained (they are completed instantly by the caller when their
        // amount is zero).
        for (i, d) in demands.iter().enumerate() {
            if d.n_resources == 0 {
                rate[i] = if d.cap.is_finite() { d.cap } else { 1.0 };
                frozen[i] = true;
            }
        }

        const EPS: f64 = 1e-12;
        let mut rounds = 0u32;
        loop {
            // Smallest headroom: per-resource equal share, per-item cap distance.
            let mut delta = f64::INFINITY;
            for (r, &rem) in remaining.iter().enumerate() {
                if users[r] > 0 {
                    delta = delta.min(rem / users[r] as f64);
                }
            }
            for (i, d) in demands.iter().enumerate() {
                if !frozen[i] {
                    delta = delta.min(d.cap - rate[i]);
                }
            }
            if !delta.is_finite() || delta < 0.0 {
                break; // nothing left to fill
            }

            let mut any_unfrozen = false;
            for (i, d) in demands.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                any_unfrozen = true;
                rate[i] += delta;
                for r in &d.resources[..d.n_resources as usize] {
                    remaining[*r] -= delta;
                }
            }
            if !any_unfrozen {
                break;
            }
            rounds += 1;

            // Freeze items at their cap, and items using a saturated resource.
            for (i, d) in demands.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let capped = rate[i] >= d.cap - EPS;
                let saturated = d.resources[..d.n_resources as usize]
                    .iter()
                    .any(|&r| remaining[r] <= EPS * table.caps[r].max(1.0));
                if capped || saturated {
                    frozen[i] = true;
                    for r in &d.resources[..d.n_resources as usize] {
                        users[*r] -= 1;
                    }
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
        }
        (rate, rounds)
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 100e6,
                nic_bps: 10e6,
                mem_bytes: 1 << 30,
            },
        )
    }

    fn rates(kinds: &[ActivityKind]) -> Vec<f64> {
        let c = cluster();
        let table = ResourceTable::new(&c);
        let demands: Vec<Demand> = kinds.iter().map(|k| demand(&table, k)).collect();
        let mut s = RateScratch::default();
        assign_rates(&table, &demands, &mut s);
        s.rate
    }

    #[test]
    fn single_compute_capped_by_parallelism() {
        let r = rates(&[ActivityKind::Compute {
            node: NodeId(0),
            work_core_us: 1.0,
            parallelism: 4,
        }]);
        assert!((r[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compute_shares_cores_fairly_with_spillover() {
        // Two activities on an 8-core node: caps 2 and 16. The small one gets
        // its 2 cores; the big one takes the remaining 6.
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 2,
            },
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 16,
            },
        ]);
        assert!((r[0] - 2.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 6.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn compute_on_different_nodes_does_not_contend() {
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 8,
            },
            ActivityKind::Compute {
                node: NodeId(1),
                work_core_us: 1.0,
                parallelism: 8,
            },
        ]);
        assert!((r[0] - 8.0).abs() < 1e-9 && (r[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn disk_readers_split_bandwidth() {
        let r = rates(&[
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        ]);
        // 100 MB/s = 100 bytes/µs split two ways.
        assert!((r[0] - 50.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_limited_by_both_nics() {
        // Two transfers into node 1 from node 0: they share node0 NIC-out
        // and node1 NIC-in (both 10 bytes/µs) -> 5 each.
        let r = rates(&[
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
        ]);
        assert!((r[0] - 5.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn delay_progresses_at_unit_rate() {
        let r = rates(&[ActivityKind::Delay { duration_us: 100.0 }]);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_fs_single_reader_gets_full_server_bw() {
        let c = cluster(); // shared_fs_bps = 1e9 -> 1000 bytes/µs, NIC 10
        let table = ResourceTable::new(&c);
        let demands = vec![demand(
            &table,
            &ActivityKind::SharedRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        )];
        let mut s = RateScratch::default();
        assign_rates(&table, &demands, &mut s);
        let r = s.rate;
        // Limited by the reader's NIC (10 bytes/µs), not the 1000 of the server.
        assert!((r[0] - 10.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn mixed_unrelated_resources_fill_independently() {
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 8,
            },
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        ]);
        assert!((r[0] - 8.0).abs() < 1e-9);
        assert!((r[1] - 100.0).abs() < 1e-6);
    }

    /// One random demand: `(kind pick, node a, node b, size)`.
    type DemandSpec = (u8, u16, u16, u8);

    fn kind_of((pick, a, b, size): DemandSpec, nodes: u16) -> ActivityKind {
        let (node, other) = (NodeId(a % nodes), NodeId(b % nodes));
        match pick % 12 {
            0..=2 => ActivityKind::Compute {
                node,
                work_core_us: 1.0,
                parallelism: [0, 1, 2, 3, 4, 8, 16, 32, 64, 7][size as usize % 10],
            },
            3 => ActivityKind::DiskRead { node, bytes: 1.0 },
            4 => ActivityKind::DiskWrite { node, bytes: 1.0 },
            5..=8 => ActivityKind::Transfer {
                src: node,
                // Every fifth transfer stays on its node.
                dst: if size % 5 == 0 { node } else { other },
                bytes: 1.0,
            },
            9 => ActivityKind::SharedRead { node, bytes: 1.0 },
            10 => ActivityKind::Delay { duration_us: 1.0 },
            _ => ActivityKind::Barrier,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The solver returns the item-by-item filling's rates bit for bit,
        /// in the same number of rounds, including on a reused scratch.
        /// Resource capacities are scaled as a fault plan's `refresh_caps`
        /// scales them, zero included.
        #[test]
        fn solver_is_bit_identical_to_naive_filling(
            nodes in 1u16..=64,
            cores in 1u32..=64,
            specs in prop::collection::vec((0u8..=255, 0u16..=255, 0u16..=255, 0u8..=255), 0..=2000),
            factors in prop::collection::vec(0u8..=255, 4 * 64 + 1),
        ) {
            let c = ClusterSpec::homogeneous(
                nodes,
                NodeSpec {
                    name: String::new(),
                    cores,
                    disk_bps: 400e6,
                    nic_bps: 1.25e9,
                    mem_bytes: 1 << 30,
                },
            );
            let mut table = ResourceTable::new(&c);
            for (cap, f) in table.caps.iter_mut().zip(&factors) {
                *cap *= [0.0, 0.5, 0.25, 0.1, 1.0, 1.0, 1.0, 1.0][*f as usize % 8];
            }
            let demands: Vec<Demand> =
                specs.iter().map(|&d| demand(&table, &kind_of(d, nodes))).collect();
            let mut s = RateScratch::default();
            // The full set, then a prefix through the same scratch.
            for part in [&demands[..], &demands[..demands.len() / 3]] {
                let (want, want_rounds) = naive_rates(&table, part);
                let rounds = assign_rates(&table, part, &mut s);
                prop_assert_eq!(rounds, want_rounds);
                prop_assert_eq!(s.rate.len(), want.len());
                for (i, (got, want)) in s.rate.iter().zip(&want).enumerate() {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "item {} of {}", i, part.len());
                }
            }
        }
    }
}
