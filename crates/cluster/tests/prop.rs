//! Property-based tests of the simulator's physical invariants: dependency
//! ordering, work conservation, fair-sharing bounds.

use proptest::prelude::*;

use gpsim_cluster::trace::Channel;
use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, NodeId, NodeSpec, Simulation,
};

fn cluster(nodes: u16, cores: u32) -> ClusterSpec {
    ClusterSpec::homogeneous(
        nodes,
        NodeSpec {
            name: String::new(),
            cores,
            disk_bps: 100e6,
            nic_bps: 50e6,
            mem_bytes: 1 << 30,
        },
    )
}

/// A random layered DAG spec: per activity `(layer_links, kind_pick, size)`.
type DagSpec = Vec<(u8, u8, u32)>;

fn build_dag(spec: &DagSpec, nodes: u16) -> ActivityGraph {
    let mut g = ActivityGraph::new();
    let mut prev_layer: Vec<ActivityId> = Vec::new();
    let mut cur_layer: Vec<ActivityId> = Vec::new();
    for (i, &(links, kind_pick, size)) in spec.iter().enumerate() {
        // Start a new layer every 5 activities.
        if i % 5 == 0 && !cur_layer.is_empty() {
            prev_layer = std::mem::take(&mut cur_layer);
        }
        let deps: Vec<ActivityId> = prev_layer
            .iter()
            .enumerate()
            .filter(|&(j, _)| links & (1 << (j % 8)) != 0)
            .map(|(_, &id)| id)
            .collect();
        let node = NodeId((i % nodes as usize) as u16);
        let other = NodeId(((i + 1) % nodes as usize) as u16);
        let amount = 1.0 + size as f64;
        let kind = match kind_pick % 5 {
            0 => ActivityKind::Compute {
                node,
                work_core_us: amount,
                parallelism: 1 + (size % 8),
            },
            1 => ActivityKind::DiskRead {
                node,
                bytes: amount,
            },
            2 => ActivityKind::Transfer {
                src: node,
                dst: other,
                bytes: amount,
            },
            3 => ActivityKind::Delay {
                duration_us: amount,
            },
            _ => ActivityKind::SharedRead {
                node,
                bytes: amount,
            },
        };
        cur_layer.push(g.add(kind, &deps, format!("a{i}")));
    }
    g
}

proptest! {
    /// Every simulated activity respects its dependencies and has a
    /// non-negative duration; the makespan is the max end time.
    #[test]
    fn dependencies_and_makespan(spec in prop::collection::vec((any::<u8>(), any::<u8>(), 0u32..1_000_000), 1..40)) {
        let g = build_dag(&spec, 4);
        let sim = Simulation::new(cluster(4, 8));
        let res = sim.run(&g).expect("layered DAGs are acyclic");
        let mut max_end = 0.0f64;
        for a in g.iter() {
            let r = res.of(a.id);
            prop_assert!(r.end_us >= r.start_us, "negative duration");
            prop_assert!(r.start_us >= 0.0);
            max_end = max_end.max(r.end_us);
            for d in a.deps {
                prop_assert!(
                    res.of(*d).end_us <= r.start_us + 1e-6,
                    "activity started before its dependency finished"
                );
            }
        }
        prop_assert!((res.makespan_us - max_end).abs() < 1e-6);
    }

    /// Work conservation: total CPU core-seconds in the trace equal the
    /// total compute work submitted (within a sampling tolerance).
    #[test]
    fn cpu_work_is_conserved(works in prop::collection::vec(1.0e5f64..5.0e6, 1..20)) {
        let mut g = ActivityGraph::new();
        for (i, w) in works.iter().enumerate() {
            g.add(
                ActivityKind::Compute {
                    node: NodeId((i % 2) as u16),
                    work_core_us: *w,
                    parallelism: 1 + (i as u32 % 4),
                },
                &[],
                format!("c{i}"),
            );
        }
        let sim = Simulation::new(cluster(2, 8));
        let res = sim.run(&g).expect("independent activities");
        let traced: f64 = res
            .trace
            .cumulative(Channel::Cpu)
            .into_iter()
            .map(|(_, v)| v)
            .sum();
        let submitted: f64 = works.iter().sum::<f64>() / 1e6; // core-seconds
        prop_assert!(
            (traced - submitted).abs() <= 0.01 * submitted.max(1.0),
            "traced {traced} vs submitted {submitted}"
        );
    }

    /// A node's CPU trace never exceeds its core count per second.
    #[test]
    fn cpu_capacity_respected(works in prop::collection::vec(1.0e6f64..1.0e7, 1..16)) {
        let mut g = ActivityGraph::new();
        for (i, w) in works.iter().enumerate() {
            g.add(
                ActivityKind::Compute { node: NodeId(0), work_core_us: *w, parallelism: 32 },
                &[],
                format!("c{i}"),
            );
        }
        let sim = Simulation::new(cluster(1, 8));
        let res = sim.run(&g).expect("independent activities");
        for (_, v) in res.trace.series(Channel::Cpu, NodeId(0)) {
            prop_assert!(v <= 8.0 + 1e-6, "bucket exceeds core capacity: {v}");
        }
    }

    /// Saturated single-core workloads finish in exactly total-work time.
    #[test]
    fn serialized_work_takes_total_time(works in prop::collection::vec(1.0e3f64..1.0e6, 1..10)) {
        // parallelism 1 activities on a 1-core node serialize perfectly
        // under fair sharing (they share the core, total time = total work).
        let mut g = ActivityGraph::new();
        for (i, w) in works.iter().enumerate() {
            g.add(
                ActivityKind::Compute { node: NodeId(0), work_core_us: *w, parallelism: 1 },
                &[],
                format!("c{i}"),
            );
        }
        let sim = Simulation::new(cluster(1, 1));
        let res = sim.run(&g).expect("independent activities");
        let total: f64 = works.iter().sum();
        prop_assert!((res.makespan_us - total).abs() < 1e-3 * total, "{} vs {total}", res.makespan_us);
    }

    /// Transfers move their bytes: NIC-out trace totals match submitted bytes.
    #[test]
    fn transfer_bytes_conserved(bytes in prop::collection::vec(1.0e5f64..1.0e7, 1..12)) {
        let mut g = ActivityGraph::new();
        for (i, b) in bytes.iter().enumerate() {
            g.add(
                ActivityKind::Transfer { src: NodeId(0), dst: NodeId(1), bytes: *b },
                &[],
                format!("t{i}"),
            );
        }
        let sim = Simulation::new(cluster(2, 4));
        let res = sim.run(&g).expect("independent transfers");
        let traced: f64 = res
            .trace
            .series(Channel::NetOut, NodeId(0))
            .into_iter()
            .map(|(_, v)| v)
            .sum();
        let submitted: f64 = bytes.iter().sum();
        prop_assert!((traced - submitted).abs() <= 0.01 * submitted, "{traced} vs {submitted}");
    }

    /// Determinism: identical DAGs simulate to identical results.
    #[test]
    fn simulation_deterministic(spec in prop::collection::vec((any::<u8>(), any::<u8>(), 0u32..100_000), 1..25)) {
        let g = build_dag(&spec, 3);
        let sim = Simulation::new(cluster(3, 8));
        let a = sim.run(&g).expect("acyclic");
        let b = sim.run(&g).expect("acyclic");
        prop_assert_eq!(a.makespan_us, b.makespan_us);
        for act in g.iter() {
            prop_assert_eq!(a.of(act.id), b.of(act.id));
        }
    }
}

/// Activities per DAG in the large-DAG tests: well above the few hundred
/// most platform runs build, at the size of the largest ones
/// (`ablation_scalability` reaches ~7,800).
const LARGE: usize = 5_000;

/// Distinct per-activity work in core-µs, so completions spread over
/// `LARGE` separate events instead of one batch.
fn large_work(i: usize) -> f64 {
    1_000.0 + ((i * 37) % 1_000) as f64
}

/// `LARGE` parallelism-1 computes on a 1-core node, chained or independent.
fn large_compute_dag(chained: bool) -> ActivityGraph {
    let mut g = ActivityGraph::with_capacity(LARGE, LARGE);
    let mut prev: Option<ActivityId> = None;
    for i in 0..LARGE {
        let deps: Vec<ActivityId> = if chained {
            prev.into_iter().collect()
        } else {
            Vec::new()
        };
        prev = Some(g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: large_work(i),
                parallelism: 1,
            },
            &deps,
            format!("c{i}"),
        ));
    }
    g
}

#[test]
fn large_chain_takes_total_work() {
    let g = large_compute_dag(true);
    let res = Simulation::new(cluster(1, 1)).run(&g).expect("chain");
    let total: f64 = (0..LARGE).map(large_work).sum();
    assert!(
        (res.makespan_us - total).abs() <= 1e-9 * total,
        "{} vs {total}",
        res.makespan_us
    );
}

#[test]
fn large_independent_set_conserves_work_and_repeats_bitwise() {
    let g = large_compute_dag(false);
    let sim = Simulation::new(cluster(1, 1));
    let a = sim.run(&g).expect("independent activities");
    // Fair sharing never idles the core: the last completion lands at the
    // total work, and the trace holds every core-µs submitted.
    let total: f64 = (0..LARGE).map(large_work).sum();
    assert!(
        (a.makespan_us - total).abs() <= 1e-9 * total,
        "{} vs {total}",
        a.makespan_us
    );
    let traced: f64 = a
        .trace
        .series(Channel::Cpu, NodeId(0))
        .into_iter()
        .map(|(_, v)| v)
        .sum();
    assert!(
        (traced - total / 1e6).abs() <= 1e-9 * total,
        "traced {traced} vs submitted {}",
        total / 1e6
    );

    let b = sim.run(&g).expect("independent activities");
    assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
        assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
    }
    let (sa, sb) = (
        a.trace.series(Channel::Cpu, NodeId(0)),
        b.trace.series(Channel::Cpu, NodeId(0)),
    );
    assert_eq!(sa.len(), sb.len());
    for (&(ta, va), &(tb, vb)) in sa.iter().zip(&sb) {
        assert_eq!((ta, va.to_bits()), (tb, vb.to_bits()));
    }
}
