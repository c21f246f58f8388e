//! The engine's hot-loop counters, read back through `granula-trace`.
//!
//! One test per file: the tracer's enabled flag and metric registry are
//! process-global, and this binary is the only one that turns them on.

use gpsim_cluster::{ActivityGraph, ActivityKind, ClusterSpec, NodeId, NodeSpec, Simulation};
use granula_trace::MetricValue;

fn counter(name: &str) -> u64 {
    match granula_trace::metrics().get(name) {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("{name}: expected a counter, got {other:?}"),
    }
}

#[test]
fn engine_counts_events_passes_and_fill_rounds() {
    let cluster = ClusterSpec::homogeneous(
        1,
        NodeSpec {
            name: String::new(),
            cores: 8,
            disk_bps: 100e6,
            nic_bps: 10e6,
            mem_bytes: 1 << 30,
        },
    );
    // Two computes on 8 cores, capped at 2 and 16. Filling takes two
    // rounds: the first stops at the small cap (level 2), the second at
    // saturation (the big one gets the other 6 cores). Both then finish
    // at t = 1e6 µs, in one event.
    let mut g = ActivityGraph::new();
    for (work, parallelism) in [(2e6, 2), (6e6, 16)] {
        g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: work,
                parallelism,
            },
            &[],
            "c",
        );
    }
    granula_trace::enable();
    let res = Simulation::new(cluster).run(&g).unwrap();
    granula_trace::disable();
    assert_eq!(res.makespan_us, 1e6);
    assert_eq!(counter("engine.events_processed"), 1);
    assert_eq!(counter("engine.refill_waves"), 1);
    assert_eq!(counter("engine.fill_rounds"), 2);
}
