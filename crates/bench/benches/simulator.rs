//! Criterion benches of the cluster-simulator substrate: DAG execution
//! throughput and the max-min fair-sharing solver under contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gpsim_cluster::{ActivityGraph, ActivityKind, ClusterSpec, NodeId, Simulation};

/// A BSP-shaped DAG: `rounds` fork-join stages of `width` compute +
/// transfer activities over 8 nodes.
fn bsp_dag(rounds: u32, width: u32) -> ActivityGraph {
    let mut g = ActivityGraph::new();
    let mut barrier = g.barrier(&[], "start");
    for r in 0..rounds {
        let mut stage = Vec::with_capacity(width as usize);
        for i in 0..width {
            let node = NodeId((i % 8) as u16);
            let c = g.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: 5e5,
                    parallelism: 4,
                },
                &[barrier],
                format!("r{r}/c{i}"),
            );
            let t = g.add(
                ActivityKind::Transfer {
                    src: node,
                    dst: NodeId(((i + 1) % 8) as u16),
                    bytes: 1e6,
                },
                &[c],
                format!("r{r}/t{i}"),
            );
            stage.push(t);
        }
        barrier = g.barrier(&stage, format!("r{r}/join"));
    }
    g
}

fn bench_dag_execution(c: &mut Criterion) {
    let cluster = ClusterSpec::das5(8);
    let mut group = c.benchmark_group("simulate_bsp_dag");
    for &(rounds, width) in &[(10u32, 32u32), (50, 32), (50, 128)] {
        let dag = bsp_dag(rounds, width);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}acts", dag.len())),
            &dag,
            |b, dag| {
                let sim = Simulation::new(cluster.clone());
                b.iter(|| black_box(sim.run(black_box(dag)).unwrap().makespan_us))
            },
        );
    }
    group.finish();
}

fn bench_contention(c: &mut Criterion) {
    // Many concurrent activities on one node: stresses progressive filling.
    let cluster = ClusterSpec::das5(8);
    let mut group = c.benchmark_group("fair_share_contention");
    for &n in &[64u32, 512] {
        let mut g = ActivityGraph::new();
        for i in 0..n {
            g.add(
                ActivityKind::Compute {
                    node: NodeId(0),
                    work_core_us: 1e5 + i as f64,
                    parallelism: 1 + (i % 8),
                },
                &[],
                format!("c{i}"),
            );
            g.add(
                ActivityKind::DiskRead {
                    node: NodeId(0),
                    bytes: 1e6 + i as f64,
                },
                &[],
                format!("d{i}"),
            );
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let sim = Simulation::new(cluster.clone());
            b.iter(|| black_box(sim.run(black_box(g)).unwrap().makespan_us))
        });
    }
    group.finish();
}

/// `rounds` all-to-all exchanges on 32 nodes: per round, every ordered
/// node pair moves one transfer (992 at once) while each node runs two
/// computes, joined by a barrier. Transfer sizes and compute works are
/// staggered so completions arrive in many separate events. This is the
/// contention shape of a scaled-out PageRank superstep.
fn all_to_all_dag(rounds: u32) -> ActivityGraph {
    const NODES: u16 = 32;
    let mut g = ActivityGraph::new();
    let mut barrier = g.barrier(&[], "start");
    for r in 0..rounds {
        let mut stage = Vec::new();
        for src in 0..NODES {
            for k in 0..2u32 {
                stage.push(g.add(
                    ActivityKind::Compute {
                        node: NodeId(src),
                        work_core_us: 2e5 * (1 + (src as u32 + k) % 5) as f64,
                        parallelism: [4, 8, 16, 32][((src as u32 + k) % 4) as usize],
                    },
                    &[barrier],
                    format!("r{r}/c{src}.{k}"),
                ));
            }
            for dst in (0..NODES).filter(|&d| d != src) {
                let size = 1 + (src as u32 * 7 + dst as u32 * 13) % 64;
                stage.push(g.add(
                    ActivityKind::Transfer {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        bytes: 2.5e5 * size as f64,
                    },
                    &[barrier],
                    format!("r{r}/t{src}.{dst}"),
                ));
            }
        }
        barrier = g.barrier(&stage, format!("r{r}/join"));
    }
    g
}

fn bench_all_to_all(c: &mut Criterion) {
    let cluster = ClusterSpec::das5(32);
    let mut group = c.benchmark_group("fair_share_all_to_all");
    let dag = all_to_all_dag(1);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("32nodes_{}acts", dag.len())),
        &dag,
        |b, dag| {
            let sim = Simulation::new(cluster.clone());
            b.iter(|| black_box(sim.run(black_box(dag)).unwrap().makespan_us))
        },
    );
    group.finish();
}

fn bench_trace_sampling(c: &mut Criterion) {
    // Long-running activities spanning many one-second buckets.
    let cluster = ClusterSpec::das5(8);
    let mut g = ActivityGraph::new();
    for i in 0..64u32 {
        g.add(
            ActivityKind::Compute {
                node: NodeId((i % 8) as u16),
                work_core_us: 4e8, // ~100 s at 4 cores
                parallelism: 4,
            },
            &[],
            format!("c{i}"),
        );
    }
    c.bench_function("usage_trace_100s_64acts", |b| {
        let sim = Simulation::new(cluster.clone());
        b.iter(|| {
            let res = sim.run(black_box(&g)).unwrap();
            black_box(
                res.trace
                    .cumulative(gpsim_cluster::trace::Channel::Cpu)
                    .len(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_dag_execution,
    bench_contention,
    bench_all_to_all,
    bench_trace_sampling
);
criterion_main!(benches);
