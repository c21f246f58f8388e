//! Archive query microbenchmarks: indexed evaluation and the cached
//! serving engine against the linear scans of `granula_archive::query`.
//!
//! Three archives:
//!
//! - `fig5`: the Giraph dg1000 archive the `fig5` binary persists via
//!   `--archive-out` (hundreds of operations);
//! - `cluster`: a synthetic 200-superstep × 64-worker job (~13k
//!   operations) — the shape one paper-scale experiment on a larger
//!   cluster archives;
//! - `tiny`: an 8 × 8 job (74 operations) sitting under the planner's
//!   `SCAN_THRESHOLD` — the crossover regime where PR 5 measured
//!   `indexed` slower than `scan` and `plan_for` now falls back to the
//!   scan, so `indexed` must track `scan` to within planning overhead.
//!
//! Three access paths per query shape:
//!
//! - `scan`: `Query::select`/`find_all` walking every operation;
//! - `indexed`: `TreeIndex::evaluate` — planner + candidate-list
//!   evaluation, no result cache;
//! - `cached`: `ShardedEngine::query` on a one-shard engine in steady
//!   state, i.e. an analyst re-running the same queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use granula::experiment::{dg1000_quick, Platform};
use granula_archive::{
    ArchiveStore, JobArchive, JobMeta, Query, QueryMode, ServeOptions, ShardedEngine, TreeIndex,
};
use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

/// A synthetic paper-scale archive: `supersteps` × `workers` compute
/// operations under a superstep layer, every operation timestamped.
fn cluster_archive(supersteps: u64, workers: u64) -> JobArchive {
    let mut tree = OperationTree::new();
    let job = tree
        .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
        .expect("fresh tree");
    let proc_ = tree
        .add_child(
            job,
            Actor::new("Job", "0"),
            Mission::new("ProcessGraph", "0"),
        )
        .expect("parent exists");
    for s in 0..supersteps {
        let ss = tree
            .add_child(
                proc_,
                Actor::new("Job", "0"),
                Mission::new("Superstep", s.to_string()),
            )
            .expect("parent exists");
        tree.set_info(
            ss,
            Info::raw(names::START_TIME, InfoValue::Int((s * 100_000) as i64)),
        )
        .expect("id exists");
        for w in 0..workers {
            let c = tree
                .add_child(
                    ss,
                    Actor::new("Worker", w.to_string()),
                    Mission::new("Compute", s.to_string()),
                )
                .expect("parent exists");
            tree.set_info(
                c,
                Info::raw(
                    names::START_TIME,
                    InfoValue::Int((s * 100_000 + w * 10) as i64),
                ),
            )
            .expect("id exists");
        }
    }
    JobArchive::new(
        JobMeta {
            job_id: "cluster".into(),
            platform: "Giraph".into(),
            algorithm: "BFS".into(),
            dataset: "synthetic".into(),
            nodes: workers as u32,
            model: "giraph-v4".into(),
        },
        tree,
    )
}

/// `(label, query, mode)` shapes covering each planner access path, all
/// selective — the queries analysts actually issue against an archive.
fn shapes() -> Vec<(&'static str, Query, QueryMode)> {
    [
        // Mission-kind index: one superstep out of the whole tree.
        (
            "one_superstep",
            "GiraphJob/ProcessGraph/Superstep-3",
            QueryMode::Select,
        ),
        // Mission-kind index with an anchor chain above the hit.
        ("supersteps", "ProcessGraph/Superstep", QueryMode::FindAll),
        // Interval index: a narrow window over the run.
        ("window", "*[200000..300000]", QueryMode::FindAll),
        // Actor-kind index via a wildcard mission.
        (
            "one_worker_sliced",
            "Compute@Worker-7[0..400000]",
            QueryMode::FindAll,
        ),
    ]
    .into_iter()
    .map(|(label, text, mode)| (label, Query::parse(text).expect("valid query"), mode))
    .collect()
}

fn scan(tree: &OperationTree, q: &Query, mode: QueryMode) -> Vec<granula_model::OpId> {
    match mode {
        QueryMode::Select => q.select(tree),
        QueryMode::FindAll => q.find_all(tree),
    }
}

fn bench_archive(c: &mut Criterion, group_name: &str, archive: JobArchive) {
    let job_id = archive.meta.job_id.clone();
    let tree = archive.tree.clone();
    println!("{group_name}: {} operations", tree.len());
    let index = TreeIndex::build(&tree);
    let mut store = ArchiveStore::new();
    store.add(archive).expect("fresh id");
    let one_shard = ServeOptions {
        shards: 1,
        ..ServeOptions::default()
    };
    let engine = ShardedEngine::from_store(store, one_shard);

    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    for (label, query, mode) in shapes() {
        group.bench_with_input(BenchmarkId::new("scan", label), &query, |b, q| {
            b.iter(|| scan(&tree, q, mode))
        });
        group.bench_with_input(BenchmarkId::new("indexed", label), &query, |b, q| {
            b.iter(|| index.evaluate(&tree, q, mode))
        });
        group.bench_with_input(BenchmarkId::new("cached", label), &query, |b, q| {
            b.iter(|| {
                engine
                    .query(&job_id, q, mode)
                    .expect("in-memory jobs never fail to decode")
                    .expect("job held")
            })
        });
    }
    group.finish();
}

fn archive_query(c: &mut Criterion) {
    bench_archive(
        c,
        "archive_query_fig5",
        dg1000_quick(Platform::Giraph, 8_000).report.archive,
    );
    bench_archive(c, "archive_query_cluster", cluster_archive(200, 64));
    bench_archive(c, "archive_query_tiny", cluster_archive(8, 8));
}

criterion_group!(benches, archive_query);
criterion_main!(benches);
