//! Satellite 4: concurrent readers vs a writer Arc-swapping a shard
//! mid-stream. Readers must never observe a torn result — every response
//! is bit-identical to the expected answer of *some* published
//! generation, and jobs in other shards are unaffected throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use granula_archive::{
    ArchiveStore, JobArchive, JobMeta, Query, QueryMode, ServeOptions, ShardedEngine,
};
use granula_model::{Actor, Mission, OperationTree};

fn job(job_id: &str, supersteps: i64, workers: i64) -> JobArchive {
    let mut t = OperationTree::new();
    let root = t
        .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
        .unwrap();
    for s in 0..supersteps {
        let ss = t
            .add_child(
                root,
                Actor::new("Job", "0"),
                Mission::new("Superstep", s.to_string()),
            )
            .unwrap();
        for w in 0..workers {
            t.add_child(
                ss,
                Actor::new("Worker", w.to_string()),
                Mission::new("Compute", "0"),
            )
            .unwrap();
        }
    }
    JobArchive::new(
        JobMeta {
            job_id: job_id.into(),
            platform: "Giraph".into(),
            algorithm: "BFS".into(),
            dataset: "d".into(),
            nodes: workers as u32,
            model: "m".into(),
        },
        t,
    )
}

/// The reference answer for `query` over exactly one archive: the
/// linear-scan oracle.
fn expected(archive: &JobArchive, query: &Query, mode: QueryMode) -> Vec<granula_model::OpId> {
    match mode {
        QueryMode::Select => query.select(&archive.tree),
        QueryMode::FindAll => query.find_all(&archive.tree),
    }
}

#[test]
fn readers_never_see_torn_results_across_swaps() {
    const READERS: usize = 4;
    const SWAPS: usize = 40;

    let gen_a = job("hot", 30, 3);
    let gen_b = job("hot", 55, 2); // different shape, different result set
    let bystander = job("steady", 10, 2);

    let mut store = ArchiveStore::new();
    store.add(gen_a.clone()).unwrap();
    store.add(bystander.clone()).unwrap();
    let engine = ShardedEngine::from_store(store, ServeOptions::default());

    let query = Query::parse("GiraphJob/Superstep/Compute").unwrap();
    let mode = QueryMode::Select;
    let want_a = expected(&gen_a, &query, mode);
    let want_b = expected(&gen_b, &query, mode);
    let want_steady = expected(&bystander, &query, mode);
    assert_ne!(want_a, want_b, "generations must be distinguishable");

    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let (engine, done) = (&engine, &done);
            let (query, want_a, want_b, want_steady) = (&query, &want_a, &want_b, &want_steady);
            readers.push(scope.spawn(move || {
                let mut seen = [0u64, 0]; // responses matching gen A / gen B
                let mut i = 0u64;
                while !done.load(Ordering::Acquire) || i == 0 {
                    i += 1;
                    let got = engine
                        .query("hot", query, mode)
                        .expect("no integrity errors on owned jobs")
                        .expect("hot never disappears");
                    if *got == *want_a {
                        seen[0] += 1;
                    } else if *got == *want_b {
                        seen[1] += 1;
                    } else {
                        panic!(
                            "reader {r} iteration {i}: torn result ({} ids matches neither \
                             generation {} nor {})",
                            got.len(),
                            want_a.len(),
                            want_b.len()
                        );
                    }
                    // The bystander lives in another shard-state and must
                    // be byte-stable throughout the swaps.
                    let steady = engine
                        .query("steady", query, mode)
                        .unwrap()
                        .expect("steady never disappears");
                    assert_eq!(*steady, *want_steady, "bystander changed under swaps");
                }
                seen
            }));
        }

        // The writer swaps the hot job back and forth while readers run.
        for s in 0..SWAPS {
            let next = if s % 2 == 0 { &gen_b } else { &gen_a };
            engine.upsert(next.clone());
            thread::yield_now();
        }
        done.store(true, Ordering::Release);

        let mut totals = [0u64, 0];
        for reader in readers {
            let seen = reader.join().expect("reader panicked");
            totals[0] += seen[0];
            totals[1] += seen[1];
        }
        // Every response matched one of the two generations (the panic
        // above would have fired otherwise); with 40 interleaved swaps
        // the readers should witness both.
        assert!(totals[0] + totals[1] > 0);
        assert!(
            totals[1] > 0,
            "readers never observed the swapped-in generation ({totals:?})"
        );
    });

    let snapshot = engine.snapshot();
    assert_eq!(snapshot.swaps, SWAPS as u64);
    // After the dust settles the final generation answers exactly.
    let last = if SWAPS % 2 == 1 { &want_b } else { &want_a };
    let got = engine.query("hot", &query, mode).unwrap().unwrap();
    assert_eq!(*got, *last);
}
