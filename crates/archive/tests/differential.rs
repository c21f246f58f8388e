//! Differential tests of the serving layer: the binary format, the
//! indexed evaluation of [`TreeIndex::evaluate`] and the cached
//! [`ShardedEngine`] are checked against the simpler references they must
//! be observationally identical to —
//!
//! * `save → load → save` produces **byte-identical** files, and a loaded
//!   store answers every query exactly like the in-memory original;
//! * index-routed evaluation produces exactly the ids, in exactly the
//!   order, of the linear-scan oracle ([`Query::select`]/
//!   [`Query::find_all`]), for arbitrary trees and arbitrary grammar-valid
//!   queries, with and without time windows;
//! * caching and invalidation never change what a query returns, only how
//!   fast it returns.

use proptest::prelude::*;

use granula_archive::{
    store_from_bytes, store_to_bytes, ArchiveStore, JobArchive, JobMeta, Query, QueryMode,
    ServeOptions, ShardedEngine, TreeIndex, SCAN_THRESHOLD,
};
use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

/// An archive whose tree mixes a handful of kinds (so kind indexes have
/// real candidate lists) and stamps start times on a subset of operations
/// (so interval queries select non-trivially). Trees this size sit under
/// the planner's `SCAN_THRESHOLD`, so these archives exercise the
/// cost-based scan fallback; see [`arb_big_archive`] for the indexed
/// paths.
fn arb_archive(job_id: &'static str) -> impl Strategy<Value = JobArchive> {
    arb_archive_sized(job_id, 0..40)
}

/// An archive big enough (> [`SCAN_THRESHOLD`] operations) that the
/// planner actually routes selective queries through the indexes.
fn arb_big_archive(job_id: &'static str) -> impl Strategy<Value = JobArchive> {
    arb_archive_sized(job_id, 160..320)
}

fn arb_archive_sized(
    job_id: &'static str,
    nodes: std::ops::Range<usize>,
) -> impl Strategy<Value = JobArchive> {
    (
        prop::collection::vec(
            (
                0usize..100,
                "[A-D]",
                "[0-9]{1,2}",
                prop::option::of(0u64..5_000),
            ),
            nodes,
        ),
        prop::collection::vec(
            ("[A-Za-z]{1,8}", any::<i64>().prop_map(InfoValue::Int)),
            0..20,
        ),
    )
        .prop_map(move |(nodes, infos)| {
            let mut tree = OperationTree::new();
            let root = tree
                .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
                .expect("fresh tree");
            let mut ids = vec![root];
            for (pick, kind, mid, start) in nodes {
                let parent = ids[pick % ids.len()];
                let id = tree
                    .add_child(
                        parent,
                        Actor::new(kind.clone(), mid.clone()),
                        Mission::new(kind, mid),
                    )
                    .expect("parent exists");
                if let Some(s) = start {
                    tree.set_info(id, Info::raw(names::START_TIME, InfoValue::Int(s as i64)))
                        .expect("id exists");
                }
                ids.push(id);
            }
            for (i, (name, value)) in infos.into_iter().enumerate() {
                let target = ids[i % ids.len()];
                tree.set_info(target, Info::raw(name, value))
                    .expect("target exists");
            }
            JobArchive::new(
                JobMeta {
                    job_id: job_id.into(),
                    platform: "P".into(),
                    algorithm: "A".into(),
                    dataset: "D".into(),
                    nodes: 8,
                    model: "m".into(),
                },
                tree,
            )
        })
}

/// A grammar-valid query string: 1–4 segments over the same small kind
/// alphabet the trees use (so queries actually hit), with optional actor
/// patterns and an optional trailing `[lo..hi]` window.
fn arb_pattern() -> impl Strategy<Value = String> {
    let kind = prop_oneof![
        Just(String::from("*")),
        Just(String::from("Job")),
        "[A-D]".boxed(),
        "[A-Za-z]{1,6}".boxed(),
    ];
    let id = prop::option::of(prop_oneof![Just(String::from("*")), "[0-9]{1,2}".boxed()]);
    (kind, id).prop_map(|(k, id)| match id {
        Some(id) => format!("{k}-{id}"),
        None => k,
    })
}

fn arb_query_text() -> impl Strategy<Value = String> {
    let segment = (arb_pattern(), prop::option::of(arb_pattern())).prop_map(|(m, a)| match a {
        Some(a) => format!("{m}@{a}"),
        None => m,
    });
    let window = prop::option::of((prop::option::of(0u64..6_000), prop::option::of(0u64..6_000)));
    (prop::collection::vec(segment, 1..4), window).prop_map(|(segments, window)| {
        let mut text = segments.join("/");
        if let Some((lo, hi)) = window {
            let lo = lo.map(|v| v.to_string()).unwrap_or_default();
            let hi = hi.map(|v| v.to_string()).unwrap_or_default();
            text.push_str(&format!("[{lo}..{hi}]"));
        }
        text
    })
}

proptest! {
    /// The binary envelope is deterministic and lossless: encoding is a
    /// fixed point under decode→re-encode, and every archive survives the
    /// roundtrip bit-for-bit.
    #[test]
    fn save_load_save_is_byte_identical(
        a in arb_archive("job-a"),
        b in arb_archive("job-b"),
    ) {
        let mut store = ArchiveStore::new();
        store.add(a).expect("fresh id");
        store.add(b).expect("distinct id");
        let bytes = store_to_bytes(&store);
        let loaded = store_from_bytes(&bytes).expect("decodable");
        let bytes2 = store_to_bytes(&loaded);
        prop_assert_eq!(&bytes, &bytes2, "decode->re-encode must be a fixed point");
        prop_assert_eq!(loaded.len(), store.len());
        for (x, y) in store.iter().zip(loaded.iter()) {
            prop_assert_eq!(x, y, "archive changed across the binary roundtrip");
        }
    }

    /// A store that went through the binary format answers every query
    /// exactly like the in-memory original.
    #[test]
    fn loaded_store_queries_equal_in_memory(
        a in arb_archive("job-a"),
        queries in prop::collection::vec(arb_query_text(), 1..6),
    ) {
        let mut store = ArchiveStore::new();
        store.add(a).expect("fresh id");
        let loaded =
            store_from_bytes(&store_to_bytes(&store)).expect("decodable");
        let (orig, back) = (
            &store.get("job-a").expect("held").tree,
            &loaded.get("job-a").expect("held").tree,
        );
        for text in queries {
            let q = Query::parse(&text).expect("grammar-valid by construction");
            prop_assert_eq!(q.select(orig), q.select(back), "select over `{}`", &text);
            prop_assert_eq!(q.find_all(orig), q.find_all(back), "find_all over `{}`", &text);
        }
    }

    /// Indexed evaluation is observationally identical to the linear-scan
    /// oracle: same ids, same order, both anchor modes, window or not.
    #[test]
    fn indexed_results_equal_scan_oracle(
        a in arb_archive("job-a"),
        queries in prop::collection::vec(arb_query_text(), 1..8),
    ) {
        let tree = &a.tree;
        let index = TreeIndex::build(tree);
        for text in queries {
            let q = Query::parse(&text).expect("grammar-valid by construction");
            let selected = index.evaluate(tree, &q, QueryMode::Select);
            prop_assert_eq!(&selected, &q.select(tree), "select over `{}`", &text);
            let found = index.evaluate(tree, &q, QueryMode::FindAll);
            prop_assert_eq!(&found, &q.find_all(tree), "find_all over `{}`", &text);
        }
    }

    /// Above the cost threshold the planner genuinely engages the
    /// indexes — and its per-query choice (index route, low-selectivity
    /// fallback, or Select-without-window fallback) must never change
    /// what a query returns.
    #[test]
    fn cost_aware_planner_equals_scan_above_threshold(
        a in arb_big_archive("job-a"),
        queries in prop::collection::vec(arb_query_text(), 1..8),
    ) {
        let tree = &a.tree;
        prop_assert!(tree.len() > SCAN_THRESHOLD, "archive must clear the threshold");
        let index = TreeIndex::build(tree);
        for text in queries {
            let q = Query::parse(&text).expect("grammar-valid by construction");
            for mode in [QueryMode::Select, QueryMode::FindAll] {
                let oracle = match mode {
                    QueryMode::Select => q.select(tree),
                    QueryMode::FindAll => q.find_all(tree),
                };
                let got = index.evaluate(tree, &q, mode);
                prop_assert_eq!(
                    got,
                    oracle,
                    "planner route diverged for `{}` ({:?}, plan {:?})",
                    &text,
                    mode,
                    index.plan_for(&q, mode)
                );
            }
        }
    }

    /// Caching and invalidation are invisible: asking the same queries
    /// again — before and after an upsert that swaps the tree — always
    /// matches a fresh scan of the store's current contents.
    #[test]
    fn cache_is_transparent_across_upserts(
        first in arb_archive("job-a"),
        second in arb_archive("job-a"),
        queries in prop::collection::vec(arb_query_text(), 1..5),
    ) {
        let queries: Vec<Query> = queries
            .iter()
            .map(|t| Query::parse(t).expect("grammar-valid"))
            .collect();
        let mut store = ArchiveStore::new();
        store.add(first).expect("fresh id");
        let engine = ShardedEngine::from_store(store, ServeOptions::default());
        let query = |q: &Query| {
            engine
                .query("job-a", q, QueryMode::FindAll)
                .expect("in-memory jobs never fail to decode")
                .expect("held")
        };
        for q in &queries {
            // Twice: the second answer is served from the cache.
            let x = query(q);
            let y = query(q);
            prop_assert_eq!(&x, &y, "cached answer diverged for `{}`", q);
        }
        prop_assert!(engine.snapshot().cache_hits >= queries.len() as u64);
        let tree = second.tree.clone();
        engine.upsert(second);
        for q in &queries {
            let fresh = query(q);
            prop_assert_eq!(
                &*fresh,
                &q.find_all(&tree),
                "stale cache served after upsert for `{}`",
                q
            );
        }
    }
}
