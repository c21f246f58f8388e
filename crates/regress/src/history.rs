//! Archive history: a directory of `.gar` stores ordered into a time
//! series by their embedded [`RunMeta`] headers, with metric-series
//! extraction.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use granula_archive::{ArchiveStore, JobArchive, RunMeta};
use serde::{Deserialize, Serialize};

/// Mission kinds reported as per-phase cost metrics, the choke-point
/// phases of the paper's fig. 5 breakdown plus the superstep loop.
pub const PHASE_KINDS: [&str; 6] = [
    "Startup",
    "LoadGraph",
    "ProcessGraph",
    "OffloadGraph",
    "Cleanup",
    "Superstep",
];

/// Metric name of the whole-job runtime series.
pub const MAKESPAN: &str = "makespan";

/// One archived run inside the history.
#[derive(Debug)]
pub struct RunEntry {
    /// The run header the store was stamped with (or a fallback derived
    /// from the filename for pre-header v1 stores).
    pub meta: RunMeta,
    /// Where the run came from: a file name, or a caller-given tag.
    pub source: String,
    /// This run's archives. Public so tests and tools can `upsert` into
    /// a live history between extractions.
    pub store: ArchiveStore,
}

/// One metric's value across the history, oldest run first.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Job id the metric belongs to.
    pub job_id: String,
    /// Metric name: [`MAKESPAN`] or `phase/<Kind>`.
    pub metric: String,
    /// Metric values in run order, microseconds.
    pub values: Vec<f64>,
    /// For each value, the index into [`History::runs`] it came from
    /// (runs missing the job or the phase contribute nothing).
    pub run_indexes: Vec<usize>,
}

/// A history run that could not be ingested (unreadable or corrupt
/// `.gar` file). Skipped runs are carried through analysis into the
/// report (`skipped_runs` in `regress.json`) so a regression verdict
/// always discloses the evidence it was *not* able to weigh.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedRun {
    /// The file name of the run that was skipped.
    pub source: String,
    /// Why loading failed.
    pub reason: String,
}

/// An ordered sequence of archived runs.
#[derive(Debug, Default)]
pub struct History {
    runs: Vec<RunEntry>,
    skipped: Vec<SkippedRun>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads every `*.gar` file in `dir` (sorted by file name, then
    /// re-ordered by run header). Pre-header stores keep their filename
    /// position via the stable sort and get the file stem as run id.
    ///
    /// A run that fails to load — unreadable file, failed checksum,
    /// truncated or malformed payload — does **not** abort the ingest: a
    /// crashed run must not take regression detection down with it. The
    /// run is recorded in [`History::skipped`] instead, and the detector
    /// degrades to `insufficient` on its own when too few runs survive.
    /// Only the directory listing itself failing is an error.
    pub fn load_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        let _span = granula_trace::span!("archiving", "history.load_dir");
        let mut paths: Vec<_> = std::fs::read_dir(dir.as_ref())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "gar"))
            .collect();
        paths.sort();
        let mut history = History::new();
        for path in paths {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            match ArchiveStore::load(&path) {
                Ok(store) => history.push_store(store, name),
                Err(e) => history.skipped.push(SkippedRun {
                    source: name,
                    reason: e.to_string(),
                }),
            }
        }
        Ok(history)
    }

    /// Appends a run, then restores header order (stable, so ties keep
    /// insertion order). A store with an empty run id inherits its source
    /// stem as id.
    pub fn push_store(&mut self, store: ArchiveStore, source: impl Into<String>) {
        let source = source.into();
        let mut meta = store.run().clone();
        if meta.run_id.is_empty() {
            meta.run_id = source.trim_end_matches(".gar").to_string();
        }
        self.runs.push(RunEntry {
            meta,
            source,
            store,
        });
        self.runs.sort_by(|a, b| {
            let ka = a.meta.sort_key();
            let kb = b.meta.sort_key();
            (ka.0, ka.1.to_string()).cmp(&(kb.0, kb.1.to_string()))
        });
    }

    /// Appends the run *under test*: forced to the end of the order by
    /// bumping its timestamp past the newest history entry if needed, and
    /// named `current` when it carries no run id.
    pub fn push_latest(&mut self, store: ArchiveStore, source: impl Into<String>) {
        let mut meta = store.run().clone();
        if meta.run_id.is_empty() {
            meta.run_id = "current".to_string();
        }
        let newest = self.runs.iter().map(|r| r.meta.timestamp_us).max();
        if let Some(newest) = newest {
            if meta.timestamp_us <= newest {
                meta.timestamp_us = newest + 1;
            }
        }
        let store = store.with_run(meta);
        self.push_store(store, source);
    }

    /// A two-run history for a pairwise check: `baseline` as the only
    /// history run and `candidate` as the run under test, filed under the
    /// baseline's job id so their series line up.
    pub fn pair(baseline: JobArchive, mut candidate: JobArchive) -> Self {
        candidate.meta.job_id = baseline.meta.job_id.clone();
        let single = |archive: JobArchive| {
            let mut store = ArchiveStore::new();
            store
                .add(archive)
                .expect("an empty store has no duplicates");
            store
        };
        let mut history = History::new();
        history.push_store(single(baseline), "baseline");
        history.push_latest(single(candidate), "candidate");
        history
    }

    /// The ordered runs.
    pub fn runs(&self) -> &[RunEntry] {
        &self.runs
    }

    /// Runs that were present on disk but could not be loaded.
    pub fn skipped(&self) -> &[SkippedRun] {
        &self.skipped
    }

    /// Mutable access to one run's entry (for query/upsert interleaving).
    pub fn run_mut(&mut self, index: usize) -> &mut RunEntry {
        &mut self.runs[index]
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no run was loaded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Extracts every metric series: per job, the makespan plus each
    /// non-zero phase cost, the summed duration of every operation of the
    /// phase's mission kind ([`JobArchive::total_duration_of_us`]).
    pub fn series(&self) -> Vec<MetricSeries> {
        let _span = granula_trace::span!("archiving", "history.series runs={}", self.runs.len());
        let mut map: BTreeMap<(String, String), MetricSeries> = BTreeMap::new();
        for (run_idx, run) in self.runs.iter().enumerate() {
            for archive in run.store.iter() {
                let job_id = &archive.meta.job_id;
                let mut push = |metric: &str, value: f64| {
                    let entry = map
                        .entry((job_id.clone(), metric.to_string()))
                        .or_insert_with(|| MetricSeries {
                            job_id: job_id.clone(),
                            metric: metric.to_string(),
                            values: Vec::new(),
                            run_indexes: Vec::new(),
                        });
                    entry.values.push(value);
                    entry.run_indexes.push(run_idx);
                };
                if let Some(total) = archive.total_runtime_us() {
                    push(MAKESPAN, total as f64);
                }
                for kind in PHASE_KINDS {
                    let total = archive.total_duration_of_us(kind);
                    if total > 0 {
                        push(&format!("phase/{kind}"), total as f64);
                    }
                }
            }
        }
        map.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::scaled_store;
    use granula_archive::{JobArchive, JobMeta};
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn store(run: RunMeta, total_us: i64) -> ArchiveStore {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        t.set_info(job, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(job, Info::raw(names::END_TIME, InfoValue::Int(total_us)))
            .unwrap();
        let load = t
            .add_child(job, Actor::new("Job", "0"), Mission::new("LoadGraph", "0"))
            .unwrap();
        t.set_info(load, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(
            load,
            Info::raw(names::END_TIME, InfoValue::Int(total_us / 4)),
        )
        .unwrap();
        let mut s = ArchiveStore::new().with_run(run);
        s.add(JobArchive::new(
            JobMeta {
                job_id: "giraph-bfs".into(),
                platform: "Giraph".into(),
                ..JobMeta::default()
            },
            t,
        ))
        .unwrap();
        s
    }

    #[test]
    fn runs_order_by_header_not_insertion() {
        let mut h = History::new();
        h.push_store(store(RunMeta::new("r2", 200, ""), 100), "b.gar");
        h.push_store(store(RunMeta::new("r1", 100, ""), 100), "a.gar");
        h.push_store(store(RunMeta::new("r3", 300, ""), 100), "c.gar");
        let ids: Vec<_> = h.runs().iter().map(|r| r.meta.run_id.as_str()).collect();
        assert_eq!(ids, ["r1", "r2", "r3"]);
    }

    #[test]
    fn push_latest_always_lands_last() {
        let mut h = History::new();
        h.push_store(store(RunMeta::new("r1", 500, ""), 100), "a.gar");
        // A header-less store would otherwise sort first (timestamp 0).
        h.push_latest(store(RunMeta::default(), 100), "fresh.gar");
        assert_eq!(h.runs().last().unwrap().meta.run_id, "current");
        assert_eq!(h.runs().last().unwrap().meta.timestamp_us, 501);
    }

    #[test]
    fn series_extracts_makespan_and_nonzero_phases() {
        let mut h = History::new();
        for (i, f) in [1.0, 1.001, 0.999].iter().enumerate() {
            let base = store(
                RunMeta::new(format!("r{i}"), 100 * (i as u64 + 1), ""),
                1_000_000,
            );
            h.push_store(scaled_store(&base, *f), format!("r{i}.gar"));
        }
        let series = h.series();
        let metrics: Vec<_> = series.iter().map(|s| s.metric.as_str()).collect();
        assert_eq!(metrics, ["makespan", "phase/LoadGraph"]);
        for s in &series {
            assert_eq!(s.values.len(), 3);
            assert_eq!(s.run_indexes, [0, 1, 2]);
            assert_eq!(s.job_id, "giraph-bfs");
        }
        assert_eq!(series[0].values[0], 1_000_000.0);
        assert_eq!(series[1].values[0], 250_000.0);
    }

    #[test]
    fn load_dir_skips_corrupt_runs_with_reasons() {
        let dir = std::env::temp_dir().join(format!("granula-hist-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        store(RunMeta::new("good", 1_000, ""), 100)
            .save(dir.join("good.gar"))
            .unwrap();
        // A torn write: valid store chopped mid-file.
        let mut torn =
            granula_archive::store_to_bytes(&store(RunMeta::new("torn", 2_000, ""), 100));
        torn.truncate(torn.len() / 2);
        std::fs::write(dir.join("torn.gar"), &torn).unwrap();
        // Not an archive at all.
        std::fs::write(dir.join("junk.gar"), b"not an archive").unwrap();
        let h = History::load_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(h.len(), 1);
        assert_eq!(h.runs()[0].meta.run_id, "good");
        let mut skipped: Vec<_> = h.skipped().iter().map(|s| s.source.as_str()).collect();
        skipped.sort();
        assert_eq!(skipped, ["junk.gar", "torn.gar"]);
        for s in h.skipped() {
            assert!(!s.reason.is_empty(), "{}: reason must say why", s.source);
        }
    }

    #[test]
    fn load_dir_round_trips_headers() {
        let dir = std::env::temp_dir().join(format!("granula-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // File names in *reverse* chronological order: headers must win.
        store(RunMeta::new("new", 2_000, ""), 100)
            .save(dir.join("a-newest.gar"))
            .unwrap();
        store(RunMeta::new("old", 1_000, ""), 100)
            .save(dir.join("z-oldest.gar"))
            .unwrap();
        let h = History::load_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let ids: Vec<_> = h.runs().iter().map(|r| r.meta.run_id.as_str()).collect();
        assert_eq!(ids, ["old", "new"]);
        assert_eq!(h.runs()[0].source, "z-oldest.gar");
    }
}
