//! Path queries over archived operation trees.
//!
//! Analysts "query the contents systematically" (paper §3.3). The query
//! language is a small path grammar over the operation hierarchy:
//!
//! ```text
//! query    := segment ("/" segment)* window?
//! segment  := mission ("@" actor)?
//! mission  := kind ("-" id)?            kind/id may be "*"
//! actor    := kind ("-" id)?            kind/id may be "*"
//! window   := "[" start? ".." end? "]"  microsecond timestamps
//! ```
//!
//! A `kind-id` pattern splits on the *first* dash: the kind never
//! contains `-`, while the id may (`Worker-node-302` is kind `Worker`,
//! id `node-302`). A dangling dash (`Compute-`) or leading dash
//! (`-302`) is rejected with [`QueryError::BadSegment`] — such patterns
//! could never match. Parsed queries re-serialize losslessly through
//! [`Display`](fmt::Display): `Query::parse(&q.to_string()) == Ok(q)`.
//!
//! Examples:
//!
//! * `GiraphJob/ProcessGraph/Superstep-4` — superstep 4 of the job;
//! * `*/ProcessGraph/Superstep/Compute@Worker-*` — every worker-level
//!   Compute under any superstep;
//! * `Compute[1000000..2000000]` — Compute operations *starting* within
//!   the half-open window `[1 s, 2 s)`; either bound may be omitted
//!   (`[..5000]`, `[5000..]`);
//! * a single segment such as `LoadGraph` can also be searched anywhere in
//!   the tree via [`Query::find_all`].
//!
//! Results are returned in ascending operation-id order (the tree's
//! insertion order), which makes query output canonical: indexed
//! evaluation ([`crate::index::TreeIndex::evaluate`]) and the scans here
//! agree byte-for-byte.

use std::fmt;

use serde::{Deserialize, Serialize};

use granula_model::{OpId, Operation, OperationTree};

/// Errors raised while parsing a query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query string was empty.
    Empty,
    /// A segment was malformed (e.g. empty mission, dangling `@`).
    BadSegment(String),
    /// A time window was malformed (e.g. `[x..]`, unbalanced brackets).
    BadWindow(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "empty query"),
            QueryError::BadSegment(s) => write!(f, "malformed query segment `{s}`"),
            QueryError::BadWindow(s) => write!(f, "malformed time window in `{s}`"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A `kind(-id)?` pattern where both parts may be wildcards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindPattern {
    /// Kind to match; `None` means any.
    pub kind: Option<String>,
    /// Instance id to match; `None` means any.
    pub id: Option<String>,
}

impl KindPattern {
    fn parse(s: &str) -> Result<Self, QueryError> {
        // Split on the *first* dash: kinds never contain `-`, but ids may
        // (fault archives name workers `Worker-node-302`). An empty kind
        // (leading dash or empty segment) or empty id (dangling dash)
        // could never match anything, so both are parse errors.
        let (kind, id) = match s.split_once('-') {
            Some((k, i)) => (k, Some(i)),
            None => (s, None),
        };
        if kind.is_empty() || id.is_some_and(str::is_empty) {
            return Err(QueryError::BadSegment(s.to_string()));
        }
        let norm = |p: &str| if p == "*" { None } else { Some(p.to_string()) };
        Ok(KindPattern {
            kind: norm(kind),
            id: id.and_then(norm),
        })
    }

    fn matches(&self, kind: &str, id: &str) -> bool {
        self.kind.as_deref().is_none_or(|k| k == kind) && self.id.as_deref().is_none_or(|i| i == id)
    }

    /// `true` when both kind and id are wildcards.
    pub fn is_any(&self) -> bool {
        self.kind.is_none() && self.id.is_none()
    }
}

/// One path segment: a mission pattern plus an optional actor pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Pattern over the mission.
    pub mission: KindPattern,
    /// Pattern over the actor (`kind: None, id: None` = any actor).
    pub actor: KindPattern,
}

impl Segment {
    /// Parses a single segment.
    pub fn parse(s: &str) -> Result<Self, QueryError> {
        let (mission_s, actor_s) = match s.split_once('@') {
            Some((m, a)) => (m, Some(a)),
            None => (s, None),
        };
        let mission = KindPattern::parse(mission_s)?;
        let actor = match actor_s {
            Some(a) => KindPattern::parse(a)?,
            None => KindPattern {
                kind: None,
                id: None,
            },
        };
        Ok(Segment { mission, actor })
    }

    /// Does this segment match the operation?
    pub fn matches(&self, op: &Operation) -> bool {
        self.mission.matches(&op.mission.kind, &op.mission.id)
            && self.actor.matches(&op.actor.kind, &op.actor.id)
    }
}

/// A half-open `[start, end)` filter over operation *start* times, in
/// microseconds since job epoch. `None` bounds are open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Inclusive lower bound on the start time.
    pub start_us: Option<u64>,
    /// Exclusive upper bound on the start time.
    pub end_us: Option<u64>,
}

impl TimeWindow {
    /// Does an operation starting at `start` (if known) fall in the window?
    /// Operations without a recorded start time never match a window.
    pub fn contains(&self, start: Option<u64>) -> bool {
        let Some(s) = start else { return false };
        self.start_us.is_none_or(|lo| s >= lo) && self.end_us.is_none_or(|hi| s < hi)
    }

    fn parse(s: &str) -> Result<Self, QueryError> {
        let Some((lo, hi)) = s.split_once("..") else {
            return Err(QueryError::BadWindow(s.to_string()));
        };
        let bound = |b: &str| -> Result<Option<u64>, QueryError> {
            if b.is_empty() {
                return Ok(None);
            }
            b.parse::<u64>()
                .map(Some)
                .map_err(|_| QueryError::BadWindow(s.to_string()))
        };
        Ok(TimeWindow {
            start_us: bound(lo)?,
            end_us: bound(hi)?,
        })
    }
}

/// A parsed path query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Segments from root to target.
    pub segments: Vec<Segment>,
    /// Optional filter on the start time of matched operations.
    pub window: Option<TimeWindow>,
}

impl Query {
    /// Parses a `/`-separated query string with an optional trailing
    /// `[start..end]` time window.
    pub fn parse(s: &str) -> Result<Self, QueryError> {
        if s.trim().is_empty() {
            return Err(QueryError::Empty);
        }
        let (path, window) = match (s.ends_with(']'), s.find('[')) {
            (true, Some(open)) => (
                &s[..open],
                Some(TimeWindow::parse(&s[open + 1..s.len() - 1])?),
            ),
            (false, None) => (s, None),
            // A `[` without closing `]` (or vice versa) is malformed.
            _ => return Err(QueryError::BadWindow(s.to_string())),
        };
        if path.trim().is_empty() {
            return Err(QueryError::Empty);
        }
        let segments = path
            .split('/')
            .map(Segment::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Query { segments, window })
    }

    /// Window acceptance for one operation (`true` when the query has no
    /// window).
    pub fn window_accepts(&self, op: &Operation) -> bool {
        self.window.is_none_or(|w| w.contains(op.start_us()))
    }

    /// Evaluates the query as an *absolute path* from the root: the first
    /// segment must match the root, each following segment matches children
    /// of the previous matches. Results are in ascending operation-id order.
    pub fn select(&self, tree: &OperationTree) -> Vec<OpId> {
        let _span = granula_trace::span!("archiving", "query.select {self}");
        let Some(root) = tree.root() else {
            return vec![];
        };
        let mut frontier: Vec<OpId> = if self.segments[0].matches(tree.op(root)) {
            vec![root]
        } else {
            vec![]
        };
        for seg in &self.segments[1..] {
            let mut next = Vec::new();
            for &id in &frontier {
                for &c in &tree.op(id).children {
                    if seg.matches(tree.op(c)) {
                        next.push(c);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        frontier.retain(|&id| self.window_accepts(tree.op(id)));
        // Canonical order: operation ids, not frontier-expansion order.
        frontier.sort_unstable();
        frontier
    }

    /// Evaluates the *last* segment anywhere in the tree (descendant search);
    /// preceding segments, if any, must match the chain of ancestors
    /// immediately above the hit. Results are in ascending operation-id
    /// order (insertion order).
    pub fn find_all(&self, tree: &OperationTree) -> Vec<OpId> {
        let _span = granula_trace::span!("archiving", "query.find_all {self}");
        let last = self.segments.last().expect("parse guarantees >= 1 segment");
        let mut out = Vec::new();
        'op: for op in tree.iter() {
            if !last.matches(op) || !self.window_accepts(op) {
                continue;
            }
            // Walk ancestors to match the remaining segments right-to-left.
            let mut cur = op.parent;
            for seg in self.segments[..self.segments.len() - 1].iter().rev() {
                match cur {
                    Some(pid) if seg.matches(tree.op(pid)) => cur = tree.op(pid).parent,
                    _ => continue 'op,
                }
            }
            out.push(op.id);
        }
        out
    }

    /// Collects the values of info `name` on all operations selected by
    /// [`Query::select`].
    pub fn select_info_f64(&self, tree: &OperationTree, name: &str) -> Vec<f64> {
        self.select(tree)
            .into_iter()
            .filter_map(|id| tree.op(id).info_f64(name))
            .collect()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            let m = &seg.mission;
            write!(f, "{}", m.kind.as_deref().unwrap_or("*"))?;
            if let Some(id) = &m.id {
                write!(f, "-{id}")?;
            }
            if !seg.actor.is_any() {
                write!(f, "@{}", seg.actor.kind.as_deref().unwrap_or("*"))?;
                if let Some(id) = &seg.actor.id {
                    write!(f, "-{id}")?;
                }
            }
        }
        if let Some(w) = &self.window {
            write!(f, "[")?;
            if let Some(lo) = w.start_us {
                write!(f, "{lo}")?;
            }
            write!(f, "..")?;
            if let Some(hi) = w.end_us {
                write!(f, "{hi}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_model::{Actor, Info, InfoValue, Mission};

    /// Job -> ProcessGraph -> Superstep-{0,1} -> Compute@Worker-{0,1}
    fn tree() -> OperationTree {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        let pg = t
            .add_child(
                job,
                Actor::new("Job", "0"),
                Mission::new("ProcessGraph", "0"),
            )
            .unwrap();
        for s in 0..2 {
            let ss = t
                .add_child(
                    pg,
                    Actor::new("Job", "0"),
                    Mission::new("Superstep", s.to_string()),
                )
                .unwrap();
            for w in 0..2 {
                let c = t
                    .add_child(
                        ss,
                        Actor::new("Worker", w.to_string()),
                        Mission::new("Compute", "0"),
                    )
                    .unwrap();
                t.set_info(c, Info::raw("Work", InfoValue::Int((s * 10 + w) as i64)))
                    .unwrap();
            }
        }
        t
    }

    #[test]
    fn absolute_path_selects_single_op() {
        let t = tree();
        let q = Query::parse("GiraphJob/ProcessGraph/Superstep-1").unwrap();
        let hits = q.select(&t);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.op(hits[0]).mission.id, "1");
    }

    #[test]
    fn wildcards_fan_out() {
        let t = tree();
        let q = Query::parse("*/ProcessGraph/Superstep/Compute@Worker-*").unwrap();
        assert_eq!(q.select(&t).len(), 4);
        let q1 = Query::parse("*/ProcessGraph/Superstep/Compute@Worker-1").unwrap();
        assert_eq!(q1.select(&t).len(), 2);
    }

    #[test]
    fn find_all_matches_anywhere() {
        let t = tree();
        let q = Query::parse("Compute").unwrap();
        assert_eq!(q.find_all(&t).len(), 4);
        // With an ancestor constraint.
        let q2 = Query::parse("Superstep-0/Compute").unwrap();
        assert_eq!(q2.find_all(&t).len(), 2);
    }

    #[test]
    fn select_info_values() {
        let t = tree();
        let q = Query::parse("*/ProcessGraph/Superstep-1/Compute").unwrap();
        let mut vals = q.select_info_f64(&t, "Work");
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![10.0, 11.0]);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(Query::parse(""), Err(QueryError::Empty));
        assert!(Query::parse("A/@Worker").is_err());
        assert!(Query::parse("A//B").is_err());
    }

    #[test]
    fn dashed_ids_split_on_first_dash() {
        let q = Query::parse("Worker-node-302").unwrap();
        assert_eq!(q.segments.len(), 1);
        assert_eq!(q.segments[0].mission.kind.as_deref(), Some("Worker"));
        assert_eq!(q.segments[0].mission.id.as_deref(), Some("node-302"));
        let q = Query::parse("Compute@Worker-node-302").unwrap();
        assert_eq!(q.segments[0].actor.kind.as_deref(), Some("Worker"));
        assert_eq!(q.segments[0].actor.id.as_deref(), Some("node-302"));
    }

    #[test]
    fn dangling_or_leading_dash_is_rejected() {
        for s in ["Compute-", "-302", "A/Compute-", "A@Worker-", "A@-1", "-"] {
            assert!(
                matches!(Query::parse(s), Err(QueryError::BadSegment(_))),
                "expected BadSegment for {s:?}"
            );
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "GiraphJob/ProcessGraph/Superstep-4",
            "*/Compute@Worker-1",
            "LoadGraph@*-3",
            "Worker-node-302",
            "*/Compute@Worker-node-302",
            "Compute[100..200]",
            "*/Compute@Worker-1[..5000]",
            "LoadGraph[99..]",
            "LoadGraph[..]",
        ] {
            let q = Query::parse(s).unwrap();
            assert_eq!(Query::parse(&q.to_string()).unwrap(), q, "roundtrip of {s}");
        }
    }

    #[test]
    fn window_filters_by_start_time() {
        // Compute starts are 0 for all four children in `tree()`; give the
        // supersteps distinct start times instead.
        let mut t = tree();
        let ss: Vec<_> = t.by_mission_kind("Superstep").map(|o| o.id).collect();
        for (i, id) in ss.iter().enumerate() {
            t.set_info(
                *id,
                Info::raw(
                    granula_model::names::START_TIME,
                    InfoValue::Int(1_000 * (i as i64 + 1)),
                ),
            )
            .unwrap();
        }
        let all = Query::parse("Superstep").unwrap().find_all(&t);
        assert_eq!(all.len(), 2);
        let first = Query::parse("Superstep[1000..2000]").unwrap().find_all(&t);
        assert_eq!(first, vec![ss[0]]);
        // End bound is exclusive, start inclusive.
        let none = Query::parse("Superstep[..1000]").unwrap().find_all(&t);
        assert!(none.is_empty());
        let both = Query::parse("Superstep[1000..]").unwrap().find_all(&t);
        assert_eq!(both.len(), 2);
        // select applies the same filter.
        let sel = Query::parse("GiraphJob/ProcessGraph/Superstep[2000..]")
            .unwrap()
            .select(&t);
        assert_eq!(sel, vec![ss[1]]);
        // Ops without a start time never match a window.
        let computes = Query::parse("Compute[0..]").unwrap().find_all(&t);
        assert!(computes.is_empty());
    }

    #[test]
    fn malformed_windows_rejected() {
        for s in [
            "A[1..2",
            "A]1..2]",
            "A[x..]",
            "A[1.5..2]",
            "A[12]",
            "[1..2]",
        ] {
            assert!(
                matches!(
                    Query::parse(s),
                    Err(QueryError::BadWindow(_) | QueryError::Empty)
                ),
                "expected window error for {s:?}, got {:?}",
                Query::parse(s)
            );
        }
    }

    #[test]
    fn no_match_returns_empty() {
        let t = tree();
        let q = Query::parse("GiraphJob/LoadGraph").unwrap();
        assert!(q.select(&t).is_empty());
    }

    #[test]
    fn root_mismatch_returns_empty() {
        let t = tree();
        let q = Query::parse("PowerGraphJob/ProcessGraph").unwrap();
        assert!(q.select(&t).is_empty());
    }
}
