//! Metric names, the traced run's per-layer arithmetic, and the printed
//! result: a human-readable table, then one JSON line last.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use granula_archive::ServeSnapshot;
use granula_trace::{MetricValue, SpanRecord};

use crate::checks::Checks;
use crate::pipeline::{Counts, Workload};
use crate::serve::{EngineProbe, LoopResult, BATCH};
use crate::stats::{self_time, union_len, valid_name, valid_unit, Summary};

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order. The
/// p99 of each latency is printed with its sample count but not gated:
/// on a shared 2-core machine it spreads beyond any usable bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve_cold_p50_us", "us"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("graph.gen_ms", "ms"),
    ("graph.gen_ns_per_edge", "ns/edge"),
    ("graph.gen_full_ms", "ms"),
    ("graph.gen_full_ns_per_edge", "ns/edge"),
    ("graph.partition_hash_ms", "ms"),
    ("graph.partition_greedy_vc_ms", "ms"),
    ("graph.partition_block_ms", "ms"),
    ("platforms.algorithm_ms", "ms"),
    ("platforms.supersteps", "count"),
    ("platforms.messages", "count"),
    ("platforms.run_ms", "ms"),
    ("platforms.dag_sim_emit_ms", "ms"),
    ("platforms.events", "count"),
    ("cluster.simulate_ms", "ms"),
    ("cluster.events_processed", "count"),
    ("cluster.heap_stale_ratio", "ratio"),
    ("core.evaluate_ms", "ms"),
    ("monitor.filter_ms", "ms"),
    ("monitor.assemble_ms", "ms"),
    ("model.derive_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("monitor.env_map_ms", "ms"),
    ("monitor.events_kept_ratio", "ratio"),
    ("archive.ops", "count"),
    ("archive.encode_ms", "ms"),
    ("archive.bytes_per_op", "B/op"),
    ("archive.save_ms", "ms"),
    ("archive.open_ms", "ms"),
    ("archive.decode_ms", "ms"),
    ("archive.decode_mb_per_s", "MB/s"),
    ("archive.query_hot_us", "us"),
    ("archive.query_wide_us", "us"),
    ("archive.cache_hit_ratio", "ratio"),
    ("archive.decodes", "count"),
    ("archive.protocol_us", "us"),
    ("serve.hot_rps", "1/s"),
    ("serve.hot_rtt_us", "us"),
    ("serve.wide_rps", "1/s"),
    ("serve.wide_rtt_us", "us"),
    ("regress.ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("viz.render_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One named value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The program's span around `<Platform>::run_on` in `run_experiment`
/// (stage, name prefix).
const PLATFORM_RUN_SPAN: (&str, &str) = ("monitoring", "platform_run ");
/// The program's span around `EvaluationProcess::evaluate`.
const EVALUATE_SPAN: (&str, &str) = ("archiving", "evaluate ");

/// Program spans that time the algorithm inside `<Platform>::run_on`.
const ALGORITHM_SPANS: [&str; 4] = [
    "giraph.vertex_program ",
    "powergraph.gas_program ",
    "grape.eval ",
    "graphx.vertex_program ",
];

/// The benchmark's spans of a traced section, aggregated per layer.
pub struct Layers<'a> {
    spans: &'a [SpanRecord],
    /// Layer name → (summed self time µs, call durations µs).
    by_name: BTreeMap<&'a str, (u64, Vec<u64>)>,
    /// `[start, end)` of every layer span.
    intervals: Vec<(u64, u64)>,
}

impl<'a> Layers<'a> {
    /// Layer spans are the benchmark's `bench` spans; their children are
    /// the benchmark spans opened inside them. Program spans are reported
    /// on their own and are not subtracted.
    pub fn new(spans: &'a [SpanRecord]) -> Layers<'a> {
        let bench = |s: &SpanRecord| s.stage.starts_with("bench");
        let interval = |s: &SpanRecord| (s.start_us, s.start_us + s.dur_us);
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| bench(s)) {
            if let Some(parent) = s.parent {
                children.entry(parent).or_default().push(interval(s));
            }
        }
        let mut by_name: BTreeMap<&str, (u64, Vec<u64>)> = BTreeMap::new();
        let mut intervals = Vec::new();
        for s in spans.iter().filter(|s| s.stage == "bench") {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let entry = by_name.entry(s.name.as_str()).or_default();
            entry.0 += self_time(interval(s), kids);
            entry.1.push(s.dur_us);
            intervals.push(interval(s));
        }
        Layers {
            spans,
            by_name,
            intervals,
        }
    }

    /// Summed self time of a layer, ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(us, _)| *us as f64 / 1e3)
    }

    /// Median duration of one call of a layer, ms.
    pub fn median_call_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |(_, d)| {
            crate::stats::median(&d.iter().map(|&us| us as f64 / 1e3).collect::<Vec<_>>())
        })
    }

    /// Share of `section` covered by the union of layer spans.
    pub fn coverage(&self, section: Duration) -> f64 {
        union_len(&self.intervals) as f64 / section.as_micros().max(1) as f64
    }

    /// The program's spans of one kind.
    fn program(
        &self,
        (stage, prefix): (&'static str, &'static str),
    ) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.stage == stage && s.name.starts_with(prefix))
    }

    /// Summed duration of the program's spans of one kind, ms.
    fn program_ms(&self, kind: (&'static str, &'static str)) -> f64 {
        self.program(kind).map(|s| s.dur_us as f64 / 1e3).sum()
    }

    /// DAG build + simulation + log emission: the part of each platform
    /// run span after the program's algorithm span inside it ends
    /// (partitioning and the algorithm run before it), ms.
    fn after_algorithm_ms(&self) -> f64 {
        let mut alg_end: HashMap<u64, u64> = HashMap::new();
        for s in self.spans {
            if let Some(parent) = s.parent {
                if ALGORITHM_SPANS.iter().any(|p| s.name.starts_with(p)) {
                    let end = alg_end.entry(parent).or_default();
                    *end = (*end).max(s.start_us + s.dur_us);
                }
            }
        }
        self.program(PLATFORM_RUN_SPAN)
            .map(|s| {
                let from = alg_end.get(&s.id).copied().unwrap_or(s.start_us);
                (s.start_us + s.dur_us).saturating_sub(from) as f64 / 1e3
            })
            .sum()
    }

    /// Summed duration of the program's `<platform>.simulate` spans, ms.
    fn simulate_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.stage == "platform")
            .filter(|s| {
                s.name
                    .split_once(' ')
                    .is_some_and(|(n, _)| n.ends_with(".simulate"))
            })
            .map(|s| s.dur_us as f64 / 1e3)
            .sum()
    }
}

/// What the per-layer metrics are computed from.
pub struct PerLayerInputs<'a> {
    pub layers: &'a Layers<'a>,
    pub counters: &'a BTreeMap<String, MetricValue>,
    pub counts: &'a Counts,
    pub probe: &'a EngineProbe,
    pub daemon: &'a ServeSnapshot,
    /// The traced run's closed-loop trials.
    pub hot: &'a LoopResult,
    pub wide: &'a LoopResult,
    pub coverage: f64,
    /// Traced minus untraced pass wall time, s.
    pub overhead_s: f64,
    /// Untraced pass wall time, s.
    pub untraced_s: f64,
}

/// Every [`PER_LAYER`] metric.
pub fn per_layer(i: PerLayerInputs) -> Vec<Metric> {
    let l = i.layers;
    let c = i.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let counter = |name: &str| match i.counters.get(name) {
        Some(MetricValue::Counter(n)) => *n as f64,
        Some(MetricValue::Gauge(v)) => *v,
        None => 0.0,
    };
    let decode_s = i.probe.decode.as_secs_f64();
    let hits = i.daemon.cache_hits as f64;
    let values: HashMap<&str, f64> = HashMap::from([
        ("graph.gen_ms", l.ms("graph.gen")),
        (
            "graph.gen_ns_per_edge",
            ratio(l.ms("graph.gen") * 1e6, c.gen_edges as f64),
        ),
        ("graph.gen_full_ms", l.ms("graph.gen_full")),
        (
            "graph.gen_full_ns_per_edge",
            ratio(l.ms("graph.gen_full") * 1e6, c.gen_full_edges as f64),
        ),
        ("graph.partition_hash_ms", l.ms("graph.partition_hash")),
        (
            "graph.partition_greedy_vc_ms",
            l.ms("graph.partition_greedy_vc"),
        ),
        ("graph.partition_block_ms", l.ms("graph.partition_block")),
        ("platforms.algorithm_ms", l.ms("platforms.algorithm")),
        ("platforms.supersteps", c.supersteps as f64),
        ("platforms.messages", c.messages as f64),
        ("platforms.run_ms", l.program_ms(PLATFORM_RUN_SPAN)),
        ("platforms.dag_sim_emit_ms", l.after_algorithm_ms()),
        ("platforms.events", c.platform_events as f64),
        ("cluster.simulate_ms", l.simulate_ms()),
        (
            "cluster.events_processed",
            counter("engine.events_processed"),
        ),
        (
            "cluster.heap_stale_ratio",
            counter("engine.stale_entry_ratio"),
        ),
        ("core.evaluate_ms", l.program_ms(EVALUATE_SPAN)),
        ("monitor.filter_ms", l.ms("monitor.filter")),
        ("monitor.assemble_ms", l.ms("monitor.assemble")),
        ("model.derive_ms", l.ms("model.derive")),
        ("model.validate_ms", l.ms("model.validate")),
        ("monitor.env_map_ms", l.ms("monitor.env_map")),
        (
            "monitor.events_kept_ratio",
            ratio(c.events_kept as f64, c.events_total as f64),
        ),
        ("archive.ops", c.ops as f64),
        ("archive.encode_ms", l.ms("archive.encode")),
        (
            "archive.bytes_per_op",
            ratio(c.encoded_bytes as f64, c.ops as f64),
        ),
        ("archive.save_ms", l.ms("archive.save")),
        ("archive.open_ms", l.median_call_ms("archive.open")),
        ("archive.decode_ms", decode_s * 1e3),
        (
            "archive.decode_mb_per_s",
            ratio(i.probe.decoded_bytes as f64 / 1e6, decode_s),
        ),
        ("archive.query_hot_us", i.probe.query_hot_us),
        ("archive.query_wide_us", i.probe.query_wide_us),
        (
            "archive.cache_hit_ratio",
            ratio(hits, hits + i.daemon.cache_misses as f64),
        ),
        ("archive.decodes", i.daemon.admissions as f64),
        (
            "archive.protocol_us",
            i.hot.median_rtt_us() - BATCH as f64 * i.probe.query_hot_us,
        ),
        ("serve.hot_rps", i.hot.rps()),
        ("serve.hot_rtt_us", i.hot.median_rtt_us()),
        ("serve.wide_rps", i.wide.rps()),
        ("serve.wide_rtt_us", i.wide.median_rtt_us()),
        ("regress.ms", l.ms("regress")),
        ("core.analysis_ms", l.ms("core.analysis")),
        ("viz.render_ms", l.ms("viz.render")),
        ("trace.coverage", i.coverage),
        ("trace.overhead_ms", i.overhead_s * 1e3),
        (
            "trace.overhead_pct",
            ratio(100.0 * i.overhead_s, i.untraced_s),
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values[name],
        })
        .collect()
}

/// The metrics of one run and their printing.
pub struct Report {
    traced: bool,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Report {
        println!(
            "## {} — {} run\n",
            workload.name(),
            if traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        Report {
            traced,
            metrics: Vec::new(),
        }
    }

    /// Records a gauge and prints its row.
    pub fn gauge(&mut self, name: &'static str, unit: &'static str, value: f64) {
        println!("| {name:<30} | {unit:>7} | {value:>14.4} |");
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a timing's median and prints median, p99 and count.
    pub fn timing(&mut self, name: &'static str, unit: &'static str, s: Summary) {
        print_timing(name, unit, s);
        self.metrics.push(Metric {
            name,
            unit,
            value: s.p50,
        });
    }

    /// Per-layer self time and share of the traced section.
    pub fn print_layer_table(&self, layers: &Layers, section: Duration) {
        println!(
            "\n### layer self time in the traced section ({:.1} ms)\n",
            section.as_secs_f64() * 1e3
        );
        println!("| layer span                     | calls |   self ms | share |");
        println!("|--------------------------------|-------|-----------|-------|");
        let total = section.as_secs_f64() * 1e3;
        for (name, (us, calls)) in &layers.by_name {
            let ms = *us as f64 / 1e3;
            println!(
                "| {name:<30} | {:>5} | {ms:>9.2} | {:>4.1}% |",
                calls.len(),
                100.0 * ms / total
            );
        }
    }

    pub fn print_checks(&self, checks: &Checks) {
        println!("\n### checks\n");
        for (gate, ok) in checks.gates() {
            println!("- [{}] {gate}", if ok { "pass" } else { "FAIL" });
        }
        println!(
            "- operations attempted {}, failed {}\n",
            checks.attempted, checks.failed
        );
    }

    /// Prints the JSON result line: the mode's metric set, in order.
    /// Returns whether the run is correct: every gate passed and every
    /// metric is present and finite.
    pub fn print_result(&self, checks: &Checks) -> bool {
        let wanted: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = checks.all_passed();
        let mut fields = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value);
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ => {
                    eprintln!("metric {name} is missing or not finite");
                    correct = false;
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.attempted.max(1),
            checks.failed,
            fields.join(", ")
        );
        correct
    }
}

fn print_timing(name: &str, unit: &str, s: Summary) {
    let p99 = if s.p99_supported {
        format!("{:.4}", s.p99)
    } else {
        format!("{:.4} (unsupported)", s.p99)
    };
    println!(
        "| {name:<30} | {unit:>7} | {:>14.4} | p99 {p99} | n {} |",
        s.p50, s.n
    );
}

/// Checks the metric tables: valid, unique names and units.
pub fn metric_tables_valid() -> bool {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    names.len() == all.len() && all.iter().all(|(n, u)| valid_name(n) && valid_unit(u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_are_valid() {
        assert!(metric_tables_valid());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let workloads: Vec<&str> = Workload::ALL
            .iter()
            .filter(|&&w| w != Workload::Fullscale2m)
            .map(|w| w.name())
            .collect();
        let expected: Vec<&str> = workloads.into_iter().chain(ours).collect();
        assert_eq!(declared, expected);
    }

    fn span(
        id: u64,
        parent: Option<u64>,
        stage: &'static str,
        name: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage,
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            tid: 1,
        }
    }

    #[test]
    fn layers_subtract_benchmark_children_only() {
        let spans = vec![
            span(1, None, "bench.group", "traced section", 0, 1000),
            span(2, Some(1), "bench", "experiment.run", 0, 600),
            // Program spans inside a layer are not subtracted.
            span(3, Some(2), "monitoring", "platform_run j (Giraph)", 0, 400),
            span(6, Some(3), "platform", "giraph.vertex_program j", 50, 100),
            span(7, Some(3), "platform", "giraph.simulate j", 200, 150),
            span(8, Some(2), "archiving", "evaluate j (Giraph)", 400, 150),
            span(4, Some(2), "bench", "graph.partition_hash", 300, 100),
            span(5, Some(1), "bench", "archive.save", 700, 250),
        ];
        let l = Layers::new(&spans);
        assert_eq!(l.ms("experiment.run"), 0.5);
        assert_eq!(l.ms("graph.partition_hash"), 0.1);
        assert_eq!(l.ms("archive.save"), 0.25);
        assert_eq!(l.program_ms(PLATFORM_RUN_SPAN), 0.4);
        assert_eq!(l.program_ms(EVALUATE_SPAN), 0.15);
        // The platform run after its algorithm span ends: 150..400.
        assert_eq!(l.after_algorithm_ms(), 0.25);
        assert_eq!(l.simulate_ms(), 0.15);
        assert!((l.coverage(Duration::from_micros(1000)) - 0.85).abs() < 1e-12);
    }
}
