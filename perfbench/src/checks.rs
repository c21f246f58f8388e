//! Correctness gates and failure accounting. A run is correct only when
//! every gate passed and no operation failed.

use std::collections::BTreeMap;

use granula::calibration::PAPER;
use granula::Phase;
use granula_regress::Status;

use crate::pipeline::{PassOutcome, Workload};
use crate::serve::Tally;

/// The committed Figure 5 output `paper-dg1000` must reproduce at the
/// default seed.
pub const FIG5_RESULTS: &str = "results/fig5.txt";

/// Relative band around the paper's Giraph runtime the full-scale job
/// must land in.
const FULLSCALE_BAND: f64 = 0.05;

/// Named gates plus operation counts.
#[derive(Debug, Default)]
pub struct Checks {
    gates: BTreeMap<String, bool>,
    /// Jobs run and requests sent.
    pub attempted: u64,
    /// Jobs that failed a check, error responses, mismatched samples.
    pub failed: u64,
}

impl Checks {
    /// Records a gate; a gate recorded several times passes only if every
    /// record passed.
    pub fn record(&mut self, gate: &str, ok: bool) {
        *self.gates.entry(gate.to_string()).or_insert(true) &= ok;
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.gates.values().all(|&ok| ok)
    }

    pub fn gates(&self) -> impl Iterator<Item = (&str, bool)> {
        self.gates.iter().map(|(g, ok)| (g.as_str(), *ok))
    }

    /// Per-job and cross-pass gates of one pipeline pass; `first` is the
    /// run's first pass, which this one must repeat exactly.
    pub fn pass(&mut self, w: Workload, pass: &PassOutcome, first: Option<&PassOutcome>) {
        for job in &pass.jobs {
            self.attempted += 1;
            let clean = job.validation_issues == 0 && job.assembly_warnings == 0;
            let output = job.output_ok != Some(false);
            self.record("validation is clean, with no assembly warnings", clean);
            self.record(
                "algorithm outputs match the reference implementation",
                output,
            );
            if !(clean && output) {
                self.failed += 1;
                eprintln!(
                    "{}: {} validation issue(s), {} assembly warning(s), output matches {:?}; first: {}",
                    job.job_id,
                    job.validation_issues,
                    job.assembly_warnings,
                    job.output_ok,
                    job.first_problem.as_deref().unwrap_or("-")
                );
            }
        }
        if let Some(first) = first {
            let key = |p: &PassOutcome| -> Vec<(String, u64, usize)> {
                p.jobs
                    .iter()
                    .map(|j| (j.job_id.clone(), j.makespan_us, j.events))
                    .collect()
            };
            self.record(
                "makespans and event counts repeat across passes",
                key(pass) == key(first),
            );
        }
        if w == Workload::Fullscale2m {
            let paper = PAPER.giraph_total_s;
            let within = pass
                .jobs
                .iter()
                .all(|j| ((j.makespan_us as f64 / 1e6 - paper) / paper).abs() <= FULLSCALE_BAND);
            self.record("makespan within 5% of the paper's Giraph runtime", within);
        }
    }

    /// Folds a serve phase's requests in: every response `OK`, every
    /// sampled response equal to the in-process answer.
    pub fn absorb_tally(&mut self, gate: &str, tally: &Tally, mismatches: u64) {
        self.attempted += tally.attempted;
        self.failed += tally.failed + mismatches;
        self.record(gate, tally.failed == 0 && mismatches == 0);
    }

    /// Gates of the default-seed `paper-dg1000` pass, the inputs the
    /// committed Figure 5 output and regression history were recorded on:
    /// the totals and domain fractions of `results/fig5.txt`, and an `ok`
    /// regress verdict.
    pub fn default_seed(&mut self, pass: &PassOutcome) -> Result<(), String> {
        self.record("regress verdict is ok", pass.regress == Some(Status::Ok));
        let text = std::fs::read_to_string(FIG5_RESULTS)
            .map_err(|e| format!("reading {FIG5_RESULTS}: {e}"))?;
        let expected = parse_fig5(&text);
        let mut measured = BTreeMap::new();
        for job in &pass.jobs {
            let b = &job.breakdown;
            let platform = job.platform.name().to_string();
            let pct = |p: Phase| format!("{:.2}", 100.0 * b.fraction(p));
            measured.insert(
                (platform.clone(), "total runtime".into()),
                format!("{:.2}", b.total_s()),
            );
            measured.insert(
                (platform.clone(), "input/output fraction".into()),
                pct(Phase::InputOutput),
            );
            measured.insert(
                (platform.clone(), "processing fraction".into()),
                pct(Phase::Processing),
            );
            if platform == "Giraph" {
                measured.insert((platform, "setup fraction".into()), pct(Phase::Setup));
            }
        }
        let ok = !expected.is_empty() && expected == measured;
        if !ok {
            eprintln!("fig5 mismatch:\n  expected {expected:?}\n  measured {measured:?}");
        }
        self.record("totals and domain fractions equal results/fig5.txt", ok);
        Ok(())
    }
}

/// `(platform, row label) → measured value` from Figure 5's text output
/// (rows like `  total runtime  paper 81.59s  measured 81.83s (+0.3%)`
/// under a `Giraph measured vs paper:` heading).
fn parse_fig5(text: &str) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    let mut platform = None;
    for line in text.lines() {
        if let Some(p) = line.strip_suffix(" measured vs paper:") {
            platform = Some(p.trim().to_string());
            continue;
        }
        let (Some(p), Some((label, rest))) = (&platform, line.split_once(" paper ")) else {
            continue;
        };
        let Some((_, value)) = rest.split_once("measured") else {
            continue;
        };
        let value = value.split_whitespace().next().unwrap_or("");
        out.insert(
            (p.clone(), label.trim().to_string()),
            value.trim_end_matches(['s', '%']).to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_figure_5_rows() {
        let text = "Giraph measured vs paper:\n  total runtime                      paper     81.59s   measured     81.83s   (+0.3%)\n  setup fraction                     paper     30.90%   measured     29.38%   (-4.9%)\n\nPowerGraph measured vs paper:\n  processing fraction                paper   <   3.10%   measured      2.16%\nGiraph       |SSSS|    81.83s\n";
        let rows = parse_fig5(text);
        let get = |p: &str, l: &str| rows.get(&(p.to_string(), l.to_string())).cloned();
        assert_eq!(get("Giraph", "total runtime").as_deref(), Some("81.83"));
        assert_eq!(get("Giraph", "setup fraction").as_deref(), Some("29.38"));
        assert_eq!(
            get("PowerGraph", "processing fraction").as_deref(),
            Some("2.16")
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn a_gate_fails_if_any_record_fails() {
        let mut c = Checks::default();
        c.record("g", true);
        c.record("g", false);
        c.record("g", true);
        assert!(!c.all_passed());
        let mut c = Checks::default();
        c.record("g", true);
        assert!(c.all_passed());
        c.failed = 1;
        assert!(!c.all_passed());
    }
}
