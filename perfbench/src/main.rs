//! `perfbench`: the repository benchmark. Times the Granula pipeline and
//! the archive daemon end to end (untraced) or layer by layer (traced),
//! checks every output, and prints one JSON result line last.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-dg1000 --seed 1000 --seconds 25 --trace 0
//! ```
//!
//! Run it from the repository root: the `paper-dg1000` checks read
//! `results/fig5.txt` and `tests/fixtures/history/`, and outputs go to
//! `.perfbench-out/`. See `perfbench/README.md` for the workloads and
//! metrics.

mod calib;
mod checks;
mod clock;
mod machine;
mod pin;
mod pipeline;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Reference;
use checks::Checks;
use clock::{Span, Stamp};
use granula_archive::ServeSnapshot;
use pin::Pinned;
use pipeline::{run_pass, Batch, PassOptions, PassOutcome, Workload, DEFAULT_SEED};
use report::{Metric, Report};
use serve::{Daemon, Fleet, LoopResult, Tally};
use stats::Summary;

/// Where passes save their stores and figures, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";
/// Fewest pipeline passes per run, so the cross-pass checks have a pair.
const MIN_PASSES: usize = 2;
/// Set-up repeats until it has run at least `SETUPS.0` times and for at
/// least `SETUPS.1`; `setup_s` is the median. A batch workload's set-up
/// takes about 20 ms and varies by a third from one to the next, so it
/// runs about forty times; serve-fleet's takes about 1 s and runs three.
const SETUPS: (usize, Duration) = (3, Duration::from_secs(1));
/// Cold passes in the traced run.
const TRACED_COLD_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = value("--workload")
        .ok_or_else(|| format!("--workload <{}> is required", names.join("|")))?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let seed = value("--seed").map_or(Ok(DEFAULT_SEED), |s| {
        s.parse().map_err(|e| format!("--seed: {e}"))
    })?;
    let seconds: f64 = value("--seconds").map_or(Ok(20.0), |s| {
        s.parse().map_err(|e| format!("--seconds: {e}"))
    })?;
    if !(0.5..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.5..=600"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How an untraced run divides its `--seconds` between batch passes and
/// cold passes (shares of the budget; `cold_cap` bounds the extra time
/// cold passes may take until their pooled first queries support a p99).
struct Plan {
    batch: f64,
    cold_min: f64,
    cold_cap: f64,
}

impl Plan {
    fn of(w: Workload) -> Plan {
        match w {
            // The cold passes are this workload's batch.
            Workload::ServeFleet => Plan {
                batch: 0.0,
                cold_min: 1.0,
                cold_cap: 1.0,
            },
            // A batch workload's cold pass yields one first query per job
            // (1 to 4), and a pass takes 10-350 ms: no affordable number
            // of passes supports a p99, so none are added for one.
            //
            // A full-scale pass takes 3-6 s, and one pass's time varies
            // by 10-25% on a shared machine: the batch takes most of the
            // run, so that batch_s is the median of three or more
            // passes, not the mean of two.
            Workload::Fullscale2m => Plan {
                batch: 0.85,
                cold_min: 0.15,
                cold_cap: 0.15,
            },
            _ => Plan {
                batch: 0.7,
                cold_min: 0.3,
                cold_cap: 0.3,
            },
        }
    }
}

/// Share of the traced run's budget for each closed-loop trial, hot and
/// wide.
const TRACED_TRIAL: f64 = 0.03;

/// Everything set-up prepares.
struct Prepared {
    batch: Batch,
    out: PathBuf,
    /// The serve-fleet fleet, built at set-up, and the peak memory of
    /// building it.
    fleet: Option<(Fleet, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed or a
/// metric is missing.
fn run(args: &Args) -> Result<bool, String> {
    let header = machine::Header::collect();
    println!(
        "# perfbench {} (seed {})\n",
        args.workload.name(),
        args.seed
    );
    println!("{}", header.render());
    // Inputs must exist before anything is timed: a tree without them is
    // not a checkout this benchmark can run in.
    for needed in [pipeline::HISTORY_DIR, checks::FIG5_RESULTS] {
        if !Path::new(needed).exists() {
            return Err(format!("{needed} not found; run from the repository root"));
        }
    }
    if !report::metric_tables_valid() {
        return Err("metric tables hold an invalid or repeated name or unit".into());
    }
    let mut checks = Checks::default();
    let mut reference = Reference::new();
    // The last set-up's outputs are kept.
    let mut setups = Vec::new();
    let mut prepared = None;
    let start = Instant::now();
    while setups.len() < SETUPS.0 || start.elapsed() < SETUPS.1 {
        reference.tick();
        let start = Stamp::now();
        prepared = Some(setup(args, &mut checks)?);
        setups.push(start.elapsed());
    }
    reference.tick();
    let setup_factor = reference.factor_since(0);
    let prepared = prepared.expect("set-up ran");
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.wall.as_secs_f64()).collect();
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu.as_secs_f64()).collect();
    println!(
        "set-ups: {}, median {:.4} s wall, {:.4} s CPU as measured; {}",
        setups.len(),
        stats::median(&setup_wall),
        stats::median(&setup_cpu),
        reference.describe(0)
    );

    let mut report = Report::new(args.workload, args.trace);
    if args.trace {
        traced_run(args, &prepared, &mut checks, &mut report)?;
    } else {
        untraced_run(args, &prepared, &mut checks, &mut report, &mut reference)?;
    }
    report.gauge("setup_s", "s", stats::median(&setup_cpu) * setup_factor);
    report.print_checks(&checks);
    Ok(report.print_result(&checks))
}

/// Set-up: a fresh output directory, a warm-up job through every layer,
/// and (serve-fleet) the fleet.
fn setup(args: &Args, checks: &mut Checks) -> Result<Prepared, String> {
    let out = Path::new(OUT_DIR).join(args.workload.name());
    if out.exists() {
        std::fs::remove_dir_all(&out).map_err(|e| format!("clearing {}: {e}", out.display()))?;
    }
    let warm_dir = out.join("warmup");
    std::fs::create_dir_all(&warm_dir).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let warm = run_pass(
        &pipeline::warmup_batch(args.seed),
        &warm_dir,
        PassOptions::default(),
    )?;
    let mut tally = Tally::default();
    serve::cold_pass(&Fleet::of(&warm), &mut tally)?;
    checks.absorb_tally("warm-up responses are OK", &tally, 0);

    let batch = args.workload.batch(args.seed);
    let fleet = if args.workload == Workload::ServeFleet {
        let opts = PassOptions {
            probes: false,
            check_outputs: true,
        };
        let pass = run_pass(&batch, &out, opts)?;
        checks.pass(args.workload, &pass, None);
        Some((Fleet::of(&pass), pass.peak_rss_mb))
    } else {
        None
    };
    Ok(Prepared { batch, out, fleet })
}

/// One checked pipeline pass, appended to `passes`; the run's first pass
/// also checks outputs against the reference implementation.
fn one_pass(
    args: &Args,
    prepared: &Prepared,
    passes: &mut Vec<PassOutcome>,
    checks: &mut Checks,
) -> Result<(), String> {
    let opts = PassOptions {
        probes: false,
        check_outputs: passes.is_empty(),
    };
    let pass = run_pass(&prepared.batch, &prepared.out, opts)?;
    checks.pass(args.workload, &pass, passes.first());
    if passes.is_empty() {
        if let Some(verdict) = pass.regress {
            println!("regress verdict: {}", verdict.as_str());
            if args.seed == DEFAULT_SEED {
                checks.default_seed(&pass)?;
            }
        }
    }
    passes.push(pass);
    Ok(())
}

/// The serve phases' measurements, accumulated over rounds.
#[derive(Default)]
struct ServeRuns {
    cold_passes: Vec<Span>,
    /// First-query round trips (µs), one vector per round: wall time and
    /// process CPU time.
    cold_us: Vec<Vec<f64>>,
    cold_cpu_us: Vec<Vec<f64>>,
    hot: LoopResult,
    wide: LoopResult,
    tally: Tally,
}

impl ServeRuns {
    fn cold_samples(&self) -> usize {
        self.cold_us.iter().map(Vec::len).sum()
    }

    /// Starts a round of cold passes.
    fn open_round(&mut self) {
        self.cold_us.push(Vec::new());
        self.cold_cpu_us.push(Vec::new());
    }

    /// Cold passes for at least `min` (at least one), their first
    /// queries added to the current round. Returns the time spent.
    fn cold(&mut self, fleet: &Fleet, min: Duration) -> Result<Duration, String> {
        let start = Instant::now();
        loop {
            let pass = serve::cold_pass(fleet, &mut self.tally)?;
            self.cold_passes.push(pass.took);
            self.cold_us
                .last_mut()
                .expect("a round is open")
                .extend(pass.first_query_us);
            self.cold_cpu_us
                .last_mut()
                .expect("a round is open")
                .extend(pass.first_query_cpu_us);
            if start.elapsed() >= min {
                return Ok(start.elapsed());
            }
        }
    }

    /// A fresh daemon over `fleet`, the hot keys loaded once, then
    /// `trials` pairs of a hot and a wide closed-loop trial, which share
    /// the `hot` and `wide` budgets. Returns the daemon's counters.
    fn loops(
        &mut self,
        fleet: &Fleet,
        hot: Duration,
        wide: Duration,
        trials: u32,
    ) -> Result<ServeSnapshot, String> {
        let daemon = Daemon::start(fleet.open()?)?;
        let (hot_keys, wide_keys) = (fleet.hot_keys(), fleet.wide_keys());
        serve::warm(&daemon, &hot_keys, &mut self.tally)?;
        for _ in 0..trials {
            serve::closed_loop(
                &daemon,
                &hot_keys,
                hot / trials,
                "serve.hot_batch",
                &mut self.hot,
                &mut self.tally,
            )?;
            serve::closed_loop(
                &daemon,
                &wide_keys,
                wide / trials,
                "serve.wide_batch",
                &mut self.wide,
                &mut self.tally,
            )?;
        }
        let snapshot = daemon.snapshot();
        daemon.stop()?;
        Ok(snapshot)
    }
}

/// Rounds an untraced run is split into. Every phase spends a share of
/// its budget in every round, so each figure samples the whole run, not
/// one stretch of it: a slow stretch of a shared machine moves a few
/// samples of every figure instead of all samples of one.
const ROUNDS: u32 = 5;

fn untraced_run(
    args: &Args,
    prepared: &Prepared,
    checks: &mut Checks,
    report: &mut Report,
    reference: &mut Reference,
) -> Result<(), String> {
    let plan = Plan::of(args.workload);
    let due =
        |share: f64, round: u32| Duration::from_secs_f64(args.seconds * share) * round / ROUNDS;
    let need = stats::min_samples_for(0.99);
    let run_start = reference.mark();
    let mut passes: Vec<PassOutcome> = Vec::new();
    let mut runs = ServeRuns::default();
    let (mut batch_spent, mut cold_spent) = (Duration::ZERO, Duration::ZERO);
    let mut fleet = prepared.fleet.as_ref().map(|(f, _)| f.clone());
    for round in 1..=ROUNDS {
        if prepared.fleet.is_none() {
            while passes.is_empty()
                || batch_spent < due(plan.batch, round)
                || (round == ROUNDS && passes.len() < MIN_PASSES)
            {
                reference.tick();
                let start = Instant::now();
                one_pass(args, prepared, &mut passes, checks)?;
                batch_spent += start.elapsed();
            }
            fleet = Some(Fleet::of(passes.last().expect("a pass ran")));
        }
        let fleet = fleet.as_ref().expect("a fleet to serve");
        // Serving runs on one CPU (see `pin`), and so does the reference
        // tick before it.
        let _pin = Pinned::to_one_cpu();
        reference.tick();
        runs.open_round();
        cold_spent += runs.cold(fleet, due(plan.cold_min, round).saturating_sub(cold_spent))?;
        let cap = due(plan.cold_cap, ROUNDS);
        while round == ROUNDS && runs.cold_samples() < need && cold_spent < cap {
            cold_spent += runs.cold(fleet, Duration::ZERO)?;
        }
    }
    let fleet = fleet.expect("a fleet was served");
    let mismatches = serve::verify_samples(&fleet, &runs.tally.samples)?;
    checks.absorb_tally(
        "every response is OK and matches the in-process engine",
        &runs.tally,
        mismatches,
    );

    // serve-fleet's batch is one cold pass over the fleet. Peak memory is
    // read when the first pass over the job batch ended (the fleet build,
    // for serve-fleet): later phases add allocator fragmentation and
    // per-thread arenas, whose size varies from run to run.
    let (batch_passes, peak_rss_mb): (Vec<Span>, f64) = match &prepared.fleet {
        Some((_, rss)) => (runs.cold_passes.clone(), *rss),
        None => (
            passes
                .iter()
                .map(|p| Span {
                    wall: p.wall,
                    cpu: p.cpu,
                })
                .collect(),
            passes[0].peak_rss_mb,
        ),
    };
    let secs = |f: fn(&Span) -> Duration| -> Vec<f64> {
        batch_passes.iter().map(|p| f(p).as_secs_f64()).collect()
    };
    let (batch_wall, batch_cpu) = (secs(|p| p.wall), secs(|p| p.cpu));
    println!("batch passes, wall (s): {batch_wall:.3?}");
    println!("batch passes, CPU (s): {batch_cpu:.3?}");
    let cold_cpu = Summary::pooled_tail(&runs.cold_cpu_us);
    println!(
        "medians as measured: batch {:.4} s wall, {:.4} s CPU; cold first query {:.1} us wall, {:.1} us CPU",
        stats::median(&batch_wall),
        stats::median(&batch_cpu),
        Summary::pooled_tail(&runs.cold_us).p50,
        cold_cpu.p50,
    );
    reference.tick();
    let f = reference.factor_since(run_start);
    println!("{}", reference.describe(run_start));
    report.timing("batch_s", "s", Summary::of(&batch_cpu).scaled(f));
    report.gauge("peak_rss_mb", "MB", peak_rss_mb);
    report.timing("serve_cold_p50_us", "us", cold_cpu.scaled(f));
    Ok(())
}

fn traced_run(
    args: &Args,
    prepared: &Prepared,
    checks: &mut Checks,
    report: &mut Report,
) -> Result<(), String> {
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut runs = ServeRuns::default();

    // Tracing overhead: untraced and traced units (pipeline passes, or
    // cold passes for serve-fleet) in alternating order, so slow drift of
    // the machine cancels; the median of the pair differences.
    let mut passes = Vec::new();
    let mut unit = |traced: bool, runs: &mut ServeRuns| -> Result<f64, String> {
        if traced {
            granula_trace::enable();
        }
        let wall = match &prepared.fleet {
            Some((fleet, _)) => {
                runs.open_round();
                runs.cold(fleet, Duration::ZERO)?;
                runs.cold_passes
                    .last()
                    .expect("a cold pass ran")
                    .wall
                    .as_secs_f64()
            }
            None => {
                one_pass(args, prepared, &mut passes, checks)?;
                passes.last().expect("a pass ran").wall.as_secs_f64()
            }
        };
        granula_trace::disable();
        Ok(wall)
    };
    let (mut untraced, mut diffs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while diffs.is_empty() || start.elapsed() < budget(0.3) {
        let traced_first = diffs.len() % 2 == 1;
        let first = unit(traced_first, &mut runs)?;
        let second = unit(!traced_first, &mut runs)?;
        let (off, on) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        untraced.push(off);
        diffs.push(on - off);
    }
    let (untraced_wall, overhead_s) = (stats::median(&untraced), stats::median(&diffs));
    granula_trace::reset();

    granula_trace::reset();
    granula_trace::enable();
    let section_start = Instant::now();
    let (traced, fleet, daemon_stats, probe) = {
        let _section = pipeline::group("traced section");
        let pass = {
            let _g = pipeline::group("traced pass");
            let opts = PassOptions {
                probes: true,
                check_outputs: false,
            };
            run_pass(&prepared.batch, &prepared.out, opts)?
        };
        checks.pass(args.workload, &pass, None);
        let fleet = Fleet::of(&pass);
        let _pin = Pinned::to_one_cpu();
        runs.open_round();
        for _ in 0..TRACED_COLD_PASSES {
            runs.cold(&fleet, Duration::ZERO)?;
        }
        let probe = serve::probe_engine(&fleet, &fleet.hot_keys(), &fleet.wide_keys())?;
        let daemon_stats = runs.loops(&fleet, budget(TRACED_TRIAL), budget(TRACED_TRIAL), 1)?;
        (pass, fleet, daemon_stats, probe)
    };
    let section = section_start.elapsed();
    granula_trace::disable();
    let spans = granula_trace::take_spans();
    let counters = granula_trace::metrics();

    let mismatches = serve::verify_samples(&fleet, &runs.tally.samples)?;
    checks.absorb_tally(
        "every response is OK and matches the in-process engine",
        &runs.tally,
        mismatches,
    );

    let layers = report::Layers::new(&spans);
    let coverage = layers.coverage(section);
    checks.record(
        "benchmark layer spans cover >= 95% of the traced section",
        coverage >= 0.95,
    );
    let metrics = report::per_layer(report::PerLayerInputs {
        layers: &layers,
        counters: &counters,
        counts: &traced.counts,
        probe: &probe,
        daemon: &daemon_stats,
        hot: &runs.hot,
        wide: &runs.wide,
        coverage,
        overhead_s,
        untraced_s: untraced_wall,
    });
    for Metric { name, unit, value } in metrics {
        report.gauge(name, unit, value);
    }
    report.print_layer_table(&layers, section);
    Ok(())
}
