//! The archive daemon as an analyst meets it: a fresh
//! `ShardedEngine::open_fleet` + `Server` over a fleet of `.gar` files,
//! driven over TCP by closed-loop clients that each wait for their reply.
//!
//! Latency is timed per pipelined batch round trip ([`BATCH`] requests
//! written, then their [`BATCH`] responses read); it is never divided by
//! the batch size, which would hide the tail.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use granula_archive::{
    format_ids, Query, QueryMode, ServeOptions, ServeSnapshot, Server, ShardedEngine,
    DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS,
};

use crate::clock::{Span, Stamp};
use crate::pipeline::{group, layer, PassOutcome, PHASE_KINDS};
use crate::stats::{median, min_samples_for};

/// Requests per pipelined round trip: the batch of the traffic this repo
/// already measures, `loadgen`'s default and the committed
/// `BENCH_serve.json`. The daemon answers each batch as one
/// `query_batch`, so the batch size shapes every serve figure; it is
/// fixed here rather than read from `loadgen`, so that a change of that
/// default does not silently change this benchmark's traffic.
pub const BATCH: usize = 8;
/// Client connections, one client thread each.
pub const CLIENTS: usize = 1;
/// Most (job, query) pairs in the hot key set: small enough for the
/// result cache.
pub const HOT_KEYS: usize = 64;
/// Fewest (job, query) pairs in the wide key set: twice the daemon's
/// default result cache, so a cyclic scan always misses it.
pub const WIDE_KEYS: usize = 2 * DEFAULT_SHARDS * DEFAULT_CACHE_CAPACITY;
/// Every this many requests, a (request, response) pair is kept for the
/// in-process comparison.
const SAMPLE_EVERY: u64 = 97;
/// The query each job gets first on a fresh engine.
pub const FIRST_QUERY: &str = "ProcessGraph";

/// A fleet the daemon serves: the `.gar` files and, per job, its id and
/// simulated runtime (which places the wide queries' windows).
#[derive(Debug, Clone)]
pub struct Fleet {
    pub files: Vec<PathBuf>,
    pub jobs: Vec<(String, u64)>,
}

impl Fleet {
    /// The stores a pipeline pass saved.
    pub fn of(pass: &PassOutcome) -> Fleet {
        Fleet {
            files: pass.files.clone(),
            jobs: pass
                .jobs
                .iter()
                .map(|j| (j.job_id.clone(), j.breakdown.total_us))
                .collect(),
        }
    }

    /// `Q findall` request lines over at most [`HOT_KEYS`] (job, phase)
    /// pairs.
    pub fn hot_keys(&self) -> Vec<String> {
        self.jobs
            .iter()
            .flat_map(|(id, _)| {
                PHASE_KINDS
                    .iter()
                    .map(move |k| format!("Q findall {id} {k}"))
            })
            .take(HOT_KEYS)
            .collect()
    }

    /// At least [`WIDE_KEYS`] distinct windowed requests, spread evenly
    /// over the jobs. Each asks for the operations of actor id `1` that
    /// start in a half-runtime window: the interval index hands the
    /// engine every operation in the window, and the actor filter keeps
    /// the response short, so evaluation, not the socket, dominates.
    pub fn wide_keys(&self) -> Vec<String> {
        let per_job = WIDE_KEYS.div_ceil(self.jobs.len().max(1));
        let mut keys = Vec::with_capacity(per_job * self.jobs.len());
        for i in 0..per_job as u64 {
            for (id, runtime) in &self.jobs {
                let runtime = (*runtime).max(per_job as u64);
                let start = i * runtime / per_job as u64;
                let end = start + runtime / 2;
                keys.push(format!("Q findall {id} *@*-1[{start}..{end}]"));
            }
        }
        keys
    }

    /// Opens a fresh engine over the fleet with the daemon's defaults.
    pub fn open(&self) -> Result<ShardedEngine, String> {
        let _l = layer("archive.open");
        ShardedEngine::open_fleet(&self.files, ServeOptions::default())
            .map_err(|e| format!("opening fleet: {e}"))
    }
}

/// A running daemon on an ephemeral local port.
pub struct Daemon {
    addr: SocketAddr,
    engine: Arc<ShardedEngine>,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn start(engine: ShardedEngine) -> Result<Daemon, String> {
        let _l = layer("serve.start");
        let engine = Arc::new(engine);
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
            .map_err(|e| format!("binding daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            engine,
            thread,
        })
    }

    pub fn snapshot(&self) -> ServeSnapshot {
        self.engine.snapshot()
    }

    /// Sends `SHUTDOWN` and waits for the accept loop to end.
    pub fn stop(self) -> Result<(), String> {
        let _l = layer("serve.stop");
        let mut conn = Conn::connect(self.addr)?;
        conn.round_trip("SHUTDOWN\n", 1)
            .map_err(|e| e.to_string())?;
        let joined = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        joined.map_err(|e| format!("daemon: {e}"))?;
        match conn.responses[0].as_str() {
            "BYE" => Ok(()),
            other => Err(format!("SHUTDOWN answered {other:?}")),
        }
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    responses: Vec<String>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            responses: Vec::new(),
        })
    }

    /// Writes `requests` (newline-terminated lines) and reads `n`
    /// response lines into `self.responses`; returns the round trip.
    fn round_trip(&mut self, requests: &str, n: usize) -> io::Result<Duration> {
        let start = Instant::now();
        self.stream.write_all(requests.as_bytes())?;
        self.responses.clear();
        for _ in 0..n {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed",
                ));
            }
            line.truncate(line.trim_end().len());
            self.responses.push(line);
        }
        Ok(start.elapsed())
    }
}

/// Requests, failures and the kept (request, response) samples of a
/// phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<(String, String)>,
}

impl Tally {
    fn record(&mut self, request: &str, response: &str) {
        self.attempted += 1;
        if !response.starts_with("OK ") {
            self.failed += 1;
        }
        if self.attempted % SAMPLE_EVERY == 1 {
            self.samples
                .push((request.to_string(), response.to_string()));
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
    }
}

/// One cold pass: fresh engine + daemon, then each job's first query.
pub struct ColdPass {
    /// Open, start, every first query and stop.
    pub took: Span,
    /// First-query round trips, µs, one per job: wall time, and the
    /// process's CPU time (the client's and the daemon's threads).
    pub first_query_us: Vec<f64>,
    pub first_query_cpu_us: Vec<f64>,
}

pub fn cold_pass(fleet: &Fleet, tally: &mut Tally) -> Result<ColdPass, String> {
    let _g = group("cold pass");
    let start = Stamp::now();
    let daemon = Daemon::start(fleet.open()?)?;
    let mut conn = Conn::connect(daemon.addr)?;
    // The daemon accepts the connection on a thread of its own; a PING
    // waits for it, so the first queries time decoding and answering.
    {
        let _l = layer("serve.connect");
        conn.round_trip("PING\n", 1)
            .map_err(|e| format!("PING: {e}"))?;
    }
    let mut first_query_us = Vec::with_capacity(fleet.jobs.len());
    let mut first_query_cpu_us = Vec::with_capacity(fleet.jobs.len());
    for (id, _) in &fleet.jobs {
        let _l = layer("serve.first_query");
        let request = format!("Q findall {id} {FIRST_QUERY}");
        let line = format!("{request}\n");
        let cpu = Stamp::now();
        let rtt = conn
            .round_trip(&line, 1)
            .map_err(|e| format!("first query of {id}: {e}"))?;
        first_query_cpu_us.push(cpu.elapsed().cpu.as_secs_f64() * 1e6);
        first_query_us.push(rtt.as_secs_f64() * 1e6);
        tally.record(&request, &conn.responses[0]);
    }
    drop(conn);
    daemon.stop()?;
    Ok(ColdPass {
        took: start.elapsed(),
        first_query_us,
        first_query_cpu_us,
    })
}

/// A closed-loop phase's round trips and throughput, trial by trial.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per trial: per-batch round trips (µs) and the trial's wall time.
    trials: Vec<(Vec<f64>, Duration)>,
}

impl LoopResult {
    /// Requests per second: the median over the trials.
    pub fn rps(&self) -> f64 {
        let per_trial: Vec<f64> = self
            .trials
            .iter()
            .map(|(rtts, wall)| (rtts.len() * BATCH) as f64 / wall.as_secs_f64())
            .collect();
        median(&per_trial)
    }

    /// Median round trip over every trial, µs.
    pub fn median_rtt_us(&self) -> f64 {
        median(
            &self
                .trials
                .iter()
                .flat_map(|t| t.0.iter().copied())
                .collect::<Vec<_>>(),
        )
    }
}

/// Loads every key once over one connection, in [`BATCH`]-request round
/// trips: admits the jobs and fills the result cache.
pub fn warm(daemon: &Daemon, keys: &[String], tally: &mut Tally) -> Result<(), String> {
    let _l = layer("serve.warm");
    let mut conn = Conn::connect(daemon.addr)?;
    for chunk in keys.chunks(BATCH) {
        let batch: String = chunk.iter().map(|k| format!("{k}\n")).collect();
        conn.round_trip(&batch, chunk.len())
            .map_err(|e| e.to_string())?;
        for (key, response) in chunk.iter().zip(&conn.responses) {
            tally.record(key, response);
        }
    }
    Ok(())
}

/// One closed-loop trial against `daemon`: [`CLIENTS`] fresh clients (so
/// the daemon serves them on fresh connection threads) cycle through
/// `keys` from staggered offsets for at least `min`, and for enough
/// batches to support the trial's own p99.
pub fn closed_loop(
    daemon: &Daemon,
    keys: &[String],
    min: Duration,
    span: &'static str,
    result: &mut LoopResult,
    tally: &mut Tally,
) -> Result<(), String> {
    let _g = group(span);
    let min_batches = min_samples_for(0.99).div_ceil(CLIENTS);
    let start = Instant::now();
    let results: Vec<Result<(Vec<f64>, Tally), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(daemon.addr)?;
                    let mut tally = Tally::default();
                    let mut rtts = Vec::new();
                    let mut pos = c * keys.len() / CLIENTS;
                    let mut batch = String::new();
                    while rtts.len() < min_batches || start.elapsed() < min {
                        batch.clear();
                        for i in 0..BATCH {
                            batch.push_str(&keys[(pos + i) % keys.len()]);
                            batch.push('\n');
                        }
                        let rtt = {
                            let _l = layer(span);
                            conn.round_trip(&batch, BATCH).map_err(|e| e.to_string())?
                        };
                        rtts.push(rtt.as_secs_f64() * 1e6);
                        for (i, response) in conn.responses.iter().enumerate() {
                            tally.record(&keys[(pos + i) % keys.len()], response);
                        }
                        pos = (pos + BATCH) % keys.len();
                    }
                    Ok((rtts, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let mut rtts = Vec::new();
    for r in results {
        let (client_rtts, t) = r?;
        rtts.extend(client_rtts);
        tally.absorb(t);
    }
    result.trials.push((rtts, wall));
    Ok(())
}

/// Splits a `Q findall <job> <query>` line.
fn parse_request(line: &str) -> Option<(&str, Query)> {
    let rest = line.strip_prefix("Q findall ")?;
    let (job, query) = rest.split_once(' ')?;
    Some((job, Query::parse(query).ok()?))
}

/// Checks each sampled response byte for byte against `format_ids` of the
/// in-process `ShardedEngine::query` on a separate engine. Returns the
/// number of mismatches.
pub fn verify_samples(fleet: &Fleet, samples: &[(String, String)]) -> Result<u64, String> {
    let reference = ShardedEngine::open_fleet(&fleet.files, ServeOptions::default())
        .map_err(|e| format!("opening reference engine: {e}"))?;
    let mut mismatches = 0;
    for (request, response) in samples {
        let expected = parse_request(request).and_then(|(job, query)| {
            match reference.query(job, &query, QueryMode::FindAll) {
                Ok(Some(ids)) => Some(format!("OK {} {}", ids.len(), format_ids(&ids))),
                _ => None,
            }
        });
        if expected.as_deref() != Some(response.as_str()) {
            mismatches += 1;
            eprintln!("mismatch: {request} -> {response} (expected {expected:?})");
        }
    }
    Ok(mismatches)
}

/// In-process layer probes on a fresh engine (traced run): decode every
/// job straight from its mapped file, then time hot and wide queries
/// through `ShardedEngine::query`.
pub struct EngineProbe {
    pub decode: Duration,
    pub decoded_bytes: u64,
    pub query_hot_us: f64,
    pub query_wide_us: f64,
}

pub fn probe_engine(fleet: &Fleet, hot: &[String], wide: &[String]) -> Result<EngineProbe, String> {
    let engine = fleet.open()?;
    let (mut decode, mut decoded_bytes) = (Duration::ZERO, 0);
    {
        let _l = layer("archive.decode");
        for source in engine.sources() {
            for id in source.job_ids() {
                let t = Instant::now();
                let payload = source.job_payload(id).map_err(|e| e.to_string())?.len();
                std::hint::black_box(source.decode_job(id).map_err(|e| e.to_string())?);
                decode += t.elapsed();
                decoded_bytes += payload as u64;
            }
        }
    }
    let parsed = |keys: &[String]| -> Result<Vec<(String, Query)>, String> {
        keys.iter()
            .map(|k| {
                parse_request(k)
                    .map(|(j, q)| (j.to_string(), q))
                    .ok_or_else(|| format!("unparseable request {k}"))
            })
            .collect()
    };
    let time_queries = |keys: &[(String, Query)], rounds: usize| -> Result<f64, String> {
        let mut us = Vec::with_capacity(keys.len() * rounds);
        for _ in 0..rounds {
            for (job, query) in keys {
                let t = Instant::now();
                let r = engine
                    .query(job, query, QueryMode::FindAll)
                    .map_err(|e| e.to_string())?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r);
            }
        }
        Ok(median(&us))
    };
    let (hot, wide) = (parsed(hot)?, parsed(wide)?);
    let query_hot_us = {
        let _l = layer("archive.query_hot");
        time_queries(&hot, 1)?; // admit the jobs and fill the cache
        time_queries(&hot, min_samples_for(0.99).div_ceil(hot.len()))?
    };
    let query_wide_us = {
        let _l = layer("archive.query_wide");
        time_queries(&wide, 1)?
    };
    Ok(EngineProbe {
        decode,
        decoded_bytes,
        query_hot_us,
        query_wide_us,
    })
}
