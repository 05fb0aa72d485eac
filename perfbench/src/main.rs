//! End-to-end and per-layer benchmark of the congested-clique simulator
//! and its job server.
//!
//! ```text
//! clique-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--short]
//! clique-perfbench --list
//! ```
//!
//! `--trace 0` measures the workload end to end through
//! `clique_serve::Server::submit_batch` with tracing off. `--trace 1` is
//! the separate traced run: every job again untraced through its registry
//! entry and twice traced through `Runner::with_transport`, plus single-layer
//! probes. Every output is checked against a sequential oracle outside the
//! timed region. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; see `perfbench/README.md`
//! for the metric definitions.

mod jobs;
mod layers;
mod oracle;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clique_core::sim::lane::{DefaultLane, Word};
use clique_core::sim::{par, transport};
use clique_serve::{encode_record, JobSpec, Server, ServerConfig, ServerStats, TranscriptCache};

use jobs::{cold_spec, zipf_pool, Shape, Traffic, Workload, ZipfStream, ZIPF_CACHE};
use oracle::split_record;
use trace::{DeliveryLog, JobTrace};

/// Bound on `|1 − trace.layer_sum_frac|`: the layer self times must account
/// for the traced job time within 5%.
const LAYER_SUM_BOUND: f64 = 0.05;

/// Wall-clock cap of the measured loop, so a run ends well inside the
/// benchmark's 180-second limit even on a slow host.
const MAX_LOOP: Duration = Duration::from_secs(100);

/// Capacity of the cold workloads' server cache: fresh seeds never hit, so
/// a small bound only keeps memory flat.
const COLD_CACHE: usize = 4;

/// Why a run failed.
enum Failure {
    /// Bad arguments or environment.
    Usage(String),
    /// A model cost, ledger count or record that must repeat did not, or
    /// the trace failed its own checks.
    Determinism(String),
    /// Anything else (a job that could not run at all).
    Other(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Other(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Other(message.to_owned())
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    short: bool,
}

/// Knobs of one run, derived from the arguments.
struct Plan {
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Minimum measured requests (cold: whole cycles are always completed).
    min_requests: usize,
    /// Requests whose ledgers define the model-cost metrics.
    model_requests: usize,
    /// Untimed `serve-zipf` warm-up batches that fill the cache.
    warmup_batches: usize,
}

impl Plan {
    fn of(args: &Args) -> Self {
        match (args.short, args.workload.traffic) {
            (true, Traffic::Cold(shapes, _)) => Plan {
                setups: 1,
                min_requests: shapes.len(),
                model_requests: shapes.len(),
                warmup_batches: 0,
            },
            (true, Traffic::Zipf) => Plan {
                setups: 1,
                min_requests: 2,
                model_requests: 2,
                warmup_batches: 2,
            },
            (false, Traffic::Cold(_, min_jobs)) => Plan {
                setups: 3,
                min_requests: min_jobs,
                model_requests: min_jobs,
                warmup_batches: 0,
            },
            (false, Traffic::Zipf) => Plan {
                setups: 3,
                min_requests: 100,
                model_requests: 80,
                warmup_batches: 30,
            },
        }
    }
}

/// One metric of the final line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra human-readable facts printed before the result line.
    notes: Vec<String>,
}

fn parse_args() -> Result<Option<Args>, Failure> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut short) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--list" => {
                for w in jobs::WORKLOADS {
                    println!("{}\t{}", w.name, w.why);
                }
                return Ok(None);
            }
            "--workload" => {
                let name = value()?;
                workload = Some(
                    jobs::find(&name)
                        .ok_or_else(|| Failure::Usage(format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| Failure::Usage("--seed needs an integer".into()))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|_| Failure::Usage("--seconds needs a number".into()))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(Failure::Usage("--seconds must be in (0, 120]".into()));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(Failure::Usage("--trace takes 0 or 1".into())),
                });
            }
            "--short" => short = true,
            other => return Err(Failure::Usage(format!("unknown argument {other:?}"))),
        }
    }
    let missing = |what: &str| Failure::Usage(format!("missing {what}"));
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        traced: traced.ok_or_else(|| missing("--trace"))?,
        short,
    }))
}

/// Refuses to run when an environment knob overrides the defaults the
/// benchmark's numbers are defined under.
fn check_environment() -> Result<(), Failure> {
    for knob in ["CLIQUE_THREADS", "CLIQUE_TRANSPORT"] {
        if let Ok(value) = std::env::var(knob) {
            return Err(Failure::Usage(format!(
                "{knob}={value} overrides the benchmark's defaults; unset it"
            )));
        }
    }
    Ok(())
}

/// Worker threads of each simulation engine. One thread per engine keeps
/// job times and peak memory repeatable on a small shared host: with two,
/// per-thread allocator arenas moved `peak_rss_mb` by 10-20% between
/// identical runs, and n = 512 jobs ran no faster.
const ENGINE_THREADS: usize = 1;

/// Server fleet workers. One: on a 2-core shared host a two-worker fleet
/// waits on the slower core in every wave, and `serve-zipf` throughput then
/// spread 0.96 (IQR / median) over five seeds, against 0.08 with one
/// worker, which was also faster.
const FLEET_WORKERS: usize = 1;

fn config_line(args: &Args) -> String {
    format!(
        "config {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"short\":{},\
         \"host_parallelism\":{},\"engine_threads\":{},\"fleet_workers\":{},\"lane_bits\":{},\
         \"transport\":\"{}\"}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.short,
        std::thread::available_parallelism().map_or(1, usize::from),
        par::threads(),
        FLEET_WORKERS,
        <DefaultLane as Word>::BITS,
        transport::default_kind().name(),
    )
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The index of the highest percentile with at least ten samples beyond
/// it: `len − 11` of the sorted samples (the maximum when there are fewer
/// than eleven).
fn tail_index(len: usize) -> usize {
    len.checked_sub(11).unwrap_or(len - 1)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

/// Latencies, counts and ledgers of the measured requests.
#[derive(Default)]
struct Measured {
    latencies_ms: Vec<f64>,
    busy_s: f64,
    jobs: u64,
    failed: u64,
    /// Simulated bits of jobs the server actually executed.
    executed_bits: u64,
    model_jobs: u64,
    model_rounds: u64,
    model_bits: u64,
}

impl Measured {
    fn end_to_end(&mut self, setup_s: f64, rss: f64) -> (Vec<Metric>, String) {
        let samples = self.latencies_ms.len();
        let p50 = median(&mut self.latencies_ms);
        let tail = tail_index(samples);
        let metric = |name, value, unit| Metric { name, value, unit };
        let model_jobs = self.model_jobs.max(1) as f64;
        let metrics = vec![
            metric(
                "jobs_per_s",
                (self.jobs - self.failed) as f64 / self.busy_s,
                "1/s",
            ),
            metric("request_p50_ms", p50, "ms"),
            metric("request_tail_ms", self.latencies_ms[tail], "ms"),
            metric("setup_s", setup_s, "s"),
            metric(
                "sim_rounds_per_job",
                self.model_rounds as f64 / model_jobs,
                "rounds",
            ),
            metric(
                "sim_kbits_per_job",
                self.model_bits as f64 / model_jobs / 1e3,
                "kbit",
            ),
            metric(
                "sim_mbits_per_host_s",
                self.executed_bits as f64 / self.busy_s / 1e6,
                "Mbit/s",
            ),
            metric("peak_rss_mb", rss, "MiB"),
        ];
        let note = format!(
            "requests {samples}, jobs {}, failed_frac {}, request_tail_ms is p{:.1} \
             ({} samples beyond it), model cost over {} executed jobs, \
             latency p90/p99/max {:.2}/{:.2}/{:.2} ms",
            self.jobs,
            self.failed as f64 / self.jobs.max(1) as f64,
            100.0 * (tail + 1) as f64 / samples as f64,
            samples - tail - 1,
            self.model_jobs,
            self.latencies_ms[samples * 9 / 10],
            self.latencies_ms[samples * 99 / 100],
            self.latencies_ms[samples - 1],
        );
        (metrics, note)
    }
}

fn served_record(server: &mut Server, spec: &JobSpec) -> Result<clique_serve::JobResult, String> {
    server
        .submit_batch(std::slice::from_ref(spec))
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or_else(|| "empty batch result".to_owned())
}

/// `--trace 0` on a cold workload: one job per request, closed loop.
fn timed_cold(args: &Args, plan: &Plan, shapes: &[Shape]) -> Result<Report, Failure> {
    let config = ServerConfig {
        workers: FLEET_WORKERS,
        cache_capacity: COLD_CACHE,
        ..ServerConfig::default()
    };
    // Set-up: a fresh server plus an untimed warm-up prefix (one job of
    // each shape), repeated; the prefix records must repeat byte for byte.
    let warmup = jobs::warmup_specs(shapes);
    let mut setup_times = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    let mut server = Server::new(config);
    for _ in 0..plan.setups {
        let start = Instant::now();
        server = Server::new(config);
        let mut records = Vec::new();
        for spec in &warmup {
            records.push(served_record(&mut server, spec)?.record);
        }
        setup_times.push(start.elapsed().as_secs_f64());
        match &reference {
            Some(first) if *first != records => {
                return Err(Failure::Determinism(
                    "warm-up records differ between set-ups".into(),
                ))
            }
            Some(_) => {}
            None => {
                for (spec, record) in warmup.iter().zip(&records) {
                    oracle::check(spec, record)
                        .map_err(|e| format!("warm-up {}: {e}", spec.protocol))?;
                }
                reference = Some(records);
            }
        }
    }

    let mut m = Measured::default();
    let loop_start = Instant::now();
    let mut i = 0;
    loop {
        let at_cycle_start = i % shapes.len() == 0;
        let done = m.busy_s >= args.seconds && m.latencies_ms.len() >= plan.min_requests;
        if at_cycle_start && (done || loop_start.elapsed() > MAX_LOOP) {
            break;
        }
        let spec = cold_spec(shapes, args.seed, i);
        i += 1;
        let start = Instant::now();
        let result = server.submit_batch(std::slice::from_ref(&spec));
        let elapsed = start.elapsed().as_secs_f64();
        m.busy_s += elapsed;
        m.latencies_ms.push(elapsed * 1e3);
        m.jobs += 1;
        // Untimed: the oracle and the ledger.
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|mut r| r.pop().ok_or_else(|| "empty batch result".to_owned()))
            .and_then(|r| {
                oracle::check(&spec, &r.record)?;
                Ok(r)
            });
        match checked {
            Ok(r) => {
                let (_, ledger) = split_record(&r.record)?;
                if !r.cached {
                    m.executed_bits += ledger.total_bits;
                }
                if (m.model_jobs as usize) < plan.model_requests {
                    m.model_jobs += 1;
                    m.model_rounds += ledger.rounds;
                    m.model_bits += ledger.total_bits;
                }
            }
            Err(e) => {
                eprintln!("job {} ({}): {e}", i - 1, spec.protocol);
                m.failed += 1;
            }
        }
    }
    let rss = peak_rss_mb()?;
    let mut notes = Vec::new();
    for spec in &warmup {
        let mut own: Vec<f64> = m
            .latencies_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| shapes[i % shapes.len()].protocol == spec.protocol)
            .map(|(_, &ms)| ms)
            .collect();
        notes.push(format!(
            "{} n={}: median {:.1} ms over {} requests",
            spec.protocol,
            spec.n,
            median(&mut own),
            own.len()
        ));
    }
    let (metrics, note) = m.end_to_end(median(&mut setup_times), rss);
    notes.insert(0, note);
    Ok(Report {
        attempted: m.jobs,
        failed: m.failed,
        metrics,
        notes,
    })
}

/// A fresh `serve-zipf` server with its cache filled by the untimed
/// warm-up prefix of the stream.
fn zipf_server(pool: &[JobSpec], stream: &mut ZipfStream, warmup: usize) -> Result<Server, String> {
    let mut server = Server::new(ServerConfig {
        workers: FLEET_WORKERS,
        cache_capacity: ZIPF_CACHE,
        ..ServerConfig::default()
    });
    for _ in 0..warmup {
        let specs: Vec<JobSpec> = stream
            .next_batch(pool.len())
            .into_iter()
            .map(|i| pool[i].clone())
            .collect();
        server.submit_batch(&specs).map_err(|e| e.to_string())?;
    }
    Ok(server)
}

/// `--trace 0` on `serve-zipf`: one batch per request, closed loop.
fn timed_zipf(args: &Args, plan: &Plan) -> Result<Report, Failure> {
    let mut setup_times = Vec::new();
    let mut reference: Option<ServerStats> = None;
    let mut state = None;
    for _ in 0..plan.setups {
        let start = Instant::now();
        let pool = zipf_pool(args.seed);
        let mut stream = ZipfStream::new(args.seed);
        let server = zipf_server(&pool, &mut stream, plan.warmup_batches)?;
        setup_times.push(start.elapsed().as_secs_f64());
        let stats = server.stats();
        if reference.is_some_and(|first| first != stats) {
            return Err(Failure::Determinism(
                "warm-up server counters differ between set-ups".into(),
            ));
        }
        reference = Some(stats);
        state = Some((pool, stream, server));
    }
    let (pool, mut stream, mut server) = state.ok_or("no set-up ran")?;

    let mut m = Measured::default();
    // The first record served for each pool slot; every later answer for
    // the slot (hit or miss) must equal it byte for byte.
    let mut first_record: Vec<Option<String>> = vec![None; pool.len()];
    let mut served_copies = vec![0u64; pool.len()];
    let loop_start = Instant::now();
    while !(m.busy_s >= args.seconds && m.latencies_ms.len() >= plan.min_requests)
        && loop_start.elapsed() <= MAX_LOOP
    {
        let batch = stream.next_batch(pool.len());
        let specs: Vec<JobSpec> = batch.iter().map(|&i| pool[i].clone()).collect();
        let start = Instant::now();
        let result = server.submit_batch(&specs);
        let elapsed = start.elapsed().as_secs_f64();
        m.busy_s += elapsed;
        m.latencies_ms.push(elapsed * 1e3);
        m.jobs += specs.len() as u64;
        let in_model = m.latencies_ms.len() <= plan.model_requests;
        let results = match result {
            Ok(results) => results,
            Err(e) => {
                eprintln!("batch {}: {e}", m.latencies_ms.len());
                m.failed += specs.len() as u64;
                continue;
            }
        };
        // Duplicates of an uncached key come back uncached too, but the
        // server ran the key once.
        let mut ran = std::collections::HashSet::new();
        for (&slot, r) in batch.iter().zip(&results) {
            served_copies[slot] += 1;
            let (_, ledger) = split_record(&r.record)?;
            if !r.cached && ran.insert(slot) {
                m.executed_bits += ledger.total_bits;
                if in_model {
                    m.model_jobs += 1;
                    m.model_rounds += ledger.rounds;
                    m.model_bits += ledger.total_bits;
                }
            }
            match &first_record[slot] {
                Some(first) if *first != r.record => {
                    eprintln!("pool slot {slot}: served record changed between requests");
                    m.failed += 1;
                }
                Some(_) => {}
                None => first_record[slot] = Some(r.record.clone()),
            }
        }
    }
    let rss = peak_rss_mb()?;

    // Oracles on every distinct served spec; a sample byte-compared against
    // direct runs.
    let mut sampled = 0;
    for (slot, record) in first_record.iter().enumerate() {
        let Some(record) = record else { continue };
        let mut verdict = oracle::check(&pool[slot], record);
        if slot % 4 == 0 {
            sampled += 1;
            verdict = verdict.and_then(|()| match Server::run_direct(&pool[slot]) {
                Ok(direct) if direct == *record => Ok(()),
                Ok(_) => Err("served record differs from run_direct".to_owned()),
                Err(e) => Err(e.to_string()),
            });
        }
        if let Err(e) = verdict {
            eprintln!("pool slot {slot} ({}): {e}", pool[slot].protocol);
            // Every served copy of a wrong record is a wrong job.
            m.failed += served_copies[slot];
        }
    }
    m.failed = m.failed.min(m.jobs);
    let distinct = first_record.iter().flatten().count();
    let stats = server.stats();
    let (metrics, note) = m.end_to_end(median(&mut setup_times), rss);
    Ok(Report {
        attempted: m.jobs,
        failed: m.failed,
        metrics,
        notes: vec![
            note,
            format!(
                "distinct specs served {distinct} (oracle-checked), {sampled} byte-compared \
                 with run_direct, lifetime hit rate {:.3}",
                stats.cache.hit_rate()
            ),
        ],
    })
}

/// Per-layer sums over the traced jobs.
#[derive(Default)]
struct LayerSums {
    jobs: f64,
    untraced_ms: f64,
    layers: JobTrace,
}

impl LayerSums {
    fn add(&mut self, trace: &JobTrace, untraced_ms: f64) {
        self.jobs += 1.0;
        self.untraced_ms += untraced_ms;
        let l = &mut self.layers;
        l.job_ms += trace.job_ms;
        l.gen_ms += trace.gen_ms;
        l.routing_pre_ms += trace.routing_pre_ms;
        l.sketch_pre_ms += trace.sketch_pre_ms;
        l.core_pre_ms += trace.core_pre_ms;
        l.deliver_ms += trace.deliver_ms;
        l.tail_ms += trace.tail_ms;
        l.calls += trace.calls;
        l.routing_packets += trace.routing_packets;
        l.routing_rounds += trace.routing_rounds;
        l.sketch_levels += trace.sketch_levels;
    }
}

/// Runs one job untraced and twice traced, alternating which goes first.
/// The traced records must equal the untraced one and `reference` (the
/// served record), and the two traced ledgers must count the same.
fn trace_job(
    spec: &JobSpec,
    reference: Option<&str>,
    untraced_first: bool,
    log: &DeliveryLog,
    sums: &mut LayerSums,
) -> Result<jobs::Run, Failure> {
    let untraced = || jobs::run_untraced(spec).map_err(Failure::Other);
    let mut before = None;
    if untraced_first {
        before = Some(untraced()?);
    }
    let (run, record, first) = jobs::run_traced(spec, log).map_err(Failure::Determinism)?;
    let (_, record2, second) = jobs::run_traced(spec, log).map_err(Failure::Determinism)?;
    let (plain, plain_record) = match before {
        Some(done) => done,
        None => untraced()?,
    };
    if record != plain_record || record2 != record || reference.is_some_and(|r| r != record) {
        return Err(Failure::Determinism(format!(
            "{}: traced record differs from the untraced run",
            spec.canonical_json()
        )));
    }
    if first.counts() != second.counts() {
        return Err(Failure::Determinism(format!(
            "{}: ledger counts differ between traced runs: {:?} vs {:?}",
            spec.canonical_json(),
            first.counts(),
            second.counts()
        )));
    }
    sums.add(&first, plain.ms);
    sums.add(&second, plain.ms);
    Ok(run)
}

/// Mean µs per call of `f` over `reps` repetitions.
fn mean_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Cache-layer costs on a replay of the key sequence at `capacity`:
/// mean µs per `get`, mean µs per `insert` (misses insert).
fn cache_replay_us(
    keys: &[String],
    records: &HashMap<String, String>,
    capacity: usize,
) -> (f64, f64) {
    let mut cache = TranscriptCache::new(capacity);
    let (mut get_s, mut gets, mut insert_s, mut inserts) = (0.0, 0u32, 0.0, 0u32);
    for key in keys {
        let start = Instant::now();
        let hit = std::hint::black_box(cache.get(key)).is_some();
        get_s += start.elapsed().as_secs_f64();
        gets += 1;
        if !hit {
            let record = records.get(key).cloned().unwrap_or_default();
            let key = key.clone();
            let start = Instant::now();
            cache.insert(key, record);
            insert_s += start.elapsed().as_secs_f64();
            inserts += 1;
        }
    }
    (
        get_s * 1e6 / f64::from(gets.max(1)),
        insert_s * 1e6 / f64::from(inserts.max(1)),
    )
}

/// `--trace 1`: the traced run and the single-layer probes.
fn traced(args: &Args, plan: &Plan) -> Result<Report, Failure> {
    let log = DeliveryLog::default();
    let mut sums = LayerSums::default();
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut record_of: HashMap<String, String> = HashMap::new();
    let mut runs: Vec<(String, jobs::Run)> = Vec::new();
    let mut served_keys: Vec<String> = Vec::new();
    let (before, after, cache_capacity, specs);

    match args.workload.traffic {
        Traffic::Cold(shapes, _) => {
            cache_capacity = COLD_CACHE;
            let mut server = Server::new(ServerConfig {
                workers: FLEET_WORKERS,
                cache_capacity,
                ..ServerConfig::default()
            });
            before = server.stats();
            let start = Instant::now();
            let mut cold_specs = Vec::new();
            // Whole cycles, until the budget is spent (at most eight).
            let mut i = 0;
            loop {
                let spent = args.short
                    || start.elapsed().as_secs_f64() >= args.seconds
                    || i >= 8 * shapes.len();
                if i > 0 && i % shapes.len() == 0 && spent {
                    break;
                }
                let spec = cold_spec(shapes, args.seed, i);
                let served = served_record(&mut server, &spec)?;
                served_keys.push(served.key.clone());
                attempted += 1;
                if let Err(e) = oracle::check(&spec, &served.record) {
                    eprintln!("job {i}: {e}");
                    failed += 1;
                }
                let run = trace_job(&spec, Some(&served.record), i % 2 == 0, &log, &mut sums)?;
                record_of.insert(served.key, served.record);
                runs.push((spec.protocol.clone(), run));
                cold_specs.push(spec);
                i += 1;
            }
            after = server.stats();
            specs = cold_specs;
        }
        Traffic::Zipf => {
            cache_capacity = ZIPF_CACHE;
            let pool = zipf_pool(args.seed);
            let mut stream = ZipfStream::new(args.seed);
            let mut server = zipf_server(&pool, &mut stream, plan.warmup_batches)?;
            before = server.stats();
            let batches = if args.short { 2 } else { 40 };
            for _ in 0..batches {
                let specs: Vec<JobSpec> = stream
                    .next_batch(pool.len())
                    .into_iter()
                    .map(|i| pool[i].clone())
                    .collect();
                for r in server.submit_batch(&specs).map_err(|e| e.to_string())? {
                    record_of.entry(r.key.clone()).or_insert(r.record);
                    served_keys.push(r.key);
                }
            }
            after = server.stats();
            // Passes over the pool until the budget is spent (at most 50);
            // the single-layer probes below use the first pass.
            let take = if args.short { 28 } else { pool.len() };
            let start = Instant::now();
            for pass in 0..50 {
                for (slot, spec) in pool.iter().take(take).enumerate() {
                    attempted += 1;
                    let run = trace_job(spec, None, slot % 2 == 0, &log, &mut sums)?;
                    if let Err(e) = oracle::check(spec, &run.record()) {
                        eprintln!("pool slot {slot}: {e}");
                        failed += 1;
                    }
                    if pass == 0 {
                        runs.push((spec.protocol.clone(), run));
                    }
                }
                if args.short || start.elapsed().as_secs_f64() >= args.seconds {
                    break;
                }
            }
            specs = pool;
        }
    }

    let n = sums.jobs;
    let l = &sums.layers;
    let layer_sum_frac = l.layer_sum_frac();
    if !((1.0 - LAYER_SUM_BOUND)..=(1.0 + 1e-9)).contains(&layer_sum_frac) {
        return Err(Failure::Determinism(format!(
            "layer self times sum to {layer_sum_frac} of the traced job time (bound ±{LAYER_SUM_BOUND})"
        )));
    }

    // Single-layer probes on the workload's own operands.
    let ucast: Vec<&JobSpec> = first_of_each_protocol(&specs)
        .into_iter()
        .filter(|s| s.protocol.starts_with("triangle") || s.protocol.starts_with("apsp"))
        .collect();
    let (mut alltoall_ms, mut matmul_ms, mut local_ms, mut ops, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let is_cold_ucast = matches!(args.workload.traffic, Traffic::Cold(..)) && !ucast.is_empty();
    if is_cold_ucast {
        let top_n = ucast.iter().map(|s| s.n).max().unwrap_or(0);
        alltoall_ms = layers::routing_alltoall_ms(top_n, args.seed)?;
        for spec in &ucast {
            let probe = layers::matmul_probe(spec)?;
            notes.push(format!(
                "{} n={}: scheduled_matmul resolved to {} ({:.1} ms) vs local {:.2} ms",
                spec.protocol, spec.n, probe.schedule, probe.matmul_ms, probe.local_ms
            ));
            matmul_ms += probe.matmul_ms;
            local_ms += probe.local_ms;
            ops += probe.ops;
            bytes += probe.bytes;
        }
    }
    let mut decode_us = 0.0;
    if matches!(args.workload.traffic, Traffic::Cold(..)) {
        if let Some((_, run)) = runs.iter().find(|(p, _)| p == "mst") {
            let spec = specs
                .iter()
                .find(|s| s.protocol == "mst")
                .ok_or("no mst spec")?;
            let capacity: usize = run
                .output
                .rsplit("\"final_capacity\":")
                .next()
                .and_then(|s| s.trim_end_matches('}').parse().ok())
                .ok_or("no final capacity in the MST output")?;
            decode_us = layers::sketch_decode_us(spec, capacity)?;
            notes.push(format!(
                "mst n={}: sketch decode at final capacity {capacity} takes {decode_us:.0} us",
                spec.n
            ));
        }
    }

    // Serve-layer costs.
    let distinct: Vec<&JobSpec> = first_of_each_key(&specs);
    let key_us = mean_us(100, || {
        for spec in &distinct {
            std::hint::black_box(spec.canonical_json());
        }
    }) / distinct.len() as f64;
    let encode_reps = if runs.iter().any(|(_, r)| r.output.len() > 10_000) {
        3
    } else {
        50
    };
    let encode_us = mean_us(encode_reps, || {
        for (_, run) in &runs {
            std::hint::black_box(encode_record(&run.output, &run.metrics));
        }
    }) / runs.len() as f64;
    let (get_us, insert_us) = cache_replay_us(&served_keys, &record_of, cache_capacity);
    let jobs = (after.jobs - before.jobs).max(1) as f64;
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("routing.pre_ms", l.routing_pre_ms / n, "ms"),
        metric("routing.packets", l.routing_packets as f64 / n, "count"),
        metric("routing.rounds", l.routing_rounds as f64 / n, "rounds"),
        metric("routing.alltoall_ms", alltoall_ms, "ms"),
        metric("algebraic.matmul_ms", matmul_ms, "ms"),
        metric("linalg.local_ms", local_ms, "ms"),
        metric("linalg.ops", ops, "count"),
        metric("linalg.bytes", bytes, "bytes"),
        metric(
            "algebraic.overhead_x",
            if local_ms > 0.0 {
                matmul_ms / local_ms
            } else {
                0.0
            },
            "x",
        ),
        metric("sketch.pre_ms", l.sketch_pre_ms / n, "ms"),
        metric("sketch.levels", l.sketch_levels as f64 / n, "count"),
        metric("sketch.decode_us", decode_us, "us"),
        metric("transport.deliver_ms", l.deliver_ms / n, "ms"),
        metric("transport.calls", l.calls as f64 / n, "count"),
        metric("transport.share", l.deliver_ms / l.job_ms, "frac"),
        metric("graphs.gen_ms", l.gen_ms / n, "ms"),
        metric("core.pre_ms", l.core_pre_ms / n, "ms"),
        metric("core.tail_ms", l.tail_ms / n, "ms"),
        metric(
            "serve.hit_rate",
            hits as f64 / lookups.max(1) as f64,
            "frac",
        ),
        metric(
            "serve.evictions",
            (after.cache.evictions - before.cache.evictions) as f64,
            "count",
        ),
        metric(
            "serve.ran_per_job",
            (after.ran - before.ran) as f64 / jobs,
            "frac",
        ),
        metric("serve.waves", (after.waves - before.waves) as f64, "count"),
        metric("serve.key_us", key_us, "us"),
        metric("serve.cache_get_us", get_us, "us"),
        metric("serve.cache_insert_us", insert_us, "us"),
        metric("serve.encode_us", encode_us, "us"),
        metric(
            "trace.overhead_frac",
            l.job_ms / sums.untraced_ms - 1.0,
            "frac",
        ),
        metric("trace.layer_sum_frac", layer_sum_frac, "frac"),
    ];
    notes.push(format!(
        "traced {} job runs ({} jobs, each untraced once and traced twice); mean traced job {:.2} ms; \
         layer sum within ±{LAYER_SUM_BOUND}",
        n,
        n / 2.0,
        l.job_ms / n
    ));
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn first_of_each_protocol(specs: &[JobSpec]) -> Vec<&JobSpec> {
    let mut seen = Vec::new();
    specs
        .iter()
        .filter(|s| {
            let fresh = !seen.contains(&s.protocol);
            if fresh {
                seen.push(s.protocol.clone());
            }
            fresh
        })
        .collect()
}

fn first_of_each_key(specs: &[JobSpec]) -> Vec<&JobSpec> {
    let mut seen = std::collections::HashSet::new();
    specs
        .iter()
        .filter(|s| seen.insert(s.canonical_json()))
        .collect()
}

fn result_line(report: &Report) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    ))
}

fn run() -> Result<(), Failure> {
    let Some(args) = parse_args()? else {
        return Ok(());
    };
    check_environment()?;
    par::set_threads(Some(ENGINE_THREADS));
    println!("{}", config_line(&args));
    println!("why {}", args.workload.why);
    let plan = Plan::of(&args);
    let report = match (args.traced, args.workload.traffic) {
        (true, _) => traced(&args, &plan)?,
        (false, Traffic::Cold(shapes, _)) => timed_cold(&args, &plan, shapes)?,
        (false, Traffic::Zipf) => timed_zipf(&args, &plan)?,
    };
    for note in &report.notes {
        println!("note {note}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
        Err(Failure::Determinism(message)) => {
            eprintln!("perfbench: DETERMINISM OR TRACE CHECK FAILED: {message}");
            ExitCode::from(3)
        }
        Err(Failure::Other(message)) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
