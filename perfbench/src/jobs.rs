//! The workloads: which job specs each one submits, and the two ways a job
//! runs outside the server — untraced through its registry entry, traced
//! through `Runner::with_transport` with the timing transport.

use std::time::Instant;

use clique_core::algebraic::{ApspProtocol, MatMulSchedule, TriangleCount};
use clique_core::graphs::Pattern;
use clique_core::mst::{MsfOutput, MstProtocol};
use clique_core::outcome::Detection;
use clique_core::registry::{self, JobInput, RunOptions, MST_BASE_CAPACITY};
use clique_core::sim::linalg::IntMatrix;
use clique_core::sim::{CliqueConfig, Metrics, Runner};
use clique_core::subgraph::TuranSketchDetection;
use clique_core::trivial::FullBroadcastDetection;
use clique_serve::{encode_record, JobSpec};

use crate::oracle::input_of;
use crate::trace::{attribute, DeliveryLog, JobClock, JobTrace, TimingTransport};

/// One job shape: the spec minus its seed.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub protocol: &'static str,
    pub family: &'static str,
    pub n: usize,
    /// Weight bound of weighted families (0 for unweighted ones).
    pub max_weight: u64,
}

impl Shape {
    const fn new(protocol: &'static str, family: &'static str, n: usize) -> Self {
        Self {
            protocol,
            family,
            n,
            max_weight: 0,
        }
    }

    /// The spec of this shape at `seed`, with `b = ⌈log₂ n⌉`.
    pub fn spec(&self, seed: u64) -> JobSpec {
        let b = ceil_log2(self.n);
        if self.max_weight > 0 {
            JobSpec::weighted(self.protocol, self.family, self.n, b, self.max_weight, seed)
        } else {
            JobSpec::unweighted(self.protocol, self.family, self.n, b, seed)
        }
    }
}

/// `⌈log₂ n⌉`, at least 1.
pub fn ceil_log2(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// How a workload generates its requests.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// One job per request, cycling through the shapes (a shape may repeat
    /// within the cycle); every job gets a fresh seed, so nothing hits the
    /// cache. The second field is the minimum measured job count, which
    /// also fixes the jobs the model-cost metrics average over.
    Cold(&'static [Shape], usize),
    /// Batches drawn from a skewed stream over a fixed pool of small specs.
    Zipf,
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub traffic: Traffic,
}

/// MST weight bound of the `bcast-sketch` and `serve-zipf` specs.
const MST_MAX_WEIGHT: u64 = 64;

const DENSE_TRIANGLES: Shape = Shape::new("triangle-count", "erdos_renyi(p=0.15)", 512);
const DENSE_APSP: Shape = Shape::new("apsp", "erdos_renyi(p=0.15)", 256);
const SPARSE_TRIANGLES: Shape = Shape::new("triangle-count-fast", "random_tree", 512);
const SPARSE_APSP: Shape = Shape::new("apsp-fast", "random_tree", 128);
const SKETCH_MST: Shape = Shape {
    protocol: "mst",
    family: "weighted_erdos_renyi(p=0.2)",
    n: 80,
    max_weight: MST_MAX_WEIGHT,
};
const SKETCH_C4: Shape = Shape::new("c4-turan-sketch", "erdos_renyi(p=0.5)", 256);

/// The workloads. A cold cycle submits its heavier shape three times and
/// its lighter shape once. The latency median and tail then fall near the
/// middle of one job population, not on the edge between two or in the
/// heavy population's lower tail, where host slowdowns moved the median of
/// a 2:1 mix by 0.25 (IQR / median) over ten seeds.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ucast-dense",
        why: "cold triangle-count n=512 and apsp n=256 on G(n,0.15): routing, the cubic matmul schedule and the counting/min-plus kernels carry the time",
        traffic: Traffic::Cold(
            &[DENSE_TRIANGLES, DENSE_TRIANGLES, DENSE_TRIANGLES, DENSE_APSP],
            20,
        ),
    },
    Workload {
        name: "ucast-sparse",
        why: "cold triangle-count-fast n=512 and apsp-fast n=128 on random trees: SparseMatMul and many small route phases, the same layers used differently",
        traffic: Traffic::Cold(&[SPARSE_APSP, SPARSE_APSP, SPARSE_APSP, SPARSE_TRIANGLES], 48),
    },
    Workload {
        name: "bcast-sketch",
        why: "cold mst n=80 and c4-turan-sketch n=256 in CLIQUE-BCAST: no routing or matmul, time in local sketch decoding; the bypass for routing and matmul changes",
        traffic: Traffic::Cold(&[SKETCH_MST, SKETCH_MST, SKETCH_MST, SKETCH_C4], 48),
    },
    Workload {
        name: "serve-zipf",
        why: "batches of 100 from a skewed stream over 224 small specs, cache below pool size: keys, LRU, dedupe, waves and the fixed per-phase cost of small-n runs",
        traffic: Traffic::Zipf,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's seed derivation.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `i`-th job of a cold stream.
pub fn cold_spec(shapes: &[Shape], seed: u64, i: usize) -> JobSpec {
    shapes[i % shapes.len()].spec(mix(seed ^ mix(i as u64)))
}

/// The untimed warm-up prefix of a cold stream: one job of each distinct
/// shape, on fixed inputs, so the set-up time does not depend on the
/// benchmark seed's graphs.
pub fn warmup_specs(shapes: &[Shape]) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = Vec::new();
    for (k, shape) in shapes.iter().enumerate() {
        if specs.iter().all(|s| s.protocol != shape.protocol) {
            specs.push(shape.spec(mix(WARMUP_SEED ^ k as u64)));
        }
    }
    specs
}

/// Input seed domain of the warm-up prefix.
const WARMUP_SEED: u64 = 0x57a2_7e00;

/// Protocols of the serve pool: every servable entry except the
/// deliberately panicking `chaos-probe`.
const POOL_PROTOCOLS: [&str; 7] = [
    "mst",
    "triangle-count",
    "triangle-count-fast",
    "apsp",
    "apsp-fast",
    "c4-turan-sketch",
    "c4-full-broadcast",
];
const POOL_SIZES: [usize; 4] = [8, 16, 24, 32];
const POOL_SEEDS: u64 = 8;
/// Jobs per `serve-zipf` request. With 20-job batches (about 8 ms each) a
/// 20-second run holds ~2,500 requests, so the tail percentile lands at
/// p99.6, where host preemption spikes rather than the workload set it: its
/// spread over ten seeds was 0.62 (IQR / median). At 100 jobs it is ~p98.
pub const ZIPF_BATCH: usize = 100;
/// Transcript-cache capacity of the `serve-zipf` server, below the pool
/// size so misses insert and evict.
pub const ZIPF_CACHE: usize = 96;

/// The `serve-zipf` pool in popularity order. The order is fixed by shape
/// (seed slot, then size, then protocol), so every benchmark seed puts the
/// same kind of job at each popularity rank and only the inputs change.
pub fn zipf_pool(seed: u64) -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for slot in 0..POOL_SEEDS {
        for &n in &POOL_SIZES {
            for protocol in POOL_PROTOCOLS {
                let input_seed = mix(seed ^ mix(slot));
                let b = ceil_log2(n);
                pool.push(match protocol {
                    "mst" => JobSpec::weighted(
                        protocol,
                        "weighted_erdos_renyi(p=0.2)",
                        n,
                        b,
                        MST_MAX_WEIGHT,
                        input_seed,
                    ),
                    "c4-turan-sketch" | "c4-full-broadcast" => {
                        JobSpec::unweighted(protocol, "erdos_renyi(p=0.5)", n, b, input_seed)
                    }
                    _ => JobSpec::unweighted(protocol, "erdos_renyi(p=0.15)", n, b, input_seed),
                });
            }
        }
    }
    pool
}

/// The skewed request stream over a pool: rank `⌊u³·P⌋` for uniform `u`.
pub struct ZipfStream {
    state: u64,
}

impl ZipfStream {
    pub fn new(seed: u64) -> Self {
        Self {
            state: mix(seed ^ 0x5eed),
        }
    }

    /// The next batch, as pool indices.
    pub fn next_batch(&mut self, pool_len: usize) -> Vec<usize> {
        (0..ZIPF_BATCH)
            .map(|_| {
                self.state = mix(self.state);
                let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
                ((u * u * u * pool_len as f64) as usize).min(pool_len - 1)
            })
            .collect()
    }
}

/// A job's output digest and ledger, plus its wall time.
pub struct Run {
    pub output: String,
    pub metrics: Metrics,
    pub ms: f64,
}

impl Run {
    pub fn record(&self) -> String {
        encode_record(&self.output, &self.metrics)
    }
}

/// Runs a job untraced through its registry entry: input generation, the
/// run and the record encoding, timed as one span.
pub fn run_untraced(spec: &JobSpec) -> Result<(Run, String), String> {
    let start = Instant::now();
    let input = input_of(spec)?;
    let entry = registry::find(&spec.protocol).ok_or("unknown protocol")?;
    let run = entry
        .run(
            &input,
            &RunOptions {
                bandwidth: spec.bandwidth,
                ..RunOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
    let record = encode_record(&run.output, &run.metrics);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((
        Run {
            output: run.output,
            metrics: run.metrics,
            ms,
        },
        record,
    ))
}

/// Runs a job traced: the same span as [`run_untraced`], with the timing
/// transport passed in through `Runner::with_transport`.
pub fn run_traced(spec: &JobSpec, log: &DeliveryLog) -> Result<(Run, String, JobTrace), String> {
    let start = Instant::now();
    let input = input_of(spec)?;
    let generated = Instant::now();
    log.take();
    let runner = Runner::new(config_of(spec, &input))
        .with_transport(Some(Box::new(TimingTransport::new(log.clone()))));
    let (output, metrics) = execute(&runner, spec, &input)?;
    let record = encode_record(&output, &metrics);
    let end = Instant::now();
    let trace = attribute(
        JobClock {
            start,
            generated,
            end,
        },
        &log.take(),
        &metrics,
    )?;
    let run = Run {
        output,
        metrics,
        ms: trace.job_ms,
    };
    Ok((run, record, trace))
}

/// The model instance the registry runs `spec` on.
fn config_of(spec: &JobSpec, input: &JobInput) -> CliqueConfig {
    let n = input.vertex_count();
    match spec.protocol.as_str() {
        "mst" | "c4-turan-sketch" | "c4-full-broadcast" => {
            CliqueConfig::broadcast(n, spec.bandwidth)
        }
        _ => CliqueConfig::unicast(n, spec.bandwidth),
    }
}

/// Executes the protocol the registry entry of `spec` wraps, on `runner`,
/// and renders the registry's output digest.
fn execute(runner: &Runner, spec: &JobSpec, input: &JobInput) -> Result<(String, Metrics), String> {
    let err = |e: clique_core::sim::SimError| e.to_string();
    match (spec.protocol.as_str(), input) {
        ("triangle-count", JobInput::Unweighted(g)) => {
            let out = runner.execute(&mut TriangleCount::new(g)).map_err(err)?;
            Ok((format!("{{\"triangles\":{}}}", out.output), out.metrics))
        }
        ("triangle-count-fast", JobInput::Unweighted(g)) => {
            let out = runner
                .execute(&mut TriangleCount::with_schedule(g, MatMulSchedule::Auto))
                .map_err(err)?;
            Ok((format!("{{\"triangles\":{}}}", out.output), out.metrics))
        }
        ("apsp", JobInput::Unweighted(g)) => {
            let out = runner.execute(&mut ApspProtocol::new(g)).map_err(err)?;
            Ok((apsp_digest(&out.output), out.metrics))
        }
        ("apsp-fast", JobInput::Unweighted(g)) => {
            let out = runner
                .execute(&mut ApspProtocol::with_schedule(g, MatMulSchedule::Auto))
                .map_err(err)?;
            Ok((apsp_digest(&out.output), out.metrics))
        }
        ("mst", JobInput::Weighted(g)) => {
            let out = runner
                .execute(&mut MstProtocol::new(g, MST_BASE_CAPACITY))
                .map_err(err)?;
            Ok((msf_digest(&out.output), out.metrics))
        }
        ("c4-turan-sketch", JobInput::Unweighted(g)) => {
            let out = runner
                .execute(&mut TuranSketchDetection::new(g, &Pattern::Cycle(4)))
                .map_err(err)?;
            Ok((detection_digest(&out.output), out.metrics))
        }
        ("c4-full-broadcast", JobInput::Unweighted(g)) => {
            let out = runner
                .execute(&mut FullBroadcastDetection::new(g, &Pattern::Cycle(4)))
                .map_err(err)?;
            Ok((detection_digest(&out.output), out.metrics))
        }
        (other, _) => Err(format!("no traced runner for protocol {other}")),
    }
}

// The registry's output digests, rendered the same way so a traced record
// can be byte-compared with the served one.

fn msf_digest(out: &MsfOutput) -> String {
    let edges: Vec<String> = out
        .edges
        .iter()
        .map(|(u, v, w)| format!("[{u},{v},{w}]"))
        .collect();
    format!(
        "{{\"edges\":[{}],\"total_weight\":{},\"components\":{},\"phases\":{},\"final_capacity\":{}}}",
        edges.join(","),
        out.total_weight,
        out.components,
        out.phases,
        out.final_capacity
    )
}

fn apsp_digest(dist: &IntMatrix) -> String {
    let rows: Vec<String> = (0..dist.rows())
        .map(|i| {
            let cells: Vec<String> = (0..dist.cols())
                .map(|j| match dist.get(i, j) {
                    IntMatrix::INFINITY => "-1".to_owned(),
                    v => v.to_string(),
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("{{\"dist\":[{}]}}", rows.join(","))
}

fn detection_digest(detection: &Detection) -> String {
    let witness = match &detection.witness {
        Some(copy) => {
            let cells: Vec<String> = copy.iter().map(usize::to_string).collect();
            format!("[{}]", cells.join(","))
        }
        None => "null".to_owned(),
    };
    format!(
        "{{\"contains\":{},\"witness\":{}}}",
        detection.contains, witness
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_serve::Server;

    #[test]
    fn traced_records_equal_served_records() {
        let log = DeliveryLog::default();
        for spec in zipf_pool(7).iter().take(28) {
            let (_, record, trace) = run_traced(spec, &log).unwrap();
            assert_eq!(record, Server::run_direct(spec).unwrap(), "{spec:?}");
            let sum = trace.layer_sum_frac();
            assert!(sum > 0.5 && sum <= 1.0 + 1e-9, "{spec:?}: {sum}");
        }
    }

    #[test]
    fn streams_depend_only_on_the_seed() {
        assert_eq!(zipf_pool(3), zipf_pool(3));
        assert_ne!(zipf_pool(3), zipf_pool(4));
        assert_eq!(zipf_pool(3).len(), 224);
        let (mut a, mut b) = (ZipfStream::new(9), ZipfStream::new(9));
        assert_eq!(a.next_batch(224), b.next_batch(224));
        let shapes = match find("ucast-dense").unwrap().traffic {
            Traffic::Cold(shapes, _) => shapes,
            Traffic::Zipf => unreachable!(),
        };
        assert_eq!(cold_spec(shapes, 5, 3), cold_spec(shapes, 5, 3));
        assert_ne!(cold_spec(shapes, 5, 1).seed, cold_spec(shapes, 5, 3).seed);
        assert_eq!(cold_spec(shapes, 5, 0).bandwidth, 9);
        let warmup = warmup_specs(shapes);
        assert_eq!(warmup.len(), 2);
        assert!(warmup
            .iter()
            .all(|w| (0..64).all(|i| cold_spec(shapes, 5, i) != *w)));
        assert_eq!(ceil_log2(80), 7);
    }
}
