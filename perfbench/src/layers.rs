//! Single-layer probes of the traced run: each calls one public entry
//! point on an operand taken from the workload's own jobs and checks the
//! result before reporting its time.

use std::time::Instant;

use clique_core::algebraic::{
    scheduled_matmul, ApspProtocol, MatMulSchedule, Semiring, SemiringMatrix,
};
use clique_core::registry::JobInput;
use clique_core::routing::{BalancedRouter, RouteProtocol, RoutingDemand};
use clique_core::sim::linalg::IntMatrix;
use clique_core::sim::{BitString, CliqueConfig, Runner};
use clique_core::sketch::SignedPowerSumSketch;
use clique_serve::JobSpec;

use crate::jobs::{ceil_log2, mix};
use crate::oracle::input_of;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `RouteProtocol<BalancedRouter>` on the all-to-all demand at `n`: one
/// `⌈log₂ n⌉`-bit packet per ordered pair. Returns the wall time in ms.
pub fn routing_alltoall_ms(n: usize, seed: u64) -> Result<f64, String> {
    let b = ceil_log2(n);
    let mask = (1u64 << b) - 1;
    let payload = |s: usize, d: usize| mix(seed ^ (s * n + d) as u64) & mask;
    let mut demand = RoutingDemand::new(n);
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            demand.send(s, d, BitString::from_bits(payload(s, d), b));
        }
    }
    let start = Instant::now();
    let delivered = Runner::new(CliqueConfig::unicast(n, b))
        .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
        .map_err(|e| e.to_string())?
        .output;
    let ms = ms_since(start);
    for (d, packets) in delivered.iter().enumerate() {
        if packets.len() != n - 1 {
            return Err(format!(
                "all-to-all: node {d} got {} packets",
                packets.len()
            ));
        }
        for p in packets {
            let want = BitString::from_bits(payload(p.src.index(), d), b);
            if p.dst.index() != d || p.payload != want {
                return Err(format!("all-to-all: wrong packet at node {d}"));
            }
        }
    }
    Ok(ms)
}

/// The distributed product against the local kernel on one job's operand.
pub struct MatmulProbe {
    pub schedule: &'static str,
    pub matmul_ms: f64,
    pub local_ms: f64,
    /// Semiring multiply-adds of the local product (`d³`).
    pub ops: f64,
    /// Bytes the local product reads and writes (two operands and the
    /// result, 8 bytes per entry).
    pub bytes: f64,
}

/// `scheduled_matmul(A, A, semiring, Auto, b)` against
/// `IntMatrix::mul_counting` / `mul_min_plus` on the operand the job's
/// protocol squares: the adjacency matrix for triangle counting, the hop
/// matrix for APSP. The local product is the median of three runs.
pub fn matmul_probe(spec: &JobSpec) -> Result<MatmulProbe, String> {
    let JobInput::Unweighted(graph) = input_of(spec)? else {
        return Err("matmul probe needs an unweighted input".to_owned());
    };
    let (operand, semiring) = if spec.protocol.starts_with("apsp") {
        (ApspProtocol::hop_matrix(&graph), Semiring::MinPlus)
    } else {
        (
            IntMatrix::from_bitmatrix(&graph.adjacency_bitmatrix()),
            Semiring::Counting,
        )
    };
    let d = operand.rows();
    let a = SemiringMatrix::Ints(operand.clone());
    let schedule = MatMulSchedule::Auto.resolve(&a, &a, semiring, d).name();

    let start = Instant::now();
    let product = scheduled_matmul(&a, &a, semiring, MatMulSchedule::Auto, spec.bandwidth)
        .map_err(|e| e.to_string())?
        .output;
    let matmul_ms = ms_since(start);

    let mut local_times = Vec::new();
    let mut local = None;
    for _ in 0..3 {
        let start = Instant::now();
        let out = match semiring {
            Semiring::MinPlus => operand.mul_min_plus(&operand),
            _ => operand.mul_counting(&operand),
        };
        local_times.push(ms_since(start));
        local = Some(std::hint::black_box(out));
    }
    if product.as_ints() != local.as_ref() {
        return Err(format!("{schedule} matmul differs from the local kernel"));
    }
    local_times.sort_by(f64::total_cmp);
    let d = d as f64;
    Ok(MatmulProbe {
        schedule,
        matmul_ms,
        local_ms: local_times[1],
        ops: d * d * d,
        bytes: 3.0 * d * d * 8.0,
    })
}

/// Decoding one signed incidence sketch at the MST job's final capacity,
/// restricted to the graph's edge keys as the protocol decodes. The sketch
/// holds `min(capacity, m)` edge keys. Median of three decodes, in µs.
pub fn sketch_decode_us(spec: &JobSpec, final_capacity: usize) -> Result<f64, String> {
    let JobInput::Weighted(graph) = input_of(spec)? else {
        return Err("sketch probe needs a weighted input".to_owned());
    };
    let n = graph.vertex_count() as u64;
    let universe = (graph.max_weight() + 1) * n * n;
    let mut keys: Vec<u64> = graph
        .edges()
        .map(|(u, v, w)| w * n * n + u as u64 * n + v as u64)
        .collect();
    keys.sort_unstable();
    let mut sketch = SignedPowerSumSketch::new(universe, final_capacity);
    let support: Vec<u64> = keys.iter().copied().take(final_capacity).collect();
    for &key in &support {
        sketch.add(key);
    }
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let decoded = std::hint::black_box(sketch.decode_among(&keys));
        times.push(start.elapsed().as_secs_f64() * 1e6);
        let decoded = decoded.ok_or("sketch did not decode")?;
        if decoded.iter().map(|&(x, _)| x).ne(support.iter().copied())
            || decoded.iter().any(|&(_, sign)| sign != 1)
        {
            return Err("sketch decoded to the wrong set".to_owned());
        }
    }
    times.sort_by(f64::total_cmp);
    Ok(times[1])
}
