//! Micro-benchmarks for the word-parallel `F₂` kernels, emitting the
//! `BENCH_kernels.json` baseline that tracks the perf trajectory of the
//! packed representations.
//!
//! Measured pairs:
//!
//! * packed `BitMatrix` multiplication ([`BitMatrix::mul_f2`], plus the
//!   Four-Russians kernel on its own) against the retained bool-at-a-time
//!   reference `matmul_f2_scalar`, at `d ∈ {64, 128, 256}`;
//! * a forced depth-1 Strassen split against the Four-Russians kernel it
//!   bottoms out in, at `d ∈ {2048, 4096}`;
//! * the counting-semiring product of 0/1 matrices (the local kernel of the
//!   `SemiringMatMul`/`TriangleCount` protocols): the word-parallel
//!   AND+popcount path against the schoolbook `u64` triple loop, at the
//!   same dimensions;
//! * 64-assignment bit-sliced `Circuit::evaluate_batch` against 64
//!   sequential `Circuit::evaluate` calls on the Strassen `d = 8` circuit;
//! * the row-blocked *threaded* counting product against its own
//!   single-worker path, at the worker count of the pool (`--threads N`
//!   overrides; the row is honest about `host_parallelism`, so a 1-core
//!   host reports ~1x while the cross-check still proves the parallel path
//!   correct).
//!
//! Usage:
//!
//! ```text
//! cargo run -p clique-bench --release --bin kernels > BENCH_kernels.json
//! cargo run -p clique-bench --release --bin kernels -- --smoke      # CI smoke
//! cargo run -p clique-bench --release --bin kernels -- --threads 8  # pool size
//! ```
//!
//! Every timed result is cross-checked against the scalar oracle before it
//! is reported; a mismatch aborts the run. The smoke run additionally
//! asserts that the threaded path really executed with at least two
//! workers.

use std::hint::black_box;
use std::time::Instant;

use clique_bench::parse_threads_flag;
use clique_core::circuits::matmul::{matmul_f2_scalar, matmul_f2_strassen};
use clique_core::sim::lane::{DefaultLane, Word};
use clique_core::sim::linalg::{BitMatrix, IntMatrix, PAR_MIN_ROWS};
use clique_core::sim::par;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `f` repeatedly until the sampling budget is spent and returns the
/// mean wall-clock nanoseconds per call (at least one call always runs).
fn time_ns(budget_ms: u64, max_reps: u32, mut f: impl FnMut()) -> f64 {
    // Warm-up call, also outside the measurement.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < max_reps && (reps == 0 || start.elapsed() < budget) {
        f();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

fn random_matrix(rng: &mut ChaCha8Rng, d: usize) -> BitMatrix {
    let rows: Vec<Vec<bool>> = (0..d)
        .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    BitMatrix::from_rows(&rows)
}

struct MatMulRow {
    d: usize,
    scalar_ns: f64,
    packed_ns: f64,
    four_russians_ns: f64,
}

impl MatMulRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.packed_ns
    }
}

fn bench_matmul(d: usize, budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> MatMulRow {
    let a = random_matrix(rng, d);
    let b = random_matrix(rng, d);
    let a_rows = a.to_rows();
    let b_rows = b.to_rows();

    // Correctness gate: both packed paths must agree with the scalar oracle
    // on this instance before anything is timed.
    let expected = BitMatrix::from_rows(&matmul_f2_scalar(&a_rows, &b_rows));
    for (name, got) in [
        ("mul_f2", a.mul_f2(&b)),
        ("mul_f2_four_russians", a.mul_f2_four_russians(&b)),
    ] {
        assert_eq!(
            got, expected,
            "{name} disagrees with the scalar oracle at d={d}"
        );
    }

    MatMulRow {
        d,
        scalar_ns: time_ns(budget_ms, max_reps, || {
            black_box(matmul_f2_scalar(black_box(&a_rows), black_box(&b_rows)));
        }),
        packed_ns: time_ns(budget_ms, max_reps, || {
            // One worker: this row isolates packing; threading is measured
            // by the matmul_counting_parallel rows.
            black_box(black_box(&a).mul_f2_with_threads(black_box(&b), 1));
        }),
        four_russians_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_f2_four_russians(black_box(&b)));
        }),
    }
}

struct StrassenRow {
    d: usize,
    four_russians_ns: f64,
    strassen_ns: f64,
}

impl StrassenRow {
    fn speedup(&self) -> f64 {
        self.four_russians_ns / self.strassen_ns
    }
}

/// Benches a forced depth-1 Strassen split against the blocked
/// Four-Russians kernel it bottoms out in, on both sides of
/// `STRASSEN_MIN_DIM` — below the threshold the split loses (the leaves
/// run at worse per-bit efficiency than one big Four-Russians pass), above
/// it the saved block product dominates, which is exactly the measurement
/// the dispatch constant encodes.
fn bench_strassen(d: usize, budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> StrassenRow {
    let a = random_matrix(rng, d);
    let b = random_matrix(rng, d);

    // Correctness gate: the forced split must agree with the dispatching
    // kernel before anything is timed.
    assert_eq!(
        a.mul_f2_strassen_with_levels(&b, 1, 1),
        a.mul_f2(&b),
        "strassen kernel disagrees with the dispatcher at d={d}"
    );

    StrassenRow {
        d,
        four_russians_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_f2_four_russians(black_box(&b)));
        }),
        strassen_ns: time_ns(budget_ms, max_reps, || {
            // One worker, explicit depth 1: this row isolates the recursion
            // against the flat kernel independent of where the dispatch
            // threshold sits; threading is measured by the parallel rows.
            black_box(black_box(&a).mul_f2_strassen_with_levels(black_box(&b), 1, 1));
        }),
    }
}

struct CountingRow {
    d: usize,
    scalar_ns: f64,
    popcount_ns: f64,
}

impl CountingRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.popcount_ns
    }
}

/// The schoolbook `u64` triple loop the popcount kernel is measured
/// against.
fn counting_scalar(a: &IntMatrix, b: &IntMatrix) -> IntMatrix {
    let d = a.rows();
    let mut out = IntMatrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            let mut acc = 0u64;
            for k in 0..d {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn bench_counting(d: usize, budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> CountingRow {
    let a_bits = random_matrix(rng, d);
    let b_bits = random_matrix(rng, d);
    let a = IntMatrix::from_bitmatrix(&a_bits);
    let b = IntMatrix::from_bitmatrix(&b_bits);

    // Correctness gate: the dispatching kernel (AND+popcount for 0/1
    // operands) must agree with the triple loop before anything is timed.
    assert_eq!(
        a.mul_counting(&b),
        counting_scalar(&a, &b),
        "counting kernel disagrees with the scalar oracle at d={d}"
    );

    CountingRow {
        d,
        scalar_ns: time_ns(budget_ms, max_reps, || {
            black_box(counting_scalar(black_box(&a), black_box(&b)));
        }),
        popcount_ns: time_ns(budget_ms, max_reps, || {
            // One worker: this row isolates the popcount kernel; threading
            // is measured by the matmul_counting_parallel rows.
            black_box(black_box(&a).mul_counting_with_threads(black_box(&b), 1));
        }),
    }
}

struct ParallelRow {
    d: usize,
    threads: usize,
    serial_ns: f64,
    parallel_ns: f64,
}

impl ParallelRow {
    fn speedup(&self) -> f64 {
        self.serial_ns / self.parallel_ns
    }
}

/// Benches the row-blocked threaded counting product (0/1 operands, so the
/// AND+popcount kernel underneath) against its own single-worker path.
fn bench_counting_parallel(
    d: usize,
    threads: usize,
    budget_ms: u64,
    max_reps: u32,
    rng: &mut ChaCha8Rng,
) -> ParallelRow {
    assert!(
        d >= PAR_MIN_ROWS,
        "d={d} is below PAR_MIN_ROWS={PAR_MIN_ROWS}; the threaded path would not engage"
    );
    let a = IntMatrix::from_bitmatrix(&random_matrix(rng, d));
    let b = IntMatrix::from_bitmatrix(&random_matrix(rng, d));

    // Correctness gate: the parallel path must agree with the serial path
    // bit for bit before anything is timed.
    assert_eq!(
        a.mul_counting_with_threads(&b, threads),
        a.mul_counting_with_threads(&b, 1),
        "threaded counting product disagrees with the serial path at d={d}, threads={threads}"
    );

    ParallelRow {
        d,
        threads,
        serial_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_counting_with_threads(black_box(&b), 1));
        }),
        parallel_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_counting_with_threads(black_box(&b), threads));
        }),
    }
}

struct CircuitRow {
    assignments: usize,
    sequential_ns: f64,
    batch_ns: f64,
}

impl CircuitRow {
    fn speedup(&self) -> f64 {
        self.sequential_ns / self.batch_ns
    }
}

fn bench_circuit_eval(budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> CircuitRow {
    let mm = matmul_f2_strassen(8);
    let circuit = &mm.circuit;
    let lanes = 64usize;
    let assignments: Vec<Vec<bool>> = (0..lanes)
        .map(|_| {
            (0..circuit.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect()
        })
        .collect();

    // Correctness gate: every lane of the batch equals its sequential run.
    let batch = circuit.evaluate_batch(&assignments);
    for (k, assignment) in assignments.iter().enumerate() {
        assert_eq!(
            batch[k],
            circuit.evaluate(assignment),
            "evaluate_batch lane {k} disagrees with evaluate"
        );
    }

    CircuitRow {
        assignments: lanes,
        sequential_ns: time_ns(budget_ms, max_reps, || {
            for assignment in &assignments {
                black_box(circuit.evaluate(black_box(assignment)));
            }
        }),
        batch_ns: time_ns(budget_ms, max_reps, || {
            black_box(circuit.evaluate_batch(black_box(&assignments)));
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut threads_flag: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                threads_flag = Some(parse_threads_flag(args.get(i + 1)));
                i += 1;
            }
            arg => {
                eprintln!("error: unknown flag {arg} (expected --smoke or --threads N)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    par::set_threads(threads_flag);
    // The worker count the parallel rows run at: an explicit --threads is
    // honored as given; without one, the pool default is floored at 2 so
    // the row-blocked path is genuinely exercised even on a single-core
    // host. Smoke mode *requires* >= 2 workers (its contract is that the
    // threaded path ran), so --smoke --threads 1 is rejected.
    let pool_threads = threads_flag.unwrap_or_else(|| par::threads().max(2));
    if smoke && pool_threads < 2 {
        eprintln!("error: --smoke asserts the threaded path; use --threads 2 or higher");
        std::process::exit(2);
    }
    // Smoke mode (CI) only proves the harness runs end to end; the committed
    // baseline comes from a full run.
    let (budget_ms, max_reps) = if smoke { (1, 3) } else { (300, 10_000) };

    let mut rng = ChaCha8Rng::seed_from_u64(0xF2F2);
    let matmul_rows: Vec<MatMulRow> = [64usize, 128, 256]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking matmul d={d} …");
            bench_matmul(d, budget_ms, max_reps, &mut rng)
        })
        .collect();
    let strassen_rows: Vec<StrassenRow> = [2048usize, 4096]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking strassen matmul d={d} …");
            bench_strassen(d, budget_ms, max_reps, &mut rng)
        })
        .collect();
    let lane = <DefaultLane as Word>::BITS;
    let counting_rows: Vec<CountingRow> = [64usize, 128, 256]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking counting matmul d={d} …");
            bench_counting(d, budget_ms, max_reps, &mut rng)
        })
        .collect();
    let parallel_rows: Vec<ParallelRow> = [64usize, 128, 256]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking threaded counting matmul d={d} ({pool_threads} workers) …");
            bench_counting_parallel(d, pool_threads, budget_ms, max_reps, &mut rng)
        })
        .collect();
    eprintln!("benchmarking circuit eval (Strassen d=8, 64 lanes) …");
    let circuit_row = bench_circuit_eval(budget_ms, max_reps, &mut rng);

    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"cargo run -p clique-bench --release --bin kernels\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    out.push_str("  \"matmul_f2\": [\n");
    for (i, row) in matmul_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"lane\": {lane}, \"scalar_ns\": {:.0}, \"packed_ns\": {:.0}, \"four_russians_ns\": {:.0}, \"speedup_packed_vs_scalar\": {:.1}}}{}\n",
            row.d,
            row.scalar_ns,
            row.packed_ns,
            row.four_russians_ns,
            row.speedup(),
            if i + 1 < matmul_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"matmul_f2_strassen\": [\n");
    for (i, row) in strassen_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"lane\": {lane}, \"four_russians_ns\": {:.0}, \"strassen_ns\": {:.0}, \"speedup_strassen_vs_four_russians\": {:.2}}}{}\n",
            row.d,
            row.four_russians_ns,
            row.strassen_ns,
            row.speedup(),
            if i + 1 < strassen_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"matmul_counting\": [\n");
    for (i, row) in counting_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"scalar_ns\": {:.0}, \"popcount_ns\": {:.0}, \"speedup_popcount_vs_scalar\": {:.1}}}{}\n",
            row.d,
            row.scalar_ns,
            row.popcount_ns,
            row.speedup(),
            if i + 1 < counting_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"matmul_counting_parallel\": [\n");
    for (i, row) in parallel_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"threads\": {}, \"serial_ns\": {:.0}, \"parallel_ns\": {:.0}, \"speedup_parallel_vs_serial\": {:.1}}}{}\n",
            row.d,
            row.threads,
            row.serial_ns,
            row.parallel_ns,
            row.speedup(),
            if i + 1 < parallel_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"circuit_evaluate_batch\": {{\"circuit\": \"strassen_d8\", \"assignments\": {}, \"sequential_ns\": {:.0}, \"batch_ns\": {:.0}, \"speedup_batch_vs_sequential\": {:.1}}}\n",
        circuit_row.assignments,
        circuit_row.sequential_ns,
        circuit_row.batch_ns,
        circuit_row.speedup()
    ));
    out.push_str("}\n");
    print!("{out}");

    let d256 = matmul_rows.iter().find(|r| r.d == 256).expect("d=256 row");
    let c256 = counting_rows
        .iter()
        .find(|r| r.d == 256)
        .expect("d=256 row");
    let p256 = parallel_rows
        .iter()
        .find(|r| r.d == 256)
        .expect("d=256 row");
    eprintln!(
        "packed matmul speedup at d=256: {:.1}x; counting popcount speedup: {:.1}x; parallel counting speedup ({} workers on {} cores): {:.1}x; evaluate_batch speedup: {:.1}x",
        d256.speedup(),
        c256.speedup(),
        p256.threads,
        host_parallelism,
        p256.speedup(),
        circuit_row.speedup()
    );
    if smoke {
        // The CI smoke contract — a >= 2-worker threaded run — is enforced
        // up front (the --smoke --threads 1 rejection) and its correctness
        // by the cross-check in `bench_counting_parallel`.
        eprintln!("smoke: parallel path exercised with {pool_threads} workers");
    }
    if !smoke && (d256.speedup() < 10.0 || c256.speedup() < 10.0 || circuit_row.speedup() < 10.0) {
        eprintln!("error: expected >= 10x speedups in the full baseline run");
        std::process::exit(1);
    }
}
