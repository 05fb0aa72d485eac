#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the `perfbench` Rust
package (release profile, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs one workload. The last line of standard output is
the result object `{"correct", "attempted", "failed", "metrics"}`.

`--selftest` is the benchmark's own test: every workload in short mode,
traced and untraced, checked against the schema in `BENCHMARK.json` with
no timing gate.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_NAME = "clique-perfbench"
# One run must end within 180 s; the binary caps its own loop well below.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
LAYER_SUM_BOUND = 0.05


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", BINARY_NAME)


def source_record():
    """The commit when the checkout is a git repository, and a digest of the
    sources the benchmark builds from in any case."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    files += [os.path.join(HERE, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in roots:
        for base, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_binary(binary, args, capture=False):
    """Runs the binary with a hard timeout; returns (exit code, stdout)."""
    try:
        done = subprocess.run([binary, *args], timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout or ""


def check_result(line, names_units, trace):
    """Checks one result line against the schema; returns a list of problems."""
    problems = []
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"last line is not JSON: {err}"]
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(names_units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names_units))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: malformed {entry}")
        elif names_units.get(name) != entry["unit"]:
            problems.append(f"{name}: unit {entry['unit']} != {names_units.get(name)}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    if trace:
        frac = metrics.get("trace.layer_sum_frac", {}).get("value", 0)
        if not 1 - LAYER_SUM_BOUND <= frac <= 1 + 1e-9:
            problems.append(f"trace.layer_sum_frac {frac} outside ±{LAYER_SUM_BOUND}")
    return problems


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []
    code, listed = run_binary(binary, ["--list"], capture=True)
    rows = [line.split("\t", 1) for line in listed.splitlines() if line]
    declared = [[w["name"], w["why"]] for w in spec["workloads"]]
    if code != 0 or rows != declared:
        failures.append("workload names or whys differ between BENCHMARK.json and the binary")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        model_costs = []
        for trace, repeat in ((0, 0), (0, 1), (1, 0)):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--short"]
            code, out = run_binary(binary, args, capture=True)
            lines = out.strip().splitlines()
            label = f"{workload} trace={trace} repeat={repeat}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit {code}")
                continue
            problems = check_result(lines[-1], per_layer if trace else end_to_end, trace)
            failures += [f"{label}: {p}" for p in problems]
            if trace == 0 and not problems:
                metrics = json.loads(lines[-1])["metrics"]
                model_costs.append((metrics["sim_rounds_per_job"]["value"],
                                    metrics["sim_kbits_per_job"]["value"]))
            print(f"selftest {label}: {'ok' if not problems else 'FAILED'}", file=sys.stderr)
        if len(model_costs) == 2 and model_costs[0] != model_costs[1]:
            failures.append(f"{workload}: model cost differs between repeated runs {model_costs}")
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print(json.dumps({"selftest": "failed" if failures else "passed", "problems": len(failures)}))
    return 1 if failures else 0


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if argv == ["--selftest"]:
        return selftest(binary)
    if "--list" not in argv:
        print("source " + json.dumps(source_record(), sort_keys=True), flush=True)
    code, _ = run_binary(binary, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
