#!/usr/bin/env python3
"""Builds and runs the TriPriv end-to-end benchmark.

    python3 tripriv_bench/run.py --workload pir_read --seed 1 --seconds 12 --trace 0
    python3 tripriv_bench/run.py --workload all --seed 1 --seconds 12

Run from the root of a checkout. The first call configures and builds the
benchmark package (tripriv_bench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr. The binary writes its full result to .bench_out/; the last line of
stdout is the result object, holding the metrics BENCHMARK.json declares for
the mode. See tripriv_bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["pir_read", "stat_query", "epoch_churn", "table2_census"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tripriv_bench")
BINARY = os.path.join(BUILD_DIR, "tripriv_bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170

# The end-to-end figures each workload reports under its own names (the
# driver-facing BENCHMARK.json set is workload-neutral; see README.md).
NAMED = {
    "pir_read": ["read_p50_ms", "read_p90_ms", "reads_per_s"],
    "stat_query": ["query_p50_ms", "query_p90_ms", "queries_per_s"],
    "epoch_churn": ["flip_p50_ms", "flip_p90_ms", "mutations_per_s",
                    "read_p50_ms", "read_p90_ms", "reads_per_s"],
    "table2_census": ["table2_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "error_frac"]


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tripriv_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{trace}.json")


def result_line(full, trace):
    """The result object of one run: the metrics BENCHMARK.json declares for
    the mode, read from the binary's full result. A layer the workload does
    not reach reads 0; a missing end-to-end metric or a unit that differs
    from the declared one is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    have = {m["name"]: m for m in full["metrics"]}
    metrics = {}
    for d in declared:
        m = have.get(d["name"])
        if m is None and not trace:
            raise ValueError(f"end-to-end metric {d['name']} not reported")
        if m is not None and m["unit"] != d["unit"]:
            raise ValueError(f"{d['name']}: unit {m['unit']} is not the "
                             f"declared {d['unit']}")
        metrics[d["name"]] = {"value": m["value"] if m else 0.0,
                              "unit": d["unit"]}
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"], "metrics": metrics}


def run_binary(workload, seed, seconds, trace, quiet):
    """Runs one workload in its own process; returns (exit code, full
    result or None)."""
    path = result_path(workload, seed, trace)
    if os.path.exists(path):
        os.remove(path)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL if quiet else None,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    if not os.path.exists(path):
        return code or 1, None
    with open(path) as f:
        return code, json.load(f)


def run_all(args):
    """Runs every workload in its own process and prints the named figures."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        code, full = run_binary(workload, args.seed, args.seconds, 0, True)
        status = status or code
        if code != 0 or full is None:
            rows.append((workload, "FAILED", "", ""))
            continue
        metrics = {m["name"]: m for m in full["metrics"]}
        for name in NAMED[workload] + COMMON:
            m = metrics[name]
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    print(f"{'workload':<15} {'metric':<16} {'value':>12} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<15} {name:<16} {value:>12} {unit}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("tripriv_bench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    code, full = run_binary(args.workload, args.seed, args.seconds,
                            args.trace, False)
    if full is None:
        return code
    print(json.dumps(result_line(full, args.trace)))
    return code


if __name__ == "__main__":
    sys.exit(main())
