#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size.

    python3 tripriv_bench/test_bench.py

Runs each workload at tiny scale, untraced once and traced with two seeds at
0 and 2 workers. Checks that every output check passes, that a workload
reports exactly the layer metrics it reaches and run.py's result line reads
0 for the rest, that timings are positive, and that the exact work counters
repeat across worker counts. Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

import run

SEEDS = [1, 2]
WORKERS = [0, 2]
# The layer metrics each workload reaches (README.md, per-layer table).
REACHES = {
    "pir_read": [
        "pir.query_build_us", "pir.axis_expand_us", "pir.product_expand_us",
        "pir.sweep_us", "pir.sweep_gb_per_s", "pir.upload_bits",
        "pir.expanded_cells", "pir.bytes_xored", "pir.preprocess_ms",
        "service.pir_batch_rest_us", "service.failovers",
        "service.corrupt_detected", "trace.overhead_pct", "trace.coverage"],
    "stat_query": [
        "service.prepare_us", "querydb.execute_us", "table.match_rows_us",
        "service.submit_rest_us", "service.wal_bytes_per_query",
        "service.protected_frac", "service.policy_refused_frac",
        "traffic.generate_us", "traffic.schedule_us", "traffic.shed_frac",
        "trace.overhead_pct", "trace.coverage"],
    "epoch_churn": [
        "table.copy_us", "table.apply_us", "sdc.incremental_mdav_ms",
        "sdc.kanon_check_us", "table.checksum_us", "service.flip_rest_ms",
        "sdc.rows_reclustered", "service.wal_bytes_per_flip",
        "pir.replica_build_ms", "pir.preprocess_ms", "trace.overhead_pct",
        "trace.coverage"],
    "table2_census": [
        "sdc.partitioned_mdav_ms", "sdc.mondrian_ms", "attack.linkage_ms",
        "attack.disclosure_ms", "attack.minmax_ms", "attack.bucket_ms",
        "attack.collusion_ms", "attack.profiling_ms", "trace.overhead_pct",
        "trace.coverage"],
}
# Reached, and 0 on a healthy run: no fault is injected and nothing sheds.
ZERO = {"service.failovers", "service.corrupt_detected", "traffic.shed_frac"}
# Reached, of either sign or 0: tracing can speed an op up (the replays
# warm caches), and a tiny table may draw no query the size policy refuses.
ANY = {"trace.overhead_pct", "service.policy_refused_frac"}
EXACT = {
    "pir_read": ["pir.upload_bits", "pir.bytes_xored", "pir.expanded_cells"],
    "stat_query": ["service.wal_bytes_per_query"],
    "epoch_churn": ["service.wal_bytes_per_flip", "sdc.rows_reclustered"],
    "table2_census": [],
}


def full_result(workload, seed, workers, trace):
    """Runs the binary at tiny scale; returns its full result."""
    path = run.result_path(workload, seed, trace)
    if os.path.exists(path):
        os.remove(path)
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--workers",
           str(workers), "--tiny", "--out-dir", run.OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(path):
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    with open(path) as f:
        full = json.load(f)
    if not full["correct"] or full["failed"] or full["attempted"] < 1:
        raise AssertionError(f"{workload} seed {seed}: output checks failed")
    return full


def check_layers(workload, full):
    """The workload reports exactly the layers it reaches, with plausible
    values, and the result line reads 0 for every other layer."""
    reported = {m["name"]: m["value"] for m in full["metrics"]
                if m["kind"] == "per_layer"}
    assert sorted(reported) == sorted(REACHES[workload]), (
        f"{workload}: reports {sorted(reported)}")
    for name, value in reported.items():
        if name in ZERO:
            assert value == 0, f"{workload}: {name} = {value}"
        elif name not in ANY:
            assert value > 0, f"{workload}: {name} = {value}"
    line = run.result_line(full, 1)["metrics"]
    for name, m in line.items():
        assert m["value"] == reported.get(name, 0.0), (workload, name, m)


def main():
    if not run.build():
        print("build failed", file=sys.stderr)
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert [w["name"] for w in declared["workloads"]] == run.WORKLOADS
    layers = {m["name"] for m in declared["per_layer"]}
    reached = set().union(*REACHES.values())
    assert layers == reached, f"declared vs reached: {layers ^ reached}"

    for workload in run.WORKLOADS:
        line = run.result_line(full_result(workload, SEEDS[0], 2, 0), 0)
        assert all(m["value"] > 0 for m in line["metrics"].values()), line
        by_seed = {}
        for seed in SEEDS:
            counters = []
            for workers in WORKERS:
                full = full_result(workload, seed, workers, 1)
                check_layers(workload, full)
                values = {m["name"]: m["value"] for m in full["metrics"]}
                counters.append({k: values[k] for k in EXACT[workload]})
            assert counters[0] == counters[1], (
                f"{workload} seed {seed}: counters differ across workers: "
                f"{counters}")
            by_seed[seed] = counters[0]
        print(f"ok {workload} {by_seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
