#!/usr/bin/env python3
"""Benchmark entry point for the dknn repository.

Builds the harness (perfbench/CMakeLists.txt, which builds the dknn library
from the checkout's own sources), runs one workload and prints its result:

    python3 perfbench/run.py --workload online_churn_k16_d8 --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout.  The last line of standard output is
one JSON object with exactly the keys correct, attempted, failed and
metrics: every end-to-end metric with --trace 0, every per-layer metric with
--trace 1.  The lines before it record the seed, nproc, the SIMD ISA the
kernel dispatch picked and the run's deterministic fingerprint.

    python3 perfbench/run.py --self-test

runs every workload twice at a small size and checks that the fingerprints
match, that the answers are correct, that the traced run's replica agrees
with the facade, and that BENCHMARK.json names the metrics printed here.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

# The workloads BENCHMARK.json lists.  approx_clustered_d16 runs only by
# hand: it is the one workload where ann/ does the work, but its timings
# follow the host's shared-cache contention and spread beyond any allowed
# bound (see README.md).
WORKLOADS = ("offline_classify_d64", "online_churn_k16_d8")
BY_HAND = ("approx_clustered_d16",)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p90_ms": "ms",
    "rounds_per_query": "count",
    "messages_per_query": "count",
    "recall": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.score_us_per_query": "us",
    "data.rows_per_query": "count",
    "data.bytes_per_query": "bytes",
    "seq.tree_share": "ratio",
    "seq.scan_fraction": "ratio",
    "core.select_us_per_query": "us",
    "core.compute_us_per_query": "us",
    "core.attempts_per_query": "count",
    "core.candidates_per_query": "count",
    "sim.overhead_us_per_query": "us",
    "net.bits_per_query": "bits",
    "serve.snapshot_us_per_query": "us",
    "serve.insert_us": "us",
    "serve.erase_us": "us",
    "serve.compact_ms": "ms",
    "serve.seals": "count",
    "serve.compaction_installs": "count",
    "serve.compaction_aborts": "count",
    "serve.publishes_per_write": "count",
    "serve.cache_hit_rate": "ratio",
    "serve.cache_flushes_per_write": "count",
    "ann.build_s": "s",
    "ann.build_iters": "count",
    "ann.search_us_per_query": "us",
    "ann.hops_per_query": "count",
    "ann.frontier_points_per_query": "count",
    "ann.rerank_per_query": "count",
    "knn_service.facade_us_per_query": "us",
    "knn_service.unaccounted_us_per_query": "us",
    "knn_service.unaccounted_share": "ratio",
    "knn_service.write_overhead_us": "us",
    "knn_service.insert_p50_ms": "ms",
    "knn_service.erase_p50_ms": "ms",
    "knn_service.write_p99_ms": "ms",
    "knn_service.query_p50_ms": "ms",
    "knn_service.query_p99_ms": "ms",
}

HARNESS = "dknn_perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def build(root):
    """Configures and builds the harness; returns the binary's path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("the dknn sources (CMakeLists.txt, src/) are not in " + root)
    build_dir = os.path.join(root, BUILD_DIR)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_tool(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_tool(["cmake", "--build", build_dir, "--target", HARNESS, "-j", jobs], env)
    return os.path.join(build_dir, HARNESS)


def run_tool(argv, env):
    # Build chatter goes to stderr: stdout's last line is the result.
    done = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    if done.returncode != 0:
        raise BenchError("build step failed: " + " ".join(argv))


def run_harness(binary, workload, seed, seconds, trace, small=False):
    """Runs one workload; returns (exit code, the harness's JSON record)."""
    argv = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if small:
        argv.append("--small")
    try:
        done = subprocess.run(argv, capture_output=True, text=True, check=False,
                              timeout=120 + 4 * seconds)
    except subprocess.TimeoutExpired as expired:
        raise BenchError("harness timed out: " + " ".join(argv)) from expired
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed no result (exit %d)" % done.returncode)
    return done.returncode, json.loads(lines[-1])


def check_record(record, trace):
    """The harness printed exactly the expected metrics with their units."""
    expected = PER_LAYER if trace else END_TO_END
    metrics = record["metrics"]
    if set(metrics) != set(expected):
        raise BenchError("metric set mismatch: missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, entry in metrics.items():
        if entry["unit"] != expected[name]:
            raise BenchError("%s: unit %s, expected %s" % (name, entry["unit"], expected[name]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("%s: not a finite number: %r" % (name, value))


def result_line(record):
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    })


def run(args):
    binary = build(os.getcwd())
    code, record = run_harness(binary, args.workload, args.seed, args.seconds, args.trace)
    print("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d isa=%s" % (
        record["workload"], record["seed"], args.seconds, record["trace"], record["nproc"],
        record["isa"]))
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    for error in record["errors"]:
        print("error: " + error)
    check_record(record, args.trace)
    if record["attempted"] < 1:
        raise BenchError("no operation was attempted")
    print(result_line(record))
    sys.stdout.flush()
    # A wrong exact answer (or a failed replica parity check) fails the run.
    return 0 if code == 0 and record["correct"] else 1


def check_benchmark_json(root):
    path = os.path.join(root, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads %s differ from %s" % (names, WORKLOADS))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            raise BenchError("BENCHMARK.json %s differs from the harness's metrics" % key)


def self_test(args):
    root = os.getcwd()
    check_benchmark_json(root)
    binary = build(root)
    for workload in WORKLOADS + BY_HAND:
        prints = []
        for _ in range(2):
            code, record = run_harness(binary, workload, args.seed, 1, False, small=True)
            check_record(record, False)
            if code != 0 or not record["correct"] or record["failed"] != 0:
                raise BenchError("%s: incorrect run: %s" % (workload, record["errors"]))
            prints.append(record["fingerprint"])
        if prints[0] != prints[1]:
            raise BenchError("%s: fingerprints differ across runs of seed %d: %s vs %s" % (
                workload, args.seed, prints[0], prints[1]))
        code, record = run_harness(binary, workload, args.seed, 1, True, small=True)
        check_record(record, True)
        if code != 0 or not record["correct"]:
            raise BenchError("%s: traced run failed: %s" % (workload, record["errors"]))
        print("%s: fingerprint repeats %s; traced replica agrees" % (
            workload, json.dumps(prints[0], sort_keys=True)))
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + BY_HAND)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test(args)
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
