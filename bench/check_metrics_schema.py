#!/usr/bin/env python3
"""Schema check for the obs registry's Prometheus text exposition.

Run by the smoke_metrics_schema ctest leg (and CI) against the file
`serve_loop --metrics=1 --metrics-out=...` just wrote.  Three families of
invariants:

  1. Presence — every metric the instrumented layers register must appear
     (a missing name means an instrumentation site silently vanished).
  2. Histogram shape — each `*_ns` / size histogram must expose a cumulative
     `_bucket{le=...}` ladder that is monotone non-decreasing, ends in
     `le="+Inf"`, and whose +Inf bucket equals `_count`; `_sum` must be
     consistent (zero iff count is zero for nonneg-valued series).
  3. Reconciliation — the facade's counters move together by construction:
     cache_hits + cache_misses == queries.

Exit 0 on success, 1 with a message on any violation.

Usage: check_metrics_schema.py <path-to-metrics.prom>
"""

import sys

# Every counter/gauge the instrumented layers register at first use on the
# serve_loop smoke path (facade + stores + result caches).  Families owned
# by config-dependent subsystems — the scoring ThreadPool, background
# Compactors, MachineHealth — register only when those
# objects exist, so they are validated when present rather than required.
# Histograms are listed separately: their exposition is the
# _bucket/_count/_sum triple, not a bare sample.
REQUIRED_COUNTERS = (
    "dknn_service_queries_total",
    "dknn_service_batches_total",
    "dknn_service_cache_hits_total",
    "dknn_service_cache_misses_total",
    "dknn_service_epoch_publishes_total",
    "dknn_store_inserts_total",
    "dknn_store_erases_total",
    "dknn_store_seals_total",
    "dknn_store_epoch_publishes_total",
    "dknn_store_compaction_installs_total",
    "dknn_cache_flushes_total",
)
REQUIRED_GAUGES = (
    "dknn_store_live_points",
    "dknn_store_dead_rows",
)
REQUIRED_HISTOGRAMS = (
    "dknn_service_query_latency_ns",
    "dknn_service_seat_wait_ns",
    "dknn_service_coalesce_batch_size",
)


def fail(msg):
    print(f"metrics schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_exposition(text):
    """Prometheus text format -> (types, samples).

    types maps metric name -> declared TYPE; samples maps a full sample name
    (including any {le=...} label) -> float value.
    """
    types = {}
    samples = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        # Sample line: `name{labels} value` or `name value`.
        try:
            name, value = line.rsplit(None, 1)
            samples[name] = float(value)
        except ValueError:
            fail(f"line {lineno}: cannot parse sample '{raw}'")
    return types, samples


def histogram_ladder(samples, name):
    """All (le, cumulative_count) pairs of `name`, in exposition order."""
    prefix = f'{name}_bucket{{le="'
    ladder = []
    for sample, value in samples.items():
        if sample.startswith(prefix):
            le = sample[len(prefix):].rstrip('"}')
            ladder.append((le, value))
    return ladder


def check_histogram(types, samples, name):
    if types.get(name) != "histogram":
        fail(f"{name}: not declared '# TYPE {name} histogram'")
    count = samples.get(f"{name}_count")
    total = samples.get(f"{name}_sum")
    if count is None or total is None:
        fail(f"{name}: missing _count or _sum sample")
    ladder = histogram_ladder(samples, name)
    if not ladder:
        fail(f"{name}: no _bucket samples")
    if ladder[-1][0] != "+Inf":
        fail(f"{name}: ladder does not end in le=\"+Inf\" (got {ladder[-1][0]})")
    prev = -1.0
    for le, cumulative in ladder:
        if cumulative < prev:
            fail(f"{name}: cumulative ladder not monotone at le={le} "
                 f"({cumulative} < {prev})")
        prev = cumulative
    if ladder[-1][1] != count:
        fail(f"{name}: +Inf bucket {ladder[-1][1]} != _count {count}")
    if count > 0 and name.endswith("_ns") and total <= 0:
        fail(f"{name}: {count} observations but _sum is {total}")
    return count


def main():
    if len(sys.argv) != 2:
        fail("usage: check_metrics_schema.py <metrics.prom>")
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        fail(f"cannot read {sys.argv[1]}: {err}")

    types, samples = parse_exposition(text)

    for name in REQUIRED_COUNTERS:
        if name not in samples:
            fail(f"missing counter '{name}'")
        if types.get(name) != "counter":
            fail(f"{name}: not declared '# TYPE {name} counter'")
        if samples[name] < 0:
            fail(f"{name}: counter is negative ({samples[name]})")
    for name in REQUIRED_GAUGES:
        if name not in samples:
            fail(f"missing gauge '{name}'")
        if types.get(name) != "gauge":
            fail(f"{name}: not declared '# TYPE {name} gauge'")
    for name in REQUIRED_HISTOGRAMS:
        if types.get(name) != "histogram":
            fail(f"missing histogram '{name}'")
    # Ladder-check every histogram in the exposition, required or not — a
    # malformed optional family is still malformed.
    observations = 0
    histograms = 0
    for name, kind in types.items():
        if kind == "histogram":
            histograms += 1
            observations += check_histogram(types, samples, name)

    # The facade moves these three counters together at the end of every
    # batch, so the ledger balances exactly — any drift means an early
    # return skipped one of them.
    queries = samples["dknn_service_queries_total"]
    hits = samples["dknn_service_cache_hits_total"]
    misses = samples["dknn_service_cache_misses_total"]
    if hits + misses != queries:
        fail(f"service ledger drift: hits {hits} + misses {misses} != "
             f"queries {queries}")
    if queries <= 0:
        fail("dknn_service_queries_total is zero — did the smoke run serve?")

    print(f"metrics schema check OK: {len(REQUIRED_COUNTERS)} required "
          f"counters, {len(REQUIRED_GAUGES)} gauges, {histograms} histograms "
          f"({observations:.0f} observations), ledger balanced at "
          f"{queries:.0f} queries")


if __name__ == "__main__":
    main()
