#!/usr/bin/env python3
"""Bench-regression gate: compare a freshly generated BENCH_executor.json
against the committed baseline and fail on a >threshold regression.

Only machine-portable, higher-is-better metrics are compared:

  * keys containing "speedup"  — ratios of two timings taken on the same
    machine in the same run, so they transfer between the container that
    produced the committed baseline and the CI runner;
  * keys containing "hit_rate" / "coverage" — deterministic workload
    properties (the streaming plan-cache hit rate is the ISSUE-4
    acceptance metric);
  * "matches_full_explain_all" — a boolean equivalence self-check that must
    simply stay true;
  * keys ending in "byte_identical" — the serving bench's served-vs-
    in-process equivalence booleans (ISSUE 10), gated like the other
    equivalence flags: they must stay true.

Absolute timings (seconds_per_iter, appends_per_second, ...ms...) are
machine-dependent and are reported but never gated on. Speedup metrics with
baseline < MIN_GATED_SPEEDUP have no headroom above noise (e.g. the
probe-bound distinct-lid sweep at ~1.0x) and are skipped too.

Every bench JSON records the machine it ran on ("machine.num_cores", see
bench/bench_machine.h). When the baseline and the candidate ran on machines
with different core counts, relative comparisons are meaningless for the
parallelism-sensitive speedups (a 4-core runner legitimately reports 3x
where the 1-core container that produced the committed baseline reports
1.0x — and vice versa), so baseline-derived relative gates downgrade to
warnings. Absolute floors and boolean equivalence checks are
machine-independent acceptance criteria and stay hard either way.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]
Exit status: 0 ok, 1 regression (or missing metric), 2 usage error.
"""

import argparse
import json
import os
import sys

MIN_GATED_SPEEDUP = 1.2

# Structure every bench JSON must have before any gating runs: the harness
# always emits a top-level "benchmarks" object holding the per-benchmark
# metric groups. Validating up front turns "the bench crashed halfway" or
# "the artifact path is wrong" into a clear exit-2 diagnostic instead of a
# traceback or a silent zero-metric pass.
REQUIRED_TOP_LEVEL_KEYS = ("benchmarks",)

# Absolute floors that apply regardless of the baseline (acceptance
# criteria, not relative regressions): the streaming plan-cache hit rate
# must stay >= 0.9 under interleaved append/explain (ISSUE 4), a
# foreign-table append must stay much cheaper to absorb via the reverse
# semi-join delta pass than via the full re-audit it used to trigger
# (ISSUE 5; a regression to re-audit-like cost puts the ratio near 1), and
# for ISSUE 7: write-ahead durability must cost at most 25% of the serving
# loop's (append + audit) throughput, the raw-append WAL ratio must stay
# above a structural tripwire (an in-memory columnar append runs ~90 ns/row
# and the WAL's encode+CRC+write floor is of the same order, so ~0.5 is the
# physical operating point — 0.35 catches an accidental fsync-per-row or
# O(n^2) re-encode), and recovering the audit state from checkpoint + WAL
# must stay >= 10x faster than re-deriving it with a from-row-0 audit.
ABSOLUTE_FLOORS = {
    "benchmarks.streaming.plan_cache_hit_rate": 0.9,
    "streaming.plan_cache_hit_rate": 0.9,
    # ISSUE 9: snapshot-pinned readers must not halve the writer — append
    # throughput under concurrent audits stays >= 0.5x append-only. Only
    # meaningful with the writer on its own core (see
    # ABSOLUTE_FLOOR_MIN_CORES): on one core the ratio measures the OS
    # scheduler splitting the core three ways (~0.3x fair share), not lock
    # contention — a writer actually serialized behind audits sits far
    # lower (~0.04x, one full audit per append batch).
    "benchmarks.streaming.concurrent_ingest"
    ".concurrent_append_relative_throughput": 0.5,
    "streaming.concurrent_ingest.concurrent_append_relative_throughput": 0.5,
    "benchmarks.streaming.foreign_append.speedup_delta_vs_full_reaudit": 5.0,
    "streaming.foreign_append.speedup_delta_vs_full_reaudit": 5.0,
    "benchmarks.durability.wal_append_relative_throughput": 0.35,
    "durability.wal_append_relative_throughput": 0.35,
    "benchmarks.durability.durable_serving_relative_throughput": 0.75,
    "durability.durable_serving_relative_throughput": 0.75,
    "benchmarks.durability.recovery_speedup_vs_full_reaudit": 10.0,
    "durability.recovery_speedup_vs_full_reaudit": 10.0,
    # bench_scaling: a from-row-0 ExplainNew must cost at most 1.5x a full
    # ExplainAll at one thread (1-thread ExplainAll seconds / ExplainNew
    # seconds >= 0.67), so the streaming and batch audit paths stay at one
    # cost.
    "benchmarks.scaling_summary.explain_new_vs_all_1_thread": 0.67,
    "scaling_summary.explain_new_vs_all_1_thread": 0.67,
}

# Saturated ratios: the numerator (a full re-audit) is tens of ms while the
# denominator (a delta audit or checkpoint-state recovery) sits near the
# timer floor, so the recorded value legitimately swings by integer factors
# across machines. These are gated against their ABSOLUTE_FLOORS entry only
# — a regression back to re-audit-like cost drops them to ~1 and still
# fails loudly. Listed explicitly (not derived from ABSOLUTE_FLOORS) so
# adding an extra absolute floor to a normal speedup metric never disables
# its relative gate.
SATURATED_METRICS = {
    "benchmarks.streaming.foreign_append.speedup_delta_vs_full_reaudit",
    "streaming.foreign_append.speedup_delta_vs_full_reaudit",
    "benchmarks.durability.recovery_speedup_vs_full_reaudit",
    "durability.recovery_speedup_vs_full_reaudit",
    # Not a saturated ratio but the same gating shape: the raw-append WAL
    # ratio compares two sub-millisecond-per-batch timings and swings with
    # scheduler noise, so only its structural-tripwire absolute floor is
    # meaningful — a lucky-fast baseline must not turn that noise into a
    # relative regression.
    "benchmarks.durability.wal_append_relative_throughput",
    "durability.wal_append_relative_throughput",
    # Same shape again: a ratio of two append-phase timings that sits near
    # 1.0 and swings with scheduler noise — only the absolute floor gates.
    "benchmarks.streaming.concurrent_ingest"
    ".concurrent_append_relative_throughput",
    "streaming.concurrent_ingest.concurrent_append_relative_throughput",
    # And again: two single-threaded audit timings whose ratio sits near 1.
    "benchmarks.scaling_summary.explain_new_vs_all_1_thread",
    "scaling_summary.explain_new_vs_all_1_thread",
}

# Concurrency floors only gate when the *current* run had at least this many
# cores: with fewer, the busy reader threads and the writer time-share one
# CPU and the ratio reflects scheduler fair-share, not blocking. Below the
# minimum (or when the current JSON predates the machine block) the floor
# downgrades to a warning, mirroring bench_scaling's self-skipped speedup
# gate on small machines. The CI bench job runs on a multi-core runner, so
# the floor stays hard where it is meaningful.
ABSOLUTE_FLOOR_MIN_CORES = {
    "benchmarks.streaming.concurrent_ingest"
    ".concurrent_append_relative_throughput": 2,
    "streaming.concurrent_ingest.concurrent_append_relative_throughput": 2,
}


def leaves(node, prefix=""):
    """Yields (dotted_path, value) for every scalar leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, (int, float, bool)):
        yield prefix, node


def gated(path, value):
    leaf = path.rsplit(".", 1)[-1]
    # Covers both the streaming "matches_full_explain_all" and the
    # durability "recovered_matches_full_explain_all" equivalence bits.
    if leaf.endswith("matches_full_explain_all"):
        return True
    # The serving bench's served-vs-in-process equivalence booleans.
    if leaf.endswith("byte_identical"):
        return True
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    # Acceptance-criteria metrics are always gated: the MIN_GATED_SPEEDUP
    # noise skip below must not silently disable an absolute floor just
    # because a (possibly already-regressed) baseline value is small.
    if path in ABSOLUTE_FLOORS:
        return True
    if "hit_rate" in leaf or "coverage" in leaf:
        return True
    if "speedup" in leaf:
        return value >= MIN_GATED_SPEEDUP
    return False


def load_bench_json(path, role):
    """Loads and structurally validates one bench JSON; exits 2 with a
    diagnostic naming the role (baseline/current) on any problem."""
    if not os.path.exists(path):
        hint = (" (was the committed baseline renamed or not checked out?)"
                if role == "baseline"
                else " (did the bench binary run and write its --json path?)")
        print(f"error: {role} file not found: {path}{hint}", file=sys.stderr)
        sys.exit(2)
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        print(f"error: {role} file {path} is not valid JSON: {e} "
              "(truncated bench run?)", file=sys.stderr)
        sys.exit(2)
    except OSError as e:
        print(f"error: cannot read {role} file {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"error: {role} file {path} must hold a JSON object, got "
              f"{type(data).__name__}", file=sys.stderr)
        sys.exit(2)
    for key in REQUIRED_TOP_LEVEL_KEYS:
        if not isinstance(data.get(key), dict):
            print(f"error: {role} file {path} is missing the required "
                  f"'{key}' object — not a bench JSON?", file=sys.stderr)
            sys.exit(2)
    return dict(leaves(data))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional regression (default .25)")
    args = parser.parse_args()

    baseline = load_bench_json(args.baseline, "baseline")
    current = load_bench_json(args.current, "current")

    base_cores = baseline.get("machine.num_cores")
    cur_cores = current.get("machine.num_cores")
    core_mismatch = (base_cores is not None and cur_cores is not None
                     and base_cores != cur_cores)
    if core_mismatch:
        print(f"note: baseline ran on {base_cores} core(s), current on "
              f"{cur_cores} — relative gates downgraded to warnings "
              "(absolute floors and equivalence booleans stay hard)")

    failures = []
    warnings = 0
    compared = 0
    for path, base_value in sorted(baseline.items()):
        if not gated(path, base_value):
            continue
        if path not in current:
            failures.append(f"{path}: present in baseline, missing in current")
            continue
        cur_value = current[path]
        compared += 1
        # leaves() only yields scalars, but a malformed current file can
        # still put a bool where the baseline holds a number (or vice
        # versa); call that out as a structural failure, not a comparison.
        if isinstance(base_value, bool) != isinstance(cur_value, bool):
            failures.append(
                f"{path}: type mismatch — baseline "
                f"{type(base_value).__name__} vs current "
                f"{type(cur_value).__name__}")
            continue
        if isinstance(base_value, bool):
            ok = cur_value == base_value or cur_value is True
            verdict = "ok" if ok else "REGRESSION"
            print(f"{verdict:10s} {path}: {base_value} -> {cur_value}")
            if not ok:
                failures.append(f"{path}: {base_value} -> {cur_value}")
            continue
        # A relative floor is derived from the baseline value and only
        # meaningful between comparable machines; an absolute floor is an
        # acceptance criterion and always enforced.
        if path in SATURATED_METRICS:
            floor = ABSOLUTE_FLOORS[path]
            relative = False
        else:
            floor = base_value * (1.0 - args.threshold)
            relative = True
            if path in ABSOLUTE_FLOORS:
                absolute = ABSOLUTE_FLOORS[path]
                if core_mismatch:
                    floor = absolute
                    relative = False
                else:
                    floor = max(floor, absolute)
            elif core_mismatch:
                # Relative-only metric across different machines: report it,
                # warn if it would have failed, never gate.
                ok = cur_value >= floor
                verdict = "ok" if ok else "warn(cores)"
                if not ok:
                    warnings += 1
                print(f"{verdict:10s} {path}: baseline {base_value:.3f}, "
                      f"current {cur_value:.3f} (floor {floor:.3f}, "
                      "not gated across core counts)")
                continue
        min_cores = ABSOLUTE_FLOOR_MIN_CORES.get(path)
        if (not relative and min_cores is not None
                and (cur_cores is None or cur_cores < min_cores)):
            ok = cur_value >= floor
            verdict = "ok" if ok else "warn(cores)"
            if not ok:
                warnings += 1
            print(f"{verdict:10s} {path}: baseline {base_value:.3f}, "
                  f"current {cur_value:.3f} (floor {floor:.3f} needs >= "
                  f"{min_cores} cores to gate; current ran on "
                  f"{cur_cores if cur_cores is not None else 'unknown'})")
            continue
        ok = cur_value >= floor
        verdict = "ok" if ok else "REGRESSION"
        kind = "relative " if relative else "absolute "
        print(f"{verdict:10s} {path}: baseline {base_value:.3f}, "
              f"current {cur_value:.3f} ({kind}floor {floor:.3f})")
        if not ok:
            failures.append(
                f"{path}: {cur_value:.3f} < floor {floor:.3f} "
                f"(baseline {base_value:.3f})")

    if compared == 0:
        print("no gated metrics found in baseline", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{100 * args.threshold:.0f}%:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    suffix = f" ({warnings} ungated warning(s))" if warnings else ""
    print(f"\nall {compared} gated metrics within "
          f"{100 * args.threshold:.0f}% of baseline{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
