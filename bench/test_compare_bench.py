#!/usr/bin/env python3
"""Self-test for compare_bench.py.

Drives the gate binary-style (subprocess, real files) against generated
good/bad fixture JSONs and asserts the exit statuses the CI job depends on:
0 on within-threshold runs, 1 on regressions/missing metrics, and 2 — with
a readable diagnostic, never a traceback — on malformed or missing inputs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_bench.py")


def good_bench(speedup=6.0, hit_rate=0.95, matches=True,
               wal_throughput=0.45, serving_throughput=0.92,
               recovery_speedup=40.0, recovered_matches=True,
               concurrent_throughput=0.9, concurrent_matches=True,
               report_identical=True, explains_identical=True,
               num_cores=4):
    return {
        "generated_by": "bench_micro --executor_json",
        "smoke": False,
        "machine": {
            "num_cores": num_cores,
            "cpu_model": "fixture",
            "build_type": "release",
        },
        "benchmarks": {
            "BM_ExecutorJoin": {
                "boxed_reference_seconds_per_iter": 0.007,
                "speedup_late_cost_vs_boxed": speedup,
            },
            "streaming": {
                "plan_cache_hit_rate": hit_rate,
                "matches_full_explain_all": matches,
                "concurrent_ingest": {
                    "concurrent_append_relative_throughput":
                        concurrent_throughput,
                    "matches_full_explain_all": concurrent_matches,
                },
            },
            "durability": {
                "wal_append_relative_throughput": wal_throughput,
                "durable_serving_relative_throughput": serving_throughput,
                "recovery_speedup_vs_full_reaudit": recovery_speedup,
                "recovered_matches_full_explain_all": recovered_matches,
            },
            "serving": {
                "requests_per_second": 31000.0,
                "explain_p99_ms": 0.4,
                "served_report_byte_identical": report_identical,
                "served_explains_byte_identical": explains_identical,
            },
        },
    }


class GateFixture(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def write_json(self, name, payload):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def write_raw(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def run_gate(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, GATE, baseline, current, *extra],
            capture_output=True, text=True)

    def assert_no_traceback(self, result):
        self.assertNotIn("Traceback", result.stderr, result.stderr)
        self.assertNotIn("Traceback", result.stdout, result.stdout)


class GoodInputs(GateFixture):
    def test_identical_files_pass(self):
        base = self.write_json("base.json", good_bench())
        cur = self.write_json("cur.json", good_bench())
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_within_threshold_passes(self):
        base = self.write_json("base.json", good_bench(speedup=6.0))
        cur = self.write_json("cur.json", good_bench(speedup=5.0))
        result = self.run_gate(base, cur, "--threshold", "0.25")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_regression_fails(self):
        base = self.write_json("base.json", good_bench(speedup=6.0))
        cur = self.write_json("cur.json", good_bench(speedup=2.0))
        result = self.run_gate(base, cur, "--threshold", "0.25")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_hit_rate_floor_fails(self):
        base = self.write_json("base.json", good_bench(hit_rate=0.95))
        cur = self.write_json("cur.json", good_bench(hit_rate=0.5))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_equivalence_flag_flip_fails(self):
        base = self.write_json("base.json", good_bench(matches=True))
        cur = self.write_json("cur.json", good_bench(matches=False))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_served_byte_identity_flip_fails(self):
        # The serving bench's served-vs-in-process booleans gate like the
        # other equivalence flags: any flip to false is a hard failure.
        for flag in ("report_identical", "explains_identical"):
            base = self.write_json("base.json", good_bench())
            cur = self.write_json("cur.json", good_bench(**{flag: False}))
            result = self.run_gate(base, cur)
            self.assertEqual(result.returncode, 1,
                             flag + ": " + result.stdout + result.stderr)
            self.assertIn("byte_identical", result.stdout)

    def test_serving_latency_metrics_are_not_gated(self):
        # Absolute req/s and latency numbers are machine-dependent: an
        # arbitrarily slower current run must not fail the gate.
        base = self.write_json("base.json", good_bench())
        slow = good_bench()
        slow["benchmarks"]["serving"]["requests_per_second"] = 10.0
        slow["benchmarks"]["serving"]["explain_p99_ms"] = 900.0
        cur = self.write_json("cur.json", slow)
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_serving_overhead_ceiling_fails(self):
        # Absolute floor: with the WAL enabled the serving loop (append +
        # audit) must keep >= 75% of its no-WAL throughput even when the
        # baseline itself was already slow.
        base = self.write_json("base.json",
                               good_bench(serving_throughput=0.80))
        cur = self.write_json("cur.json",
                              good_bench(serving_throughput=0.60))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("durable_serving_relative_throughput",
                      result.stdout + result.stderr)

    def test_wal_append_tripwire_fails(self):
        # The raw-append ratio sits near 0.5 by construction; a drop to 0.25
        # means a structural regression (fsync per row, quadratic re-encode)
        # and must trip the absolute floor.
        base = self.write_json("base.json", good_bench(wal_throughput=0.45))
        cur = self.write_json("cur.json", good_bench(wal_throughput=0.25))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("wal_append_relative_throughput",
                      result.stdout + result.stderr)

    def test_wal_append_ratio_gates_absolute_only(self):
        # The raw-append ratio swings with scheduler noise (two
        # sub-millisecond timings); a 0.71 -> 0.40 drop is well over the
        # relative threshold but still above the 0.35 structural tripwire
        # and must pass.
        base = self.write_json("base.json", good_bench(wal_throughput=0.71))
        cur = self.write_json("cur.json", good_bench(wal_throughput=0.40))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_recovery_speedup_is_saturated_not_relative(self):
        # 400x -> 12x is a huge relative drop but still above the 10x
        # absolute floor: saturated metrics must not fail the relative gate.
        base = self.write_json("base.json",
                               good_bench(recovery_speedup=400.0))
        cur = self.write_json("cur.json", good_bench(recovery_speedup=12.0))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_recovery_speedup_floor_fails(self):
        base = self.write_json("base.json", good_bench(recovery_speedup=40.0))
        cur = self.write_json("cur.json", good_bench(recovery_speedup=3.0))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("recovery_speedup_vs_full_reaudit",
                      result.stdout + result.stderr)

    def scaling_bench(self, new_vs_all):
        return {
            "generated_by": "bench_scaling",
            "machine": {"num_cores": 4},
            "benchmarks": {
                "scaling_summary": {
                    "explain_all_coverage": 0.72,
                    "speedup_threads_4_vs_1": 3.0,
                    "explain_new_vs_all_1_thread": new_vs_all,
                    "matches_full_explain_all": True,
                },
            },
        }

    def test_explain_new_cost_ratio_is_absolute_only(self):
        # 1.10 -> 0.70 is a large relative drop but above the 0.67 floor:
        # the ratio of two 1-thread audit timings is gated absolutely only.
        base = self.write_json("base.json", self.scaling_bench(1.10))
        cur = self.write_json("cur.json", self.scaling_bench(0.70))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_explain_new_cost_ratio_floor_fails(self):
        base = self.write_json("base.json", self.scaling_bench(1.10))
        cur = self.write_json("cur.json", self.scaling_bench(0.40))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("explain_new_vs_all_1_thread",
                      result.stdout + result.stderr)

    def test_recovered_equivalence_flag_flip_fails(self):
        base = self.write_json("base.json", good_bench())
        cur = self.write_json("cur.json", good_bench(recovered_matches=False))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_concurrent_ingest_floor_fails_on_multicore(self):
        # 0.2x means the writer is serialized behind audits; on a machine
        # with enough cores for the writer and readers to truly overlap the
        # 0.5 absolute floor must trip.
        base = self.write_json("base.json",
                               good_bench(concurrent_throughput=0.9))
        cur = self.write_json("cur.json",
                              good_bench(concurrent_throughput=0.2))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("concurrent_append_relative_throughput",
                      result.stdout + result.stderr)

    def test_concurrent_ingest_gates_absolute_only(self):
        # Like the WAL raw-append ratio: a big relative swing that stays
        # above the absolute floor is scheduler noise, not a regression.
        base = self.write_json("base.json",
                               good_bench(concurrent_throughput=0.98))
        cur = self.write_json("cur.json",
                              good_bench(concurrent_throughput=0.55))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_concurrent_ingest_floor_warns_on_single_core(self):
        # On one core the writer time-shares the CPU with the busy readers
        # (~0.3x fair share), so the floor downgrades to a warning — for the
        # concurrency ratio only; everything else still gates.
        base = self.write_json("base.json",
                               good_bench(concurrent_throughput=0.9,
                                          num_cores=1))
        cur = self.write_json("cur.json",
                              good_bench(concurrent_throughput=0.26,
                                         num_cores=1))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("warn(cores)", result.stdout)
        self.assertIn("needs >= 2 cores", result.stdout)

    def test_concurrent_equivalence_stays_hard_on_single_core(self):
        base = self.write_json("base.json", good_bench(num_cores=1))
        cur = self.write_json("cur.json",
                              good_bench(concurrent_matches=False,
                                         num_cores=1))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_missing_gated_metric_fails(self):
        base = self.write_json("base.json", good_bench())
        trimmed = good_bench()
        del trimmed["benchmarks"]["BM_ExecutorJoin"]
        cur = self.write_json("cur.json", trimmed)
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("missing in current", result.stdout + result.stderr)


class CoreCountMismatch(GateFixture):
    """Baseline and candidate from machines with different core counts:
    relative gates downgrade to warnings, machine-independent acceptance
    criteria (absolute floors, equivalence booleans) stay hard."""

    def test_speedup_regression_warns_instead_of_failing(self):
        base = self.write_json("base.json",
                               good_bench(speedup=6.0, num_cores=4))
        cur = self.write_json("cur.json",
                              good_bench(speedup=2.0, num_cores=1))
        result = self.run_gate(base, cur, "--threshold", "0.25")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("warn(cores)", result.stdout)
        self.assertIn("downgraded to warnings", result.stdout)

    def test_same_core_count_still_fails(self):
        base = self.write_json("base.json",
                               good_bench(speedup=6.0, num_cores=4))
        cur = self.write_json("cur.json",
                              good_bench(speedup=2.0, num_cores=4))
        result = self.run_gate(base, cur, "--threshold", "0.25")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_absolute_floor_stays_hard_across_machines(self):
        # plan_cache_hit_rate has both a relative gate and the 0.9 absolute
        # floor; the mismatch drops the relative part only.
        base = self.write_json("base.json",
                               good_bench(hit_rate=0.95, num_cores=4))
        cur = self.write_json("cur.json",
                              good_bench(hit_rate=0.5, num_cores=1))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("plan_cache_hit_rate", result.stdout + result.stderr)

    def test_equivalence_flag_stays_hard_across_machines(self):
        base = self.write_json("base.json", good_bench(num_cores=4))
        cur = self.write_json("cur.json",
                              good_bench(matches=False, num_cores=1))
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_legacy_baseline_without_machine_block_gates_normally(self):
        legacy = good_bench(speedup=6.0)
        del legacy["machine"]
        base = self.write_json("base.json", legacy)
        cur = self.write_json("cur.json",
                              good_bench(speedup=2.0, num_cores=1))
        result = self.run_gate(base, cur, "--threshold", "0.25")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)


class BadInputs(GateFixture):
    def test_missing_baseline_is_usage_error(self):
        cur = self.write_json("cur.json", good_bench())
        result = self.run_gate(self.path("absent.json"), cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("baseline file not found", result.stderr)
        self.assert_no_traceback(result)

    def test_missing_current_is_usage_error(self):
        base = self.write_json("base.json", good_bench())
        result = self.run_gate(base, self.path("absent.json"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("current file not found", result.stderr)
        self.assert_no_traceback(result)

    def test_truncated_json_is_usage_error(self):
        base = self.write_json("base.json", good_bench())
        cur = self.write_raw("cur.json", '{"benchmarks": {"x": 1.0')
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("not valid JSON", result.stderr)
        self.assert_no_traceback(result)

    def test_non_object_json_is_usage_error(self):
        base = self.write_json("base.json", good_bench())
        cur = self.write_json("cur.json", [1, 2, 3])
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("JSON object", result.stderr)
        self.assert_no_traceback(result)

    def test_missing_benchmarks_key_is_usage_error(self):
        base = self.write_json("base.json", good_bench())
        cur = self.write_json("cur.json", {"smoke": False})
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("'benchmarks'", result.stderr)
        self.assert_no_traceback(result)

    def test_type_mismatch_on_gated_leaf_fails_cleanly(self):
        base = self.write_json("base.json", good_bench())
        bad = good_bench()
        bad["benchmarks"]["streaming"]["plan_cache_hit_rate"] = True
        cur = self.write_json("cur.json", bad)
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("type mismatch", result.stdout + result.stderr)
        self.assert_no_traceback(result)

    def test_baseline_with_no_gated_metrics_fails(self):
        base = self.write_json(
            "base.json",
            {"benchmarks": {"x": {"seconds_per_iter": 0.1}}})
        cur = self.write_json("cur.json", good_bench())
        result = self.run_gate(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("no gated metrics", result.stderr)


if __name__ == "__main__":
    unittest.main()
