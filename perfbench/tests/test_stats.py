"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile(list(reversed(values)), 75), 75)

    def test_median_of_even_count_averages(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([3, 1, 2]), 2)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in range(1, 5000, 37):
            p = stats.tail_percentile(n)
            if n >= 20:
                self.assertGreaterEqual(round(n * (1000 - p * 10)), stats.MIN_BEYOND * 1000, n)
                for q in stats.TAIL_LADDER_PERMILLE:
                    if q > p * 10:
                        self.assertLess(n * (1000 - q), stats.MIN_BEYOND * 1000, n)

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(3), 50.0)

    def test_summary_carries_the_sample_count(self):
        summary = stats.summarize([float(v) for v in range(1, 1001)])
        self.assertEqual(summary["n"], 1000)
        self.assertEqual(summary["tail_p"], 99.0)
        self.assertEqual(summary["tail"], 990.0)
        self.assertEqual(summary["p50"], 500.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.median([])


class LatenessTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # Due at 1.0 s, sent 2 ms late, answered 3 ms after sending.
        requests = [(1.0, 1.002, 1.005)]
        self.assertAlmostEqual(stats.latencies_ms(requests)[0], 5.0)
        self.assertAlmostEqual(stats.lateness_ms(requests)[0], 2.0)

    def test_a_stall_delays_every_later_request(self):
        # An open-loop schedule at 1 ms intervals; the system stalls 10 ms
        # on the first request, so the next ones go out late and their
        # latency includes the wait.
        requests = [(0.000, 0.000, 0.010), (0.001, 0.010, 0.0105),
                    (0.002, 0.0105, 0.011)]
        self.assertEqual([round(x, 3) for x in stats.latencies_ms(requests)],
                         [10.0, 9.5, 9.0])
        self.assertEqual([round(x, 3) for x in stats.lateness_ms(requests)],
                         [0.0, 9.0, 8.5])

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(stats.lateness_ms([(1.0, 0.9999, 1.001)]), [0.0])


class OutputWriterTest(unittest.TestCase):
    def test_exact_keys_and_full_digits(self):
        line = stats.result_line(True, 12, 0, {"setup_s": (0.123456789012345, "s")})
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(parsed["metrics"]["setup_s"],
                         {"value": 0.123456789012345, "unit": "s"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual(parsed["attempted"], 12)

    def test_one_line(self):
        line = stats.result_line(True, 1, 0, {"a": (1, "s"), "b": (2.5, "ms")})
        self.assertNotIn("\n", line)

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {})
        with self.assertRaises(TypeError):
            stats.result_line(True, 1.5, 0, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"x": (math.nan, "s")})


def synthetic_raw(workload):
    requests = [(0.001 * i, 0.001 * i + 0.00001, 0.001 * i + 0.0002) for i in range(1200)]
    return {
        "workload": workload,
        "seed": 7,
        "trace": 0,
        "host": {"cores": 4, "l1d_bytes": 1, "l2_bytes": 2, "llc_bytes": 3},
        "inputs": {"owners": 3},
        "setup_s": [0.3, 0.2, 0.4],
        "result_s": [1.0, 1.2, 1.1],
        "throughput_rps": [10.0, 12.0],
        "writes": requests,
        "reads": requests,
        "scalars": {"match_f1": 0.5, "wire_bytes_per_record": 140.0,
                    "peak_rss_kb": 2048.0},
        "attempted": 10,
        "failed": 1,
        "layers": {"io.pclk_load_s": 0.01, "service.unattributed_s": 0.2},
        "dists": {"linkage.query_us": [10.0, 20.0, 30.0],
                  "net.query_rtt_us": [50.0, 60.0, 70.0]},
    }


class MetricSetTest(unittest.TestCase):
    def test_benchmark_json_mirrors_the_metric_tables(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_every_end_to_end_metric_on_every_workload(self):
        for workload in run.WORKLOADS:
            metrics, latencies = run.end_to_end(synthetic_raw(workload))
            self.assertEqual(list(metrics), [m[0] for m in run.END_TO_END])
            for name, unit, _better, _bound in run.END_TO_END:
                self.assertEqual(metrics[name][1], unit)
                self.assertGreater(metrics[name][0], 0, name)
            self.assertEqual(len(latencies), 4)
            self.assertIn("p99 of n=1200", latencies[1])
        metrics, _ = run.end_to_end(synthetic_raw("ship-single"))
        self.assertAlmostEqual(metrics["ok_ratio"][0], 0.9)
        self.assertAlmostEqual(metrics["peak_rss_mb"][0], 2.0)
        self.assertAlmostEqual(metrics["result_s"][0], 1.1)

    def test_every_per_layer_metric_on_every_workload(self):
        for workload in run.WORKLOADS:
            metrics = run.per_layer(synthetic_raw(workload))
            self.assertEqual(list(metrics), [m[0] for m in run.PER_LAYER])
        metrics = run.per_layer(synthetic_raw("online-durable"))
        self.assertEqual(metrics["io.pclk_load_s"][0], 0.01)
        self.assertEqual(metrics["encoding.encode_s"][0], 0.0)
        self.assertEqual(metrics["linkage.query_us_p50"][0], 20.0)
        self.assertEqual(metrics["net.query_overhead_us_p50"][0], 40.0)
        self.assertGreater(metrics["bench.generator_late_ms_p99"][0], 0)


if __name__ == "__main__":
    unittest.main()
