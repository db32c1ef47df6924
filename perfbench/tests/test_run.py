"""Tests of the benchmark's own logic: argument checks, the output digest
and checks, and the metric derivations. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The last test builds and runs the C++ span-stack tests (perfbench_tests).
"""

import importlib.util
import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


def sim_stats():
    return {
        "events": 1000, "connections": 40, "timeouts": 2,
        "throughput_bps": 1.5e6, "mean_queue_delay_s": 0.002,
        "loss_rate": 0.01, "utilization": 0.5, "mean_rtt_s": 0.01,
        "min_rtt_s": 0.004,
        "churn": {"enabled": 1, "offered": 50, "started": 45, "completed": 40,
                  "measured": 40, "deferred": 10, "fct_p50_s": 0.03,
                  "fct_p90_s": 0.2, "fct_p99_s": 1.1, "fct_mean_s": 0.09,
                  "wait_mean_s": 0.01, "goodput_bps": 1.2e6,
                  "mean_rtt_s": 0.01, "retransmits": 3, "timeouts": 2},
        "paths": [{"mean_queue_delay_s": 0.002, "loss_rate": 0.01,
                   "utilization": 0.5, "bytes_transmitted": 123456}],
        "senders": [],
    }


def run_record(variant="plain", wall_ns=2_000_000_000, setup_ns=500_000_000):
    return {"kind": "run", "variant": variant, "setup_ns": setup_ns,
            "wall_ns": wall_ns, "sim_s": 30.0,
            "sim": sim_stats(),
            "counters": {"tcp.sender.packets_sent": 100, "tcp.sender.retransmits": 4}}


def layer(calls, self_ns):
    return {"calls": calls, "self_ns": self_ns}


def traced_record(wall_ns=3_000_000_000, setup_ns=500_000_000):
    r = run_record("traced", wall_ns, setup_ns)
    r["counters"] = {
        "sim.scheduler.events_scheduled": 1200,
        "sim.scheduler.events_cancelled": 200,
        "sim.link.packets_tx": 90, "sim.link.packets_dropped": 10,
        "tcp.sender.packets_sent": 100, "tcp.sender.retransmits": 4,
        "tcp.sender.timeouts": 2, "tcp.sink.acks_sent": 80,
        "tcp.sink.packets_received": 80, "tcp.sink.duplicates": 8,
        "phi.agg.forwarded": 60, "phi.agg.flushes": 4,
        "phi.context.reports": 27, "phi.context.duplicate_reports": 3,
        "sim.shard.windows": 0,
    }
    r["layers"] = {
        "wheel_advances": 400,
        "advisor": layer(80, 8_000),
        "agg": layer(80, 4_000),
        "root_lookup": layer(30, 300_000),
        "root_report": layer(30, 30_000),
        "cc": layer(0, 0),
        "agg_lookups": 40, "agg_cold": 2,
    }
    return r


class Arguments(unittest.TestCase):
    def args(self, **over):
        a = {"--workload": "fleet-cubic", "--seed": "7", "--seconds": "10", "--trace": "0"}
        a.update(over)
        return [x for kv in a.items() for x in kv]

    def test_accepts_every_workload(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.parse_args(self.args(**{"--workload": w})).workload, w)
        self.assertEqual(run.parse_args(self.args(**{"--seed": "18446744073709551615"})).seed,
                         2**64 - 1)

    def test_rejects_unknown_workload(self):
        with self.assertRaises(SystemExit) as e:
            run.parse_args(self.args(**{"--workload": "fleet-reno"}))
        self.assertEqual(e.exception.code, 2)

    def test_rejects_malformed_seed(self):
        for bad in ("-1", "1.5", "0x10", "seven", "", "18446744073709551616"):
            with self.subTest(seed=bad), self.assertRaises(SystemExit):
                run.parse_args(self.args(**{"--seed": bad}))

    def test_rejects_bad_seconds_and_trace(self):
        for flag, bad in (("--seconds", "0"), ("--seconds", "61"), ("--trace", "2")):
            with self.subTest(flag=flag, value=bad), self.assertRaises(SystemExit):
                run.parse_args(self.args(**{flag: bad}))

    def test_command_line_rejection_prints_no_result(self):
        out = subprocess.run(
            [sys.executable, str(HERE.parent / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, check=False)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class Digest(unittest.TestCase):
    def test_equal_statistics_give_equal_digests(self):
        a, b = sim_stats(), json.loads(json.dumps(sim_stats()))
        self.assertEqual(run.digest(a), run.digest(b))

    def test_any_single_statistic_changes_the_digest(self):
        base = run.digest(sim_stats())
        edits = [
            lambda s: s.__setitem__("events", s["events"] + 1),
            lambda s: s["churn"].__setitem__("fct_p50_s", 0.030000000000000002),
            lambda s: s["paths"][0].__setitem__("bytes_transmitted", 123457),
            lambda s: s["senders"].append({"connections": 1}),
        ]
        for i, edit in enumerate(edits):
            s = sim_stats()
            edit(s)
            with self.subTest(edit=i):
                self.assertNotEqual(run.digest(s), base)


class Checks(unittest.TestCase):
    def test_identical_runs_pass(self):
        runs = [run_record(), run_record(), traced_record()]
        failed, d = run.check(runs)
        self.assertEqual(failed, 0)
        self.assertEqual(d, run.digest(sim_stats()))

    def test_traced_run_must_reproduce_untraced_output(self):
        t = traced_record()
        t["sim"]["events"] += 1
        self.assertEqual(run.check([run_record(), t])[0], 1)

    def test_sharded_runs_must_reproduce_the_serial_reference(self):
        serial = run_record("serial")
        serial["sim"]["paths"][0]["utilization"] = 0.25
        self.assertEqual(run.check([serial, run_record(), run_record()])[0], 2)

    def test_cubic_comparison_runs_are_their_own_group(self):
        c = run_record("cubic")
        c["sim"]["events"] = 5
        self.assertEqual(run.check([run_record(), c, c, run_record()])[0], 0)

    def test_invariants(self):
        def broken(edit):
            r = run_record()
            edit(r)
            return r
        cases = {
            "churn order": broken(lambda r: r["sim"]["churn"].__setitem__("started", 60)),
            "retransmits": broken(lambda r: r["counters"].__setitem__("tcp.sender.retransmits", 101)),
            "utilization": broken(lambda r: r["sim"]["paths"][0].__setitem__("utilization", 1.01)),
            "non-finite": broken(lambda r: r["sim"].__setitem__("mean_rtt_s", None)),
        }
        for name, r in cases.items():
            with self.subTest(name):
                self.assertTrue(run.invariant_problems(r))
                self.assertEqual(run.check([r])[0], 1)
        self.assertEqual(run.invariant_problems(run_record()), [])


class Derivations(unittest.TestCase):
    def test_quantile_interpolates_between_order_statistics(self):
        self.assertEqual(run.quantile([4.0], 0.9), 4.0)
        self.assertEqual(run.quantile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertAlmostEqual(run.quantile([1.0, 2.0, 3.0, 5.0], 0.25), 1.75)
        self.assertAlmostEqual(run.quantile([1.0, 2.0, 3.0, 5.0], 0.9), 4.4)
        self.assertEqual(run.quantile([1.0, 2.0, 3.0, 5.0], 1.0), 5.0)
        data = [2.5, 0.5, 4.0, 1.0, 3.0]
        self.assertAlmostEqual(
            run.quantile(data, 0.75),
            statistics.quantiles(data, n=4, method="inclusive")[2])

    def test_end_to_end(self):
        runs = [run_record(wall_ns=w, setup_ns=s) for w, s in
                ((2_500_000_000, 500_000_000), (2_000_000_000, 500_000_000),
                 (3_500_000_000, 500_000_000))]
        m = run.end_to_end(runs, [20_000_000, 10_000_000, 30_000_000], 19.5, 0.75)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["setup_s"], 0.02)  # median of the probes only
        self.assertAlmostEqual(m["sim_s_per_s"], 30.0 / 2.5)
        self.assertAlmostEqual(m["flows_per_s"], 40 / 2.5)
        self.assertEqual(m["peak_rss_mb"], 19.5)
        # The fast end for a workload whose disturbances are slow-downs.
        m = run.end_to_end(runs, [20_000_000], 19.5, 0.25)
        self.assertEqual(m["wall_s"], 2.25)
        self.assertAlmostEqual(m["sim_s_per_s"], 30.0 / 1.75)

    def test_every_workload_has_a_time_quantile(self):
        self.assertEqual(set(run.TIME_QUANTILE), set(run.WORKLOADS))
        for q in run.TIME_QUANTILE.values():
            self.assertTrue(0 < q < 1)

    def test_flows_fall_back_to_connections_without_churn(self):
        r = run_record()
        r["sim"]["churn"]["enabled"] = 0
        r["sim"]["connections"] = 9
        self.assertEqual(run.flows(r), 9)

    def test_per_layer(self):
        plain = run_record(wall_ns=2_000_000_000, setup_ns=500_000_000)
        cubic = run_record("cubic", wall_ns=1_500_000_000, setup_ns=400_000_000)
        traced = traced_record(wall_ns=3_000_000_000, setup_ns=500_000_000)
        m = run.per_layer([plain, cubic, traced], [4_000_000, 6_000_000, 5_000_000])
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["sim.ns_per_event"], 1.5e9 / 1000)
        self.assertAlmostEqual(m["sim.cancel_ratio"], 200 / 1200)
        self.assertAlmostEqual(m["sim.events_per_advance"], 1000 / 400)
        self.assertAlmostEqual(m["sim.link.drop_ratio"], 10 / 100)
        self.assertAlmostEqual(m["tcp.retransmit_ratio"], 0.04)
        self.assertAlmostEqual(m["tcp.sink.duplicate_ratio"], 0.1)
        self.assertAlmostEqual(m["phi.churn.deferred_ratio"], 10 / 40)
        # Self time, not span time: the advisor's span covers agg calls.
        self.assertAlmostEqual(m["phi.advisor.self_ns_per_call"], 100.0)
        self.assertAlmostEqual(m["phi.agg.self_ns_per_call"], 50.0)
        self.assertAlmostEqual(m["phi.agg.batch_size"], 15.0)
        self.assertAlmostEqual(m["phi.agg.cold_ratio"], 0.05)
        self.assertEqual(m["phi.root.calls"], 60)
        self.assertAlmostEqual(m["phi.root.lookup_ns"], 10_000.0)
        self.assertAlmostEqual(m["phi.root.report_ns"], 1_000.0)
        self.assertAlmostEqual(m["phi.root.duplicate_ratio"], 3 / 30)
        self.assertAlmostEqual(m["phi.self_s"], 342_000 / 1e9)
        self.assertAlmostEqual(m["phi.control_share"], 342_000 / 2.5e9)
        self.assertAlmostEqual(m["phi.gap_s"], 1.5 - 1.1)
        self.assertEqual(m["flow.tracegen_ms"], 5.0)
        self.assertAlmostEqual(m["telemetry.trace_overhead"], 0.5)
        # Layers the workload bypasses read zero rather than failing.
        self.assertEqual(m["tcp.cc.calls"], 0)
        self.assertEqual(m["tcp.cc.ns_per_call"], 0.0)
        self.assertEqual(m["exec.boundary_msgs_per_window"], 0.0)

    def test_result_labels_every_metric_with_its_unit(self):
        values = {k: 1.0 for k in run.END_TO_END}
        res = run.result(1, 3, values, run.END_TO_END)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"]["setup_s"], {"value": 1.0, "unit": "s"})
        self.assertEqual(res["metrics"]["flows_per_s"]["unit"], "1/s")

    def test_units_match_benchmark_json(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)


class SpanStack(unittest.TestCase):
    def test_cpp_self_time_accounting(self):
        binary = run.build("perfbench_tests")
        out = subprocess.run([str(binary)], capture_output=True, text=True, check=False)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main()
