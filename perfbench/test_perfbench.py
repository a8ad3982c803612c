#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload briefly with a seed the tuning runs did not use, untraced
and traced, through run.py, and checks:
  * every run completes with no failed operation and correct outputs;
  * the ladder's self times are non-negative within each rung's spread;
  * the stamped legs of every echoed request tile its measured latency;
  * the bypass predictions hold: no gateway hop and no forwarded IP hop off
    the gateway workloads, and no packed conversion outside ursa_gw.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SEED = 2
SECONDS = "3"
WORKLOADS = ("rpc_small", "stream_bulk", "ursa_gw", "tcp_gw")
ECHO_WORKLOADS = ("rpc_small", "stream_bulk", "tcp_gw")
CLOCK_RESOLUTION_NS = 1000


def run_one(workload, trace):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=600)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    path = os.path.join(run.build_dir(), "out",
                        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as f:
        artifact = json.load(f)
    return res.returncode, result, artifact, res.stderr


class BenchmarkSelfTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run_one(w, trace)

    def test_second_seed_runs_every_workload_clean(self):
        for (w, trace), (code, result, _, err) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_ladder_self_times_nonnegative_within_spread(self):
        rungs = ("nd", "ip", "lcm", "ali")
        for w in WORKLOADS:
            _, result, artifact, _ = self.runs[(w, 1)]
            m = result["metrics"]
            extra = artifact["extra"]
            for lower, upper in zip(rungs, rungs[1:]):
                with self.subTest(workload=w, rung=upper):
                    spread = max(
                        extra[f"{r}.send_us.p75"] - extra[f"{r}.send_us.p25"]
                        for r in (lower, upper))
                    self.assertGreaterEqual(m[f"{upper}.self_us"]["value"],
                                            -spread)
            self.assertGreater(m["nd.self_us"]["value"], 0)

    def test_stamped_legs_tile_measured_latency(self):
        for w in ECHO_WORKLOADS:
            _, _, artifact, _ = self.runs[(w, 1)]
            extra = artifact["extra"]
            with self.subTest(workload=w):
                self.assertGreater(extra["legs.matched"], 0)
                self.assertEqual(extra["legs.causality_violations"], 0)
            spans = artifact["spans"]
            children = {}
            for s in spans:
                if s["parent"]:
                    children.setdefault(s["parent"], {})[s["name"]] = s
            checked = 0
            for s in spans:
                legs = children.get(s["id"], {})
                if s["parent"] or "leg.request" not in legs:
                    continue
                req, handle, rep = (legs["leg.request"],
                                    legs["server.handle"], legs["leg.reply"])
                total = sum(x["end_ns"] - x["start_ns"]
                            for x in (req, handle, rep))
                self.assertLessEqual(
                    abs(total - (s["end_ns"] - s["start_ns"])),
                    CLOCK_RESOLUTION_NS, (w, s))
                self.assertGreaterEqual(req["end_ns"], req["start_ns"])
                self.assertGreaterEqual(rep["end_ns"], rep["start_ns"])
                checked += 1
            with self.subTest(workload=w):
                self.assertGreater(checked, 0)

    def test_bypass_predictions(self):
        for w in WORKLOADS:
            m = self.runs[(w, 1)][1]["metrics"]
            with self.subTest(workload=w):
                if w in ("rpc_small", "stream_bulk"):
                    self.assertEqual(m["gw.hop_us"]["value"], 0)
                    self.assertEqual(m["ip.hops_forwarded_per_op"]["value"], 0)
                else:
                    self.assertGreater(m["ip.hops_forwarded_per_op"]["value"],
                                       0)
                if w != "ursa_gw":
                    self.assertEqual(m["convert.packed_per_op"]["value"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
