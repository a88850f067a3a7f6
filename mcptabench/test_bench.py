#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 mcptabench/test_bench.py [--seconds S] [--runs N]

- The declared metrics: every workload prints each end-to-end metric of
  BENCHMARK.json with --trace 0 and each per-layer metric with --trace 1,
  in the declared unit, and passes its output checks.
- Counts repeat exactly: two traced runs with the same seed report the
  same value for every count, byte size and count ratio.
- Run-to-run agreement: N untraced runs with the same seed keep each
  end-to-end metric's spread (interquartile range over median, as
  statistics.quantiles gives it) within the metric's bound; setup_s is
  exempt, its bound applies to medians.
- A directory holding only BENCHMARK.json and the benchmark's files (no
  program sources) makes the command fail without printing a result.

With the defaults (10 s runs, 3 runs per workload) this takes about ten
minutes on a 4-core host. Run-to-run agreement checks the end-to-end
times at the reference host's speed (README.md), which take out most of
the drift of a shared host's speed, not all of it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3
ARGS = argparse.Namespace(seconds=10.0, runs=3)

# Per-layer metrics that are measured times or rates, so they vary
# between runs; every other per-layer metric is a count.
TIMED_UNITS = {"ms", "s", "1/s"}
TIMED_RATIOS = {"pool.busy_frac", "trace.overhead_frac"}


def run(workload, trace, seed=SEED, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(ARGS.seconds),
                              "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    return out


def result(workload, trace, seed=SEED):
    out = run(workload, trace, seed)
    if out.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (workload, out.returncode,
                                                   out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class DeclaredMetrics(unittest.TestCase):
    def check(self, workload, trace, declared):
        res = result(workload, trace)
        self.assertTrue(res["correct"], workload)
        self.assertEqual(res["failed"], 0, workload)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])
        return res

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check(w, 0, BENCH["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, "%s %s" % (w, name))

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, BENCH["per_layer"])


class CountsRepeat(unittest.TestCase):
    def test_two_traced_runs_agree(self):
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result(w, 1)["metrics"]
                b = result(w, 1)["metrics"]
                for name, unit in units.items():
                    if unit in TIMED_UNITS or name in TIMED_RATIOS:
                        continue
                    self.assertEqual(a[name]["value"], b[name]["value"],
                                     "%s %s" % (w, name))


class RunToRunAgreement(unittest.TestCase):
    def test_spread_within_bound(self):
        for w in WORKLOADS:
            values = {}
            for _ in range(ARGS.runs):
                for name, m in result(w, 0)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            for m in BENCH["end_to_end"]:
                # Set-up time is bounded by its median, not its spread.
                if m["name"] == "setup_s":
                    continue
                v = values[m["name"]]
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / statistics.median(v)
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertLessEqual(spread, m["bound"], v)


class BareDirectoryFails(unittest.TestCase):
    def test_no_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            out = run(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            lines = out.stdout.strip().splitlines()
            self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=ARGS.seconds)
    parser.add_argument("--runs", type=int, default=ARGS.runs)
    ARGS, rest = parser.parse_known_args()
    unittest.main(argv=[sys.argv[0]] + rest)
