"""Short-mode self-tests of the benchmark itself.

From the repository root::

    python3 perfbench/selftest.py

They check that ``BENCHMARK.json`` is well formed, that every workload at
self-test scale emits every declared metric with its unit and passes its
own output checks, that the workload inputs follow the seed, and that
deliberately corrupted results (a flipped profile byte, a dropped run, a
changed counter, a divergent or repeated service answer) trip the checks.
About a minute on a 2-core machine.
"""

from __future__ import annotations

import copy
import math
import os
import re
import shutil
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import OUT_DIR, load_spec, use_checkout_sources  # noqa: E402

use_checkout_sources()

from repro import ProfileRequest  # noqa: E402
from repro.apps import registry  # noqa: E402
from repro.harness import runner  # noqa: E402

from perfbench import workloads as wl  # noqa: E402
from perfbench.run import result_line  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkSpecTest(unittest.TestCase):
    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(set(spec["workloads"][0]), {"name", "why"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for path in spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))


class WorkloadEmitsTest(unittest.TestCase):
    """Each workload, untraced and traced, at self-test scale."""

    def check(self, name: str, seconds: float, trace: bool):
        spec = load_spec()
        outcome = wl.WORKLOADS[name](7, seconds, trace, sizes=wl.SHORT)
        self.assertEqual(outcome.ledger.failed, 0, outcome.ledger.problems)
        line = result_line(spec, outcome, trace)
        declared = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        if outcome.tracer is not None:
            outcome.tracer.write(os.path.join(OUT_DIR, "selftest-trace.json"), {})
            shutil.rmtree(outcome.tracer.out_dir, ignore_errors=True)

    def test_cold_profile(self):
        self.check("cold-profile", 1.0, False)
        self.check("cold-profile", 1.0, True)

    def test_warm_parallel(self):
        self.check("warm-parallel", 1.0, False)
        self.check("warm-parallel", 1.0, True)

    def test_service_mix(self):
        self.check("service-mix", 3.0, False)
        self.check("service-mix", 3.0, True)


class SeedTest(unittest.TestCase):
    def test_schedule_follows_seed(self):
        a = wl.make_schedule(1, 20.0)
        self.assertEqual(a, wl.make_schedule(1, 20.0))
        self.assertNotEqual(a, wl.make_schedule(2, 20.0))
        self.assertGreaterEqual(len(a), 100)
        kinds = [r.kind for r in a]
        self.assertGreater(kinds.count("miss"), len(kinds) / 2)
        self.assertTrue(kinds.count("hit") and kinds.count("dup"))

    def test_seed_stream_is_distinct_and_spaced(self):
        import random

        seeds = wl.seed_stream(random.Random(3))
        got = [next(seeds) for _ in range(200)]
        self.assertEqual(len(set(got)), len(got))
        self.assertTrue(all(s % 100 == 0 for s in got))


class GaugeTest(unittest.TestCase):
    def test_probes_while_running_and_restores_the_timer(self):
        import signal
        import time

        from perfbench.speed import Gauge

        gauge = Gauge()
        with gauge.running():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                pass
            t1 = time.perf_counter()
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertGreaterEqual(len(gauge.probes) + gauge.dropped, 5)
        factor = gauge.factor(t0, t1)
        self.assertTrue(0.1 < factor < 10.0, factor)
        self.assertAlmostEqual(gauge.reference_s(t0, t1), (t1 - t0) * factor)

    def test_disabled_gauge_reads_wall_time(self):
        from perfbench.speed import Gauge

        gauge = Gauge(enabled=False)
        with gauge.running():
            pass
        self.assertEqual(gauge.probes, [])
        self.assertEqual(gauge.reference_s(1.0, 3.5), 2.5)


class CorruptionTest(unittest.TestCase):
    """A corrupted result must trip the output checks."""

    @classmethod
    def setUpClass(cls):
        cls.spec = registry.build("example")
        cls.outcome = runner.run_profile_session(
            cls.spec, ProfileRequest(runs=2, base_seed=11))

    def test_clean_passes(self):
        self.assertEqual(wl.check_session(self.outcome, 2), [])
        blob = self.outcome.data.to_bytes()
        self.assertEqual(wl.check_identical(blob, bytes(blob)), [])

    def test_flipped_profile_byte(self):
        blob = bytearray(self.outcome.data.to_bytes())
        blob[len(blob) // 2] ^= 0x01
        self.assertTrue(wl.check_identical(self.outcome.data.to_bytes(), bytes(blob)))

    def test_dropped_run(self):
        dropped = copy.copy(self.outcome)
        dropped.run_results = self.outcome.run_results[:-1]
        self.assertTrue(wl.check_session(dropped, 2))

    def test_changed_counter(self):
        counters = wl.run_counters(self.outcome.run_results)
        bumped = [counters[0][:1] + (counters[0][1] + 1,) + counters[0][2:]] + counters[1:]
        self.assertTrue(wl.check_counters(counters, bumped))

    def _records(self):
        spec = wl.JobSpec(tenant="t", app="example", runs=2, base_seed=5)
        result = {"state": "done", "degraded": False, "runs": 2, "experiments": 3,
                  "top": [{"line": "a.c:1", "slope": 0.5}], "profile_data": {"runs": []}}

        def rec(kind, arrived, job_id=None, answer=None):
            resp = {"ok": True, "result": copy.deepcopy(answer or result)}
            if job_id:
                resp["job"] = {"job_id": job_id}
            return wl.Record(wl.Request(0.0, kind, spec), arrived=arrived, response=resp)

        return rec, result

    def test_service_answers(self):
        rec, result = self._records()
        clean = [rec("miss", 1.0, "j1"), rec("dup", 1.1, "j1"), rec("hit", 2.0)]
        self.assertEqual(wl.check_answers(clean, 2), [[], [], []])

        changed = copy.deepcopy(result)
        changed["top"][0]["slope"] = 0.25
        diverged = [rec("miss", 1.0, "j1"), rec("hit", 2.0, answer=changed)]
        self.assertTrue(wl.check_answers(diverged, 2)[1])

        twice = [rec("miss", 1.0, "j1"), rec("dup", 1.1, "j2")]
        self.assertTrue(wl.check_answers(twice, 2)[1])

        lost = [wl.Record(clean[0].request, error="connection reset")]
        self.assertTrue(wl.check_answers(lost, 2)[0])


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    unittest.main(verbosity=2)
