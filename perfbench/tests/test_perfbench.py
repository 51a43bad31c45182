"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m unittest perfbench.tests.test_perfbench

They start real workers on small inputs, so they take about a minute.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import layertrace  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import series  # noqa: E402
import workloads as w  # noqa: E402

ROOT = os.path.dirname(BENCH)


GOLDEN = w.digest("a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2")
SMALL_LARGE_CASE = {"lambda": [2, 1], "mu": [], "parity": 1, "word": [1, 0, 1, 0], "params": ["1/2", "3", "2/5", "7"]}


class CheckTests(unittest.TestCase):
    def test_sweep_corrupted_polynomial_line_fails(self):
        with gzip.open(w.sweep_expected_path("conjecture1"), "rt", encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            self.assertEqual(w.check_sweep_output("conjecture1", path), (len(lines) - 1, 0))
            corrupt = list(lines)
            corrupt[3] = corrupt[3].replace('"brute_force":"', '"brute_force":"1')
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(corrupt)
            self.assertEqual(w.check_sweep_output("conjecture1", path), (len(lines) - 1, 1))
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines[:-3])
            self.assertEqual(w.check_sweep_output("conjecture1", path)[1], 3)

    def test_large_check_rejects_disagreeing_routes(self):
        case = SMALL_LARGE_CASE
        digests = {w.large_key(case): "x"}
        good = {"routes": {r: "x" for r in ("phi", "lindstrom", "toeplitz", "pieri")}, "numeric": "5", "evaluated": "5"}
        self.assertTrue(w.check_large(case, good, digests))
        bad = json.loads(json.dumps(good))
        bad["routes"]["pieri"] = "y"
        self.assertFalse(w.check_large(case, bad, digests))
        self.assertFalse(w.check_large(case, dict(good, evaluated="6"), digests))
        self.assertFalse(w.check_large(case, {"error": "DomainError: x"}, digests))
        self.assertFalse(w.check_large(case, good, {w.large_key(case): "z"}))
        self.assertFalse(w.check_large(case, good, {}))

    def test_wrong_polynomial_or_count_gives_failures_through_the_worker(self):
        case = SMALL_LARGE_CASE
        for recorded, failures in ((GOLDEN, 0), (w.digest("a1*a2^2 + a3*a4^2"), 1)):
            tally = run.Tally()
            run.case_pass("large", [[case]], lambda c, r: w.check_large(c, r, {w.large_key(c): recorded}), tally, array("d"))
            self.assertEqual((tally.attempted, tally.failed), (1, failures))
        fq_case = {"lambda": [2, 1], "mu": [], "parity": 1, "d": [1, 0, 0], "q": 2}
        for count, failures in ((3, 0), (4, 1)):
            tally = run.Tally()
            counts = {w.fq_key(fq_case): [count, 0, 0, 0]}
            run.case_pass("fq", [[fq_case]], lambda c, r: w.check_fq(c, r, counts), tally, array("d"))
            self.assertEqual((tally.attempted, tally.failed), (1, failures))


class SeedTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.large = w.load_large_expected()
        cls.fq = w.load_fq_expected()

    def test_same_seed_same_cases(self):
        self.assertEqual(w.large_passes(7, self.large, 2), w.large_passes(7, self.large, 2))
        self.assertEqual(w.fq_passes(7, self.fq, 3), w.fq_passes(7, self.fq, 3))

    def test_different_seed_different_draw(self):
        a, b = w.large_passes(1, self.large, 1)[0], w.large_passes(2, self.large, 1)[0]
        strip = lambda cases: [{k: v for k, v in c.items() if k != "params"} for c in cases]  # noqa: E731
        self.assertEqual(strip(a[:3]), strip(w.large_anchors()))
        self.assertEqual(strip(a[:3]), strip(b[:3]))
        self.assertNotEqual(strip(a[3:]), strip(b[3:]))
        self.assertNotEqual(w.fq_passes(1, self.fq, 1), w.fq_passes(2, self.fq, 1))

    def test_a_run_holds_one_case_per_cost_stratum(self):
        count = 2
        kept = [c for c in self.large["pool"] if c["ms"] <= w.LARGE_COST_CAP_MS]
        strata = w.cost_strata([w.large_key(c) for c in kept], [c["ms"] for c in kept], w.LARGE_STRATA * count)
        where = {key: s for s, keys in enumerate(strata) for key in keys}
        passes = [cases[3:] for cases in w.large_passes(5, self.large, count)]
        drawn = [where[w.large_key(c)] for cases in passes for c in cases]
        self.assertEqual(sorted(drawn), list(range(w.LARGE_STRATA * count)))
        for cases in passes:
            # each pass: one case from every group of `count` neighbouring strata
            self.assertEqual(sorted(where[w.large_key(c)] // count for c in cases), list(range(w.LARGE_STRATA)))
            for case in cases:
                families = w.family_count(case["lambda"], case["mu"], case["parity"], case["word"])
                self.assertTrue(w.FAMILY_BANDS[0][0] <= families < w.FAMILY_BANDS[-1][1])
                self.assertTrue(10 <= sum(case["lambda"]) - sum(case["mu"]) <= 15)
        blocks = w.fq_passes(3, self.fq, count)
        self.assertEqual([len(block) for block in blocks], [w.FQ_STRATA] * count)
        self.assertEqual(len({w.fq_key(c) + f"|{c['q']}" for block in blocks for c in block}), w.FQ_STRATA * count)

    def test_family_count_matches_anchor(self):
        self.assertEqual(w.family_count((5, 4, 3, 2, 1), (), 1, w.alternating(12, 1)), 81796)


class PaceTests(unittest.TestCase):
    def test_rescale_to_the_nominal_pace(self):
        slow = 2 * pace.NOMINAL_PROBE_S
        self.assertAlmostEqual(pace.rescale(3.0, 10 * slow, 10), 1.5)
        self.assertEqual(pace.rescale(3.0, 0.0, 0), 3.0)

    def test_pacer_probes_while_work_runs_and_stops(self):
        pacer = pace.Pacer()
        pacer.start()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pace.probe(50)
        pacer.stop()
        probes = pacer.probes
        self.assertGreater(probes, 2)
        self.assertGreaterEqual(pacer.spent, pacer.probe_s)
        self.assertGreater(pacer.probe_s, 0)
        time.sleep(0.1)
        self.assertEqual(pacer.probes, probes)


class TracerTests(unittest.TestCase):
    def test_self_times_add_up(self):
        tracer = layertrace.Tracer()

        def leaf():
            time.sleep(0.01)

        leaf_w = tracer.span_wrapper("x.leaf", leaf)

        def parent():
            time.sleep(0.01)
            leaf_w()
            leaf_w()

        parent_w = tracer.span_wrapper("x.parent", parent)
        start = time.perf_counter()
        parent_w()
        summary = tracer.summary(time.perf_counter() - start)
        self.assertEqual(summary["calls"], {"x.leaf": 2, "x.parent": 1})
        self.assertAlmostEqual(sum(summary["self_s"].values()), summary["top_s"], places=9)
        self.assertGreater(summary["self_s"]["x.leaf"], 0.019)
        self.assertLess(summary["self_s"]["x.parent"], 0.015)

    def test_traced_worker_sees_calls_through_imported_names(self):
        with tempfile.TemporaryDirectory() as tmp:
            report, spans = os.path.join(tmp, "r.json"), os.path.join(tmp, "s.spans")
            argv = [sys.executable, run.WORKER, "sweep", report, "--spans", spans, "--",
                    "--out", os.path.join(tmp, "o.txt"), "verify", "theorem2", "--max-size", "2", "--max-word", "2"]
            subprocess.run(argv, env=run.env(), check=True, cwd=ROOT)
            with open(report, encoding="utf-8") as handle:
                trace = json.load(handle)["trace"]
            with open(spans, "rb") as handle:
                header = json.loads(handle.readline())
        # verify imports minor, lindstrom_minor and phi_polynomial by name
        for name in ("toeplitz.minor", "networks.lindstrom_minor", "phi.phi_polynomial", "multipoly.mul", "verify.theorem2"):
            self.assertGreater(trace["calls"].get(name, 0), 0, name)
        self.assertEqual(trace["missing"], [])
        self.assertEqual(header["spans"], trace["spans"])
        self.assertAlmostEqual(sum(trace["self_s"].values()), trace["top_s"], places=6)


class CompareTests(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def _paired(self, change, better="lower", bound=0.1):
        return compare.pair_verdict(list(zip(self.BASE, change)), better, bound)[0]

    def test_paired_verdicts(self):
        base = self.BASE
        self.assertEqual(self._paired([v * 1.2 for v in base]), "regression")
        self.assertEqual(self._paired([v * 0.8 for v in base]), "gain")
        self.assertEqual(self._paired([v * 1.01 for v in base]), "same")
        self.assertEqual(self._paired([v * 0.8 for v in base], better="higher"), "regression")
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        verdict = compare.pair_verdict(list(zip(noisy, [v * 1.05 for v in noisy])), "lower", 0.1)[0]
        self.assertEqual(verdict, "unresolved")

    def test_series_recorded_apart_get_no_verdict(self):
        base = series.summarize(self.BASE)
        self.assertEqual(compare.apart_verdict(base, series.summarize([v * 1.05 for v in self.BASE]), "lower", 0.1)[0], "within")
        self.assertEqual(compare.apart_verdict(base, series.summarize([v * 0.8 for v in self.BASE]), "lower", 0.1)[0], "beyond")


class SeriesTests(unittest.TestCase):
    def test_parent_runs_alternate_and_pair_by_seed(self):
        calls = []

        def fake_run(workload, seed, seconds, trace, root):
            calls.append((workload, seed, trace, root))
            metrics = {m: 1.0 + seed for m in ("setup_s", "cases_per_s", "case_tail_ms", "peak_rss_mb")}
            return {"correct": True, "attempted": 1, "failed": 0, "seed": seed, "metrics": metrics}

        real_run = series.run_once
        series.run_once = fake_run
        try:
            with tempfile.TemporaryDirectory() as tmp:
                parent = os.path.join(tmp, "parent")
                os.makedirs(os.path.join(parent, "src", "loopminors"))
                open(os.path.join(parent, "src", "loopminors", "__init__.py"), "w").close()
                out = os.path.join(tmp, "pairs.json")
                cwd = os.getcwd()
                os.chdir(ROOT)
                try:
                    series.main(["--out", out, "--parent", parent])
                finally:
                    os.chdir(cwd)
                base, change, paired = compare.load([out])
        finally:
            series.run_once = real_run
        self.assertTrue(paired)
        timed = [(wl, seed, root == parent) for wl, seed, trace, root in calls if not trace]
        sweep = [(seed, is_parent) for wl, seed, is_parent in timed if wl == "sweep"]
        self.assertEqual(sweep[:4], [(1, True), (1, False), (2, False), (2, True)])
        self.assertEqual(len(timed), 2 * series.RUNS * len(w.WORKLOADS))
        for side in (base, change):
            self.assertEqual([r["seed"] for r in side["workloads"]["fq"]["runs"]], list(range(1, series.RUNS + 1)))
        self.assertEqual(base["workloads"]["large"]["summary"], change["workloads"]["large"]["summary"])


class ResultLineTests(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fq", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_result_lines_name_every_benchmark_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fq", "--seed", "1", "--seconds", "2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            names = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)


if __name__ == "__main__":
    unittest.main()
