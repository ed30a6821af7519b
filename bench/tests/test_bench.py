"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest bench/tests
(or python3 -m unittest discover -s bench/tests).
"""
from __future__ import annotations

import collections
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import tsinorm  # noqa: E402
import tsinorm.cli  # noqa: E402,F401


class TestPercentiles(unittest.TestCase):
    def test_percentile_interpolates_order_statistics(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 90), 90.1)
        self.assertAlmostEqual(run.percentile([3, 1], 50), 2.0)

    def test_percentile_ignores_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile(values, 50), 3.0)

    def test_percentile_needs_two_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([1.0], 50)

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(110, 90), 11)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(100, 50), 50)

    def test_every_pass_leaves_ten_samples_beyond_p90(self):
        for workload in corpus.WORKLOADS:
            n = len(corpus.build(workload, 0))
            self.assertGreaterEqual(n, corpus.MIN_REQUESTS)
            self.assertGreaterEqual(run.samples_beyond(n, 90), 10)


class TestCorpus(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for workload in corpus.WORKLOADS:
            self.assertEqual(corpus.build(workload, 7), corpus.build(workload, 7))

    def test_seeds_differ(self):
        for workload in corpus.WORKLOADS:
            base = [r.argv for r in corpus.build(workload, 7)]
            self.assertNotEqual(base, [r.argv for r in corpus.build(workload, 8)])

    def test_class_mix_is_fixed(self):
        for workload in corpus.WORKLOADS:
            mixes = {tuple(sorted(collections.Counter(
                r.cls for r in corpus.build(workload, seed)).items()))
                for seed in range(5)}
            self.assertEqual(len(mixes), 1, workload)

    def test_checks_follow_their_certify(self):
        reqs = corpus.build("dual-certify", 3)
        for i, req in enumerate(reqs):
            if req.cls == "check":
                self.assertEqual(reqs[i - 1].doc, req.checks)
                self.assertTrue(reqs[i - 1].cls.startswith("certify"))

    def test_keys_hold_no_paths(self):
        for workload in corpus.WORKLOADS:
            for req in corpus.build(workload, 0):
                self.assertNotRegex(req.key, r"@DOC\d")

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            corpus.build("nope", 0)


class PassCase(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(prefix="bench-test-"))
        self.addCleanup(shutil.rmtree, self.workdir, ignore_errors=True)

    def make_pass(self, requests):
        return worker.Pass(tsinorm, requests, self.workdir)


class TestFailureCounting(PassCase):
    def requests(self):
        reqs = corpus.build("primal", 0)
        return [next(r for r in reqs if r.cls == cls) for cls in ("fj", "table")]

    def test_wrong_reference_counts_without_aborting(self):
        bench = self.make_pass(self.requests())
        responses, latencies, _ = worker.run_requests(bench)
        self.assertEqual(len(latencies), 2)
        good = worker.evaluate(bench, responses, {}, require_all=False)
        self.assertEqual(good["failed"], 0)
        references = dict(good["answers"])
        fj_key = bench.requests[0].key
        references[fj_key] = "12345/7"
        bad = worker.evaluate(bench, responses, references, require_all=False)
        self.assertEqual(bad["failed"], 1)
        self.assertEqual(bad["wrong_references"], 1)
        self.assertIn(fj_key, bad["failures"][0])

    def test_missing_reference_counts_when_required(self):
        bench = self.make_pass(self.requests())
        responses, _, _ = worker.run_requests(bench)
        result = worker.evaluate(bench, responses, {}, require_all=True)
        self.assertEqual(result["failed"], 2)

    def test_bad_exit_code_and_crash_count(self):
        bench = self.make_pass(self.requests())
        responses, _, _ = worker.run_requests(bench)
        responses = [(1, responses[0][1]), (None, "RuntimeError: boom")]
        result = worker.evaluate(bench, responses, {}, require_all=False)
        self.assertEqual(result["failed"], 2)

    def test_tampered_output_fails_its_check(self):
        bench = self.make_pass(self.requests())
        responses, _, _ = worker.run_requests(bench)
        code, out = responses[0]
        value, rest = out.split("\n", 1)
        responses[0] = (code, str(tsinorm.as_scalar(value) + 1) + "\n" + rest)
        result = worker.evaluate(bench, responses, {}, require_all=False)
        self.assertEqual(result["failed"], 1)


class TestTracing(PassCase):
    def test_traced_outputs_equal_untraced(self):
        reqs = corpus.build("dual-certify", 0)
        checked = next(r for r in reqs if r.cls == "check").checks
        small = next(r for r in reqs if r.cls == "certify-small")
        picked = [r for r in reqs if r is small or checked in (r.doc, r.checks)]
        plain = self.make_pass(picked)
        plain_out, _, _ = worker.run_requests(plain)
        plain_digests = worker.evaluate(plain, plain_out, {}, False)["digests"]
        tsinorm.clear_caches()

        tracer = tracing.Tracer()
        originals = (tsinorm.dualnorm.solve, tsinorm.cli.main, tsinorm.rho_chain)
        restore = tracing.install(tracer, tsinorm)
        try:
            self.assertIsNot(tsinorm.dualnorm.solve, originals[0])
            traced = worker.Pass(tsinorm, picked, self.workdir)
            traced_out, _, _ = worker.run_requests(traced, tracer)
        finally:
            restore()
        self.assertEqual((tsinorm.dualnorm.solve, tsinorm.cli.main, tsinorm.rho_chain),
                         originals)
        result = worker.evaluate(traced, traced_out, {}, False)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["digests"], plain_digests)

        layers = tracer.metrics(tsinorm)
        self.assertEqual(layers["cli.main.calls"], 3)
        self.assertEqual(layers["lp.hull.calls"], 2)
        self.assertEqual(layers["lp.ball.calls"], 2)
        self.assertGreater(layers["lp.hull.cols_max"], 0)
        self.assertEqual(layers["primal.fj_norm.self_ms"], 0.0)
        self.assertGreater(layers["dualnorm.certificate_io_ms"], 0.0)
        self.assertEqual(set(layers) | {"trace.overhead_ratio"},
                         {name for name, _, _ in tracing.LAYER_METRICS})

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.span("inner", lambda: sum(range(20000)))
        outer = tracer.span("outer", lambda: inner() + inner())
        outer()
        spans = {s[1]: s for s in tracer.spans}
        inner_total = sum(s[3] - s[2] for s in tracer.spans if s[1] == "inner")
        _, _, start, end, own, parent = spans["outer"]
        self.assertEqual(parent, -1)
        self.assertLessEqual(own, end - start - inner_total)
        self.assertEqual(spans["inner"][5], 0)

    def test_memo_entries_counts_nested_tables(self):
        module = type(sys)("fake")
        module._A_MEMO = {1: 2, 3: 4}
        module._B_MEMOS = {"k": {1: 1}, "j": {2: 2, 3: 3}}
        module._CACHE = {}
        module.PUBLIC_MEMO = {1: 1}
        self.assertEqual(tracing.memo_entries(module), 5)


class TestBenchmarkJson(unittest.TestCase):
    def test_metrics_match_the_runner(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in doc["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(corpus.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
