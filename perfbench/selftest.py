"""Self-tests of the benchmark's own pieces.

    python3 perfbench/selftest.py

Covers the percentile with its sample count, self-time subtraction on
synthetic nested spans (with a fake clock), generator determinism, model
specs passing the program's load-time check, and the checker rejecting
deliberately corrupted outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent


class PercentileTest(unittest.TestCase):
    def test_interpolates_and_counts(self):
        value, n = run.percentile([float(i) for i in range(1, 101)], 0.9)
        self.assertAlmostEqual(value, 90.1, places=9)
        self.assertEqual(n, 100)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 0.5), (2.5, 4))
        self.assertEqual(run.percentile([7.0], 0.9), (7.0, 1))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.saved = tr.perf_counter
        tr.perf_counter = self.clock

    def tearDown(self):
        tr.perf_counter = self.saved

    def test_nested_spans_and_generators(self):
        t = tr.Tracer()
        clock = self.clock

        def leaf():
            clock.advance(2)

        def items():
            for i in range(3):
                clock.advance(1)  # inside next(): counted for the generator
                yield i

        leaf_t = t._wrap_spanned("leaf", leaf, None)
        items_t = t._wrap_spanned("items", items, None)

        def inner():
            clock.advance(1)
            leaf_t()
            clock.advance(1)

        inner_t = t._wrap_spanned("inner", inner, None)

        def outer():
            clock.advance(3)
            inner_t()
            inner_t()
            for _ in items_t():
                clock.advance(10)  # consumer time between next() calls

        t._wrap_spanned("outer", outer, None)()
        s = tr.summarize(t.spans)
        self.assertEqual(s["leaf"]["calls"], 2)
        self.assertEqual(s["leaf"]["self_s"], 4)
        self.assertEqual(s["inner"]["busy_s"], 8)
        self.assertEqual(s["inner"]["self_s"], 4)
        self.assertEqual(s["items"]["items"], 3)
        self.assertEqual(s["items"]["busy_s"], 3)
        self.assertEqual(s["items"]["self_s"], 3)
        self.assertEqual(s["outer"]["busy_s"], 3 + 8 + 3 + 30)
        self.assertEqual(s["outer"]["self_s"], 33)
        self.assertEqual(s["outer"]["reaching"]["inner"], 1)
        self.assertEqual(s["inner"]["reaching"]["leaf"], 2)

    def test_error_is_recorded(self):
        t = tr.Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            t._wrap_spanned("boom", boom, None)()
        self.assertEqual(tr.summarize(t.spans)["boom"]["errors"]["KeyError"], 1)


class GeneratorTest(unittest.TestCase):
    def _generate(self, workload, seed):
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path("bench-run")
            (Path(tmp) / run_dir).mkdir()
            reqs, digest = workloads.generate(workload, seed, 1, Path(tmp), run_dir)
            files = {p.name: p.read_bytes() for p in sorted((Path(tmp) / run_dir).iterdir())}
        return [r["argv"] for r in reqs], files, digest

    def test_same_seed_same_bytes(self):
        for workload in workloads.GENERATORS:
            first, second = self._generate(workload, 5), self._generate(workload, 5)
            self.assertEqual(first, second)
            self.assertNotEqual(first[2], self._generate(workload, 6)[2])
            self.assertGreaterEqual(len(first[0]), workloads.MIN_REQUESTS)

    def test_model_specs_pass_the_load_check(self):
        sys.path.insert(0, str(ROOT / "src"))
        from freeprob import cumulants, models

        rng = workloads.random.Random(3)
        for order in (4, 5, 6):
            spec = workloads.model_spec(rng, order, "t")
            model = models.model_from_spec(json.loads(json.dumps(spec)))  # runs the load check
            moments = [sum(Fraction(a["x"]) ** n * Fraction(a["w"])
                           for a in spec["aa_star_measure"]["atoms"]) for n in range(1, order + 1)]
            self.assertEqual(list(model.alpha), cumulants.alpha_from_aa_star_moments(moments))


class CheckerTest(unittest.TestCase):
    def test_count_identities(self):
        req = {"kind": "count", "ref": {"what": "nc", "n": 7}}
        self.assertEqual(checks.check(req, "429\n"), (None, {}))
        self.assertEqual(checks.check(req, "430\n")[0], "count-nc")
        req = {"kind": "count", "ref": {"what": "psd", "n": 3}}
        self.assertEqual(checks.check(req, "91648\n"), (None, {}))
        self.assertEqual(checks.check(req, "91647\n")[0], "count-psd")
        req = {"kind": "count", "ref": {"what": "tilings", "n": 6}}
        self.assertEqual(checks.check(req, "1428\n"), (None, {}))

    def test_exact_moments(self):
        lam = Fraction(7, 5)
        exact = checks.circular_negative_moments(lam, 3)
        self.assertEqual(exact, checks.psd_negative_moments([Fraction(1)] + [Fraction(0)] * 3, lam, 3))
        self.assertEqual(exact[0], 1 / (lam * lam - 1))  # m_-2 = 1/(lam^2 - 1)
        rows = [f"{j}\tm_-{2 * j + 2}\t{float(v)!r}\t1.0" for j, v in enumerate(exact)]
        text = "k\tm_{-2k-2}\tlagrange\tasymptotic\n" + "\n".join(rows) + "\n"
        req = {"kind": "lagrange", "ref": {"lam": "7/5", "k": 3, "alphas": None}}
        self.assertEqual(checks.check(req, text), (None, {}))
        corrupted = text.replace(repr(float(exact[3])), repr(float(exact[3]) * (1 + 2**-50)))
        self.assertEqual(checks.check(req, corrupted)[0], "lagrange-psd-identity")
        self.assertEqual(checks.check(req, "garbage")[0], "unparsable-output:OutputError")

    def test_density_mass(self):
        lo, hi = checks.support_endpoints(2.0)
        nodes, _ = checks.chebyshev_rule(lo, hi, 40)
        flat = "t,rho\n" + "".join(f"{t!r},{1.0 / (hi - lo)!r}\n" for t in nodes)
        req = {"kind": "density", "ref": {"lam": "2", "points": 40, "inverse": False}}
        broken, errs = checks.check(req, flat)
        self.assertIsNone(broken)
        self.assertEqual(checks.out_of_tolerance(errs), [])
        heavy = "t,rho\n" + "".join(f"{t!r},{1.1 / (hi - lo)!r}\n" for t in nodes)
        self.assertEqual(checks.out_of_tolerance(checks.check(req, heavy)[1]), ["mass"])

    def test_circular_norm(self):
        lam = 1.5
        good = f"lambda,norm,asymptotic,ratio,route\n{lam},{checks.circular_norm(lam)!r},1,1,series-exact\n"
        req = {"kind": "norm", "ref": {"model": "circular", "steps": 1}}
        self.assertEqual(checks.out_of_tolerance(checks.check(req, good)[1]), [])
        bad = good.replace(repr(checks.circular_norm(lam)), repr(checks.circular_norm(lam) * 1.001))
        self.assertEqual(checks.out_of_tolerance(checks.check(req, bad)[1]), ["norm"])


if __name__ == "__main__":
    unittest.main()
