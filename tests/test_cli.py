"""CLI behaviour: outputs, determinism, exit codes."""

import json
import math
import os
import random
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freeprob
from freeprob import cli
from freeprob import circular as ci
from freeprob import cumulants as cu
from freeprob import models
from freeprob import noncrossing as nc
from freeprob import oracles
from freeprob import psd
from freeprob import series as se


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal_text(x: Fraction) -> str:
    """x correctly rounded to 17 significant digits, half to even, as .17g writes it."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 17, ROUND_HALF_EVEN
        return format((Decimal(x.numerator) / Decimal(x.denominator)).normalize(), ".17g")


def exact_text(x: Fraction) -> str:
    """The printed text of an exact value: .17g of its float, or past the float
    range its correctly rounded 17 digits."""
    try:
        return format(float(x), ".17g")
    except OverflowError:
        return decimal_text(x)


class TestDensityCommand:
    def test_csv_shape_and_mass(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(
            capsys, "density", "--lambda", "2", "--points", "512", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,rho"
        assert len(lines) == 513
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        # quadrature over the emitted rows: the grid is Chebyshev-midpoint
        # (documented), so theta_i = (i+1/2) pi/N and the rows determine the
        # interval; rebuilding the sin-weights recovers the mass to 1e-6
        n = data.shape[0]
        theta = (np.arange(n) + 0.5) * np.pi / n
        # solve t = mid - hw cos(theta) for (mid, hw) from the emitted rows
        coeffs = np.linalg.lstsq(
            np.stack([np.ones(n), -np.cos(theta)], axis=1), data[:, 0], rcond=None
        )[0]
        mid, hw = coeffs
        weights = hw * np.sin(theta) * np.pi / n
        assert float(np.sum(weights * data[:, 1])) == pytest.approx(1.0, abs=1e-6)
        # a rule-agnostic consumer using the plain trapezoid rule still lands
        # within the sqrt-edge limited accuracy
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=5e-4)

    def test_support_containment(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "density", "--lambda", "10", "--out", str(out))
        assert code == 0
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        sm, sp = ci.support_endpoints(10.0)
        assert data[0, 0] >= sm and data[-1, 0] <= sp

    def test_lambda_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, "density", "--lambda", "1")
        assert code == 2
        assert "lambda" in err

    def test_zero_points_rejected(self, capsys):
        code, out, err = run_cli(capsys, "density", "--lambda", "2", "--points", "0")
        assert code == 2
        assert "points" in err
        assert out == ""

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "density", "--lambda", "1.5", "--points", "128", "--out", str(a))
        run_cli(capsys, "density", "--lambda", "1.5", "--points", "128", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_inverse_density(self, tmp_path, capsys):
        out = tmp_path / "inv.csv"
        code, _, _ = run_cli(
            capsys, "density", "--lambda", "2", "--inverse", "--out", str(out)
        )
        assert code == 0
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        sm, sp = ci.support_endpoints(2.0)
        assert data[0, 0] >= sp**-0.5
        assert data[-1, 0] <= sm**-0.5


class TestMomentsCommand:
    def test_closed_form_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--model", "circular", "--lambda", "2", "--k", "1",
            "--route", "lagrange",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[1].startswith("0\tm_-2")
        assert float(rows[1].split("\t")[2]) == pytest.approx(1 / 3)
        assert float(rows[2].split("\t")[2]) == pytest.approx(16 / 81)

    def test_all_routes_zero_discrepancy(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--model", "circular", "--lambda", "1.5", "--k", "2",
            "--route", "all", "--points", "1024",
        )
        assert code == 0
        lines = out.strip().splitlines()
        exact_line = next(l for l in lines if l.startswith("exact-route discrepancy"))
        assert exact_line.split(":")[1].strip() == "0"
        quad_line = next(l for l in lines if l.startswith("quadrature"))
        assert float(quad_line.split(":")[1]) < 1e-4

    def test_quadrature_needs_circular(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--model", "two-atom", "--lambda", "1.5",
            "--route", "quadrature",
        )
        assert code == 2

    def test_quadrature_route_ignores_model_name(self, tmp_path, capsys):
        path = tmp_path / "named-circular.json"
        path.write_text(json.dumps(
            {"name": "circular", "alpha": ["1", "1"], "mu_even_cumulants": ["1", "1"]}
        ))
        code, out, err = run_cli(
            capsys, "moments", "--model", str(path), "--lambda", "2", "--k", "1",
            "--route", "quadrature",
        )
        assert code == 2
        assert "quadrature" in err and out == ""

    def test_all_routes_without_closed_form_density(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--model", "two-atom", "--lambda", "3/2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[2:] == ["lagrange", "psd", "asymptotic"]
        assert lines[-1] == "exact-route discrepancy: 0"

    @pytest.mark.parametrize("route, k", [("lagrange", "-1"), ("psd", "-2")])
    def test_negative_k_rejected(self, capsys, route, k):
        code, out, err = run_cli(
            capsys, "moments", "--route", route, "--lambda", "3/2", "--k", k,
        )
        assert code == 2
        assert ">= 0" in err
        assert out == ""

    def test_lagrange_route_keeps_the_oracle_off_the_hot_path(self, tmp_path, capsys, monkeypatch):
        # an atomic a a* law (atoms 1 -/+ 3/16, 1 -/+ 5/16 and 1), written the way
        # the benchmark writes its model files
        atoms = [(Fraction(1), Fraction(1, 4))] + [
            (1 + s * d, Fraction(3, 16)) for d in (Fraction(3, 16), Fraction(5, 16)) for s in (-1, 1)
        ]
        moments = [sum(w * x**n for x, w in atoms) for n in range(1, 7)]
        alpha = cu.alpha_from_aa_star_moments(moments)
        path = tmp_path / "bench-style.json"
        path.write_text(json.dumps({
            "name": "bench-style",
            "alpha": [str(a) for a in alpha],
            "mu_even_cumulants": [str(a) for a in alpha],
            "aa_star_measure": {"atoms": [{"x": float(x), "w": float(w)} for x, w in atoms]},
        }))
        cases = [("circular", Fraction(1234, 567), 20, [Fraction(1)]),
                 (str(path), Fraction(7, 5), 5, alpha)]
        expected = []
        for _, lam, k, kappas in cases:
            g = oracles.lagrange_invert(oracles.rescaled_inverse_cauchy(kappas, lam**2, 2 * k + 1))
            m = lam**2 - 1
            expected.append([format(float(g.coefficient(2 * j + 1) / m ** (3 * j + 1)), ".17g")
                             for j in range(k + 1)])

        def refuse(*_args, **_kwargs):
            raise AssertionError("Lagrange inversion on the hot path")

        monkeypatch.setattr(oracles, "lagrange_invert", refuse)
        monkeypatch.setattr(oracles, "rescaled_inverse_cauchy", refuse)
        monkeypatch.setattr(oracles.FormalSeries, "reciprocal", refuse)
        for (model, lam, k, _), want in zip(cases, expected):
            code, out, _ = run_cli(
                capsys, "moments", "--model", model, "--route", "lagrange",
                "--lambda", str(lam), "--k", str(k),
            )
            assert code == 0
            assert [row.split("\t")[2] for row in out.strip().splitlines()[1:]] == want

    @pytest.mark.parametrize("k", [5, 8])  # 8 reads alpha_9, past any stored order
    def test_psd_route_above_the_enumeration_bound(self, capsys, k):
        rows = {}
        for route in ("psd", "lagrange"):
            code, out, _ = run_cli(
                capsys, "moments", "--route", route, "--lambda", "3/2", "--k", str(k),
            )
            assert code == 0
            rows[route] = out.strip().splitlines()
        assert rows["psd"][0].split("\t")[2] == "psd"
        assert rows["psd"][1:] == rows["lagrange"][1:]

    def test_psd_bound_refused_before_any_route_runs(self, capsys, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a route ran before the psd bound was checked")

        monkeypatch.setattr(se, "solve_inverse_equation", refuse)
        monkeypatch.setattr(se, "_circular_pairs", refuse)
        monkeypatch.setattr(ci, "density", refuse)
        code, out, err = run_cli(
            capsys, "moments", "--route", "all", "--lambda", "3/2", "--k", "400",
        )
        assert code == 2 and out == ""
        assert f"psd route bound is k <= {psd.PSD_MOMENTS_K_BOUND}" in err

    def test_circular_route_1_runs_the_recurrence(self, capsys, monkeypatch):
        from freeprob import verify

        want = verify._by_inverse_equation(models.circular_model(), 200, Fraction(237, 223))

        def refuse(*_args, **_kwargs):
            raise AssertionError("the convolution solve ran on circular")

        monkeypatch.setattr(se, "solve_inverse_equation", refuse)
        code, out, err = run_cli(capsys, "moments", "--model", "circular", "--route", "lagrange",
                                 "--k", "200", "--lambda", "237/223")
        assert code == 0 and err == ""
        assert [row.split("\t")[2] for row in out.strip().splitlines()[1:]] == list(map(exact_text, want))
        assert want[-1] > sys.float_info.max  # the last rows are past the float range

    def test_atomic_builtin_past_its_stored_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--model", "two-atom", "--route", "lagrange",
                               "--lambda", "3/2", "--k", "100")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 102 and rows[-1].startswith("100\tm_-202\t")
        assert all(0 < float(row.split("\t")[2]) < math.inf for row in rows[1:])

    def test_psd_route_at_its_own_bound(self, capsys):
        k = psd.PSD_MOMENTS_K_BOUND
        assert k > psd.PROFILE_K_BOUND
        code, out, _ = run_cli(
            capsys, "moments", "--model", "two-atom", "--route", "all", "--lambda", "3/2",
            "--k", str(k),
        )
        assert code == 0
        assert out.splitlines()[-1] == "exact-route discrepancy: 0"
        assert len(out.splitlines()) == k + 3
        code, out, err = run_cli(
            capsys, "moments", "--model", "two-atom", "--route", "psd", "--lambda", "3/2",
            "--k", str(k + 1),
        )
        assert code == 2 and out == ""
        assert f"psd route bound is k <= {k}" in err

    def test_float_columns_are_the_fraction_api_floats(self, capsys):
        rng = random.Random(27)
        cases = [("circular", rng.randrange(41)) for _ in range(12)]
        cases += [("two-atom", rng.randrange(8)) for _ in range(8)]
        for name, k in cases:
            q = rng.randrange(1, 10 ** rng.randrange(1, 7))
            lam = Fraction(q + rng.randrange(max(1, q // 8), 2 * q + 1), q)
            code, out, _ = run_cli(
                capsys, "moments", "--model", name, "--route", "lagrange",
                "--lambda", str(lam), "--k", str(k),
            )
            assert code == 0
            model = models.builtin_model(name)
            want = [[format(float(x), ".17g"),
                     format(float(se.asymptotic_negative_moment(model.v, j, lam)), ".17g")]
                    for j, x in enumerate(se.negative_moments_lagrange(model, k, lam=lam))]
            assert [row.split("\t")[2:] for row in out.strip().splitlines()[1:]] == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**40), st.integers(0, 700), st.integers(1, 10**40), st.integers(0, 700),
           st.sampled_from([(1, 1), (-1, 1), (1, -1)]))
    @example(100000000000000005, 401, 1, 0, (1, 1))  # a tie: half to even rounds down
    @example(100000000000000015, 401, 1, 0, (1, 1))  # a tie: half to even rounds up
    @example(99999999999999999500, 400, 1, 0, (1, 1))  # rounds up to a new decade
    @example(1, 0, 3, 330, (-1, 1))  # below the float range
    def test_exact_text_against_decimal(self, n, n_exp, d, d_exp, signs):
        n, d = signs[0] * n * 10**n_exp, signs[1] * d * 10**d_exp
        try:
            x = n / d
        except OverflowError:
            x = math.inf
        if sys.float_info.min <= abs(x) < math.inf:
            assert cli._fmt_exact(n, d) == format(n / d, ".17g")
        else:
            assert cli._fmt_exact(n, d) == decimal_text(Fraction(n, d))

    @pytest.mark.parametrize("lam, k, route", [("1.001", 35, "lagrange"), ("1.001", 60, "lagrange"),
                                               ("1.0000000001", 11, "psd")])
    def test_exact_columns_past_the_float_range(self, capsys, lam, k, route):
        code, out, err = run_cli(capsys, "moments", "--route", route, "--lambda", lam, "--k", str(k))
        assert code == 0 and err == ""
        lam = Fraction(lam)
        want = [[exact_text(x), exact_text(se.asymptotic_negative_moment(1, j, lam))]
                for j, x in enumerate(se.negative_moments_lagrange(models.circular_model(), k, lam=lam))]
        assert [row.split("\t")[2:] for row in out.strip().splitlines()[1:]] == want
        assert float(want[-1][0]) == math.inf  # the last rows are past the float range

    def test_quadrature_refused_when_the_grid_misses_the_inner_lobe(self, capsys):
        needed = ci.quadrature_points_needed(1.001)
        assert needed == 604292  # 8 sqrt((s+ - s-) / s-): the 2048 default is short by 300x
        code, out, err = run_cli(capsys, "moments", "--lambda", "1.001", "--k", "3",
                                 "--route", "quadrature")
        assert code == 2 and out == ""
        assert f"needs --points >= {needed}" in err
        code, out, err = run_cli(capsys, "moments", "--lambda", "1.001", "--k", "3")
        assert code == 0
        assert out.splitlines()[0].split("\t") == ["k", "m_{-2k-2}", "lagrange", "psd", "asymptotic"]
        assert "quadrature" not in out
        assert "quadrature column omitted: --points 2048" in err

    def test_quadrature_bound_keeps_the_grids_that_resolve(self, capsys):
        # 80 points reach lam = 3/2, the closest the benchmark's quadrature comes to 1
        assert ci.quadrature_points_needed(1.5) == 80
        code, out, _ = run_cli(capsys, "moments", "--lambda", "3/2", "--k", "6",
                               "--route", "quadrature", "--points", "80")
        assert code == 0
        exact = se.negative_moments_lagrange(models.circular_model(), 6, lam=Fraction(3, 2))
        quad = [float(row.split("\t")[2]) for row in out.strip().splitlines()[1:]]
        assert quad == pytest.approx([float(x) for x in exact], rel=1.1e-7)
        code, _, err = run_cli(capsys, "moments", "--lambda", "3/2", "--k", "6",
                               "--route", "quadrature", "--points", "79")
        assert code == 2 and "needs --points >= 80" in err

    def test_quadrature_bound_grows_with_k(self, capsys):
        # at k = 40 the 80 points that serve k <= 6 at lam = 3/2 are 4.5e-2 off
        assert ci.quadrature_points_needed(1.5, 40) == 156
        code, out, err = run_cli(capsys, "moments", "--lambda", "3/2", "--k", "40",
                                 "--route", "quadrature", "--points", "80")
        assert code == 2 and out == ""
        assert "needs --points >= 156 for k = 40" in err
        code, out, _ = run_cli(capsys, "moments", "--lambda", "3/2", "--k", "40",
                               "--route", "quadrature", "--points", "156")
        assert code == 0
        exact = se.negative_moments_lagrange(models.circular_model(), 40, lam=Fraction(3, 2))
        quad = [float(row.split("\t")[2]) for row in out.strip().splitlines()[1:]]
        assert quad == pytest.approx([float(x) for x in exact], rel=1.1e-7)

    def test_quadrature_zero_points_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--lambda", "2", "--route", "quadrature", "--points", "0",
        )
        assert code == 2
        assert "points" in err
        assert out == ""


class TestFloatRange:
    """A floating-point route refuses a lambda that floats cannot resolve
    (exit 2, naming lambda and the route) instead of crashing or printing a
    nan or an inf; the exact routes carry on past the float range."""

    @pytest.mark.parametrize("argv, lam, route", [
        (["norm", "--lambda-start", "1e153", "--lambda-end", "1e160", "--steps", "2"], "1e+160", "norm"),
        (["norm", "--lambda-start", "1.1", "--lambda-end", "1e400", "--steps", "3"], "1e400", "norm"),
        (["density", "--lambda", "1e60", "--points", "8"], "1e60", "density"),
        (["density", "--lambda", "1e20", "--points", "8"], "1e20", "density"),
        (["norm", "--lambda-start", "1.00000000000000001", "--lambda-end", "2", "--steps", "3"],
         "1.00000000000000001", "norm"),
    ], ids=["norm-nan", "norm-overflow", "density-overflow", "density-support-unresolved",
            "norm-rounds-to-one"])
    def test_refused_naming_lambda_and_route(self, capsys, argv, lam, route):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"floating-point {route} route cannot resolve lambda = {lam}" in err

    def test_overflowing_fprime_is_not_blamed_on_truncation(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--model", "two-atom", "--lambda-start", "1e100",
                                 "--lambda-end", "1e150", "--steps", "2")
        assert (code, out) == (2, "")
        assert "floating-point norm route cannot resolve lambda = 1e+100: a float overflows" in err
        assert "truncation" not in err

    def test_exact_routes_keep_working(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--lambda", "1e400", "--k", "2", "--route", "lagrange")
        assert code == 0
        assert out.splitlines()[1].split("\t")[2] == "1e-800"
        # --route all leaves the quadrature column out and says why
        code, out, err = run_cli(capsys, "moments", "--lambda", "1e400", "--k", "2")
        assert code == 0
        assert out.splitlines()[0].split("\t") == ["k", "m_{-2k-2}", "lagrange", "psd", "asymptotic"]
        assert "quadrature column omitted: the floating-point quadrature route cannot resolve " \
               "lambda = 1e400" in err


class TestNormCommand:
    def test_sweep_ratio_column(self, tmp_path, capsys):
        out = tmp_path / "norm.csv"
        code, _, _ = run_cli(
            capsys, "norm", "--model", "circular", "--lambda-start", "1.001",
            "--lambda-end", "2", "--steps", "30", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,norm,asymptotic,ratio,route"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert abs(float(first[3]) - 1.0) < 1e-2  # ratio near 1 at lam = 1.001
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(2.0)
        assert float(last[1]) == pytest.approx(ci.inf_spec(2.0) ** -0.5, rel=1e-9)

    def test_haar_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "norm", "--model", "haar", "--lambda-start", "1.1",
            "--lambda-end", "2", "--steps", "5",
        )
        assert code == 2
        assert "v = 0" in err

    def test_negative_v_named(self, tmp_path, capsys):
        # alpha_2 = -3 gives v = -2, and phi((aa*)^2) = -1: no operator's law
        path = tmp_path / "negative-v.json"
        path.write_text(json.dumps(
            {"name": "negative-v", "alpha": ["1", "-3", "5", "-2", "1", "0", "0", "0"]}))
        code, out, err = run_cli(
            capsys, "norm", "--model", str(path), "--lambda-start", "1.1",
            "--lambda-end", "2", "--steps", "5",
        )
        assert code == 2 and out == ""
        assert "v = -2 < 0" in err and "no operator has a negative v" in err
        assert "v = 0" not in err and "Haar" not in err

    def test_model_without_alpha_2_refused(self, tmp_path, capsys):
        # the atoms give phi((aa*)^2) = 3, but v is alpha_2 + 1, which the
        # model does not supply: norm refuses as moments does
        path = tmp_path / "alpha-1-only.json"
        path.write_text(json.dumps({"name": "alpha-1-only", "alpha": ["1"], "aa_star_measure": {
            "atoms": [{"x": 0.0, "w": 2 / 3}, {"x": 3.0, "w": 1 / 3}]}}))
        for argv in (["norm", "--lambda-start", "1.01", "--lambda-end", "1.1", "--steps", "2"],
                     ["moments", "--lambda", "1.01", "--k", "1", "--route", "lagrange"]):
            code, out, err = run_cli(capsys, argv[0], "--model", str(path), *argv[1:])
            assert (code, out) == (2, "")
            assert "alpha_2 not supplied (order 1)" in err

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "norm", "--model", "circular", "--lambda-start", "2",
            "--lambda-end", "1.5", "--steps", "5",
        )
        assert code == 2


class TestCountCommand:
    def test_nc(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--what", "nc", "--n", "6")
        assert code == 0 and out.strip() == "132"

    def test_tilings(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--what", "tilings", "--k", "3")
        assert code == 0 and out.strip() == "12"

    def test_psd_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--what", "psd", "--k", "1", "--profile", "4,0"
        )
        assert code == 0 and out.strip() == "1"

    def test_nc_at_the_enumeration_bound(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--what", "nc", "--n", "18")
        assert code == 0 and out.strip() == "477638700"

    def test_psd_beyond_the_enumeration_bound(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--what", "psd", "--k", "4")
        assert code == 0 and out.strip() == "6550528"

    @pytest.mark.parametrize("command", [
        ("count", "--what", "psd"),
        ("moments", "--route", "psd", "--lambda", "3/2"),
    ])
    def test_psd_above_the_profile_bound(self, capsys, command):
        # the moments route reads no profiles and has its own, higher bound
        bound = psd.PSD_MOMENTS_K_BOUND if command[0] == "moments" else psd.PROFILE_K_BOUND
        code, out, err = run_cli(capsys, *command, "--k", str(bound + 1))
        assert code == 2
        assert "bound" in err and out == ""

    def test_bound_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "count", "--what", "nc", "--n", str(nc.COUNT_BOUND + 1))
        assert code == 2

    @pytest.mark.parametrize("what, flag, bound, count", [
        ("nc", "--n", nc.COUNT_BOUND, nc.catalan),
        ("tilings", "--k", psd.QUADRANGULATION_COUNT_K_BOUND, lambda k: nc.fuss_catalan(2, k)),
    ])
    def test_closed_form_count_bound(self, capsys, what, flag, bound, count):
        # each bound keeps the printed integer under the interpreter's
        # default 4300-digit int -> str limit
        code, out, _ = run_cli(capsys, "count", "--what", what, flag, str(bound))
        assert code == 0 and out == f"{count(bound)}\n"
        code, out, err = run_cli(capsys, "count", "--what", what, flag, str(bound + 1))
        assert (code, out) == (2, "") and "count bound" in err

    def test_missing_argument(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--what", "nc")
        assert code == 2


class TestVerifyCommand:
    # one cheap check that the corrupted fuss_catalan(2, 3) below breaks
    @pytest.fixture(autouse=True)
    def one_check(self, monkeypatch):
        from freeprob import verify

        check = next(c for c in verify._REGISTRY if c.name == "psd-quadrangulation-counts")
        monkeypatch.setattr(verify, "_REGISTRY", [check])

    def test_combinatorial_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        assert [c["name"] for c in report["checks"]] == ["psd-quadrangulation-counts"]
        assert all("residual" in c for c in report["checks"])

    def test_corruption_fails_suite(self, capsys, monkeypatch):
        import freeprob.noncrossing

        original = freeprob.noncrossing.fuss_catalan

        def corrupted(p, k):
            value = original(p, k)
            return value + 1 if (p, k) == (2, 3) else value

        monkeypatch.setattr(freeprob.noncrossing, "fuss_catalan", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial")
        assert code == 1
        report = json.loads(out)
        assert report["failed"] >= 1

    def test_usage_error_on_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_reentrant_with_one_parser(self, capsys):
        moments = ["moments", "--lambda", "3/2", "--k", "4", "--route", "all"]
        first = run_cli(capsys, *moments)
        with pytest.raises(SystemExit) as exc:
            cli.main(["moments", "--lambda", "2", "--route", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "moments", "--lambda", "1")
        assert (code, out) == (2, "") and "lambda must exceed 1" in err
        assert run_cli(capsys, "count", "--what", "nc", "--n", "6")[:2] == (0, "132\n")
        again = run_cli(capsys, *moments)
        assert first[0] == 0 and first[1] and first == again
        assert cli.build_parser() is cli.build_parser()

    def test_parser_is_not_built_at_import(self):
        src = str(Path(freeprob.__file__).resolve().parent.parent)
        probe = "import freeprob.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout == "0\n"

    def test_numpy_loads_only_for_verify(self, tmp_path):
        two_atom = models.two_atom_model()
        path = tmp_path / "two-atom.json"
        path.write_text(json.dumps({
            "name": "json-two-atom",
            "alpha": [str(a) for a in two_atom.alpha],
            "aa_star_measure": {"atoms": [{"x": x, "w": w} for x, w in two_atom.aa_star_measure.atoms]},
        }))
        runs = [
            ["density", "--lambda", "2.3", "--points", "40"],
            ["density", "--lambda", "1.5", "--points", "40", "--inverse"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "lagrange"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "psd"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "quadrature", "--points", "80"],
            ["norm", "--lambda-start", "1.01", "--lambda-end", "3", "--steps", "5"],
            ["norm", "--model", str(path), "--lambda-start", "1.05", "--lambda-end", "1.2", "--steps", "3"],
            ["norm", "--model", "two-atom", "--lambda-start", "1.05", "--lambda-end", "1.2", "--steps", "3"],
            ["moments", "--lambda", "7/5", "--k", "5", "--route", "all", "--points", "80"],
            ["moments", "--model", str(path), "--lambda", "7/5", "--k", "5", "--route", "all"],
            ["count", "--what", "nc", "--n", "9"],
            ["count", "--what", "tilings", "--k", "4"],
            ["count", "--what", "psd", "--k", "2"],
            ["count", "--what", "psd", "--k", "3", "--profile", "10,0,0,0"],
        ]
        # no request needs numpy, dataclasses (and the inspect it brings), the
        # symbolic ring, the verify registry or the module of any oracle it
        # holds the package against; json loads only for a model file
        from freeprob import verify

        oracle_modules = sorted({getattr(owner, name).__module__ for owner, name in verify.ORACLES})
        unneeded = ("numpy", "dataclasses", "inspect", "freeprob.ring", "freeprob.verify",
                    "freeprob.oracles", *oracle_modules)
        probe = (
            "import contextlib, io, sys\n"
            "import freeprob.cli\n"
            "json_at_import = 'json' in sys.modules\n"
            f"records = [[None, [name for name in {unneeded!r} if name in sys.modules]]]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = freeprob.cli.main(argv)\n"
            f"    records.append([code, [name for name in {unneeded!r} if name in sys.modules]])\n"
            "import freeprob, json\n"
            "print(json.dumps([json_at_import, records, freeprob.ring.Poly.__qualname__]))\n"
        )
        src = str(Path(freeprob.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        json_at_import, records, poly = json.loads(done.stdout)
        assert not json_at_import
        assert records == [[None, []]] + [[0, []]] * len(runs)  # right after the import, then per run
        assert poly == "Poly"  # freeprob.ring still resolves as an attribute of the package

    def test_oracles_stay_off_every_request(self, tmp_path):
        # the same exit codes and stdout with every verify.ORACLES entry patched
        # to raise, each run in a fresh process so that no cache hides a call
        two_atom = models.two_atom_model()
        path = tmp_path / "two-atom.json"
        path.write_text(json.dumps({
            "name": "json-two-atom",
            "alpha": [str(a) for a in two_atom.alpha],
            "aa_star_measure": {"atoms": [{"x": x, "w": w} for x, w in two_atom.aa_star_measure.atoms]},
        }))
        runs = [
            ["density", "--lambda", "2.3", "--points", "40"],
            ["density", "--lambda", "1.5", "--points", "40", "--inverse"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "lagrange"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "psd"],
            ["moments", "--lambda", "3/2", "--k", "4", "--route", "quadrature", "--points", "80"],
            ["moments", "--lambda", "7/5", "--k", "5", "--route", "all", "--points", "80"],
            ["moments", "--model", str(path), "--lambda", "7/5", "--k", "5", "--route", "all"],
            ["norm", "--lambda-start", "1.01", "--lambda-end", "3", "--steps", "5"],
            ["norm", "--model", "two-atom", "--lambda-start", "1.05", "--lambda-end", "1.2", "--steps", "3"],
            ["norm", "--model", str(path), "--lambda-start", "1.05", "--lambda-end", "1.2", "--steps", "3"],
            ["count", "--what", "nc", "--n", "9"],
            ["count", "--what", "psd", "--k", "3"],
            ["count", "--what", "psd", "--k", "3", "--profile", "10,0,0,0"],
            ["count", "--what", "tilings", "--k", "4"],
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "from freeprob import verify\n"
            "from freeprob.cli import main\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('an oracle ran for a CLI request')\n"
            "if sys.argv[1] == 'fenced':\n"
            "    for owner, name in verify.ORACLES:\n"
            "        setattr(owner, name, refuse)\n"
            "records = []\n"
            f"for argv in {runs!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        records.append([main(argv), out.getvalue()])\n"
            "print(json.dumps(records))\n"
        )
        src = str(Path(freeprob.__file__).resolve().parent.parent)
        records = {}
        for mode in ("open", "fenced"):
            done = subprocess.run([sys.executable, "-c", probe, mode], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
            records[mode] = json.loads(done.stdout)
        assert [code for code, _ in records["open"]] == [0] * len(runs)
        assert all(out for _, out in records["open"])
        assert records["fenced"] == records["open"]
