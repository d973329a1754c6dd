"""CLI behaviour: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from freeprob import cli
from freeprob import circular as ci


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_quadrature_zero_points_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--lambda", "2", "--route", "quadrature", "--points", "0",
        )
        assert code == 2
        assert "points" in err
        assert out == ""


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

    def test_bound_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "count", "--what", "nc", "--n", "99")
        assert code == 2

    def test_missing_argument(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--what", "nc")
        assert code == 2


class TestVerifyCommand:
    def test_combinatorial_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        names = {c["name"] for c in report["checks"]}
        assert "psd-compression-bijection" in names
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
