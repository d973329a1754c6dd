"""Operator models, JSON ingestion, and spectral-measure plumbing."""

import json
from fractions import Fraction

import numpy as np
import pytest

from freeprob import cumulants as cu
from freeprob import measures as me
from freeprob import models
from freeprob import noncrossing as nc
from freeprob import oracles


class TestSpectralMeasure:
    def test_atom_measure(self):
        meas = me.SpectralMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        assert meas.total_mass() == 1.0
        assert meas.moment(1) == 1.0
        assert meas.moment(2) == 2.0
        assert meas.support_min() == 0.0
        assert meas.support_max() == 2.0

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            me.SpectralMeasure.from_density([0.0, 1.0], [-0.1, 0.1], [1.0, 1.0], "t")

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            me.SpectralMeasure.from_density([1.0, 1.0], [0.1, 0.1], [1.0, 1.0], "t")

    def test_probability_requirement(self):
        meas = me.SpectralMeasure.from_atoms([(1.0, 0.7)])
        with pytest.raises(ValueError, match="mass"):
            meas.require_probability()
        with pytest.raises(ValueError, match="mass"):
            models.model_from_spec(
                {"name": "m", "alpha": ["1"],
                 "aa_star_measure": {"atoms": [{"x": 1.0, "w": 0.7}]}}
            )

    def test_free_poisson_moments_are_catalan(self):
        meas = me.free_poisson(4096)
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-12)
        for n in range(1, 9):  # circular_model's load check now compares n = 1 only
            assert meas.moment(n) == pytest.approx(nc.catalan(n), rel=1e-10)

    def test_free_poisson_is_shared_read_only(self):
        meas = me.free_poisson()
        assert me.free_poisson() is meas
        for arr in (meas.grid, meas.density, meas.weights):
            with pytest.raises(TypeError):
                arr[0] = 1.0

    def test_chebyshev_grid_weights(self):
        grid, weights = me.chebyshev_grid(0.0, 2.0, 256)
        grid = np.asarray(grid)
        assert np.all(np.diff(grid) > 0)
        assert 0.0 < grid[0] and grid[-1] < 2.0
        # sin-weights integrate the semicircle shape exactly-ish
        assert np.sum(weights * np.sqrt(grid * (2 - grid))) == pytest.approx(
            np.pi / 2, rel=1e-6
        )


class TestBuiltinModels:
    def test_circular(self, circular_model, two_atom_model):
        assert circular_model.alpha[0] == 1
        assert all(a == 0 for a in circular_model.alpha[1:])
        assert circular_model.r_mu_is_z and not two_atom_model.r_mu_is_z
        assert circular_model.v == 1
        assert circular_model.alpha_at(12) == 0
        with pytest.raises(cu.OrderCapError):  # only a stored alpha stops
            cu.OperatorModel("two-atom-prefix", two_atom_model.alpha).alpha_at(9)

    def test_circular_models_are_fresh(self):
        first, second = models.circular_model(), models.circular_model()
        assert first is not second
        assert first.aa_star_measure is second.aa_star_measure

    def test_circular_measure_built_on_first_read(self, capsys):
        from freeprob import cli

        me.free_poisson.cache_clear()
        assert cli.main(["norm", "--model", "circular", "--lambda-start", "1.1",
                         "--lambda-end", "2", "--steps", "3"]) == 0
        assert cli.main(["moments", "--model", "circular", "--route", "lagrange",
                         "--lambda", "3/2", "--k", "3"]) == 0
        capsys.readouterr()
        assert me.free_poisson.cache_info().currsize == 0
        assert models.circular_model().aa_star_measure is me.free_poisson()

    def test_haar_alphas_are_signed_catalans(self, haar_model):
        want = [(-1) ** n * nc.catalan(n) for n in range(40)]
        assert list(haar_model.alpha) == want[: haar_model.order]
        assert [haar_model.alpha_at(n) for n in range(1, 41)] == want

    def test_two_atom_model(self, two_atom_model):
        assert two_atom_model.alpha[:5] == (1, 0, -1, 2, -1)
        assert two_atom_model.aa_star_measure.moment(1) == 1.0

    def test_built_and_loaded_without_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("alternating-partition enumeration on a build path")

        monkeypatch.setattr(oracles, "enumerate_alternating", refuse)
        monkeypatch.setattr(oracles, "rdiag_moment", refuse)
        haar_alpha = (1, -1, 2, -5, 14, -42, 132, -429)
        two_atom_alpha = (1, 0, -1, 2, -1, -6, 20, -22)
        haar, two_atom = models.haar_model(), models.two_atom_model()
        assert haar.alpha == haar_alpha
        assert two_atom.alpha == two_atom_alpha
        loaded = models.model_from_spec({
            "name": "two-atom-json",
            "alpha": [str(a) for a in two_atom_alpha],
            "mu_even_cumulants": [str(a) for a in two_atom_alpha],
            "aa_star_measure": {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.0, "w": 0.5}]},
        })
        assert loaded.alpha == two_atom_alpha
        with pytest.raises(ValueError, match="mismatch"):
            models.model_from_spec({
                "name": "shifted",
                "alpha": [str(a) for a in two_atom_alpha],
                "aa_star_measure": {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.5, "w": 0.5}]},
            })

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            models.builtin_model("bogus")


class TestEndlessAlpha:
    """The builtins' alpha_n past the stored prefix, against routes that share
    no code with their graded cumulant stream."""

    def test_haar_signed_catalans_to_200(self):
        haar = models.haar_model()
        want = [(-1) ** (n - 1) * nc.catalan(n - 1) for n in range(1, 201)]
        assert [haar.alpha_at(n) for n in range(1, 201)] == want

    def test_two_atom_solves_its_algebraic_equation(self):
        # u = 1 + w with w = sum alpha_n t^n solves sum_i w_i u / (u^2 - x_i t) = 1;
        # for the atoms 0 and 2 of weight 1/2, cleared, w = t + 2tw - 2w^2 - w^3,
        # whose t^n coefficient reads only lower ones (w2 holds those of w^2)
        n_max = 60
        w, w2 = [0] * (n_max + 1), [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            w2[n] = sum(w[i] * w[n - i] for i in range(1, n))
            w3 = sum(w[i] * w2[n - i] for i in range(1, n))
            w[n] = (n == 1) + 2 * w[n - 1] - 2 * w2[n] - w3
        two_atom = models.two_atom_model()
        assert [two_atom.alpha_at(n) for n in range(1, n_max + 1)] == w[1:]

    @pytest.mark.parametrize("atoms", [
        [(Fraction(5, 16), Fraction(1, 4)), (Fraction(27, 16), Fraction(1, 4)),
         (Fraction(3, 4), Fraction(1, 4)), (Fraction(5, 4), Fraction(1, 4))],
        # a weight denominator that no atom denominator carries
        [(Fraction(1, 3), Fraction(1, 3)), (Fraction(4, 3), Fraction(2, 3))],
    ], ids=["dyadic", "thirds"])
    def test_graded_stream_equals_the_fraction_transform(self, atoms):
        model = models._AtomicModel("atoms", atoms)
        assert model._d > 1
        moments = [sum(w * x**n for x, w in atoms) for n in range(1, 41)]
        assert [model.alpha_at(n) for n in range(1, 41)] == cu.alpha_from_aa_star_moments(moments)
        assert model.alpha == tuple(model.alpha_at(n) for n in range(1, models.STORED_ORDER + 1))


class TestModelSpecJson:
    def test_builtin_passthrough(self):
        model = models.model_from_spec({"builtin": "haar"})
        assert model.name == "haar"

    def test_custom_model(self, tmp_path):
        spec = {
            "name": "two-atom-custom",
            "alpha": ["1", "0", "-1", "2", "-1"],
            "mu_even_cumulants": ["1", "0", "-1", "2", "-1"],
            "aa_star_measure": {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.0, "w": 0.5}]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        model = models.load_model(str(path))
        assert model.name == "two-atom-custom"
        assert model.alpha == (1, 0, -1, 2, -1)
        assert model.v == 1

    def test_fraction_strings(self):
        model = models.model_from_spec({"name": "q", "alpha": ["1", "-3/4"]})
        assert model.alpha[1] == Fraction(-3, 4)

    def test_inconsistent_measure_rejected(self):
        spec = {
            "name": "broken",
            "alpha": ["1", "0"],
            "aa_star_measure": {"atoms": [{"x": 3.0, "w": 1.0}]},
        }
        with pytest.raises(ValueError, match="mismatch"):
            models.model_from_spec(spec)

    def test_mu_cumulants_checked_against_alpha(self, tmp_path, capsys):
        from freeprob import cli

        wrong = {"name": "wrong-k6", "alpha": ["1", "0", "-1"], "mu_even_cumulants": ["1", "0", "5"]}
        too_long = {"name": "long-mu", "alpha": ["1", "0"], "mu_even_cumulants": ["1", "0", "-1"]}
        for spec in (wrong, too_long):
            with pytest.raises(ValueError, match=spec["name"]):
                models.model_from_spec(spec)
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(wrong))
        assert cli.main(["moments", "--model", str(path), "--lambda", "2", "--route", "lagrange"]) == 2
        assert "wrong-k6" in capsys.readouterr().err

    def test_alpha_only_model_matches_restated_field(self, tmp_path, capsys):
        from freeprob import cli
        from freeprob import series as se

        alpha = [str(a) for a in models.two_atom_model().alpha]
        spec = {
            "name": "two-atom-json",
            "alpha": alpha,
            "aa_star_measure": {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.0, "w": 0.5}]},
        }
        results = []
        for i, extra in enumerate(({}, {"mu_even_cumulants": alpha})):
            path = tmp_path / f"model{i}.json"
            path.write_text(json.dumps({**spec, **extra}))
            exact = se.negative_moments_lagrange(models.load_model(str(path)), 6, lam=Fraction(7, 5))
            assert cli.main(["moments", "--model", str(path), "--lambda", "7/5", "--k", "6",
                             "--route", "lagrange"]) == 0
            csv = tmp_path / f"norm{i}.csv"
            assert cli.main(["norm", "--model", str(path), "--lambda-start", "1.01",
                             "--lambda-end", "1.1", "--steps", "5", "--out", str(csv)]) == 0
            results.append((exact, capsys.readouterr().out, csv.read_text()))
        assert results[0] == results[1]

    def test_bad_rational_rejected(self):
        with pytest.raises(ValueError):
            models.model_from_spec({"name": "q", "alpha": [1.5]})

    def test_json_booleans_are_not_rationals(self, tmp_path, capsys):
        from freeprob import cli

        for spec in ({"name": "b", "alpha": [True, 0]},
                     {"name": "b", "alpha": ["1", "0"], "mu_even_cumulants": [True]}):
            with pytest.raises(ValueError, match="exact rationals must be"):
                models.model_from_spec(spec)
        path = tmp_path / "bool.json"
        path.write_text('{"name": "b", "alpha": [true, 0]}')
        assert cli.main(["moments", "--model", str(path), "--lambda", "3/2", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert "exact rationals must be" in captured.err and captured.out == ""

    def test_load_model_builtin_name(self):
        assert models.load_model("circular").name == "circular"

    def test_density_grid_measure(self):
        # user-supplied quadrature grid for a a*: a crude free Poisson stand-in
        grid, weights = me.chebyshev_grid(0.0, 4.0, 512)
        grid = np.asarray(grid)
        rho = np.sqrt((4.0 - grid) / grid) / (2.0 * np.pi)
        spec = {
            "name": "gridded",
            "alpha": ["1", "0"],
            "aa_star_measure": {
                "density_grid": {
                    "t": list(grid),
                    "rho": list(rho),
                    "weights": list(weights),
                }
            },
        }
        model = models.model_from_spec(spec)
        assert model.aa_star_measure.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert model.aa_star_measure.moment(2) == pytest.approx(2.0, rel=1e-8)
