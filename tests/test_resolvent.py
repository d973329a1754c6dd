"""Resolvent norms, subordination, and the blow-up asymptotics."""

import math
from fractions import Fraction

import pytest

from freeprob import circular as ci
from freeprob import cumulants as cu
from freeprob import measures as me
from freeprob import noncrossing as nc
from freeprob import resolvent as rv
from freeprob import series as se


class TestHFunction:
    def test_haar_atom(self):
        meas = me.SpectralMeasure.from_atoms([(1.0, 1.0)])
        assert rv.h_function(meas, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_circular_closed_form(self, circular_model):
        # h(s) = (sqrt(s^2+4) - s)/2 for the free Poisson a a*
        for s in (0.5, 1.0, 2.0, 7.0):
            closed = (math.sqrt(s * s + 4.0) - s) / 2.0
            assert rv.h_function(circular_model.aa_star_measure, s) == pytest.approx(
                closed, abs=1e-11
            )

    def test_large_s_expansion(self, circular_model):
        s = 1e3
        h = rv.h_function(circular_model.aa_star_measure, s)
        # 1/s - ||a||_2^2 / s^3 + O(s^-5); the next term is ||a||_4^4 / s^5
        assert abs(h - (1.0 / s - 1.0 / s**3)) < 1e-6 * h

    def test_positive_and_decreasing(self, two_atom_model):
        meas = two_atom_model.aa_star_measure
        values = [rv.h_function(meas, s) for s in (1.0, 2.0, 4.0, 8.0)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSubordination:
    def test_residuals_below_tolerance(self, circular_model):
        lam = 1.7
        for i in range(20):
            t = 0.25 + 0.15 * i
            s_root = rv.solve_subordination(circular_model, lam, t)
            assert s_root > t
            assert abs(rv.h_equation_residual(circular_model, lam, t, s_root)) < 1e-10

    def test_matches_cardano_route(self, circular_model):
        # G of the squared modulus at -t^2 carries h_lam through w -> w^2
        for lam in (1.4, 2.2):
            for t in (0.3, 0.8, 1.5, 2.5, 4.0):
                h_l = rv.h_lambda(circular_model, lam, t)
                cardano = -t * ci.cauchy_transform(complex(-t * t, 0.0), lam).real
                assert h_l == pytest.approx(cardano, abs=1e-6)

    def test_negative_root_corollary(self, circular_model):
        lam = 1.4
        for s in (6.0, 9.0, 14.0):
            h = rv.h_function(circular_model.aa_star_measure, s)
            disc = 1.0 - 4.0 * lam * lam * h * h
            assert disc >= 0
            t = s - (1.0 + math.sqrt(disc)) / (2.0 * h)
            assert t > 0
            assert rv.h_lambda(circular_model, lam, t) == pytest.approx(h, abs=1e-8)

    def test_small_t_limit(self, circular_model):
        lam = 2.0
        t = 1e-3
        got = rv.h_lambda(circular_model, lam, t) / t
        assert got == pytest.approx(1.0 / (lam * lam - 1.0), rel=1e-4)

    def test_two_atom_exact_h(self, two_atom_model):
        lam, t = 1.5, 0.7
        s_root = rv.solve_subordination(two_atom_model, lam, t)
        assert abs(rv.h_equation_residual(two_atom_model, lam, t, s_root)) < 1e-10

    def test_domain_errors(self, circular_model):
        with pytest.raises(ValueError):
            rv.solve_subordination(circular_model, 1.5, 0.0)
        with pytest.raises(ValueError):
            rv.h_function(circular_model.aa_star_measure, 0.0)


class TestCriticalPoint:
    def test_limits_near_one(self, circular_model):
        x = rv.find_critical_point(circular_model, 1.0001)
        assert x == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-3)
        f = rv.rescaled_series_value(circular_model, 1.0001, x)
        assert f == pytest.approx(math.sqrt(4.0 / 27.0), rel=1e-3)

    def test_v_scaling_of_bracket(self):
        # doubling v shrinks the critical point by sqrt(2) (x ~ 1/sqrt(3v))
        v2 = cu.OperatorModel(
            name="v2",
            alpha=(Fraction(1), Fraction(1)),
        )
        v1 = cu.OperatorModel(
            name="v1",
            alpha=(Fraction(1), Fraction(0)),
        )
        lam = 1.001
        x1 = rv.find_critical_point(v1, lam)
        x2 = rv.find_critical_point(v2, lam)
        assert x1 < 1.0 and x2 < 1.0 / math.sqrt(2.0)
        assert x1 / x2 == pytest.approx(math.sqrt(2.0), rel=5e-3)

    def test_haar_rejected(self, haar_model):
        with pytest.raises(rv.RegimeError):
            rv.find_critical_point(haar_model, 1.5)

    def test_truncation_guard(self, two_atom_model):
        with pytest.raises(rv.RegimeError):
            rv.find_critical_point(two_atom_model, 1.0 + 1e-5)


class TestResolventNorm:
    def test_matches_inf_spec_at_two(self, circular_model):
        res = rv.resolvent_norm(circular_model, 2.0)
        assert res.norm == pytest.approx(ci.inf_spec(2.0) ** -0.5, rel=1e-9)

    @pytest.mark.parametrize("lam", [1.01, 1.1, 1.5, 2.0, 3.0])
    def test_matches_inf_spec_across_lambda(self, circular_model, lam):
        res = rv.resolvent_norm(circular_model, lam)
        assert res.norm == pytest.approx(ci.inf_spec(lam) ** -0.5, rel=1e-9)

    def test_norm_result_invariants(self, circular_model):
        res = rv.resolvent_norm(circular_model, 1.5)
        assert res.norm > 0
        assert res.norm * res.m_lambda == pytest.approx(1.0, abs=1e-12)
        assert res.route == "series-exact"

    def test_ratio_near_one_close_to_edge(self, circular_model):
        res = rv.resolvent_norm(circular_model, 1.001)
        assert abs(res.ratio - 1.0) < 1e-2

    def test_two_atom_route_tag_and_ratio(self, two_atom_model):
        res = rv.resolvent_norm(two_atom_model, 1.001)
        assert res.route == "series-truncated"
        assert abs(res.ratio - 1.0) < 1e-2

    def test_haar_rejected(self, haar_model):
        with pytest.raises(rv.RegimeError):
            rv.resolvent_norm(haar_model, 1.5)


class TestAsymptoticNorm:
    def test_value(self):
        got = rv.asymptotic_norm(1.0, 1.01)
        assert got == pytest.approx(math.sqrt(27.0 / 32.0) * 1e3, rel=1e-12)

    def test_v_scaling(self):
        assert rv.asymptotic_norm(4.0, 1.5) == pytest.approx(
            2.0 * rv.asymptotic_norm(1.0, 1.5), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            rv.asymptotic_norm(0.0, 1.5)
        with pytest.raises(ValueError):
            rv.asymptotic_norm(1.0, 1.0)

    def test_monotone_ratio_sweep(self, circular_model):
        errs = []
        for lam in (1.1, 1.01, 1.001):
            res = rv.resolvent_norm(circular_model, lam)
            errs.append(abs(res.ratio - 1.0))
        assert errs[0] > errs[1] > errs[2]


class TestLowerBound:
    def test_dominated_by_norm(self, circular_model, two_atom_model):
        for model in (circular_model, two_atom_model):
            for lam in (Fraction(21, 20), Fraction(6, 5)):
                ms = se.negative_moments_lagrange(model, 6, lam=lam)
                norm = rv.resolvent_norm(model, float(lam)).norm
                for k in range(1, 7):
                    assert rv.lower_bound_from_moments(ms, k) < norm

    def test_k_up_to_twenty(self, circular_model):
        lam = Fraction(21, 20)
        ms = se.negative_moments_lagrange(circular_model, 20, lam=lam)
        norm = ci.inf_spec(float(lam)) ** -0.5
        for k in range(1, 21):
            assert rv.lower_bound_from_moments(ms, k) <= norm

    def test_k1_closed_form(self, two_atom_model):
        # bound^2 = m_-4 / m_-2 = (lam^4 - 1 + v) / (lam^2 - 1)^3
        lam = Fraction(7, 4)
        ms = se.negative_moments_lagrange(two_atom_model, 1, lam=lam)
        bound = rv.lower_bound_from_moments(ms, 1)
        lam2 = lam * lam
        expected_sq = (lam2**2 - 1 + two_atom_model.v) / (lam2 - 1) ** 3
        assert bound**2 == pytest.approx(float(expected_sq), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rv.lower_bound_from_moments([1.0], 1)
        with pytest.raises(ValueError):
            rv.lower_bound_from_moments([1.0, -2.0], 1)

    def test_fuss_catalan_root_limit(self):
        target = 1.5 * math.sqrt(3.0)
        # the ratio estimator reaches the constant at k = 50 within 2%
        assert abs(rv.fuss_catalan_root_ratio(50) - target) / target < 0.02
        # the plain root approaches from below, monotonically
        roots = [rv.fuss_catalan_root(k) for k in (2, 5, 10, 25, 50)]
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert all(r < target for r in roots)


class TestVarianceV:
    def test_builtin_values(self, circular_model, haar_model, two_atom_model):
        assert rv.variance_v(circular_model) == 1.0
        assert rv.variance_v(haar_model) == 0.0
        assert rv.variance_v(two_atom_model) == 1.0

    def test_from_measure_only(self):
        meas = me.SpectralMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        model = cu.OperatorModel(name="m", alpha=(Fraction(1),), aa_star_measure=meas)
        assert rv.variance_v(model) == pytest.approx(1.0, abs=1e-12)
