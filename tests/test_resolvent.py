"""Resolvent norms, subordination, and the blow-up asymptotics."""

import math
from fractions import Fraction

import pytest

from freeprob import cumulants as cu
from freeprob import measures as me
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

    def test_large_s_expansion(self, registry_record):
        registry_record("h-large-s-expansion")

    def test_positive_and_decreasing(self, two_atom_model):
        meas = two_atom_model.aa_star_measure
        values = [rv.h_function(meas, s) for s in (1.0, 2.0, 4.0, 8.0)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSubordination:
    def test_residuals_below_tolerance(self, registry_record):
        registry_record("subordination-residuals")

    def test_matches_cardano_route(self, registry_record):
        registry_record("subordination-residuals")

    def test_negative_root_corollary(self, registry_record):
        registry_record("subordination-negative-root")

    def test_small_t_limit(self, registry_record):
        registry_record("h-small-t-limit")

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
    def test_matches_inf_spec_at_two(self, registry_record):
        registry_record("norm-vs-inf-spec")

    @pytest.mark.parametrize("lam", [1.01, 1.1, 1.5, 2.0, 3.0])
    def test_matches_inf_spec_across_lambda(self, lam, registry_record):
        registry_record("norm-vs-inf-spec")

    def test_norm_result_invariants(self, circular_model):
        res = rv.resolvent_norm(circular_model, 1.5)
        assert res.norm > 0
        assert res.norm * res.m_lambda == pytest.approx(1.0, abs=1e-12)
        assert res.route == "series-exact"

    def test_ratio_near_one_close_to_edge(self, registry_record):
        registry_record("main-theorem-ratio")

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

    def test_monotone_ratio_sweep(self, registry_record):
        registry_record("main-theorem-ratio")


class TestLowerBound:
    def test_dominated_by_norm(self, registry_record):
        registry_record("lower-bound-dominance")

    def test_k_up_to_twenty(self, registry_record):
        registry_record("lower-bound-k20")

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

    def test_fuss_catalan_root_limit(self, registry_record):
        registry_record("fuss-catalan-root-limit")


class TestVarianceV:
    def test_builtin_values(self, circular_model, haar_model, two_atom_model):
        assert rv.variance_v(circular_model) == 1.0
        assert rv.variance_v(haar_model) == 0.0
        assert rv.variance_v(two_atom_model) == 1.0

    def test_from_measure_only(self):
        meas = me.SpectralMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        model = cu.OperatorModel(name="m", alpha=(Fraction(1),), aa_star_measure=meas)
        assert rv.variance_v(model) == pytest.approx(1.0, abs=1e-12)
