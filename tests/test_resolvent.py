"""Resolvent norms, subordination, and the blow-up asymptotics."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from freeprob import cumulants as cu
from freeprob import measures as me
from freeprob import oracles
from freeprob import resolvent as rv
from freeprob import series as se


# a a* laws written the way the benchmark writes its model files: dyadic atom
# pairs 1 -/+ d of equal dyadic weight
DYADIC_LAWS = (
    [(Fraction(1), Fraction(1, 4))]
    + [(1 + s * d, Fraction(3, 16)) for d in (Fraction(3, 16), Fraction(5, 16)) for s in (-1, 1)],
    [(1 + s * Fraction(15, 16), Fraction(1, 2)) for s in (-1, 1)],
)


def _dyadic_model(atoms, order: int) -> cu.OperatorModel:
    moments = [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]
    return cu.OperatorModel(name="dyadic", alpha=tuple(cu.alpha_from_aa_star_moments(moments)))


class TestHFunction:
    def test_haar_atom(self):
        meas = me.SpectralMeasure.from_atoms([(1.0, 1.0)])
        assert oracles.h_function(meas, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_circular_closed_form(self, circular_model):
        # h(s) = (sqrt(s^2+4) - s)/2 for the free Poisson a a*
        for s in (0.5, 1.0, 2.0, 7.0):
            closed = (math.sqrt(s * s + 4.0) - s) / 2.0
            assert oracles.h_function(circular_model.aa_star_measure, s) == pytest.approx(
                closed, abs=1e-11
            )

    def test_large_s_expansion(self, registry_record):
        registry_record("h-large-s-expansion")

    def test_positive_and_decreasing(self, two_atom_model):
        meas = two_atom_model.aa_star_measure
        values = [oracles.h_function(meas, s) for s in (1.0, 2.0, 4.0, 8.0)]
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
        s_root = oracles.solve_subordination(two_atom_model, lam, t)
        assert abs(oracles.h_equation_residual(two_atom_model, lam, t, s_root)) < 1e-10

    def test_illinois_steep_root(self):
        # the secant point rounds onto the left end at once; a midpoint step
        # keeps the search going instead of returning that end
        root = oracles._illinois(lambda x: 1.0 - 1e30 * x**13, 1e-9, 1.0)
        assert root == pytest.approx(0.0049238826317067, rel=1e-13)

    def test_domain_errors(self, circular_model):
        with pytest.raises(ValueError):
            oracles.solve_subordination(circular_model, 1.5, 0.0)
        with pytest.raises(ValueError):
            oracles.h_function(circular_model.aa_star_measure, 0.0)


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

    @pytest.mark.parametrize("lam", [1.001, 1.1, 1.3])
    def test_derivatives_match_central_differences(self, two_atom_model, lam):
        h = 1e-5
        for x in (0.1, 0.5, 0.9):
            for f, df in ((rv.rescaled_series_value, rv.rescaled_series_derivative),
                          (rv.rescaled_series_derivative, rv.rescaled_series_second_derivative)):
                central = (f(two_atom_model, lam, x + h) - f(two_atom_model, lam, x - h)) / (2 * h)
                assert df(two_atom_model, lam, x) == pytest.approx(central, rel=1e-8, abs=1e-8)

    def test_few_fprime_evaluations_per_norm(self, two_atom_model, monkeypatch):
        # a bisection from [1e-9 hi, hi] to float resolution needs about 54 per norm
        calls = [0]
        original = rv.rescaled_series_derivative

        def counted(model, lam, x):
            calls[0] += 1
            return original(model, lam, x)

        monkeypatch.setattr(rv, "rescaled_series_derivative", counted)
        for lam in (1.001 + 0.199 * i / 19 for i in range(20)):
            rv.resolvent_norm(two_atom_model, lam)
        assert calls[0] / 20 <= 12
        for atoms, order in zip(DYADIC_LAWS, (6, 8)):
            model = _dyadic_model(atoms, order)
            calls[0] = 0
            for i in range(10):
                rv.resolvent_norm(model, 1.0 + 1e-3 * 3 ** (i / 9))
            assert calls[0] / 10 <= 12, model.alpha


class TestSeriesNorm:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_circular_next_to_one(self, circular_model, eps):
        # F carries no cancelling step: forming lam^2 - 1 as lam*lam - 1 and
        # subtracting the square root from R_mu lost 1.2e-8 at eps = 1e-8
        lam = 1.0 + eps
        norm, m_lambda, _ = rv.series_norm(circular_model, lam)
        with localcontext() as ctx:
            ctx.prec = 60
            ref = _inf_spec_decimal(lam).sqrt()
            assert abs(Decimal(norm) * ref - 1) < Decimal("2e-15")
            assert abs(Decimal(m_lambda) / ref - 1) < Decimal("2e-15")


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


def _inf_spec_decimal(lam: float) -> Decimal:
    """inf spec |lam - c|^2 in its literal form, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_l = Decimal(lam) ** 2
        s = 8 * big_l + 1
        return (8 * big_l * big_l + 20 * big_l - 1 - s * s.sqrt()) / (8 * big_l)


CLOSED_FORM_LAMBDAS = [1.0 + 10.0 ** (-4.0 + 5.0 * i / 99) for i in range(100)]


class TestCircularClosedForm:
    def test_matches_decimal_reference(self):
        # lam - 1 from 1e-4 to 10; norm = inf_spec^(-1/2) and m_lambda = inf_spec^(1/2)
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 60
            for lam in CLOSED_FORM_LAMBDAS:
                ref = _inf_spec_decimal(lam).sqrt()
                norm, m_lambda, _ = rv.circular_norm_closed_form(lam)
                worst = max(worst, abs(Decimal(norm) * ref - 1), abs(Decimal(m_lambda) / ref - 1))
        assert worst < Decimal("2e-15")

    @pytest.mark.parametrize("lam", [1.0001, 1.01, 1.1, 1.5, 2.0, 3.0, 11.0])
    def test_critical_point_matches_bisection(self, circular_model, lam):
        x_closed = rv.circular_norm_closed_form(lam)[2]
        assert x_closed == pytest.approx(rv.find_critical_point(circular_model, lam), rel=1e-9)
        assert rv.resolvent_norm(circular_model, lam).x_critical == x_closed

    def test_no_fprime_evaluations(self, circular_model, two_atom_model, monkeypatch):
        calls = [0]
        original = rv.rescaled_series_derivative

        def counted(model, lam, x):
            calls[0] += 1
            return original(model, lam, x)

        monkeypatch.setattr(rv, "rescaled_series_derivative", counted)
        for lam in (1.001, 1.5, 3.0):
            rv.resolvent_norm(circular_model, lam)
        assert calls[0] == 0
        rv.resolvent_norm(two_atom_model, 1.1)
        assert calls[0] > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            rv.circular_norm_closed_form(1.0)


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
        assert circular_model.v == 1
        assert haar_model.v == 0
        assert two_atom_model.v == 1

    def test_from_measure_only(self):
        # v is alpha_2 + 1: a model that stops at alpha_1 has no v, even with
        # a measure whose second moment would give one, so its norm is refused
        meas = me.SpectralMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        model = cu.OperatorModel(name="m", alpha=(Fraction(1),), aa_star_measure=meas)
        with pytest.raises(cu.OrderCapError, match="alpha_2 not supplied"):
            rv.resolvent_norm(model, 1.1)
