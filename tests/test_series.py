"""Formal series arithmetic, inversion, and the negative-moment pipeline."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import noncrossing as nc
from freeprob import series as se
from freeprob.ring import Poly

L = Poly.var("L")  # lam^2
V = Poly.var("v")


class TestFormalSeries:
    def test_parity_validation(self):
        se.FormalSeries([0, 1, 0, 2], parity="odd")
        with pytest.raises(ValueError):
            se.FormalSeries([1, 1], parity="odd")
        with pytest.raises(ValueError):
            se.FormalSeries([0, 1], parity="even")

    def test_mul_truncates_to_min_order(self):
        a = se.FormalSeries([1, 1, 1], 2)
        b = se.FormalSeries([1, 1], 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_compose_requires_zero_constant(self):
        f = se.FormalSeries([1, 1], 1)
        with pytest.raises(ValueError):
            f.compose(se.FormalSeries([1, 1], 1))

    def test_reciprocal(self):
        f = se.FormalSeries([1, -1, 0, 0, 0], 4)
        g = f.reciprocal()
        assert g.coeffs == [1, 1, 1, 1, 1]


class TestSqrtSeries:
    def test_sqrt_one_plus(self):
        s = se.sqrt_one_plus(Fraction(1), 8)
        # sqrt(1+z^2) = 1 + z^2/2 - z^4/8 + z^6/16 - 5 z^8/128
        assert s.coeffs[0] == 1
        assert s.coeffs[2] == Fraction(1, 2)
        assert s.coeffs[4] == Fraction(-1, 8)
        assert s.coeffs[6] == Fraction(1, 16)
        assert s.coeffs[8] == Fraction(-5, 128)

    def test_shift_series_coefficients(self):
        sh = se.negative_root_shift(L, 7)
        assert sh.coeffs[1] == -L
        assert sh.coeffs[3] == L**2
        assert sh.coeffs[5] == -2 * L**3
        assert sh.coeffs[7] == 5 * L**4

    def test_catalan_form_crosscheck(self):
        for order in (5, 9, 13):
            assert se.negative_root_shift(L, order) == se.negative_root_shift_catalan(L, order)

    def test_float_mode(self):
        sh = se.negative_root_shift(4.0, 5)  # lam = 2
        assert sh.coeffs[1] == pytest.approx(-4.0)
        assert sh.coeffs[3] == pytest.approx(16.0)
        assert sh.coeffs[5] == pytest.approx(-128.0)


class TestInverseCauchySeries:
    def test_rescaled_series_is_unit_slope(self):
        f = se.rescaled_inverse_cauchy([Fraction(1), V - 1], L, 5)
        assert f.coeffs[1] == 1
        assert f.coeffs[3] == -(V - 1 + L**2)
        assert f.parity == "odd"


class TestLagrangeInversion:
    def test_identity(self):
        f = se.FormalSeries.identity(6)
        assert se.lagrange_invert(f) == f

    def test_fuss_catalan_series(self):
        f = se.FormalSeries([0, Fraction(1), 0, -V] + [Poly()] * 8, 11, parity="odd")
        g = se.lagrange_invert(f)
        for k in range(0, 6):
            assert g.coefficient(2 * k + 1) == Poly.coerce(nc.fuss_catalan(2, k)) * V**k

    def test_catalan_series_vs_iteration_oracle(self):
        f = se.FormalSeries([0, Fraction(1), Fraction(-1)] + [Fraction(0)] * 5, 7)
        g = se.lagrange_invert(f)
        assert [g.coeffs[i] for i in range(1, 7)] == [1, 1, 2, 5, 14, 42]
        assert g == se.invert_by_iteration(f)

    def test_singular_inverse_error(self):
        with pytest.raises(ZeroDivisionError):
            se.lagrange_invert(se.FormalSeries([0, 0, 1], 2))
        with pytest.raises(ValueError):
            se.lagrange_invert(se.FormalSeries([1, 1], 1))

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    min_size=3, max_size=7))
    def test_random_odd_series_roundtrip(self, higher):
        # odd series with unit linear coefficient
        coeffs = [Fraction(0), Fraction(1)]
        for c in higher:
            coeffs.extend([Fraction(0), c])
        f = se.FormalSeries(coeffs, len(coeffs) - 1, parity="odd")
        g = se.lagrange_invert(f)
        assert g.parity == "odd"
        assert f.compose(g) == se.FormalSeries.identity(f.order)
        assert g == se.invert_by_iteration(f)

    def test_agreement_to_order_15(self):
        coeffs = [Fraction(0), Fraction(1)] + [
            Fraction((-1) ** j * j, j + 2) for j in range(14)
        ]
        f = se.FormalSeries(coeffs, 15)
        assert se.lagrange_invert(f) == se.invert_by_iteration(f)


class TestNegativeMoments:
    def test_m2_symbolic(self, registry_record):
        registry_record("negative-moment-closed-forms")

    def test_m4_symbolic(self, registry_record):
        registry_record("negative-moment-closed-forms")

    def test_m4_symbolic_two_atom(self, registry_record):
        registry_record("negative-moment-closed-forms")

    def test_exact_rational_circular(self, circular_model):
        vals = se.negative_moments_lagrange(circular_model, 2, lam=Fraction(2))
        assert vals[0] == Fraction(1, 3)
        assert vals[1] == Fraction(16, 81)
        assert vals[2] == Fraction(128, 729)

    def test_float_mode_matches_exact(self, circular_model):
        exact = se.negative_moments_lagrange(circular_model, 3, lam=Fraction(3, 2))
        floats = se.negative_moments_lagrange(circular_model, 3, lam=1.5)
        for a, b in zip(exact, floats):
            assert b == pytest.approx(float(a), rel=1e-12)

    def test_symbolic_evaluation_matches_exact(self, two_atom_model):
        sym = se.negative_moments_lagrange(two_atom_model, 3)
        lam = Fraction(7, 5)
        assign = se.symbolic_model_assignment(two_atom_model, lam)
        exact = se.negative_moments_lagrange(two_atom_model, 3, lam=lam)
        for s, e in zip(sym, exact):
            assert s.evaluate(assign) == e

    def test_insufficient_cumulants(self):
        from freeprob import cumulants as cu

        model = cu.OperatorModel(
            name="short", alpha=(Fraction(1), Fraction(0)),
        )
        with pytest.raises(cu.OrderCapError):
            se.negative_moments_lagrange(model, 3, lam=Fraction(2))

    def test_negative_k_rejected(self, circular_model):
        with pytest.raises(ValueError, match=">= 0"):
            se.negative_moments_lagrange(circular_model, -1, lam=Fraction(3, 2))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=5),
           st.fractions(min_value=Fraction(21, 20), max_value=5, max_denominator=40),
           st.integers(min_value=0, max_value=5))
    def test_inverse_equation_matches_lagrange(self, higher, lam, k):
        from freeprob import cumulants as cu

        alpha = (Fraction(1), *higher)
        k = min(k, len(alpha) - 1)
        model = cu.OperatorModel(name="random", alpha=alpha)
        g = se.lagrange_invert(se.rescaled_inverse_cauchy(alpha[: k + 1], lam**2, 2 * k + 1))
        m = lam**2 - 1
        oracle = [g.coefficient(2 * j + 1) / m ** (3 * j + 1) for j in range(k + 1)]
        assert se.negative_moments_lagrange(model, k, lam=lam) == oracle

    def test_coefficient_convergence(self, registry_record):
        registry_record("inverse-coefficient-convergence")


class TestAsymptoticNegativeMoment:
    def test_k0(self):
        assert se.asymptotic_negative_moment(Fraction(5), 0, Fraction(3, 2)) == Fraction(4, 5)

    def test_k2_v1(self):
        lam = Fraction(2)
        assert se.asymptotic_negative_moment(Fraction(1), 2, lam) == Fraction(3, 3**7)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            se.asymptotic_negative_moment(0, 1, 1.5)
        with pytest.raises(ValueError):
            se.asymptotic_negative_moment(1, 1, 1.0)

    def test_ratio_sweeps_to_one(self, registry_record):
        registry_record("asymptotic-ratio-sweep")
