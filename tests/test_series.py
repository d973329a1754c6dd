"""Formal series arithmetic, inversion, and the negative-moment pipeline."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeprob import models
from freeprob import noncrossing as nc
from freeprob import oracles
from freeprob import series as se
from freeprob import verify
from freeprob.ring import Poly

L = Poly.var("L")  # lam^2
V = Poly.var("v")


class TestFormalSeries:
    def test_parity_validation(self):
        oracles.FormalSeries([0, 1, 0, 2], parity="odd")
        with pytest.raises(ValueError):
            oracles.FormalSeries([1, 1], parity="odd")
        with pytest.raises(ValueError):
            oracles.FormalSeries([0, 1], parity="even")

    def test_mul_truncates_to_min_order(self):
        a = oracles.FormalSeries([1, 1, 1], 2)
        b = oracles.FormalSeries([1, 1], 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_compose_requires_zero_constant(self):
        f = oracles.FormalSeries([1, 1], 1)
        with pytest.raises(ValueError):
            f.compose(oracles.FormalSeries([1, 1], 1))

    def test_reciprocal(self):
        f = oracles.FormalSeries([1, -1, 0, 0, 0], 4)
        g = f.reciprocal()
        assert g.coeffs == [1, 1, 1, 1, 1]


class TestSqrtSeries:
    def test_sqrt_one_plus(self):
        s = oracles.sqrt_one_plus(Fraction(1), 8)
        # sqrt(1+z^2) = 1 + z^2/2 - z^4/8 + z^6/16 - 5 z^8/128
        assert s.coeffs[0] == 1
        assert s.coeffs[2] == Fraction(1, 2)
        assert s.coeffs[4] == Fraction(-1, 8)
        assert s.coeffs[6] == Fraction(1, 16)
        assert s.coeffs[8] == Fraction(-5, 128)

    def test_shift_series_coefficients(self):
        sh = oracles.negative_root_shift(L, 7)
        assert sh.coeffs[1] == -L
        assert sh.coeffs[3] == L**2
        assert sh.coeffs[5] == -2 * L**3
        assert sh.coeffs[7] == 5 * L**4

    def test_catalan_form_crosscheck(self):
        for order in (5, 9, 13):
            assert oracles.negative_root_shift(L, order) == oracles.negative_root_shift_catalan(L, order)

    def test_float_mode(self):
        sh = oracles.negative_root_shift(4.0, 5)  # lam = 2
        assert sh.coeffs[1] == pytest.approx(-4.0)
        assert sh.coeffs[3] == pytest.approx(16.0)
        assert sh.coeffs[5] == pytest.approx(-128.0)


class TestInverseCauchySeries:
    def test_rescaled_series_is_unit_slope(self):
        f = oracles.rescaled_inverse_cauchy([Fraction(1), V - 1], L, 5)
        assert f.coeffs[1] == 1
        assert f.coeffs[3] == -(V - 1 + L**2)
        assert f.parity == "odd"


class TestLagrangeInversion:
    def test_identity(self):
        f = oracles.FormalSeries.identity(6)
        assert oracles.lagrange_invert(f) == f

    def test_fuss_catalan_series(self):
        f = oracles.FormalSeries([0, Fraction(1), 0, -V] + [Poly()] * 8, 11, parity="odd")
        g = oracles.lagrange_invert(f)
        for k in range(0, 6):
            assert g.coefficient(2 * k + 1) == Poly.coerce(nc.fuss_catalan(2, k)) * V**k

    def test_catalan_series_vs_iteration_oracle(self):
        f = oracles.FormalSeries([0, Fraction(1), Fraction(-1)] + [Fraction(0)] * 5, 7)
        g = oracles.lagrange_invert(f)
        assert [g.coeffs[i] for i in range(1, 7)] == [1, 1, 2, 5, 14, 42]
        assert g == oracles.invert_by_iteration(f)

    def test_singular_inverse_error(self):
        with pytest.raises(ZeroDivisionError):
            oracles.lagrange_invert(oracles.FormalSeries([0, 0, 1], 2))
        with pytest.raises(ValueError):
            oracles.lagrange_invert(oracles.FormalSeries([1, 1], 1))

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    min_size=3, max_size=7))
    def test_random_odd_series_roundtrip(self, higher):
        # odd series with unit linear coefficient
        coeffs = [Fraction(0), Fraction(1)]
        for c in higher:
            coeffs.extend([Fraction(0), c])
        f = oracles.FormalSeries(coeffs, len(coeffs) - 1, parity="odd")
        g = oracles.lagrange_invert(f)
        assert g.parity == "odd"
        assert f.compose(g) == oracles.FormalSeries.identity(f.order)
        assert g == oracles.invert_by_iteration(f)

    def test_agreement_to_order_15(self):
        coeffs = [Fraction(0), Fraction(1)] + [
            Fraction((-1) ** j * j, j + 2) for j in range(14)
        ]
        f = oracles.FormalSeries(coeffs, 15)
        assert oracles.lagrange_invert(f) == oracles.invert_by_iteration(f)


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

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_float_lambda_next_to_one(self, circular_model, two_atom_model, eps):
        # the reference is exact, at the float lam's own rational value; m formed
        # as lam*lam - 1 lost 5.0e-8 at eps = 1e-8 for k = 3, (lam - 1)(lam + 1) keeps it
        lam = 1.0 + eps
        for model in (circular_model, two_atom_model):
            exact = se.negative_moments_lagrange(model, 3, lam=Fraction(lam))
            floats = se.negative_moments_lagrange(model, 3, lam=lam)
            for k, (x, got) in enumerate(zip(exact, floats)):
                assert abs(Fraction(got) / x - 1) <= 2e-15, (model.name, k)

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
        g = oracles.lagrange_invert(oracles.rescaled_inverse_cauchy(alpha[: k + 1], lam**2, 2 * k + 1))
        m = lam**2 - 1
        oracle = [g.coefficient(2 * j + 1) / m ** (3 * j + 1) for j in range(k + 1)]
        assert se.negative_moments_lagrange(model, k, lam=lam) == oracle

    def test_coefficient_convergence(self, registry_record):
        registry_record("negative-moment-asymptotics")


def _in_powers_of(p: Poly, name: str) -> list[Poly]:
    """The coefficients of p as a polynomial in ``name``, lowest first."""
    out = [Poly() for _ in range(p.degree(name) + 1)]
    for mono, coeff in p.terms.items():
        e = dict(mono).get(name, 0)
        out[e] = out[e] + Poly({tuple((x, f) for x, f in mono if x != name): coeff})
    return out


def _d_du(p: Poly) -> Poly:
    """d/du of a polynomial in u (and other symbols)."""
    return sum((e * c * Poly.var("u", e - 1) for e, c in enumerate(_in_powers_of(p, "u")) if e), Poly())


class TestCircularRecurrence:
    """Route 1 on circular at rational lam: the order-2 recurrence of
    ``series._circular_pairs``, proved, and held to the convolution solve."""

    def test_recurrence_is_an_identity(self):
        """The proof (notes/decisions.md).  h = 1 + u, where u = t (1 + u)(L + u)^2,
        so t = u / V with V = (1 + u)(L + u)^2 is rational in u, and
        theta = t d/dt = (t / (dt/du)) d/du = (u (1 + u)(L + u) / W) d/du with
        W = L - u - 2u^2.  Hence theta^j h = Y_j / W^(2j) with polynomial Y_j.
        [t^(n+2)] of D h, D = A(theta - 2) - t B(theta - 1) + t^2 C(theta), is
        A(n) h_{n+2} - B(n) h_{n+1} + C(n) h_n.  Below, D h equals E(t), the
        part of degree <= 2 that the seeds h_0 = 1, h_1 = L^2, h_2 = L^3 (L + 2)
        give, as an identity of polynomials in u and L (W(0) = L, so the
        substitution u = u(t) is valid over Q(L)); so the recurrence holds for
        every n >= 1, and E pins the seeds h_1 and h_2 (A(-1), A(0) != 0)."""
        u, n = Poly.var("u"), Poly.var("n")
        lead, mid, low = (sum((Poly.coerce(c) * n**i for i, c in enumerate(cs)), Poly())
                          for cs in se._circular_recurrence(L, 1))
        big_v = (1 + u) * (L + u) ** 2
        w = L - u - 2 * u * u
        lift = u * (1 + u) * (L + u)  # (t / (dt/du)) W
        assert lift * (big_v - u * _d_du(big_v)) == u * big_v * w  # t / t' = lift / W
        numer = [1 + u]  # theta^j h = numer[j] / w^(2j)
        for j in range(3):
            numer.append(lift * (_d_du(numer[j]) * w - 2 * j * numer[j] * _d_du(w)))
        operator = zip(_in_powers_of(lead.subs({"n": n - 2}), "n"),
                       _in_powers_of(mid.subs({"n": n - 1}), "n"),
                       _in_powers_of(low, "n"))
        d_h = sum(((a * big_v * big_v - b * u * big_v + c * u * u) * numer[j] * w ** (6 - 2 * j)
                   for j, (a, b, c) in enumerate(operator)), Poly())

        def at(p, x):
            return p.subs({"n": Poly.const(x)})

        h = (Poly.const(1), L**2, L**3 * (L + 2))
        e = (at(lead, -2) * h[0],
             at(lead, -1) * h[1] - at(mid, -1) * h[0],
             at(lead, 0) * h[2] - at(mid, 0) * h[1] + at(low, 0) * h[0])
        assert d_h == (e[0] * big_v * big_v + e[1] * u * big_v + e[2] * u * u) * w**6
        assert not at(lead, -1).is_zero() and not at(lead, 0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**6).flatmap(lambda q: st.tuples(st.integers(q + 1, 5 * q), st.just(q))),
           st.integers(0, 80))
    @example((237, 223), 80)
    @example((10**6 + 1, 10**6), 80)  # lam - 1 = 1e-6
    def test_pairs_reduce_to_the_solve(self, pq, k):
        lam = Fraction(*pq)
        circ = models.circular_model()
        pairs = se._lagrange_pairs(circ, k, lam)
        assert [Fraction(n, d) for n, d in pairs] == verify._by_inverse_equation(circ, k, lam)


class TestIntegerPairFloats:
    """``n / d`` on an unreduced integer pair is ``float(Fraction(n, d))``: both
    are CPython's correctly rounded int division, the Fraction's on the
    reduced pair, so the CLI prints exact columns without normalising
    (notes/decisions.md)."""

    @staticmethod
    def _float_or_overflow(divide):
        try:
            return repr(divide())  # repr keeps the sign of a zero
        except OverflowError:
            return "OverflowError"

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(2**200), 2**200), st.integers(1, 2**200), st.integers(1, 2**300),
           st.integers(-1400, 1400))
    @example(3, 1, 1, 1100)  # 3 * 2^1100: overflows
    @example(1, 1, 7, 1024)  # 2^1024: the first power of two past the float range
    @example(1, 3, 5, -1070)  # 2^-1070 / 3: subnormal
    @example(-1, 1, 9, -1074)  # -2^-1074: the smallest subnormal
    @example(1, 1, 11, -1076)  # 2^-1076: rounds to zero
    @example(-1, 3, 1, -1080)  # rounds to -0.0
    @example(0, 5, 13, 0)
    def test_int_division_is_the_fraction_float(self, a, b, common, shift):
        n, d = a * common, b * common  # unreduced whenever common > 1
        if shift >= 0:
            n <<= shift
        else:
            d <<= -shift
        assert self._float_or_overflow(lambda: n / d) == self._float_or_overflow(
            lambda: float(Fraction(n, d)))


class TestAsymptoticNegativeMoment:
    def test_k0(self):
        assert se.asymptotic_negative_moment(Fraction(5), 0, Fraction(3, 2)) == Fraction(4, 5)

    def test_k2_v1(self):
        lam = Fraction(2)
        assert se.asymptotic_negative_moment(Fraction(1), 2, lam) == Fraction(3, 3**7)

    @pytest.mark.parametrize("lam", [Fraction(237, 223), Fraction(7, 5), Fraction(3)])
    @pytest.mark.parametrize("v", [Fraction(1), Fraction(3, 2), Fraction(7, 3)])
    def test_equals_the_literal_formula(self, v, lam):
        for k in range(41):
            literal = nc.fuss_catalan(2, k) * v**k / (lam**2 - 1) ** (3 * k + 1)
            got = se.asymptotic_negative_moment(v, k, lam)
            assert type(got) is Fraction and got == literal

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_float_lambda_next_to_one(self, eps):
        # lam^2 - 1 formed as lam*lam - 1 lost 5.0e-8 at eps = 1e-8 for k = 3
        lam = 1.0 + eps
        for k in range(4):
            exact = se.asymptotic_negative_moment(Fraction(1), k, Fraction(lam))
            got = se.asymptotic_negative_moment(Fraction(1), k, lam)
            assert abs(Fraction(got) / exact - 1) <= (3 * k + 2) * 2.0**-52, k

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            se.asymptotic_negative_moment(0, 1, 1.5)
        with pytest.raises(ValueError):
            se.asymptotic_negative_moment(1, 1, 1.0)
        with pytest.raises(ValueError):
            se.asymptotic_negative_moment(1, -1, Fraction(3, 2))

    def test_ratio_sweeps_to_one(self, registry_record):
        registry_record("asymptotic-ratio-sweep")
