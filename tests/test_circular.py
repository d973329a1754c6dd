"""Spectral analysis of the shifted circular square modulus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from freeprob import circular as ci
from freeprob import cumulants as cu
from freeprob.ring import Poly

LAM = Poly.var("lam")


class TestKTransform:
    def test_value_at_half_m0(self):
        assert ci.k_transform(0.5, 0.0) == pytest.approx(8.0, abs=1e-14)
        assert ci.k_transform_summed(0.5, 0.0) == pytest.approx(8.0, abs=1e-14)

    def test_forms_agree_at_random_points(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
                continue
            m = rng.uniform(0.05, 8.0)
            a, b = ci.k_transform(z, m), ci.k_transform_summed(z, m)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    def test_pole_errors(self):
        with pytest.raises(ci.PoleError):
            ci.k_transform(0.0, 1.0)
        with pytest.raises(ci.PoleError):
            ci.k_transform(1.0, 1.0)

    def test_k_at_critical_points_is_support(self):
        for lam in (1.01, 1.1, 1.5, 2.0, 3.0):
            m = lam * lam - 1
            zm, zp = ci.critical_points(lam)
            sm, sp = ci.support_endpoints(lam)
            assert abs(ci.k_transform(zm, m) - sm) <= 1e-12 * max(1.0, abs(sm))
            assert abs(ci.k_transform(zp, m) - sp) <= 1e-12 * max(1.0, abs(sp))

    def test_critical_point_locations(self):
        for lam in (1.05, 1.5, 4.0):
            zm, zp = ci.critical_points(lam)
            assert zm < 0
            assert 0 < zp < 1


class TestSupportEndpoints:
    def test_limit_at_one(self):
        sm, sp = ci.support_endpoints(1.0 + 1e-9)
        assert sm == pytest.approx(0.0, abs=1e-12)
        assert sp == pytest.approx(27.0 / 4.0, rel=1e-6)

    def test_lambda_squared_two(self):
        sm, sp = ci.support_endpoints(math.sqrt(2.0))
        assert sm == pytest.approx((71 - 17**1.5) / 16, rel=1e-13)
        assert sp == pytest.approx((71 + 17**1.5) / 16, rel=1e-13)

    def test_rejects_lambda_at_most_one(self):
        with pytest.raises(ValueError):
            ci.support_endpoints(1.0)
        with pytest.raises(ValueError):
            ci.inf_spec(0.9)


class TestInfSpec:
    def test_equals_s_minus(self):
        for lam in (1.01, 1.3, 2.0, 10.0):
            assert ci.inf_spec(lam) == pytest.approx(ci.support_endpoints(lam)[0], rel=1e-12)

    def test_sqrt2(self):
        assert ci.inf_spec(math.sqrt(2.0)) == pytest.approx((71 - 17**1.5) / 16, rel=1e-13)

    def test_taylor_leading_term(self):
        lam = 1.0 + 1e-3
        lead = (32.0 / 27.0) * (lam - 1.0) ** 3
        assert ci.inf_spec(lam) == pytest.approx(lead, rel=5e-3)

    def test_cubic_scaling_by_finite_differences(self):
        # log-slope of inf_spec near 1 is 3
        f1, f2 = ci.inf_spec(1.0 + 1e-3), ci.inf_spec(1.0 + 2e-3)
        slope = math.log(f2 / f1) / math.log(2.0)
        assert slope == pytest.approx(3.0, abs=2e-2)


class TestCauchyTransform:
    def test_asymptotic_expansion(self):
        lam = 1.8
        w = 1e6 + 0j
        g = ci.cauchy_transform(w, lam)
        assert abs(g - (1 / w + (lam * lam + 1) / w**2)) / abs(g) < 1e-4

    def test_real_right_of_support_positive(self):
        lam = 2.0
        sp = ci.support_endpoints(lam)[1]
        g = ci.cauchy_transform(sp + 0.5, lam)
        assert abs(g.imag) < 1e-12
        assert g.real > 0

    def test_real_left_of_support_negative(self):
        lam = 2.0
        sm = ci.support_endpoints(lam)[0]
        g = ci.cauchy_transform(sm - 0.25, lam)
        assert abs(g.imag) < 1e-12
        assert g.real < 0

    def test_functional_inverse_residual(self):
        rng = np.random.default_rng(1)
        for lam in (1.5, 2.0):
            spec = ci.CircularSpectrum.at(lam)
            count = 0
            while count < 25:
                w = complex(rng.uniform(-15, 25), rng.uniform(-8, 8))
                if abs(w.imag) < 1e-2 and spec.s_minus - 1 < w.real < spec.s_plus + 1:
                    continue
                g = ci.cauchy_transform(w, lam)
                assert abs(ci.k_transform(g, spec.m) - w) < 1e-10
                count += 1

    def test_herglotz(self):
        rng = np.random.default_rng(2)
        for lam in (1.2, 3.0):
            for _ in range(25):
                w = complex(rng.uniform(-5, 30), rng.uniform(1e-5, 8))
                assert ci.cauchy_transform(w, lam).imag <= 1e-12

    def test_support_rejected(self):
        lam = 2.0
        sm, sp = ci.support_endpoints(lam)
        with pytest.raises(ci.BranchError):
            ci.cauchy_transform(complex(0.5 * (sm + sp), 0.0), lam)
        with pytest.raises(ci.BranchError):
            ci.cauchy_transform(0j, lam)


@pytest.fixture(scope="module")
def meas2():
    return ci.density(2.0, 512)


class TestDensity:

    def test_mass(self, meas2):
        assert meas2.total_mass() == pytest.approx(1.0, abs=1e-6)

    def test_mean(self, meas2):
        assert meas2.moment(1) == pytest.approx(5.0, abs=1e-6)

    def test_second_moment_vs_combinatorial(self, meas2):
        expected = float(ci.shift_square_modulus_moment(2, Fraction(2)))
        assert expected == 34.0
        assert meas2.moment(2) == pytest.approx(expected, rel=1e-5)

    def test_grid_inside_support(self, meas2):
        sm, sp = ci.support_endpoints(2.0)
        assert meas2.grid[0] > sm
        assert meas2.grid[-1] < sp

    def test_density_nonnegative_and_positive_inside(self, meas2):
        assert (meas2.density >= 0).all()
        assert meas2.density[len(meas2.grid) // 2] > 0

    @pytest.mark.parametrize("lam", [1.1, 1.5, 3.0, 10.0])
    def test_mass_and_mean_across_lambdas(self, lam):
        meas = ci.density(lam, 512)
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-6)
        assert meas.moment(1) == pytest.approx(lam * lam + 1, rel=1e-6)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 10.0])
    def test_quadrature_error_stated(self, lam):
        # route 3's stated error: away from lam = 1 the boundary-value density
        # on 512 Chebyshev nodes integrates mass and mean to 1e-12
        meas = ci.density(lam, 512)
        assert abs(meas.total_mass() - 1.0) <= 1e-12
        assert abs(meas.moment(1) / (lam * lam + 1) - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam", [1.5, 2.0, 10.0])
    def test_matches_continuation_just_above_axis(self, lam):
        # independent oracle: the continued Cauchy transform a distance
        # eps = 1e-8 min(1, s-) above the support, where Im G is within O(eps)
        # of its boundary value
        meas = ci.density(lam, 64)
        eps = 1e-8 * min(1.0, ci.support_endpoints(lam)[0])
        for i in (6, 19, 32, 45, 58):
            t = float(meas.grid[i])
            oracle = -ci.cauchy_transform(complex(t, eps), lam).imag / math.pi
            assert meas.density[i] == pytest.approx(oracle, rel=1e-6)


class TestPushforward:
    def test_point_mass(self):
        import freeprob.measures as me

        pushed = ci.pushforward_inverse_sqrt(me.SpectralMeasure.from_atoms([(4.0, 1.0)]))
        assert pushed.atoms == ((0.5, 1.0),)

    def test_mass_conservation_and_support(self):
        lam = 2.0
        meas = ci.density(lam, 512)
        pushed = ci.pushforward_inverse_sqrt(meas)
        assert pushed.total_mass() == pytest.approx(1.0, abs=1e-6)
        # sup of the pushed support approaches the resolvent norm
        assert pushed.support_max() == pytest.approx(ci.inf_spec(lam) ** -0.5, rel=1e-3)
        assert pushed.support_min() == pytest.approx(
            ci.support_endpoints(lam)[1] ** -0.5, rel=1e-3
        )

    def test_moment_transport(self):
        # integral of y^-2 under the pushforward is the mean of the original
        lam = 2.0
        meas = ci.density(lam, 512)
        pushed = ci.pushforward_inverse_sqrt(meas)
        assert pushed.integrate(lambda y: y**-2.0) == pytest.approx(
            meas.moment(1), rel=1e-9
        )

    def test_support_touching_zero_rejected(self):
        import freeprob.measures as me

        with pytest.raises(ValueError):
            ci.pushforward_inverse_sqrt(me.SpectralMeasure.from_atoms([(0.0, 1.0)]))


class TestRTransformIdentity:
    def test_report_ok(self):
        report = ci.verify_circular_r_transform(8)
        assert report["ok"]
        assert report["mismatches"] == []
        assert report["free_poisson_at_lam0"]

    def test_analytic_coefficients(self):
        ks = ci.shift_r_transform_coefficients(4)
        assert ks[0] == 1 + LAM**2  # z^0 coefficient of the R-transform
        assert ks[3] == 1 + 4 * LAM**2  # z^3 coefficient

    def test_combinatorial_route_matches(self):
        analytic = ci.shift_r_transform_coefficients(6)
        combinatorial = cu.circular_shift_cumulants(6)
        assert analytic == combinatorial

    def test_cumulants_sum_to_the_transform_series(self):
        # sum kappa_n z^{n-1} equals the series of 1/(1-z) + lam^2/(1-z)^2
        from freeprob import series as se

        order = 6
        one_minus_z = se.FormalSeries([1, -1] + [0] * (order - 1), order)
        inv = one_minus_z.reciprocal()
        lam2 = LAM * LAM
        closed = inv + (inv * inv).scale(lam2)
        kappas = cu.circular_shift_cumulants(order + 1)
        assert [Poly.coerce(c) for c in closed.coeffs] == [
            Poly.coerce(k) for k in kappas[: order + 1]
        ]

    def test_lam_zero_free_poisson(self):
        ks = ci.shift_r_transform_coefficients(5)
        assert [k.subs({"lam": Fraction(0)}) for k in ks] == [1, 1, 1, 1, 1]


class TestWordMoments:
    def test_first_moment(self):
        lam = Poly.var("lam")
        assert ci.shift_square_modulus_moment(1, lam) == lam**2 + 1

    def test_second_moment_closed_form(self):
        lam = Poly.var("lam")
        assert ci.shift_square_modulus_moment(2, lam) == lam**4 + 4 * lam**2 + 2
